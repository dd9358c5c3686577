// E4: safety and tightness of the bound.
//
// The static system-level WCET must dominate every simulated execution
// (safety) and should not be absurdly far above the observed worst case
// (tightness) — Sec. I: "to be useful they have to be as close as possible
// to the actual WCET".
#include "common.h"

int main() {
  using namespace argo;
  bench::printHeader(
      "E4 — bound safety & tightness",
      "WCET estimates are higher than any possible execution time, and "
      "close to it (Sec. I)");

  std::printf("%-8s %-18s %14s %14s %7s %6s\n", "app", "platform", "bound",
              "obsWorst", "ratio", "safe");
  for (const adl::Platform& platform :
       {adl::makeRecoreXentiumBus(8), adl::makeKitLeon3Inoc(4, 4)}) {
    for (bench::AppCase& app : bench::allApps()) {
      const core::Toolchain toolchain(platform, core::ToolchainOptions{});
      const core::ToolchainResult result = toolchain.run(app.diagram);
      const adl::Cycles observed = bench::observedWorst(
          result, platform, app.name, /*trials=*/25);
      std::printf("%-8s %-18s %14s %14s %6.2fx %6s\n", app.name.c_str(),
                  platform.name().c_str(),
                  support::formatCycles(result.system.makespan).c_str(),
                  support::formatCycles(observed).c_str(),
                  static_cast<double>(result.system.makespan) /
                      static_cast<double>(observed),
                  observed <= result.system.makespan ? "yes" : "NO!");
    }
  }
  std::printf("\nexpected shape: safe everywhere; ratio typically 1.2-2.5x "
              "(path + interference pessimism), never below 1.\n");
  return 0;
}
