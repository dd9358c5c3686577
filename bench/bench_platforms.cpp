// E7: predictable interconnects compared.
//
// Same application on: round-robin bus (work-conserving, contention-
// sensitive), TDMA bus (composable, contention-independent but never
// better than the full wheel), and the iNoC-style mesh with WRR QoS
// guarantees (Sec. III-B, IV-C).
#include "common.h"

int main() {
  using namespace argo;
  bench::printHeader(
      "E7 — bus (RR) vs bus (TDMA) vs iNoC-style mesh",
      "the interconnect's guarantees shape both the bound and the actual "
      "behaviour (Sec. III-B/IV-C)");

  struct PlatformCase {
    const char* name;
    adl::Platform platform;
  };
  std::vector<PlatformCase> platforms;
  platforms.push_back({"bus_round_robin",
                       adl::makeRecoreXentiumBus(8, adl::Arbitration::RoundRobin)});
  platforms.push_back({"bus_tdma",
                       adl::makeRecoreXentiumBus(8, adl::Arbitration::Tdma)});
  platforms.push_back({"inoc_mesh_2x4", adl::makeKitLeon3Inoc(2, 4)});

  std::printf("%-8s %-18s %14s %14s %7s\n", "app", "interconnect", "bound",
              "obsWorst", "ratio");
  for (bench::AppCase& app : bench::allApps()) {
    for (PlatformCase& p : platforms) {
      const core::Toolchain toolchain(p.platform, core::ToolchainOptions{});
      const core::ToolchainResult result = toolchain.run(app.diagram);
      const adl::Cycles observed = bench::observedWorst(
          result, p.platform, app.name, /*trials=*/10);
      std::printf("%-8s %-18s %14s %14s %6.2fx\n", app.name.c_str(), p.name,
                  support::formatCycles(result.system.makespan).c_str(),
                  support::formatCycles(observed).c_str(),
                  static_cast<double>(result.system.makespan) /
                      static_cast<double>(observed));
    }
    std::printf("\n");
  }
  std::printf("expected shape: TDMA's bound is contention-independent but "
              "pays the wheel on every access (worst bound, tightest "
              "ratio); RR benefits most from MHP refinement; the NoC "
              "scales best when traffic is spread.\n");
  return 0;
}
