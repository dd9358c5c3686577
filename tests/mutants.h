// One-edit mutation corpora for the text readers (the ADL and the Scilab
// subset): every mutant of a valid seed text must either parse or be
// rejected with a support::ToolchainError whose message names its line.
#pragma once

#include <algorithm>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "support/diagnostics.h"

namespace argo::test {

/// Calls `visit(mutant)` for every one-edit mutant of `seed`: each byte
/// replaced by each byte of a fixed set that is structural in the readers'
/// grammars (a replacement equal to the byte is skipped), each byte
/// deleted, and the text truncated before each byte.
inline void forEachMutant(
    const std::string& seed,
    const std::function<void(const std::string&)>& visit) {
  static const std::string kBytes(
      {' ', '\n', '0', '9', '-', '(', ')', ':', ',', 'x', '.', '=', ';', '#',
       '\0', '\xff'});
  for (std::size_t at = 0; at < seed.size(); ++at) {
    for (char byte : kBytes) {
      if (seed[at] == byte) continue;
      std::string mutant = seed;
      mutant[at] = byte;
      visit(mutant);
    }
    visit(seed.substr(0, at) + seed.substr(at + 1));
    visit(seed.substr(0, at));
  }
}

/// Parses mutants and tallies them against the contract: a mutant keeps
/// it when it parses, or when the parser throws a ToolchainError whose
/// message is `linePrefix` N ": ..." with N a line of the mutant, or is
/// one of `lineless` exactly.
struct MutantSweep {
  MutantSweep(std::string linePrefix, std::vector<std::string> lineless)
      : linePrefix(std::move(linePrefix)), lineless(std::move(lineless)) {}

  std::string linePrefix;
  std::vector<std::string> lineless;
  int parsed = 0;
  int rejected = 0;
  /// One line per mutant that broke the contract, naming the failure.
  std::vector<std::string> breaks;

  /// Parses every mutant of `seed` with `parse`.
  void run(const std::string& seed,
           const std::function<void(const std::string&)>& parse) {
    forEachMutant(seed, [&](const std::string& mutant) {
      try {
        parse(mutant);
        ++parsed;
      } catch (const support::ToolchainError& error) {
        ++rejected;
        const std::string message = error.what();
        if (!namesItsLine(mutant, message) &&
            std::find(lineless.begin(), lineless.end(), message) ==
                lineless.end()) {
          breaks.push_back("message without its line: " + message);
        }
      } catch (const std::exception& error) {
        breaks.push_back(std::string("not a ToolchainError: ") + error.what());
      }
    });
  }

 private:
  [[nodiscard]] bool namesItsLine(const std::string& mutant,
                                  const std::string& message) const {
    if (message.rfind(linePrefix, 0) != 0) return false;
    const std::size_t colon =
        message.find_first_not_of("0123456789", linePrefix.size());
    if (colon == linePrefix.size() || colon == std::string::npos ||
        message[colon] != ':') {
      return false;
    }
    const long line = std::stol(message.substr(linePrefix.size()));
    return line >= 1 &&
           line <= 1 + std::count(mutant.begin(), mutant.end(), '\n');
  }
};

}  // namespace argo::test
