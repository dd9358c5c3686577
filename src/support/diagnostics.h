// Diagnostics: the tool-chain's one error type.
//
// Malformed inputs (ADL text, Scilab source, diagram wiring, generator
// knobs) and broken invariants throw ToolchainError with a message that
// names what went wrong; the CLIs print it and exit non-zero. The disk
// cache is the one input path that does not throw: a bad record is a
// counted reject and a recompute (support/disk_cache.h).
#pragma once

#include <stdexcept>
#include <string>

namespace argo::support {

/// Exception thrown on unrecoverable tool-chain errors (broken invariants,
/// malformed inputs that prevent any further processing).
class ToolchainError : public std::runtime_error {
 public:
  explicit ToolchainError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace argo::support
