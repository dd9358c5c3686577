// Functions and variable declarations of the ARGO IR.
//
// A Function owns its body (a statement Block) and a symbol table of typed
// variable declarations, each tagged with a role (input / output / state /
// temp / constant) and a storage class (local / scratchpad / shared). The
// symbol table is the single source of truth the whole tool-chain shares:
// the evaluator allocates environments from it, the WCET analysis prices
// accesses by its storage classes, the scratchpad allocator rewrites them,
// and the task extractor derives communication volumes from them.
//
// Invariants: every VarRef in the body refers to a declared variable;
// declarations are unique by name; clone() produces a deep copy with no
// pointers into the original (the toolchain relies on this to keep the
// caller's model untouched).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/stmt.h"
#include "ir/type.h"

namespace argo::ir {

/// Where a variable lives on the target platform. The scratchpad allocator
/// (src/transform) rewrites Shared -> Scratchpad for profitable variables;
/// the timing model charges different access costs per storage class
/// (paper Section III-B: scratchpads preferred to caches).
enum class Storage : std::uint8_t {
  Local,       ///< Core-private register/stack storage; cheapest access.
  Scratchpad,  ///< Core-private scratchpad memory (SPM).
  Shared,      ///< Off-tile shared memory reached over the interconnect.
};

[[nodiscard]] const char* storageName(Storage storage) noexcept;

/// Role of a declared variable with respect to the enclosing function.
enum class VarRole : std::uint8_t {
  Input,   ///< Read-only function input.
  Output,  ///< Function result written by the body.
  State,   ///< Persistent across invocations (e.g. Delay block state).
  Temp,    ///< Function-local temporary.
  Const,   ///< Read-only data initialized once (lookup tables, kernels).
};

[[nodiscard]] const char* varRoleName(VarRole role) noexcept;

/// A declared variable.
struct VarDecl {
  std::string name;
  Type type;
  VarRole role = VarRole::Temp;
  Storage storage = Storage::Shared;
};

/// A function: declarations plus a structured body.
///
/// ARGO functions communicate exclusively through declared Input/Output/State
/// variables (no return values); this matches the dataflow front end where a
/// function implements one synchronous step of the model.
class Function {
 public:
  explicit Function(std::string name) : name_(std::move(name)) {
    body_ = std::make_unique<Block>();
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Declares a variable. Throws ToolchainError on duplicate names.
  VarDecl& declare(VarDecl decl);
  VarDecl& declare(std::string name, Type type, VarRole role = VarRole::Temp,
                   Storage storage = Storage::Shared);

  [[nodiscard]] const VarDecl* find(const std::string& name) const noexcept;
  [[nodiscard]] VarDecl* find(const std::string& name) noexcept;
  /// Like find() but throws ToolchainError when absent.
  [[nodiscard]] const VarDecl& lookup(const std::string& name) const;

  [[nodiscard]] const std::vector<VarDecl>& decls() const noexcept {
    return decls_;
  }
  [[nodiscard]] std::vector<VarDecl>& decls() noexcept { return decls_; }

  [[nodiscard]] const Block& body() const noexcept { return *body_; }
  [[nodiscard]] Block& body() noexcept { return *body_; }
  void setBody(std::unique_ptr<Block> body) noexcept {
    body_ = std::move(body);
  }

  [[nodiscard]] std::unique_ptr<Function> clone() const;

  /// Total byte size of all declared variables with the given storage class.
  [[nodiscard]] std::int64_t storageBytes(Storage storage) const noexcept;

 private:
  std::string name_;
  std::vector<VarDecl> decls_;
  std::unordered_map<std::string, std::size_t> index_;
  std::unique_ptr<Block> body_;
};

/// Structural validation: every referenced variable is declared, index
/// counts match ranks, loop steps positive, loop trip counts fit in int64,
/// loop variables do not shadow declared variables. Returns problems as
/// strings; empty means valid.
[[nodiscard]] std::vector<std::string> validate(const Function& fn);

}  // namespace argo::ir
