// In-place IR rewriting utilities: variable renaming and substitution.
//
// renameVars serves the Scilab block inliner (port/local renaming) and
// loop fusion (renaming the second loop's variable); substituteVar has no
// tool-chain caller left, only the rewrite tests.
#pragma once

#include <map>
#include <string>

#include "ir/stmt.h"

namespace argo::ir {

/// Renames every variable reference (and loop variable) occurring in
/// `expr`/`stmt` according to `renames`. Names absent from the map are left
/// unchanged.
void renameVars(Expr& expr, const std::map<std::string, std::string>& renames);
void renameVars(Stmt& stmt, const std::map<std::string, std::string>& renames);

/// Replaces every scalar reference to `var` in `expr` with a clone of
/// `replacement`. Returns the possibly-new root (the root itself may be the
/// reference being replaced).
[[nodiscard]] ExprPtr substituteVar(ExprPtr expr, const std::string& var,
                                    const Expr& replacement);

/// Replaces scalar references to `var` with `replacement` throughout a
/// statement tree (including array index expressions and loop bounds are
/// unaffected — bounds are constants by construction).
void substituteVar(Stmt& stmt, const std::string& var, const Expr& replacement);

}  // namespace argo::ir
