// In-place IR rewriting utility: variable renaming.
//
// renameVars serves the Scilab block inliner (port/local renaming) and
// loop fusion (renaming the second loop's variable).
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

}  // namespace argo::ir
