// Textual ADL format: parse and serialize Platform descriptions.
//
// The format is line-oriented; '#' starts a comment. Example:
//
//   platform demo
//   shared_memory 8388608
//   interconnect bus round_robin base_access 10 slot 12 word_bytes 4
//   core fast int_alu 1 int_mul 2 int_div 12 float_add 2 float_mul 2
//        float_div 16 math_func 40 ... local_access 1 spm_access 1
//        spm_bytes 32768          (single line in the actual format)
//   tile 0 fast
//   tile 1 fast
//
// For NoC platforms:
//
//   interconnect noc 4 4 router 3 link 1 flit_bytes 4 mem_access 16 mem_tile 0
//
// `platform`, `shared_memory`, `interconnect` and each `core NAME` appear
// once. parseAdl throws support::ToolchainError naming the line of any
// malformed, out-of-range or repeated input (only a section missing
// altogether is reported without one, as `ADL: missing ...`);
// toAdlText(parseAdl(text)) round-trips. ADL holds one model per core
// name, so toAdlText throws support::ToolchainError, naming the name, for
// a platform whose tiles give one name to two different core models.
#pragma once

#include <string>
#include <string_view>

#include "adl/platform.h"

namespace argo::adl {

[[nodiscard]] Platform parseAdl(std::string_view text);

[[nodiscard]] std::string toAdlText(const Platform& platform);

}  // namespace argo::adl
