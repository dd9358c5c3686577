// Cross-layer programming interface renderings (paper Section II-E).
//
// The ARGO UI "exposes to end users at various abstraction levels the
// complex optimization decisions made by the tool-chain"; this module is
// that interface in plain-text form: a Gantt chart of the worst-case
// schedule, the may-happen-in-parallel matrix, and a per-task bottleneck
// table (code-level WCET vs interference), so "application bottlenecks can
// be identified and the artifacts hindering an efficient parallelization
// can be outlined".
#pragma once

#include <string>

#include "core/toolchain.h"

namespace argo::core {

/// ASCII Gantt chart of the system-level worst-case schedule: one row per
/// tile, time binned into `columns` columns, task ids printed in their
/// windows.
[[nodiscard]] std::string renderGantt(const ToolchainResult& result,
                                      int columns = 72);

/// The MHP matrix of the final parallel program ('#' = may run in
/// parallel), with task names. Small graphs only (readability).
[[nodiscard]] std::string renderMhpMatrix(const ToolchainResult& result);

/// Per-task bottleneck table, the `topN` tasks by inflated WCET: each
/// row's inflated WCET, its code-level WCET on its tile, the interference
/// added to it and its contender count, then the total interference — the
/// "what is hindering parallelization" view.
[[nodiscard]] std::string renderBottlenecks(const ToolchainResult& result,
                                            int topN = 12);

}  // namespace argo::core
