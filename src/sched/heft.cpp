// The "heft" and "contention_oblivious" policies.
//
// HEFT (Heterogeneous Earliest Finish Time) is the tool-chain's workhorse:
// WCET-aware list scheduling with upward-rank priorities and
// earliest-finish-time placement, optionally inflating every candidate
// placement by a shared-resource contention estimate (the paper's "all
// shared resource contenders are known and their number is reduced during
// parallelization", Section III-C).
//
// The contention-oblivious variant is the same machinery with the
// interference estimate forced off — the average-case-style baseline a
// manually parallelized flow (parMERASA-style, Section III-C) would
// produce. bench_interference measures the gap between the two.
#include "sched/list_placement.h"
#include "sched/policy.h"

namespace argo::sched::detail {

Schedule heft(const SchedContext& ctx, const SchedOptions& options) {
  return listSchedule(ctx, CommTable(ctx), options.interferenceAware, "heft");
}

Schedule contentionOblivious(const SchedContext& ctx,
                             const SchedOptions& /*options*/) {
  return listSchedule(ctx, CommTable(ctx), /*interferenceAware=*/false,
                      "contention_oblivious");
}

}  // namespace argo::sched::detail
