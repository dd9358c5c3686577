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

namespace argo::sched {

namespace {

class HeftPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "heft";
  }
  [[nodiscard]] Schedule run(const SchedContext& ctx,
                             const SchedOptions& options) const override {
    return detail::listSchedule(ctx, detail::CommTable(ctx),
                                options.interferenceAware,
                                std::string(name()));
  }
};

class ContentionObliviousPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "contention_oblivious";
  }
  [[nodiscard]] Schedule run(const SchedContext& ctx,
                             const SchedOptions& /*options*/) const override {
    return detail::listSchedule(ctx, detail::CommTable(ctx),
                                /*interferenceAware=*/false,
                                std::string(name()));
  }
};

}  // namespace

namespace detail {

std::unique_ptr<SchedulingPolicy> makeHeftPolicy() {
  return std::make_unique<HeftPolicy>();
}

std::unique_ptr<SchedulingPolicy> makeContentionObliviousPolicy() {
  return std::make_unique<ContentionObliviousPolicy>();
}

}  // namespace detail

}  // namespace argo::sched
