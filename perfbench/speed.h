// The speed probe: how fast the CPUs under a workload run while it runs.
//
// The reference machine is a guest whose vCPUs share their host's cores
// and caches with other guests, and each vCPU's speed changes from second
// to second: the same 27 apps_compile points took 100 ms on one vCPU and
// 145 ms on another, and which vCPU was slow changed every few seconds. A
// pure ALU loop barely slows; the allocation and pointer-chasing work the
// tool-chain is made of does. Medians over a run do not remove this: one
// run's throughput read 0.7x of the next one's.
//
// So the probe does two things. It moves a one-thread workload to the
// next CPU every 100 ms, so a run averages over every CPU it may use
// instead of measuring the one it happened to land on. And on the CPU it
// moved to, it runs a fixed kernel of the tool-chain's kind and records
// its thread CPU time. On the workload's own CPU that kernel's time
// tracked the workload's (correlation 0.98 per 0.1 s pass; 0.42 from
// another CPU), so metrics.py divides each time the benchmark reports by
// the kernel's slowdown over the same interval.
#pragma once

#include <pthread.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace perfbench {

/// One kernel run: when it ended, in seconds since the probe started, and
/// its thread CPU time in milliseconds.
struct SpeedSample {
  double atS = 0.0;
  double kernelMs = 0.0;
};

/// The CPUs this process may run on.
[[nodiscard]] std::vector<int> allowedCpus();

class SpeedProbe {
 public:
  using Clock = std::chrono::steady_clock;

  /// Starts the sampling thread, which visits the CPUs of `cpus` in turn.
  /// When `workload` is set, it takes that thread (a one-thread
  /// workload's only thread) along to each CPU it visits.
  SpeedProbe(std::vector<int> cpus, std::optional<pthread_t> workload);
  /// Stops and joins the sampling thread.
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Seconds from the probe's start to `t`.
  [[nodiscard]] double secondsAt(Clock::time_point t) const;
  /// CPU seconds the sampling thread has spent in the kernel so far;
  /// the benchmark takes them out of the workload's process CPU time.
  [[nodiscard]] double cpuSeconds() const;
  /// Every sample taken so far, in the order they were taken.
  [[nodiscard]] std::vector<SpeedSample> samples() const;

 private:
  void sampleLoop(std::vector<int> cpus, std::optional<pthread_t> workload);

  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;                 // guarded by mutex_
  std::vector<SpeedSample> samples_;  // guarded by mutex_
  double cpuSeconds_ = 0.0;           // guarded by mutex_
  std::thread thread_;                // last: the thread uses the above
};

}  // namespace perfbench
