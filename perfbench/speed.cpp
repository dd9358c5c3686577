#include "speed.h"

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdio>
#include <ctime>
#include <map>
#include <stdexcept>
#include <string>

namespace perfbench {

namespace {

/// How long the probe stays on one CPU. Each move costs the workload its
/// warm caches: with 25 ms a matrix50 pass ran a fifth slower than with
/// 100 ms.
constexpr std::chrono::milliseconds kSlot{100};
/// Kernel runs before sampling starts: the first ones fault in the
/// sampling thread's heap and would read slow.
constexpr int kWarmupRuns = 3;

/// Keeps the kernel's result alive so the compiler cannot drop its work.
std::atomic<std::size_t> kernelSink{0};

/// The kernel: builds and walks an ordered map of 2500 short strings to
/// small vectors, the allocation and pointer-chasing mix of the
/// tool-chain's IR and graph code. Its work is fixed.
void kernel() {
  std::map<std::string, std::vector<int>> table;
  for (int i = 0; i < 2500; ++i) {
    table["key" + std::to_string(i * 7919 % 2503)] =
        std::vector<int>(static_cast<std::size_t>(i % 17 + 1), i);
  }
  std::size_t sum = 0;
  for (const auto& [key, values] : table) sum += key.size() + values.size();
  kernelSink.fetch_add(sum, std::memory_order_relaxed);
}

double threadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) / 1e9;
}

void pinThread(pthread_t thread, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (pthread_setaffinity_np(thread, sizeof(set), &set) != 0) {
    throw std::runtime_error("cannot pin a thread to CPU " + std::to_string(cpu));
  }
}

}  // namespace

std::vector<int> allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("cannot read the process's CPUs");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

SpeedProbe::SpeedProbe(std::vector<int> cpus, std::optional<pthread_t> workload) {
  if (cpus.empty()) throw std::runtime_error("the speed probe needs a CPU");
  thread_ = std::thread([this, cpus = std::move(cpus), workload] {
    sampleLoop(cpus, workload);
  });
}

SpeedProbe::~SpeedProbe() {
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

double SpeedProbe::secondsAt(Clock::time_point t) const {
  return std::chrono::duration<double>(t - epoch_).count();
}

double SpeedProbe::cpuSeconds() const {
  const std::lock_guard lock(mutex_);
  return cpuSeconds_;
}

std::vector<SpeedSample> SpeedProbe::samples() const {
  const std::lock_guard lock(mutex_);
  return samples_;
}

void SpeedProbe::sampleLoop(std::vector<int> cpus,
                            std::optional<pthread_t> workload) {
  const double warmupBegin = threadCpuSeconds();
  for (int run = 0; run < kWarmupRuns; ++run) kernel();
  const double warmup = threadCpuSeconds() - warmupBegin;
  // One sample per slot; the kernel takes about 1.3 ms, so the probe costs
  // the workload about 1.3% of its time.
  std::unique_lock lock(mutex_);
  cpuSeconds_ += warmup;
  for (std::size_t slot = 0;
       !wake_.wait_for(lock, kSlot, [this] { return stop_; }); ++slot) {
    lock.unlock();
    const int cpu = cpus[slot % cpus.size()];
    try {
      if (workload.has_value()) pinThread(*workload, cpu);
      pinThread(pthread_self(), cpu);
    } catch (const std::exception& error) {
      // Unpinned samples still track the machine, only less closely.
      if (slot == 0) std::fprintf(stderr, "perfbench: %s\n", error.what());
    }
    const double begin = threadCpuSeconds();
    kernel();
    const double spent = threadCpuSeconds() - begin;
    const double at = secondsAt(Clock::now());
    lock.lock();
    samples_.push_back(SpeedSample{at, spent * 1000.0});
    cpuSeconds_ += spent;
  }
}

}  // namespace perfbench
