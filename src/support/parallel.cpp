#include "support/parallel.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/diagnostics.h"

namespace argo::support {

namespace {

// Set while the current thread executes a pooled task body — a parallelFor
// index or a TaskGraph node — on a team thread or on the calling thread.
thread_local bool tlInParallelTask = false;

// Restores (not clears) the previous value: an inline parallelFor nested
// inside a pooled task must leave the task flag set for the rest of the
// enclosing task, or the no-nested-pools guard would be disabled.
using TaskScope = detail::ParallelTaskScope;

}  // namespace

namespace detail {

ParallelTaskScope::ParallelTaskScope() noexcept
    : previous_(tlInParallelTask) {
  tlInParallelTask = true;
}

ParallelTaskScope::~ParallelTaskScope() { tlInParallelTask = previous_; }

void runTeam(unsigned executors, const char* owner,
             const std::function<void()>& body) {
  if (executors <= 1) {
    body();
    return;
  }
  if (tlInParallelTask) {
    throw ToolchainError(std::string(owner) +
                         ": nested pooled use from a parallel task; "
                         "inner phases must run with threads = 1");
  }
  // A member forwards an exception escaping `body` instead of ending the
  // program, and the team is joined on every path, a failed spawn
  // included. The caller is member 0, so one fewer thread is spawned.
  std::vector<std::exception_ptr> errors(executors);
  const auto member = [&](unsigned index) {
    try {
      body();
    } catch (...) {
      errors[index] = std::current_exception();
    }
  };
  std::vector<std::thread> team;
  team.reserve(executors - 1);
  const auto joinTeam = [&team] {
    for (std::thread& thread : team) thread.join();
  };
  try {
    for (unsigned i = 1; i < executors; ++i) team.emplace_back(member, i);
  } catch (...) {
    joinTeam();
    throw;
  }
  member(0);
  joinTeam();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace detail

unsigned effectiveParallelism(int threads, std::size_t n) {
  unsigned resolved = threads > 0 ? static_cast<unsigned>(threads)
                                  : std::thread::hardware_concurrency();
  if (resolved == 0) resolved = 1;
  if (n < resolved) resolved = static_cast<unsigned>(n);
  return resolved == 0 ? 1u : resolved;
}

bool inParallelTask() noexcept { return tlInParallelTask; }

void parallelFor(std::size_t n, int threads,
                 const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;

  // Every executor claims the next unclaimed index until none is left; a
  // single executor (the inline path) therefore walks 0..n-1 in order.
  // Every index runs, and the lowest failing index's exception is kept
  // whatever order the failures happened in.
  std::atomic<std::size_t> next{0};
  std::mutex errorMutex;
  std::exception_ptr error;
  std::size_t errorIndex = n;
  detail::runTeam(effectiveParallelism(threads, n), "support::parallelFor",
                  [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      TaskScope scope;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(errorMutex);
        if (i < errorIndex) {
          error = std::current_exception();
          errorIndex = i;
        }
      }
    }
  });
  if (error) std::rethrow_exception(error);
}

}  // namespace argo::support
