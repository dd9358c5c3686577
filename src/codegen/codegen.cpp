#include "codegen/codegen.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "codegen/lower.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace argo::codegen {

using support::appendf;
using support::ToolchainError;

namespace {

/// The header-only runtime, emitted verbatim as argo_rt.h. Both execution
/// modes ship in the one header; program.h selects via ARGO_EXEC_THREADS /
/// ARGO_RUNTIME_ASSERTS before including it.
constexpr const char* kRuntimeHeader =
    R"RT(// Generated by the ARGO tool-chain - do not edit.
//
// Header-only runtime for emitted ARGO programs (docs/CODEGEN.md).
//
// The target model is the paper's WCET-aware programming model: a static
// per-tile task order with explicit synchronization. On this host build
// all tiles share one address space, so an inter-tile channel carries no
// payload copy - the bytes are already visible in the emitted memory
// regions when the producer signals - and the channel's job is ordering.
// Two execution modes share this header; program.h selects one:
//
//   ARGO_EXEC_THREADS == 0 - sequential replay: one thread walks the
//     merged time-triggered dispatch table. Event flags are plain bytes
//     and argo_wait traps (exit 3) on any unposted event instead of
//     deadlocking, turning a bad dispatch table into a loud
//     differential-test failure.
//   ARGO_EXEC_THREADS == 1 - true parallel execution: one pthread per
//     tile walks that tile's own dispatch table. Event channels become
//     condvar waits under one global mutex (the producer's signal is the
//     happens-before edge that publishes the payload bytes), the
//     per-step rendezvous is a counted reusable barrier, and a watchdog
//     (ARGO_WATCHDOG_NS, default 10 s) turns a deadlocked wait into the
//     same loud exit 3.
//
// With ARGO_RUNTIME_ASSERTS == 1 every slot additionally checks its
// scheduled start and finish cycle against a monotonic step-relative
// clock: elapsed_ns <= cycles * ARGO_NS_PER_CYCLE + ARGO_ASSERT_SLACK_NS
// (both env-overridable). A violation exits 4 - the schedule's WCET
// claim checked by execution, not only by simulation.
#ifndef ARGO_RT_H
#define ARGO_RT_H

// POSIX.1-2008 declarations (clock_gettime, pthreads) under -std=c11.
#ifndef _POSIX_C_SOURCE
#define _POSIX_C_SOURCE 200809L
#endif

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

#ifndef ARGO_EXEC_THREADS
#define ARGO_EXEC_THREADS 0
#endif
#ifndef ARGO_RUNTIME_ASSERTS
#define ARGO_RUNTIME_ASSERTS 0
#endif

#if ARGO_EXEC_THREADS
#include <errno.h>
#include <pthread.h>
#endif
#if ARGO_EXEC_THREADS || ARGO_RUNTIME_ASSERTS
#include <time.h>
#endif

// One inter-tile dependence channel of the explicit parallel program
// (par::Event): traceability metadata for the event flag with the same
// index.
typedef struct {
  int event;
  int producer_task;
  int consumer_task;
  int producer_tile;
  int consumer_tile;
  long long bytes;  // worst-case payload the consumer must see
} argo_chan_info;

// Event flags, one per channel; defined in main.c.
extern unsigned char argo_events[];

static inline void argo_trap(const char *what) {
  fprintf(stderr, "argo_rt: %s\n", what);
  exit(3);
}

#if ARGO_EXEC_THREADS || ARGO_RUNTIME_ASSERTS
// Monotonic clock in nanoseconds: the watchdog / runtime-assert time
// base. Never subject to wall-clock jumps.
static inline long long argo_now_ns(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (long long)ts.tv_sec * 1000000000ll + (long long)ts.tv_nsec;
}

// Non-negative integer environment knob with a fallback (0 is allowed,
// so tests can make the assert bounds impossibly tight).
static inline long long argo_env_ns(const char *name, long long fallback) {
  const char *text = getenv(name);
  char *end = NULL;
  long long v;
  if (text == NULL || *text == '\0') return fallback;
  v = strtoll(text, &end, 10);
  if (end == NULL || *end != '\0' || v < 0) return fallback;
  return v;
}
#endif  // ARGO_EXEC_THREADS || ARGO_RUNTIME_ASSERTS

#if ARGO_RUNTIME_ASSERTS
// Virtual time base mapping scheduled cycles to host nanoseconds; set
// once in main() before any tile thread starts. The defaults (10 us per
// cycle, 2 s slack) are generous enough that a correct schedule passes
// on a loaded CI host while a stalled or deadlock-adjacent slot still
// fails; tighten via the environment to calibrate to a real target.
extern long long argo_ns_per_cycle;     // env ARGO_NS_PER_CYCLE
extern long long argo_assert_slack_ns;  // env ARGO_ASSERT_SLACK_NS
// Monotonic timestamp of the current step's start; written by the
// harness between step barriers, so every slot check happens-after it.
extern long long argo_step_base_ns;

static inline void argo_check_bound(int task, const char *edge,
                                    long long cycles) {
  const long long elapsed = argo_now_ns() - argo_step_base_ns;
  const long long bound = cycles * argo_ns_per_cycle + argo_assert_slack_ns;
  if (elapsed > bound) {
    fprintf(stderr,
            "argo_rt: runtime assert: task %d %s %lld ns after step start, "
            "past its scheduled bound %lld ns (%lld cycles)\n",
            task, edge, elapsed, bound, cycles);
    exit(4);
  }
}
#endif  // ARGO_RUNTIME_ASSERTS

#if ARGO_EXEC_THREADS

// Watchdog budget for any single wait (ns); env ARGO_WATCHDOG_NS.
extern long long argo_watchdog_ns;
// One global mutex/condvar pair guards all event flags: signals
// broadcast so multi-consumer channels wake every waiter, and the
// payload bytes a channel orders are published to the consumer through
// the same mutex (the happens-before edge TSan checks).
extern pthread_mutex_t argo_ev_mu;
extern pthread_cond_t argo_ev_cv;

static inline void argo_rt_init(void) {
  argo_watchdog_ns = argo_env_ns("ARGO_WATCHDOG_NS", argo_watchdog_ns);
}

// 50 ms realtime-clock slices let blocked waits poll the monotonic
// watchdog, so a wall-clock jump cannot fire or suppress it.
static inline void argo_timeslice(struct timespec *abst) {
  clock_gettime(CLOCK_REALTIME, abst);
  abst->tv_nsec += 50 * 1000 * 1000;
  if (abst->tv_nsec >= 1000000000) {
    abst->tv_sec += 1;
    abst->tv_nsec -= 1000000000;
  }
}

static inline void argo_signal(int event) {
  pthread_mutex_lock(&argo_ev_mu);
  argo_events[event] = 1;
  pthread_cond_broadcast(&argo_ev_cv);
  pthread_mutex_unlock(&argo_ev_mu);
}

static inline void argo_wait(int event) {
  const long long give_up = argo_now_ns() + argo_watchdog_ns;
  pthread_mutex_lock(&argo_ev_mu);
  while (!argo_events[event]) {
    struct timespec abst;
    int rc;
    argo_timeslice(&abst);
    rc = pthread_cond_timedwait(&argo_ev_cv, &argo_ev_mu, &abst);
    if (rc != 0 && rc != ETIMEDOUT) {
      argo_trap("pthread_cond_timedwait failed");
    }
    if (!argo_events[event] && argo_now_ns() > give_up) {
      fprintf(stderr,
              "argo_rt: watchdog: wait on event %d exceeded %lld ns - "
              "dispatch-table deadlock\n",
              event, argo_watchdog_ns);
      exit(3);
    }
  }
  pthread_mutex_unlock(&argo_ev_mu);
}

// Counted reusable rendezvous barrier, generation-numbered so back-to-
// back steps can cycle the same two barriers forever (pthread_barrier_t
// is optional in POSIX, so the runtime carries its own). Guarded by the
// same watchdog as channel waits: a lost tile thread must not hang the
// harness silently.
typedef struct {
  pthread_mutex_t mu;
  pthread_cond_t cv;
  int parties;
  int waiting;
  unsigned long long generation;
} argo_barrier;

#define ARGO_BARRIER_INIT(n) \
  {PTHREAD_MUTEX_INITIALIZER, PTHREAD_COND_INITIALIZER, (n), 0, 0}

static inline void argo_barrier_wait(argo_barrier *b) {
  pthread_mutex_lock(&b->mu);
  {
    const unsigned long long arrived = b->generation;
    if (++b->waiting == b->parties) {
      b->waiting = 0;
      b->generation += 1;
      pthread_cond_broadcast(&b->cv);
    } else {
      const long long give_up = argo_now_ns() + argo_watchdog_ns;
      while (b->generation == arrived) {
        struct timespec abst;
        int rc;
        argo_timeslice(&abst);
        rc = pthread_cond_timedwait(&b->cv, &b->mu, &abst);
        if (rc != 0 && rc != ETIMEDOUT) {
          argo_trap("pthread_cond_timedwait failed");
        }
        if (b->generation == arrived && argo_now_ns() > give_up) {
          fprintf(stderr,
                  "argo_rt: watchdog: step barrier exceeded %lld ns - a "
                  "tile thread is stuck\n",
                  argo_watchdog_ns);
          exit(3);
        }
      }
    }
  }
  pthread_mutex_unlock(&b->mu);
}

// Step reset: zero every event flag under the channel mutex. The harness
// calls this between the done and start barriers, when no tile thread is
// inside a step.
static inline void argo_step_barrier(int event_count) {
  int k;
  pthread_mutex_lock(&argo_ev_mu);
  for (k = 0; k < event_count; ++k) argo_events[k] = 0;
  pthread_mutex_unlock(&argo_ev_mu);
}

#else  // !ARGO_EXEC_THREADS

static inline void argo_signal(int event) { argo_events[event] = 1; }

static inline void argo_wait(int event) {
  if (!argo_events[event]) {
    argo_trap("wait on unposted event (schedule violation)");
  }
}

// Step barrier: called between synchronous steps, when every slot of the
// previous step has completed; resets all event flags for the next step.
static inline void argo_step_barrier(int event_count) {
  for (int k = 0; k < event_count; ++k) argo_events[k] = 0;
}

#endif  // ARGO_EXEC_THREADS

// One entry of a tile's static time-triggered dispatch table.
typedef struct {
  long long start;     // scheduled worst-case start cycle
  long long deadline;  // scheduled worst-case finish cycle
  int task;            // task id in the task graph
  void (*fn)(void);
  const int *waits;  // events to consume before running
  int wait_count;
  const int *signals;  // events to post after running
  int signal_count;
} argo_slot;

static inline void argo_run_slot(const argo_slot *slot) {
  int k;
  for (k = 0; k < slot->wait_count; ++k) argo_wait(slot->waits[k]);
#if ARGO_RUNTIME_ASSERTS
  argo_check_bound(slot->task, "started", slot->start);
#endif
  slot->fn();
#if ARGO_RUNTIME_ASSERTS
  argo_check_bound(slot->task, "finished", slot->deadline);
#endif
  for (k = 0; k < slot->signal_count; ++k) argo_signal(slot->signals[k]);
}

// Trap-checked integer helpers mirroring the reference evaluator, which
// throws on division/modulo by zero.
static inline int64_t argo_idiv(int64_t a, int64_t b) {
  if (b == 0) argo_trap("integer division by zero");
  return a / b;
}
static inline int64_t argo_imod(int64_t a, int64_t b) {
  if (b == 0) argo_trap("integer modulo by zero");
  return a % b;
}
static inline int64_t argo_imin(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t argo_imax(int64_t a, int64_t b) { return a > b ? a : b; }
static inline int64_t argo_iabs(int64_t a) { return a < 0 ? -a : a; }

// Deterministic accumulator ordering: loop-carried reductions run inside
// a single task, and tasks touching the same accumulator are serialized
// by dependence edges, so in both execution modes one global floating-
// point summation order is fixed - the reference evaluator's program
// order. That is why the threaded build's outputs are byte-for-byte the
// sequential build's outputs regardless of interleaving.

#endif  // ARGO_RT_H
)RT";

std::int64_t alignUp8(std::int64_t v) { return (v + 7) & ~std::int64_t{7}; }

/// Escapes a string for embedding as a C string literal.
std::string cStringLit(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

/// One entry of the sequential build's global dispatch table: the
/// `indexInTile`-th task of its tile's order.
struct Slot {
  int task = -1;
  int tile = -1;
  int indexInTile = 0;
  adl::Cycles start = 0;
};

/// Widths the emitted byte regions narrow integer stores to (the width
/// caveat of docs/CODEGEN.md, turned into a loud diagnostic).
void checkDeclaredWidth(const ir::VarDecl& decl, const ir::Value& value,
                        const char* what) {
  if (decl.type.kind() == ir::ScalarKind::Float64) return;
  const bool isBool = decl.type.kind() == ir::ScalarKind::Bool;
  const std::int64_t lo = isBool ? -128 : INT32_MIN;
  const std::int64_t hi = isBool ? 127 : INT32_MAX;
  for (std::int64_t k = 0; k < value.size(); ++k) {
    const std::int64_t v = value.getInt(k);
    if (v < lo || v > hi) {
      throw ToolchainError("codegen: " + std::string(what) + " '" +
                           decl.name + "' value " + std::to_string(v) +
                           " exceeds the declared " +
                           (isBool ? "bool" : "int32") +
                           " width (the emitted region narrows stores; see "
                           "docs/CODEGEN.md)");
    }
  }
}

/// Renders one element value as a C initializer literal of the declared
/// element type.
std::string elementLiteral(const ir::VarDecl& decl, const ir::Value& value,
                           std::int64_t flat) {
  if (decl.type.kind() == ir::ScalarKind::Float64) {
    return floatLiteral(value.getFloat(flat));
  }
  return std::to_string(value.getInt(flat));
}

}  // namespace

const SourceFile& Emission::file(const std::string& name) const {
  for (const SourceFile& f : files) {
    if (f.name == name) return f;
  }
  throw ToolchainError("codegen: no emitted file named '" + name + "'");
}

std::string canonicalOutputs(const ir::Function& fn,
                             const ir::Environment& env, int step) {
  std::string out;
  appendf(out, "-- step %d\n", step);
  for (const ir::VarDecl& decl : fn.decls()) {
    if (decl.role != ir::VarRole::Output) continue;
    auto it = env.find(decl.name);
    if (it == env.end()) {
      throw ToolchainError("canonicalOutputs: missing output '" + decl.name +
                           "'");
    }
    const ir::Value& value = it->second;
    const bool isFloat = decl.type.kind() == ir::ScalarKind::Float64;
    const std::int64_t count = decl.type.elementCount();
    // appendf grows the string, so arbitrarily long variable names print
    // in full — matching the emitted harness's unbounded printf.
    for (std::int64_t k = 0; k < count; ++k) {
      if (decl.type.isScalar()) {
        if (isFloat) {
          appendf(out, "%s = %a\n", decl.name.c_str(), value.getFloat(k));
        } else {
          appendf(out, "%s = %lld\n", decl.name.c_str(),
                  static_cast<long long>(value.getInt(k)));
        }
      } else {
        if (isFloat) {
          appendf(out, "%s[%d] = %a\n", decl.name.c_str(),
                  static_cast<int>(k), value.getFloat(k));
        } else {
          appendf(out, "%s[%d] = %lld\n", decl.name.c_str(),
                  static_cast<int>(k),
                  static_cast<long long>(value.getInt(k)));
        }
      }
    }
  }
  return out;
}

std::string referenceOutputs(const ir::Function& fn,
                             const ir::Environment& constants,
                             const InputTrace& trace) {
  ir::Environment env = ir::makeZeroEnvironment(fn);
  for (const auto& [name, value] : constants) env[name] = value;
  const ir::Evaluator evaluator(fn);
  std::string out;
  for (std::size_t step = 0; step < trace.steps.size(); ++step) {
    for (const ir::VarDecl& decl : fn.decls()) {
      if (decl.role != ir::VarRole::Input) continue;
      auto it = trace.steps[step].find(decl.name);
      if (it == trace.steps[step].end()) {
        throw ToolchainError("referenceOutputs: step " + std::to_string(step) +
                             " misses input '" + decl.name + "'");
      }
      env[decl.name] = it->second;
    }
    evaluator.run(env);
    out += canonicalOutputs(fn, env, static_cast<int>(step));
  }
  return out;
}

const char* runtimeHeader() noexcept { return kRuntimeHeader; }

Emission emitProgram(const par::ParallelProgram& program,
                     const adl::Platform& platform,
                     const ir::Environment& constants,
                     const InputTrace& trace, const EmitOptions& options) {
  if (program.graph == nullptr || program.graph->fn == nullptr) {
    throw ToolchainError("codegen: parallel program carries no task graph");
  }
  const ir::Function& fn = *program.graph->fn;
  const htg::TaskGraph& graph = *program.graph;
  const bool threaded = options.mode == ExecMode::Threads;
  Lowerer lowerer(fn);

  // ---- Validate the trace up front (same rule as Evaluator::run). ----
  if (trace.steps.empty()) {
    throw ToolchainError(
        "codegen: input trace is empty - the emitted harness replays "
        "recorded steps, record at least one (--emit-steps >= 1)");
  }
  for (std::size_t step = 0; step < trace.steps.size(); ++step) {
    for (const ir::VarDecl& decl : fn.decls()) {
      if (decl.role != ir::VarRole::Input) continue;
      const auto it = trace.steps[step].find(decl.name);
      if (it == trace.steps[step].end()) {
        throw ToolchainError("codegen: input trace step " +
                             std::to_string(step) + " misses input '" +
                             decl.name + "'");
      }
      checkDeclaredWidth(decl, it->second, "input trace value for");
    }
  }
  for (const ir::VarDecl& decl : fn.decls()) {
    const auto it = constants.find(decl.name);
    if (it == constants.end()) continue;
    checkDeclaredWidth(decl, it->second, "constant");
  }

  // ---- Region sizes from the address map. ----
  std::int64_t shmTop = 0x1000;  // the sync-flag reservation
  std::vector<std::int64_t> spmTop(
      static_cast<std::size_t>(platform.coreCount()), 0);
  for (const auto& [name, entry] : program.addresses) {
    if (entry.storage == ir::Storage::Shared) {
      shmTop = std::max(shmTop, entry.address + entry.bytes);
    } else if (entry.storage == ir::Storage::Scratchpad) {
      auto& top = spmTop[static_cast<std::size_t>(entry.tile)];
      top = std::max(top, entry.address + entry.bytes);
    }
  }
  shmTop = alignUp8(shmTop);

  // ---- The global time-triggered order: every tile's slots merged by
  // scheduled start cycle, ties by task id. ----
  const std::vector<std::vector<int>>& tileOrder = program.schedule.tileOrder;
  std::vector<Slot> dispatch;
  for (std::size_t t = 0; t < tileOrder.size(); ++t) {
    for (std::size_t k = 0; k < tileOrder[t].size(); ++k) {
      const int task = tileOrder[t][k];
      dispatch.push_back(Slot{
          task, static_cast<int>(t), static_cast<int>(k),
          program.schedule.placements[static_cast<std::size_t>(task)].start});
    }
  }
  std::sort(dispatch.begin(), dispatch.end(),
            [](const Slot& a, const Slot& b) {
              return a.start != b.start ? a.start < b.start : a.task < b.task;
            });

  Emission emission;
  emission.files.push_back(SourceFile{"argo_rt.h", kRuntimeHeader});

  // ---- program.h: the memory map as C. ----
  std::string ph;
  appendf(ph,
          "// Generated by the ARGO tool-chain - do not edit.\n"
          "// Memory map and dispatch declarations: function '%s' on "
          "platform '%s'.\n"
          "#ifndef ARGO_PROGRAM_H\n#define ARGO_PROGRAM_H\n\n"
          "// Execution mode (docs/CODEGEN.md \"Execution modes\"):\n"
          "// 0 = sequential replay, 1 = one pthread per tile.\n"
          "#define ARGO_EXEC_THREADS %d\n"
          "#define ARGO_RUNTIME_ASSERTS %d\n"
          "#include \"argo_rt.h\"\n\n",
          fn.name().c_str(), platform.name().c_str(), threaded ? 1 : 0,
          options.runtimeAsserts ? 1 : 0);
  appendf(ph, "#define ARGO_STEPS %d\n",
          static_cast<int>(trace.steps.size()));
  appendf(ph, "#define ARGO_EVENT_COUNT %d\n",
          static_cast<int>(program.events.size()));
  appendf(ph, "#define ARGO_SHM_BYTES %lld\n\n",
          static_cast<long long>(shmTop));
  appendf(ph, "extern unsigned char argo_shm[ARGO_SHM_BYTES];\n");
  for (int t = 0; t < platform.coreCount(); ++t) {
    const std::int64_t top = spmTop[static_cast<std::size_t>(t)];
    if (top == 0) continue;
    appendf(ph, "extern unsigned char argo_spm%d[%lld];  // tile %d SPM\n", t,
            static_cast<long long>(alignUp8(top)), t);
  }

  ph += "\n// Variable accessors at the addresses of the parallel program's"
        "\n// memory map (par::AddressEntry). Loads widen to the evaluator's"
        "\n// scalar model; stores narrow to these element types.\n";
  auto elementTypeName = [](ir::ScalarKind kind) {
    switch (kind) {
      case ir::ScalarKind::Float64: return "double";
      case ir::ScalarKind::Int32: return "int32_t";
      case ir::ScalarKind::Bool: return "signed char";
    }
    return "double";
  };
  std::string localDefs;  // main.c definitions for Local-storage variables
  for (const ir::VarDecl& decl : fn.decls()) {
    auto it = program.addresses.find(decl.name);
    if (it == program.addresses.end()) {
      throw ToolchainError("codegen: no address map entry for '" + decl.name +
                           "'");
    }
    const par::AddressEntry& entry = it->second;
    const std::string& cname = lowerer.cName(decl.name);
    const char* type = elementTypeName(decl.type.kind());
    switch (entry.storage) {
      case ir::Storage::Shared:
        appendf(ph, "#define %s ((%s *)(argo_shm + %lld))  // %s, %lld B\n",
                cname.c_str(), type, static_cast<long long>(entry.address),
                ir::varRoleName(decl.role),
                static_cast<long long>(entry.bytes));
        break;
      case ir::Storage::Scratchpad:
        appendf(ph,
                "#define %s ((%s *)(argo_spm%d + %lld))  // %s, %lld B\n",
                cname.c_str(), type, entry.tile,
                static_cast<long long>(entry.address),
                ir::varRoleName(decl.role),
                static_cast<long long>(entry.bytes));
        break;
      case ir::Storage::Local: {
        const std::string storageName = "argo_local_" + cname.substr(2);
        appendf(ph, "extern %s %s[%lld];\n#define %s %s  // local %s\n",
                type, storageName.c_str(),
                static_cast<long long>(decl.type.elementCount()),
                cname.c_str(), storageName.c_str(),
                ir::varRoleName(decl.role));
        appendf(localDefs, "%s %s[%lld];\n", type, storageName.c_str(),
                static_cast<long long>(decl.type.elementCount()));
        break;
      }
    }
  }

  ph += "\n// Scheduled tasks and per-tile dispatch tables.\n";
  std::vector<int> activeTiles;
  for (int t = 0; t < platform.coreCount(); ++t) {
    const std::vector<int>& order = tileOrder[static_cast<std::size_t>(t)];
    if (order.empty()) continue;
    activeTiles.push_back(t);
    for (int task : order) {
      appendf(ph, "void argo_task_%d(void);\n", task);
    }
    appendf(ph, "extern const argo_slot argo_tile%d_slots[%d];\n", t,
            static_cast<int>(order.size()));
  }
  ph += "\n#endif  // ARGO_PROGRAM_H\n";
  emission.files.push_back(SourceFile{"program.h", std::move(ph)});

  // ---- One translation unit per active tile. ----
  for (int t : activeTiles) {
    const std::vector<int>& order = tileOrder[static_cast<std::size_t>(t)];
    std::string tc;
    appendf(tc,
            "// Generated by the ARGO tool-chain - do not edit.\n"
            "// Tile %d (%s): %d scheduled tasks, static order.\n"
            "#include \"program.h\"\n",
            t, platform.tile(t).core.name.c_str(),
            static_cast<int>(order.size()));
    for (int id : order) {
      const htg::Task& task = graph.tasks[static_cast<std::size_t>(id)];
      const sched::Placement& placement =
          program.schedule.placements[static_cast<std::size_t>(id)];
      appendf(tc, "\n// task %d '%s' [start %lld, finish %lld]\n", id,
              task.name.c_str(), static_cast<long long>(placement.start),
              static_cast<long long>(placement.finish));
      appendf(tc, "void argo_task_%d(void) {\n", id);
      for (const ir::StmtPtr& stmt : task.stmts) {
        tc += lowerer.lowerStmt(*stmt, 1);
      }
      tc += "}\n";
    }
    tc += "\n";
    // The event ids each task waits for ("w") and signals ("s"), by task.
    auto eventTable = [&](const char* kind, int task,
                          const std::vector<int>& ids) {
      if (ids.empty()) return;
      appendf(tc, "static const int argo_%s_%d[] = {", kind, task);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        appendf(tc, "%s%d", k == 0 ? "" : ", ", ids[k]);
      }
      tc += "};\n";
    };
    for (int id : order) {
      eventTable("w", id, program.waits[static_cast<std::size_t>(id)]);
      eventTable("s", id, program.signals[static_cast<std::size_t>(id)]);
    }
    appendf(tc, "\nconst argo_slot argo_tile%d_slots[%d] = {\n", t,
            static_cast<int>(order.size()));
    for (int id : order) {
      const sched::Placement& placement =
          program.schedule.placements[static_cast<std::size_t>(id)];
      const std::vector<int>& waits =
          program.waits[static_cast<std::size_t>(id)];
      const std::vector<int>& signals =
          program.signals[static_cast<std::size_t>(id)];
      appendf(tc, "    {%lldll, %lldll, %d, argo_task_%d, %s, %d, %s, %d},\n",
              static_cast<long long>(placement.start),
              static_cast<long long>(placement.finish), id, id,
              waits.empty() ? "NULL"
                            : ("argo_w_" + std::to_string(id)).c_str(),
              static_cast<int>(waits.size()),
              signals.empty() ? "NULL"
                              : ("argo_s_" + std::to_string(id)).c_str(),
              static_cast<int>(signals.size()));
    }
    tc += "};\n";
    const std::string name = "tile" + std::to_string(t) + ".c";
    emission.cUnits.push_back(name);
    emission.files.push_back(SourceFile{name, std::move(tc)});
  }

  // ---- main.c: regions, trace, constants, dispatch, canonical output. ----
  std::string mc;
  appendf(mc,
          "// Generated by the ARGO tool-chain - do not edit.\n"
          "// Harness: replays the recorded %d-step input trace through the\n"
          "// static dispatch table%s and prints outputs in the canonical\n"
          "// format (docs/CODEGEN.md).\n"
          "#include \"program.h\"\n\n",
          static_cast<int>(trace.steps.size()),
          threaded ? "s (one pthread per tile)" : "");
  mc += "_Alignas(8) unsigned char argo_shm[ARGO_SHM_BYTES];\n";
  for (int t = 0; t < platform.coreCount(); ++t) {
    const std::int64_t top = spmTop[static_cast<std::size_t>(t)];
    if (top == 0) continue;
    appendf(mc, "_Alignas(8) unsigned char argo_spm%d[%lld];\n", t,
            static_cast<long long>(alignUp8(top)));
  }
  appendf(mc, "unsigned char argo_events[%d];\n",
          std::max<int>(1, static_cast<int>(program.events.size())));
  mc += localDefs;

  if (!program.events.empty()) {
    mc += "\n// Inter-tile channels (ordering flags; payloads are already\n"
          "// visible in the regions on this single-address-space host).\n"
          "static const argo_chan_info argo_channels[ARGO_EVENT_COUNT] = {\n";
    for (const par::Event& event : program.events) {
      appendf(mc, "    {%d, %d, %d, %d, %d, %lldll},\n", event.id,
              event.producerTask, event.consumerTask, event.producerTile,
              event.consumerTile, static_cast<long long>(event.bytes));
    }
    mc += "};\n";
  }

  // Constant tables (VarRole::Const values the tool-chain computed).
  mc += "\nstatic void argo_load_constants(void) {\n";
  for (const ir::VarDecl& decl : fn.decls()) {
    auto it = constants.find(decl.name);
    if (it == constants.end()) continue;
    const ir::Value& value = it->second;
    if (value.size() != decl.type.elementCount()) {
      throw ToolchainError("codegen: constant '" + decl.name +
                           "' does not match its declared type");
    }
    const std::string& cname = lowerer.cName(decl.name);
    for (std::int64_t k = 0; k < value.size(); ++k) {
      appendf(mc, "  %s[%d] = %s;\n", cname.c_str(), static_cast<int>(k),
              elementLiteral(decl, value, k).c_str());
    }
  }
  mc += "}\n";

  // The recorded input trace (never empty, checked above), one array per
  // Input variable.
  mc += "\n// Recorded inputs, one row per step.\n";
  for (const ir::VarDecl& decl : fn.decls()) {
    if (decl.role != ir::VarRole::Input) continue;
    const std::string& cname = lowerer.cName(decl.name);
    appendf(mc, "static const %s argo_in_%s[ARGO_STEPS][%lld] = {\n",
            elementTypeName(decl.type.kind()), cname.c_str() + 2,
            static_cast<long long>(decl.type.elementCount()));
    for (const ir::Environment& step : trace.steps) {
      const ir::Value& value = step.at(decl.name);
      if (value.size() != decl.type.elementCount()) {
        throw ToolchainError("codegen: trace value for '" + decl.name +
                             "' does not match its declared type");
      }
      mc += "    {";
      for (std::int64_t k = 0; k < value.size(); ++k) {
        if (k != 0) mc += ", ";
        mc += elementLiteral(decl, value, k);
      }
      mc += "},\n";
    }
    mc += "};\n";
  }

  mc += "\nstatic void argo_load_inputs(int step) {\n";
  for (const ir::VarDecl& decl : fn.decls()) {
    if (decl.role != ir::VarRole::Input) continue;
    const std::string& cname = lowerer.cName(decl.name);
    appendf(mc,
            "  for (int k = 0; k < %lld; ++k) %s[k] = "
            "argo_in_%s[step][k];\n",
            static_cast<long long>(decl.type.elementCount()), cname.c_str(),
            cname.c_str() + 2);
  }
  mc += "}\n";

  mc += "\nstatic void argo_print_outputs(int step) {\n"
        "  printf(\"-- step %d\\n\", step);\n";
  for (const ir::VarDecl& decl : fn.decls()) {
    if (decl.role != ir::VarRole::Output) continue;
    const std::string& cname = lowerer.cName(decl.name);
    const bool isFloat = decl.type.kind() == ir::ScalarKind::Float64;
    if (decl.type.isScalar()) {
      if (isFloat) {
        appendf(mc, "  printf(\"%%s = %%a\\n\", %s, %s[0]);\n",
                cStringLit(decl.name).c_str(), cname.c_str());
      } else {
        appendf(mc,
                "  printf(\"%%s = %%lld\\n\", %s, (long long)%s[0]);\n",
                cStringLit(decl.name).c_str(), cname.c_str());
      }
    } else {
      appendf(mc, "  for (int k = 0; k < %lld; ++k) {\n",
              static_cast<long long>(decl.type.elementCount()));
      if (isFloat) {
        appendf(mc, "    printf(\"%%s[%%d] = %%a\\n\", %s, k, %s[k]);\n",
                cStringLit(decl.name).c_str(), cname.c_str());
      } else {
        appendf(mc,
                "    printf(\"%%s[%%d] = %%lld\\n\", %s, k, "
                "(long long)%s[k]);\n",
                cStringLit(decl.name).c_str(), cname.c_str());
      }
      mc += "  }\n";
    }
  }
  mc += "}\n";

  // Runtime-assert state: the virtual time base and the per-step clock
  // origin (argo_rt.h), initialized in main before any slot runs.
  if (options.runtimeAsserts) {
    mc += "\n// Runtime-assert time base (argo_rt.h argo_check_bound).\n"
          "long long argo_ns_per_cycle;\n"
          "long long argo_assert_slack_ns;\n"
          "long long argo_step_base_ns;\n";
  }

  if (!threaded) {
    // The global time-triggered dispatch: slots of every tile merged by
    // scheduled start cycle (ties by task id), precomputed at emission
    // time.
    appendf(mc, "\nstatic const argo_slot *const argo_dispatch[%d] = {\n",
            static_cast<int>(dispatch.size()));
    for (const Slot& slot : dispatch) {
      const htg::Task& task = graph.tasks[static_cast<std::size_t>(slot.task)];
      appendf(mc, "    &argo_tile%d_slots[%d],  // task %d '%s' @ %lld\n",
              slot.tile, slot.indexInTile, slot.task, task.name.c_str(),
              static_cast<long long>(slot.start));
    }
    mc += "};\n";
  } else {
    // Threaded synchronization state (argo_rt.h externs) and the
    // per-tile thread bodies: each tile walks its own dispatch table;
    // the harness thread cycles the start/done barriers around every
    // step. Parties = active tiles + the harness.
    mc += "\n// Threaded execution state (argo_rt.h).\n"
          "pthread_mutex_t argo_ev_mu = PTHREAD_MUTEX_INITIALIZER;\n"
          "pthread_cond_t argo_ev_cv = PTHREAD_COND_INITIALIZER;\n"
          "long long argo_watchdog_ns = 10000000000ll;"
          "  // 10 s; env ARGO_WATCHDOG_NS\n";
    if (!activeTiles.empty()) {
      const int parties = static_cast<int>(activeTiles.size()) + 1;
      appendf(mc,
              "\nstatic argo_barrier argo_step_start = "
              "ARGO_BARRIER_INIT(%d);\n"
              "static argo_barrier argo_step_done = ARGO_BARRIER_INIT(%d);\n",
              parties, parties);
      mc += "\ntypedef struct {\n"
            "  const argo_slot *slots;\n"
            "  int count;\n"
            "} argo_tile_arg;\n"
            "\n"
            "static void *argo_tile_main(void *opaque) {\n"
            "  const argo_tile_arg *arg = (const argo_tile_arg *)opaque;\n"
            "  for (int step = 0; step < ARGO_STEPS; ++step) {\n"
            "    argo_barrier_wait(&argo_step_start);\n"
            "    for (int s = 0; s < arg->count; ++s) "
            "argo_run_slot(&arg->slots[s]);\n"
            "    argo_barrier_wait(&argo_step_done);\n"
            "  }\n"
            "  return NULL;\n"
            "}\n";
    }
  }

  mc += "\nint main(void) {\n";
  if (!program.events.empty()) {
    mc += "  (void)argo_channels;  // traceability table\n";
  }
  if (options.runtimeAsserts) {
    mc += "  argo_ns_per_cycle = argo_env_ns(\"ARGO_NS_PER_CYCLE\", "
          "10000ll);\n"
          "  argo_assert_slack_ns = argo_env_ns(\"ARGO_ASSERT_SLACK_NS\", "
          "2000000000ll);\n";
  }
  if (!threaded) {
    mc += "  argo_load_constants();\n"
          "  for (int step = 0; step < ARGO_STEPS; ++step) {\n"
          "    argo_step_barrier(ARGO_EVENT_COUNT);\n"
          "    argo_load_inputs(step);\n";
    if (options.runtimeAsserts) {
      mc += "    argo_step_base_ns = argo_now_ns();\n";
    }
    appendf(
        mc,
        "    for (int s = 0; s < %d; ++s) argo_run_slot(argo_dispatch[s]);\n",
        static_cast<int>(dispatch.size()));
    mc += "    argo_print_outputs(step);\n"
          "  }\n"
          "  return 0;\n"
          "}\n";
  } else {
    const int tileCount = static_cast<int>(activeTiles.size());
    mc += "  argo_rt_init();\n"
          "  argo_load_constants();\n";
    if (tileCount > 0) {
      appendf(mc, "  static const argo_tile_arg argo_tile_args[%d] = {\n",
              tileCount);
      for (int t : activeTiles) {
        appendf(mc, "      {argo_tile%d_slots, %d},\n", t,
                static_cast<int>(
                    tileOrder[static_cast<std::size_t>(t)].size()));
      }
      mc += "  };\n";
      appendf(mc, "  pthread_t argo_tile_threads[%d];\n", tileCount);
      appendf(mc,
              "  for (int t = 0; t < %d; ++t) {\n"
              "    if (pthread_create(&argo_tile_threads[t], NULL, "
              "argo_tile_main,\n"
              "                       (void *)&argo_tile_args[t]) != 0) {\n"
              "      argo_trap(\"pthread_create failed\");\n"
              "    }\n"
              "  }\n",
              tileCount);
    }
    mc += "  for (int step = 0; step < ARGO_STEPS; ++step) {\n"
          "    argo_step_barrier(ARGO_EVENT_COUNT);\n"
          "    argo_load_inputs(step);\n";
    if (options.runtimeAsserts) {
      mc += "    argo_step_base_ns = argo_now_ns();\n";
    }
    if (tileCount > 0) {
      mc += "    argo_barrier_wait(&argo_step_start);\n"
            "    argo_barrier_wait(&argo_step_done);\n";
    }
    mc += "    argo_print_outputs(step);\n"
          "  }\n";
    if (tileCount > 0) {
      appendf(mc,
              "  for (int t = 0; t < %d; ++t) "
              "pthread_join(argo_tile_threads[t], NULL);\n",
              tileCount);
    }
    mc += "  return 0;\n"
          "}\n";
  }
  emission.cUnits.push_back("main.c");
  emission.files.push_back(SourceFile{"main.c", std::move(mc)});

  return emission;
}

void writeSources(const std::string& dir, const Emission& emission) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw ToolchainError("codegen: cannot create directory '" + dir +
                         "': " + ec.message());
  }
  for (const SourceFile& file : emission.files) {
    const std::filesystem::path path = std::filesystem::path(dir) / file.name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw ToolchainError("codegen: cannot write '" + path.string() + "'");
    }
    out << file.contents;
  }
}

}  // namespace argo::codegen
