// Hierarchical Task Graph (HTG) extraction.
//
// Paper Section II-B: "a task extraction stage is applied to the program,
// from which we obtain a Hierarchical Task Graph (HTG). In a HTG, loops are
// enclosed in an additional hierarchy level, resulting in a hierarchy of
// acyclic task graphs. Task dependencies embed information on the variables
// and the buffers that need to be communicated between tasks, while task
// nodes include additional information on possible shared resource
// accesses."
//
// Representation here:
//  * Htg       — one node per top-level statement region of the step
//                function. For-loops form their own hierarchy level; a loop
//                whose iterations carry no dependence (ir::isLoopParallel)
//                is marked expandable.
//  * Dep       — a dependence edge annotated with the conflicting variables
//                and the number of bytes that must be communicated.
//  * expand()  — instantiates the hierarchy into a flat, acyclic task set
//                for the scheduler: parallel loops are split into
//                `chunksPerLoop` iteration-range chunks (the paper's "very
//                fine grain task decomposition" knob), sequential regions
//                stay single tasks, and adjacent tiny tasks can be merged.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ir/dependence.h"
#include "ir/function.h"

namespace argo::htg {

/// One node of the HTG: a top-level statement of the step function.
struct HtgNode {
  int id = 0;
  std::string name;
  /// The statement this node executes (owned by the source function).
  const ir::Stmt* stmt = nullptr;
  /// Non-null when the statement is a For loop (one extra hierarchy level).
  const ir::For* loop = nullptr;
  /// True when the loop's iterations can execute concurrently.
  bool parallelizable = false;
  /// Name-level read/write sets.
  ir::VarUsage usage;
};

/// A dependence edge between HTG nodes (program order, name-level sets,
/// refined by the array dependence tests where applicable).
struct Dep {
  int from = 0;
  int to = 0;
  /// Variables written by `from` and read/written by `to`.
  std::set<std::string> vars;
  /// Worst-case bytes that must be visible to `to` (sum of conflicting
  /// variable footprints; the buffer sizes of paper Section II-B).
  std::int64_t bytes = 0;
};

/// The hierarchical task graph of one function.
class Htg {
 public:
  Htg(const ir::Function& fn, std::vector<HtgNode> nodes, std::vector<Dep> deps)
      : fn_(&fn), nodes_(std::move(nodes)), deps_(std::move(deps)) {}

  [[nodiscard]] const ir::Function& fn() const noexcept { return *fn_; }
  [[nodiscard]] const std::vector<HtgNode>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] const std::vector<Dep>& deps() const noexcept { return deps_; }

 private:
  const ir::Function* fn_;
  std::vector<HtgNode> nodes_;
  std::vector<Dep> deps_;
};

/// Builds the HTG of `fn`: one node per top-level statement, dependence
/// edges from name-level read/write conflicts (kept transitively complete;
/// the scheduler relies on pairwise edges, not on transitive reduction).
[[nodiscard]] Htg buildHtg(const ir::Function& fn);

/// A schedulable task instantiated from the HTG.
struct Task {
  int id = 0;
  std::string name;
  /// Statements to execute, owned by the task (clones; loop chunks carry
  /// adjusted bounds).
  std::vector<ir::StmtPtr> stmts;
  /// Originating HTG node and chunk position (chunkCount == 1 for
  /// non-split nodes).
  int htgNode = 0;
  int chunkIndex = 0;
  int chunkCount = 1;
  ir::VarUsage usage;
};

/// Flat acyclic task graph handed to the scheduler.
struct TaskGraph {
  const ir::Function* fn = nullptr;
  std::vector<Task> tasks;
  /// Edges between indices into `tasks`. Every edge has `from < to`, so
  /// task ids are a topological order: expand() numbers tasks in program
  /// order, and the scheduler's rank and critical-path passes walk ids
  /// in reverse.
  std::vector<Dep> deps;

  [[nodiscard]] std::vector<std::vector<int>> successors() const;
  [[nodiscard]] std::vector<std::vector<int>> predecessors() const;
};

/// Expansion options.
struct ExpandOptions {
  /// Number of chunks each parallelizable loop is split into, clamped to
  /// the trip count (count, default 4). 1 disables loop-level parallelism;
  /// this is the paper's "very fine grain task decomposition" knob, and
  /// the axis the cross-layer feedback loop explores.
  int chunksPerLoop = 4;
  /// Merge runs of consecutive loop-free HTG nodes (scalar "glue" code)
  /// into one task each (default false; core::Toolchain turns it on).
  /// Consecutive program-order nodes can always be merged without
  /// creating cycles (no third node can sit between them), and fusing
  /// scalar glue removes synchronization overhead that would otherwise
  /// dominate tiny tasks.
  bool mergeScalarChains = false;
};

/// Instantiates the HTG into a flat task graph.
[[nodiscard]] TaskGraph expand(const Htg& htg, const ExpandOptions& options);

}  // namespace argo::htg
