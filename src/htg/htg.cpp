#include "htg/htg.h"

#include <algorithm>
#include <set>
#include <utility>

#include "support/diagnostics.h"

namespace argo::htg {

using support::ToolchainError;

namespace {

/// Bytes of all variables in `vars` (0 for loop variables).
std::int64_t footprintBytes(const ir::Function& fn,
                            const std::set<std::string>& vars) {
  std::int64_t total = 0;
  for (const std::string& v : vars) {
    if (const ir::VarDecl* decl = fn.find(v)) total += decl->type.byteSize();
  }
  return total;
}

std::string nodeName(const ir::Stmt& stmt, int index) {
  if (!stmt.label.empty()) return stmt.label;
  switch (stmt.kind()) {
    case ir::StmtKind::For:
      return "loop_" + ir::cast<ir::For>(stmt).var() + "_" +
             std::to_string(index);
    case ir::StmtKind::If:
      return "cond_" + std::to_string(index);
    default:
      return "stmt_" + std::to_string(index);
  }
}

/// Dependence edge between two nodes: variables written by `a` and touched
/// by `b`, plus anti-dependences (read by a, written by b).
std::set<std::string> conflictVars(const ir::VarUsage& a,
                                   const ir::VarUsage& b) {
  std::set<std::string> vars;
  for (const std::string& w : a.writes) {
    if (b.reads.contains(w) || b.writes.contains(w)) vars.insert(w);
  }
  for (const std::string& r : a.reads) {
    if (b.writes.contains(r)) vars.insert(r);
  }
  return vars;
}

}  // namespace

Htg buildHtg(const ir::Function& fn) {
  std::vector<HtgNode> nodes;
  int id = 0;
  for (const ir::StmtPtr& stmt : fn.body().stmts()) {
    HtgNode node;
    node.id = id;
    node.stmt = stmt.get();
    node.name = nodeName(*stmt, id);
    node.usage = ir::collectUsage(*stmt);
    if (const auto* loop = ir::dynCast<ir::For>(*stmt)) {
      node.loop = loop;
      node.parallelizable = ir::isLoopParallel(*loop, fn);
    }
    nodes.push_back(std::move(node));
    ++id;
  }

  // Privatized scalars must not escape: a loop whose chunks each hold a
  // "last value" of a scalar temp cannot be split if any other node reads
  // that temp (sequential semantics would deliver the final iteration's
  // value; chunked execution would deliver an arbitrary chunk's).
  for (HtgNode& node : nodes) {
    if (!node.parallelizable) continue;
    for (const std::string& w : node.usage.writes) {
      const ir::VarDecl* decl = fn.find(w);
      if (decl == nullptr || !decl->type.isScalar()) continue;
      for (const HtgNode& other : nodes) {
        if (other.id != node.id && other.usage.reads.contains(w)) {
          node.parallelizable = false;
          break;
        }
      }
      if (!node.parallelizable) break;
    }
  }

  std::vector<Dep> deps;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      std::set<std::string> vars = conflictVars(nodes[i].usage, nodes[j].usage);
      if (vars.empty()) continue;
      Dep dep;
      dep.from = nodes[i].id;
      dep.to = nodes[j].id;
      dep.bytes = footprintBytes(fn, vars);
      dep.vars = std::move(vars);
      deps.push_back(std::move(dep));
    }
  }
  return Htg(fn, std::move(nodes), std::move(deps));
}

std::vector<std::vector<int>> TaskGraph::successors() const {
  std::vector<std::vector<int>> succ(tasks.size());
  for (const Dep& d : deps) {
    succ[static_cast<std::size_t>(d.from)].push_back(d.to);
  }
  return succ;
}

std::vector<std::vector<int>> TaskGraph::predecessors() const {
  std::vector<std::vector<int>> pred(tasks.size());
  for (const Dep& d : deps) {
    pred[static_cast<std::size_t>(d.to)].push_back(d.from);
  }
  return pred;
}

TaskGraph expand(const Htg& htg, const ExpandOptions& options) {
  if (options.chunksPerLoop < 1) {
    throw ToolchainError("expand: chunksPerLoop must be >= 1");
  }
  TaskGraph graph;
  graph.fn = &htg.fn();

  // taskOf[node] = task ids instantiated from that HTG node.
  std::vector<std::vector<int>> taskOf(htg.nodes().size());

  // Pre-compute the merge group of each node: consecutive loop-free nodes
  // share a group when mergeScalarChains is on; every other node is its
  // own group.
  std::vector<int> groupOf(htg.nodes().size());
  {
    int group = -1;
    bool previousMergeable = false;
    for (std::size_t k = 0; k < htg.nodes().size(); ++k) {
      const bool mergeable =
          options.mergeScalarChains && htg.nodes()[k].loop == nullptr;
      if (!(mergeable && previousMergeable)) ++group;
      groupOf[k] = group;
      previousMergeable = mergeable;
    }
  }
  int lastGroup = -1;

  for (const HtgNode& node : htg.nodes()) {
    const bool split =
        node.parallelizable && options.chunksPerLoop > 1 &&
        node.loop->tripCount() > 1;
    if (!split) {
      const int group = groupOf[static_cast<std::size_t>(node.id)];
      if (options.mergeScalarChains && node.loop == nullptr &&
          group == lastGroup && !graph.tasks.empty()) {
        // Append to the previous task of the same scalar chain.
        Task& previous = graph.tasks.back();
        previous.stmts.push_back(node.stmt->clone());
        previous.usage.merge(node.usage);
        taskOf[static_cast<std::size_t>(node.id)].push_back(previous.id);
        continue;
      }
      lastGroup = group;
      Task task;
      task.id = static_cast<int>(graph.tasks.size());
      task.name = node.name;
      task.stmts.push_back(node.stmt->clone());
      task.htgNode = node.id;
      task.usage = node.usage;
      taskOf[static_cast<std::size_t>(node.id)].push_back(task.id);
      graph.tasks.push_back(std::move(task));
      continue;
    }
    lastGroup = -1;
    // Split the parallel loop's iterations into near-equal chunks. Chunk c
    // runs iterations [first, next): it starts at that iteration's index
    // and ends at the next chunk's first index, the last chunk at the
    // loop's own upper bound.
    const ir::For& loop = *node.loop;
    const std::uint64_t trip = loop.iterations();
    const std::uint64_t chunks = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(options.chunksPerLoop), trip);
    std::uint64_t first = 0;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const std::uint64_t next =
          first + trip / chunks + (c < trip % chunks ? 1 : 0);
      ir::StmtPtr cloned = loop.clone();
      auto& clonedLoop = ir::cast<ir::For>(*cloned);
      clonedLoop.setBounds(loop.valueAt(first),
                           next == trip ? loop.upper() : loop.valueAt(next));
      first = next;

      Task task;
      task.id = static_cast<int>(graph.tasks.size());
      task.name = node.name + "#" + std::to_string(c);
      task.stmts.push_back(std::move(cloned));
      task.htgNode = node.id;
      task.chunkIndex = static_cast<int>(c);
      task.chunkCount = static_cast<int>(chunks);
      task.usage = node.usage;
      taskOf[static_cast<std::size_t>(node.id)].push_back(task.id);
      graph.tasks.push_back(std::move(task));
    }
  }

  // Instantiate dependence edges between every chunk pair of dependent
  // nodes. Chunks of the same node are mutually independent by
  // construction (the loop was proven parallel). Buffer bytes are split
  // evenly across consuming chunks — each chunk needs only its slice of
  // the producer's output (documented approximation for non-rectangular
  // access patterns; safe for scheduling, which treats bytes as transfer
  // cost, not as a correctness property).
  std::set<std::pair<int, int>> seenEdges;
  for (const Dep& dep : htg.deps()) {
    const auto& producers = taskOf[static_cast<std::size_t>(dep.from)];
    const auto& consumers = taskOf[static_cast<std::size_t>(dep.to)];
    for (int p : producers) {
      for (int c : consumers) {
        // Merged chains collapse several HTG nodes into one task: skip
        // self-edges and duplicates.
        if (p == c || !seenEdges.emplace(p, c).second) continue;
        Dep edge;
        edge.from = p;
        edge.to = c;
        edge.vars = dep.vars;
        edge.bytes = std::max<std::int64_t>(
            1, dep.bytes / static_cast<std::int64_t>(
                               producers.size() * consumers.size()));
        graph.deps.push_back(std::move(edge));
      }
    }
  }
  return graph;
}

}  // namespace argo::htg
