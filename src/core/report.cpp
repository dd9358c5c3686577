#include "core/report.h"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <sstream>

#include "support/strings.h"
#include "syswcet/system_wcet.h"

namespace argo::core {

std::string renderGantt(const ToolchainResult& result, int columns) {
  std::ostringstream os;
  const Cycles makespan = std::max<Cycles>(1, result.system.makespan);
  os << "worst-case schedule (0 .. " << support::formatCycles(makespan)
     << " cycles; '#' executing, '.' idle)\n";
  for (std::size_t tile = 0; tile < result.schedule.tileOrder.size(); ++tile) {
    const auto& order = result.schedule.tileOrder[tile];
    if (order.empty()) continue;
    std::string row(static_cast<std::size_t>(columns), '.');
    for (int task : order) {
      const auto& bound = result.system.tasks[static_cast<std::size_t>(task)];
      int from = static_cast<int>(bound.start * columns / makespan);
      int to = static_cast<int>(bound.finish * columns / makespan);
      from = std::clamp(from, 0, columns - 1);
      to = std::clamp(to, from + 1, columns);
      for (int c = from; c < to; ++c) {
        row[static_cast<std::size_t>(c)] = '#';
      }
      // Mark the task id at its start column when there is room.
      const std::string id = std::to_string(task);
      if (from + static_cast<int>(id.size()) <= columns) {
        for (std::size_t k = 0; k < id.size(); ++k) {
          row[static_cast<std::size_t>(from) + k] = id[k];
        }
      }
    }
    os << "  tile " << tile << " |" << row << "|\n";
  }
  return os.str();
}

std::string renderMhpMatrix(const ToolchainResult& result) {
  const auto mhp = syswcet::mayHappenInParallel(result.program);
  const std::size_t n = result.graph->tasks.size();
  std::ostringstream os;
  os << "may-happen-in-parallel ('#': concurrent, '.': ordered)\n    ";
  for (std::size_t j = 0; j < n; ++j) os << (j % 10);
  os << '\n';
  for (std::size_t i = 0; i < n; ++i) {
    os << (i < 10 ? "  " : " ") << i << ' ';
    for (std::size_t j = 0; j < n; ++j) {
      os << (mhp[i][j] ? '#' : '.');
    }
    os << "  " << result.graph->tasks[i].name << '\n';
  }
  return os.str();
}

std::string renderBottlenecks(const ToolchainResult& result, int topN) {
  struct Row {
    int task;
    Cycles total;
    Cycles codeLevel;
    Cycles interference;
    int contenders;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < result.graph->tasks.size(); ++i) {
    const int tile = result.schedule.placements[i].tile;
    const auto& bound = result.system.tasks[i];
    rows.push_back(Row{
        static_cast<int>(i), bound.inflated,
        result.timings[i].wcetByTile[static_cast<std::size_t>(tile)],
        bound.interference, bound.contenders});
  }
  // Sort by inflated duration, largest first.
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.total > b.total; });
  if (static_cast<int>(rows.size()) > topN) {
    rows.resize(static_cast<std::size_t>(topN));
  }

  std::ostringstream os;
  os << "per-task bottlenecks (top " << rows.size() << " by inflated WCET)\n";
  os << std::left << std::setw(6) << "  task" << std::setw(26) << "name"
     << std::right << std::setw(12) << "inflated" << std::setw(12)
     << "code-level" << std::setw(14) << "interference" << std::setw(12)
     << "contenders" << '\n';
  for (const Row& row : rows) {
    const auto& task = result.graph->tasks[static_cast<std::size_t>(row.task)];
    os << "  " << std::left << std::setw(4) << row.task << std::setw(26)
       << task.name.substr(0, 24) << std::right << std::setw(12)
       << support::formatCycles(row.total) << std::setw(12)
       << support::formatCycles(row.codeLevel) << std::setw(14)
       << support::formatCycles(row.interference) << std::setw(11)
       << row.contenders << 'x' << '\n';
  }
  const Cycles interferenceTotal = std::accumulate(
      result.system.tasks.begin(), result.system.tasks.end(), Cycles{0},
      [](Cycles acc, const syswcet::TaskBound& t) {
        return acc + t.interference;
      });
  os << "total interference share of all tasks: "
     << support::formatCycles(interferenceTotal) << " cycles\n";
  return os.str();
}

}  // namespace argo::core
