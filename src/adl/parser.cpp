#include "adl/parser.h"

#include <limits>
#include <map>
#include <optional>
#include <sstream>

#include "support/diagnostics.h"
#include "support/strings.h"

namespace argo::adl {

using support::ToolchainError;

namespace {

struct Line {
  int number = 0;
  std::vector<std::string> tokens;
};

std::vector<Line> tokenize(std::string_view text) {
  std::vector<Line> lines;
  int number = 0;
  for (const std::string& raw : support::split(text, '\n')) {
    ++number;
    std::string_view view = raw;
    if (const std::size_t hash = view.find('#'); hash != std::string_view::npos) {
      view = view.substr(0, hash);
    }
    view = support::trim(view);
    if (view.empty()) continue;
    Line line;
    line.number = number;
    std::istringstream is{std::string(view)};
    std::string token;
    while (is >> token) line.tokens.push_back(token);
    lines.push_back(std::move(line));
  }
  return lines;
}

[[noreturn]] void fail(const Line& line, const std::string& message) {
  throw ToolchainError("ADL line " + std::to_string(line.number) + ": " +
                       message);
}

/// Cycle fields (per operation, access, hop or slot) stay at or below a
/// million cycles, so sums such as router + link cannot overflow an int.
constexpr std::int64_t kMaxCycles = 1'000'000;
/// A mesh side of up to 1024 tiles keeps width * height inside an int.
constexpr std::int64_t kMaxMeshSide = 1024;
constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr std::int64_t kMaxInt64 = std::numeric_limits<std::int64_t>::max();

/// Reads `token`, the value of `what`, as a whole integer in [min, max].
std::int64_t parseInt(const Line& line, const std::string& what,
                      const std::string& token, std::int64_t min,
                      std::int64_t max) {
  const std::optional<std::int64_t> value =
      support::parseNumber<std::int64_t>(token);
  if (!value) fail(line, what + " expects an integer, got '" + token + "'");
  if (*value < min) {
    fail(line, what + " must be at least " + std::to_string(min) + ", got " +
                   token);
  }
  if (*value > max) {
    fail(line, what + " must be at most " + std::to_string(max) + ", got " +
                   token);
  }
  return *value;
}

/// Reads "key value key value ..." pairs starting at tokens[first], with
/// the values still as text.
std::map<std::string, std::string> parsePairs(const Line& line,
                                              std::size_t first) {
  std::map<std::string, std::string> pairs;
  if ((line.tokens.size() - first) % 2 != 0) {
    fail(line, "expected key/value pairs");
  }
  for (std::size_t i = first; i + 1 < line.tokens.size(); i += 2) {
    if (!pairs.emplace(line.tokens[i], line.tokens[i + 1]).second) {
      fail(line, "duplicate key '" + line.tokens[i] + "'");
    }
  }
  return pairs;
}

/// Takes `key` out of `pairs` and reads its value as an integer in
/// [min, max].
std::int64_t take(const Line& line, std::map<std::string, std::string>& pairs,
                  const std::string& key, std::int64_t min, std::int64_t max) {
  const auto it = pairs.find(key);
  if (it == pairs.end()) fail(line, "missing key '" + key + "'");
  return parseInt(line, key, pairs.extract(it).mapped(), min, max);
}

int takeCycles(const Line& line, std::map<std::string, std::string>& pairs,
               const std::string& key) {
  return static_cast<int>(take(line, pairs, key, 0, kMaxCycles));
}

/// Fails on the first key no `take` consumed.
void rejectUnknownKeys(const Line& line,
                       const std::map<std::string, std::string>& pairs) {
  if (!pairs.empty()) fail(line, "unknown key '" + pairs.begin()->first + "'");
}

CoreModel parseCore(const Line& line) {
  if (line.tokens.size() < 2) fail(line, "core needs a name");
  CoreModel core;
  core.name = line.tokens[1];
  auto pairs = parsePairs(line, 2);
  for (int i = 0; i < ir::kOpClassCount; ++i) {
    core.opCycles[static_cast<std::size_t>(i)] = takeCycles(
        line, pairs, ir::opClassName(static_cast<ir::OpClass>(i)));
  }
  core.localAccessCycles = takeCycles(line, pairs, "local_access");
  core.spmAccessCycles = takeCycles(line, pairs, "spm_access");
  core.spmBytes = take(line, pairs, "spm_bytes", 0, kMaxInt64);
  rejectUnknownKeys(line, pairs);
  return core;
}

}  // namespace

Platform parseAdl(std::string_view text) {
  const std::vector<Line> lines = tokenize(text);
  std::string platformName;
  std::int64_t sharedMemBytes = -1;
  const Line* interconnectLine = nullptr;
  std::optional<BusModel> bus;
  std::optional<NocModel> noc;
  std::map<std::string, CoreModel> cores;
  struct TileSpec {
    const Line* line = nullptr;
    int index = 0;
    std::string core;
  };
  std::vector<TileSpec> tileSpecs;

  for (const Line& line : lines) {
    const std::string& head = line.tokens.front();
    if (head == "platform") {
      if (!platformName.empty()) fail(line, "repeated 'platform'");
      if (line.tokens.size() != 2) fail(line, "platform needs a name");
      platformName = line.tokens[1];
    } else if (head == "shared_memory") {
      if (sharedMemBytes >= 0) fail(line, "repeated 'shared_memory'");
      if (line.tokens.size() != 2) fail(line, "shared_memory needs byte size");
      sharedMemBytes =
          parseInt(line, "shared_memory", line.tokens[1], 0, kMaxInt64);
    } else if (head == "interconnect") {
      if (interconnectLine != nullptr) fail(line, "repeated 'interconnect'");
      interconnectLine = &line;
      if (line.tokens.size() < 2) fail(line, "interconnect needs a kind");
      const std::string& kind = line.tokens[1];
      if (kind == "bus") {
        if (line.tokens.size() < 3) fail(line, "bus needs an arbitration");
        BusModel model;
        if (line.tokens[2] == "round_robin") {
          model.arbitration = Arbitration::RoundRobin;
        } else if (line.tokens[2] == "tdma") {
          model.arbitration = Arbitration::Tdma;
        } else {
          fail(line, "unknown arbitration '" + line.tokens[2] + "'");
        }
        auto pairs = parsePairs(line, 3);
        model.baseAccessCycles = takeCycles(line, pairs, "base_access");
        model.slotCycles = takeCycles(line, pairs, "slot");
        model.wordBytes =
            static_cast<int>(take(line, pairs, "word_bytes", 1, kMaxInt));
        rejectUnknownKeys(line, pairs);
        bus = model;
      } else if (kind == "noc") {
        if (line.tokens.size() < 4) fail(line, "noc needs mesh dimensions");
        NocModel model;
        model.meshWidth = static_cast<int>(
            parseInt(line, "mesh width", line.tokens[2], 1, kMaxMeshSide));
        model.meshHeight = static_cast<int>(
            parseInt(line, "mesh height", line.tokens[3], 1, kMaxMeshSide));
        auto pairs = parsePairs(line, 4);
        model.routerCycles = takeCycles(line, pairs, "router");
        model.linkCycles = takeCycles(line, pairs, "link");
        model.flitBytes =
            static_cast<int>(take(line, pairs, "flit_bytes", 1, kMaxInt));
        model.memAccessCycles = takeCycles(line, pairs, "mem_access");
        model.memTile = static_cast<int>(
            take(line, pairs, "mem_tile", 0,
                 std::int64_t{model.meshWidth} * model.meshHeight - 1));
        rejectUnknownKeys(line, pairs);
        noc = model;
      } else {
        fail(line, "unknown interconnect kind '" + kind + "'");
      }
    } else if (head == "core") {
      CoreModel core = parseCore(line);
      const std::string name = core.name;
      if (!cores.emplace(name, std::move(core)).second) {
        fail(line, "repeated core '" + name + "'");
      }
    } else if (head == "tile") {
      if (line.tokens.size() != 3) fail(line, "tile needs index and core name");
      tileSpecs.push_back(TileSpec{
          &line,
          static_cast<int>(
              parseInt(line, "tile index", line.tokens[1], 0, kMaxInt)),
          line.tokens[2]});
    } else {
      fail(line, "unknown directive '" + head + "'");
    }
  }

  if (platformName.empty()) throw ToolchainError("ADL: missing 'platform'");
  if (sharedMemBytes < 0) throw ToolchainError("ADL: missing 'shared_memory'");
  if (interconnectLine == nullptr) {
    throw ToolchainError("ADL: missing 'interconnect'");
  }
  if (tileSpecs.empty()) throw ToolchainError("ADL: no tiles declared");

  const int tileCount = static_cast<int>(tileSpecs.size());
  std::vector<Tile> tiles(tileSpecs.size());
  std::vector<bool> seen(tileSpecs.size(), false);
  for (const TileSpec& spec : tileSpecs) {
    const std::string index = std::to_string(spec.index);
    if (spec.index >= tileCount) {
      fail(*spec.line, "tile index " + index +
                           " out of range (tiles must be 0.." +
                           std::to_string(tileCount - 1) + ")");
    }
    if (seen[static_cast<std::size_t>(spec.index)]) {
      fail(*spec.line, "duplicate tile " + index);
    }
    seen[static_cast<std::size_t>(spec.index)] = true;
    const auto it = cores.find(spec.core);
    if (it == cores.end()) {
      fail(*spec.line,
           "tile " + index + " references unknown core '" + spec.core + "'");
    }
    tiles[static_cast<std::size_t>(spec.index)] = Tile{spec.index, it->second};
  }

  if (bus.has_value()) {
    return Platform(platformName, std::move(tiles), *bus, sharedMemBytes);
  }
  if (tileCount > noc->meshWidth * noc->meshHeight) {
    fail(*interconnectLine,
         std::to_string(tileCount) + " tiles do not fit the " +
             std::to_string(noc->meshWidth) + "x" +
             std::to_string(noc->meshHeight) + " mesh (" +
             std::to_string(noc->meshWidth * noc->meshHeight) +
             " positions)");
  }
  return Platform(platformName, std::move(tiles), *noc, sharedMemBytes);
}

std::string toAdlText(const Platform& platform) {
  std::ostringstream os;
  os << "platform " << platform.name() << '\n';
  os << "shared_memory " << platform.sharedMemBytes() << '\n';
  if (platform.isBus()) {
    const BusModel& bus = platform.bus();
    os << "interconnect bus " << arbitrationName(bus.arbitration)
       << " base_access " << bus.baseAccessCycles << " slot " << bus.slotCycles
       << " word_bytes " << bus.wordBytes << '\n';
  } else {
    const NocModel& noc = platform.noc();
    os << "interconnect noc " << noc.meshWidth << ' ' << noc.meshHeight
       << " router " << noc.routerCycles << " link " << noc.linkCycles
       << " flit_bytes " << noc.flitBytes << " mem_access "
       << noc.memAccessCycles << " mem_tile " << noc.memTile << '\n';
  }
  // Emit each distinct core model once.
  std::map<std::string, const CoreModel*> cores;
  for (const Tile& tile : platform.tiles()) {
    const auto [it, inserted] = cores.emplace(tile.core.name, &tile.core);
    if (!inserted && *it->second != tile.core) {
      throw ToolchainError("ADL: core name '" + tile.core.name +
                           "' names two different core models");
    }
  }
  for (const auto& [name, core] : cores) {
    os << "core " << name;
    for (int i = 0; i < ir::kOpClassCount; ++i) {
      os << ' ' << ir::opClassName(static_cast<ir::OpClass>(i)) << ' '
         << core->opCycles[static_cast<std::size_t>(i)];
    }
    os << " local_access " << core->localAccessCycles << " spm_access "
       << core->spmAccessCycles << " spm_bytes " << core->spmBytes << '\n';
  }
  for (const Tile& tile : platform.tiles()) {
    os << "tile " << tile.index << ' ' << tile.core.name << '\n';
  }
  return os.str();
}

}  // namespace argo::adl
