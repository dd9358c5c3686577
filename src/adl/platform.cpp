#include "adl/platform.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "support/diagnostics.h"

namespace argo::adl {

using ir::OpClass;
using support::ToolchainError;

namespace {

std::array<int, ir::kOpClassCount> makeOpCycles(
    int intAlu, int intMul, int intDiv, int fAdd, int fMul, int fDiv,
    int mathFunc, int compare, int select, int branch, int loopStep) {
  std::array<int, ir::kOpClassCount> cycles{};
  cycles[static_cast<std::size_t>(OpClass::IntAlu)] = intAlu;
  cycles[static_cast<std::size_t>(OpClass::IntMul)] = intMul;
  cycles[static_cast<std::size_t>(OpClass::IntDiv)] = intDiv;
  cycles[static_cast<std::size_t>(OpClass::FloatAdd)] = fAdd;
  cycles[static_cast<std::size_t>(OpClass::FloatMul)] = fMul;
  cycles[static_cast<std::size_t>(OpClass::FloatDiv)] = fDiv;
  cycles[static_cast<std::size_t>(OpClass::MathFunc)] = mathFunc;
  cycles[static_cast<std::size_t>(OpClass::Compare)] = compare;
  cycles[static_cast<std::size_t>(OpClass::Select)] = select;
  cycles[static_cast<std::size_t>(OpClass::Branch)] = branch;
  cycles[static_cast<std::size_t>(OpClass::LoopStep)] = loopStep;
  return cycles;
}

}  // namespace

CoreModel CoreModel::xentiumDsp() {
  CoreModel core;
  core.name = "xentium";
  // VLIW DSP: single-cycle MACs, slow division, software transcendentals.
  core.opCycles = makeOpCycles(/*intAlu=*/1, /*intMul=*/2, /*intDiv=*/12,
                               /*fAdd=*/2, /*fMul=*/2, /*fDiv=*/16,
                               /*mathFunc=*/40, /*compare=*/1, /*select=*/1,
                               /*branch=*/2, /*loopStep=*/1);
  core.localAccessCycles = 1;
  core.spmAccessCycles = 1;  // tightly-coupled data memory
  core.spmBytes = 32 * 1024;
  return core;
}

CoreModel CoreModel::leon3() {
  CoreModel core;
  core.name = "leon3";
  // In-order RISC with FPU: slower multiply, microcoded transcendentals.
  core.opCycles = makeOpCycles(/*intAlu=*/1, /*intMul=*/4, /*intDiv=*/32,
                               /*fAdd=*/4, /*fMul=*/4, /*fDiv=*/24,
                               /*mathFunc=*/60, /*compare=*/1, /*select=*/2,
                               /*branch=*/3, /*loopStep=*/2);
  core.localAccessCycles = 1;
  core.spmAccessCycles = 2;
  core.spmBytes = 16 * 1024;
  return core;
}

CoreModel CoreModel::mathAccelerator() {
  CoreModel core = leon3();
  core.name = "math_accel";
  core.opCycles[static_cast<std::size_t>(OpClass::MathFunc)] = 8;
  core.opCycles[static_cast<std::size_t>(OpClass::FloatDiv)] = 6;
  core.opCycles[static_cast<std::size_t>(OpClass::FloatAdd)] = 2;
  core.opCycles[static_cast<std::size_t>(OpClass::FloatMul)] = 2;
  return core;
}

const char* arbitrationName(Arbitration a) noexcept {
  switch (a) {
    case Arbitration::RoundRobin: return "round_robin";
    case Arbitration::Tdma: return "tdma";
  }
  return "?";
}

Cycles BusModel::worstCaseAccessCycles(int contenders,
                                       int totalCores) const noexcept {
  contenders = std::clamp(contenders, 1, totalCores);
  switch (arbitration) {
    case Arbitration::RoundRobin:
      // The issuer can be delayed by one full access from every other live
      // contender before its grant (work-conserving round-robin).
      return static_cast<Cycles>(baseAccessCycles) +
             static_cast<Cycles>(contenders - 1) * baseAccessCycles;
    case Arbitration::Tdma:
      // Arrival just after the own slot closed: wait a full wheel
      // revolution, then pay the access. Independent of live contenders —
      // composable but never better than the full wheel.
      return static_cast<Cycles>(totalCores) * slotCycles + baseAccessCycles;
  }
  return baseAccessCycles;
}

Cycles BusModel::worstCaseTransferCycles(std::int64_t bytes, int contenders,
                                         int totalCores) const noexcept {
  if (bytes <= 0) return 0;
  const std::int64_t beats = (bytes + wordBytes - 1) / wordBytes;
  return beats * worstCaseAccessCycles(contenders, totalCores);
}

int NocModel::hopDistance(int tileA, int tileB) const noexcept {
  const int ax = tileA % meshWidth;
  const int ay = tileA / meshWidth;
  const int bx = tileB % meshWidth;
  const int by = tileB / meshWidth;
  return std::abs(ax - bx) + std::abs(ay - by);
}

Cycles NocModel::worstCaseAccessCycles(int tile, int contenders) const noexcept {
  const int hops = hopDistance(tile, memTile);
  // Request + response traverse the mesh; WRR QoS bounds blocking at each
  // hop to one flit slot per competing flow; the memory controller serves
  // competing requests round-robin.
  const Cycles route = static_cast<Cycles>(2 * hops) * (routerCycles + linkCycles);
  const Cycles hopBlocking =
      static_cast<Cycles>(2 * hops) * (contenders - 1) * linkCycles;
  const Cycles memService =
      static_cast<Cycles>(contenders) * memAccessCycles;
  return route + hopBlocking + memService;
}

Cycles NocModel::worstCaseTransferCycles(std::int64_t bytes, int from, int to,
                                         int contenders) const noexcept {
  if (bytes <= 0) return 0;
  const int hops = std::max(1, hopDistance(from, to));
  const std::int64_t flits = (bytes + flitBytes - 1) / flitBytes;
  // Wormhole pipeline: head pays full route, body flits stream at one per
  // link cycle; each flit may be blocked by (contenders-1) competing flits
  // per WRR round.
  const Cycles head = static_cast<Cycles>(hops) * (routerCycles + linkCycles);
  const Cycles stream = flits * static_cast<Cycles>(linkCycles) *
                        static_cast<Cycles>(contenders);
  return head + stream;
}

Platform::Platform(std::string name, std::vector<Tile> tiles, BusModel bus,
                   std::int64_t sharedMemBytes)
    : name_(std::move(name)),
      tiles_(std::move(tiles)),
      interconnect_(bus),
      sharedMemBytes_(sharedMemBytes) {
  if (tiles_.empty()) throw ToolchainError("platform needs at least one tile");
}

Platform::Platform(std::string name, std::vector<Tile> tiles, NocModel noc,
                   std::int64_t sharedMemBytes)
    : name_(std::move(name)),
      tiles_(std::move(tiles)),
      interconnect_(noc),
      sharedMemBytes_(sharedMemBytes) {
  if (tiles_.empty()) throw ToolchainError("platform needs at least one tile");
  if (static_cast<int>(tiles_.size()) > noc.meshWidth * noc.meshHeight) {
    throw ToolchainError("more tiles than mesh positions");
  }
}

Cycles Platform::sharedAccessWorstCase(int tile, int contenders) const noexcept {
  contenders = std::clamp(contenders, 1, coreCount());
  if (isBus()) {
    return bus().worstCaseAccessCycles(contenders, coreCount());
  }
  return noc().worstCaseAccessCycles(tile, contenders);
}

Cycles Platform::transferWorstCase(std::int64_t bytes, int fromTile, int toTile,
                                   int contenders) const noexcept {
  contenders = std::clamp(contenders, 1, coreCount());
  if (isBus()) {
    return bus().worstCaseTransferCycles(bytes, contenders, coreCount());
  }
  return noc().worstCaseTransferCycles(bytes, fromTile, toTile, contenders);
}

std::string Platform::canonicalText() const {
  std::string out;
  out.reserve(128 + tiles_.size() * 64);
  for (const Tile& tile : tiles_) {
    out += "tile " + std::to_string(tile.index) + " ops[";
    for (std::size_t i = 0; i < tile.core.opCycles.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(tile.core.opCycles[i]);
    }
    out += "] local=" + std::to_string(tile.core.localAccessCycles);
    out += " spm=" + std::to_string(tile.core.spmAccessCycles);
    out += " spmBytes=" + std::to_string(tile.core.spmBytes);
    out += '\n';
  }
  if (isBus()) {
    const BusModel& b = bus();
    out += std::string("bus arb=") + arbitrationName(b.arbitration);
    out += " base=" + std::to_string(b.baseAccessCycles);
    out += " slot=" + std::to_string(b.slotCycles);
    out += " word=" + std::to_string(b.wordBytes);
  } else {
    const NocModel& n = noc();
    out += "noc mesh=" + std::to_string(n.meshWidth) + "x" +
           std::to_string(n.meshHeight);
    out += " router=" + std::to_string(n.routerCycles);
    out += " link=" + std::to_string(n.linkCycles);
    out += " flit=" + std::to_string(n.flitBytes);
    out += " memAccess=" + std::to_string(n.memAccessCycles);
    out += " memTile=" + std::to_string(n.memTile);
  }
  out += "\nsharedMemBytes=" + std::to_string(sharedMemBytes_) + "\n";
  return out;
}

Platform Platform::withSpmBytes(std::int64_t bytes) const {
  if (bytes <= 0) {
    throw ToolchainError("withSpmBytes: invalid scratchpad size " +
                         std::to_string(bytes));
  }
  std::vector<Tile> tiles = tiles_;
  for (Tile& tile : tiles) tile.core.spmBytes = bytes;
  const std::string name = name_ + "_spm" + std::to_string(bytes);
  if (isBus()) {
    return Platform(name, std::move(tiles), bus(), sharedMemBytes_);
  }
  return Platform(name, std::move(tiles), noc(), sharedMemBytes_);
}

Platform makeRecoreXentiumBus(int cores, Arbitration arb) {
  if (cores < 1) {
    throw ToolchainError("makeRecoreXentiumBus: invalid core count " +
                         std::to_string(cores));
  }
  std::vector<Tile> tiles;
  tiles.reserve(static_cast<std::size_t>(cores));
  for (int i = 0; i < cores; ++i) {
    tiles.push_back(Tile{i, CoreModel::xentiumDsp()});
  }
  BusModel bus;
  bus.arbitration = arb;
  bus.baseAccessCycles = 10;
  bus.slotCycles = 12;
  bus.wordBytes = 4;
  return Platform("recore_xentium_bus", std::move(tiles), bus,
                  /*sharedMemBytes=*/8 * 1024 * 1024);
}

Platform makeKitLeon3Inoc(int width, int height, bool withAccelerator) {
  if (width < 1 || height < 1) {
    throw ToolchainError("makeKitLeon3Inoc: invalid mesh " +
                         std::to_string(width) + "x" + std::to_string(height));
  }
  std::vector<Tile> tiles;
  const int count = width * height;
  tiles.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    tiles.push_back(Tile{i, CoreModel::leon3()});
  }
  if (withAccelerator && count > 1) {
    tiles.back().core = CoreModel::mathAccelerator();
  }
  NocModel noc;
  noc.meshWidth = width;
  noc.meshHeight = height;
  noc.routerCycles = 3;
  noc.linkCycles = 1;
  noc.flitBytes = 4;
  noc.memAccessCycles = 16;
  noc.memTile = 0;
  return Platform("kit_leon3_inoc", std::move(tiles), noc,
                  /*sharedMemBytes=*/16 * 1024 * 1024);
}

}  // namespace argo::adl
