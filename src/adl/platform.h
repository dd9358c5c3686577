// ARGO Architecture Description Language (ADL): platform models.
//
// The paper (Section II-A) specifies hardware platforms "using a model-based
// approach thanks to the ARGO ADL", providing "all the information required
// by the tool-chain (processors, memory, interconnect, etc.) to calculate
// WCETs". This module is that model:
//
//  * CoreModel   — per-operation-class cycle costs, scratchpad parameters.
//                  Cores are time-predictable by construction (Section III-B:
//                  no caches, no dynamic branch prediction); every operation
//                  has a fixed cycle cost.
//  * BusModel    — shared bus with round-robin or TDMA arbitration, with
//                  closed-form worst-case access delays.
//  * NocModel    — 2D-mesh NoC with per-hop latency and weighted-round-robin
//                  QoS (the iNoC of ref [12]); bandwidth/latency guarantees
//                  expressed as closed-form worst cases.
//  * Platform    — tiles (possibly heterogeneous), one interconnect, shared
//                  memory; the query API used by scheduling, system-level
//                  WCET analysis, and the simulator.
//
// The worst-case formulas implement the "fully timing compositional"
// requirement of Section III-B: a core's contribution and the interference
// contribution combine additively.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "ir/cost.h"

namespace argo::adl {

using Cycles = std::int64_t;

/// A time-predictable processor core: fixed per-class operation costs plus
/// scratchpad and local (register/stack) access costs.
struct CoreModel {
  /// Human-readable core kind (default "generic"); reports only.
  std::string name = "generic";
  /// Cycle cost per ir::OpClass, indexed by static_cast<size_t>(OpClass)
  /// (cycles per operation, default all 0 — factories fill it in).
  std::array<int, ir::kOpClassCount> opCycles{};
  int localAccessCycles = 1;  ///< Register/stack access (cycles, default 1).
  int spmAccessCycles = 2;    ///< Core-private scratchpad access (cycles,
                              ///< default 2).
  std::int64_t spmBytes = 16 * 1024;  ///< Scratchpad capacity (bytes,
                                      ///< default 16 KiB).

  [[nodiscard]] int cyclesFor(ir::OpClass op) const noexcept {
    return opCycles[static_cast<std::size_t>(op)];
  }

  bool operator==(const CoreModel&) const = default;

  /// Recore Xentium-like VLIW DSP: cheap fixed-point, strong MAC.
  [[nodiscard]] static CoreModel xentiumDsp();
  /// Gaisler Leon3-like in-order RISC core.
  [[nodiscard]] static CoreModel leon3();
  /// Math accelerator tile: hardware transcendental units.
  [[nodiscard]] static CoreModel mathAccelerator();
};

/// Bus arbitration policies (Section III-B: predictable interconnect).
enum class Arbitration : std::uint8_t {
  RoundRobin,  ///< Work-conserving; worst case scales with live contenders.
  Tdma,        ///< Time-division; worst case independent of contenders.
};

[[nodiscard]] const char* arbitrationName(Arbitration a) noexcept;

/// A single shared bus to shared memory.
struct BusModel {
  /// Arbitration policy (default RoundRobin; Tdma trades average latency
  /// for contender-independent worst cases).
  Arbitration arbitration = Arbitration::RoundRobin;
  int baseAccessCycles = 10;  ///< Uncontended shared-memory access
                              ///< (cycles, default 10).
  int slotCycles = 12;        ///< TDMA slot length, must be
                              ///< >= baseAccessCycles (cycles, default 12).
  int wordBytes = 4;          ///< Payload moved per bus access (bytes,
                              ///< default 4).

  /// Worst-case cycles for ONE shared access issued by a core when at most
  /// `contenders` cores (including the issuer) may access the bus
  /// concurrently. `totalCores` is the number of bus masters (TDMA wheel
  /// size).
  [[nodiscard]] Cycles worstCaseAccessCycles(int contenders,
                                             int totalCores) const noexcept;

  /// Worst-case cycles to move `bytes` over the bus (DMA-style burst).
  [[nodiscard]] Cycles worstCaseTransferCycles(std::int64_t bytes,
                                               int contenders,
                                               int totalCores) const noexcept;
};

/// A 2D-mesh network-on-chip with weighted-round-robin QoS routers
/// (modelled on the invasive NoC, paper ref [12]).
struct NocModel {
  int meshWidth = 4;        ///< Mesh columns (tiles, default 4).
  int meshHeight = 4;       ///< Mesh rows (tiles, default 4).
  int routerCycles = 3;     ///< Per-hop router traversal (cycles, default 3).
  int linkCycles = 1;       ///< Per-flit per-hop link traversal (cycles,
                            ///< default 1).
  int flitBytes = 4;        ///< Payload per flit (bytes, default 4).
  int memAccessCycles = 16; ///< Service time at the memory controller
                            ///< (cycles, default 16).
  int memTile = 0;          ///< Tile index hosting the memory controller
                            ///< (index, default 0).

  /// XY-routing hop count between two tiles (tile = y*width + x).
  [[nodiscard]] int hopDistance(int tileA, int tileB) const noexcept;

  /// Worst-case cycles for one shared-memory access from `tile` with at
  /// most `contenders` concurrent requestors. The WRR QoS guarantee bounds
  /// per-hop blocking to one flit slot per competing flow.
  [[nodiscard]] Cycles worstCaseAccessCycles(int tile,
                                             int contenders) const noexcept;

  /// Worst-case cycles to move `bytes` from tile `from` to tile `to`
  /// (tile-to-tile DMA over the mesh).
  [[nodiscard]] Cycles worstCaseTransferCycles(std::int64_t bytes, int from,
                                               int to,
                                               int contenders) const noexcept;
};

/// One tile of the platform: a core plus its private scratchpad.
struct Tile {
  int index = 0;
  CoreModel core;
};

/// The complete platform description.
class Platform {
 public:
  Platform(std::string name, std::vector<Tile> tiles, BusModel bus,
           std::int64_t sharedMemBytes);
  Platform(std::string name, std::vector<Tile> tiles, NocModel noc,
           std::int64_t sharedMemBytes);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] int coreCount() const noexcept {
    return static_cast<int>(tiles_.size());
  }
  [[nodiscard]] const Tile& tile(int index) const { return tiles_.at(index); }
  [[nodiscard]] const std::vector<Tile>& tiles() const noexcept {
    return tiles_;
  }
  [[nodiscard]] std::int64_t sharedMemBytes() const noexcept {
    return sharedMemBytes_;
  }

  [[nodiscard]] bool isBus() const noexcept {
    return std::holds_alternative<BusModel>(interconnect_);
  }
  [[nodiscard]] bool isNoc() const noexcept {
    return std::holds_alternative<NocModel>(interconnect_);
  }
  [[nodiscard]] const BusModel& bus() const {
    return std::get<BusModel>(interconnect_);
  }
  [[nodiscard]] const NocModel& noc() const {
    return std::get<NocModel>(interconnect_);
  }

  /// Worst-case cycles for one shared-memory access from `tile` when at
  /// most `contenders` cores (including the issuer) may be using the
  /// interconnect concurrently.
  [[nodiscard]] Cycles sharedAccessWorstCase(int tile,
                                             int contenders) const noexcept;

  /// Uncontended shared-memory access cost from `tile` (the code-level
  /// component; interference is added by the system-level analysis).
  [[nodiscard]] Cycles sharedAccessBase(int tile) const noexcept {
    return sharedAccessWorstCase(tile, 1);
  }

  /// Worst-case cycles to move a `bytes`-sized buffer between two tiles
  /// (or tile<->shared memory when one side is the memory tile).
  [[nodiscard]] Cycles transferWorstCase(std::int64_t bytes, int fromTile,
                                         int toTile,
                                         int contenders) const noexcept;

  /// Canonical serialization of the pricing model: every field the
  /// scheduling, WCET, simulation, and code-generation layers can observe
  /// — per-tile core cycle tables and scratchpad parameters, the
  /// interconnect with its parameters, shared-memory capacity. Display
  /// names (platform and core kind) are deliberately excluded: they are
  /// reports-only, so two platforms with equal canonicalText() price
  /// every program identically. The stage cache (core/cache.h) uses this
  /// as the platform half of its content-hash keys.
  [[nodiscard]] std::string canonicalText() const;

  /// Returns a new platform with every tile's scratchpad capacity set to
  /// `bytes` (used by the SPM-size sweeps in scenarios/sweep.h). Cores,
  /// interconnect and shared memory are unchanged.
  [[nodiscard]] Platform withSpmBytes(std::int64_t bytes) const;

 private:
  std::string name_;
  std::vector<Tile> tiles_;
  std::variant<BusModel, NocModel> interconnect_;
  std::int64_t sharedMemBytes_ = 0;
};

/// Recore-like platform: `cores` Xentium DSP tiles on a shared bus. Throws
/// support::ToolchainError when `cores` is below 1.
[[nodiscard]] Platform makeRecoreXentiumBus(int cores,
                                            Arbitration arb =
                                                Arbitration::RoundRobin);

/// KIT-like platform: width x height Leon3 tiles on an iNoC-style mesh,
/// with the last tile replaced by a math-accelerator tile when
/// `withAccelerator`. Throws support::ToolchainError when `width` or
/// `height` is below 1.
[[nodiscard]] Platform makeKitLeon3Inoc(int width, int height,
                                        bool withAccelerator = false);

}  // namespace argo::adl
