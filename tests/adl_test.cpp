// Unit tests for the ADL platform models and the textual ADL parser.
#include <gtest/gtest.h>

#include "adl/parser.h"
#include "adl/platform.h"
#include "mutants.h"
#include "support/diagnostics.h"

namespace argo::adl {
namespace {

TEST(CoreModel, BuiltinsHavePositiveCosts) {
  for (const CoreModel& core :
       {CoreModel::xentiumDsp(), CoreModel::leon3(),
        CoreModel::mathAccelerator()}) {
    for (int i = 0; i < ir::kOpClassCount; ++i) {
      EXPECT_GT(core.cyclesFor(static_cast<ir::OpClass>(i)), 0)
          << core.name << " op " << i;
    }
    EXPECT_GT(core.localAccessCycles, 0);
    EXPECT_GT(core.spmAccessCycles, 0);
    EXPECT_GT(core.spmBytes, 0);
  }
}

TEST(CoreModel, AcceleratorIsFasterAtMath) {
  const CoreModel leon = CoreModel::leon3();
  const CoreModel accel = CoreModel::mathAccelerator();
  EXPECT_LT(accel.cyclesFor(ir::OpClass::MathFunc),
            leon.cyclesFor(ir::OpClass::MathFunc));
}

TEST(Bus, RoundRobinScalesWithContenders) {
  BusModel bus;
  bus.arbitration = Arbitration::RoundRobin;
  bus.baseAccessCycles = 10;
  const Cycles alone = bus.worstCaseAccessCycles(1, 8);
  const Cycles two = bus.worstCaseAccessCycles(2, 8);
  const Cycles eight = bus.worstCaseAccessCycles(8, 8);
  EXPECT_EQ(alone, 10);
  EXPECT_EQ(two, 20);
  EXPECT_EQ(eight, 80);
}

TEST(Bus, RoundRobinClampsContenders) {
  BusModel bus;
  bus.baseAccessCycles = 10;
  EXPECT_EQ(bus.worstCaseAccessCycles(0, 8), 10);    // clamped to 1
  EXPECT_EQ(bus.worstCaseAccessCycles(99, 8),
            bus.worstCaseAccessCycles(8, 8));        // clamped to cores
}

TEST(Bus, TdmaIsContenderIndependent) {
  BusModel bus;
  bus.arbitration = Arbitration::Tdma;
  bus.baseAccessCycles = 10;
  bus.slotCycles = 12;
  EXPECT_EQ(bus.worstCaseAccessCycles(1, 8), bus.worstCaseAccessCycles(8, 8));
  EXPECT_EQ(bus.worstCaseAccessCycles(1, 8), 8 * 12 + 10);
}

TEST(Bus, TdmaWorseThanUncontendedRoundRobin) {
  BusModel rr;
  rr.baseAccessCycles = 10;
  BusModel tdma = rr;
  tdma.arbitration = Arbitration::Tdma;
  tdma.slotCycles = 12;
  EXPECT_GT(tdma.worstCaseAccessCycles(1, 8), rr.worstCaseAccessCycles(1, 8));
}

TEST(Bus, TransferScalesWithBytes) {
  BusModel bus;
  bus.baseAccessCycles = 10;
  bus.wordBytes = 4;
  EXPECT_EQ(bus.worstCaseTransferCycles(0, 1, 8), 0);
  EXPECT_EQ(bus.worstCaseTransferCycles(4, 1, 8), 10);
  EXPECT_EQ(bus.worstCaseTransferCycles(5, 1, 8), 20);  // 2 beats
  EXPECT_EQ(bus.worstCaseTransferCycles(16, 1, 8), 40);
}

TEST(Noc, HopDistanceIsManhattan) {
  NocModel noc;
  noc.meshWidth = 4;
  noc.meshHeight = 4;
  EXPECT_EQ(noc.hopDistance(0, 0), 0);
  EXPECT_EQ(noc.hopDistance(0, 3), 3);
  EXPECT_EQ(noc.hopDistance(0, 15), 6);
  EXPECT_EQ(noc.hopDistance(5, 10), 2);
}

TEST(Noc, AccessGrowsWithDistanceAndContenders) {
  NocModel noc;
  noc.meshWidth = 4;
  noc.meshHeight = 4;
  noc.memTile = 0;
  const Cycles near1 = noc.worstCaseAccessCycles(1, 1);
  const Cycles far1 = noc.worstCaseAccessCycles(15, 1);
  const Cycles near4 = noc.worstCaseAccessCycles(1, 4);
  EXPECT_GT(far1, near1);
  EXPECT_GT(near4, near1);
}

TEST(Noc, TransferWormholePipelines) {
  NocModel noc;
  // Moving twice the bytes should NOT cost twice the head latency.
  const Cycles small = noc.worstCaseTransferCycles(64, 0, 15, 1);
  const Cycles large = noc.worstCaseTransferCycles(128, 0, 15, 1);
  EXPECT_LT(large, 2 * small);
  EXPECT_GT(large, small);
}

TEST(Platform, BuiltinsAreWellFormed) {
  const Platform bus = makeRecoreXentiumBus(8);
  EXPECT_EQ(bus.coreCount(), 8);
  EXPECT_TRUE(bus.isBus());
  EXPECT_FALSE(bus.isNoc());
  EXPECT_GT(bus.sharedMemBytes(), 0);

  const Platform noc = makeKitLeon3Inoc(4, 4);
  EXPECT_EQ(noc.coreCount(), 16);
  EXPECT_TRUE(noc.isNoc());
}

TEST(Platform, AcceleratorVariantDiffersOnLastTile) {
  const Platform plain = makeKitLeon3Inoc(2, 2, false);
  const Platform accel = makeKitLeon3Inoc(2, 2, true);
  EXPECT_EQ(plain.tile(3).core.name, "leon3");
  EXPECT_EQ(accel.tile(3).core.name, "math_accel");
}

TEST(Platform, SharedAccessMonotoneInContenders) {
  for (const Platform& p :
       {makeRecoreXentiumBus(8), makeKitLeon3Inoc(4, 4)}) {
    Cycles prev = 0;
    for (int contenders = 1; contenders <= p.coreCount(); ++contenders) {
      const Cycles c = p.sharedAccessWorstCase(p.coreCount() - 1, contenders);
      EXPECT_GE(c, prev);
      prev = c;
    }
  }
}

TEST(Platform, BusBuilderRejectsCoreCountBelowOne) {
  EXPECT_THROW((void)makeRecoreXentiumBus(0), support::ToolchainError);
  EXPECT_THROW((void)makeRecoreXentiumBus(-3), support::ToolchainError);
}

TEST(Platform, MeshBuilderRejectsWidthOrHeightBelowOne) {
  EXPECT_THROW((void)makeKitLeon3Inoc(0, 2), support::ToolchainError);
  EXPECT_THROW((void)makeKitLeon3Inoc(2, 0), support::ToolchainError);
  EXPECT_THROW((void)makeKitLeon3Inoc(-1, -1), support::ToolchainError);
}

TEST(Platform, EmptyTilesRejected) {
  EXPECT_THROW(Platform("x", {}, BusModel{}, 1024), support::ToolchainError);
}

TEST(Platform, TooManyNocTilesRejected) {
  NocModel noc;
  noc.meshWidth = 1;
  noc.meshHeight = 1;
  std::vector<Tile> tiles = {Tile{0, CoreModel::leon3()},
                             Tile{1, CoreModel::leon3()}};
  EXPECT_THROW(Platform("x", std::move(tiles), noc, 1024),
               support::ToolchainError);
}

// ---- ADL text format ----

TEST(AdlParser, RoundTripsBusPlatform) {
  const Platform original = makeRecoreXentiumBus(4, Arbitration::Tdma);
  const std::string text = toAdlText(original);
  const Platform parsed = parseAdl(text);
  EXPECT_EQ(parsed.name(), original.name());
  EXPECT_EQ(parsed.coreCount(), original.coreCount());
  EXPECT_TRUE(parsed.isBus());
  EXPECT_EQ(parsed.bus().arbitration, Arbitration::Tdma);
  EXPECT_EQ(parsed.bus().baseAccessCycles, original.bus().baseAccessCycles);
  EXPECT_EQ(parsed.tile(2).core.name, original.tile(2).core.name);
  EXPECT_EQ(parsed.sharedMemBytes(), original.sharedMemBytes());
  // Second round trip is textual fixpoint.
  EXPECT_EQ(toAdlText(parsed), text);
}

TEST(AdlParser, RoundTripsNocPlatform) {
  const Platform original = makeKitLeon3Inoc(4, 4, true);
  const Platform parsed = parseAdl(toAdlText(original));
  EXPECT_TRUE(parsed.isNoc());
  EXPECT_EQ(parsed.noc().meshWidth, 4);
  EXPECT_EQ(parsed.coreCount(), 16);
  EXPECT_EQ(parsed.tile(15).core.name, "math_accel");
  // Timing queries agree after the round trip.
  EXPECT_EQ(parsed.sharedAccessWorstCase(15, 3),
            original.sharedAccessWorstCase(15, 3));
}

TEST(AdlParser, ToAdlTextRejectsTwoCoreModelsSharingAName) {
  // ADL holds one `core NAME` line per name, so two different models under
  // one name cannot be written without losing one of them.
  const Platform bus = makeRecoreXentiumBus(2);
  std::vector<Tile> tiles = bus.tiles();
  for (Tile& tile : tiles) tile.core.name = "generic";
  const Platform same("same", tiles, bus.bus(), bus.sharedMemBytes());
  EXPECT_EQ(parseAdl(toAdlText(same)).canonicalText(), same.canonicalText());

  tiles[1].core.opCycles[static_cast<std::size_t>(ir::OpClass::IntMul)] = 6;
  const Platform shared("shared", tiles, bus.bus(), bus.sharedMemBytes());
  try {
    (void)toAdlText(shared);
    FAIL() << "expected ToolchainError";
  } catch (const support::ToolchainError& e) {
    EXPECT_STREQ(e.what(),
                 "ADL: core name 'generic' names two different core models");
  }
}

TEST(AdlParser, AcceptsCommentsAndBlanks) {
  const Platform p = parseAdl(
      "# a demo platform\n"
      "platform demo\n"
      "\n"
      "shared_memory 1048576  # one MiB\n"
      "interconnect bus round_robin base_access 8 slot 10 word_bytes 4\n"
      "core tiny int_alu 1 int_mul 1 int_div 1 float_add 1 float_mul 1 "
      "float_div 1 math_func 1 compare 1 select 1 branch 1 loop_step 1 "
      "local_access 1 spm_access 1 spm_bytes 1024\n"
      "tile 0 tiny\n");
  EXPECT_EQ(p.name(), "demo");
  EXPECT_EQ(p.coreCount(), 1);
  EXPECT_EQ(p.tile(0).core.spmBytes, 1024);
}

TEST(AdlParser, ErrorsCarryLineNumbers) {
  try {
    (void)parseAdl("platform demo\nbogus_directive 3\n");
    FAIL() << "expected ToolchainError";
  } catch (const support::ToolchainError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(AdlParser, RejectsMissingSections) {
  EXPECT_THROW(parseAdl("platform p\n"), support::ToolchainError);
  EXPECT_THROW(parseAdl("shared_memory 10\n"), support::ToolchainError);
}

TEST(AdlParser, RejectsUnknownCoreReference) {
  EXPECT_THROW(
      parseAdl("platform p\nshared_memory 10\n"
               "interconnect bus round_robin base_access 8 slot 10 "
               "word_bytes 4\n"
               "tile 0 missing_core\n"),
      support::ToolchainError);
}

TEST(AdlParser, RejectsDuplicateTile) {
  const std::string core =
      "core c int_alu 1 int_mul 1 int_div 1 float_add 1 float_mul 1 "
      "float_div 1 math_func 1 compare 1 select 1 branch 1 loop_step 1 "
      "local_access 1 spm_access 1 spm_bytes 64\n";
  EXPECT_THROW(
      parseAdl("platform p\nshared_memory 10\n"
               "interconnect bus round_robin base_access 8 slot 10 "
               "word_bytes 4\n" +
               core + "tile 0 c\ntile 0 c\n"),
      support::ToolchainError);
}

TEST(AdlParser, RejectsBadArbitration) {
  EXPECT_THROW(
      parseAdl("platform p\nshared_memory 10\n"
               "interconnect bus lottery base_access 8 slot 10 word_bytes 4\n"),
      support::ToolchainError);
}

TEST(AdlParser, RejectsNonContiguousTiles) {
  const std::string core =
      "core c int_alu 1 int_mul 1 int_div 1 float_add 1 float_mul 1 "
      "float_div 1 math_func 1 compare 1 select 1 branch 1 loop_step 1 "
      "local_access 1 spm_access 1 spm_bytes 64\n";
  EXPECT_THROW(
      parseAdl("platform p\nshared_memory 10\n"
               "interconnect bus round_robin base_access 8 slot 10 "
               "word_bytes 4\n" +
               core + "tile 5 c\n"),
      support::ToolchainError);
}


// ---- ADL numbers: every value is range-checked on its line ----

const std::string kBusAdl =
    "platform p\n"
    "shared_memory 1024\n"
    "interconnect bus round_robin base_access 8 slot 10 word_bytes 4\n"
    "core c int_alu 1 int_mul 1 int_div 1 float_add 1 float_mul 1 "
    "float_div 1 math_func 1 compare 1 select 1 branch 1 loop_step 1 "
    "local_access 1 spm_access 1 spm_bytes 64\n"
    "tile 0 c\n"
    "tile 1 c\n";

const std::string kNocAdl =
    "platform p\n"
    "shared_memory 1024\n"
    "interconnect noc 2 2 router 3 link 1 flit_bytes 4 mem_access 16 "
    "mem_tile 0\n"
    "core c int_alu 1 int_mul 1 int_div 1 float_add 1 float_mul 1 "
    "float_div 1 math_func 1 compare 1 select 1 branch 1 loop_step 1 "
    "local_access 1 spm_access 1 spm_bytes 64\n"
    "tile 0 c\n"
    "tile 1 c\n";

/// `text` with its first `from` replaced by `to`.
std::string with(std::string text, const std::string& from,
                 const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

/// The message parseAdl throws on `text`; empty when `text` parses.
std::string adlError(const std::string& text) {
  try {
    (void)parseAdl(text);
  } catch (const support::ToolchainError& error) {
    return error.what();
  }
  return "";
}

TEST(AdlParser, RangeFixturesParse) {
  EXPECT_EQ(adlError(kBusAdl), "");
  EXPECT_EQ(adlError(kNocAdl), "");
}

TEST(AdlParser, RejectsZeroWordBytes) {
  EXPECT_EQ(adlError(with(kBusAdl, "word_bytes 4", "word_bytes 0")),
            "ADL line 3: word_bytes must be at least 1, got 0");
}

TEST(AdlParser, RejectsZeroFlitBytes) {
  EXPECT_EQ(adlError(with(kNocAdl, "flit_bytes 4", "flit_bytes 0")),
            "ADL line 3: flit_bytes must be at least 1, got 0");
}

TEST(AdlParser, RejectsNegativeOpCycles) {
  EXPECT_EQ(adlError(with(kBusAdl, "int_alu 1", "int_alu -5")),
            "ADL line 4: int_alu must be at least 0, got -5");
}

TEST(AdlParser, RejectsOpCyclesBeyondIntRange) {
  EXPECT_EQ(adlError(with(kBusAdl, "int_alu 1", "int_alu 4294967297")),
            "ADL line 4: int_alu must be at most 1000000, got 4294967297");
}

TEST(AdlParser, RejectsNegativeSpmBytes) {
  EXPECT_EQ(adlError(with(kBusAdl, "spm_bytes 64", "spm_bytes -1")),
            "ADL line 4: spm_bytes must be at least 0, got -1");
}

TEST(AdlParser, RejectsMemTileOutsideTheMesh) {
  EXPECT_EQ(adlError(with(kNocAdl, "mem_tile 0", "mem_tile 7")),
            "ADL line 3: mem_tile must be at most 3, got 7");
}

TEST(AdlParser, RejectsNegativeMeshDimensions) {
  EXPECT_EQ(adlError(with(kNocAdl, "noc 2 2", "noc -2 -2")),
            "ADL line 3: mesh width must be at least 1, got -2");
}

TEST(AdlParser, RejectsNegativeSharedMemory) {
  EXPECT_EQ(adlError(with(kBusAdl, "shared_memory 1024", "shared_memory -1")),
            "ADL line 2: shared_memory must be at least 0, got -1");
}

TEST(AdlParser, RejectsNonNumericValue) {
  EXPECT_EQ(adlError(with(kBusAdl, "slot 10", "slot 10x")),
            "ADL line 3: slot expects an integer, got '10x'");
}

TEST(AdlParser, RejectsUnknownAndDuplicateKeys) {
  EXPECT_EQ(adlError(with(kBusAdl, "slot 10", "slot 10 slots 12")),
            "ADL line 3: unknown key 'slots'");
  EXPECT_EQ(adlError(with(kBusAdl, "slot 10", "slot 10 slot 12")),
            "ADL line 3: duplicate key 'slot'");
}

// ---- Checks after the line loop name the line they concern ----

TEST(AdlParser, TileIndexOutOfRangeNamesItsLine) {
  EXPECT_EQ(adlError(with(kBusAdl, "tile 0 c\ntile 1 c\n", "tile 5 c\n")),
            "ADL line 5: tile index 5 out of range (tiles must be 0..0)");
}

TEST(AdlParser, DuplicateTileNamesItsLine) {
  EXPECT_EQ(adlError(with(kBusAdl, "tile 1 c", "tile 0 c")),
            "ADL line 6: duplicate tile 0");
}

TEST(AdlParser, UnknownCoreNamesItsTileLine) {
  EXPECT_EQ(adlError(with(kBusAdl, "tile 1 c", "tile 1 d")),
            "ADL line 6: tile 1 references unknown core 'd'");
}

TEST(AdlParser, MoreTilesThanMeshPositionsNamesTheInterconnectLine) {
  EXPECT_EQ(adlError(kNocAdl + "tile 2 c\ntile 3 c\ntile 4 c\n"),
            "ADL line 3: 5 tiles do not fit the 2x2 mesh (4 positions)");
}

// ---- A directive that describes the whole platform appears once ----

TEST(AdlParser, RejectsRepeatedPlatform) {
  EXPECT_EQ(adlError(kBusAdl + "platform q\n"),
            "ADL line 7: repeated 'platform'");
}

TEST(AdlParser, RejectsRepeatedSharedMemory) {
  EXPECT_EQ(adlError(kBusAdl + "shared_memory 2048\n"),
            "ADL line 7: repeated 'shared_memory'");
}

TEST(AdlParser, RejectsRedefinedCore) {
  EXPECT_EQ(adlError(kBusAdl +
                     "core c int_alu 2 int_mul 2 int_div 2 float_add 2 "
                     "float_mul 2 float_div 2 math_func 2 compare 2 select 2 "
                     "branch 2 loop_step 2 local_access 2 spm_access 2 "
                     "spm_bytes 128\n"),
            "ADL line 7: repeated core 'c'");
}

TEST(AdlParser, RejectsSecondInterconnect) {
  EXPECT_EQ(adlError(kBusAdl +
                     "interconnect noc 2 2 router 3 link 1 flit_bytes 4 "
                     "mem_access 16 mem_tile 0\n"),
            "ADL line 7: repeated 'interconnect'");
}

// ---- Mutation corpus: a one-edit mutant parses or names its line ----

TEST(AdlParser, EveryMutantParsesOrNamesItsLine) {
  // Only the checks of a whole platform (a section that never appeared)
  // have no line to name.
  test::MutantSweep sweep{
      "ADL line ",
      {"ADL: missing 'platform'", "ADL: missing 'shared_memory'",
       "ADL: missing 'interconnect'", "ADL: no tiles declared"}};
  for (const Platform& seed :
       {makeRecoreXentiumBus(2), makeKitLeon3Inoc(2, 2),
        makeRecoreXentiumBus(3, Arbitration::Tdma)}) {
    sweep.run(toAdlText(seed),
              [](const std::string& text) { (void)parseAdl(text); });
  }
  EXPECT_GT(sweep.parsed, 0);
  EXPECT_GT(sweep.rejected, 0);
  EXPECT_EQ(sweep.breaks.size(), 0u)
      << "the first: " << (sweep.breaks.empty() ? "" : sweep.breaks.front());
}

}  // namespace
}  // namespace argo::adl
