// Coverage for the block-local gate-run scheduler: run formation rules,
// fusion composition, source-gate accounting, dense-vs-compressed
// equivalence of the batched execution path across all target segments,
// the one-lossy-pass-per-run fidelity accounting, and the circuit-cursor
// regressions (second circuit skipped / ad-hoc apply drift).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>

#include "circuits/qaoa.hpp"
#include "core/simulator.hpp"
#include "qsim/scheduler.hpp"
#include "qsim/state_vector.hpp"
#include "runtime/qubit_map.hpp"
#include "test_util.hpp"

namespace cqs {
namespace {

using core::CompressedStateSimulator;
using core::SimConfig;
using qsim::build_schedule;
using qsim::Circuit;
using qsim::GateKind;
using qsim::GateRun;
using qsim::is_block_local;
using qsim::plan_remaps;
using qsim::SchedulerOptions;

// ---------------------------------------------------------------- scheduler

TEST(SchedulerTest, BlockLocalClassification) {
  const int intra = 5;
  EXPECT_TRUE(is_block_local({GateKind::kH, 0}, intra));
  EXPECT_TRUE(is_block_local({GateKind::kCX, 4, {3, -1}}, intra));
  EXPECT_TRUE(is_block_local({GateKind::kCCX, 2, {0, 1}}, intra));
  EXPECT_FALSE(is_block_local({GateKind::kH, 5}, intra));
  EXPECT_FALSE(is_block_local({GateKind::kCX, 0, {7, -1}}, intra));
  EXPECT_FALSE(is_block_local({GateKind::kCCX, 0, {1, 9}}, intra));
  // SWAP keeps its qubits in target/controls[0].
  EXPECT_TRUE(is_block_local({GateKind::kSwap, 1, {2, -1}}, intra));
  EXPECT_FALSE(is_block_local({GateKind::kSwap, 1, {9, -1}}, intra));
}

TEST(SchedulerTest, RunsAreMaximalAndPreserveOrder) {
  Circuit c(10);
  c.h(0).cx(0, 1).t(2);  // block-local run of 3
  c.h(6);                // block-segment gate: single item
  c.h(3).swap(1, 2);     // block-local run of 2 (local SWAP joins)
  c.swap(0, 9);          // SWAP crossing the line: single item
  c.x(4);                // trailing block-local run of 1

  const auto schedule =
      build_schedule(c, {.intra_qubits = 5, .max_run_length = 0,
                         .fuse = false});
  const auto& runs = schedule.runs();
  ASSERT_EQ(runs.size(), 5u);
  EXPECT_TRUE(runs[0].block_local);
  EXPECT_EQ(runs[0].first, 0u);
  EXPECT_EQ(runs[0].count, 3u);
  EXPECT_FALSE(runs[1].block_local);
  EXPECT_EQ(runs[1].count, 1u);
  EXPECT_TRUE(runs[2].block_local);
  EXPECT_EQ(runs[2].first, 4u);
  EXPECT_EQ(runs[2].count, 2u);
  EXPECT_FALSE(runs[3].block_local);
  EXPECT_TRUE(runs[4].block_local);
  EXPECT_EQ(runs[4].count, 1u);

  EXPECT_EQ(schedule.stats().block_local_runs, 3u);
  EXPECT_EQ(schedule.stats().batched_ops, 6u);
  EXPECT_EQ(schedule.stats().single_items, 2u);
  EXPECT_EQ(schedule.stats().longest_run, 3u);
}

TEST(SchedulerTest, MaxRunLengthSplitsRuns) {
  Circuit c(8);
  for (int i = 0; i < 7; ++i) c.x(i % 4);
  const auto schedule =
      build_schedule(c, {.intra_qubits = 6, .max_run_length = 2,
                         .fuse = false});
  ASSERT_EQ(schedule.runs().size(), 4u);
  EXPECT_EQ(schedule.runs()[0].count, 2u);
  EXPECT_EQ(schedule.runs()[1].count, 2u);
  EXPECT_EQ(schedule.runs()[2].count, 2u);
  EXPECT_EQ(schedule.runs()[3].count, 1u);
  EXPECT_EQ(schedule.stats().longest_run, 2u);
}

TEST(SchedulerTest, FusionPrepassFoldsSourceGates) {
  Circuit c(10);
  c.h(0).t(0).h(0);  // fuses into one kU3G standing for 3 source gates
  c.cx(0, 9);        // rank-segment single item
  const auto schedule =
      build_schedule(c, {.intra_qubits = 5, .max_run_length = 0,
                         .fuse = true});
  ASSERT_EQ(schedule.circuit().size(), 2u);
  EXPECT_EQ(schedule.circuit().ops()[0].kind, GateKind::kU3G);
  ASSERT_EQ(schedule.runs().size(), 2u);
  EXPECT_EQ(schedule.runs()[0].source_gates, 3u);
  EXPECT_EQ(schedule.runs()[1].source_gates, 1u);
  EXPECT_EQ(schedule.stats().fusion.fused_runs, 1u);
}

TEST(SchedulerTest, SourceGatesAlwaysSumToCircuitSize) {
  const auto c = circuits::qaoa_maxcut_circuit({.num_qubits = 10});
  for (const bool fuse : {false, true}) {
    for (const std::size_t cap : {std::size_t{0}, std::size_t{3}}) {
      const auto schedule = build_schedule(
          c, {.intra_qubits = 5, .max_run_length = cap, .fuse = fuse});
      std::size_t total = 0;
      std::size_t covered_ops = 0;
      for (const GateRun& run : schedule.runs()) {
        total += run.source_gates;
        covered_ops += run.count;
      }
      EXPECT_EQ(total, c.size()) << "fuse=" << fuse << " cap=" << cap;
      EXPECT_EQ(covered_ops, schedule.circuit().size());
    }
  }
}

TEST(SchedulerTest, UpcomingUnitsWindowExcludesCursorAndClamps) {
  const auto order = qsim::run_block_order(2, 3);  // 6 units
  ASSERT_EQ(order.size(), 6u);

  // The window starts after the cursor — the unit in flight is already
  // being read, advising it would be wasted work.
  const auto window = qsim::upcoming_units(order, 0, 3);
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window[0], order[1]);
  EXPECT_EQ(window[1], order[2]);
  EXPECT_EQ(window[2], order[3]);

  // Clamped at the end of the order.
  const auto tail = qsim::upcoming_units(order, 4, 8);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0], order[5]);

  // At or past the end: empty, never out-of-bounds.
  EXPECT_TRUE(qsim::upcoming_units(order, 5, 4).empty());
  EXPECT_TRUE(qsim::upcoming_units(order, 100, 4).empty());
  EXPECT_TRUE(qsim::upcoming_units(order, 0, 0).empty());
}

// ------------------------------------------------- batched execution path

double cross_fidelity(CompressedStateSimulator& sim, const Circuit& circuit) {
  qsim::StateVector reference(circuit.num_qubits());
  reference.apply_circuit(circuit);
  return qsim::state_fidelity(reference.raw(), sim.to_raw());
}

SimConfig batched_config(int qubits, int ranks = 4, int blocks = 4) {
  SimConfig config;
  config.num_qubits = qubits;
  config.num_ranks = ranks;
  config.blocks_per_rank = blocks;
  config.threads = 4;
  return config;
}

/// A circuit that exercises every target segment, block-local SWAPs inside
/// runs, and a rank-spanning SWAP that forces a run boundary.
Circuit all_segment_circuit() {
  Circuit c(10);  // 4 ranks x 8 blocks -> offset 5, block 3, rank 2
  c.h(0).t(1).cx(0, 2).swap(1, 3);  // block-local run (SWAP included)
  c.h(7).cx(6, 0);                  // block-segment items
  c.swap(0, 9);                     // SWAP across the boundary
  c.rz(2, 0.31).x(4).ccx(0, 1, 3);  // second block-local run
  c.h(9).cphase(8, 1, 0.77);        // rank-segment items
  c.x(0).cx(3, 1);                  // trailing run
  return c;
}

TEST(BatchedSimulatorTest, MatchesDenseAcrossSegmentsWithAndWithoutCache) {
  const Circuit c = all_segment_circuit();
  for (const bool cache : {true, false}) {
    auto config = batched_config(10, 4, 8);
    config.enable_cache = cache;
    CompressedStateSimulator sim(config);
    sim.apply_circuit(c);
    EXPECT_NEAR(cross_fidelity(sim, c), 1.0, 1e-10) << "cache=" << cache;
    const auto report = sim.report();
    EXPECT_GT(report.batched_runs, 0u);
    EXPECT_GT(report.batched_gates, report.batched_runs)
        << "at least one run must hold multiple gates";
  }
}

TEST(BatchedSimulatorTest, BatchedAndPerGatePathsAgree) {
  const Circuit c = all_segment_circuit();
  auto on = batched_config(10, 4, 8);
  auto off = on;
  off.max_run_length = 1;  // the per-gate baseline: one gate per run
  off.enable_fusion_prepass = false;
  CompressedStateSimulator batched(on);
  CompressedStateSimulator per_gate(off);
  batched.apply_circuit(c);
  per_gate.apply_circuit(c);
  CQS_EXPECT_STATES_CLOSE(batched.to_raw(), per_gate.to_raw(), 1e-12);
  EXPECT_EQ(per_gate.report().batched_gates, per_gate.report().batched_runs);
  EXPECT_LT(batched.report().compress_invocations,
            per_gate.report().compress_invocations)
      << "batching must amortize codec passes";
}

TEST(BatchedSimulatorTest, KGateRunRecordsExactlyOneLossyPass) {
  // Eight block-local gates form one run; at a pinned lossy level the
  // fidelity ledger must record one pass for the whole run (Eq. 11
  // tightens from (1-d)^K to (1-d)^1), not one per gate.
  auto config = batched_config(11, 2, 4);  // offset segment: 8 qubits
  config.initial_level = 2;                // ladder[1] = 1e-4
  CompressedStateSimulator sim(config);
  Circuit c(11);
  c.h(0).h(1).h(2).h(3).cx(0, 1).cx(2, 3).h(0).h(1);
  sim.apply_circuit(c);

  const auto report = sim.report();
  EXPECT_EQ(report.batched_runs, 1u);
  EXPECT_EQ(report.lossy_passes, 1u);
  EXPECT_DOUBLE_EQ(sim.fidelity_bound(), 1.0 - 1e-4);

  // The per-gate baseline on the same circuit pays one pass per gate.
  auto per_gate_config = config;
  per_gate_config.max_run_length = 1;
  per_gate_config.enable_fusion_prepass = false;
  CompressedStateSimulator per_gate(per_gate_config);
  per_gate.apply_circuit(c);
  EXPECT_EQ(per_gate.report().lossy_passes, c.size());
  EXPECT_LT(per_gate.fidelity_bound(), sim.fidelity_bound());
}

TEST(BatchedSimulatorTest, LossyPassRuleChargesOnePassPerCodecSweep) {
  // The Eq. 11 pass rule of core/config.hpp: one lossy pass per codec
  // sweep that wrote a lossy block. A block-local SWAP rides one run
  // sweep and costs 1 pass; a SWAP whose target is in the block segment
  // runs as three CX sweeps and costs 3. The per-gate baseline follows
  // the same rule.
  for (const bool per_gate : {false, true}) {
    auto config = batched_config(10, 4, 8);  // offset 5, block 3, rank 2
    config.initial_level = 2;  // fixed policy: every write is lossy
    if (per_gate) {
      config.max_run_length = 1;
      config.enable_fusion_prepass = false;
    }
    Circuit local(10);
    local.swap(1, 3);
    CompressedStateSimulator local_sim(config);
    local_sim.apply_circuit(local);
    EXPECT_EQ(local_sim.report().lossy_passes, 1u) << "per_gate=" << per_gate;

    Circuit block_target(10);
    block_target.swap(6, 1);
    CompressedStateSimulator block_sim(config);
    block_sim.apply_circuit(block_target);
    EXPECT_EQ(block_sim.report().lossy_passes, 3u) << "per_gate=" << per_gate;
    const double keep = 1.0 - 1e-4;  // ladder[1]
    EXPECT_DOUBLE_EQ(block_sim.fidelity_bound(), keep * keep * keep)
        << "per_gate=" << per_gate;
  }
}

TEST(BatchedSimulatorTest, MemoryBudgetCapsRunLengthForEscalation) {
  // Budget enforcement runs between runs; with a budget set and no user
  // cap, a long block-local stretch must be split (16-op cap) so the
  // error-ladder escalation cannot be deferred across the whole stretch.
  auto config = batched_config(10, 1, 2);  // offset segment: 9 qubits
  config.memory_budget_bytes = 2 << 10;    // pressure on a 16 KB raw state
  CompressedStateSimulator sim(config);
  Circuit c(10);
  // Controlled gates so the fusion pre-pass cannot shrink the stretch,
  // and varied rotations so the state stays incompressible losslessly.
  for (int i = 0; i < 48; ++i) {
    c.h(i % 8).cx(i % 7, (i % 7) + 1).rz(i % 8, 0.37 * i + 0.21);
  }
  sim.apply_circuit(c);
  const auto report = sim.report();
  EXPECT_GE(report.batched_runs, 3u)
      << "a 48-gate local stretch must split into capped runs";
  EXPECT_GT(sim.ladder_level(), 0) << "budget must still force escalation";
}

// ------------------------------------------------- cursor / resume fixes

TEST(CircuitCursorTest, SecondCircuitAppliesAllOfItsGates) {
  // Regression: the cursor used to persist after a completed circuit, so
  // a second apply_circuit silently skipped its first N gates.
  Circuit c1(10);
  c1.h(0).h(1).h(2);
  Circuit c2(10);
  c2.x(0).cx(0, 9).t(5).h(3);
  CompressedStateSimulator sim(batched_config(10));
  sim.apply_circuit(c1);
  sim.apply_circuit(c2);

  qsim::StateVector reference(10);
  reference.apply_circuit(c1);
  reference.apply_circuit(c2);
  EXPECT_NEAR(qsim::state_fidelity(reference.raw(), sim.to_raw()), 1.0,
              1e-10);
  EXPECT_EQ(sim.gate_cursor(), c2.size());
  EXPECT_EQ(sim.report().gates, c1.size() + c2.size());
}

TEST(CircuitCursorTest, AdHocApplyInvalidatesResumePoint) {
  Circuit c1(10);
  c1.h(0).h(1);
  CompressedStateSimulator sim(batched_config(10));
  sim.apply_circuit(c1);
  EXPECT_EQ(sim.gate_cursor(), c1.size());
  sim.apply({GateKind::kX, 3});
  EXPECT_EQ(sim.gate_cursor(), 0u)
      << "an ad-hoc gate diverges the state from the recorded circuit "
         "position, so the cursor must not claim a resume point";

  Circuit c2(10);
  c2.cx(0, 9).t(1);
  sim.apply_circuit(c2);
  qsim::StateVector reference(10);
  reference.apply_circuit(c1);
  reference.apply({GateKind::kX, 3});
  reference.apply_circuit(c2);
  EXPECT_NEAR(qsim::state_fidelity(reference.raw(), sim.to_raw()), 1.0,
              1e-10);
}

TEST(CircuitCursorTest, MeasurementInvalidatesResumePoint) {
  Circuit c(10);
  c.h(0).cx(0, 9);
  CompressedStateSimulator sim(batched_config(10));
  sim.apply_circuit(c);
  ASSERT_EQ(sim.gate_cursor(), c.size());
  Rng rng(7);
  sim.measure(0, rng);
  EXPECT_EQ(sim.gate_cursor(), 0u)
      << "collapse diverges the state from the recorded circuit position";
}

TEST(CircuitCursorTest, ResumeCircuitContinuesFromCursor) {
  const auto full = circuits::qaoa_maxcut_circuit({.num_qubits = 10});
  Circuit prefix(10);
  for (std::size_t i = 0; i < full.size() / 3; ++i) {
    prefix.append(full.ops()[i]);
  }
  CompressedStateSimulator sim(batched_config(10));
  sim.apply_circuit(prefix);
  ASSERT_EQ(sim.gate_cursor(), prefix.size());
  sim.resume_circuit(full);  // applies only the remaining two thirds
  EXPECT_EQ(sim.gate_cursor(), full.size());
  EXPECT_NEAR(cross_fidelity(sim, full), 1.0, 1e-10);
  EXPECT_EQ(sim.report().gates, full.size());
}

TEST(CircuitCursorTest, ResumeCircuitRejectsCursorBeyondCircuit) {
  Circuit big(10);
  big.h(0).h(1).h(2);
  Circuit small(10);
  small.x(0);
  CompressedStateSimulator sim(batched_config(10));
  sim.apply_circuit(big);
  EXPECT_THROW(sim.resume_circuit(small), std::invalid_argument);
}

// ------------------------------------------------------- remap pre-pass
//
// Planner fixtures use 8 qubits split as offset [0,4), block {4,5}, rank
// {6,7} — small enough to enumerate decisions by hand.

qsim::RemapOptions remap_options(bool enabled = true) {
  qsim::RemapOptions options;
  options.enabled = enabled;
  options.num_qubits = 8;
  options.offset_bits = 4;
  options.block_bits = 2;
  return options;
}

std::size_t count_kind(const qsim::RemapProgram& program,
                       qsim::RemapItem::Kind kind) {
  std::size_t n = 0;
  for (const auto& item : program.items) {
    if (item.kind == kind) ++n;
  }
  return n;
}

/// All physical ops of the program's kGates items, in order.
std::vector<qsim::GateOp> program_ops(const qsim::RemapProgram& program) {
  std::vector<qsim::GateOp> ops;
  for (const auto& item : program.items) {
    if (item.kind != qsim::RemapItem::Kind::kGates) continue;
    ops.insert(ops.end(), item.ops.ops().begin(), item.ops.ops().end());
  }
  return ops;
}

TEST(RemapPlanTest, DisabledPassOnlyTranslates) {
  Circuit c(8);
  c.h(7).cx(6, 0).swap(0, 7);
  auto map = runtime::QubitMap::identity(8);
  map.relabel(0, 3);  // as if a previous run had relabeled
  const auto program = plan_remaps(c, map, remap_options(false));
  EXPECT_EQ(program.items.size(), 1u);
  EXPECT_EQ(program.stats.remaps, 0u);
  EXPECT_EQ(program.stats.swaps_relabeled, 0u);
  const auto ops = program_ops(program);
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].target, 7);
  EXPECT_EQ(ops[1].controls[0], 6);
  EXPECT_EQ(ops[1].target, 3);  // logical 0 lives at physical 3
  EXPECT_EQ(ops[2].target, 3);  // SWAP stays a gate when disabled
  EXPECT_EQ(ops[2].controls[0], 7);
}

TEST(RemapPlanTest, SwapBecomesRelabelItem) {
  Circuit c(8);
  c.swap(1, 7).h(7);
  const auto program =
      plan_remaps(c, runtime::QubitMap::identity(8), remap_options());
  ASSERT_EQ(program.items.size(), 2u);
  EXPECT_EQ(program.items[0].kind, qsim::RemapItem::Kind::kRelabel);
  EXPECT_EQ(program.items[0].relabel_a, 1);
  EXPECT_EQ(program.items[0].relabel_b, 7);
  EXPECT_EQ(program.stats.swaps_relabeled, 1u);
  // After the relabel, logical 7 lives at physical 1: H(7) is block-local
  // and needs no remap.
  EXPECT_EQ(program.stats.remaps, 0u);
  const auto ops = program_ops(program);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].target, 1);
  EXPECT_EQ(program.stats.rank_targets_localized, 1u);
}

TEST(RemapPlanTest, LastTouchRankGateAppliesInPlace) {
  Circuit c(8);
  c.h(7);  // the only gate ever touching qubit 7
  const auto program =
      plan_remaps(c, runtime::QubitMap::identity(8), remap_options());
  EXPECT_EQ(program.stats.remaps, 0u);
  EXPECT_EQ(program.stats.rank_targets_in_place, 1u);
  const auto ops = program_ops(program);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].target, 7);
}

TEST(RemapPlanTest, RepeatedRankTargetRemapsOnceThenRoutesLocally) {
  Circuit c(8);
  c.h(7).t(7).h(7).h(7);
  const auto program =
      plan_remaps(c, runtime::QubitMap::identity(8), remap_options());
  EXPECT_EQ(program.stats.remaps, 1u);
  ASSERT_GE(program.items.size(), 1u);
  EXPECT_EQ(program.items[0].kind, qsim::RemapItem::Kind::kRemap);
  EXPECT_EQ(program.items[0].remap.phys_hot, 7);
  EXPECT_LT(program.items[0].remap.phys_cold, 4);
  // All three H's (and the diagonal T) execute at the cold offset home.
  EXPECT_EQ(program.stats.rank_targets_localized, 3u);
  EXPECT_EQ(program.stats.rank_targets_in_place, 0u);
  for (const auto& op : program_ops(program)) {
    EXPECT_EQ(op.target, program.items[0].remap.phys_cold);
  }
}

TEST(RemapPlanTest, LookaheadEvictsFurthestNextUse) {
  Circuit c(8);
  // Offset residents 0..3: qubit 2 is touched furthest in the future
  // (never), so the remap for H(6)H(6) must evict it.
  c.h(6).x(0).x(1).x(3).h(6);
  const auto program =
      plan_remaps(c, runtime::QubitMap::identity(8), remap_options());
  ASSERT_EQ(program.stats.remaps, 1u);
  EXPECT_EQ(program.items[0].remap.phys_hot, 6);
  EXPECT_EQ(program.items[0].remap.phys_cold, 2);
}

TEST(RemapPlanTest, LruEvictsLeastRecentlyUsed) {
  Circuit c(8);
  c.x(0).x(2).x(3).x(1).h(6);
  auto options = remap_options();
  options.policy = qsim::RemapPolicy::kLru;
  std::vector<std::uint64_t> last_use(8, 0);
  std::uint64_t tick = 0;
  const auto program = plan_remaps(c, runtime::QubitMap::identity(8),
                                   options, &last_use, &tick);
  // LRU always remaps a hot rank target (no lookahead), evicting the
  // stalest offset resident — qubit 0 here.
  ASSERT_EQ(program.stats.remaps, 1u);
  const auto remap_item = std::find_if(
      program.items.begin(), program.items.end(), [](const auto& item) {
        return item.kind == qsim::RemapItem::Kind::kRemap;
      });
  ASSERT_NE(remap_item, program.items.end());
  EXPECT_EQ(remap_item->remap.phys_hot, 6);
  EXPECT_EQ(remap_item->remap.phys_cold, 0);
  EXPECT_EQ(tick, 5u);

  // The recency state carries across calls: qubit 0 was just relocated,
  // another hot gate now evicts the next-stalest resident (qubit 2).
  Circuit c2(8);
  c2.h(7);
  runtime::QubitMap map = runtime::QubitMap::identity(8);
  map.swap_physical(6, 0);
  const auto program2 = plan_remaps(c2, map, options, &last_use, &tick);
  ASSERT_EQ(program2.stats.remaps, 1u);
  EXPECT_EQ(program2.items[0].remap.phys_hot, 7);
  EXPECT_EQ(program2.items[0].remap.phys_cold, 2);
}

TEST(RemapPlanTest, DiagonalAndControlOnlyRankUseNeverRemaps) {
  Circuit c(8);
  c.z(7).cphase(7, 6, 0.25).cx(7, 0).t(6).cz(6, 7);
  const auto program =
      plan_remaps(c, runtime::QubitMap::identity(8), remap_options());
  EXPECT_EQ(program.stats.remaps, 0u);
  EXPECT_EQ(program.stats.rank_targets_in_place, 0u);
  EXPECT_EQ(count_kind(program, qsim::RemapItem::Kind::kGates), 1u);
}

TEST(RemapPlanTest, SweepsAvoidedNetsOutRemapCost) {
  Circuit c(8);
  // X(7) then H(7): remap at X (1 sweep paid), X and H localized (2
  // sweeps avoided), net 1. The relabeled swap(0, 7) would have cost two
  // rank CX legs: net 3 total.
  c.x(7).h(7).swap(0, 7);
  const auto program =
      plan_remaps(c, runtime::QubitMap::identity(8), remap_options());
  EXPECT_EQ(program.stats.remaps, 1u);
  EXPECT_EQ(program.stats.swaps_relabeled, 1u);
  EXPECT_EQ(program.stats.sweeps_avoided, 3u);
}

TEST(RemapPlanTest, UnrelabeledSwapNeverEvictsItsOwnPartner) {
  // With relabeling off, a rank-spanning SWAP forces its rank qubit into
  // the offset segment; the evicted resident must never be the swap's
  // other qubit (that would hand the CX legs the cost just saved), even
  // when that qubit is the coldest candidate.
  Circuit c(8);
  c.swap(0, 7);  // qubit 0 is otherwise never used: coldest candidate
  auto options = remap_options();
  options.relabel_swaps = false;
  const auto program =
      plan_remaps(c, runtime::QubitMap::identity(8), options);
  ASSERT_EQ(program.stats.remaps, 1u);
  EXPECT_EQ(program.items[0].kind, qsim::RemapItem::Kind::kRemap);
  EXPECT_EQ(program.items[0].remap.phys_hot, 7);
  EXPECT_EQ(program.items[0].remap.phys_cold, 1)
      << "victim must skip the swap partner at physical 0";
  EXPECT_EQ(program.stats.swaps_relabeled, 0u);
}

TEST(RemapPlanTest, SwapWithNoEligibleVictimStaysAtRank) {
  // A 1-qubit offset segment whose only resident is the swap's partner:
  // no eviction is possible without self-defeat, so the leg stays at
  // rank and no remap churns the map.
  Circuit c(3);
  c.swap(0, 2);
  qsim::RemapOptions options;
  options.enabled = true;
  options.relabel_swaps = false;
  options.num_qubits = 3;
  options.offset_bits = 1;
  options.block_bits = 1;
  const auto program =
      plan_remaps(c, runtime::QubitMap::identity(3), options);
  EXPECT_EQ(program.stats.remaps, 0u);
  const auto ops = program_ops(program);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, GateKind::kSwap);
  EXPECT_EQ(ops[0].target, 0);
  EXPECT_EQ(ops[0].controls[0], 2);
}

TEST(RemapPlanTest, RejectsInvalidInputs) {
  Circuit c(8);
  c.h(0);
  EXPECT_THROW(
      plan_remaps(c, runtime::QubitMap::identity(7), remap_options()),
      std::invalid_argument);
  auto bad = remap_options();
  bad.offset_bits = 0;
  EXPECT_THROW(plan_remaps(c, runtime::QubitMap::identity(8), bad),
               std::invalid_argument);
  auto lru = remap_options();
  lru.policy = qsim::RemapPolicy::kLru;
  EXPECT_THROW(plan_remaps(c, runtime::QubitMap::identity(8), lru),
               std::invalid_argument)
      << "lru without recency state must be rejected";
}

TEST(RemapPlanTest, ParsePolicyNames) {
  EXPECT_EQ(qsim::parse_remap_policy("lookahead"),
            qsim::RemapPolicy::kLookahead);
  EXPECT_EQ(qsim::parse_remap_policy("lru"), qsim::RemapPolicy::kLru);
  EXPECT_THROW(qsim::parse_remap_policy("belady"), std::invalid_argument);
}

}  // namespace
}  // namespace cqs
