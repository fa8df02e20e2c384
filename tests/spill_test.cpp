// Out-of-core spill tier coverage:
//   - SpillFile unit behavior (round-trips, free-list coalescing, typed
//     failures for unwritable paths and disk-full),
//   - tiered BlockStore semantics + shared TierStats accounting,
//   - the golden differential: spill-on == spill-off at tolerance 0
//     across circuits x ranks x threads x batching,
//   - checkpoint/resume of spilled states, including resuming under a
//     different resident budget,
//   - the SpillConcurrencyTest suite doubles as the TSan target for the
//     cross-thread advise/tier-transition paths.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#include "core/config.hpp"
#include "core/simulator.hpp"
#include "runtime/block_store.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/spill_file.hpp"
#include "test_util.hpp"

namespace cqs {
namespace {

using test::random_circuit;

// BlockStore(int) used to be a converting constructor, so a bare block
// count silently became a whole store at call sites expecting one.
static_assert(!std::is_convertible_v<int, runtime::BlockStore>,
              "BlockStore(int) must be explicit");

Bytes make_bytes(std::size_t size, int fill) {
  return Bytes(size, static_cast<std::byte>(fill));
}

using SpillFileTest = test::TempDirFixture;

TEST_F(SpillFileTest, WriteViewRoundTrip) {
  runtime::SpillFile spill(path("spill.bin"));
  const Bytes payload = make_bytes(1000, 7);
  const auto segment = spill.write(payload);
  EXPECT_EQ(segment.size, 1000u);
  const ByteSpan view = spill.view(segment);
  ASSERT_EQ(view.size(), payload.size());
  EXPECT_TRUE(std::equal(view.begin(), view.end(), payload.begin()));
  EXPECT_EQ(spill.live_bytes(), 1000u);
  EXPECT_EQ(spill.live_segments(), 1u);
}

TEST_F(SpillFileTest, FreeListCoalescesAndReusesSpace) {
  runtime::SpillFile spill(path("spill.bin"));
  const auto a = spill.write(make_bytes(100, 1));
  const auto b = spill.write(make_bytes(200, 2));
  const auto c = spill.write(make_bytes(100, 3));
  const std::uint64_t high_water = spill.file_bytes();

  // Freeing a then b coalesces into one 300-byte hole at a's offset; a
  // 300-byte write must land exactly there instead of growing the file.
  spill.free_segment(a);
  spill.free_segment(b);
  const auto d = spill.write(make_bytes(300, 4));
  EXPECT_EQ(d.offset, a.offset);
  EXPECT_EQ(spill.file_bytes(), high_water);

  // Freeing everything lets the trailing hole shrink the high-water mark:
  // the next write starts from offset 0 again.
  spill.free_segment(c);
  spill.free_segment(d);
  EXPECT_EQ(spill.live_bytes(), 0u);
  const auto e = spill.write(make_bytes(64, 5));
  EXPECT_EQ(e.offset, 0u);
}

TEST_F(SpillFileTest, ViewsSurviveLaterGrowth) {
  // The read mapping is a fixed reservation: a span handed out before the
  // file grows by orders of magnitude must still read its bytes.
  runtime::SpillFile spill(path("spill.bin"));
  const auto first = spill.write(make_bytes(512, 9));
  const ByteSpan early_view = spill.view(first);
  for (int i = 0; i < 64; ++i) spill.write(make_bytes(64 * 1024, i));
  EXPECT_TRUE(std::all_of(early_view.begin(), early_view.end(),
                          [](std::byte v) { return v == std::byte{9}; }));
}

TEST_F(SpillFileTest, UnwritablePathThrowsTypedError) {
  EXPECT_THROW(
      runtime::SpillFile(path("no/such/directory/spill.bin")),
      runtime::SpillError);
  try {
    runtime::SpillFile spill(path("missing/spill.bin"));
    FAIL() << "expected SpillError";
  } catch (const runtime::SpillError& e) {
    EXPECT_EQ(e.code(), ENOENT);
  }
}

TEST_F(SpillFileTest, DiskFullSurfacesAsSpillError) {
  runtime::SpillFile spill(path("spill.bin"));
  runtime::ScopedFaultPlan plan("spill.write@2:enospc");
  EXPECT_NO_THROW(spill.write(make_bytes(100, 1)));
  try {
    spill.write(make_bytes(100, 2));
    FAIL() << "expected SpillError";
  } catch (const runtime::SpillError& e) {
    EXPECT_EQ(e.code(), ENOSPC);
    // The message must name the disk and carry the errno text.
    EXPECT_NE(std::string(e.what()).find("spill.bin"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(std::strerror(ENOSPC)),
              std::string::npos);
  }
  // A failed write must not leak its reserved segment, and the one-shot
  // fault must not refire.
  EXPECT_NO_THROW(spill.write(make_bytes(100, 3)));
  EXPECT_EQ(spill.live_bytes(), 200u);
  EXPECT_EQ(spill.live_segments(), 2u);
}

using TieredBlockStoreTest = test::TempDirFixture;

TEST_F(TieredBlockStoreTest, TierMovesPreserveBytesAndAccounting) {
  runtime::TierStats stats;
  runtime::SpillFile spill(path("spill.bin"));
  runtime::BlockStore store(2);
  store.attach(&stats, &spill);
  store.set_block(0, make_bytes(100, 1), {0});
  store.set_block(1, make_bytes(60, 2), {1});
  EXPECT_EQ(store.resident_bytes(), 160u);
  EXPECT_EQ(store.spilled_bytes(), 0u);

  store.spill_block(0);
  EXPECT_TRUE(store.is_spilled(0));
  EXPECT_FALSE(store.is_spilled(1));
  EXPECT_EQ(store.resident_bytes(), 60u);
  EXPECT_EQ(store.spilled_bytes(), 100u);
  EXPECT_EQ(store.total_bytes(), 160u);
  EXPECT_EQ(stats.resident_bytes.load(), 60u);
  EXPECT_EQ(stats.spilled_bytes.load(), 100u);
  EXPECT_EQ(stats.spill_events.load(), 1u);

  // The spilled payload reads back byte-identical through the view; a
  // resident block throws from the resident-only accessor.
  const ByteSpan view = store.payload_view(0);
  ASSERT_EQ(view.size(), 100u);
  EXPECT_TRUE(std::all_of(view.begin(), view.end(),
                          [](std::byte v) { return v == std::byte{1}; }));
  EXPECT_THROW(store.block(0), std::logic_error);
  EXPECT_EQ(store.block_size(0), 100u);
  EXPECT_EQ(stats.fault_events.load(), 1u);

  // Rewriting a spilled block frees its segment and makes it resident.
  store.set_block(0, make_bytes(40, 3), {0});
  EXPECT_FALSE(store.is_spilled(0));
  EXPECT_EQ(store.spilled_bytes(), 0u);
  EXPECT_EQ(store.resident_bytes(), 100u);
  EXPECT_EQ(spill.live_segments(), 0u);
  // The peak saw the 160-byte high point, not just gate boundaries.
  EXPECT_EQ(stats.peak_total_bytes.load(), 160u);
}

TEST_F(TieredBlockStoreTest, AdviseArmsReadaheadHitDetector) {
  runtime::TierStats stats;
  runtime::SpillFile spill(path("spill.bin"));
  runtime::BlockStore store(1);
  store.attach(&stats, &spill);
  store.set_block(0, make_bytes(80, 4), {0});

  store.advise(0);  // resident: no-op
  EXPECT_EQ(stats.readahead_issued.load(), 0u);

  store.spill_block(0);
  store.advise(0);
  EXPECT_EQ(stats.readahead_issued.load(), 1u);
  store.payload_view(0);
  EXPECT_EQ(stats.readahead_hits.load(), 1u);
  // The detector disarms on the first read: a second fault is not a hit.
  store.payload_view(0);
  EXPECT_EQ(stats.readahead_hits.load(), 1u);
  EXPECT_EQ(stats.fault_events.load(), 2u);
}

TEST_F(TieredBlockStoreTest, StaleCommitIsDiscarded) {
  runtime::TierStats stats;
  runtime::SpillFile spill(path("spill.bin"));
  runtime::BlockStore store(1);
  store.attach(&stats, &spill);
  store.set_block(0, make_bytes(50, 1), {0});
  const std::uint64_t generation = store.generation(0);
  const auto segment = spill.write(*store.payload_handle(0));

  // The block is rewritten while the "async write" was in flight: the
  // commit must drop the stale segment and leave the block resident.
  store.set_block(0, make_bytes(70, 2), {0});
  EXPECT_FALSE(store.commit_spill(0, segment, generation));
  EXPECT_FALSE(store.is_spilled(0));
  EXPECT_EQ(spill.live_segments(), 0u);

  // An untouched block commits normally.
  const std::uint64_t generation2 = store.generation(0);
  const auto segment2 = spill.write(*store.payload_handle(0));
  EXPECT_TRUE(store.commit_spill(0, segment2, generation2));
  EXPECT_TRUE(store.is_spilled(0));
  EXPECT_EQ(store.spilled_bytes(), 70u);
}

using SpillConfigTest = test::TempDirFixture;

TEST_F(SpillConfigTest, KnobValidation) {
  core::SimConfig config;
  config.num_qubits = 8;
  config.spill_path = path("spill.bin");
  config.resident_budget_bytes = 0;
  EXPECT_THROW(core::CompressedStateSimulator{config},
               std::invalid_argument);

  config.spill_path.clear();
  config.resident_budget_bytes = 1024;
  EXPECT_THROW(core::CompressedStateSimulator{config},
               std::invalid_argument);

  config.spill_path = path("spill.bin");
  config.readahead_blocks = -1;
  EXPECT_THROW(core::CompressedStateSimulator{config},
               std::invalid_argument);
  config.readahead_blocks = 4097;
  EXPECT_THROW(core::CompressedStateSimulator{config},
               std::invalid_argument);

  config.readahead_blocks = 4;
  EXPECT_NO_THROW(core::CompressedStateSimulator{config});
}

TEST_F(SpillConfigTest, UnwritableSpillPathFailsConstruction) {
  core::SimConfig config;
  config.num_qubits = 8;
  config.spill_path = path("no/such/dir/spill.bin");
  config.resident_budget_bytes = 1024;
  EXPECT_THROW(core::CompressedStateSimulator{config},
               runtime::SpillError);
}

TEST(SimulatorPeakTest, PeakTracksOccupancyWithoutGates) {
  // Regression for the gate-boundary-only peak sampling: a simulator that
  // never applies a gate still holds its initial compressed state, and
  // the report must say so instead of claiming a zero peak.
  core::SimConfig config;
  config.num_qubits = 8;
  core::CompressedStateSimulator sim(config);
  const auto report = sim.report();
  EXPECT_GT(report.peak_compressed_bytes, 0u);
  EXPECT_EQ(report.peak_compressed_bytes, sim.compressed_bytes());
}

using SpillSimTest = test::TempDirFixture;

core::SimConfig spill_config(const std::string& spill_path, int qubits,
                             int ranks, int threads, bool batching) {
  core::SimConfig config;
  config.num_qubits = qubits;
  config.num_ranks = ranks;
  config.blocks_per_rank = 8;
  config.threads = threads;
  if (!batching) {  // the per-gate baseline as a run configuration
    config.max_run_length = 1;
    config.enable_fusion_prepass = false;
  }
  if (!spill_path.empty()) {
    config.spill_path = spill_path;
    // Tiny on purpose: essentially the whole state lives on the spill
    // tier, so every code path crosses it.
    config.resident_budget_bytes = 1;
  }
  return config;
}

TEST_F(SpillSimTest, SpillOnMatchesSpillOffAtToleranceZero) {
  // The golden differential of the tier design: every tier move is
  // byte-preserving, so an out-of-core run must produce the bit-identical
  // state of the in-memory run — across circuit shape, rank count,
  // thread count, and the batched vs per-gate executors.
  int case_index = 0;
  for (const int ranks : {1, 2, 4}) {
    for (const int threads : {1, 4}) {
      for (const bool batching : {true, false}) {
        const int qubits = 10;
        const auto circuit =
            random_circuit(qubits, 60, 100u + case_index);
        ++case_index;

        auto reference_config = spill_config("", qubits, ranks, threads,
                                             batching);
        core::CompressedStateSimulator reference(reference_config);
        reference.apply_circuit(circuit);
        const auto expected = reference.to_raw();

        auto config = spill_config(path("spill.bin"), qubits, ranks,
                                   threads, batching);
        core::CompressedStateSimulator sim(config);
        sim.apply_circuit(circuit);
        const auto report = sim.report();
        EXPECT_TRUE(report.spill_enabled);
        EXPECT_GT(report.spill_events, 0u)
            << "a 1-byte resident budget must actually spill";
        EXPECT_EQ(report.resident_bytes + report.spilled_bytes,
                  sim.compressed_bytes())
            << "tier split must sum to the compressed total";
        CQS_EXPECT_STATES_CLOSE(sim.to_raw(), expected, 0.0);
      }
    }
  }
}

TEST_F(SpillSimTest, PartialSpillMatchesToleranceZero) {
  // A budget in the middle of the state size exercises the transition
  // region: write-behind evictions plus a mixed resident/spilled census.
  const auto circuit = random_circuit(10, 80, 77);
  auto reference_config = spill_config("", 10, 2, 4, true);
  core::CompressedStateSimulator reference(reference_config);
  reference.apply_circuit(circuit);

  auto config = spill_config(path("spill.bin"), 10, 2, 4, true);
  config.resident_budget_bytes = reference.compressed_bytes() / 2 + 1;
  core::CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  const auto report = sim.report();
  EXPECT_EQ(report.resident_bytes + report.spilled_bytes,
            sim.compressed_bytes());
  CQS_EXPECT_STATES_CLOSE(sim.to_raw(), reference.to_raw(), 0.0);
}

TEST_F(SpillSimTest, ReadaheadWindowSizesAreEquivalent) {
  // Readahead is a hint: any window (including none) yields the same
  // state; only the issued/hit counters may differ.
  const auto circuit = random_circuit(10, 50, 31);
  std::vector<double> reference;
  for (const int window : {0, 1, 4, 64}) {
    auto config = spill_config(path("spill.bin"), 10, 2, 4, true);
    config.readahead_blocks = window;
    core::CompressedStateSimulator sim(config);
    sim.apply_circuit(circuit);
    const auto raw = sim.to_raw();
    if (reference.empty()) {
      reference = raw;
    } else {
      CQS_EXPECT_STATES_CLOSE(raw, reference, 0.0);
    }
    if (window > 0) {
      EXPECT_GT(sim.report().readahead_issued, 0u);
    }
  }
}

TEST_F(SpillSimTest, MeasurementAndQueriesCrossTheSpillTier) {
  // Intermediate measurement + observable queries decompress spilled
  // blocks through payload_view; both runs must agree exactly (same rng
  // stream, byte-identical states).
  const auto circuit = random_circuit(9, 40, 5);
  auto run = [&](const std::string& spill) {
    auto config = spill_config(spill, 9, 2, 2, true);
    core::CompressedStateSimulator sim(config);
    sim.apply_circuit(circuit);
    Rng rng(123);
    const int outcome = sim.measure(4, rng);
    return std::tuple(outcome, sim.probability_one(2), sim.norm(),
                      sim.to_raw());
  };
  const auto [outcome_off, p_off, norm_off, raw_off] = run("");
  const auto [outcome_on, p_on, norm_on, raw_on] = run(path("spill.bin"));
  EXPECT_EQ(outcome_on, outcome_off);
  EXPECT_EQ(p_on, p_off);
  EXPECT_EQ(norm_on, norm_off);
  CQS_EXPECT_STATES_CLOSE(raw_on, raw_off, 0.0);
}

TEST_F(SpillSimTest, DiskFullMidRunSurfacesTypedError) {
  // The first spill write past the injected capacity fails; the error
  // must reach the caller as a SpillError (possibly at the next settle),
  // never a crash or a silent wrong answer.
  const auto circuit = random_circuit(10, 60, 13);
  auto config = spill_config(path("spill.bin"), 10, 1, 2, true);
  core::CompressedStateSimulator sim(config);
  runtime::ScopedFaultPlan plan("spill.write@2+:enospc");
  EXPECT_THROW(sim.apply_circuit(circuit), runtime::SpillError);
}

using SpillCheckpointTest = test::TempDirFixture;

TEST_F(SpillCheckpointTest, SpilledStateRoundTripsThroughCheckpoint) {
  // Save while most blocks live on the spill tier; resume (a) with spill
  // under the same budget, (b) with spill under a different budget, and
  // (c) entirely in-memory. All three must be bit-identical.
  const auto circuit = random_circuit(10, 60, 55);
  auto config = spill_config(path("spill.bin"), 10, 2, 4, true);
  core::CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  const auto expected = sim.to_raw();
  const std::string ckpt = path("spilled.ckpt");
  sim.save_checkpoint(ckpt);

  {
    auto resume = spill_config(path("resume_same.bin"), 10, 2, 4, true);
    auto restored =
        core::CompressedStateSimulator::load_checkpoint(ckpt, resume);
    EXPECT_GT(restored.report().spilled_bytes, 0u);
    CQS_EXPECT_STATES_CLOSE(restored.to_raw(), expected, 0.0);
  }
  {
    // A resume is free to re-tier under a different budget.
    auto resume = spill_config(path("resume_big.bin"), 10, 2, 4, true);
    resume.resident_budget_bytes = std::size_t{1} << 30;
    auto restored =
        core::CompressedStateSimulator::load_checkpoint(ckpt, resume);
    CQS_EXPECT_STATES_CLOSE(restored.to_raw(), expected, 0.0);
  }
  {
    auto resume = spill_config("", 10, 2, 4, true);
    auto restored =
        core::CompressedStateSimulator::load_checkpoint(ckpt, resume);
    EXPECT_EQ(restored.report().spilled_bytes, 0u);
    CQS_EXPECT_STATES_CLOSE(restored.to_raw(), expected, 0.0);
  }
}

TEST_F(SpillCheckpointTest, InMemoryCheckpointResumesUnderTinyBudget) {
  // Regression: a budget-1 resume constructor leaves write-behind spills
  // of the initial |0...0> blocks in flight; load_checkpoint used to swap
  // the stores under them, and the later settle passed commit_spill's
  // generation guard (both slot sets count from 1) — silently re-tiering
  // every restored resident block onto a stale pre-restore segment. An
  // entirely in-memory checkpoint maximizes the exposure: nothing gets
  // re-spilled before the settle, so every block is at risk.
  const auto circuit = random_circuit(10, 60, 63);
  auto config = spill_config("", 10, 2, 4, true);
  core::CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  const auto expected = sim.to_raw();
  const std::string ckpt = path("inmem.ckpt");
  sim.save_checkpoint(ckpt);

  auto resume = spill_config(path("resume.bin"), 10, 2, 4, true);
  auto restored =
      core::CompressedStateSimulator::load_checkpoint(ckpt, resume);
  EXPECT_GT(restored.report().spilled_bytes, 0u)
      << "the 1-byte budget must re-tier the restored state";
  CQS_EXPECT_STATES_CLOSE(restored.to_raw(), expected, 0.0);
}

TEST_F(SpillCheckpointTest, SavingDoesNotCountAsFaults) {
  // Checkpoint serialization reads spilled blocks through the raw
  // (non-accounting) view: a save must not inflate the fault count or
  // consume pending readahead hits.
  const auto circuit = random_circuit(10, 40, 17);
  auto config = spill_config(path("spill.bin"), 10, 2, 2, true);
  core::CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  const auto before = sim.report();
  ASSERT_GT(before.spilled_bytes, 0u);
  sim.save_checkpoint(path("telemetry.ckpt"));
  const auto after = sim.report();
  EXPECT_EQ(after.fault_events, before.fault_events);
  EXPECT_EQ(after.readahead_hits, before.readahead_hits);
}

TEST_F(SpillCheckpointTest, ResumedSpilledRunFinishesIdentically) {
  // Checkpoint mid-circuit on the spill tier, resume out-of-core, finish;
  // compare against the identically split in-memory run (the same cut, so
  // fusion/batching group boundaries match and tolerance 0 is exact).
  const auto circuit = random_circuit(10, 80, 91);
  qsim::Circuit first_half(10);
  for (std::size_t i = 0; i < 40; ++i) first_half.append(circuit.ops()[i]);

  auto reference_config = spill_config("", 10, 2, 2, true);
  core::CompressedStateSimulator reference(reference_config);
  reference.apply_circuit(first_half);
  reference.resume_circuit(circuit);

  auto config = spill_config(path("spill.bin"), 10, 2, 2, true);
  core::CompressedStateSimulator sim(config);
  sim.apply_circuit(first_half);
  const std::string ckpt = path("mid.ckpt");
  sim.save_checkpoint(ckpt);

  auto resume_config = spill_config(path("resume.bin"), 10, 2, 2, true);
  auto restored =
      core::CompressedStateSimulator::load_checkpoint(ckpt, resume_config);
  restored.resume_circuit(circuit);
  CQS_EXPECT_STATES_CLOSE(restored.to_raw(), reference.to_raw(), 0.0);
}

using SpillConcurrencyTest = test::TempDirFixture;

TEST_F(SpillConcurrencyTest, BitIdenticalAndCountsStableAcrossThreads) {
  // Streaming spill decides what to spill from the mutation set alone and
  // the write-behind scan runs on the main thread, so with the block
  // cache off (whose hit/miss split is timing-dependent) the spill and
  // fault counts — not just the state — must agree across worker counts.
  const auto circuit = random_circuit(10, 60, 21);
  std::vector<double> reference;
  std::uint64_t reference_spills = 0;
  std::uint64_t reference_faults = 0;
  for (const int threads : {1, 2, 8}) {
    auto config = spill_config(path("spill.bin"), 10, 2, threads, true);
    config.enable_cache = false;
    core::CompressedStateSimulator sim(config);
    sim.apply_circuit(circuit);
    const auto report = sim.report();
    const auto raw = sim.to_raw();
    if (reference.empty()) {
      reference = raw;
      reference_spills = report.spill_events;
      reference_faults = report.fault_events;
      EXPECT_GT(reference_spills, 0u);
    } else {
      CQS_EXPECT_STATES_CLOSE(raw, reference, 0.0);
      EXPECT_EQ(report.spill_events, reference_spills)
          << "threads " << threads;
      EXPECT_EQ(report.fault_events, reference_faults)
          << "threads " << threads;
    }
  }
}

}  // namespace
}  // namespace cqs
