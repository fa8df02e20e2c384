// Read summaries: sample(), probability_one() and norm() read per-block
// sums that are taken once after a block is written, instead of decoding
// the whole state on every call. These tests pin the summed values
// bit-for-bit (==) against an independent decode-and-sum reference, after
// every kind of state change, and check that a read phase decodes each
// block once.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "circuits/grover.hpp"
#include "circuits/qft.hpp"
#include "common/rng.hpp"
#include "core/memory_model.hpp"
#include "core/simulator.hpp"
#include "qsim/circuit.hpp"
#include "runtime/block_store.hpp"
#include "runtime/spill_file.hpp"
#include "test_util.hpp"

namespace cqs::core {
namespace {

using Amp = std::complex<double>;

constexpr int kQubits = 11;
constexpr int kSamples = 8;

SimConfig base_config(int ranks, int blocks, int threads) {
  SimConfig config;
  config.num_qubits = kQubits;
  config.num_ranks = ranks;
  config.blocks_per_rank = blocks;
  config.threads = threads;
  return config;
}

/// The decoded state in physical order, i.e. block by block as the stores
/// hold it.
std::vector<Amp> physical_amplitudes(CompressedStateSimulator& sim) {
  const std::vector<double> raw = sim.to_raw();  // logical order
  const auto& map = sim.qubit_map();
  std::vector<Amp> phys(raw.size() / 2);
  for (std::uint64_t p = 0; p < phys.size(); ++p) {
    const std::uint64_t l = map.is_identity() ? p : map.to_logical_index(p);
    phys[p] = Amp(raw[2 * l], raw[2 * l + 1]);
  }
  return phys;
}

/// The decode-and-sum sweeps the summaries replace, at one worker: a sum
/// per block in ascending offset order, added up in global block order.
struct Reference {
  std::vector<Amp> phys;
  std::uint64_t per_block = 0;

  Reference(CompressedStateSimulator& sim, const SimConfig& config)
      : phys(physical_amplitudes(sim)),
        per_block(phys.size() / (static_cast<std::uint64_t>(
                                     config.num_ranks) *
                                 config.blocks_per_rank)) {}

  /// Mass of the physical indices with bit `bit` set (every bit when -1).
  double mass(int bit) const {
    double total = 0.0;
    for (std::uint64_t base = 0; base < phys.size(); base += per_block) {
      double sum = 0.0;
      for (std::uint64_t k = 0; k < per_block; ++k) {
        if (bit < 0 || (((base + k) >> bit) & 1) != 0) {
          sum += std::norm(phys[base + k]);
        }
      }
      total += sum;
    }
    return total;
  }

  std::uint64_t sample(Rng& rng, const runtime::QubitMap& map) const {
    const std::uint64_t blocks = phys.size() / per_block;
    std::vector<double> masses(blocks, 0.0);
    double total = 0.0;
    for (std::uint64_t g = 0; g < blocks; ++g) {
      for (std::uint64_t k = 0; k < per_block; ++k) {
        masses[g] += std::norm(phys[g * per_block + k]);
      }
      total += masses[g];
    }
    double r = rng.next_double() * total;
    std::uint64_t chosen = blocks - 1;
    for (std::uint64_t g = 0; g < blocks; ++g) {
      r -= masses[g];
      if (r <= 0.0) {
        chosen = g;
        break;
      }
    }
    double r2 = rng.next_double() * masses[chosen];
    std::uint64_t offset = per_block - 1;
    for (std::uint64_t k = 0; k < per_block; ++k) {
      r2 -= std::norm(phys[chosen * per_block + k]);
      if (r2 <= 0.0) {
        offset = k;
        break;
      }
    }
    const std::uint64_t physical = chosen * per_block + offset;
    return map.is_identity() ? physical : map.to_logical_index(physical);
  }
};

/// Every summary-served read equals the reference exactly: the norm,
/// probability_one for every qubit (hence every segment) and a stream of
/// samples.
void expect_reads_match(CompressedStateSimulator& sim,
                        const SimConfig& config, const std::string& where) {
  const Reference ref(sim, config);
  EXPECT_EQ(sim.norm(), ref.mass(-1)) << where;
  for (int q = 0; q < config.num_qubits; ++q) {
    EXPECT_EQ(sim.probability_one(q), ref.mass(sim.qubit_map().physical(q)))
        << where << ", qubit " << q;
  }
  Rng rng(99);
  Rng ref_rng(99);
  for (int shot = 0; shot < kSamples; ++shot) {
    EXPECT_EQ(sim.sample(rng), ref.sample(ref_rng, sim.qubit_map()))
        << where << ", shot " << shot;
  }
}

qsim::Circuit mixed_circuit() { return test::random_circuit(kQubits, 80, 5); }

TEST(ReadSummaryTest, ReadsEqualDecodeAndSumInEveryLayout) {
  struct Layout {
    const char* name;
    int ranks;
    int blocks;
    bool remap;
  };
  for (const Layout layout : {Layout{"identity, 1 rank", 1, 8, false},
                              Layout{"identity, 4 ranks", 4, 4, false},
                              Layout{"remapped, 4 ranks", 4, 4, true}}) {
    SimConfig config = base_config(layout.ranks, layout.blocks, 4);
    config.enable_qubit_remap = layout.remap;
    if (layout.remap) config.remap_policy = "lru";
    CompressedStateSimulator sim(config);
    sim.apply_circuit(layout.remap
                          ? circuits::qft_circuit({.num_qubits = kQubits})
                          : mixed_circuit());
    EXPECT_EQ(sim.qubit_map().is_identity(), !layout.remap) << layout.name;
    expect_reads_match(sim, config, layout.name);
    // A second pass is served entirely from the summaries just taken.
    expect_reads_match(sim, config, std::string(layout.name) + ", again");
  }
}

TEST(ReadSummaryTest, SparseGroverStateReadsExactly) {
  // Most blocks are all zero: their summaries are exact zeros, and the
  // expectation sweep may skip them without changing its value.
  const int data = 7;
  SimConfig config = base_config(2, 8, 4);
  config.num_qubits = circuits::grover_total_qubits(data);
  CompressedStateSimulator sim(config);
  sim.apply_circuit(circuits::grover_circuit(
      {.data_qubits = data, .marked_state = 77, .iterations = 4}));
  const Reference ref(sim, config);
  std::uint64_t zero_blocks = 0;
  for (std::uint64_t base = 0; base < ref.phys.size(); base += ref.per_block) {
    bool zero = true;
    for (std::uint64_t k = 0; k < ref.per_block; ++k) {
      zero = zero && ref.phys[base + k] == Amp(0.0, 0.0);
    }
    zero_blocks += zero ? 1 : 0;
  }
  ASSERT_GT(zero_blocks, 0u);
  const double swept = sim.expectation_pauli_z(0b101);  // no summaries yet
  expect_reads_match(sim, config, "grover");
  EXPECT_EQ(sim.expectation_pauli_z(0b101), swept);
}

TEST(ReadSummaryTest, ReadPhaseDecodesEachBlockOnce) {
  const SimConfig config = base_config(2, 8, 4);
  CompressedStateSimulator sim(config);
  sim.apply_circuit(mixed_circuit());
  const std::uint64_t before = sim.report().decompress_invocations;
  Rng rng(3);
  for (int shot = 0; shot < kSamples; ++shot) sim.sample(rng);
  for (int q = 0; q < config.num_qubits; ++q) sim.probability_one(q);
  sim.norm();
  const std::uint64_t blocks =
      static_cast<std::uint64_t>(config.num_ranks) * config.blocks_per_rank;
  // One decode per block for the summaries, plus the block each sample
  // picks its offset in.
  EXPECT_EQ(sim.report().decompress_invocations - before,
            blocks + kSamples);
}

TEST(ReadSummaryTest, ReadsFollowEveryStateChange) {
  SimConfig config = base_config(2, 8, 4);
  CompressedStateSimulator sim(config);
  expect_reads_match(sim, config, "initial state");
  sim.apply_circuit(mixed_circuit());
  expect_reads_match(sim, config, "after apply_circuit");
  sim.apply({qsim::GateKind::kH, 2});  // offset segment
  expect_reads_match(sim, config, "after apply (offset target)");
  sim.apply({qsim::GateKind::kH, 9});  // block segment
  expect_reads_match(sim, config, "after apply (block target)");
  Rng rng(8);
  sim.measure(4, rng);
  expect_reads_match(sim, config, "after measure");
  sim.measure(10, rng);  // rank segment
  expect_reads_match(sim, config, "after measure (rank qubit)");
}

TEST(ReadSummaryTest, ReadsFollowBudgetEscalation) {
  SimConfig config = base_config(2, 8, 4);
  config.codec = "qzc";
  config.memory_budget_bytes = 4 << 10;  // the lossless state does not fit
  CompressedStateSimulator sim(config);
  expect_reads_match(sim, config, "initial state");
  sim.apply_circuit(mixed_circuit());
  ASSERT_GT(sim.ladder_level(), 0) << "budget must force escalation";
  expect_reads_match(sim, config, "after recompress_all");
}

TEST(ReadSummaryTest, ReadsFollowRemapSweeps) {
  SimConfig config = base_config(4, 4, 4);
  config.enable_qubit_remap = true;
  config.remap_policy = "lru";
  CompressedStateSimulator sim(config);
  sim.apply_circuit(mixed_circuit());
  expect_reads_match(sim, config, "before the remapped circuit");
  const std::uint64_t sweeps = sim.report().remap_sweeps;
  sim.apply_circuit(circuits::qft_circuit({.num_qubits = kQubits}));
  ASSERT_GT(sim.report().remap_sweeps, sweeps);
  expect_reads_match(sim, config, "after apply_remap");
}

using ReadSummaryFileTest = test::TempDirFixture;

TEST_F(ReadSummaryFileTest, LoadedCheckpointReadsTheSavedState) {
  const SimConfig config = base_config(2, 8, 4);
  CompressedStateSimulator saved(config);
  saved.apply_circuit(mixed_circuit());
  const double norm = saved.norm();  // summaries exist, but are not saved
  const std::string file = path("state.ckpt");
  saved.save_checkpoint(file);
  CompressedStateSimulator loaded =
      CompressedStateSimulator::load_checkpoint(file, config);
  expect_reads_match(loaded, config, "after load_checkpoint");
  EXPECT_EQ(loaded.norm(), norm);
}

TEST_F(ReadSummaryFileTest, SpilledRunReadsWithoutFaulting) {
  SimConfig config = base_config(2, 8, 4);
  config.spill_path = path("spill.bin");
  config.resident_budget_bytes =
      memory_required_bytes(config.num_qubits) / 100;
  CompressedStateSimulator sim(config);
  sim.apply_circuit(mixed_circuit());
  ASSERT_GT(sim.report().spill_events, 0u);
  expect_reads_match(sim, config, "spilled state");
  // Summaries survive tier moves, so these reads touch no payload.
  const std::uint64_t faults = sim.report().fault_events;
  sim.norm();
  for (int q = 0; q < config.num_qubits; ++q) sim.probability_one(q);
  EXPECT_EQ(sim.report().fault_events, faults);
}

TEST_F(ReadSummaryFileTest, BlockStoreSummaryLifetime) {
  runtime::SpillFile spill(path("store.spill"));
  runtime::TierStats stats;
  runtime::BlockStore store(2);
  store.attach(&stats, &spill);
  store.set_block(0, Bytes(64, std::byte{1}), {});
  EXPECT_TRUE(store.summary(0).empty());
  const std::vector<double> values{1.0, 0.25, 0.5};
  store.set_summary(0, values);
  store.spill_block(0);
  ASSERT_TRUE(store.is_spilled(0));
  EXPECT_EQ(std::vector<double>(store.summary(0).begin(),
                                store.summary(0).end()),
            values);
  store.set_block(0, Bytes(64, std::byte{2}), {});
  EXPECT_TRUE(store.summary(0).empty());
}

TEST(ReadSummaryConcurrencyTest, ReadsBitIdenticalAcrossThreadCounts) {
  // Workers write the summaries of distinct blocks inside one
  // parallel_for; the totals are summed in block order afterwards, so no
  // read depends on the thread count.
  std::vector<double> reference;
  for (const int threads : {1, 2, 4}) {
    const SimConfig config = base_config(2, 8, threads);
    CompressedStateSimulator sim(config);
    sim.apply_circuit(mixed_circuit());
    std::vector<double> values;
    for (int q = 0; q < config.num_qubits; ++q) {
      values.push_back(sim.probability_one(q));
    }
    values.push_back(sim.norm());
    Rng rng(21);
    for (int shot = 0; shot < kSamples; ++shot) {
      values.push_back(static_cast<double>(sim.sample(rng)));
    }
    if (reference.empty()) {
      reference = values;
    } else {
      EXPECT_EQ(values, reference) << "threads " << threads;
    }
  }
}

}  // namespace
}  // namespace cqs::core
