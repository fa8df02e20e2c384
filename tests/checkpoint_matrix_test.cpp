// Checkpoint cross-version matrix: files written in formats v1, v2, and
// the current v3 must all resume into a correct simulation. v3
// additionally round-trips per-block codec ids (mixed adaptive codecs)
// and the accumulated lossy-pass count.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "circuits/grover.hpp"
#include "circuits/qft.hpp"
#include "common/bytes.hpp"
#include "compression/compressor.hpp"
#include "core/simulator.hpp"
#include "qsim/state_vector.hpp"
#include "runtime/checkpoint.hpp"
#include "test_util.hpp"

namespace cqs {
namespace {

using core::CompressedStateSimulator;
using core::SimConfig;

SimConfig matrix_config(int qubits, const std::string& policy = "fixed") {
  SimConfig config;
  config.num_qubits = qubits;
  config.num_ranks = 2;
  config.blocks_per_rank = 2;
  config.codec_policy = policy;
  return config;
}

/// Partition under which an adaptive lossy Grover-10 run is known to leave
/// a mixed store: the block holding the data subspace is dense-with-noise
/// (lossy) while the ancilla blocks stay lossless.
SimConfig mixed_config(int qubits) {
  SimConfig config;
  config.num_qubits = qubits;
  config.num_ranks = 2;
  config.blocks_per_rank = 4;
  config.codec_policy = "adaptive";
  config.initial_level = 1;
  return config;
}

/// Writes a legacy (v1, v2, or v3) checkpoint holding a REAL simulator
/// state: `raw` chopped into 2 ranks x 2 blocks, each block zx-compressed
/// at level 0 — exactly what the old writers produced for a lossless run
/// whose `gates_done` gates of a circuit had been applied. v3 adds the
/// per-block codec byte; none of them carry a qubit map. For corruption
/// tests, `qubit_map_override` injects an arbitrary map table into a v4
/// file (empty = omit the map section entirely, i.e. stay legacy).
void write_legacy_checkpoint(const std::string& path, int version,
                             const std::vector<double>& raw, int num_qubits,
                             std::uint64_t gates_done,
                             std::uint64_t lossy_passes,
                             const std::vector<int>& qubit_map_override = {},
                             std::uint8_t block_codec_id = 0) {
  Bytes buffer;
  const char magic[8] = {'C', 'Q', 'S', 'C', 'K', 'P', 'T',
                         static_cast<char>('0' + version)};
  buffer.insert(buffer.end(), reinterpret_cast<const std::byte*>(magic),
                reinterpret_cast<const std::byte*>(magic) + 8);
  put_varint(buffer, static_cast<std::uint64_t>(num_qubits));
  put_varint(buffer, 2);  // num_ranks
  put_varint(buffer, 2);  // blocks_per_rank
  put_varint(buffer, 0);  // ladder_level: lossless
  put_varint(buffer, gates_done);
  put_scalar(buffer, 1.0);  // fidelity bound
  if (version >= 2) put_varint(buffer, lossy_passes);
  const std::string codec_name = "qzc";
  put_varint(buffer, codec_name.size());
  for (char ch : codec_name) buffer.push_back(static_cast<std::byte>(ch));
  if (version >= 4) {
    put_varint(buffer, qubit_map_override.size());
    for (int p : qubit_map_override) {
      put_varint(buffer, static_cast<std::uint64_t>(p));
    }
  }

  const auto codec = compression::make_compressor("zstd");
  const std::size_t doubles_per_block = raw.size() / 4;
  put_varint(buffer, 2);  // rank count
  for (int r = 0; r < 2; ++r) {
    put_varint(buffer, 2);  // blocks in rank
    for (int b = 0; b < 2; ++b) {
      const std::size_t base = (r * 2 + b) * doubles_per_block;
      const Bytes payload = codec->compress(
          std::span<const double>(raw.data() + base, doubles_per_block),
          compression::ErrorBound::lossless());
      buffer.push_back(std::byte{0});  // meta level (no codec byte pre-v3)
      if (version >= 3) {
        buffer.push_back(static_cast<std::byte>(block_codec_id));
      }
      if (version >= 5) {
        buffer.push_back(std::byte{0});  // tier: resident
      }
      put_varint(buffer, payload.size());
      buffer.insert(buffer.end(), payload.begin(), payload.end());
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size()));
}

using CheckpointMatrixTest = test::TempDirFixture;

TEST_F(CheckpointMatrixTest, LegacyV1V2V3FilesResumeWithIdentityMaps) {
  const auto circuit =
      circuits::qft_circuit({.num_qubits = 8, .random_input = false});

  // Uninterrupted reference run.
  CompressedStateSimulator full(matrix_config(8));
  full.apply_circuit(circuit);
  const auto reference = full.to_raw();

  // The state after the first half, from a real (lossless) run.
  const std::uint64_t half = circuit.size() / 2;
  CompressedStateSimulator first(matrix_config(8));
  qsim::Circuit head(8);
  for (std::uint64_t i = 0; i < half; ++i) {
    head.append(circuit.ops()[i]);
  }
  first.apply_circuit(head);
  const auto half_state = first.to_raw();

  for (int version : {1, 2, 3}) {
    const std::string path =
        this->path("legacy_v" + std::to_string(version) + ".bin");
    write_legacy_checkpoint(path, version, half_state, 8, half,
                            /*lossy_passes=*/0);
    // Pre-v4 files carry no qubit map: the loader must derive identity.
    EXPECT_TRUE(runtime::load_checkpoint(path).first.qubit_map.empty())
        << "v" << version;
    auto resumed =
        CompressedStateSimulator::load_checkpoint(path, matrix_config(8));
    EXPECT_TRUE(resumed.qubit_map().is_identity()) << "v" << version;
    EXPECT_EQ(resumed.gate_cursor(), half) << "v" << version;
    resumed.resume_circuit(circuit);
    EXPECT_NEAR(qsim::state_fidelity(resumed.to_raw(), reference), 1.0,
                1e-10)
        << "v" << version;
    CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), reference, 1e-12);
  }
}

TEST_F(CheckpointMatrixTest, V2PassCountSurvivesWhereV1Reconstructs) {
  const std::vector<double> raw(1 << 9, 0.0);  // 8 qubits of zeros

  const std::string v2 = this->path("passes_v2.bin");
  write_legacy_checkpoint(v2, 2, raw, 8, 0, /*lossy_passes=*/17);
  EXPECT_EQ(runtime::load_checkpoint(v2).first.lossy_passes, 17u);

  // v1 has no pass field: a bound of 1.0 reconstructs zero passes.
  const std::string v1 = this->path("passes_v1.bin");
  write_legacy_checkpoint(v1, 1, raw, 8, 0, /*lossy_passes=*/99);
  EXPECT_EQ(runtime::load_checkpoint(v1).first.lossy_passes, 0u);
}

TEST_F(CheckpointMatrixTest, V3RoundTripsMixedPerBlockCodecsAndPasses) {
  // An adaptive lossy Grover run leaves a genuinely mixed store: the
  // occupied block goes through qzc while the ancilla blocks stay on the
  // lossless path. Save (v3) must persist each block's codec id and the
  // pass count; load must resume both exactly.
  const auto circuit = circuits::grover_circuit(
      {.data_qubits = 6, .marked_state = 0b101101, .iterations = 2});
  SimConfig config = mixed_config(circuit.num_qubits());
  CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  const auto report = sim.report();
  ASSERT_GT(report.final_lossless_blocks, 0u);
  ASSERT_GT(report.final_lossy_blocks, 0u) << "state not mixed; the "
      "fixture circuit no longer exercises mixed codecs";

  const std::string path = this->path("mixed_v3.bin");
  sim.save_checkpoint(path);

  // Raw reload: per-block codec ids survive byte-for-byte.
  const auto [header, stores] = runtime::load_checkpoint(path);
  EXPECT_EQ(header.lossy_passes, report.lossy_passes);
  std::uint64_t lossless_blocks = 0;
  std::uint64_t lossy_blocks = 0;
  for (const auto& store : stores) {
    for (int b = 0; b < store.num_blocks(); ++b) {
      if (store.meta(b).codec == compression::kLosslessCodecId) {
        ++lossless_blocks;
      } else {
        EXPECT_EQ(store.meta(b).codec, compression::codec_id("qzc"));
        ++lossy_blocks;
      }
    }
  }
  EXPECT_EQ(lossless_blocks, report.final_lossless_blocks);
  EXPECT_EQ(lossy_blocks, report.final_lossy_blocks);

  // Simulator reload: the mixed store decompresses per-block and the
  // fidelity ledger continues from the saved passes, not from scratch.
  auto resumed = CompressedStateSimulator::load_checkpoint(
      path, mixed_config(circuit.num_qubits()));
  CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), sim.to_raw(), 0.0);
  const auto resumed_report = resumed.report();
  EXPECT_EQ(resumed_report.lossy_passes, report.lossy_passes);
  EXPECT_DOUBLE_EQ(resumed_report.fidelity_bound, report.fidelity_bound);
  EXPECT_EQ(resumed_report.final_lossless_blocks,
            report.final_lossless_blocks);
}

TEST_F(CheckpointMatrixTest, SplitAdaptiveRunMatchesUninterruptedRun) {
  // Save mid-circuit under the adaptive policy, resume, and compare with
  // the uninterrupted run: cursor, codec mix, and state must all agree
  // bit-exactly (same codec decisions on both paths — the arbiter's
  // hysteresis is restored from the per-block codec ids).
  const auto circuit = circuits::grover_circuit(
      {.data_qubits = 6, .marked_state = 0b110011, .iterations = 2});
  SimConfig config = mixed_config(circuit.num_qubits());
  // Per-gate runs (one gate per run, no fusion): batched runs may not
  // span the save point, so the batched split run would legitimately
  // recompress at different points than the uninterrupted one; gate-by-
  // gate the two are bit-comparable.
  config.max_run_length = 1;
  config.enable_fusion_prepass = false;

  CompressedStateSimulator full{config};
  full.apply_circuit(circuit);

  CompressedStateSimulator first{config};
  qsim::Circuit head(circuit.num_qubits());
  const std::uint64_t half = circuit.size() / 2;
  for (std::uint64_t i = 0; i < half; ++i) {
    head.append(circuit.ops()[i]);
  }
  first.apply_circuit(head);
  const std::string path = this->path("split_adaptive.bin");
  first.save_checkpoint(path);

  auto resumed = CompressedStateSimulator::load_checkpoint(path, config);
  EXPECT_EQ(resumed.gate_cursor(), half);
  resumed.resume_circuit(circuit);
  CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), full.to_raw(), 0.0);
  EXPECT_EQ(resumed.report().final_lossy_blocks,
            full.report().final_lossy_blocks);
}

TEST_F(CheckpointMatrixTest, V4RoundTripsMixedQubitMap) {
  // A remapped QFT run ends with a non-identity layout (relabeled
  // reversal swaps). v4 must persist the map byte-exactly, and the
  // reloaded simulator must answer every logical-index query as if the
  // run had never been interrupted.
  const auto circuit = circuits::qft_circuit({.num_qubits = 8});
  SimConfig config = matrix_config(8);
  config.enable_qubit_remap = true;
  CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  ASSERT_FALSE(sim.qubit_map().is_identity())
      << "fixture circuit no longer leaves a remapped layout";

  const std::string path = this->path("mixed_map_v4.bin");
  sim.save_checkpoint(path);

  // Raw reload: the serialized map round-trips.
  const auto [header, stores] = runtime::load_checkpoint(path);
  EXPECT_EQ(header.qubit_map, sim.qubit_map());

  // Simulator reload: same layout, same logical state, and the restored
  // map keeps translating (a further remapped circuit still agrees with
  // an uninterrupted remap-off run).
  auto resumed = CompressedStateSimulator::load_checkpoint(path, config);
  EXPECT_EQ(resumed.qubit_map(), sim.qubit_map());
  CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), sim.to_raw(), 0.0);
}

TEST_F(CheckpointMatrixTest, V4MapHonoredEvenWithRemapDisabledOnResume) {
  // Resuming a remapped checkpoint with enable_qubit_remap=false must
  // still translate gates through the persisted layout — the blocks are
  // physically permuted whether or not new remaps are allowed.
  const auto circuit = circuits::qft_circuit({.num_qubits = 8});
  SimConfig remap_config = matrix_config(8);
  remap_config.enable_qubit_remap = true;

  CompressedStateSimulator first(remap_config);
  qsim::Circuit head(8);
  const std::uint64_t half = circuit.size() / 2;
  for (std::uint64_t i = 0; i < half; ++i) head.append(circuit.ops()[i]);
  first.apply_circuit(head);
  const std::string path = this->path("map_remap_off_resume.bin");
  first.save_checkpoint(path);

  auto resumed =
      CompressedStateSimulator::load_checkpoint(path, matrix_config(8));
  resumed.resume_circuit(circuit);

  CompressedStateSimulator reference(matrix_config(8));
  reference.apply_circuit(circuit);
  CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), reference.to_raw(), 0.0);
}

TEST_F(CheckpointMatrixTest, SplitRemappedRunMatchesUninterruptedRun) {
  // Save mid-circuit with remapping on, resume, and compare with the
  // uninterrupted remapped run: the final logical state must agree
  // bit-exactly. (The resumed planner only sees the remaining suffix, so
  // its layout choices may differ from the uninterrupted plan's — the
  // logical state must not.)
  const auto circuit = circuits::qft_circuit({.num_qubits = 8});
  SimConfig config = matrix_config(8);
  config.enable_qubit_remap = true;
  // Per-gate runs, as in SplitAdaptiveRunMatchesUninterruptedRun: batched
  // runs may not span the save point.
  config.max_run_length = 1;
  config.enable_fusion_prepass = false;

  CompressedStateSimulator full{config};
  full.apply_circuit(circuit);

  for (const std::uint64_t cut : {circuit.size() / 3, circuit.size() / 2,
                                  circuit.size() - 2}) {
    CompressedStateSimulator first{config};
    qsim::Circuit head(8);
    for (std::uint64_t i = 0; i < cut; ++i) {
      head.append(circuit.ops()[i]);
    }
    first.apply_circuit(head);
    const std::string path =
        this->path("split_remap_" + std::to_string(cut) + ".bin");
    first.save_checkpoint(path);

    auto resumed = CompressedStateSimulator::load_checkpoint(path, config);
    EXPECT_EQ(resumed.gate_cursor(), cut);
    resumed.resume_circuit(circuit);
    EXPECT_EQ(resumed.gate_cursor(), circuit.size());
    CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), full.to_raw(), 0.0)
        << "cut at " << cut;
  }
}

TEST_F(CheckpointMatrixTest, V4RejectsCorruptQubitMaps) {
  const std::vector<double> raw(1 << 9, 0.0);  // 8 qubits of zeros

  // Non-permutation tables must fail at load, before any decompression.
  const std::string dup = this->path("map_dup.bin");
  write_legacy_checkpoint(dup, 4, raw, 8, 0, 0,
                          {0, 1, 2, 3, 4, 5, 6, 6});
  EXPECT_THROW(runtime::load_checkpoint(dup), std::runtime_error);

  const std::string oob = this->path("map_oob.bin");
  write_legacy_checkpoint(oob, 4, raw, 8, 0, 0,
                          {0, 1, 2, 3, 4, 5, 6, 63});
  EXPECT_THROW(runtime::load_checkpoint(oob), std::runtime_error);

  // A valid permutation of the wrong width fails at simulator load: the
  // map must cover exactly the checkpoint's qubits.
  const std::string narrow = this->path("map_narrow.bin");
  write_legacy_checkpoint(narrow, 4, raw, 8, 0, 0, {3, 2, 1, 0});
  EXPECT_NO_THROW(runtime::load_checkpoint(narrow));
  EXPECT_THROW(
      CompressedStateSimulator::load_checkpoint(narrow, matrix_config(8)),
      std::invalid_argument);

  // A correct-width permutation loads fine (control case).
  const std::string good = this->path("map_good.bin");
  write_legacy_checkpoint(good, 4, raw, 8, 0, 0,
                          {7, 6, 5, 4, 3, 2, 1, 0});
  auto sim = CompressedStateSimulator::load_checkpoint(good,
                                                       matrix_config(8));
  EXPECT_EQ(sim.qubit_map().physical(0), 7);
}

TEST_F(CheckpointMatrixTest, V3RejectsForeignCodecIdAtLoad) {
  // A v3 block claiming a codec the resume config doesn't hold must fail
  // loudly at load (decompression runs on worker threads, which cannot
  // surface the error), not silently misdecode.
  const auto circuit = circuits::grover_circuit(
      {.data_qubits = 6, .marked_state = 0b001101, .iterations = 2});
  CompressedStateSimulator sim(mixed_config(circuit.num_qubits()));
  sim.apply_circuit(circuit);
  ASSERT_GT(sim.report().final_lossy_blocks, 0u);
  const std::string path = this->path("foreign.bin");
  sim.save_checkpoint(path);

  // Pretend the file came from an sz run: the qzc-compressed payloads
  // keep their codec id 'qzc', which an sz simulator cannot decode.
  auto [header, stores] = runtime::load_checkpoint(path);
  header.codec_name = "sz";
  const std::string rewritten = this->path("foreign_sz.bin");
  runtime::save_checkpoint(rewritten, header, stores);

  EXPECT_THROW(CompressedStateSimulator::load_checkpoint(
                   rewritten, mixed_config(circuit.num_qubits())),
               std::invalid_argument);
}

TEST_F(CheckpointMatrixTest, KilledMidSaveLeavesOldCheckpointIntact) {
  // The save writes <path>.tmp, fsyncs, then renames. Dying mid-image
  // (injected after a byte budget) must throw, leave no temporary behind,
  // and — crucially — leave the previous checkpoint loadable.
  const auto circuit = circuits::qft_circuit({.num_qubits = 8});
  CompressedStateSimulator sim(matrix_config(8));
  sim.apply_circuit(circuit);
  const auto expected = sim.to_raw();

  const std::string path = this->path("durable.bin");
  sim.save_checkpoint(path);
  const auto good_size = std::filesystem::file_size(path);

  // Evolve the state so the interrupted second save would have written a
  // genuinely different image.
  qsim::Circuit more(8);
  more.h(3).cx(3, 5).t(0);
  sim.apply_circuit(more);

  runtime::testing::set_checkpoint_write_limit(good_size / 2);
  EXPECT_THROW(sim.save_checkpoint(path), std::exception);
  runtime::testing::set_checkpoint_write_limit(
      std::numeric_limits<std::uint64_t>::max());

  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "failed save must clean up its temporary";
  EXPECT_EQ(std::filesystem::file_size(path), good_size);
  auto restored =
      CompressedStateSimulator::load_checkpoint(path, matrix_config(8));
  CQS_EXPECT_STATES_CLOSE(restored.to_raw(), expected, 0.0);

  // With the limit lifted the interrupted save succeeds as-is.
  sim.save_checkpoint(path);
  auto latest =
      CompressedStateSimulator::load_checkpoint(path, matrix_config(8));
  CQS_EXPECT_STATES_CLOSE(latest.to_raw(), sim.to_raw(), 0.0);
}

/// First 8 bytes of the file — the format magic.
std::string read_magic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {};
  in.read(magic, 8);
  return std::string(magic, 8);
}

TEST_F(CheckpointMatrixTest, PreV6ImagesRejectPostV5CodecIds) {
  // A v<=5 image predates every codec id past fpzip (6): a block claiming
  // "zfp-rans" (7) is corruption and must be rejected cleanly, not routed
  // into a codec the image's vintage could never have produced.
  const std::vector<double> raw(1 << 9, 0.0);  // 8 qubits of zeros
  const std::uint8_t rans_id = compression::codec_id("zfp-rans");
  for (int version : {3, 4, 5}) {
    const std::string path =
        this->path("rans_id_v" + std::to_string(version) + ".bin");
    write_legacy_checkpoint(path, version, raw, 8, 0, 0, {}, rans_id);
    try {
      runtime::load_checkpoint(path);
      FAIL() << "v" << version << " image with codec id "
             << int(rans_id) << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("codec id"), std::string::npos)
          << "v" << version << " actual message: " << e.what();
    }
  }
}

TEST_F(CheckpointMatrixTest, ZfpRansStatesSaveAsV6AndRoundTrip) {
  const auto circuit =
      circuits::qft_circuit({.num_qubits = 8, .random_input = true});

  // A lossy zfp state still fits the v5 registry: the save must keep the
  // v5 magic byte-for-byte so older readers stay compatible.
  SimConfig zfp_config = matrix_config(8);
  zfp_config.codec = "zfp";
  zfp_config.initial_level = 1;
  CompressedStateSimulator zfp_sim(zfp_config);
  zfp_sim.apply_circuit(circuit);
  const std::string zfp_path = this->path("zfp_v5.bin");
  zfp_sim.save_checkpoint(zfp_path);
  EXPECT_EQ(read_magic(zfp_path), "CQSCKPT5");

  // The same run under zfp-rans stores codec id 7 somewhere, which must
  // flip the image to v6 — and the v6 loader must resume it exactly.
  SimConfig rans_config = matrix_config(8);
  rans_config.codec = "zfp-rans";
  rans_config.initial_level = 1;
  CompressedStateSimulator sim(rans_config);
  sim.apply_circuit(circuit);
  const auto report = sim.report();
  ASSERT_GT(report.final_lossy_blocks, 0u)
      << "fixture run produced no zfp-rans block; v6 never exercised";
  const std::string path = this->path("rans_v6.bin");
  sim.save_checkpoint(path);
  EXPECT_EQ(read_magic(path), "CQSCKPT6");

  auto resumed =
      CompressedStateSimulator::load_checkpoint(path, rans_config);
  CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), sim.to_raw(), 0.0);
  EXPECT_EQ(resumed.report().lossy_passes, report.lossy_passes);
}

}  // namespace
}  // namespace cqs
