#include "layers.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <vector>

#include "common/rng.hpp"
#include "compression/compressor.hpp"
#include "lossless/lz77.hpp"
#include "lossless/zx.hpp"
#include "qsim/fusion.hpp"
#include "qsim/gates.hpp"
#include "qsim/scheduler.hpp"
#include "qsim/state_vector.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace qsim = cqs::qsim;

namespace {

constexpr int kScheduleRepeats = 5;
constexpr double kKernelSeconds = 0.1;  ///< per kernel
constexpr int kReplayRounds = 3;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double megabytes(std::size_t bytes) { return static_cast<double>(bytes) / 1e6; }

cqs::ByteSpan as_bytes(std::span<const double> data) {
  return std::as_bytes(data);
}

}  // namespace

ScheduleProbe probe_schedule(const qsim::Circuit& circuit,
                             const cqs::core::SimConfig& config,
                             Tracer& tracer) {
  ScheduleProbe probe;
  qsim::SchedulerOptions options;
  options.intra_qubits =
      config.num_qubits - std::countr_zero(static_cast<unsigned>(
                              config.num_ranks * config.blocks_per_rank));
  // The simulator caps runs at 16 ops when a memory budget is set.
  options.max_run_length =
      config.max_run_length == 0 && config.memory_budget_bytes > 0
          ? 16
          : config.max_run_length;
  options.fuse = false;  // fusion is timed on its own below

  std::vector<double> fusion_times;
  std::vector<double> schedule_times;
  for (int r = 0; r < kScheduleRepeats; ++r) {
    std::vector<std::size_t> origin;
    auto fuse_span = tracer.span("qsim.fusion");
    const qsim::Circuit fused =
        config.enable_fusion_prepass
            ? qsim::fuse_single_qubit_gates(circuit, nullptr, &origin)
            : circuit;
    fusion_times.push_back(fuse_span.stop());
    if (origin.empty()) origin.assign(fused.size(), 1);

    auto schedule_span = tracer.span("qsim.schedule");
    const qsim::Schedule schedule =
        qsim::build_schedule(fused, options, &origin);
    schedule_times.push_back(schedule_span.stop());
    probe.runs = schedule.stats().block_local_runs;
    probe.ops_per_run =
        probe.runs == 0 ? 0.0
                        : static_cast<double>(schedule.stats().batched_ops) /
                              static_cast<double>(probe.runs);
  }
  probe.fusion_seconds = median(fusion_times);
  probe.schedule_seconds = median(schedule_times);
  return probe;
}

double probe_kernels(std::size_t block_amplitudes, Tracer& tracer) {
  const auto backend = qsim::detect_kernel_backend(true);
  const qsim::Mat2 h = qsim::gate_matrix({qsim::GateKind::kH, 0});
  std::vector<qsim::Amplitude> a(block_amplitudes, qsim::Amplitude(0.5, 0.25));
  std::vector<qsim::Amplitude> b(block_amplitudes, qsim::Amplitude(-0.25, 0.5));
  const double amp_bytes = sizeof(qsim::Amplitude);

  auto span = tracer.span("qsim.kernel");
  double bytes = 0.0;
  double seconds = 0.0;
  {
    auto pair_span = tracer.span("qsim.pair_kernel");
    do {
      qsim::pair_kernel(a.data(), b.data(), block_amplitudes, h, 0, backend);
      bytes += 2.0 * 2.0 * amp_bytes * static_cast<double>(block_amplitudes);
    } while (pair_span.elapsed() < kKernelSeconds);
    seconds += pair_span.stop();
  }
  {
    // Target the middle offset bit: the mixing stride of a mid-block qubit.
    const std::uint64_t target_bit =
        std::uint64_t{1} << (std::countr_zero(block_amplitudes) / 2);
    auto mix_span = tracer.span("qsim.mix_kernel");
    do {
      qsim::mix_kernel(a.data(), block_amplitudes, h, target_bit, 0, backend);
      bytes += 2.0 * amp_bytes * static_cast<double>(block_amplitudes);
    } while (mix_span.elapsed() < kKernelSeconds);
    seconds += mix_span.stop();
  }
  span.stop();
  return bytes / seconds / 1e9;
}

ReplayProbe probe_codecs(const std::vector<double>& raw,
                         std::size_t block_doubles, std::size_t max_blocks,
                         const std::string& codec, double bound,
                         Tracer& tracer) {
  namespace lossless = cqs::lossless;
  namespace compression = cqs::compression;
  auto span = tracer.span("replay");

  const std::size_t total_blocks = raw.size() / block_doubles;
  const std::size_t picked = std::min(total_blocks, max_blocks);
  std::vector<std::span<const double>> blocks;
  for (std::size_t i = 0; i < picked; ++i) {
    const std::size_t b = i * total_blocks / picked;
    blocks.emplace_back(raw.data() + b * block_doubles, block_doubles);
  }
  const double block_mb = megabytes(block_doubles * sizeof(double));
  const double replay_mb =
      block_mb * static_cast<double>(blocks.size() * kReplayRounds);

  ReplayProbe probe;
  {
    auto lossless_span = tracer.span("replay.lossless");
    std::vector<cqs::Bytes> packed(blocks.size());
    double compress_s = 0.0, decompress_s = 0.0, lz_s = 0.0;
    std::size_t packed_bytes = 0;
    for (int round = 0; round < kReplayRounds; ++round) {
      packed_bytes = 0;
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        auto s = tracer.span("lossless.zx_compress");
        packed[i] = lossless::zx_compress(as_bytes(blocks[i]));
        compress_s += s.stop();
        packed_bytes += packed[i].size();
      }
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        auto s = tracer.span("lossless.zx_decompress");
        const cqs::Bytes out = lossless::zx_decompress(packed[i]);
        decompress_s += s.stop();
        if (out.size() != block_doubles * sizeof(double)) {
          throw std::runtime_error("zx replay returned a short block");
        }
      }
      for (const auto& block : blocks) {
        cqs::Bytes tokens;
        auto s = tracer.span("lossless.lz77_tokenize");
        lossless::lz77_tokenize(as_bytes(block), tokens);
        lz_s += s.stop();
      }
    }
    probe.zx_compress_mb_s = replay_mb / compress_s;
    probe.zx_decompress_mb_s = replay_mb / decompress_s;
    probe.lz77_mb_s = replay_mb / lz_s;
    probe.zx_ratio = block_mb * static_cast<double>(blocks.size()) /
                     megabytes(packed_bytes);
  }
  {
    auto lossy_span = tracer.span("replay.lossy");
    const auto compressor = compression::make_compressor(codec);
    const auto error_bound = compression::ErrorBound::relative(bound);
    std::vector<double> out(block_doubles);
    double compress_s = 0.0, decompress_s = 0.0, max_rel = 0.0;
    std::size_t packed_bytes = 0;
    for (int round = 0; round < kReplayRounds; ++round) {
      packed_bytes = 0;
      for (const auto& block : blocks) {
        auto cs = tracer.span("compression.compress");
        const cqs::Bytes packed = compressor->compress(block, error_bound);
        compress_s += cs.stop();
        packed_bytes += packed.size();
        auto ds = tracer.span("compression.decompress");
        compressor->decompress(packed, out);
        decompress_s += ds.stop();
        for (std::size_t k = 0; k < block_doubles; ++k) {
          if (block[k] != 0.0) {
            max_rel = std::max(
                max_rel, std::abs(out[k] - block[k]) / std::abs(block[k]));
          }
        }
      }
    }
    probe.lossy_compress_mb_s = replay_mb / compress_s;
    probe.lossy_decompress_mb_s = replay_mb / decompress_s;
    probe.lossy_ratio = block_mb * static_cast<double>(blocks.size()) /
                        megabytes(packed_bytes);
    probe.lossy_max_rel_error = max_rel;
  }
  return probe;
}

CheckpointProbe probe_checkpoint(cqs::core::CompressedStateSimulator& sim,
                                 const cqs::core::SimConfig& config,
                                 const std::string& path, Tracer& tracer) {
  CheckpointProbe probe;
  auto span = tracer.span("runtime.checkpoint");
  {
    auto save = tracer.span("runtime.checkpoint_save");
    sim.save_checkpoint(path);
    probe.save_seconds = save.stop();
  }
  probe.megabytes = megabytes(std::filesystem::file_size(path));
  {
    auto load = tracer.span("runtime.checkpoint_load");
    auto restored =
        cqs::core::CompressedStateSimulator::load_checkpoint(path, config);
    probe.load_seconds = load.stop();
    // Samples of a bit-identical state match exactly; norms are reductions
    // over per-worker partials, so they match to rounding.
    cqs::Rng a(1), b(1);
    probe.restored_equal =
        std::abs(restored.norm() - sim.norm()) <= kRepeatTolerance;
    for (int shot = 0; shot < 4; ++shot) {
      probe.restored_equal =
          probe.restored_equal && restored.sample(a) == sim.sample(b);
    }
  }
  std::filesystem::remove(path);
  return probe;
}

double probe_dense(const qsim::Circuit& circuit, Tracer& tracer) {
  auto span = tracer.span("qsim.dense");
  qsim::StateVector sv(circuit.num_qubits());
  sv.apply_circuit(circuit);
  return span.stop();
}

}  // namespace perfbench
