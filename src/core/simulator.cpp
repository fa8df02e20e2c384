#include "core/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/memory_model.hpp"
#include "runtime/checkpoint.hpp"
#include "zfp/zfp.hpp"
#include "zfp/zfp_rans.hpp"

namespace cqs::core {

using compression::ErrorBound;
using qsim::Amplitude;
using qsim::GateKind;
using qsim::GateOp;
using qsim::Mat2;
using runtime::Partition;

namespace {


inline std::complex<double>* as_complex(std::span<double> raw) {
  return reinterpret_cast<std::complex<double>*>(raw.data());
}

/// Applies one offset-segment kernel to a decompressed block: the
/// diagonal multiply or the classic strided pairs (Figure 1), restricted
/// to amplitudes whose offset-segment control bits are all set. Shared by
/// the single-gate path and the run executor; the hot loops themselves
/// live in qsim/gates.cpp behind runtime backend dispatch.
void apply_offset_kernel(Amplitude* amps, std::uint64_t count,
                         const Mat2& m, bool diagonal,
                         std::uint64_t target_bit, std::uint64_t ctrl,
                         qsim::KernelBackend backend) {
  if (diagonal) {
    qsim::diag_kernel(amps, count, m, target_bit, ctrl, backend);
  } else {
    qsim::mix_kernel(amps, count, m, target_bit, ctrl, backend);
  }
}

/// Cache-key descriptor of one gate: identity + placement + compression
/// level. Shared by the single-gate routing and the run planner so a
/// length-one run and a single gate describe the op identically.
void append_gate_descriptor(Bytes& out, const GateOp& op, int level) {
  out.push_back(static_cast<std::byte>(op.kind));
  put_varint(out, static_cast<std::uint64_t>(op.target));
  put_varint(out, static_cast<std::uint64_t>(op.controls[0] + 1));
  put_varint(out, static_cast<std::uint64_t>(op.controls[1] + 1));
  for (double p : op.params) put_scalar(out, p);
  out.push_back(static_cast<std::byte>(level));
}

}  // namespace

/// Resolved routing of one gate against the partition: where the target
/// and each control fall (Figure 3's three segments), the materialized
/// unitary, and the cache-key descriptor.
struct CompressedStateSimulator::GateRouting {
  GateOp op;
  Mat2 m{};
  bool diagonal = false;
  Partition::Segment target_segment = Partition::Segment::kOffset;
  int target_local_bit = 0;
  std::uint64_t offset_ctrl_mask = 0;
  int block_ctrl_mask = 0;
  int rank_ctrl_mask = 0;
  int level = 0;
  Bytes descriptor;
  /// Count of blocks recompressed during this gate (shared across workers).
  mutable std::atomic<std::uint64_t> blocks_compressed{0};
  /// Blocks whose recompression (or cached output) went through the lossy
  /// codec — only these trigger a fidelity pass.
  mutable std::atomic<std::uint64_t> blocks_lossy{0};
};

/// Resolved execution plan of one block-local gate run: every kernel acts
/// purely on offset-segment bits, so the same plan sweeps every block and
/// each block pays a single decompress/recompress round for the whole run.
struct CompressedStateSimulator::RunPlan {
  struct Kernel {
    Mat2 m{};
    bool diagonal = false;
    std::uint64_t target_bit = 0;  ///< 1 << offset-local target bit
    std::uint64_t ctrl_mask = 0;   ///< offset-segment control bits
  };
  std::vector<Kernel> kernels;
  /// Per-gate cache descriptors (kind/placement/params/level) — the run's
  /// cache identity via BlockCache::make_run_key.
  std::vector<Bytes> descriptors;
  int level = 0;
  InvocationCounter blocks_compressed;  ///< blocks recompressed by this run
  InvocationCounter blocks_lossy;  ///< of those, ones the lossy codec wrote
};

/// One single-block unit task, shared by the offset-target, diagonal and
/// gate-run sweeps: how to identify the unit in the cache, what to compute
/// on the decoded amplitudes, and where to account the recompression.
/// Every field is safe to call from any worker.
struct CompressedStateSimulator::UnitSpec {
  int level = 0;
  /// Cache key of one unit (called only when the cache is enabled; must
  /// read the *current* stored payload, i.e. before decompression).
  std::function<std::uint64_t(int rank, int block)> make_key;
  /// Applies the unit's kernels to the decoded block.
  std::function<void(qsim::Amplitude* amps, std::uint64_t count, int rank,
                     int block)>
      compute;
  std::atomic<std::uint64_t>* blocks_compressed = nullptr;
  std::atomic<std::uint64_t>* blocks_lossy = nullptr;
};

CompressedStateSimulator::CompressedStateSimulator(SimConfig config)
    : config_(std::move(config)),
      partition_(runtime::make_partition(config_.num_qubits,
                                         config_.num_ranks,
                                         config_.blocks_per_rank)) {
  lossless_ = compression::make_compressor("zstd");
  if (config_.codec != "zstd") {
    lossy_ = compression::make_compressor(config_.codec);
    if (!lossy_->supports(compression::BoundMode::kPointwiseRelative)) {
      throw std::invalid_argument(
          "simulator: codec must support pointwise relative bounds");
    }
    lossy_codec_id_ = compression::codec_id(config_.codec);
  }
  // zfp rate-control knobs are validated here — not silently clamped in
  // the codec — so a bad value fails construction with a message instead
  // of quietly encoding at a different precision.
  const bool zfp_family =
      config_.codec == "zfp" || config_.codec == "zfp-rans";
  if (config_.zfp_fixed_precision < 0 ||
      config_.zfp_fixed_precision > zfp::kTotalPlanes) {
    throw std::invalid_argument(
        "simulator: zfp_fixed_precision must be in [0, 62] bit planes");
  }
  if (config_.zfp_fixed_precision > 0 && config_.zfp_fixed_accuracy) {
    throw std::invalid_argument(
        "simulator: zfp_fixed_precision and zfp_fixed_accuracy are "
        "mutually exclusive rate-control modes");
  }
  if ((config_.zfp_fixed_precision > 0 || config_.zfp_fixed_accuracy) &&
      !zfp_family) {
    throw std::invalid_argument(
        "simulator: zfp_fixed_precision / zfp_fixed_accuracy require a "
        "zfp-family codec ('zfp' or 'zfp-rans')");
  }
  if (config_.zfp_fixed_precision > 0) {
    // Same registry id, precision pinned at construction.
    if (config_.codec == "zfp") {
      lossy_ = std::make_unique<zfp::ZfpCodec>(config_.zfp_fixed_precision);
    } else {
      lossy_ =
          std::make_unique<zfp::ZfpRansCodec>(config_.zfp_fixed_precision);
    }
  }
  if (config_.error_ladder.empty()) {
    throw std::invalid_argument(
        "simulator: error ladder must not be empty (level 0 is implicit; "
        "give at least one lossy bound)");
  }
  for (double eps : config_.error_ladder) {
    if (!(eps > 0.0) || !(eps < 1.0)) {
      throw std::invalid_argument("simulator: ladder bounds must be in (0,1)");
    }
  }
  if (!std::is_sorted(config_.error_ladder.begin(),
                      config_.error_ladder.end())) {
    throw std::invalid_argument(
        "simulator: error ladder must be sorted ascending (tight to loose)");
  }
  level_ = std::clamp(config_.initial_level, 0,
                      static_cast<int>(config_.error_ladder.size()));
  if (level_ > 0 && lossy_ == nullptr) {
    throw std::invalid_argument(
        "simulator: lossless codec cannot start at a lossy level");
  }

  // Remap knobs are validated whether or not remapping is on, so a bad
  // config cannot lie dormant until a resume flips the feature.
  try {
    qsim::parse_remap_policy(config_.remap_policy);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("simulator: ") + e.what());
  }

  // Out-of-core knobs: a spill path needs a resident budget to govern the
  // tier split, and a budget without a path would silently do nothing.
  if (!config_.spill_path.empty() && config_.resident_budget_bytes == 0) {
    throw std::invalid_argument(
        "simulator: spill_path requires resident_budget_bytes > 0");
  }
  if (config_.spill_path.empty() && config_.resident_budget_bytes != 0) {
    throw std::invalid_argument(
        "simulator: resident_budget_bytes requires a spill_path");
  }
  if (config_.readahead_blocks < 0 || config_.readahead_blocks > 4096) {
    throw std::invalid_argument(
        "simulator: readahead_blocks must be in [0, 4096]");
  }
  // Auto-checkpoint knobs travel in pairs: an interval with nowhere to
  // save (or a path that never saves) is a latent misconfiguration.
  if ((config_.checkpoint_interval_gates != 0) !=
      (!config_.auto_checkpoint_path.empty())) {
    throw std::invalid_argument(
        "simulator: checkpoint_interval_gates and auto_checkpoint_path "
        "must be set together");
  }
  backend_ = qsim::detect_kernel_backend(config_.enable_simd_kernels);
  map_ = runtime::QubitMap::identity(config_.num_qubits);
  remap_last_use_.assign(static_cast<std::size_t>(config_.num_qubits), 0);

  runtime::ArbiterConfig arbiter_config;
  arbiter_config.policy = runtime::parse_codec_policy(config_.codec_policy);
  arbiter_config.zero_fraction_threshold = config_.adaptive_zero_fraction;
  arbiter_config.dynamic_range_threshold = config_.adaptive_dynamic_range;
  arbiter_config.spikiness_threshold = config_.adaptive_spikiness;
  arbiter_config.hysteresis = config_.adaptive_hysteresis;
  if (!(arbiter_config.zero_fraction_threshold >= 0.0) ||
      !(arbiter_config.zero_fraction_threshold <= 1.0)) {
    throw std::invalid_argument(
        "simulator: adaptive_zero_fraction must be in [0, 1]");
  }
  if (!(arbiter_config.dynamic_range_threshold >= 0.0)) {
    throw std::invalid_argument(
        "simulator: adaptive_dynamic_range must be >= 0 bits");
  }
  if (!(arbiter_config.spikiness_threshold > 1.0)) {
    throw std::invalid_argument(
        "simulator: adaptive_spikiness must exceed 1 (max/mean ratio)");
  }
  if (!(arbiter_config.hysteresis >= 0.0) ||
      !(arbiter_config.hysteresis < 0.5)) {
    throw std::invalid_argument(
        "simulator: adaptive_hysteresis must be in [0, 0.5)");
  }
  arbiter_ = std::make_unique<runtime::CodecArbiter>(
      arbiter_config,
      partition_.num_ranks() * partition_.blocks_per_rank());

  // Transport knobs are validated (and the transport built) before the
  // thread pool exists: the socket backend fork()s one endpoint process
  // per rank, which must happen while this process is still
  // single-threaded.
  if (config_.transport != "loopback" && config_.transport != "socket") {
    throw std::invalid_argument("simulator: unknown transport '" +
                                config_.transport +
                                "' (expected 'loopback' or 'socket')");
  }
  if (config_.rank_timeout_ms <= 0) {
    throw std::invalid_argument(
        "simulator: rank_timeout_ms must be positive");
  }
  if (config_.socket_endpoint != "local" &&
      config_.socket_endpoint != "tcp") {
    throw std::invalid_argument("simulator: unknown socket_endpoint '" +
                                config_.socket_endpoint +
                                "' (expected 'local' or 'tcp')");
  }
  if (config_.transport == "socket" && config_.num_ranks < 2) {
    throw std::invalid_argument(
        "simulator: transport 'socket' requires num_ranks >= 2 (a "
        "single-rank run has no cross-rank wire to exercise)");
  }
  runtime::TransportOptions transport_options;
  transport_options.num_ranks = partition_.num_ranks();
  transport_options.rank_timeout_ms = config_.rank_timeout_ms;
  transport_options.socket_endpoint = config_.socket_endpoint;
  comm_ = std::make_unique<runtime::Comm>(
      runtime::make_transport(config_.transport, transport_options));

  const std::size_t threads =
      config_.threads > 0 ? static_cast<std::size_t>(config_.threads) : 0;
  pool_ = std::make_unique<ThreadPool>(threads);
  worker_timers_.resize(pool_->size());
  codec_stats_.resize(pool_->size());
  scratch_ = std::make_unique<runtime::ScratchArena>(
      pool_->size(), partition_.doubles_per_block());
  tier_stats_ = std::make_unique<runtime::TierStats>();
  if (!config_.spill_path.empty()) {
    // SpillError (with errno) surfaces unwritable paths at construction,
    // not at the first mid-circuit eviction.
    spill_ = std::make_unique<runtime::SpillFile>(config_.spill_path);
  }
  ranks_.reserve(static_cast<std::size_t>(partition_.num_ranks()));
  for (int r = 0; r < partition_.num_ranks(); ++r) {
    ranks_.emplace_back(partition_.blocks_per_rank());
    ranks_.back().attach(tier_stats_.get(), spill_.get());
    caches_.push_back(std::make_unique<runtime::BlockCache>(
        config_.enable_cache ? config_.cache_lines : 0));
  }
  init_blocks();
  maintain_tiers();
}

void CompressedStateSimulator::init_blocks() {
  // |0...0>: amplitude (1,0) lives at offset 0 of block 0 of rank 0; every
  // other block is all zeros and shares one compressed payload. Both
  // contents arbitrate through block 0 as the representative (every block
  // is structurally identical at t=0), then the per-block hysteresis state
  // is seeded so the arbiter remembers each block's starting codec.
  std::vector<double> zeros(partition_.doubles_per_block(), 0.0);
  auto [zero_payload, zero_meta] = encode_block(zeros, level_, 0, 0, 0);
  zeros[0] = 1.0;
  auto [one_payload, one_meta] = encode_block(zeros, level_, 0, 0, 0);

  for (int r = 0; r < partition_.num_ranks(); ++r) {
    for (int b = 0; b < partition_.blocks_per_rank(); ++b) {
      const bool is_origin = r == 0 && b == 0;
      ranks_[r].set_block(b, is_origin ? one_payload : zero_payload,
                          is_origin ? one_meta : zero_meta);
      arbiter_->seed(global_block(r, b),
                     (is_origin ? one_meta : zero_meta).codec ==
                         compression::kLosslessCodecId);
    }
  }
}

std::pair<Bytes, runtime::BlockMeta> CompressedStateSimulator::encode_block(
    std::span<const double> data, int level, int rank, int block,
    std::size_t worker) const {
  ScopedPhase phase(worker_timers_[worker], Phase::kCompression);
  compress_calls_.bump();
  const bool lossless =
      arbiter_->decide_lossless(global_block(rank, block), level, data);
  runtime::BlockMeta meta{static_cast<std::uint8_t>(level),
                          lossless ? compression::kLosslessCodecId
                                   : lossy_codec_id_};
  auto& scratch = scratch_->codec_scratch(worker);
  auto& stats = codec_stats_[worker];
  WallTimer codec_timer;
  Bytes payload;
  if (lossless) {
    payload = lossless_->compress(data, ErrorBound::lossless(), scratch);
  } else {
    // Fixed-accuracy mode hands the ladder delta to zfp directly as an
    // absolute tolerance (the zfp_stream_set_accuracy idiom), skipping
    // the pointwise-relative log-preprocessing wrapper; the default stays
    // pointwise-relative for every codec.
    const double delta = config_.error_ladder[level - 1];
    const ErrorBound bound = config_.zfp_fixed_accuracy
                                 ? ErrorBound::absolute(delta)
                                 : ErrorBound::relative(delta);
    payload = lossy_->compress(data, bound, scratch);
  }
  const double seconds = codec_timer.seconds();
  if (lossless) {
    stats.lossless_compress_seconds += seconds;
    ++stats.lossless_compress_calls;
  } else {
    stats.lossy_compress_seconds += seconds;
    ++stats.lossy_compress_calls;
  }
  return {std::move(payload), meta};
}

void CompressedStateSimulator::decompress_block(int rank, int block,
                                                std::span<double> out,
                                                std::size_t worker) const {
  const auto& store = ranks_[rank];
  decompress_payload(store.payload_view(block), store.meta(block), out,
                     worker);
}

void CompressedStateSimulator::decompress_payload(
    ByteSpan payload, const runtime::BlockMeta& meta, std::span<double> out,
    std::size_t worker) const {
  ScopedPhase phase(worker_timers_[worker], Phase::kDecompression);
  decompress_calls_.bump();
  auto& scratch = scratch_->codec_scratch(worker);
  auto& stats = codec_stats_[worker];
  WallTimer codec_timer;
  if (meta.codec == compression::kLosslessCodecId) {
    lossless_->decompress(payload, out, scratch);
    stats.lossless_decompress_seconds += codec_timer.seconds();
    ++stats.lossless_decompress_calls;
  } else if (meta.codec == lossy_codec_id_) {
    lossy_->decompress(payload, out, scratch);
    stats.lossy_decompress_seconds += codec_timer.seconds();
    ++stats.lossy_decompress_calls;
  } else {
    throw std::runtime_error(
        "simulator: block codec id " + std::to_string(meta.codec) +
        " matches neither the lossless stage nor the configured codec '" +
        config_.codec + "'");
  }
}

qsim::GateOp CompressedStateSimulator::to_physical(
    const qsim::GateOp& op) const {
  return qsim::translated_through(op, map_);
}

void CompressedStateSimulator::apply_remap(const qsim::RemapStep& step) {
  if (partition_.segment_of(step.phys_hot) != Partition::Segment::kRank ||
      partition_.segment_of(step.phys_cold) != Partition::Segment::kOffset) {
    throw std::logic_error("apply_remap: step does not pair rank x offset");
  }
  // Swapping physical bits (offset a, rank h) moves the amplitude at
  // (a=1, h=0) to (a=0, h=1) and back, other bits unchanged: every block
  // pairs with the same block index on the partner rank across bit h, and
  // the pair trades its complementary bit-a halves. One Comm::exchange of
  // the two compressed payloads per pair — the same wire cost as a single
  // rank-target gate — and afterwards gates on the relabeled qubit are
  // block-local.
  const std::uint64_t cold_bit =
      std::uint64_t{1} << partition_.local_bit(step.phys_cold);
  const int hot_local = partition_.local_bit(step.phys_hot);
  const int hot_rank_bit = 1 << hot_local;

  std::vector<std::pair<int, int>> units;  // (rank with hot bit 0, block)
  for (int r = 0; r < partition_.num_ranks(); ++r) {
    if ((r >> hot_local) & 1) continue;
    for (int b = 0; b < partition_.blocks_per_rank(); ++b) {
      units.emplace_back(r, b);
    }
  }
  std::atomic<std::uint64_t> lossy_writes{0};
  pool_->parallel_for(units.size(), [&](std::size_t i, std::size_t worker) {
    const auto [r0, b] = units[i];
    const int r1 = r0 | hot_rank_bit;
    auto& store_a = ranks_[r0];
    auto& store_b = ranks_[r1];
    auto& timers = worker_timers_[worker];
    runtime::Comm::Pending pending;
    {
      ScopedPhase phase(timers, Phase::kCommunication);
      pending = comm_->exchange_begin(
          r0, r1, store_a.payload_view(b), store_b.payload_view(b),
          static_cast<std::uint8_t>(store_a.meta(b).codec),
          static_cast<std::uint8_t>(store_b.meta(b).codec));
    }
    auto vx = scratch_->vector_x(worker);
    auto vy = scratch_->vector_y(worker);
    // Decoding this rank's own block overlaps the in-flight exchange.
    decompress_block(r0, b, vx, worker);
    runtime::Comm::Received received;
    {
      ScopedPhase phase(timers, Phase::kCommunication);
      received = comm_->exchange_wait(pending);
    }
    // The partner's block decodes from the bytes that came over the wire.
    decompress_payload(received.to_a, store_b.meta(b), vy, worker);
    {
      ScopedPhase phase(timers, Phase::kComputation);
      auto* a0 = as_complex(vx);
      auto* a1 = as_complex(vy);
      const std::uint64_t count = partition_.amplitudes_per_block();
      for (std::uint64_t k = 0; k < count; ++k) {
        if (k & cold_bit) std::swap(a0[k], a1[k ^ cold_bit]);
      }
    }
    auto [ca, meta_a] = encode_block(vx, level_, r0, b, worker);
    auto [cb, meta_b] = encode_block(vy, level_, r1, b, worker);
    const std::uint64_t lossy =
        (meta_a.codec != compression::kLosslessCodecId ? 1u : 0u) +
        (meta_b.codec != compression::kLosslessCodecId ? 1u : 0u);
    store_a.set_block(b, std::move(ca), meta_a);
    store_b.set_block(b, std::move(cb), meta_b);
    maybe_stream_spill(r0, b);
    maybe_stream_spill(r1, b);
    if (lossy > 0) {
      lossy_writes.fetch_add(lossy, std::memory_order_relaxed);
    }
  });
  // Like a gate run: the sweep recompressed each block once, so at most
  // one lossy pass enters the fidelity ledger.
  if (lossy_writes.load() > 0 && level_ > 0) {
    fidelity_.record_lossy_pass(config_.error_ladder[level_ - 1]);
  }
}

void CompressedStateSimulator::apply(const GateOp& op) {
  // Ad-hoc gates arrive in logical indices like everything else; rewrite
  // through the layout (no remap planning for a single gate).
  apply_single_counted(map_.is_identity() ? op : to_physical(op));
  // An ad-hoc gate diverges the state from whatever circuit the cursor
  // described, so the recorded resume position is void.
  gate_cursor_ = 0;
}

void CompressedStateSimulator::apply_single_counted(const GateOp& op) {
  WallTimer timer;
  apply_impl(op);
  ++gates_;
  note_gate_finished(timer.seconds());
}

void CompressedStateSimulator::apply_circuit(const qsim::Circuit& circuit) {
  if (circuit.num_qubits() != config_.num_qubits) {
    throw std::invalid_argument("apply_circuit: qubit count mismatch");
  }
  gate_cursor_ = 0;  // a new circuit always starts from its first gate
  run_from_cursor(circuit);
}

void CompressedStateSimulator::resume_circuit(const qsim::Circuit& circuit) {
  if (circuit.num_qubits() != config_.num_qubits) {
    throw std::invalid_argument("resume_circuit: qubit count mismatch");
  }
  if (gate_cursor_ > circuit.size()) {
    throw std::invalid_argument(
        "resume_circuit: cursor lies beyond the circuit");
  }
  run_from_cursor(circuit);
}

void CompressedStateSimulator::run_from_cursor(const qsim::Circuit& circuit) {
  const auto& ops = circuit.ops();
  // Consume the circuit in autosave-interval-aligned chunks of source
  // gates. Fusion buffers single-qubit runs per qubit and emits them out
  // of source order, so a mid-schedule state is NOT a source-gate prefix
  // — the only honest checkpoint cursors are chunk boundaries, where the
  // whole scheduled slice has drained. Each chunk is fused / remap-
  // planned / scheduled independently, and boundaries sit at absolute
  // multiples of the interval, so a resumed run re-chunks exactly like
  // the uninterrupted autosaved run and stays bit-identical to it.
  while (gate_cursor_ < ops.size()) {
    std::size_t end = ops.size();
    if (config_.checkpoint_interval_gates > 0) {
      const std::uint64_t interval = config_.checkpoint_interval_gates;
      end = static_cast<std::size_t>(std::min<std::uint64_t>(
          end, (gate_cursor_ / interval + 1) * interval));
    }
    run_source_range(circuit, end);
    maybe_autosave();
  }
}

void CompressedStateSimulator::run_source_range(const qsim::Circuit& circuit,
                                                std::size_t end) {
  const auto& ops = circuit.ops();
  if (gate_cursor_ >= end) return;

  // The remap pre-pass must run whenever the layout is non-identity (ops
  // arrive in logical indices and the blocks are stored physically), not
  // just when remapping is on — a v4 resume with remapping disabled still
  // needs every gate rewritten.
  const bool remap_path = config_.enable_qubit_remap || !map_.is_identity();

  // Schedule only the unapplied slice so fused ops and runs never span
  // the resume point, keeping the cursor exact in source-gate units.
  qsim::Circuit suffix(circuit.num_qubits());
  for (std::size_t i = gate_cursor_; i < end; ++i) {
    suffix.append(ops[i]);
  }

  if (!remap_path) {
    run_segment(suffix);
    return;
  }

  // Fuse BEFORE planning (instead of per scheduled segment) so remap
  // boundaries cannot change which gates fuse: remap-on then executes
  // exactly the arithmetic remap-off executes, which is what keeps the
  // two paths bit-identical at the lossless level.
  const bool fuse = config_.enable_fusion_prepass;
  std::vector<std::size_t> origins;
  qsim::Circuit planned = fuse ? qsim::fuse_single_qubit_gates(
                                     suffix, nullptr, &origins)
                               : std::move(suffix);
  if (!fuse) origins.assign(planned.size(), 1);

  qsim::RemapOptions remap_options;
  remap_options.enabled = config_.enable_qubit_remap;
  remap_options.policy = qsim::parse_remap_policy(config_.remap_policy);
  remap_options.relabel_swaps = config_.remap_relabel_swaps;
  remap_options.num_qubits = config_.num_qubits;
  remap_options.offset_bits = partition_.offset_bits;
  remap_options.block_bits = partition_.block_bits;
  const qsim::RemapProgram program =
      qsim::plan_remaps(planned, map_, remap_options, &remap_last_use_,
                        &remap_tick_, &origins);
  remap_sweeps_ += program.stats.remaps;
  swaps_relabeled_ += program.stats.swaps_relabeled;
  rank_gates_localized_ += program.stats.rank_targets_localized;
  rank_gates_in_place_ += program.stats.rank_targets_in_place;
  remap_sweeps_avoided_ += program.stats.sweeps_avoided;

  for (const qsim::RemapItem& item : program.items) {
    switch (item.kind) {
      case qsim::RemapItem::Kind::kRemap: {
        WallTimer timer;
        apply_remap(item.remap);
        map_.swap_physical(item.remap.phys_hot, item.remap.phys_cold);
        ++map_generation_;
        note_gate_finished(timer.seconds());
        break;
      }
      case qsim::RemapItem::Kind::kRelabel:
        // A SWAP absorbed into the map: zero data movement, but still one
        // source gate for the cursor and the gate count.
        map_.relabel(item.relabel_a, item.relabel_b);
        ++map_generation_;
        gates_ += item.relabel_source_gates;
        gate_cursor_ += item.relabel_source_gates;
        break;
      case qsim::RemapItem::Kind::kGates:
        run_segment(item.ops, &item.source_gates);
        break;
    }
  }
}

void CompressedStateSimulator::run_segment(
    const qsim::Circuit& segment,
    const std::vector<std::size_t>* origin_counts) {
  qsim::SchedulerOptions options;
  options.intra_qubits = partition_.offset_bits;
  options.max_run_length = config_.max_run_length;
  // Budget enforcement (and peak accounting) happens between runs, so an
  // unlimited run would defer Section 3.7's ladder escalation for a whole
  // block-local stretch; under a budget, bound the deferral unless the
  // caller pinned a cap themselves.
  constexpr std::size_t kBudgetedRunCap = 16;
  if (config_.memory_budget_bytes > 0 && options.max_run_length == 0) {
    options.max_run_length = kBudgetedRunCap;
  }
  options.fuse = config_.enable_fusion_prepass;
  const qsim::Schedule schedule =
      qsim::build_schedule(segment, options, origin_counts);

  for (const qsim::GateRun& run : schedule.runs()) {
    WallTimer timer;
    if (run.block_local) {
      apply_run(schedule.circuit(), run);
      ++batched_runs_;
      batched_gates_ += run.count;
      gates_ += run.source_gates;
    } else {
      for (std::size_t i = 0; i < run.count; ++i) {
        apply_impl(schedule.circuit().ops()[run.first + i]);
      }
      gates_ += run.source_gates;
    }
    gate_cursor_ += run.source_gates;
    note_gate_finished(timer.seconds());
  }
}

void CompressedStateSimulator::apply_impl(const GateOp& op) {
  if (op.kind == GateKind::kSwap) {
    // SWAP = CX(a,b) CX(b,a) CX(a,b); reuses the pairing machinery. Each
    // CX is its own codec sweep, so at a lossy level this SWAP records
    // three passes (the Eq. 11 pass rule in core/config.hpp).
    const int a = op.target;
    const int b = op.controls[0];
    apply_impl({GateKind::kCX, b, {a, -1}});
    apply_impl({GateKind::kCX, a, {b, -1}});
    apply_impl({GateKind::kCX, b, {a, -1}});
    return;
  }

  GateRouting routing;
  routing.op = op;
  routing.m = qsim::gate_matrix(op);
  routing.diagonal = qsim::is_diagonal(op.kind);
  routing.target_segment = partition_.segment_of(op.target);
  routing.target_local_bit = partition_.local_bit(op.target);
  routing.level = level_;
  for (int c : op.controls) {
    if (c < 0) continue;
    switch (partition_.segment_of(c)) {
      case Partition::Segment::kOffset:
        routing.offset_ctrl_mask |= std::uint64_t{1} << partition_.local_bit(c);
        break;
      case Partition::Segment::kBlock:
        routing.block_ctrl_mask |= 1 << partition_.local_bit(c);
        break;
      case Partition::Segment::kRank:
        routing.rank_ctrl_mask |= 1 << partition_.local_bit(c);
        break;
    }
  }
  append_gate_descriptor(routing.descriptor, op, routing.level);

  if (routing.diagonal) {
    run_diagonal(routing);
  } else {
    switch (routing.target_segment) {
      case Partition::Segment::kOffset: run_offset_target(routing); break;
      case Partition::Segment::kBlock: run_block_target(routing); break;
      case Partition::Segment::kRank: run_rank_target(routing); break;
    }
  }

  // Only blocks the lossy codec actually wrote cost fidelity: under the
  // adaptive policy a lossy-level gate whose blocks all stayed on the
  // lossless path is exact.
  if (routing.blocks_lossy.load() > 0 && level_ > 0) {
    fidelity_.record_lossy_pass(config_.error_ladder[level_ - 1]);
  }
}

bool CompressedStateSimulator::controls_satisfied_block(
    const GateRouting& routing, int rank, int block) const {
  return (rank & routing.rank_ctrl_mask) == routing.rank_ctrl_mask &&
         (block & routing.block_ctrl_mask) == routing.block_ctrl_mask;
}

void CompressedStateSimulator::run_offset_target(const GateRouting& routing) {
  std::vector<std::pair<int, int>> units;
  for (int r = 0; r < partition_.num_ranks(); ++r) {
    for (int b = 0; b < partition_.blocks_per_rank(); ++b) {
      if (controls_satisfied_block(routing, r, b)) units.emplace_back(r, b);
    }
  }
  UnitSpec spec;
  spec.level = routing.level;
  spec.make_key = [&](int rank, int block) {
    const auto& store = ranks_[rank];
    return runtime::BlockCache::make_key(routing.descriptor,
                                         store.payload_view(block), {},
                                         store.meta(block).codec, 0,
                                         map_generation_);
  };
  spec.compute = [&](Amplitude* amps, std::uint64_t count, int, int) {
    apply_offset_kernel(amps, count, routing.m, routing.diagonal,
                        std::uint64_t{1} << routing.target_local_bit,
                        routing.offset_ctrl_mask, backend_);
  };
  spec.blocks_compressed = &routing.blocks_compressed;
  spec.blocks_lossy = &routing.blocks_lossy;
  run_units(units, spec);
}

void CompressedStateSimulator::run_block_target(const GateRouting& routing) {
  const int tb = routing.target_local_bit;
  std::vector<std::pair<int, int>> units;  // (rank, block with target bit 0)
  for (int r = 0; r < partition_.num_ranks(); ++r) {
    if ((r & routing.rank_ctrl_mask) != routing.rank_ctrl_mask) continue;
    for (int b = 0; b < partition_.blocks_per_rank(); ++b) {
      if ((b >> tb) & 1) continue;
      if ((b & routing.block_ctrl_mask) != routing.block_ctrl_mask) continue;
      units.emplace_back(r, b);
    }
  }
  pool_->parallel_for(units.size(), [&](std::size_t i, std::size_t worker) {
    const auto [r, b0] = units[i];
    process_pair(routing, r, b0, r, b0 | (1 << tb), worker);
  });
}

void CompressedStateSimulator::run_rank_target(const GateRouting& routing) {
  const int tb = routing.target_local_bit;
  std::vector<std::pair<int, int>> units;  // (rank with target bit 0, block)
  for (int r = 0; r < partition_.num_ranks(); ++r) {
    if ((r >> tb) & 1) continue;
    if ((r & routing.rank_ctrl_mask) != routing.rank_ctrl_mask) continue;
    for (int b = 0; b < partition_.blocks_per_rank(); ++b) {
      if ((b & routing.block_ctrl_mask) != routing.block_ctrl_mask) continue;
      units.emplace_back(r, b);
    }
  }
  pool_->parallel_for(units.size(), [&](std::size_t i, std::size_t worker) {
    const auto [r0, b] = units[i];
    process_pair(routing, r0, b, r0 | (1 << tb), b, worker);
  });
}

void CompressedStateSimulator::run_diagonal(const GateRouting& routing) {
  // Diagonal gates never mix amplitude pairs, so every unit is a single
  // block regardless of which segment the target lives in. Blocks whose
  // diagonal factor is exactly 1 are skipped without decompression.
  const Amplitude one(1.0, 0.0);
  std::vector<std::pair<int, int>> units;
  for (int r = 0; r < partition_.num_ranks(); ++r) {
    for (int b = 0; b < partition_.blocks_per_rank(); ++b) {
      if (!controls_satisfied_block(routing, r, b)) continue;
      if (routing.target_segment == Partition::Segment::kBlock) {
        const int bit = (b >> routing.target_local_bit) & 1;
        if ((bit ? routing.m.u11 : routing.m.u00) == one) continue;
      } else if (routing.target_segment == Partition::Segment::kRank) {
        const int bit = (r >> routing.target_local_bit) & 1;
        if ((bit ? routing.m.u11 : routing.m.u00) == one) continue;
      } else if (routing.m.u00 == one && routing.m.u11 == one) {
        continue;  // identity
      }
      units.emplace_back(r, b);
    }
  }
  UnitSpec spec;
  spec.level = routing.level;
  spec.make_key = [&](int rank, int block) {
    // The diagonal factor is selected by the target bit of the unit's
    // block/rank index; make that selection part of the cache identity.
    std::uint64_t salt = 0;
    if (routing.target_segment == Partition::Segment::kBlock) {
      salt = 1 + ((static_cast<unsigned>(block) >> routing.target_local_bit) &
                  1);
    } else if (routing.target_segment == Partition::Segment::kRank) {
      salt = 1 + ((static_cast<unsigned>(rank) >> routing.target_local_bit) &
                  1);
    }
    const auto& store = ranks_[rank];
    return fnv1a_u64(salt,
                     runtime::BlockCache::make_key(
                         routing.descriptor, store.payload_view(block), {},
                         store.meta(block).codec, 0, map_generation_));
  };
  spec.compute = [&](Amplitude* amps, std::uint64_t count, int rank,
                     int block) {
    const std::uint64_t ctrl = routing.offset_ctrl_mask;
    if (routing.target_segment != Partition::Segment::kOffset) {
      // The diagonal factor is constant across the block, selected by the
      // unit's block/rank index bit.
      const int index = routing.target_segment == Partition::Segment::kBlock
                            ? block
                            : rank;
      const Amplitude factor =
          ((index >> routing.target_local_bit) & 1) ? routing.m.u11
                                                    : routing.m.u00;
      qsim::scale_kernel(amps, count, factor, ctrl, backend_);
    } else {
      qsim::diag_kernel(amps, count, routing.m,
                        std::uint64_t{1} << routing.target_local_bit, ctrl,
                        backend_);
    }
  };
  spec.blocks_compressed = &routing.blocks_compressed;
  spec.blocks_lossy = &routing.blocks_lossy;
  run_units(units, spec);
}

// --- Single-block unit executor ---

void CompressedStateSimulator::run_units(
    const std::vector<std::pair<int, int>>& units, const UnitSpec& spec) {
  // Plan-driven readahead: the unit order IS the schedule, so advising
  // unit i+K while working unit i keeps spilled payloads arriving ahead
  // of their faults. The first window is primed before the sweep starts.
  const std::size_t lookahead =
      spill_ != nullptr ? static_cast<std::size_t>(config_.readahead_blocks)
                        : 0;
  for (std::size_t i = 0; i < std::min(lookahead, units.size()); ++i) {
    ranks_[units[i].first].advise(units[i].second);
  }
  pool_->parallel_for(units.size(), [&](std::size_t i, std::size_t worker) {
    if (lookahead > 0 && i + lookahead < units.size()) {
      const auto [ar, ab] = units[i + lookahead];
      ranks_[ar].advise(ab);
    }
    const auto [rank, block] = units[i];
    auto& store = ranks_[rank];
    runtime::BlockCache* cache =
        config_.enable_cache && caches_[rank]->enabled() ? caches_[rank].get()
                                                         : nullptr;
    std::uint64_t key = 0;
    if (cache != nullptr) {
      key = spec.make_key(rank, block);
      Bytes out1;
      Bytes out2;
      std::uint8_t codec1 = compression::kLosslessCodecId;
      if (cache->lookup(key, out1, out2, &codec1)) {
        store.set_block(block, std::move(out1),
                        {static_cast<std::uint8_t>(spec.level), codec1});
        maybe_stream_spill(rank, block);
        // Keep the arbiter's hysteresis in step with the stored codec even
        // though no decision ran — otherwise hit/miss interleavings would
        // leak into later codec choices and break cross-thread
        // determinism.
        arbiter_->seed(global_block(rank, block),
                       codec1 == compression::kLosslessCodecId);
        spec.blocks_compressed->fetch_add(1, std::memory_order_relaxed);
        if (codec1 != compression::kLosslessCodecId) {
          spec.blocks_lossy->fetch_add(1, std::memory_order_relaxed);
        }
        return;
      }
    }
    auto vx = scratch_->vector_x(worker);
    decompress_block(rank, block, vx, worker);
    {
      ScopedPhase phase(worker_timers_[worker], Phase::kComputation);
      spec.compute(as_complex(vx), partition_.amplitudes_per_block(), rank,
                   block);
    }
    auto [compressed, meta] =
        encode_block(vx, spec.level, rank, block, worker);
    if (cache != nullptr) cache->insert(key, compressed, {}, meta.codec);
    store.set_block(block, std::move(compressed), meta);
    maybe_stream_spill(rank, block);
    spec.blocks_compressed->fetch_add(1, std::memory_order_relaxed);
    if (meta.codec != compression::kLosslessCodecId) {
      spec.blocks_lossy->fetch_add(1, std::memory_order_relaxed);
    }
  });
}

CompressedStateSimulator::RunPlan CompressedStateSimulator::build_run_plan(
    const qsim::Circuit& circuit, const qsim::GateRun& run) const {
  RunPlan plan;
  plan.level = level_;
  plan.kernels.reserve(run.count);
  plan.descriptors.reserve(run.count);
  const auto& ops = circuit.ops();
  for (std::size_t i = 0; i < run.count; ++i) {
    const GateOp& op = ops[run.first + i];
    Bytes descriptor;
    append_gate_descriptor(descriptor, op, plan.level);
    plan.descriptors.push_back(std::move(descriptor));

    auto offset_bit = [](int qubit) {
      // Block-local gates live entirely in the offset segment, where the
      // local bit position equals the qubit index.
      return std::uint64_t{1} << qubit;
    };
    if (op.kind == GateKind::kSwap) {
      // SWAP = CX(a,b) CX(b,a) CX(a,b), all intra-block here.
      const int a = op.target;
      const int b = op.controls[0];
      const Mat2 x = qsim::gate_matrix({GateKind::kX, 0});
      plan.kernels.push_back({x, false, offset_bit(b), offset_bit(a)});
      plan.kernels.push_back({x, false, offset_bit(a), offset_bit(b)});
      plan.kernels.push_back({x, false, offset_bit(b), offset_bit(a)});
      continue;
    }
    RunPlan::Kernel kernel;
    kernel.m = qsim::gate_matrix(op);
    kernel.diagonal = qsim::is_diagonal(op.kind);
    kernel.target_bit = offset_bit(op.target);
    for (int c : op.controls) {
      if (c >= 0) kernel.ctrl_mask |= offset_bit(c);
    }
    plan.kernels.push_back(kernel);
  }
  return plan;
}

void CompressedStateSimulator::apply_run(const qsim::Circuit& circuit,
                                         const qsim::GateRun& run) {
  const RunPlan plan = build_run_plan(circuit, run);
  // The scheduler already knows the full future block order of the run —
  // the same list the spill tier's readahead advises from.
  const std::vector<std::pair<int, int>> units = qsim::run_block_order(
      partition_.num_ranks(), partition_.blocks_per_rank());
  UnitSpec spec;
  spec.level = plan.level;
  spec.make_key = [&](int rank, int block) {
    const auto& store = ranks_[rank];
    return runtime::BlockCache::make_run_key(plan.descriptors,
                                             store.payload_view(block),
                                             store.meta(block).codec,
                                             map_generation_);
  };
  spec.compute = [&](Amplitude* amps, std::uint64_t count, int, int) {
    for (const RunPlan::Kernel& kernel : plan.kernels) {
      apply_offset_kernel(amps, count, kernel.m, kernel.diagonal,
                          kernel.target_bit, kernel.ctrl_mask, backend_);
    }
  };
  spec.blocks_compressed = &plan.blocks_compressed.value;
  spec.blocks_lossy = &plan.blocks_lossy.value;
  run_units(units, spec);
  // The whole run cost each block one recompression, so the fidelity
  // ledger records one lossy pass — not one per gate (Eq. 11 tightens to
  // F >= (1 - delta)^runs) — and only if the lossy codec wrote at least
  // one block (adaptive runs whose blocks all stayed lossless are exact).
  if (plan.blocks_lossy.get() > 0 && level_ > 0) {
    fidelity_.record_lossy_pass(config_.error_ladder[level_ - 1]);
  }
}

void CompressedStateSimulator::process_pair(const GateRouting& routing,
                                            int rank_a, int block_a,
                                            int rank_b, int block_b,
                                            std::size_t worker) {
  auto& store_a = ranks_[rank_a];
  auto& store_b = ranks_[rank_b];
  auto& timers = worker_timers_[worker];
  const bool cross_rank = rank_a != rank_b;

  // One buffered sendrecv per pair (Section 3.3): each rank ships its
  // compressed block to the partner in a single paired exchange. Both
  // sides then hold both inputs and compute their own updated block from
  // the exchanged payloads, so no second round trip is needed. The
  // begin/wait split keeps the payloads in flight across the cache probe
  // and this rank's own decompression — the overlap the report surfaces.
  runtime::Comm::Pending pending;
  if (cross_rank) {
    ScopedPhase phase(timers, Phase::kCommunication);
    pending = comm_->exchange_begin(
        rank_a, rank_b, store_a.payload_view(block_a),
        store_b.payload_view(block_b),
        static_cast<std::uint8_t>(store_a.meta(block_a).codec),
        static_cast<std::uint8_t>(store_b.meta(block_b).codec));
  }

  runtime::BlockCache* cache =
      config_.enable_cache ? caches_[rank_a].get() : nullptr;
  std::uint64_t key = 0;
  bool hit = false;
  if (cache != nullptr && cache->enabled()) {
    key = runtime::BlockCache::make_key(
        routing.descriptor, store_a.payload_view(block_a),
        store_b.payload_view(block_b), store_a.meta(block_a).codec,
        store_b.meta(block_b).codec, map_generation_);
    Bytes out1;
    Bytes out2;
    std::uint8_t codec1 = compression::kLosslessCodecId;
    std::uint8_t codec2 = compression::kLosslessCodecId;
    if (cache->lookup(key, out1, out2, &codec1, &codec2)) {
      store_a.set_block(block_a, std::move(out1),
                        {static_cast<std::uint8_t>(routing.level), codec1});
      store_b.set_block(block_b, std::move(out2),
                        {static_cast<std::uint8_t>(routing.level), codec2});
      maybe_stream_spill(rank_a, block_a);
      maybe_stream_spill(rank_b, block_b);
      // See run_units: hysteresis must track the stored codec on hits.
      arbiter_->seed(global_block(rank_a, block_a),
                     codec1 == compression::kLosslessCodecId);
      arbiter_->seed(global_block(rank_b, block_b),
                     codec2 == compression::kLosslessCodecId);
      routing.blocks_compressed.fetch_add(2, std::memory_order_relaxed);
      const std::uint64_t lossy =
          (codec1 != compression::kLosslessCodecId ? 1u : 0u) +
          (codec2 != compression::kLosslessCodecId ? 1u : 0u);
      if (lossy > 0) {
        routing.blocks_lossy.fetch_add(lossy, std::memory_order_relaxed);
      }
      hit = true;
    }
  }

  if (hit) {
    if (cross_rank) {
      // The exchange already happened on the wire; the cached result just
      // makes its payloads unnecessary. Settle it so the transport's
      // in-flight frames are drained (and its failure surfaced).
      ScopedPhase phase(timers, Phase::kCommunication);
      comm_->exchange_wait(pending);
    }
    return;
  }

  {
    auto vx = scratch_->vector_x(worker);
    auto vy = scratch_->vector_y(worker);
    // Decoding this rank's own block overlaps the in-flight exchange.
    decompress_block(rank_a, block_a, vx, worker);
    if (cross_rank) {
      runtime::Comm::Received received;
      {
        ScopedPhase phase(timers, Phase::kCommunication);
        received = comm_->exchange_wait(pending);
      }
      // Decompress the partner's block from the bytes that came over the
      // wire — the exchanged payload is the data this rank computes on.
      decompress_payload(received.to_a, store_b.meta(block_b), vy, worker);
    } else {
      decompress_block(rank_b, block_b, vy, worker);
    }
    {
      ScopedPhase phase(timers, Phase::kComputation);
      qsim::pair_kernel(as_complex(vx), as_complex(vy),
                        partition_.amplitudes_per_block(), routing.m,
                        routing.offset_ctrl_mask, backend_);
    }
    auto [ca, meta_a] =
        encode_block(vx, routing.level, rank_a, block_a, worker);
    auto [cb, meta_b] =
        encode_block(vy, routing.level, rank_b, block_b, worker);
    if (cache != nullptr && cache->enabled()) {
      cache->insert(key, ca, cb, meta_a.codec, meta_b.codec);
    }
    const std::uint64_t lossy =
        (meta_a.codec != compression::kLosslessCodecId ? 1u : 0u) +
        (meta_b.codec != compression::kLosslessCodecId ? 1u : 0u);
    store_a.set_block(block_a, std::move(ca), meta_a);
    store_b.set_block(block_b, std::move(cb), meta_b);
    maybe_stream_spill(rank_a, block_a);
    maybe_stream_spill(rank_b, block_b);
    routing.blocks_compressed.fetch_add(2, std::memory_order_relaxed);
    if (lossy > 0) {
      routing.blocks_lossy.fetch_add(lossy, std::memory_order_relaxed);
    }
  }
}

void CompressedStateSimulator::note_gate_finished(double gate_seconds) {
  // Peaks are no longer sampled here: TierStats records them at every
  // block mutation, so transient maxima inside the gate are covered.
  wall_seconds_ += gate_seconds;
  maintain_tiers();
  enforce_budget();
  // The ENOSPC degradation contract: ride out the full disk as long as
  // the resident state fits Eq. 8's budget (the ladder has already done
  // what it can by now); past that the run cannot make progress without
  // lying about the budget, so the typed error surfaces after all.
  if (budget_exceeded_ && degraded()) {
    throw runtime::SpillError(
        "spill: disk full on '" + config_.spill_path +
            "' and the resident state exceeds the memory budget even at "
            "the last ladder level: " +
            std::strerror(ENOSPC),
        ENOSPC);
  }
  const double ratio = compression_ratio();
  min_ratio_ = min_ratio_ == 0.0 ? ratio : std::min(min_ratio_, ratio);
}

void CompressedStateSimulator::maybe_autosave() {
  if (config_.checkpoint_interval_gates == 0) return;
  if (gate_cursor_ - gates_at_last_autosave_ <
      config_.checkpoint_interval_gates) {
    return;
  }
  WallTimer timer;
  try {
    save_checkpoint(config_.auto_checkpoint_path);
    ++autosaves_;
  } catch (const std::exception&) {
    // A failed autosave must not kill a healthy run: the atomic save left
    // the previous file intact, so recovery merely falls back one
    // interval further. The report carries the count.
    ++autosave_failures_;
  }
  autosave_seconds_ += timer.seconds();
  gates_at_last_autosave_ = gate_cursor_;
}

void CompressedStateSimulator::maybe_stream_spill(int rank, int block) {
  // Unconditional while the flag is set (rather than re-checking the
  // budget per block): which blocks spill then depends only on the
  // mutation set, not worker timing, keeping spill/fault counts
  // deterministic across thread counts. (Once degraded the counts stop
  // being pinned — spilling is over for the run.)
  if (!stream_spill_ || degraded()) return;
  if (!config_.spill_degrade_on_enospc) {
    ranks_[rank].spill_block(block);
    return;
  }
  try {
    ranks_[rank].spill_block(block);
  } catch (const runtime::SpillError& e) {
    if (e.code() != ENOSPC) throw;
    // The block simply stays resident; the next maintain_tiers sees the
    // degraded flag and stops evicting.
    spill_write_failures_.bump();
    spill_degraded_.bump();
  }
}

std::size_t CompressedStateSimulator::resident_occupancy() const {
  const std::size_t resident =
      tier_stats_->resident_bytes.load(std::memory_order_relaxed);
  // In-flight write-behind payloads are already on their way out; without
  // the projection enforce_budget would escalate the ladder for bytes the
  // next settle is about to reclaim.
  return resident > pending_spill_bytes_ ? resident - pending_spill_bytes_
                                         : 0;
}

void CompressedStateSimulator::settle_pending_spills() {
  if (pending_spills_.empty()) return;
  std::exception_ptr first_error;
  for (PendingSpill& pending : pending_spills_) {
    try {
      pending.done.get();
      ranks_[pending.rank].commit_spill(pending.block, *pending.segment,
                                        pending.generation);
    } catch (const runtime::SpillError& e) {
      // Under degradation a full disk is survivable: the failed write
      // reserved no segment and its block is still resident — mark the
      // tier degraded and keep going. Anything else stays fatal.
      if (config_.spill_degrade_on_enospc && e.code() == ENOSPC) {
        spill_write_failures_.bump();
        spill_degraded_.bump();
      } else if (!first_error) {
        first_error = std::current_exception();
      }
    } catch (...) {
      // Keep settling: every future must be consumed even when one write
      // hit ENOSPC, or later destructors would block on live jobs.
      if (!first_error) first_error = std::current_exception();
    }
  }
  pending_spills_.clear();
  pending_spill_bytes_ = 0;
  if (first_error) std::rethrow_exception(first_error);
}

void CompressedStateSimulator::discard_pending_spills() {
  for (PendingSpill& pending : pending_spills_) {
    try {
      pending.done.get();
      if (spill_ != nullptr) spill_->free_segment(*pending.segment);
    } catch (...) {
      // A failed write reserved no live segment, and the blocks these jobs
      // were spilling are being discarded wholesale — the error is moot.
    }
  }
  pending_spills_.clear();
  pending_spill_bytes_ = 0;
}

void CompressedStateSimulator::maintain_tiers() {
  if (spill_ == nullptr) return;
  settle_pending_spills();
  // Once degraded the spill tier is read-only: blocks already parked on
  // disk stay readable, but no new evictions or streaming writes happen.
  if (degraded()) {
    stream_spill_ = false;
    return;
  }
  const std::size_t budget = config_.resident_budget_bytes;
  const std::size_t total_blocks =
      static_cast<std::size_t>(partition_.num_ranks()) *
      partition_.blocks_per_rank();
  // Write-behind eviction: walk the blocks round-robin from where the last
  // sweep stopped and enqueue spill writes on the pool until the projected
  // resident size (current minus in-flight) fits the budget. The scan
  // order is a function of evict_cursor_ alone, so the eviction set is
  // deterministic.
  std::size_t scanned = 0;
  while (resident_occupancy() > budget && scanned < total_blocks) {
    const std::size_t slot = evict_cursor_ % total_blocks;
    evict_cursor_ = (evict_cursor_ + 1) % total_blocks;
    ++scanned;
    const int rank = static_cast<int>(slot) / partition_.blocks_per_rank();
    const int block = static_cast<int>(slot) % partition_.blocks_per_rank();
    runtime::BlockStore& store = ranks_[rank];
    if (store.is_spilled(block)) continue;
    PendingSpill pending;
    pending.rank = rank;
    pending.block = block;
    pending.generation = store.generation(block);
    std::shared_ptr<const Bytes> payload = store.payload_handle(block);
    if (payload == nullptr) continue;
    pending.bytes = payload->size();
    pending.segment = std::make_shared<runtime::SpillSegment>();
    runtime::SpillFile* spill = spill_.get();
    std::shared_ptr<runtime::SpillSegment> segment = pending.segment;
    pending.done = pool_->submit(
        [spill, payload = std::move(payload), segment]() mutable {
          *segment = spill->write(*payload);  // SpillError -> the future
        });
    pending_spill_bytes_ += pending.bytes;
    pending_spills_.push_back(std::move(pending));
  }
  // Past the transition region the whole state no longer fits: from here
  // every freshly stored block streams straight to the spill tier.
  stream_spill_ =
      tier_stats_->resident_bytes.load(std::memory_order_relaxed) +
          tier_stats_->spilled_bytes.load(std::memory_order_relaxed) >
      budget;
}

void CompressedStateSimulator::enforce_budget() {
  const std::size_t budget = config_.memory_budget_bytes;
  if (budget == 0) return;
  // With spilling on, Eq. 8 governs the *resident* tier: bytes parked on
  // NVMe do not count against the in-memory budget, so the error ladder
  // only escalates when even the resident working set cannot fit.
  while (resident_occupancy() > budget &&
         level_ < static_cast<int>(config_.error_ladder.size()) &&
         lossy_ != nullptr) {
    ++level_;
    const std::uint64_t lossy_blocks = recompress_all(level_);
    if (lossy_blocks > 0) {
      fidelity_.record_lossy_pass(config_.error_ladder[level_ - 1]);
    }
  }
  if (resident_occupancy() > budget) budget_exceeded_ = true;
}

std::uint64_t CompressedStateSimulator::recompress_all(int new_level) {
  const std::size_t total_blocks =
      static_cast<std::size_t>(partition_.num_ranks()) *
      partition_.blocks_per_rank();
  std::atomic<std::uint64_t> lossy_blocks{0};
  pool_->parallel_for(total_blocks, [&](std::size_t i, std::size_t worker) {
    const int rank = static_cast<int>(i) / partition_.blocks_per_rank();
    const int block = static_cast<int>(i) % partition_.blocks_per_rank();
    auto vx = scratch_->vector_x(worker);
    decompress_block(rank, block, vx, worker);
    auto [compressed, meta] =
        encode_block(vx, new_level, rank, block, worker);
    if (meta.codec != compression::kLosslessCodecId) {
      lossy_blocks.fetch_add(1, std::memory_order_relaxed);
    }
    ranks_[rank].set_block(block, std::move(compressed), meta);
    maybe_stream_spill(rank, block);
  });
  return lossy_blocks.load(std::memory_order_relaxed);
}

double CompressedStateSimulator::probability_one(int qubit) {
  if (qubit < 0 || qubit >= config_.num_qubits) {
    throw std::out_of_range("probability_one: bad qubit");
  }
  // The caller speaks logical qubits; the blocks are laid out physically.
  const int physical = map_.physical(qubit);
  const auto segment = partition_.segment_of(physical);
  const int local = partition_.local_bit(physical);
  std::vector<double> partials(pool_->size(), 0.0);

  std::vector<std::pair<int, int>> units;
  for (int r = 0; r < partition_.num_ranks(); ++r) {
    if (segment == Partition::Segment::kRank && ((r >> local) & 1) == 0) {
      continue;
    }
    for (int b = 0; b < partition_.blocks_per_rank(); ++b) {
      if (segment == Partition::Segment::kBlock && ((b >> local) & 1) == 0) {
        continue;
      }
      units.emplace_back(r, b);
    }
  }
  pool_->parallel_for(units.size(), [&](std::size_t i, std::size_t worker) {
    auto vx = scratch_->vector_x(worker);
    decompress_block(units[i].first, units[i].second, vx, worker);
    const auto* amps = as_complex(vx);
    const std::uint64_t count = partition_.amplitudes_per_block();
    double sum = 0.0;
    if (segment == Partition::Segment::kOffset) {
      const std::uint64_t bit = std::uint64_t{1} << local;
      for (std::uint64_t k = 0; k < count; ++k) {
        if (k & bit) sum += std::norm(amps[k]);
      }
    } else {
      for (std::uint64_t k = 0; k < count; ++k) sum += std::norm(amps[k]);
    }
    partials[worker] += sum;
  });
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}

double CompressedStateSimulator::norm() {
  std::vector<double> partials(pool_->size(), 0.0);
  const std::size_t total_blocks =
      static_cast<std::size_t>(partition_.num_ranks()) *
      partition_.blocks_per_rank();
  pool_->parallel_for(total_blocks, [&](std::size_t i, std::size_t worker) {
    const int rank = static_cast<int>(i) / partition_.blocks_per_rank();
    const int block = static_cast<int>(i) % partition_.blocks_per_rank();
    auto vx = scratch_->vector_x(worker);
    decompress_block(rank, block, vx, worker);
    const auto* amps = as_complex(vx);
    double sum = 0.0;
    for (std::uint64_t k = 0; k < partition_.amplitudes_per_block(); ++k) {
      sum += std::norm(amps[k]);
    }
    partials[worker] += sum;
  });
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}

std::vector<double> CompressedStateSimulator::to_raw() {
  if (config_.num_qubits > 26) {
    throw std::invalid_argument("to_raw: refuses above 26 qubits");
  }
  std::vector<double> out(partition_.total_amplitudes() * 2);
  const std::size_t total_blocks =
      static_cast<std::size_t>(partition_.num_ranks()) *
      partition_.blocks_per_rank();
  if (map_.is_identity()) {
    pool_->parallel_for(total_blocks, [&](std::size_t i,
                                          std::size_t worker) {
      const int rank = static_cast<int>(i) / partition_.blocks_per_rank();
      const int block = static_cast<int>(i) % partition_.blocks_per_rank();
      const std::uint64_t base = partition_.global_index(rank, block, 0) * 2;
      decompress_block(rank, block,
                       std::span<double>(out.data() + base,
                                         partition_.doubles_per_block()),
                       worker);
    });
    return out;
  }
  // Remapped layout: decompress each block into scratch and scatter every
  // amplitude to its logical index (a bijection, so the parallel writes
  // are disjoint). The result is always in logical order — callers never
  // see the physical layout.
  pool_->parallel_for(total_blocks, [&](std::size_t i, std::size_t worker) {
    const int rank = static_cast<int>(i) / partition_.blocks_per_rank();
    const int block = static_cast<int>(i) % partition_.blocks_per_rank();
    auto vx = scratch_->vector_x(worker);
    decompress_block(rank, block, vx, worker);
    for (std::uint64_t k = 0; k < partition_.amplitudes_per_block(); ++k) {
      const std::uint64_t logical =
          map_.to_logical_index(partition_.global_index(rank, block, k));
      out[2 * logical] = vx[2 * k];
      out[2 * logical + 1] = vx[2 * k + 1];
    }
  });
  return out;
}

std::vector<Amplitude> CompressedStateSimulator::to_amplitudes() {
  const auto raw = to_raw();
  std::vector<Amplitude> amps(raw.size() / 2);
  for (std::size_t i = 0; i < amps.size(); ++i) {
    amps[i] = Amplitude(raw[2 * i], raw[2 * i + 1]);
  }
  return amps;
}

bool CompressedStateSimulator::assert_probability(int qubit, double expected,
                                                  double tolerance) {
  return std::abs(probability_one(qubit) - expected) <= tolerance;
}

double CompressedStateSimulator::expectation_pauli_z(
    std::uint64_t qubit_mask) {
  if (qubit_mask >> config_.num_qubits != 0) {
    throw std::out_of_range("expectation_pauli_z: mask exceeds qubits");
  }
  // Parity over a set of logical qubits is parity over their physical
  // homes; translating the mask bit-by-bit reuses the layout-split sums.
  if (!map_.is_identity()) {
    qubit_mask = map_.to_physical_index(qubit_mask);
  }
  const std::uint64_t offset_mask =
      qubit_mask & (partition_.amplitudes_per_block() - 1);
  const auto block_mask = static_cast<int>(
      (qubit_mask >> partition_.offset_bits) &
      (static_cast<std::uint64_t>(partition_.blocks_per_rank()) - 1));
  const auto rank_mask = static_cast<int>(
      qubit_mask >> (partition_.offset_bits + partition_.block_bits));

  std::vector<double> partials(pool_->size(), 0.0);
  const std::size_t total_blocks =
      static_cast<std::size_t>(partition_.num_ranks()) *
      partition_.blocks_per_rank();
  pool_->parallel_for(total_blocks, [&](std::size_t i, std::size_t worker) {
    const int rank = static_cast<int>(i) / partition_.blocks_per_rank();
    const int block = static_cast<int>(i) % partition_.blocks_per_rank();
    // Sign contribution of the block/rank index bits is block-constant.
    const int high_parity =
        (std::popcount(static_cast<unsigned>(block & block_mask)) +
         std::popcount(static_cast<unsigned>(rank & rank_mask))) &
        1;
    auto vx = scratch_->vector_x(worker);
    decompress_block(rank, block, vx, worker);
    const auto* amps = as_complex(vx);
    double sum = 0.0;
    for (std::uint64_t k = 0; k < partition_.amplitudes_per_block(); ++k) {
      const int parity =
          (std::popcount(k & offset_mask) + high_parity) & 1;
      sum += (parity ? -1.0 : 1.0) * std::norm(amps[k]);
    }
    partials[worker] += sum;
  });
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}

std::uint64_t CompressedStateSimulator::sample(Rng& rng) {
  // Pass 1: per-block probability mass.
  const std::size_t total_blocks =
      static_cast<std::size_t>(partition_.num_ranks()) *
      partition_.blocks_per_rank();
  std::vector<double> masses(total_blocks, 0.0);
  pool_->parallel_for(total_blocks, [&](std::size_t i, std::size_t worker) {
    const int rank = static_cast<int>(i) / partition_.blocks_per_rank();
    const int block = static_cast<int>(i) % partition_.blocks_per_rank();
    auto vx = scratch_->vector_x(worker);
    decompress_block(rank, block, vx, worker);
    const auto* amps = as_complex(vx);
    double sum = 0.0;
    for (std::uint64_t k = 0; k < partition_.amplitudes_per_block(); ++k) {
      sum += std::norm(amps[k]);
    }
    masses[i] = sum;
  });
  double total = 0.0;
  for (double m : masses) total += m;

  // Pass 2: pick the block, then the offset within it.
  double r = rng.next_double() * total;
  std::size_t chosen = total_blocks - 1;
  for (std::size_t i = 0; i < total_blocks; ++i) {
    r -= masses[i];
    if (r <= 0.0) {
      chosen = i;
      break;
    }
  }
  const int rank = static_cast<int>(chosen) / partition_.blocks_per_rank();
  const int block = static_cast<int>(chosen) % partition_.blocks_per_rank();
  auto vx = scratch_->vector_x(0);
  decompress_block(rank, block, vx, 0);
  const auto* amps = as_complex(vx);
  double r2 = rng.next_double() * masses[chosen];
  std::uint64_t offset = partition_.amplitudes_per_block() - 1;
  for (std::uint64_t k = 0; k < partition_.amplitudes_per_block(); ++k) {
    r2 -= std::norm(amps[k]);
    if (r2 <= 0.0) {
      offset = k;
      break;
    }
  }
  const std::uint64_t physical =
      partition_.global_index(rank, block, offset);
  return map_.is_identity() ? physical : map_.to_logical_index(physical);
}

int CompressedStateSimulator::measure(int qubit, Rng& rng) {
  const double p1 = probability_one(qubit);
  const int outcome = rng.next_double() < p1 ? 1 : 0;
  const double keep = outcome == 1 ? p1 : 1.0 - p1;
  const double scale = keep > 0.0 ? 1.0 / std::sqrt(keep) : 0.0;

  // Collapse along the measured qubit's *physical* bit.
  const int physical = map_.physical(qubit);
  const auto segment = partition_.segment_of(physical);
  const int local = partition_.local_bit(physical);
  const std::size_t total_blocks =
      static_cast<std::size_t>(partition_.num_ranks()) *
      partition_.blocks_per_rank();
  std::atomic<std::uint64_t> lossy_writes{0};
  pool_->parallel_for(total_blocks, [&](std::size_t i, std::size_t worker) {
    const int rank = static_cast<int>(i) / partition_.blocks_per_rank();
    const int block = static_cast<int>(i) % partition_.blocks_per_rank();
    // Whole-block / whole-rank projections need no decompression when the
    // block is uniformly kept or uniformly zeroed... but zeroing still
    // requires rewriting the block, and scaling requires touching every
    // amplitude, so only the "kept and scale == 1" case could skip; that
    // never happens for 0 < p < 1.
    int block_bit = -1;  // -1: decided per amplitude
    if (segment == Partition::Segment::kBlock) {
      block_bit = (block >> local) & 1;
    } else if (segment == Partition::Segment::kRank) {
      block_bit = (rank >> local) & 1;
    }
    auto vx = scratch_->vector_x(worker);
    decompress_block(rank, block, vx, worker);
    auto* amps = as_complex(vx);
    const std::uint64_t count = partition_.amplitudes_per_block();
    const std::uint64_t bit = std::uint64_t{1} << local;
    {
      ScopedPhase phase(worker_timers_[worker], Phase::kComputation);
      for (std::uint64_t k = 0; k < count; ++k) {
        const int amp_bit = block_bit >= 0
                                ? block_bit
                                : static_cast<int>((k & bit) != 0);
        if (amp_bit == outcome) {
          amps[k] *= scale;
        } else {
          amps[k] = Amplitude(0, 0);
        }
      }
    }
    auto [compressed, meta] =
        encode_block(vx, level_, rank, block, worker);
    if (meta.codec != compression::kLosslessCodecId) {
      lossy_writes.fetch_add(1, std::memory_order_relaxed);
    }
    ranks_[rank].set_block(block, std::move(compressed), meta);
    maybe_stream_spill(rank, block);
  });
  if (lossy_writes.load() > 0 && level_ > 0) {
    fidelity_.record_lossy_pass(config_.error_ladder[level_ - 1]);
  }
  maintain_tiers();
  enforce_budget();
  // Collapse diverges the state from any recorded circuit position, so
  // the resume cursor is void (same invariant as ad-hoc apply()).
  gate_cursor_ = 0;
  return outcome;
}

std::size_t CompressedStateSimulator::compressed_bytes() const {
  std::size_t total = 0;
  for (const auto& store : ranks_) total += store.total_bytes();
  return total;
}

double CompressedStateSimulator::compression_ratio() const {
  const auto raw = static_cast<double>(partition_.total_amplitudes()) * 16.0;
  const auto compressed = static_cast<double>(compressed_bytes());
  return compressed == 0.0 ? 0.0 : raw / compressed;
}

void CompressedStateSimulator::save_checkpoint(
    const std::string& path) const {
  runtime::CheckpointHeader header;
  header.num_qubits = config_.num_qubits;
  header.num_ranks = config_.num_ranks;
  header.blocks_per_rank = config_.blocks_per_rank;
  header.ladder_level = static_cast<std::uint32_t>(level_);
  header.next_gate_index = gate_cursor_;
  header.fidelity_bound = fidelity_.bound();
  header.lossy_passes = fidelity_.lossy_passes();
  header.codec_name = config_.codec;
  header.qubit_map = map_;
  runtime::save_checkpoint(path, header, ranks_);
}

CompressedStateSimulator CompressedStateSimulator::load_checkpoint(
    const std::string& path, SimConfig config) {
  runtime::LoadedCheckpoint loaded = runtime::load_checkpoint_full(path);
  runtime::CheckpointHeader& header = loaded.header;
  std::vector<runtime::BlockStore>& stores = loaded.ranks;
  config.num_qubits = header.num_qubits;
  config.num_ranks = header.num_ranks;
  config.blocks_per_rank = header.blocks_per_rank;
  config.codec = header.codec_name;
  if (header.ladder_level > config.error_ladder.size()) {
    // Restoring a deeper level than the resume ladder has entries would
    // index past the end of error_ladder on the next compression.
    throw std::invalid_argument(
        "load_checkpoint: saved ladder level exceeds configured ladder");
  }
  CompressedStateSimulator sim(config);
  // Under a small resident budget the constructor's maintain_tiers leaves
  // write-behind spills of the initial |0...0> blocks in flight. They must
  // be discarded before the stores are swapped: the loaded slots restart
  // their generation counters at the same values the initial slots had, so
  // a settle after the swap would pass commit_spill's generation guard and
  // silently re-tier restored blocks onto the stale pre-restore segments.
  sim.discard_pending_spills();
  // The constructor's init_blocks accounted its |0...0> state; the loaded
  // stores replace it wholesale, so the shared stats restart from zero and
  // attach() folds each store's actual bytes back in. (BlockStore
  // destructors never touch the stats, so destroying the initial stores
  // after the reset is safe.)
  sim.tier_stats_->reset();
  sim.ranks_ = std::move(stores);
  for (auto& store : sim.ranks_) {
    store.attach(sim.tier_stats_.get(), sim.spill_.get());
  }
  sim.level_ = static_cast<int>(header.ladder_level);
  sim.gate_cursor_ = header.next_gate_index;
  // The restore point counts as saved: a resumed run's next autosave is
  // one full interval out, matching the uninterrupted run's cadence.
  sim.gates_at_last_autosave_ = sim.gate_cursor_;
  // Pre-v4 files carry no map (identity, which the constructor set). A v4
  // map must cover exactly this simulation's qubits. kLru recency is not
  // persisted — a resumed LRU plan starts from a cold history, which only
  // shifts future eviction choices, never correctness.
  if (!header.qubit_map.empty()) {
    if (header.qubit_map.size() != config.num_qubits) {
      throw std::invalid_argument(
          "load_checkpoint: qubit map covers " +
          std::to_string(header.qubit_map.size()) + " qubits, state has " +
          std::to_string(config.num_qubits));
    }
    sim.map_ = header.qubit_map;
  }
  // Validate every block's codec id up front (decompression happens on
  // worker threads, where a bad id could not throw usefully), and seed the
  // arbiter's hysteresis from the persisted codec so the first pass after
  // a restore doesn't see a blank history.
  for (int r = 0; r < sim.partition_.num_ranks(); ++r) {
    for (int b = 0; b < sim.partition_.blocks_per_rank(); ++b) {
      const auto codec = sim.ranks_[r].meta(b).codec;
      if (codec != compression::kLosslessCodecId &&
          codec != sim.lossy_codec_id_) {
        throw std::invalid_argument(
            "load_checkpoint: block codec id " + std::to_string(codec) +
            " matches neither the lossless stage nor the checkpoint codec "
            "'" + sim.config_.codec + "'");
      }
      sim.arbiter_->seed(sim.global_block(r, b),
                         codec == compression::kLosslessCodecId);
    }
  }
  // Both the bound and the pass count resume exactly where the saved run
  // stopped; subsequent lossy passes multiply/count onto them.
  sim.fidelity_ = FidelityTracker();
  sim.fidelity_.restore(header.fidelity_bound, header.lossy_passes);
  // Re-tier under the *resuming* spill config: blocks that were spilled at
  // save time go back out first (byte-identical moves), then maintain_tiers
  // reconciles against this run's resident budget — which may differ from
  // the saving run's.
  if (sim.spill_ != nullptr) {
    for (std::size_t r = 0; r < loaded.spilled.size(); ++r) {
      for (std::size_t b = 0; b < loaded.spilled[r].size(); ++b) {
        if (loaded.spilled[r][b] != 0) {
          sim.ranks_[r].spill_block(static_cast<int>(b));
        }
      }
    }
  }
  sim.maintain_tiers();
  // Settle the evictions maintain_tiers just enqueued so the restore
  // returns already reconciled: the report's tier split reflects the
  // resuming budget immediately, and a failing spill write surfaces here
  // as a load error instead of at the first gate boundary.
  sim.settle_pending_spills();
  return sim;
}

CompressedStateSimulator CompressedStateSimulator::run_resilient(
    SimConfig config, const qsim::Circuit& circuit,
    const RecoveryOptions& options) {
  if (options.max_recoveries < 0) {
    throw std::invalid_argument("run_resilient: max_recoveries must be >= 0");
  }
  if (options.retry_backoff_ms < 0) {
    throw std::invalid_argument(
        "run_resilient: retry_backoff_ms must be >= 0");
  }
  // A resilient run rides out a full spill disk instead of failing on it.
  config.spill_degrade_on_enospc = true;

  std::uint64_t recoveries = 0;
  std::uint64_t backoff_ms_total = 0;
  for (;;) {
    std::optional<CompressedStateSimulator> sim;
    try {
      // "The last autosave" doubles as the resume point after a *driver*
      // restart: an existing file at the configured path is trusted to be
      // this circuit's, which resume_circuit re-validates.
      const bool resume =
          !config.auto_checkpoint_path.empty() &&
          std::filesystem::exists(config.auto_checkpoint_path);
      if (resume) {
        sim.emplace(load_checkpoint(config.auto_checkpoint_path, config));
        sim->resume_circuit(circuit);
      } else {
        sim.emplace(config);
        sim->apply_circuit(circuit);
      }
      sim->recoveries_ = recoveries;
      sim->recovery_backoff_ms_ = backoff_ms_total;
      return std::move(*sim);
    } catch (const runtime::TransportError& e) {
      // Protocol violations are bugs, not environmental faults — a retry
      // would just trip over them again by construction.
      if (e.kind() == runtime::TransportError::Kind::kProtocol) throw;
      // Tear the failed attempt down *before* respawning: the destructor
      // joins the thread pool and reaps the transport's rank processes,
      // so the next constructor forks from a single-threaded process
      // again (its invariant) and no zombie endpoints accumulate.
      sim.reset();
      if (recoveries >= static_cast<std::uint64_t>(options.max_recoveries)) {
        throw;
      }
      const std::uint64_t wait =
          static_cast<std::uint64_t>(options.retry_backoff_ms)
          << std::min<std::uint64_t>(recoveries, 20);
      ++recoveries;
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(wait));
        backoff_ms_total += wait;
      }
    }
  }
}

SimulationReport CompressedStateSimulator::report() const {
  SimulationReport rep;
  rep.num_qubits = config_.num_qubits;
  rep.num_ranks = config_.num_ranks;
  rep.blocks_per_rank = config_.blocks_per_rank;
  rep.codec = config_.codec;
  if (config_.zfp_fixed_accuracy) {
    rep.zfp_rate_control = "fixed-accuracy";
  } else if (config_.zfp_fixed_precision > 0) {
    rep.zfp_rate_control = "fixed-precision(" +
                           std::to_string(config_.zfp_fixed_precision) + ")";
  }
  rep.gates = gates_;
  rep.total_seconds = wall_seconds_;
  for (const auto& timers : worker_timers_) rep.phases.merge(timers);
  rep.memory_requirement_bytes =
      memory_required_bytes(config_.num_qubits);
  rep.peak_compressed_bytes =
      tier_stats_->peak_total_bytes.load(std::memory_order_relaxed);
  rep.scratch_bytes = scratch_->bytes();
  rep.budget_bytes = config_.memory_budget_bytes;
  rep.budget_exceeded = budget_exceeded_;
  rep.min_compression_ratio = min_ratio_;
  rep.final_ladder_level = level_;
  rep.codec_policy = config_.codec_policy;
  const auto arbiter_stats = arbiter_->stats();
  rep.codec_lossless_choices = arbiter_stats.lossless_choices;
  rep.codec_lossy_choices = arbiter_stats.lossy_choices;
  rep.codec_switches = arbiter_stats.switches;
  rep.block_raw_bytes = partition_.bytes_per_block();
  for (const auto& store : ranks_) {
    for (int b = 0; b < store.num_blocks(); ++b) {
      if (store.meta(b).codec == compression::kLosslessCodecId) {
        ++rep.final_lossless_blocks;
        rep.final_lossless_bytes += store.block_size(b);
      } else {
        ++rep.final_lossy_blocks;
        rep.final_lossy_bytes += store.block_size(b);
      }
    }
  }
  rep.batched_runs = batched_runs_;
  rep.batched_gates = batched_gates_;
  rep.compress_invocations = compress_calls_.get();
  rep.decompress_invocations = decompress_calls_.get();
  for (const auto& stats : codec_stats_) {
    rep.lossless_compress_invocations += stats.lossless_compress_calls;
    rep.lossy_compress_invocations += stats.lossy_compress_calls;
    rep.lossless_decompress_invocations += stats.lossless_decompress_calls;
    rep.lossy_decompress_invocations += stats.lossy_decompress_calls;
    rep.lossless_compress_seconds += stats.lossless_compress_seconds;
    rep.lossy_compress_seconds += stats.lossy_compress_seconds;
    rep.lossless_decompress_seconds += stats.lossless_decompress_seconds;
    rep.lossy_decompress_seconds += stats.lossy_decompress_seconds;
  }
  rep.codec_scratch_bytes = scratch_->codec_scratch_bytes();
  rep.fidelity_bound = fidelity_.bound();
  rep.lossy_passes = fidelity_.lossy_passes();
  const auto comm_stats = comm_->stats();
  rep.comm_bytes = comm_stats.bytes_moved;
  rep.comm_messages = comm_stats.messages;
  rep.transport = comm_->transport().name();
  rep.comm_seconds = comm_stats.seconds();
  rep.comm_overlap_utilization = comm_stats.overlap_utilization();
  const auto wire = comm_->wire_stats();
  rep.wire_payload_bytes = wire.payload_bytes;
  rep.wire_frame_bytes = wire.frame_bytes;
  rep.wire_frames = wire.frames;
  rep.qubit_remap_enabled = config_.enable_qubit_remap;
  rep.remap_policy = config_.remap_policy;
  rep.remap_sweeps = remap_sweeps_;
  rep.swaps_relabeled = swaps_relabeled_;
  rep.rank_gates_localized = rank_gates_localized_;
  rep.rank_gates_in_place = rank_gates_in_place_;
  // One avoided sweep = one paired exchange per (rank pair, block).
  rep.remap_exchanges_avoided =
      remap_sweeps_avoided_ *
      (static_cast<std::uint64_t>(partition_.num_ranks()) / 2 *
       partition_.blocks_per_rank());
  rep.simd_kernel = qsim::kernel_backend_name(backend_);
  rep.spill_enabled = spill_ != nullptr;
  rep.resident_budget_bytes = config_.resident_budget_bytes;
  rep.resident_bytes =
      tier_stats_->resident_bytes.load(std::memory_order_relaxed);
  rep.spilled_bytes =
      tier_stats_->spilled_bytes.load(std::memory_order_relaxed);
  rep.peak_resident_bytes =
      tier_stats_->peak_resident_bytes.load(std::memory_order_relaxed);
  rep.spill_events =
      tier_stats_->spill_events.load(std::memory_order_relaxed);
  rep.fault_events =
      tier_stats_->fault_events.load(std::memory_order_relaxed);
  rep.readahead_issued =
      tier_stats_->readahead_issued.load(std::memory_order_relaxed);
  rep.readahead_hits =
      tier_stats_->readahead_hits.load(std::memory_order_relaxed);
  rep.degraded = degraded();
  rep.spill_write_failures = spill_write_failures_.get();
  rep.checkpoint_interval_gates = config_.checkpoint_interval_gates;
  rep.autosaves = autosaves_;
  rep.autosave_failures = autosave_failures_;
  rep.autosave_seconds = autosave_seconds_;
  rep.recoveries = recoveries_;
  rep.recovery_backoff_ms = recovery_backoff_ms_;
  for (const auto& cache : caches_) {
    const auto stats = cache->stats();
    rep.cache.hits += stats.hits;
    rep.cache.misses += stats.misses;
    rep.cache.disabled = rep.cache.disabled || stats.disabled;
  }
  return rep;
}

}  // namespace cqs::core
