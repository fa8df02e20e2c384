// CompressedStateSimulator — the paper's primary contribution (Sections 3
// and 4): a Schrödinger-style full-state simulator whose state vector
// lives in independently compressed blocks spread across logical ranks.
//
// Per gate, at most two blocks per worker are decompressed into
// pre-allocated scratch (the MCDRAM discipline of Figure 2), the 2x2
// unitary is applied to the amplitude pairs selected by the target qubit's
// index segment (Figure 3), and the blocks are recompressed. Runs of
// consecutive block-local gates (targets and controls all in the offset
// segment) are batched by the gate-run scheduler (qsim/scheduler.hpp) so
// each block pays one codec round — and one lossy fidelity pass — per run
// instead of per gate. A hybrid
// compression policy starts lossless (Zstd stand-in) and escalates through
// a pointwise-relative error-bound ladder whenever the configured memory
// budget is exceeded (Section 3.7), while a fidelity lower bound
// F >= prod (1 - delta_i) is maintained (Section 3.8).
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "compression/compressor.hpp"
#include "core/config.hpp"
#include "core/fidelity.hpp"
#include "core/report.hpp"
#include "qsim/circuit.hpp"
#include "qsim/gates.hpp"
#include "qsim/scheduler.hpp"
#include "runtime/block_cache.hpp"
#include "runtime/block_store.hpp"
#include "runtime/codec_arbiter.hpp"
#include "runtime/comm.hpp"
#include "runtime/partition.hpp"
#include "runtime/qubit_map.hpp"
#include "runtime/scratch.hpp"

namespace cqs::core {

/// Knobs of the run_resilient() recovery loop.
struct RecoveryOptions {
  /// Transport faults survived before the run gives up and rethrows. 0
  /// degenerates to a plain run that still degrades on ENOSPC.
  int max_recoveries = 3;
  /// Wait before the first respawn, in milliseconds; doubles on every
  /// consecutive recovery (exponential backoff). 0 retries immediately.
  int retry_backoff_ms = 100;
};

class CompressedStateSimulator {
 public:
  explicit CompressedStateSimulator(SimConfig config);

  const SimConfig& config() const { return config_; }
  const runtime::Partition& partition() const { return partition_; }

  /// Current logical->physical qubit layout. Identity unless qubit
  /// remapping has relabeled or exchanged positions (or a v4 checkpoint
  /// restored a remapped layout). All public APIs speak logical indices;
  /// the map is exposed for tests and benches.
  const runtime::QubitMap& qubit_map() const { return map_; }

  /// Applies one ad-hoc gate (counts toward the per-gate statistics).
  /// Ad-hoc gates invalidate any recorded circuit position: the gate
  /// cursor resets to 0, so a later checkpoint never claims a resume
  /// point inside a circuit the state has since diverged from.
  void apply(const qsim::GateOp& op);

  /// Applies `circuit` from its first gate. Always starts fresh — applying
  /// a second circuit after a completed one runs all of its gates (the
  /// cursor is scoped to resume semantics; see resume_circuit).
  void apply_circuit(const qsim::Circuit& circuit);

  /// Applies `circuit` from the current gate cursor to the end — after a
  /// checkpoint restore this resumes exactly where the saved run stopped.
  /// The cursor counts gates of the caller's circuit (pre-fusion), so the
  /// same circuit object drives the full run and the resumed half.
  void resume_circuit(const qsim::Circuit& circuit);

  std::uint64_t gate_cursor() const { return gate_cursor_; }

  // --- State queries (decompress read-only; no fidelity cost) ---

  /// Probability that `qubit` measures |1>.
  double probability_one(int qubit);

  /// Sum of squared magnitudes over the full compressed state.
  double norm();

  /// Full state as interleaved re/im doubles. Only for testing-scale
  /// qubit counts (refuses above 26 qubits).
  std::vector<double> to_raw();

  std::vector<qsim::Amplitude> to_amplitudes();

  /// Statistical assertion (quantum-program debugging, Section 1): checks
  /// that qubit's P(|1>) is within `tolerance` of `expected`.
  bool assert_probability(int qubit, double expected, double tolerance);

  /// Expectation of the Pauli-Z string over the qubits in `qubit_mask`:
  /// sum_i (-1)^{popcount(i & mask)} |a_i|^2. With mask = (1<<a)|(1<<b)
  /// this is <Z_a Z_b>, the QAOA MAXCUT cost observable.
  double expectation_pauli_z(std::uint64_t qubit_mask);

  /// Samples one basis state from the compressed distribution without
  /// collapsing (the paper's sampling workloads read the final state).
  std::uint64_t sample(Rng& rng);

  // --- Intermediate measurement (Section 2.2's motivating capability) ---

  /// Projective measurement; collapses, renormalizes, recompresses. Like
  /// an ad-hoc apply(), collapse voids the recorded resume cursor.
  int measure(int qubit, Rng& rng);

  // --- Compression state ---

  int ladder_level() const { return level_; }
  double fidelity_bound() const { return fidelity_.bound(); }
  std::size_t compressed_bytes() const;
  double compression_ratio() const;

  // --- Checkpointing (Section 3.5) ---

  void save_checkpoint(const std::string& path) const;
  static CompressedStateSimulator load_checkpoint(const std::string& path,
                                                  SimConfig config);

  // --- Fault tolerance (auto-checkpointed recovery) ---

  /// Runs `circuit` to completion, surviving transport faults: on a
  /// kTimeout / kRankDead / kFrameCorrupt the failed simulator is torn
  /// down (joining its thread pool and reaping the transport's rank
  /// processes), the loop backs off exponentially, and a fresh simulator
  /// — respawned rank endpoints included — reloads the last autosave at
  /// config.auto_checkpoint_path (or restarts from scratch when none
  /// exists yet) and resumes. Autosaves land at run boundaries, so a
  /// recovered run is bit-identical to the fault-free one. ENOSPC spill
  /// degradation (SimConfig::spill_degrade_on_enospc) is forced on.
  /// After max_recoveries the last fault is rethrown; kProtocol errors
  /// (bugs, not faults) are never retried. Returns the completed
  /// simulator, whose report carries the recovery counters.
  static CompressedStateSimulator run_resilient(
      SimConfig config, const qsim::Circuit& circuit,
      const RecoveryOptions& options = {});

  SimulationReport report() const;

  /// The communicator carrying this run's exchanges — benches and the
  /// rank launcher read its transport (wire stats; the socket backend's
  /// rank-process table) through this.
  runtime::Comm& comm() { return *comm_; }
  const runtime::Comm& comm() const { return *comm_; }

 private:
  struct GateRouting;  // resolved target/control segmentation
  struct RunPlan;      // resolved kernels + cache identity of one gate run
  struct UnitSpec;     // one single-block unit task (cache id + kernels)

  /// Copyable relaxed counter so the simulator stays movable (checkpoint
  /// load returns by value) while workers bump it concurrently.
  struct InvocationCounter {
    mutable std::atomic<std::uint64_t> value{0};
    InvocationCounter() = default;
    InvocationCounter(const InvocationCounter& other)
        : value(other.get()) {}
    InvocationCounter& operator=(const InvocationCounter& other) {
      value.store(other.get(), std::memory_order_relaxed);
      return *this;
    }
    void bump() const { value.fetch_add(1, std::memory_order_relaxed); }
    std::uint64_t get() const {
      return value.load(std::memory_order_relaxed);
    }
  };

  /// Per-worker codec call attribution: wall seconds and invocation
  /// counts split by codec class (lossless zx vs the configured lossy
  /// codec), merged into the report. Counts are deterministic across
  /// worker counts when the block cache is off; seconds are wall-clock.
  struct CodecCallStats {
    double lossless_compress_seconds = 0.0;
    double lossy_compress_seconds = 0.0;
    double lossless_decompress_seconds = 0.0;
    double lossy_decompress_seconds = 0.0;
    std::uint64_t lossless_compress_calls = 0;
    std::uint64_t lossy_compress_calls = 0;
    std::uint64_t lossless_decompress_calls = 0;
    std::uint64_t lossy_decompress_calls = 0;
  };

  void init_blocks();
  int global_block(int rank, int block) const {
    return rank * partition_.blocks_per_rank() + block;
  }
  /// Compresses one block at `level`, letting the codec arbiter pick
  /// lossless vs. the configured lossy codec per block. Returns the
  /// payload plus the BlockMeta (level + codec id) describing it. The
  /// worker index selects the timer slot and the pooled CodecScratch, so
  /// steady-state calls only allocate the returned payload.
  std::pair<Bytes, runtime::BlockMeta> encode_block(
      std::span<const double> data, int level, int rank, int block,
      std::size_t worker) const;
  void decompress_block(int rank, int block, std::span<double> out,
                        std::size_t worker) const;
  void decompress_payload(ByteSpan payload, const runtime::BlockMeta& meta,
                          std::span<double> out, std::size_t worker) const;

  /// Shared tail of apply_circuit / resume_circuit: applies the ops of
  /// `circuit` from gate_cursor_ to the end in autosave-interval-aligned
  /// chunks of source gates, saving a checkpoint between chunks when
  /// auto-checkpointing is on. Chunk boundaries are the only cursor
  /// positions where the applied state is an exact source-gate prefix
  /// (fusion emits buffered single-qubit runs out of source order), so
  /// they are the only places an autosave may cut.
  void run_from_cursor(const qsim::Circuit& circuit);
  /// One chunk of run_from_cursor: applies ops [gate_cursor_, end) —
  /// through the qubit-remap pre-pass whenever remapping is on or the
  /// layout is already non-identity — batched through the gate-run
  /// scheduler, advancing the cursor in source-gate units.
  void run_source_range(const qsim::Circuit& circuit, std::size_t end);
  /// Applies one contiguous stretch of already-physical ops through the
  /// gate-run scheduler, advancing the cursor. `origin_counts` carries
  /// per-op source-gate weights when the ops were fused before planning
  /// (null = every op weighs 1 and the scheduler may fuse internally).
  void run_segment(const qsim::Circuit& segment,
                   const std::vector<std::size_t>* origin_counts = nullptr);
  /// One physical exchange sweep trading a rank-segment position for an
  /// offset-segment position (the data half of a RemapOp; the caller
  /// mirrors the swap into map_).
  void apply_remap(const qsim::RemapStep& step);
  /// `op` with its qubits rewritten into the current physical layout.
  qsim::GateOp to_physical(const qsim::GateOp& op) const;
  void apply_single_counted(const qsim::GateOp& op);

  void apply_impl(const qsim::GateOp& op);
  /// One codec pass per block for a block-local gate run: decompress once,
  /// apply every kernel in scratch, recompress once.
  void apply_run(const qsim::Circuit& circuit, const qsim::GateRun& run);
  RunPlan build_run_plan(const qsim::Circuit& circuit,
                         const qsim::GateRun& run) const;
  void process_pair(const GateRouting& routing, int rank_a, int block_a,
                    int rank_b, int block_b, std::size_t worker);

  // --- Single-block unit executor ---

  /// Runs every (rank, block) unit on the pool: cache probe, then
  /// decompress, spec.compute, recompress, cache insert and store.
  void run_units(const std::vector<std::pair<int, int>>& units,
                 const UnitSpec& spec);
  void run_diagonal(const GateRouting& routing);
  void run_offset_target(const GateRouting& routing);
  void run_block_target(const GateRouting& routing);
  void run_rank_target(const GateRouting& routing);

  // --- Out-of-core tier maintenance (Section 3.7 extended: the resident
  // --- tier is what the Eq. 8 budget governs once spilling is on) ---

  /// Settles finished write-behind spills, then enqueues enough async
  /// evictions to bring projected resident bytes under the resident
  /// budget, and refreshes the streaming-spill flag. Called between
  /// parallel regions (gate boundaries, measure, checkpoint restore).
  void maintain_tiers();
  /// Waits for every pending write-behind job and commits the ones whose
  /// block is still untouched. The first job failure (ENOSPC etc.) is
  /// rethrown after all jobs settle, so no future is abandoned.
  void settle_pending_spills();
  /// Waits for every pending write-behind job and discards it: finished
  /// segments go back to the spill free-list, write failures are swallowed
  /// (the state they belonged to is being thrown away). Required before
  /// replacing ranks_ wholesale (checkpoint restore) — per-slot generation
  /// counters restart in the new stores, so a settle after the swap would
  /// wrongly commit pre-swap segments onto freshly loaded blocks.
  void discard_pending_spills();
  /// Streaming spill: once the state exceeds the resident budget, every
  /// freshly (re)compressed block is moved to the spill tier as soon as
  /// its owning worker stores it. Unconditional while the flag is set, so
  /// the spill/fault counts stay schedule-independent.
  void maybe_stream_spill(int rank, int block);
  /// Resident bytes minus spill writes already in flight — what
  /// enforce_budget compares against the (memory) budget. Equals
  /// compressed_bytes() whenever spilling is off.
  std::size_t resident_occupancy() const;

  /// Escalates the error ladder and recompresses every block until the
  /// compressed total fits the budget (or the ladder is exhausted).
  void enforce_budget();
  /// Recompresses every block at `new_level`; returns how many blocks the
  /// arbiter actually sent through the lossy codec (adaptive blocks can
  /// stay lossless), so the caller records a fidelity pass only when one
  /// happened.
  std::uint64_t recompress_all(int new_level);
  void note_gate_finished(double gate_seconds);
  /// Saves to auto_checkpoint_path when checkpoint_interval_gates more
  /// gates have completed since the last autosave. Called only where the
  /// gate cursor is consistent with the applied state (run boundaries), so
  /// a resume from the file never re-applies or skips a gate. A failed
  /// autosave is counted, not fatal — the previous file survives the
  /// atomic save, so recovery just loses the newest interval.
  void maybe_autosave();
  /// True once a mid-run ENOSPC disabled the spill tier.
  bool degraded() const { return spill_degraded_.get() > 0; }

  bool controls_satisfied_block(const GateRouting& routing, int rank,
                                int block) const;

  /// One write-behind spill in flight: a pool job owns the payload handle
  /// and fills `segment`; the main thread commits (or discards) it at the
  /// next settle, gated on the block's generation.
  struct PendingSpill {
    int rank = 0;
    int block = 0;
    std::uint64_t generation = 0;
    std::size_t bytes = 0;
    std::shared_ptr<runtime::SpillSegment> segment;
    std::future<void> done;
  };

  SimConfig config_;
  runtime::Partition partition_;
  // Declared before ranks_ (and destroyed after them): the stores return
  // their segments to spill_ in their destructors.
  std::unique_ptr<runtime::TierStats> tier_stats_;
  std::unique_ptr<runtime::SpillFile> spill_;
  std::vector<runtime::BlockStore> ranks_;
  std::vector<std::unique_ptr<runtime::BlockCache>> caches_;
  std::unique_ptr<runtime::Comm> comm_;
  std::unique_ptr<compression::Compressor> lossless_;
  std::unique_ptr<compression::Compressor> lossy_;
  std::uint8_t lossy_codec_id_ = compression::kLosslessCodecId;
  std::unique_ptr<runtime::CodecArbiter> arbiter_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<runtime::ScratchArena> scratch_;
  mutable std::vector<PhaseTimers> worker_timers_;
  mutable std::vector<CodecCallStats> codec_stats_;  // one per worker

  int level_ = 0;  ///< 0 = lossless; k > 0 = error_ladder[k-1]
  FidelityTracker fidelity_;
  std::uint64_t gate_cursor_ = 0;

  /// Kernel backend the apply loops dispatch to (detected once at
  /// construction from config_.enable_simd_kernels and the host CPU).
  qsim::KernelBackend backend_ = qsim::KernelBackend::kScalar;

  // Qubit remapping (logical->physical relabeling).
  runtime::QubitMap map_;
  /// Bumped on every map mutation; joins cache keys so cached outputs
  /// stay pure functions of their inputs across relabels.
  std::uint64_t map_generation_ = 0;
  std::vector<std::uint64_t> remap_last_use_;  ///< kLru recency, by logical
  std::uint64_t remap_tick_ = 0;

  // Statistics.
  std::uint64_t gates_ = 0;
  std::uint64_t batched_runs_ = 0;
  std::uint64_t batched_gates_ = 0;  ///< scheduled ops applied inside runs
  std::uint64_t remap_sweeps_ = 0;
  std::uint64_t swaps_relabeled_ = 0;
  std::uint64_t rank_gates_localized_ = 0;
  std::uint64_t rank_gates_in_place_ = 0;
  std::uint64_t remap_sweeps_avoided_ = 0;
  InvocationCounter compress_calls_;
  InvocationCounter decompress_calls_;
  double wall_seconds_ = 0.0;
  double min_ratio_ = 0.0;  ///< 0 until first gate
  bool budget_exceeded_ = false;

  // Out-of-core bookkeeping (mutated between parallel regions only).
  std::vector<PendingSpill> pending_spills_;
  std::size_t pending_spill_bytes_ = 0;
  std::size_t evict_cursor_ = 0;  ///< round-robin global block scan position
  bool stream_spill_ = false;

  // Fault tolerance. spill_degraded_ / spill_write_failures_ are bumped by
  // workers when a streaming spill hits ENOSPC under degradation, hence
  // the copyable-atomic counters; the autosave fields are main-thread only
  // (run boundaries). recoveries_ / recovery_backoff_ms_ are stamped onto
  // the final simulator by run_resilient so the report can carry them.
  InvocationCounter spill_degraded_;        ///< > 0 once spilling disabled
  InvocationCounter spill_write_failures_;  ///< ENOSPC writes ridden out
  std::uint64_t autosaves_ = 0;
  std::uint64_t autosave_failures_ = 0;
  double autosave_seconds_ = 0.0;
  std::uint64_t gates_at_last_autosave_ = 0;  ///< gate_cursor_ at last save
  std::uint64_t recoveries_ = 0;
  std::uint64_t recovery_backoff_ms_ = 0;
};

}  // namespace cqs::core
