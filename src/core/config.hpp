// Configuration of the compressed-state simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cqs::core {

struct SimConfig {
  int num_qubits = 8;

  /// Logical MPI-style ranks (power of two). The state vector is divided
  /// equally across ranks (Section 3.1).
  int num_ranks = 1;

  /// Compressed blocks per rank (power of two). The paper uses blocks of
  /// 2^20 amplitudes (16 MB); at reduced qubit counts we use more, smaller
  /// blocks so the blocking machinery is still exercised.
  int blocks_per_rank = 4;

  /// Lossy codec name (make_compressor key): "qzc" (Solution C, the
  /// paper's default), "qzc-shuffle" (D), "sz" (A), "sz-complex" (B),
  /// "zfp", "fpzip". "zstd" forces a lossless-only simulation.
  std::string codec = "qzc";

  /// Per-block codec policy. "fixed" compresses every block with `codec`
  /// at any lossy ladder level (the paper's single-codec runs). "adaptive"
  /// lets the codec arbiter (runtime/codec_arbiter.hpp) inspect each
  /// block's statistics at every recompression and keep sparse/spiky
  /// blocks on the lossless zero-suppressing path even at a lossy level —
  /// the Figs. 9-14 observation that state structure dictates which codec
  /// wins.
  std::string codec_policy = "fixed";

  /// Adaptive policy: a block whose exact-zero double fraction is at or
  /// above this stays lossless (zero suppression beats quantization).
  double adaptive_zero_fraction = 0.75;

  /// Adaptive policy: a block whose nonzero magnitudes span at most this
  /// many bits (log2 max/min) stays lossless — uniform-magnitude states
  /// (GHZ, QFT of basis inputs, Grover superpositions) are repeated bit
  /// patterns that LZ matching removes and quantization cannot improve.
  double adaptive_dynamic_range = 1.0;

  /// Adaptive policy: a block whose max/mean nonzero magnitude ratio is at
  /// or above this (extremely spiky) stays lossless.
  double adaptive_spikiness = 1e6;

  /// Half-width of the hysteresis band around the adaptive thresholds: a
  /// block flips codec only when its signal leaves the band, so blocks
  /// near a threshold don't thrash between codecs across passes. Additive
  /// on zero fraction and on dynamic-range bits, multiplicative (1 +- h)
  /// on spikiness. In [0, 0.5).
  double adaptive_hysteresis = 0.1;

  /// Error-bound ladder (Section 3.7): level 0 is lossless Zstd; level k
  /// compresses with pointwise relative bound ladder[k-1]. Whenever the
  /// memory budget is exceeded the level escalates to the next entry.
  std::vector<double> error_ladder = {1e-5, 1e-4, 1e-3, 1e-2, 1e-1};

  /// zfp fixed-precision mode: if > 0, the zfp-family codec ("zfp" or
  /// "zfp-rans") keeps exactly this many bit planes per block regardless
  /// of the ladder bound. Validated at construction: must be in
  /// [0, zfp::kTotalPlanes] (= 62), requires a zfp-family codec, and is
  /// mutually exclusive with zfp_fixed_accuracy. 0 = off.
  int zfp_fixed_precision = 0;

  /// zfp fixed-accuracy mode (the zfp_stream_set_accuracy idiom): drive
  /// the per-block plane cutoff directly from the active error-ladder
  /// delta as an *absolute* tolerance, skipping the pointwise-relative
  /// log-preprocessing wrapper. Cheaper and tighter for amplitude data
  /// whose magnitudes cluster near the unit sphere; the recorded ladder
  /// delta still captures the pass's bound for the fidelity certificate.
  /// Requires a zfp-family codec; mutually exclusive with
  /// zfp_fixed_precision.
  bool zfp_fixed_accuracy = false;

  /// Total bytes the compressed state may occupy (the sum term of Eq. 8,
  /// excluding scratch). 0 = unlimited (stay lossless).
  std::size_t memory_budget_bytes = 0;

  /// Ladder level to start at (0 = lossless-first hybrid, the paper's
  /// default; >0 starts lossy, used by some ablations).
  int initial_level = 0;

  /// Worker threads (0 = hardware concurrency).
  int threads = 0;

  /// Compressed block cache (Section 3.4).
  bool enable_cache = true;
  std::size_t cache_lines = 64;

  // Gate-run batching: the scheduler groups maximal runs of consecutive
  // gates whose targets and controls all fall in the offset segment, and
  // each block pays one decompress -> apply-run -> recompress round per
  // run instead of per gate. Gates that touch the block or rank segments
  // run alone, one codec sweep each.
  //
  // Eq. 11 pass rule: the fidelity ledger records one lossy pass per codec
  // sweep that wrote at least one lossy block. A block-local run is one
  // sweep, so a block-local SWAP costs 1 pass. A SWAP with a qubit in the
  // block or rank segment runs as three CX sweeps and costs 3. A remap
  // exchange sweep, a ladder recompression and a measurement collapse
  // cost 1 each.

  /// Cap on scheduled ops per run (0 = unlimited). Shorter runs mean more
  /// frequent memory-budget checks between codec passes; when a memory
  /// budget is set and this is 0, the simulator caps runs at 16 ops so
  /// ladder escalation stays responsive mid-stretch. 1 with
  /// enable_fusion_prepass off is the per-gate baseline: every gate pays
  /// its own codec round, applied verbatim.
  std::size_t max_run_length = 0;

  /// Compose fuse_single_qubit_gates as a scheduler pre-pass.
  bool enable_fusion_prepass = true;

  /// Logical->physical qubit remapping (Intel-QS-style relabeling over
  /// Section 3.3's partitioning). When on, the scheduler's remap pre-pass
  /// rewrites gates through the current qubit map, absorbs SWAPs into the
  /// map, and trades each hot rank-segment qubit into the offset segment
  /// with a single exchange sweep so later gates on it route block-locally
  /// — instead of one compressed-block exchange per gate. Off by default:
  /// the identity layout reproduces the paper's communication behavior.
  bool enable_qubit_remap = false;

  /// Cold-qubit selection when a remap must evict an offset-segment
  /// resident. "lookahead" (default) plans with the remaining circuit:
  /// last-touch rank gates are paid in place and evictions pick the
  /// resident targeted furthest in the future. "lru" is the classic
  /// history-only policy: always remap, evict the least-recently-used.
  std::string remap_policy = "lookahead";

  /// Absorb SWAP gates into the qubit map (free relabels) instead of
  /// expanding them into three CX sweeps. Exact up to the sign of zero
  /// components the skipped X kernels would have recomputed.
  bool remap_relabel_swaps = true;

  /// Runtime-dispatched SIMD apply kernels (AVX2/NEON). Bit-identical to
  /// the scalar reference by construction; off forces the scalar path.
  bool enable_simd_kernels = true;

  /// Cross-rank transport backend (runtime/transport.hpp). "loopback"
  /// keeps all ranks in-process (the staged-copy model, the default);
  /// "socket" runs each rank as a real OS process joined by a stream
  /// socket — exchanged payloads traverse the wire as checksummed frames
  /// and states stay bit-identical to loopback. "socket" requires the
  /// CQS_TRANSPORT_SOCKET build and num_ranks >= 2.
  std::string transport = "loopback";

  /// Deadline (milliseconds) for every blocking wire operation on process
  /// transports: connect, send, recv. A rank that dies, stalls, or
  /// corrupts frames fails the exchange with a typed TransportError
  /// within this bound — an exchange can never hang. Must be positive.
  int rank_timeout_ms = 5000;

  /// Socket-transport endpoint flavor: "local" = a pre-connected
  /// Unix-domain socketpair per rank process; "tcp" = rank processes
  /// connect back to an ephemeral 127.0.0.1 listener.
  std::string socket_endpoint = "local";

  /// Out-of-core spill tier. Non-empty enables it: cold compressed blocks
  /// move to an unlinked scratch file created at this path (one segment
  /// per block, mmap readback) whenever the resident tier exceeds
  /// resident_budget_bytes. Tier moves are byte-preserving, so results
  /// are bit-identical to a spill-off run. Requires a resident budget.
  std::string spill_path;

  /// Compressed bytes the *resident* (in-memory) tier may hold when the
  /// spill tier is enabled; the excess is written behind to the spill
  /// file. With spilling on, memory_budget_bytes (the Eq. 8 enforcement)
  /// also governs the resident tier — bytes parked on NVMe no longer
  /// count against the in-memory budget. Must be > 0 when spill_path is
  /// set, 0 otherwise.
  std::size_t resident_budget_bytes = 0;

  /// Spilled blocks to advise (madvise WILLNEED) ahead of the executor's
  /// cursor, keyed on the scheduler's block order — the plan-driven
  /// readahead window. 0 disables readahead. In [0, 4096].
  int readahead_blocks = 4;

  /// Auto-checkpointing: the executors consume circuits in chunks of
  /// this many source gates (boundaries at absolute multiples of the
  /// interval) and save an atomic checkpoint to auto_checkpoint_path
  /// after each chunk. The interval is a scheduling cut: fused ops and
  /// gate runs never span a boundary, so a resume from the autosave
  /// re-chunks identically and is bit-identical to the uninterrupted
  /// autosaved run. (Like any scheduling knob, changing the interval
  /// reassociates fusion arithmetic relative to an autosave-off run.)
  /// 0 disables autosaving. Both knobs must be set together.
  std::uint64_t checkpoint_interval_gates = 0;
  std::string auto_checkpoint_path;

  /// Mid-run ENOSPC degradation: when a spill write fails with ENOSPC,
  /// settle what's already on disk, disable further spilling, and keep
  /// running with the whole working set resident — the Eq. 8 memory
  /// budget still governs via the error ladder, and only if the state
  /// cannot fit even at the last ladder level does the run fail with the
  /// original typed SpillError. Off by default (a disk-full spill fails
  /// the run immediately); run_resilient() forces it on. The report's
  /// `degraded` flag records that the fallback engaged.
  bool spill_degrade_on_enospc = false;
};

}  // namespace cqs::core
