// Block-local gate-run scheduler. The compressed simulator pays one
// decompress -> apply -> recompress round per touched block per gate; when
// consecutive gates all route to the offset segment of the amplitude index
// (Figure 3's intra-block case), every block can instead be decompressed
// once, have the whole run applied in scratch, and be recompressed once —
// one codec pass (and one lossy fidelity pass) per run instead of per
// gate. This pass partitions a circuit into maximal such runs,
// interleaved with single-gate items for gates that touch the block or
// rank segments, and composes single-qubit gate fusion as a pre-pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "qsim/circuit.hpp"
#include "qsim/fusion.hpp"
#include "runtime/qubit_map.hpp"

namespace cqs::qsim {

struct SchedulerOptions {
  /// Qubits with index < intra_qubits address amplitudes within one block
  /// (the partition's offset segment). A gate is block-local when its
  /// target and every control fall below this line.
  int intra_qubits = 0;

  /// Cap on scheduled ops per run (0 = unlimited). Shorter runs trade
  /// batching for more frequent memory-budget checks between codec passes.
  std::size_t max_run_length = 0;

  /// Run fuse_single_qubit_gates before forming runs.
  bool fuse = true;
};

/// One schedule item: `count` consecutive ops of the scheduled circuit
/// starting at `first`. Block-local items may hold many ops; items that
/// touch the block or rank segments always hold exactly one.
struct GateRun {
  std::size_t first = 0;
  std::size_t count = 0;
  /// Ops of the *source* circuit this item stands for (fusion can fold
  /// several source gates into one scheduled op). Summed over all items
  /// this equals the source circuit's size, which is what keeps the
  /// simulator's resume cursor counting in source-circuit units.
  std::size_t source_gates = 0;
  bool block_local = false;
};

struct ScheduleStats {
  std::size_t block_local_runs = 0;  ///< items applied as one codec pass
  std::size_t batched_ops = 0;       ///< scheduled ops inside those items
  std::size_t single_items = 0;      ///< block/rank-segment items
  std::size_t longest_run = 0;
  FusionStats fusion;                ///< zeroed when options.fuse is false
};

/// True when every qubit `op` touches lies in the offset segment, so the
/// gate can join a block-local run. SWAP qualifies when both of its qubits
/// do (the simulator expands it into three intra-block CX applications).
bool is_block_local(const GateOp& op, int intra_qubits);

class Schedule {
 public:
  /// The scheduled (post-fusion) circuit the run indices refer to.
  const Circuit& circuit() const { return circuit_; }
  const std::vector<GateRun>& runs() const { return runs_; }
  const ScheduleStats& stats() const { return stats_; }

 private:
  friend Schedule build_schedule(const Circuit&, const SchedulerOptions&,
                                 const std::vector<std::size_t>*);
  explicit Schedule(Circuit circuit) : circuit_(std::move(circuit)) {}

  Circuit circuit_;
  std::vector<GateRun> runs_;
  ScheduleStats stats_;
};

/// The future block order of one block-local run: every (rank, block)
/// unit the run will touch, in the order the executor hands them out.
/// Block-local runs touch every block of every rank exactly once,
/// rank-major — this is what lets the spill tier's readahead advise
/// upcoming blocks before the executor reaches them.
std::vector<std::pair<int, int>> run_block_order(int num_ranks,
                                                 int blocks_per_rank);

/// The next `lookahead` units of `order` after (and excluding) position
/// `cursor` — the readahead window the out-of-core tier advises while the
/// unit at `cursor` is being processed. Clamped at the end of the order;
/// a cursor at or past the end yields an empty window.
std::vector<std::pair<int, int>> upcoming_units(
    const std::vector<std::pair<int, int>>& order, std::size_t cursor,
    std::size_t lookahead);

/// Builds the run partition of `circuit`. Every op of the (post-fusion)
/// circuit belongs to exactly one GateRun, runs preserve program order,
/// and block-local runs are maximal under options.max_run_length.
///
/// When `origin_counts` is non-null the circuit is taken as already
/// processed (the remap pre-pass fuses before planning so segment
/// boundaries cannot change which gates fuse): options.fuse is ignored,
/// no fusion runs, and each op's source-gate weight is read from the
/// array, which must hold one entry per op.
Schedule build_schedule(const Circuit& circuit,
                        const SchedulerOptions& options,
                        const std::vector<std::size_t>* origin_counts =
                            nullptr);

// ---------------------------------------------------------------------------
// Remap pre-pass: logical->physical rewriting + cross-rank avoidance.
//
// The simulator stores amplitudes in a physical layout described by a
// runtime::QubitMap. Before gates are scheduled into runs, this pass walks
// the logical circuit in order and
//   - rewrites every op's qubits through the evolving map,
//   - absorbs SWAP gates into the map as free relabels (optional),
//   - and, when a non-diagonal gate's physical target lands in the rank
//     segment (the only case that forces compressed-block exchanges
//     through Comm), either emits a RemapStep — one physical exchange
//     sweep that trades the hot rank position for a cold offset-segment
//     position — or proves paying the single exchange in place is cheaper
//     (the gate is the qubit's last non-diagonal touch).
// Diagonal gates and gates whose rank-segment involvement is control-only
// are routed locally by the simulator already and never trigger a remap.
// ---------------------------------------------------------------------------

enum class RemapPolicy {
  /// Uses full knowledge of the remaining circuit: a hot rank target
  /// remaps only when a truly cold offset resident exists (zero remaining
  /// non-diagonal target uses, preferring the fewest-then-furthest
  /// candidate), so every emitted remap deletes all of the hot qubit's
  /// future exchange sweeps and adds none; otherwise — including for a
  /// last-touch gate — the single sweep is paid in place, which is never
  /// worse than the identity layout. Deterministic given (map, remaining
  /// ops), so a checkpoint-resumed suffix plans exactly like the
  /// uninterrupted run planned its tail.
  kLookahead,
  /// Classic Intel-QS behavior: always remap a hot rank target, evicting
  /// the least-recently-used offset resident. Uses only past knowledge.
  kLru,
};

RemapPolicy parse_remap_policy(const std::string& name);

/// `op` with every qubit rewritten through `map`: the target and any
/// non-negative control (SWAP's second qubit lives in controls[0], so it
/// is covered). Shared by the remap pre-pass and the simulator's ad-hoc
/// apply() so the two translation paths cannot diverge.
GateOp translated_through(const GateOp& op, const runtime::QubitMap& map);

struct RemapOptions {
  /// When false, the pass only rewrites ops through the map (needed
  /// whenever the map is non-identity, e.g. after a v4 checkpoint resume)
  /// and emits no remaps or relabels.
  bool enabled = false;
  RemapPolicy policy = RemapPolicy::kLookahead;
  /// Absorb SWAP gates into the map instead of expanding them into three
  /// CX sweeps. Semantically exact; skips the X-kernel arithmetic, so
  /// signed zeros in moved amplitudes can differ from the expanded path.
  bool relabel_swaps = true;
  int num_qubits = 0;
  int offset_bits = 0;  ///< physical [0, offset_bits) = block-local
  int block_bits = 0;   ///< next block_bits = same-rank; rest = rank segment
};

/// One physical exchange sweep: every block pair across rank bit
/// `phys_hot` swaps its offset-bit-`phys_cold` halves, after which the
/// logical occupants of the two positions have traded places.
struct RemapStep {
  int phys_hot = 0;   ///< rank-segment physical position being vacated
  int phys_cold = 0;  ///< offset-segment physical position moving up
};

struct RemapStats {
  std::size_t remaps = 0;            ///< RemapSteps emitted
  std::size_t swaps_relabeled = 0;   ///< SWAP gates absorbed into the map
  /// Non-diagonal gates whose *logical* target sits in the rank segment
  /// (they would pay an exchange sweep under the identity layout) that
  /// executed block- or rank-locally thanks to the map.
  std::size_t rank_targets_localized = 0;
  /// Non-diagonal gates that still executed with a rank-segment physical
  /// target (last-touch in-place applications and unavoidable residue).
  std::size_t rank_targets_in_place = 0;
  /// Exchange *sweeps* the identity layout would have paid that the
  /// remapped program does not (relabeled swap legs included, emitted
  /// RemapSteps already deducted). Multiply by block-pairs-per-sweep for
  /// the exchange count.
  std::size_t sweeps_avoided = 0;
};

/// The remapped program: executed strictly in order by the simulator,
/// which mirrors every kRemap/kRelabel item into its persistent map.
struct RemapItem {
  enum class Kind { kRemap, kRelabel, kGates };
  Kind kind = Kind::kGates;
  RemapStep remap{};                    ///< kRemap
  int relabel_a = 0, relabel_b = 0;     ///< kRelabel: logical qubit pair
  std::size_t relabel_source_gates = 1;  ///< kRelabel: cursor weight
  /// kGates: physical-index ops. (Initialized to a 1-qubit placeholder;
  /// Circuit refuses zero-qubit construction.)
  Circuit ops{1};
  /// kGates: source-gate weight per op (all 1 unless the caller fused the
  /// circuit before planning and passed origin counts).
  std::vector<std::size_t> source_gates;
};

struct RemapProgram {
  std::vector<RemapItem> items;
  RemapStats stats;
};

/// Plans the remapped form of `circuit` starting from `map`. `last_use` /
/// `tick` carry the kLru recency state across calls (both may be null for
/// kLookahead); `last_use` must have one entry per logical qubit.
/// `origin_counts` (one entry per op) carries source-gate weights when the
/// caller fused the circuit first; null means every op weighs 1.
RemapProgram plan_remaps(const Circuit& circuit,
                         const runtime::QubitMap& map,
                         const RemapOptions& options,
                         std::vector<std::uint64_t>* last_use = nullptr,
                         std::uint64_t* tick = nullptr,
                         const std::vector<std::size_t>* origin_counts =
                             nullptr);

}  // namespace cqs::qsim
