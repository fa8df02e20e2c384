// Probes of single layers for the traced run: each calls one layer's
// public functions on the workload's own data inside a span.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/simulator.hpp"
#include "qsim/circuit.hpp"
#include "spans.hpp"

namespace perfbench {

struct ScheduleProbe {
  double fusion_seconds = 0.0;    ///< fuse_single_qubit_gates, median
  double schedule_seconds = 0.0;  ///< build_schedule of the fused circuit
  std::size_t runs = 0;           ///< block-local runs
  double ops_per_run = 0.0;
};

/// Replays fusion and the gate-run scheduler with the options the
/// simulator derives from `config`.
ScheduleProbe probe_schedule(const cqs::qsim::Circuit& circuit,
                             const cqs::core::SimConfig& config,
                             Tracer& tracer);

/// pair_kernel + mix_kernel over one block of `block_amplitudes` on the
/// detected backend. Returns computed GB/s (each kernel reads and writes
/// every amplitude it is given once).
double probe_kernels(std::size_t block_amplitudes, Tracer& tracer);

struct ReplayProbe {
  double zx_compress_mb_s = 0.0;
  double zx_decompress_mb_s = 0.0;
  double lz77_mb_s = 0.0;
  double zx_ratio = 0.0;
  double lossy_compress_mb_s = 0.0;
  double lossy_decompress_mb_s = 0.0;
  double lossy_ratio = 0.0;
  double lossy_max_rel_error = 0.0;  ///< over nonzero inputs
};

/// Runs zx, lz77 and the lossy `codec` at pointwise relative `bound` over
/// up to `max_blocks` evenly spaced blocks of `raw` (interleaved re/im).
ReplayProbe probe_codecs(const std::vector<double>& raw,
                         std::size_t block_doubles, std::size_t max_blocks,
                         const std::string& codec, double bound,
                         Tracer& tracer);

struct CheckpointProbe {
  double save_seconds = 0.0;
  double load_seconds = 0.0;
  double megabytes = 0.0;
  bool restored_equal = false;  ///< loaded state reads back the same
};

/// save_checkpoint to `path`, load_checkpoint back, compare, delete.
CheckpointProbe probe_checkpoint(cqs::core::CompressedStateSimulator& sim,
                                 const cqs::core::SimConfig& config,
                                 const std::string& path, Tracer& tracer);

/// Single-thread dense qsim::StateVector::apply_circuit, in seconds.
double probe_dense(const cqs::qsim::Circuit& circuit, Tracer& tracer);

}  // namespace perfbench
