// The benchmark's four workloads, their read phases and the correctness
// checks every run applies to them. The seed given on the command line sets
// the Grover marked state and every workload's sampling stream; the QFT and
// supremacy circuits are fixed instances (see workloads.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/simulator.hpp"
#include "qsim/circuit.hpp"
#include "qsim/state_vector.hpp"
#include "spans.hpp"

namespace perfbench {

using cqs::core::CompressedStateSimulator;
using cqs::core::SimConfig;
using cqs::qsim::Circuit;

/// Read phase shape: QFT and supremacy draw samples and Pauli-Z
/// expectations; Grover draws samples and P(|1>) of every data qubit.
enum class ReadKind { kSamplesAndExpectations, kSamplesAndMarginals };

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  SimConfig config;
  ReadKind read = ReadKind::kSamplesAndExpectations;
  std::vector<std::uint64_t> z_masks;  ///< expectation masks (logical bits)
  int grover_data_qubits = 0;
  int grover_iterations = 0;
  std::uint64_t grover_marked = 0;

  /// Generates the workload's circuit from the seed.
  Circuit build_circuit() const;
};

/// One worker: on the shared 4-vCPU machine the bounds were set on, every
/// extra worker puts a vCPU wake-up on the critical path, and its latency
/// follows the host's load. At 2 workers setup_s (dominated by starting
/// the pool) moved between 0.65 and 3.6 ms within ten runs; at 1 worker it
/// stayed within 0.27-0.41 ms. At 4 workers the run-to-run spread of run_s
/// was 19% of the median, at 1 or 2 workers 7-8%. The traced run measures
/// the 2-worker executor separately.
inline constexpr int kThreads = 1;
inline constexpr int kShots = 8;
inline constexpr double kRepeatTolerance = 1e-12;

/// Throws std::invalid_argument for an unknown name. Spill and checkpoint
/// files of the workload are placed under `scratch_dir`.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& scratch_dir);

/// Outputs of one read phase plus the wall time of each call.
struct ReadOutput {
  std::vector<std::uint64_t> samples;
  std::vector<double> values;  ///< expectations or marginals, in call order
  std::vector<double> sample_seconds;
  std::vector<double> value_seconds;

  /// Same samples, and values within kRepeatTolerance: the simulator's
  /// reductions sum per-worker partials, so their last bits depend on which
  /// worker took which block.
  bool agrees_with(const ReadOutput& other) const;
};

/// Runs the workload's read phase, one span per call.
ReadOutput read_phase(const Workload& workload, CompressedStateSimulator& sim,
                      Tracer& tracer);

/// Running tally of correctness checks; failures are kept for the log.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what);
};

/// What a workload's outputs must equal: the dense qsim::StateVector run of
/// the same circuit for QFT and supremacy, the closed-form Grover state for
/// Grover. Built after the timed region.
class Reference {
 public:
  Reference(const Workload& workload, const Circuit& circuit, Tracer& tracer);

  /// Seconds of the single-thread dense apply_circuit, or nullopt when the
  /// reference is closed-form.
  std::optional<double> dense_seconds() const { return dense_seconds_; }

  /// Checks the values and samples of one read phase. `fidelity_bound` and
  /// `norm` widen the tolerance on expectations for lossy states.
  void check_read(const ReadOutput& out, double fidelity_bound, double norm,
                  Checks& checks) const;

  /// Checks the full final state and returns |<ref|psi>|^2.
  double check_state(CompressedStateSimulator& sim, double fidelity_bound,
                     Checks& checks) const;

 private:
  double closed_form_amplitude(std::uint64_t basis) const;

  const Workload& workload_;
  std::optional<cqs::qsim::StateVector> dense_;
  std::optional<double> dense_seconds_;
  std::vector<double> expected_values_;
  double grover_marked_amp_ = 0.0;
  double grover_other_amp_ = 0.0;
};

}  // namespace perfbench
