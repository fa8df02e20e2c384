#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <stdexcept>

#include "circuits/grover.hpp"
#include "circuits/qft.hpp"
#include "circuits/supremacy.hpp"
#include "common/rng.hpp"
#include "core/memory_model.hpp"

namespace perfbench {

namespace circuits = cqs::circuits;

namespace {

/// Sizes are chosen so one setup -> apply -> read repetition takes 0.3 to
/// 1.2 s at 2 threads: a 30 s run holds 25 to 100 repetitions, and their
/// median is steady although the shared host's speed drifts by 20-30%
/// over tens of seconds.
constexpr int kQftQubits = 18;
constexpr int kGroverDataQubits = 11;
constexpr int kGroverIterations = 2;
/// The supremacy instance is fixed: its gate choices decide when the
/// ladder escalates, and across seeds 1-10 they moved peak_compressed_mb
/// of the 4 x 5 grid between 1.8 and 2.9 MB, more than any change the
/// benchmark should resolve. The seed drives this workload's sampling
/// stream only. On the 3 x 6 grid a 15% budget takes the ladder to level
/// 3; the 4 x 4 grid misses a 15% budget even at the last level.
constexpr int kSupremacyRows = 3;
constexpr int kSupremacyCols = 6;
constexpr std::uint64_t kSupremacyInstance = 11;
/// The QFT X layer is fixed too: qft_circuit seed 32 flips qubit 0, so the
/// input basis state is odd and the state incompressible (an even input
/// with t trailing zeros has period 2^(n-t), which zx compresses). Among
/// odd inputs the layer still decides whether zx stores the final blocks
/// raw or entropy-coded, which moved QFT-20 qft-lossless read_s between
/// 0.020 and 0.056 s across seeds, and, under remapping, whether the state
/// outgrows the resident budget mid-run (input 32: about 600 spills) or
/// only at its last gate run (input 31: 64 spills). QFT-18 on input 32
/// keeps both properties: the state stays incompressible, and 609 blocks
/// spill.
constexpr std::uint64_t kQftInstance = 32;

/// Sampling stream of the read phase; the same in every repetition so the
/// samples of repeated runs can be compared exactly.
cqs::Rng sample_rng(std::uint64_t seed) {
  return cqs::Rng(seed ^ 0x5eed5a3b1e5ull);
}

std::vector<std::uint64_t> fixed_z_masks(int n) {
  const std::uint64_t all = (std::uint64_t{1} << n) - 1;
  return {std::uint64_t{1}, std::uint64_t{1} << (n - 1), std::uint64_t{3},
          0x5555555555555555ull & all};
}

std::size_t fraction_of_requirement(int n, double fraction) {
  return static_cast<std::size_t>(
      fraction * static_cast<double>(cqs::core::memory_required_bytes(n)));
}

double expectation_z(const cqs::qsim::StateVector& sv, std::uint64_t mask) {
  double e = 0.0;
  const auto amps = sv.amplitudes();
  for (std::uint64_t i = 0; i < amps.size(); ++i) {
    const double p = std::norm(amps[i]);
    e += (std::popcount(i & mask) & 1) ? -p : p;
  }
  return e;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& scratch_dir) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.config.threads = kThreads;
  if (name == "qft-lossless") {
    w.config.num_qubits = kQftQubits;
    w.config.num_ranks = 1;
    w.config.blocks_per_rank = 64;
  } else if (name == "supremacy-lossy") {
    w.config.num_qubits = kSupremacyRows * kSupremacyCols;
    w.config.num_ranks = 4;
    w.config.blocks_per_rank = 16;
    w.config.codec = "qzc";
    w.config.codec_policy = "fixed";
    w.config.memory_budget_bytes =
        fraction_of_requirement(w.config.num_qubits, 0.15);
  } else if (name == "grover-sparse") {
    w.read = ReadKind::kSamplesAndMarginals;
    w.grover_data_qubits = kGroverDataQubits;
    w.grover_iterations = kGroverIterations;
    cqs::Rng rng(seed);
    w.grover_marked = rng.next_below(std::uint64_t{1} << kGroverDataQubits);
    w.config.num_qubits = circuits::grover_total_qubits(kGroverDataQubits);
    w.config.num_ranks = 1;
    w.config.blocks_per_rank = 256;
  } else if (name == "qft-outofcore") {
    w.config.num_qubits = kQftQubits;
    w.config.num_ranks = 4;
    w.config.blocks_per_rank = 16;
    // "lru" always trades hot rank qubits into the offset segment, so the
    // run pays remap sweeps; "lookahead" pays none on QFT. Under remapping
    // the state stays compressible until late in the run, so the resident
    // budget is 1% of 2^(n+4); at 25% nothing spilled.
    w.config.enable_qubit_remap = true;
    w.config.remap_policy = "lru";
    w.config.spill_path = scratch_dir + "/spill.bin";
    w.config.resident_budget_bytes = fraction_of_requirement(kQftQubits, 0.01);
    w.config.checkpoint_interval_gates = 40;
    w.config.auto_checkpoint_path = scratch_dir + "/autosave.ckpt";
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (w.read == ReadKind::kSamplesAndExpectations) {
    w.z_masks = fixed_z_masks(w.config.num_qubits);
  }
  return w;
}

Circuit Workload::build_circuit() const {
  if (name == "supremacy-lossy") {
    return circuits::supremacy_circuit(
        {.rows = kSupremacyRows,
         .cols = kSupremacyCols,
         .depth = 11,
         .seed = kSupremacyInstance});
  }
  if (name == "grover-sparse") {
    return circuits::grover_circuit({.data_qubits = grover_data_qubits,
                                     .marked_state = grover_marked,
                                     .iterations = grover_iterations});
  }
  return circuits::qft_circuit({.num_qubits = config.num_qubits,
                                .random_input = true,
                                .final_swaps = true,
                                .seed = kQftInstance});
}

bool ReadOutput::agrees_with(const ReadOutput& other) const {
  if (samples != other.samples || values.size() != other.values.size()) {
    return false;
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::abs(values[i] - other.values[i]) > kRepeatTolerance) return false;
  }
  return true;
}

ReadOutput read_phase(const Workload& workload, CompressedStateSimulator& sim,
                      Tracer& tracer) {
  ReadOutput out;
  cqs::Rng rng = sample_rng(workload.seed);
  for (int shot = 0; shot < kShots; ++shot) {
    auto span = tracer.span("core.sample");
    out.samples.push_back(sim.sample(rng));
    out.sample_seconds.push_back(span.stop());
  }
  if (workload.read == ReadKind::kSamplesAndExpectations) {
    for (std::uint64_t mask : workload.z_masks) {
      auto span = tracer.span("core.expectation");
      out.values.push_back(sim.expectation_pauli_z(mask));
      out.value_seconds.push_back(span.stop());
    }
  } else {
    for (int q = 0; q < workload.grover_data_qubits; ++q) {
      auto span = tracer.span("core.probability");
      out.values.push_back(sim.probability_one(q));
      out.value_seconds.push_back(span.stop());
    }
  }
  return out;
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

Reference::Reference(const Workload& workload, const Circuit& circuit,
                     Tracer& tracer)
    : workload_(workload) {
  if (workload.read == ReadKind::kSamplesAndMarginals) {
    // Grover after k iterations: sin((2k+1)t) on the marked state and
    // cos((2k+1)t)/sqrt(N-1) on every other data state, ancillas at 0.
    const double n_states =
        std::ldexp(1.0, workload.grover_data_qubits);
    const double theta = std::asin(1.0 / std::sqrt(n_states));
    const double angle = (2.0 * workload.grover_iterations + 1.0) * theta;
    grover_marked_amp_ = std::sin(angle);
    grover_other_amp_ = std::cos(angle) / std::sqrt(n_states - 1.0);
    const double p_other = grover_other_amp_ * grover_other_amp_;
    for (int q = 0; q < workload.grover_data_qubits; ++q) {
      const double bit = static_cast<double>((workload.grover_marked >> q) & 1);
      expected_values_.push_back(bit * grover_marked_amp_ * grover_marked_amp_ +
                                 p_other * (n_states / 2.0 - bit));
    }
    return;
  }
  auto span = tracer.span("qsim.dense");
  dense_.emplace(circuit.num_qubits());
  dense_->apply_circuit(circuit);
  dense_seconds_ = span.stop();
  for (std::uint64_t mask : workload.z_masks) {
    expected_values_.push_back(expectation_z(*dense_, mask));
  }
}

double Reference::closed_form_amplitude(std::uint64_t basis) const {
  if (basis >> workload_.grover_data_qubits) return 0.0;
  return basis == workload_.grover_marked ? grover_marked_amp_
                                          : grover_other_amp_;
}

void Reference::check_read(const ReadOutput& out, double fidelity_bound,
                           double norm, Checks& checks) const {
  // |<Z>_psi - <Z>_ref| <= |norm - 1| + 2 sqrt(1 - F) for a unit-norm
  // observable; lossless states get the bare 1e-10 slack.
  const double tol = std::abs(norm - 1.0) +
                     2.0 * std::sqrt(std::max(0.0, 1.0 - fidelity_bound)) +
                     1e-10;
  const double value_tol =
      workload_.read == ReadKind::kSamplesAndMarginals ? 1e-9 : tol;
  checks.expect(out.values.size() == expected_values_.size(),
                "read phase returned the wrong number of values");
  for (std::size_t i = 0;
       i < std::min(out.values.size(), expected_values_.size()); ++i) {
    checks.expect(std::abs(out.values[i] - expected_values_[i]) <= value_tol,
                  "read value " + std::to_string(i) + " = " +
                      std::to_string(out.values[i]) + ", reference " +
                      std::to_string(expected_values_[i]));
  }
  for (std::uint64_t s : out.samples) {
    const double p = dense_ ? std::norm(dense_->amplitude(s))
                            : std::pow(closed_form_amplitude(s), 2);
    checks.expect(p > 0.0, "sampled a basis state of reference probability 0");
  }
}

double Reference::check_state(CompressedStateSimulator& sim,
                              double fidelity_bound, Checks& checks) const {
  const std::vector<double> raw = sim.to_raw();
  std::complex<double> overlap = 0.0;
  double max_diff = 0.0;
  for (std::size_t i = 0; i < raw.size() / 2; ++i) {
    const std::complex<double> psi(raw[2 * i], raw[2 * i + 1]);
    const std::complex<double> ref =
        dense_ ? dense_->amplitude(i)
               : std::complex<double>(closed_form_amplitude(i), 0.0);
    overlap += std::conj(ref) * psi;
    max_diff = std::max(max_diff, std::abs(psi - ref));
  }
  const double fidelity = std::norm(overlap);
  checks.expect(fidelity + 1e-9 >= fidelity_bound,
                "fidelity " + std::to_string(fidelity) + " below bound " +
                    std::to_string(fidelity_bound));
  if (workload_.read == ReadKind::kSamplesAndMarginals) {
    const double norm = sim.norm();
    checks.expect(std::abs(norm - 1.0) <= 1e-9,
                  "norm " + std::to_string(norm) + " != 1");
    const std::size_t m = workload_.grover_marked;
    const double p_marked =
        std::norm(std::complex<double>(raw[2 * m], raw[2 * m + 1]));
    checks.expect(
        std::abs(p_marked - grover_marked_amp_ * grover_marked_amp_) <= 1e-9,
        "marked-state probability " + std::to_string(p_marked) +
            " differs from the closed form");
  } else if (workload_.config.memory_budget_bytes == 0) {
    // No Eq. 8 budget: the run must stay lossless.
    checks.expect(max_diff <= 1e-12, "lossless state differs from the dense "
                                     "reference by " +
                                         std::to_string(max_diff));
  }
  return fidelity;
}

}  // namespace perfbench
