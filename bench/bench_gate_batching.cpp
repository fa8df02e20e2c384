// Gate-run batching ablation: the compression-overhead discussion of the
// paper (codec time dominates per-gate simulation) measured head-to-head.
// For QFT, Grover, and supremacy circuits the same simulation runs once
// with the block-local gate-run scheduler on and once as the per-gate
// baseline (max_run_length = 1, fusion off), comparing codec invocation counts, lossy fidelity passes, wall
// time, and the final states (which must agree within codec tolerance).
//
//   $ ./bench_gate_batching [--qubits N] [--level L] [--json PATH]
//
// --qubits scales the QFT instance (default 20; Grover and supremacy stay
// at reduced sizes so the bench finishes quickly). --level pins the error
// ladder start (default 1, i.e. 1e-5 relative, so the lossy-pass
// amortization is visible). --json writes the measurements for CI's perf
// trajectory artifact. Exits nonzero if batching fails to cut codec
// invocations by >= 3x on QFT or the states disagree.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/grover.hpp"
#include "circuits/qft.hpp"
#include "circuits/supremacy.hpp"
#include "common/timer.hpp"
#include "core/simulator.hpp"
#include "qsim/state_vector.hpp"

namespace {

using cqs::core::CompressedStateSimulator;
using cqs::core::SimConfig;
using cqs::core::SimulationReport;

struct RunResult {
  SimulationReport report;
  double seconds = 0.0;
  std::vector<double> state;  // empty above the to_raw qubit limit
};

std::uint64_t codec_invocations(const SimulationReport& report) {
  return report.compress_invocations + report.decompress_invocations;
}

RunResult run_once(const cqs::qsim::Circuit& circuit, bool batching,
                   int level) {
  SimConfig config;
  config.num_qubits = circuit.num_qubits();
  config.num_ranks = 2;
  config.blocks_per_rank = 4;
  config.initial_level = level;
  if (!batching) {  // the per-gate baseline: one gate per run, no fusion
    config.max_run_length = 1;
    config.enable_fusion_prepass = false;
  }
  // The cache would absorb codec passes on structured circuits; disable it
  // so the comparison isolates what the scheduler saves.
  config.enable_cache = false;
  CompressedStateSimulator sim(config);
  cqs::WallTimer timer;
  sim.apply_circuit(circuit);
  RunResult result;
  result.seconds = timer.seconds();
  result.report = sim.report();  // snapshot before state queries decompress
  if (circuit.num_qubits() <= 26) result.state = sim.to_raw();
  return result;
}

struct Comparison {
  std::string name;
  int qubits = 0;
  RunResult batched;
  RunResult per_gate;
  double fidelity = 0.0;
  double codec_ratio = 0.0;
};

Comparison compare(const std::string& name,
                   const cqs::qsim::Circuit& circuit, int level) {
  Comparison cmp;
  cmp.name = name;
  cmp.qubits = circuit.num_qubits();
  cmp.batched = run_once(circuit, true, level);
  cmp.per_gate = run_once(circuit, false, level);
  cmp.fidelity = cqs::qsim::state_fidelity(cmp.batched.state,
                                           cmp.per_gate.state);
  cmp.codec_ratio =
      static_cast<double>(codec_invocations(cmp.per_gate.report)) /
      static_cast<double>(codec_invocations(cmp.batched.report));
  return cmp;
}

void print_comparison(const Comparison& cmp) {
  std::printf("%-10s %2dq  |", cmp.name.c_str(), cmp.qubits);
  std::printf(
      " codec calls %8llu -> %8llu (%.2fx)  | lossy passes %6llu -> %6llu"
      "  | runs %llu (avg %.1f gates)  | %.2fs -> %.2fs  | fidelity %.8f\n",
      static_cast<unsigned long long>(codec_invocations(cmp.per_gate.report)),
      static_cast<unsigned long long>(codec_invocations(cmp.batched.report)),
      cmp.codec_ratio,
      static_cast<unsigned long long>(cmp.per_gate.report.lossy_passes),
      static_cast<unsigned long long>(cmp.batched.report.lossy_passes),
      static_cast<unsigned long long>(cmp.batched.report.batched_runs),
      cmp.batched.report.gates_per_run(), cmp.per_gate.seconds,
      cmp.batched.seconds, cmp.fidelity);
}

void write_json(const std::string& path,
                const std::vector<Comparison>& results) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"bench\": \"gate_batching\",\n  \"circuits\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Comparison& c = results[i];
    const auto side = [&](const RunResult& r) {
      std::string s = "{\"compress\": " +
                      std::to_string(r.report.compress_invocations) +
                      ", \"decompress\": " +
                      std::to_string(r.report.decompress_invocations) +
                      ", \"lossy_passes\": " +
                      std::to_string(r.report.lossy_passes) +
                      ", \"runs\": " +
                      std::to_string(r.report.batched_runs) +
                      ", \"seconds\": " + std::to_string(r.seconds) + "}";
      return s;
    };
    out << "    {\"name\": \"" << c.name << "\", \"qubits\": " << c.qubits
        << ",\n     \"batched\": " << side(c.batched)
        << ",\n     \"per_gate\": " << side(c.per_gate)
        << ",\n     \"codec_invocation_ratio\": " << c.codec_ratio
        << ", \"cross_fidelity\": " << c.fidelity << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace cqs;
  int qft_qubits = 20;
  int level = 1;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--qubits") {
      qft_qubits = std::atoi(next());
    } else if (arg == "--level") {
      level = std::atoi(next());
    } else if (arg == "--json") {
      json_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--qubits N] [--level L] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::print_header(
      "Gate-run batching: codec passes per gate vs per block-local run");

  std::vector<Comparison> results;
  results.push_back(compare(
      "qft",
      circuits::qft_circuit({.num_qubits = qft_qubits,
                             .random_input = false}),
      level));
  print_comparison(results.back());
  results.push_back(compare(
      "grover",
      circuits::grover_circuit({.data_qubits = 6,
                                .marked_state = 0b101101,
                                .iterations = 2}),
      level));
  print_comparison(results.back());
  results.push_back(compare(
      "supremacy",
      circuits::supremacy_circuit({.rows = 3, .cols = 4, .depth = 11}),
      level));
  print_comparison(results.back());

  if (!json_path.empty()) {
    write_json(json_path, results);
    std::printf("wrote %s\n", json_path.c_str());
  }

  // The QFT acceptance gates: batching must amortize >= 3x and must not
  // change the state beyond codec tolerance. The tolerance mirrors
  // Eq. 11: both runs' bounds multiplied, minus slack for the per-gate
  // run's far larger accumulated (but bounded) pointwise error.
  const Comparison& qft = results.front();
  bool ok = true;
  if (qft.codec_ratio < 3.0) {
    std::fprintf(stderr, "FAIL: QFT codec invocation ratio %.2f < 3.0\n",
                 qft.codec_ratio);
    ok = false;
  }
  if (qft.batched.report.lossy_passes >= qft.per_gate.report.lossy_passes) {
    std::fprintf(stderr, "FAIL: batching did not reduce lossy passes\n");
    ok = false;
  }
  const double floor =
      qft.batched.report.fidelity_bound * qft.per_gate.report.fidelity_bound;
  if (!qft.batched.state.empty() && qft.fidelity < floor - 1e-9) {
    std::fprintf(stderr, "FAIL: cross fidelity %.12f below bound %.12f\n",
                 qft.fidelity, floor);
    ok = false;
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_gate_batching: %s\n", e.what());
  return 1;
}
