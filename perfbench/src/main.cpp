// Benchmark runner: runs one workload for a time budget and prints its
// metrics. perfbench/run.py builds this program and is the entry point;
// see perfbench/README.md.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --scratch DIR [--trace-out FILE]
//
// --trace 0 times repeated setup / apply_circuit / read phases with no
// span recording and prints the end-to-end metrics. --trace 1 runs the
// workload untraced for half the budget (the overhead baseline), then once
// more with spans recorded around every call into a layer, probes the
// layers on the workload's own data, and prints the per-layer metrics.
// Both modes check every output; the last stdout line is one JSON object.
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSetupsPerRep = 4;  ///< standalone setups per repetition
constexpr int kReplayBlocks = 8;  ///< blocks per codec replay
constexpr double kMega = 1e6;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Process high-water resident set (VmHWM) in MB.
double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / kMega;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Moves the calling thread, and the simulator workers it starts after the
/// move, to the next CPU of the process's affinity mask on every call; the
/// destructor restores the mask. The benchmark's vCPUs share host cores
/// with other tenants, and a busy neighbour slows one vCPU at a time by up
/// to 2x for seconds to minutes. Spread over every CPU, one slow vCPU
/// touches a quarter of a run's repetitions instead of all of them, and
/// the median passes over it.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&initial_);
    if (sched_getaffinity(0, sizeof initial_, &initial_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &initial_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof initial_, &initial_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t initial_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Circuit plus a freshly constructed simulator.
struct Instance {
  Circuit circuit{1};
  std::unique_ptr<CompressedStateSimulator> sim;
  double setup_seconds = 0.0;
  double build_seconds = 0.0;
  double construct_seconds = 0.0;
};

Instance setup(const Workload& w, const SimConfig& config, Tracer& tracer) {
  Instance inst;
  auto span = tracer.span("setup");
  {
    auto build = tracer.span("circuits.build");
    inst.circuit = w.build_circuit();
    inst.build_seconds = build.stop();
  }
  {
    auto construct = tracer.span("core.construct");
    inst.sim = std::make_unique<CompressedStateSimulator>(config);
    inst.construct_seconds = construct.stop();
  }
  inst.setup_seconds = span.stop();
  return inst;
}

struct Rep {
  double run_seconds = 0.0;
  double read_seconds = 0.0;
  cqs::core::SimulationReport run_report;  ///< taken before the read phase
  ReadOutput read;
};

/// One setup -> apply_circuit -> read repetition on `inst`.
Rep run_once(const Workload& w, Instance& inst, Tracer& tracer) {
  Rep rep;
  {
    auto apply = tracer.span("core.apply");
    inst.sim->apply_circuit(inst.circuit);
    rep.run_seconds = apply.stop();
  }
  rep.run_report = inst.sim->report();
  auto read = tracer.span("read");
  rep.read = read_phase(w, *inst.sim, tracer);
  rep.read_seconds = read.stop();
  return rep;
}

/// Untraced repetitions until `seconds` have passed (at least `min_reps`).
/// The first repetition is a warm-up: it is checked but not timed.
/// Standalone setups run between repetitions, so that the setup median
/// covers the same stretch of the run as the repetition medians. Each
/// repetition, with its setups, runs on the next CPU (see CpuRotation).
/// The last repetition's simulator stays alive in `last` for the checks.
struct Measurement {
  std::vector<double> setup_seconds;
  std::vector<Rep> reps;
  double peak_rss_mb = 0.0;
  Instance last;

  /// Every repetition but the warm-up, when there are others.
  std::span<const Rep> timed() const {
    const std::span<const Rep> all(reps);
    return all.size() > 1 ? all.subspan(1) : all;
  }
};

Measurement measure(const Workload& w, double seconds, std::size_t min_reps) {
  Tracer off(false);
  Measurement m;
  CpuRotation rotation;
  auto clock = off.span("measure");
  while (m.reps.size() < min_reps || clock.elapsed() < seconds) {
    m.last.sim.reset();  // one simulator alive at a time
    rotation.next();
    const bool warm = !m.reps.empty();
    for (int i = 0; warm && i < kSetupsPerRep; ++i) {
      m.setup_seconds.push_back(setup(w, w.config, off).setup_seconds);
    }
    m.last = setup(w, w.config, off);
    if (warm) m.setup_seconds.push_back(m.last.setup_seconds);
    m.reps.push_back(run_once(w, m.last, off));
    // The first repetition's mark covers setup, run and read, and nothing
    // a reference or check allocates. Later repetitions would add the
    // allocator's retained heap, which grows by a varying amount.
    if (m.reps.size() == 1) m.peak_rss_mb = vm_hwm_mb();
  }
  return m;
}

/// Checks every repetition against the reference and the first
/// repetition, and the final state in full. Returns fidelity_measured.
double check_all(const Reference& ref, const std::vector<Rep>& reps,
                 CompressedStateSimulator& sim, Checks& checks) {
  const double bound = sim.fidelity_bound();
  const double norm = sim.norm();
  checks.expect(!sim.report().budget_exceeded,
                "memory budget exceeded at the last ladder level");
  for (std::size_t i = 0; i < reps.size(); ++i) {
    checks.expect(reps[i].read.agrees_with(reps.front().read),
                  "repetition " + std::to_string(i) +
                      " read outputs differ from repetition 0");
    ref.check_read(reps[i].read, bound, norm, checks);
  }
  return ref.check_state(sim, bound, checks);
}

std::vector<Metric> end_to_end(const Measurement& m, double fidelity_measured) {
  std::vector<double> run_s, read_s;
  for (const Rep& r : m.timed()) {
    run_s.push_back(r.run_seconds);
    read_s.push_back(r.read_seconds);
  }
  const auto report = m.last.sim->report();
  return {
      {"setup_s", median(m.setup_seconds), "s"},
      {"run_s", median(run_s), "s"},
      {"read_s", median(read_s), "s"},
      {"peak_compressed_mb",
       static_cast<double>(report.peak_compressed_bytes) / kMega, "MB"},
      {"peak_rss_mb", m.peak_rss_mb, "MB"},
      {"fidelity_bound", report.fidelity_bound, "1"},
      {"fidelity_measured", fidelity_measured, "1"},
  };
}

std::vector<Metric> per_layer(const Workload& w, Instance& traced,
                              const Rep& rep, const Measurement& untraced,
                              const Reference& ref, Tracer& tracer,
                              const Options& opt, Checks& checks) {
  // Report metrics cover apply_circuit plus the read phase; the phase
  // split and busy fraction cover apply_circuit alone.
  const auto r = traced.sim->report();
  const auto& run_r = rep.run_report;
  const int n = w.config.num_qubits;
  const std::size_t units =
      static_cast<std::size_t>(w.config.num_ranks) * w.config.blocks_per_rank;
  const std::size_t block_amps = (std::size_t{1} << n) / units;

  // Extra reads on every workload so each per-call median has samples.
  std::vector<double> probability_ms, expectation_ms;
  {
    auto probe = tracer.span("core.probe");
    for (int q : {0, n - 1}) {
      auto s = tracer.span("core.probability");
      traced.sim->probability_one(q);
      probability_ms.push_back(s.stop() * 1e3);
      auto e = tracer.span("core.expectation");
      traced.sim->expectation_pauli_z(std::uint64_t{1} << q);
      expectation_ms.push_back(e.stop() * 1e3);
    }
  }
  std::vector<double>& read_values =
      w.read == ReadKind::kSamplesAndMarginals ? probability_ms
                                               : expectation_ms;
  for (double s : rep.read.value_seconds) read_values.push_back(s * 1e3);
  std::vector<double> sample_ms;
  for (double s : rep.read.sample_seconds) sample_ms.push_back(s * 1e3);

  const auto ckpt = probe_checkpoint(*traced.sim, w.config,
                                     opt.scratch + "/probe.ckpt", tracer);
  checks.expect(ckpt.restored_equal,
                "state loaded from a checkpoint differs from the saved one");
  const double dense_s = ref.dense_seconds()
                             ? *ref.dense_seconds()
                             : probe_dense(traced.circuit, tracer);
  const double bound = r.final_ladder_level > 0
                           ? w.config.error_ladder[r.final_ladder_level - 1]
                           : w.config.error_ladder.front();
  ReplayProbe replay;
  {
    const std::vector<double> raw = traced.sim->to_raw();
    replay = probe_codecs(raw, 2 * block_amps, kReplayBlocks, w.config.codec,
                          bound, tracer);
  }
  const double kernel_gb_s = probe_kernels(block_amps, tracer);
  const ScheduleProbe sched = probe_schedule(traced.circuit, w.config, tracer);

  double apply_2t = 0.0;
  cqs::core::SimulationReport parallel_r;
  {
    auto span = tracer.span("core.apply_2t");
    SimConfig two = w.config;
    two.threads = 2;
    Instance parallel = setup(w, two, tracer);
    auto apply = tracer.span("core.apply");
    parallel.sim->apply_circuit(parallel.circuit);
    apply_2t = apply.stop();
    parallel_r = parallel.sim->report();
  }

  std::vector<double> untraced_run;
  for (const Rep& u : untraced.timed()) untraced_run.push_back(u.run_seconds);
  const double gates = static_cast<double>(traced.circuit.size());
  const double dense_bytes = gates * 2.0 * 16.0 * std::ldexp(1.0, n);
  const double busy = run_r.phases.total();
  const auto phase = [&run_r](cqs::Phase p) { return run_r.phases.get(p); };

  return {
      {"circuits.build_s", traced.build_seconds, "s"},
      {"circuits.gates", gates, "count"},
      {"qsim.dense_s", dense_s, "s"},
      {"qsim.dense_gb_s", dense_bytes / dense_s / 1e9, "GB/s"},
      {"qsim.fusion_s", sched.fusion_seconds, "s"},
      {"qsim.schedule_s", sched.schedule_seconds, "s"},
      {"qsim.schedule_runs", static_cast<double>(sched.runs), "count"},
      {"qsim.ops_per_run", sched.ops_per_run, "ops/run"},
      {"qsim.kernel_gb_s", kernel_gb_s, "GB/s"},
      {"lossless.compress_s", r.lossless_compress_seconds, "s"},
      {"lossless.compress_calls",
       static_cast<double>(r.lossless_compress_invocations), "count"},
      {"lossless.decompress_s", r.lossless_decompress_seconds, "s"},
      {"lossless.decompress_calls",
       static_cast<double>(r.lossless_decompress_invocations), "count"},
      {"lossless.replay_compress_mb_s", replay.zx_compress_mb_s, "MB/s"},
      {"lossless.replay_decompress_mb_s", replay.zx_decompress_mb_s, "MB/s"},
      {"lossless.replay_lz77_mb_s", replay.lz77_mb_s, "MB/s"},
      {"lossless.replay_ratio", replay.zx_ratio, "1"},
      {"lossless.block_ratio", r.lossless_block_ratio(), "1"},
      {"compression.lossy_compress_s", r.lossy_compress_seconds, "s"},
      {"compression.lossy_compress_calls",
       static_cast<double>(r.lossy_compress_invocations), "count"},
      {"compression.lossy_decompress_s", r.lossy_decompress_seconds, "s"},
      {"compression.lossy_decompress_calls",
       static_cast<double>(r.lossy_decompress_invocations), "count"},
      {"compression.lossy_block_ratio", r.lossy_block_ratio(), "1"},
      {"compression.replay_compress_mb_s", replay.lossy_compress_mb_s, "MB/s"},
      {"compression.replay_decompress_mb_s", replay.lossy_decompress_mb_s,
       "MB/s"},
      {"compression.replay_ratio", replay.lossy_ratio, "1"},
      {"compression.replay_max_rel_error", replay.lossy_max_rel_error, "1"},
      {"compression.replay_bound", bound, "1"},
      {"compression.codec_scratch_mb",
       static_cast<double>(r.codec_scratch_bytes) / kMega, "MB"},
      {"runtime.cache_hit_rate", r.cache.hit_rate(), "1"},
      {"runtime.cache_hits", static_cast<double>(r.cache.hits), "count"},
      {"runtime.cache_misses", static_cast<double>(r.cache.misses), "count"},
      {"runtime.arbiter_lossless_choices",
       static_cast<double>(r.codec_lossless_choices), "count"},
      {"runtime.arbiter_lossy_choices",
       static_cast<double>(r.codec_lossy_choices), "count"},
      {"runtime.arbiter_switches", static_cast<double>(r.codec_switches),
       "count"},
      {"runtime.comm_mb", static_cast<double>(r.comm_bytes) / kMega, "MB"},
      {"runtime.comm_messages", static_cast<double>(r.comm_messages), "count"},
      {"runtime.comm_s", r.comm_seconds, "s"},
      {"runtime.remap_sweeps", static_cast<double>(r.remap_sweeps), "count"},
      {"runtime.swaps_relabeled", static_cast<double>(r.swaps_relabeled),
       "count"},
      {"runtime.spill_events", static_cast<double>(r.spill_events), "count"},
      {"runtime.fault_events", static_cast<double>(r.fault_events), "count"},
      {"runtime.spilled_mb", static_cast<double>(r.spilled_bytes) / kMega,
       "MB"},
      {"runtime.peak_resident_mb",
       static_cast<double>(r.peak_resident_bytes) / kMega, "MB"},
      {"runtime.readahead_hit_rate",
       ratio(static_cast<double>(r.readahead_hits),
             static_cast<double>(r.fault_events)),
       "1"},
      {"runtime.autosaves", static_cast<double>(r.autosaves), "count"},
      {"runtime.autosave_s", r.autosave_seconds, "s"},
      {"runtime.checkpoint_save_s", ckpt.save_seconds, "s"},
      {"runtime.checkpoint_load_s", ckpt.load_seconds, "s"},
      {"runtime.checkpoint_mb", ckpt.megabytes, "MB"},
      {"runtime.scratch_mb", static_cast<double>(r.scratch_bytes) / kMega,
       "MB"},
      {"core.construct_s", traced.construct_seconds, "s"},
      {"core.apply_s", rep.run_seconds, "s"},
      {"core.read_s", rep.read_seconds, "s"},
      {"core.apply_2t_s", apply_2t, "s"},
      {"core.sample_ms", median(sample_ms), "ms"},
      {"core.sample_calls", static_cast<double>(rep.read.samples.size()),
       "count"},
      {"core.probability_ms", median(probability_ms), "ms"},
      {"core.probability_calls", static_cast<double>(probability_ms.size()),
       "count"},
      {"core.expectation_ms", median(expectation_ms), "ms"},
      {"core.expectation_calls", static_cast<double>(expectation_ms.size()),
       "count"},
      {"core.compress_calls", static_cast<double>(r.compress_invocations),
       "count"},
      {"core.decompress_calls", static_cast<double>(r.decompress_invocations),
       "count"},
      {"core.batched_runs", static_cast<double>(r.batched_runs), "count"},
      {"core.gates_per_run", r.gates_per_run(), "ops/run"},
      {"core.min_ratio", r.min_compression_ratio, "1"},
      {"core.phase.compression_s", phase(cqs::Phase::kCompression), "s"},
      {"core.phase.decompression_s", phase(cqs::Phase::kDecompression), "s"},
      {"core.phase.communication_s", phase(cqs::Phase::kCommunication), "s"},
      {"core.phase.computation_s", phase(cqs::Phase::kComputation), "s"},
      {"core.busy_frac", busy / (kThreads * rep.run_seconds), "1"},
      // The executor pipelines only with more than one worker.
      {"core.pipeline_blocks", static_cast<double>(parallel_r.pipeline_blocks),
       "count"},
      {"core.pipeline_stalls", static_cast<double>(parallel_r.pipeline_stalls),
       "count"},
      {"core.stage_overlap", parallel_r.stage_overlap_utilization(), "1"},
      {"core.lossy_passes", static_cast<double>(r.lossy_passes), "count"},
      {"core.ladder_level", static_cast<double>(r.final_ladder_level), "count"},
      {"core.speedup_2t_over_1t", rep.run_seconds / apply_2t, "1"},
      {"core.slowdown_vs_dense", rep.run_seconds / dense_s, "1"},
      {"trace.overhead_frac", rep.run_seconds / median(untraced_run) - 1.0,
       "1"},
      {"trace.spans", static_cast<double>(tracer.records().size()), "count"},
  };
}

void print_result(const Options& opt, const Checks& checks,
                  const std::vector<Metric>& metrics) {
  std::printf("workload %s seed %llu trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  for (const std::string& f : checks.failures) {
    std::printf("check failed: %s\n", f.c_str());
  }
  std::printf("checks %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Options& opt) {
  const Workload w = make_workload(opt.workload, opt.seed, opt.scratch);
  Checks checks;
  if (!opt.trace) {
    Measurement m = measure(w, opt.seconds, 2);
    Tracer off(false);
    const Reference ref(w, m.last.circuit, off);
    const double fidelity = check_all(ref, m.reps, *m.last.sim, checks);
    print_result(opt, checks, end_to_end(m, fidelity));
    return 0;
  }

  Measurement untraced = measure(w, opt.seconds / 2.0, 2);
  untraced.last.sim.reset();
  Tracer tracer(true);
  Instance traced;
  std::vector<Rep> reps;
  {
    // Pinned like an untraced repetition, so that trace.overhead_frac
    // compares like with like.
    CpuRotation pin;
    pin.next();
    traced = setup(w, w.config, tracer);
    reps = {run_once(w, traced, tracer)};
  }
  const Reference ref(w, traced.circuit, tracer);
  {
    auto span = tracer.span("check");
    check_all(ref, reps, *traced.sim, checks);
    // The untraced repetitions must read back what the traced one did.
    for (const Rep& u : untraced.reps) {
      checks.expect(u.read.agrees_with(reps.front().read),
                    "untraced repetition differs from the traced one");
    }
  }
  const std::vector<Metric> metrics =
      per_layer(w, traced, reps.front(), untraced, ref, tracer, opt, checks);
  if (!opt.trace_out.empty()) {
    tracer.write_chrome_trace(opt.trace_out, w.name, w.seed);
  }
  print_result(opt, checks, metrics);
  return 0;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--scratch") {
      opt.scratch = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (opt.workload.empty() || opt.scratch.empty()) {
    throw std::invalid_argument("--workload and --scratch are required");
  }
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
