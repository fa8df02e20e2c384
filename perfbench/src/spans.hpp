// Benchmark-side span recorder. Every call the benchmark makes into a
// layer of the simulator is wrapped in a Span; the span always measures its
// own wall time (the untraced runs take their timings from it too), and
// when the recorder is enabled it also keeps {name, start, end, parent}
// in memory for the Chrome trace-event file written at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::string name;
    double start_us = 0.0;  ///< since the recorder was created
    double end_us = 0.0;
  };

  /// Scoped span. stop() ends it early and returns its length in seconds;
  /// the destructor stops it if nobody did.
  class Span {
   public:
    Span(Tracer& tracer, std::string name);
    ~Span() { stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    double stop();
    /// Seconds since the span started, without ending it.
    double elapsed() const;

   private:
    Tracer& tracer_;
    std::string name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::chrono::steady_clock::time_point start_;
    double seconds_ = -1.0;  ///< < 0 while running
  };

  explicit Tracer(bool enabled);

  Span span(std::string name) { return Span(*this, std::move(name)); }
  const std::vector<Record>& records() const { return records_; }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// `args` of each event carry the span id and its parent id. Throws
  /// std::runtime_error when the file cannot be written.
  void write_chrome_trace(const std::string& path,
                          const std::string& workload,
                          std::uint64_t seed) const;

 private:
  double since_origin_us(std::chrono::steady_clock::time_point t) const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::uint64_t> open_;  ///< ids of running spans, innermost last
  std::uint64_t next_id_ = 1;
};

}  // namespace perfbench
