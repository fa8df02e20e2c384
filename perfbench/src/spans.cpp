#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

using clock = std::chrono::steady_clock;

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(clock::now()) {}

double Tracer::since_origin_us(clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

Tracer::Span::Span(Tracer& tracer, std::string name)
    : tracer_(tracer), name_(std::move(name)) {
  if (tracer_.enabled_) {
    id_ = tracer_.next_id_++;
    parent_ = tracer_.open_.empty() ? 0 : tracer_.open_.back();
    tracer_.open_.push_back(id_);
  }
  start_ = clock::now();
}

double Tracer::Span::stop() {
  if (seconds_ >= 0.0) return seconds_;
  const auto end = clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (tracer_.enabled_) {
    tracer_.records_.push_back({id_, parent_, name_,
                                tracer_.since_origin_us(start_),
                                tracer_.since_origin_us(end)});
    auto& open = tracer_.open_;
    open.erase(std::remove(open.begin(), open.end(), id_), open.end());
  }
  return seconds_;
}

double Tracer::Span::elapsed() const {
  return std::chrono::duration<double>(clock::now() - start_).count();
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void Tracer::write_chrome_trace(const std::string& path,
                                const std::string& workload,
                                std::uint64_t seed) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out.precision(17);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\""
      << json_escape(workload) << "\",\"seed\":" << seed
      << "},\"traceEvents\":[";
  bool first = true;
  for (const Record& r : records_) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << json_escape(r.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << r.start_us
        << ",\"dur\":" << (r.end_us - r.start_us) << ",\"args\":{\"id\":"
        << r.id << ",\"parent\":" << r.parent << "}}";
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace perfbench
