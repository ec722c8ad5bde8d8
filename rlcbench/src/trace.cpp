#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace rlcbench {

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint32_t Tracer::intern(std::string_view name) {
  // Span names are string literals: the pointer match is the common case.
  for (std::size_t k = 0; k < name_data_.size(); ++k) {
    if (name_data_[k] == name.data()) return static_cast<std::uint32_t>(k);
  }
  for (std::size_t k = 0; k < names_.size(); ++k) {
    if (names_[k] == name) return static_cast<std::uint32_t>(k);
  }
  names_.emplace_back(name);
  name_data_.push_back(name.data());
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name, std::uint64_t slot,
                     bool served) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  Span span;
  span.name = tracer.intern(name);
  span.parent = tracer.open_.empty() ? kNoParent : tracer.open_.back();
  span.slot = slot;
  span.served = served;
  index_ = tracer.spans_.size();
  tracer.open_.push_back(static_cast<std::uint32_t>(index_));
  tracer.spans_.push_back(span);
  // Read the clock last, so the bookkeeping above is not inside the span.
  tracer.spans_.back().start_ns = tracer.now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = tracer_->now_ns();
  tracer_->spans_[index_].end_ns = end;
  tracer_->open_.pop_back();
}

double Tracer::calibrate_clock_ns() {
  const bool was = enabled_;
  enabled_ = true;
  const std::size_t first = spans_.size();
  constexpr int kSpans = 20000;
  for (int k = 0; k < kSpans; ++k) Scope empty(*this, "clock", 0);
  std::vector<double> durations;
  durations.reserve(kSpans);
  for (std::size_t k = first; k < spans_.size(); ++k) {
    durations.push_back(static_cast<double>(spans_[k].end_ns - spans_[k].start_ns));
  }
  spans_.resize(first);
  enabled_ = was;
  std::nth_element(durations.begin(), durations.begin() + kSpans / 2, durations.end());
  return durations[kSpans / 2];
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const double duration = static_cast<double>(spans_[k].end_ns - spans_[k].start_ns);
    Totals& t = out[names_[spans_[k].name]];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[k];
  }
  return out;
}

Tracer::Totals Tracer::served(std::size_t from, std::size_t to) const {
  Totals t;
  for (std::size_t k = from; k < to; ++k) {
    if (!spans_[k].served) continue;
    ++t.count;
    t.total_ns += static_cast<double>(spans_[k].end_ns - spans_[k].start_ns);
  }
  t.self_ns = t.total_ns;
  return t;
}

void Tracer::write_chrome_json(const std::string& path, std::size_t from) const {
  std::ofstream out(path);
  if (!out.good()) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  char line[256];
  for (std::size_t k = from; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                  "\"parent\": %lld, \"slot\": %llu, \"served\": %s}}",
                  k == from ? "" : ",", names_[s.name].c_str(),
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, k,
                  s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.slot), s.served ? "true" : "false");
    out << line;
  }
  out << "\n]}\n";
  if (!out.good()) throw std::runtime_error("write failed: " + path);
}

}  // namespace rlcbench
