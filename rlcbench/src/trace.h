// Span recorder for the traced run.
//
// Every timed call into a library layer is one span: a name, a start, an
// end, the span that was open when it started (its parent), and the slot it
// belongs to — spans of one slot share that id.  Spans are plain data kept
// in memory; write_chrome_json() writes them out once, when the run ends.
// A span's self time is its duration minus the time its children cover.
//
// Scope is the RAII handle around one call.  With the recorder disabled a
// Scope costs one branch, which is how the traced run measures its own
// overhead (the same pass with the recorder off and on).
#ifndef RLCBENCH_TRACE_H
#define RLCBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rlcbench {

using Clock = std::chrono::steady_clock;

class Tracer {
public:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;
    std::uint64_t slot = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    // Part of the work the Engine did to produce the slot's served answer
    // (as opposed to a diagnostic re-run of a layer).
    bool served = false;
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Totals {
    std::size_t count = 0;
    double total_ns = 0.0;  // sum of span durations
    double self_ns = 0.0;   // sum of durations minus child coverage
  };

  class Scope {
  public:
    Scope(Tracer& tracer, std::string_view name, std::uint64_t slot,
          bool served = false);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer* tracer_ = nullptr;  // null when the recorder was disabled
    std::size_t index_ = 0;
  };

  Tracer();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Mean duration of an empty span: the cost of the two clock reads that
  // every recorded duration includes.  Records and then drops its spans.
  double calibrate_clock_ns();

  const std::vector<Span>& spans() const { return spans_; }

  // Per-name totals over every recorded span.
  std::map<std::string, Totals> totals() const;
  // Count and summed duration of the spans flagged `served` among spans
  // [from, to).
  Totals served(std::size_t from, std::size_t to) const;

  // Chrome trace-event JSON of the spans from index `from` on (loads in
  // chrome://tracing and Perfetto).
  void write_chrome_json(const std::string& path, std::size_t from = 0) const;

private:
  std::uint32_t intern(std::string_view name);
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<const char*> name_data_;  // names_[k]'s first caller's pointer
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // indices of the spans currently open
};

}  // namespace rlcbench

#endif  // RLCBENCH_TRACE_H
