// In-memory spans recorded around the benchmark's calls into each layer.
//
// A span has a name, a start, an end, the span that caused it (its parent)
// and the id of the solve it belongs to; spans of one solve share the id.
// Nothing is written while the benchmark measures: the log is flushed as a
// Chrome trace-event file when the run ends.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::uint64_t solve = 0;  // 0 = not part of a solve (set-up)
  int parent = -1;          // index into the log, -1 for a root
  double start_us = 0.0;    // steady clock
  double end_us = 0.0;
};

class SpanLog {
 public:
  int open(std::string name, std::uint64_t solve, int parent, double start_us);
  void close(int index, double end_us);
  const std::vector<SpanRecord>& spans() const { return spans_; }
  // Duration minus the time covered by direct children (which never
  // overlap: every layer call is made from the one benchmark thread).
  std::vector<double> self_us() const;
  // Chrome trace-event JSON ("X" events, args carry solve/parent/self).
  // Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
};

double now_us();

// Median latency of fn(k), k = 0, 1, ..., in microseconds: at least 3 calls,
// and more for cheap calls until 20 ms have been spent (at most 2000).
template <typename Fn>
double median_us(Fn&& fn) {
  std::vector<double> t;
  double spent = 0.0;
  while (t.size() < 3 || (spent < 2e4 && t.size() < 2000)) {
    const double t0 = now_us();
    fn(t.size());
    t.push_back(now_us() - t0);
    spent += t.back();
  }
  std::nth_element(t.begin(), t.begin() + static_cast<long>(t.size() / 2),
                   t.end());
  return t[t.size() / 2];
}

// Times a scope. With a log it also records a span; without one it costs two
// clock reads, so the untraced run measures phases the same way.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t solve, int parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }
  // Ends the span early; returns its duration in seconds.
  double stop();

 private:
  SpanLog* log_;
  int index_ = -1;
  double start_us_;
  double seconds_ = -1.0;
};

}  // namespace perfbench
