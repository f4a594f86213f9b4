#include "spans.h"

#include <chrono>
#include <fstream>

#include "util/json.h"

namespace perfbench {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::open(std::string name, std::uint64_t solve, int parent,
                  double start_us) {
  spans_.push_back({std::move(name), solve, parent, start_us, start_us});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int index, double end_us) {
  spans_[static_cast<std::size_t>(index)].end_us = end_us;
}

std::vector<double> SpanLog::self_us() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_us - spans_[i].start_us;
  }
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
    }
  }
  return self;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  const std::vector<double> self = self_us();
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_us;
  minergy::util::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    w.begin_object()
        .kv("name", s.name)
        .kv("ph", "X")
        .kv("pid", 1)
        .kv("tid", 1)
        .kv("ts", s.start_us - origin)
        .kv("dur", s.end_us - s.start_us)
        .key("args")
        .begin_object()
        .kv("solve", static_cast<std::int64_t>(s.solve))
        .kv("parent", s.parent)
        .kv("self_us", self[i])
        .end_object()
        .end_object();
  }
  w.end_array().end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, std::uint64_t solve,
                       int parent)
    : log_(log), start_us_(now_us()) {
  if (log_ != nullptr) index_ = log_->open(name, solve, parent, start_us_);
}

ScopedSpan::~ScopedSpan() { stop(); }

double ScopedSpan::stop() {
  if (seconds_ < 0.0) {
    const double end_us = now_us();
    seconds_ = (end_us - start_us_) * 1e-6;
    if (log_ != nullptr) log_->close(index_, end_us);
  }
  return seconds_;
}

}  // namespace perfbench
