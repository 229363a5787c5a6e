// In-memory span recorder for the benchmark's traced mode: one span per
// public call the benchmark makes into the system, kept in a vector and
// written out when the run ends. A disabled recorder costs one branch per
// scope, so untraced runs and untraced blocks carry no tracing work.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace sstd::nodebench {

struct Span {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

// Per-name totals over every recorded span: self time is a span's duration
// minus the part its children cover.
struct SpanTotals {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span under `parent` (0 for a root) and returns its id, or 0
  // when disabled.
  std::uint32_t begin(const char* name, std::uint32_t parent = 0);
  void end(std::uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  // Appends the spans of another recorder that started empty, keeping
  // their parent links.
  void adopt(const std::vector<Span>& spans);

  // Totals per span name, in first-seen order.
  std::vector<SpanTotals> totals() const;

  // Chrome trace-event JSON (chrome://tracing, Perfetto); parent links
  // ride in each event's args.
  bool write_json(const std::string& path) const;

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// RAII span; a no-op on a disabled recorder.
class SpanScope {
 public:
  SpanScope(SpanRecorder& recorder, const char* name, std::uint32_t parent = 0)
      : recorder_(recorder), id_(recorder.begin(name, parent)) {}
  ~SpanScope() { recorder_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  std::uint32_t id_;
};

}  // namespace sstd::nodebench
