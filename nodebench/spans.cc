#include "spans.h"

#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace sstd::nodebench {

std::uint32_t SpanRecorder::begin(const char* name, std::uint32_t parent) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.begin_ns = now_ns();
  spans_.push_back(span);
  return span.id;
}

void SpanRecorder::end(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = now_ns();
}

void SpanRecorder::adopt(const std::vector<Span>& spans) {
  if (!enabled_) return;
  const auto offset = static_cast<std::uint32_t>(spans_.size());
  for (Span span : spans) {
    span.id += offset;
    if (span.parent != 0) span.parent += offset;
    spans_.push_back(span);
  }
}

std::vector<SpanTotals> SpanRecorder::totals() const {
  std::vector<double> child_s(spans_.size() + 1, 0.0);
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      child_s[span.parent] += static_cast<double>(span.end_ns - span.begin_ns) * 1e-9;
    }
  }
  std::vector<SpanTotals> out;
  std::unordered_map<std::string, std::size_t> index;
  for (const Span& span : spans_) {
    auto [it, fresh] = index.emplace(span.name, out.size());
    if (fresh) out.push_back(SpanTotals{span.name, 0, 0.0, 0.0});
    SpanTotals& t = out[it->second];
    const double dur_s = static_cast<double>(span.end_ns - span.begin_ns) * 1e-9;
    ++t.count;
    t.total_s += dur_s;
    t.self_s += dur_s - child_s[span.id];
  }
  return out;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().begin_ns;
  out << "{\"traceEvents\": [\n";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1,"
                  " \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u,"
                  " \"parent\": %u}}%s\n",
                  s.name, static_cast<double>(s.begin_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.begin_ns) * 1e-3, s.id,
                  s.parent, i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace sstd::nodebench
