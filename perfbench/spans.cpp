#include "spans.h"

#include <fstream>

#include "util/json.h"

namespace perfbench {

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

int SpanLog::open(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.scope = scope_;
  span.parent = stack_.empty() ? -1 : stack_.back();
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  stack_.push_back(index);
  spans_.back().start_s = now_s();
  return index;
}

void SpanLog::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  // Scopes are RAII, so spans close in reverse order of opening.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double SpanLog::total_s(const std::string& name) const {
  double total = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

std::int64_t SpanLog::count(const std::string& name) const {
  std::int64_t n = 0;
  for (const auto& s : spans_) {
    if (s.name == name) ++n;
  }
  return n;
}

bool SpanLog::write_json(const std::string& path) const {
  ncsw::util::JsonWriter json;
  json.begin_object().key("schema").value("perfbench-spans-v1").key("spans").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json.begin_object()
        .key("id").value(static_cast<std::uint64_t>(i))
        .key("name").value(s.name)
        .key("start_s").value(s.start_s)
        .key("end_s").value(s.end_s)
        .key("parent").value(s.parent)
        .key("scope").value(s.scope)
        .end_object();
  }
  json.end_array().end_object();
  std::ofstream out(path);
  out << json.str() << "\n";
  return static_cast<bool>(out);
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

}  // namespace perfbench
