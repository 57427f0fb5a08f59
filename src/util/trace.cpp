#include "util/trace.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "util/json.h"

namespace ncsw::util {

namespace {

constexpr double kSecondsToUs = 1e6;

std::string render_args(const std::vector<TraceArg>& args) {
  if (args.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += JsonWriter::escape(args[i].key);
    out += "\":";
    out += args[i].value;
  }
  out += '}';
  return out;
}

}  // namespace

TraceArg TraceArg::num(std::string k, double v) {
  return {std::move(k), JsonWriter::number(v)};
}

TraceArg TraceArg::num(std::string k, std::int64_t v) {
  return {std::move(k), std::to_string(v)};
}

TraceArg TraceArg::str(std::string k, const std::string& v) {
  return {std::move(k), '"' + JsonWriter::escape(v) + '"'};
}

int Tracer::lane(const std::string& name) {
  std::lock_guard lock(mutex_);
  const std::string full = lane_prefix_ + name;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i] == full) return static_cast<int>(i);
  }
  lanes_.push_back(full);
  return static_cast<int>(lanes_.size() - 1);
}

void Tracer::set_lane_prefix(std::string prefix) {
  std::lock_guard lock(mutex_);
  lane_prefix_ = std::move(prefix);
}

bool Tracer::push(Event ev) {
  std::lock_guard lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return false;
  }
  events_.push_back(std::move(ev));
  return true;
}

void Tracer::complete(const std::string& cat, const std::string& name,
                      int lane, double start_s, double end_s,
                      std::vector<TraceArg> args) {
  if (!enabled()) return;
  if (end_s < start_s) end_s = start_s;
  push(Event{'X', cat, name, lane, start_s * kSecondsToUs,
             (end_s - start_s) * kSecondsToUs, render_args(args)});
}

void Tracer::counter(const std::string& name, double t_s, double value) {
  if (!enabled()) return;
  push(Event{'C', "counter", name, 0, t_s * kSecondsToUs, 0.0,
             "{\"value\":" + JsonWriter::number(value) + "}"});
}

void Tracer::instant(const std::string& cat, const std::string& name,
                     int lane, double t_s) {
  if (!enabled()) return;
  push(Event{'i', cat, name, lane, t_s * kSecondsToUs, 0.0, {}});
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

void Tracer::set_capacity(std::size_t cap) {
  std::lock_guard lock(mutex_);
  capacity_ = cap;
}

void Tracer::reset() {
  std::lock_guard lock(mutex_);
  events_.clear();
  lanes_.clear();
  lane_prefix_.clear();
  dropped_ = 0;
}

std::string Tracer::to_json() const {
  // Copy under the lock, serialise outside it.
  std::vector<Event> events;
  std::vector<std::string> lanes;
  std::uint64_t dropped;
  {
    std::lock_guard lock(mutex_);
    events = events_;
    lanes = lanes_;
    dropped = dropped_;
  }
  // Stable time-order: viewers do not require it, but it makes the file
  // deterministic even when several host threads emitted concurrently
  // (ties keep emission order via stable_sort).
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
                     return a.tid < b.tid;
                   });
  // Counters all sit on tid 0, so counters of different devices that tie
  // in time would keep the order their host threads emitted them in.
  // Within each tied run, put the counters in name order; every other
  // event keeps its place.
  for (std::size_t i = 0; i < events.size();) {
    std::size_t j = i + 1;
    while (j < events.size() && events[j].ts_us == events[i].ts_us &&
           events[j].dur_us == events[i].dur_us &&
           events[j].tid == events[i].tid) {
      ++j;
    }
    std::vector<std::size_t> at;
    for (std::size_t k = i; k < j && j - i > 1; ++k) {
      if (events[k].phase == 'C') at.push_back(k);
    }
    if (at.size() > 1) {
      std::vector<Event> counters;
      for (const std::size_t k : at) counters.push_back(std::move(events[k]));
      std::stable_sort(counters.begin(), counters.end(),
                       [](const Event& a, const Event& b) {
                         return a.name < b.name;
                       });
      for (std::size_t c = 0; c < at.size(); ++c) {
        events[at[c]] = std::move(counters[c]);
      }
    }
    i = j;
  }

  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("otherData");
  w.begin_object();
  w.key("clock").value("simulated");
  w.key("schema").value("ncsw-trace-v1");
  w.key("dropped_events").value(dropped);
  w.end_object();
  w.key("traceEvents");
  w.begin_array();
  // Process / lane names first (metadata events).
  w.begin_object();
  w.key("ph").value("M");
  w.key("pid").value(std::int64_t{1});
  w.key("name").value("process_name");
  w.key("args").begin_object().key("name").value("ncsw-sim").end_object();
  w.end_object();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    w.begin_object();
    w.key("ph").value("M");
    w.key("pid").value(std::int64_t{1});
    w.key("tid").value(static_cast<std::int64_t>(i));
    w.key("name").value("thread_name");
    w.key("args").begin_object().key("name").value(lanes[i]).end_object();
    w.end_object();
    // Preserve registration order as the viewer's sort order.
    w.begin_object();
    w.key("ph").value("M");
    w.key("pid").value(std::int64_t{1});
    w.key("tid").value(static_cast<std::int64_t>(i));
    w.key("name").value("thread_sort_index");
    w.key("args")
        .begin_object()
        .key("sort_index")
        .value(static_cast<std::int64_t>(i))
        .end_object();
    w.end_object();
  }
  for (const Event& ev : events) {
    w.begin_object();
    w.key("ph").value(std::string(1, ev.phase));
    w.key("cat").value(ev.cat);
    w.key("name").value(ev.name);
    w.key("pid").value(std::int64_t{1});
    w.key("tid").value(static_cast<std::int64_t>(ev.tid));
    w.key("ts").value(ev.ts_us);
    if (ev.phase == 'X') w.key("dur").value(ev.dur_us);
    if (ev.phase == 'i') w.key("s").value("t");
    if (!ev.args_json.empty()) w.key("args").raw(ev.args_json);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void Tracer::write(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("Tracer::write: cannot open " + path);
  const std::string json = to_json();
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  if (!f) throw std::runtime_error("Tracer::write: write failed: " + path);
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

TraceSpan::TraceSpan(std::string cat, std::string name, int lane,
                     double start_s)
    : cat_(std::move(cat)),
      name_(std::move(name)),
      lane_(lane),
      start_s_(start_s),
      end_s_(start_s) {}

void TraceSpan::arg(std::string key, double v) {
  args_.push_back(TraceArg::num(std::move(key), v));
}

void TraceSpan::arg(std::string key, std::int64_t v) {
  args_.push_back(TraceArg::num(std::move(key), v));
}

void TraceSpan::arg(std::string key, const std::string& v) {
  args_.push_back(TraceArg::str(std::move(key), v));
}

void TraceSpan::end(double end_s) {
  end_s_ = end_s;
  tracer().complete(cat_, name_, lane_, start_s_, end_s_, std::move(args_));
  emitted_ = true;
}

TraceSpan::~TraceSpan() {
  if (!emitted_) {
    tracer().complete(cat_, name_, lane_, start_s_, end_s_, std::move(args_));
  }
}

}  // namespace ncsw::util
