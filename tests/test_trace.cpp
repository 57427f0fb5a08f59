// Observability layer: the tracer's Chrome trace-event output, the
// metrics registry's aggregation/reset contract, the bench report
// schema, and the end-to-end guarantee the layer exists for — that a
// 2-stick run shows execution overlap across device lanes.
#include "util/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "mvnc/mvnc.h"
#include "mvnc/sim_host.h"
#include "nn/googlenet.h"
#include "util/json.h"
#include "util/metrics.h"

namespace {

using namespace ncsw;

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::tracer().reset();
    util::tracer().set_enabled(true);
    util::tracer().set_detail(util::TraceDetail::kSpans);
  }
  void TearDown() override {
    util::tracer().set_enabled(false);
    util::tracer().reset();
  }
};

TEST_F(TraceTest, CompleteSpanRoundTrips) {
  auto& t = util::tracer();
  t.complete("ncs", "exec", t.lane("dev0 shave"), 1.0, 1.5,
             {util::TraceArg::num("seq", std::int64_t{7}),
              util::TraceArg::str("net", "tiny")});
  const auto doc = util::json_parse(t.to_json());
  ASSERT_TRUE(doc.has_value());
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // process_name meta + thread_name meta + thread_sort_index meta + span.
  const util::JsonValue* span = nullptr;
  for (const auto& e : events->array) {
    if (e.find("ph")->string == "X") span = &e;
  }
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->find("cat")->string, "ncs");
  EXPECT_EQ(span->find("name")->string, "exec");
  EXPECT_DOUBLE_EQ(span->find("ts")->number, 1.0e6);  // simulated s -> us
  EXPECT_DOUBLE_EQ(span->find("dur")->number, 0.5e6);
  EXPECT_DOUBLE_EQ(span->find("args")->find("seq")->number, 7.0);
  EXPECT_EQ(span->find("args")->find("net")->string, "tiny");
}

TEST_F(TraceTest, NestedSpansShareALaneAndStayOrdered) {
  auto& t = util::tracer();
  const int lane = t.lane("host");
  t.complete("core", "outer", lane, 0.0, 1.0);
  t.complete("core", "inner", lane, 0.25, 0.75);
  const auto doc = util::json_parse(t.to_json());
  ASSERT_TRUE(doc.has_value());
  std::vector<const util::JsonValue*> spans;
  for (const auto& e : doc->find("traceEvents")->array) {
    if (e.find("ph")->string == "X") spans.push_back(&e);
  }
  ASSERT_EQ(spans.size(), 2u);
  // Time-sorted, longer span first at equal ts; both on the same tid so
  // viewers render the containment.
  EXPECT_EQ(spans[0]->find("name")->string, "outer");
  EXPECT_EQ(spans[1]->find("name")->string, "inner");
  EXPECT_EQ(spans[0]->find("tid")->number, spans[1]->find("tid")->number);
  EXPECT_LE(spans[0]->find("ts")->number, spans[1]->find("ts")->number);
}

TEST_F(TraceTest, TraceSpanRaiiEmitsOnDestruction) {
  auto& t = util::tracer();
  {
    util::TraceSpan span("core", "scope", t.lane("host"), 2.0);
    span.arg("images", std::int64_t{8});
    span.end(3.0);
  }
  ASSERT_EQ(t.size(), 1u);
  const auto doc = util::json_parse(t.to_json());
  const auto& events = doc->find("traceEvents")->array;
  const auto& span = events.back();
  EXPECT_EQ(span.find("name")->string, "scope");
  EXPECT_DOUBLE_EQ(span.find("dur")->number, 1.0e6);
}

TEST_F(TraceTest, LanePrefixNamespacesTimelines) {
  auto& t = util::tracer();
  t.set_lane_prefix("phase-a ");
  const int a = t.lane("dev0 shave");
  t.set_lane_prefix("phase-b ");
  const int b = t.lane("dev0 shave");
  EXPECT_NE(a, b);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("phase-a dev0 shave"), std::string::npos);
  EXPECT_NE(json.find("phase-b dev0 shave"), std::string::npos);
}

TEST_F(TraceTest, OutputIsByteDeterministic) {
  auto emit_scenario = [] {
    auto& t = util::tracer();
    t.reset();
    t.set_lane_prefix("run ");
    const int shave = t.lane("dev0 shave");
    const int usb = t.lane("usb usb-ch0");
    for (int i = 0; i < 50; ++i) {
      const double start = 0.001 * i;
      t.complete("usb", "transfer", usb, start, start + 0.0003,
                 {util::TraceArg::num("bytes", std::int64_t{150528})});
      t.complete("ncs", "exec", shave, start + 0.0003, start + 0.0017,
                 {util::TraceArg::num("seq", static_cast<std::int64_t>(i)),
                  util::TraceArg::num("queue_wait_ms", 0.1 * i)});
    }
    t.counter("dev0 temp_c", 0.05, 41.25);
    return t.to_json();
  };
  const std::string first = emit_scenario();
  const std::string second = emit_scenario();
  EXPECT_EQ(first, second);
  ASSERT_TRUE(util::json_parse(first).has_value());
}

// Counters sit on tid 0 whatever emitted them, so counters that tie in
// time come out in name order, not in the order (possibly several) host
// threads emitted them; an instant in the same tie keeps its place.
TEST_F(TraceTest, TiedCountersComeOutInNameOrder) {
  auto names = [] {
    std::vector<std::string> out;
    const auto doc = util::json_parse(util::tracer().to_json());
    for (const auto& e : doc->find("traceEvents")->array) {
      if (e.find("ph")->string != "M") out.push_back(e.find("name")->string);
    }
    return out;
  };
  auto& t = util::tracer();
  const int lane0 = t.lane("lane zero");
  t.counter("dev3 temp_c", 1.0, 30.0);
  t.instant("test", "mark", lane0, 1.0);
  t.counter("dev0 temp_c", 1.0, 31.0);
  t.counter("dev1 temp_c", 0.5, 32.0);
  const std::vector<std::string> want = {"dev1 temp_c", "dev0 temp_c",
                                         "mark", "dev3 temp_c"};
  EXPECT_EQ(names(), want);
}

TEST_F(TraceTest, CapacityDropsAreCountedNotStored) {
  auto& t = util::tracer();
  t.set_capacity(4);
  const int lane = t.lane("host");
  for (int i = 0; i < 10; ++i) {
    t.complete("core", "op", lane, i * 1.0, i * 1.0 + 0.5);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  const auto doc = util::json_parse(t.to_json());
  EXPECT_DOUBLE_EQ(
      doc->at_path({"otherData", "dropped_events"})->number, 6.0);
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  auto& t = util::tracer();
  t.set_enabled(false);
  EXPECT_FALSE(t.layers_enabled());
  t.complete("core", "op", t.lane("host"), 0.0, 1.0);
  EXPECT_EQ(t.size(), 0u);
}

TEST(MetricsTest, CountersAggregateAcrossThreads) {
  auto& reg = util::metrics();
  reg.reset();
  auto& c = reg.counter("test.threads.adds");
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&c] {
      for (int k = 0; k < 1000; ++k) c.add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), 4000u);
  // Lookup returns the same instrument, not a fresh one.
  EXPECT_EQ(&reg.counter("test.threads.adds"), &c);
}

TEST(MetricsTest, HistogramAggregates) {
  auto& reg = util::metrics();
  reg.reset();
  auto& h = reg.histogram("test.hist", {1.0, 10.0, 100.0});
  h.record(0.5);
  h.record(5.0);
  h.record(50.0);
  h.record(500.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  for (const auto n : buckets) EXPECT_EQ(n, 1u);
}

TEST(MetricsTest, ResetZeroesInPlaceSoReferencesSurvive) {
  auto& reg = util::metrics();
  reg.reset();
  auto& c = reg.counter("test.reset.counter");
  auto& g = reg.gauge("test.reset.gauge");
  auto& h = reg.histogram("test.reset.hist");
  c.add(3);
  g.set(2.5);
  h.record(1.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  // The pre-reset references still feed the registry's snapshot.
  c.add(7);
  const auto doc = util::json_parse(reg.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->at_path({"counters", "test.reset.counter"})->number,
                   7.0);
}

TEST(BenchReportTest, SchemaRoundTrips) {
  bench::BenchReport report("fig6a_throughput");
  report.config("images", std::int64_t{10000});
  report.config("policy", std::string("round-robin"));
  report.anchor("vpu_img_per_s", "img/s", 77.2, 76.6);
  report.anchor("zero_paper", "x", 0.0, 1.0);  // ratio must be null
  report.value("cpu_gap_vs_vpu_pct", 40.7);
  const auto doc = util::json_parse(report.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->string, "ncsw-bench-v1");
  EXPECT_EQ(doc->find("bench")->string, "fig6a_throughput");
  EXPECT_EQ(doc->find("clock")->string, "simulated");
  EXPECT_DOUBLE_EQ(doc->at_path({"config", "images"})->number, 10000.0);
  EXPECT_EQ(doc->at_path({"config", "policy"})->string, "round-robin");
  const auto& anchors = doc->find("anchors")->array;
  ASSERT_EQ(anchors.size(), 2u);
  EXPECT_EQ(anchors[0].find("metric")->string, "vpu_img_per_s");
  EXPECT_NEAR(anchors[0].find("ratio")->number, 76.6 / 77.2, 1e-12);
  EXPECT_EQ(anchors[1].find("ratio")->kind, util::JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(
      doc->at_path({"values", "cpu_gap_vs_vpu_pct"})->number, 40.7);
}

// The guarantee the whole layer exists for: with two sticks driven
// through the NCAPI, the trace shows their execution windows on distinct
// lanes, overlapping in simulated time.
TEST(TraceIntegrationTest, TwoDeviceRunShowsOverlapAcrossLanes) {
  using namespace ncsw::mvnc;
  HostConfig cfg;
  cfg.devices = 2;
  host_reset(cfg);
  auto& t = util::tracer();
  t.reset();
  t.set_enabled(true);

  const auto blob = graphc::serialize(graphc::compile(
      nn::build_tiny_googlenet({32, 10}), graphc::Precision::kFP16));
  std::vector<void*> devs, graphs;
  for (int d = 0; d < 2; ++d) {
    char name[64];
    ASSERT_EQ(mvncGetDeviceName(d, name, sizeof(name)), MVNC_OK);
    void* dev = nullptr;
    ASSERT_EQ(mvncOpenDevice(name, &dev), MVNC_OK);
    void* graph = nullptr;
    ASSERT_EQ(mvncAllocateGraph(dev, &graph, blob.data(),
                                static_cast<unsigned int>(blob.size())),
              MVNC_OK);
    devs.push_back(dev);
    graphs.push_back(graph);
  }
  // Issue on both sticks before collecting: the loads overlap.
  std::vector<fp16::half> input(3 * 32 * 32);
  for (int rep = 0; rep < 4; ++rep) {
    for (void* g : graphs) {
      ASSERT_EQ(mvncLoadTensor(g, input.data(),
                               static_cast<unsigned int>(input.size() *
                                                         sizeof(fp16::half)),
                               nullptr),
                MVNC_OK);
    }
    for (void* g : graphs) {
      void* out = nullptr;
      unsigned int len = 0;
      ASSERT_EQ(mvncGetResult(g, &out, &len, nullptr), MVNC_OK);
    }
  }
  for (void* g : graphs) mvncDeallocateGraph(g);
  for (void* d : devs) mvncCloseDevice(d);

  const auto doc = util::json_parse(t.to_json());
  ASSERT_TRUE(doc.has_value());
  // Map tid -> lane name from the metadata events.
  std::map<double, std::string> lanes;
  std::vector<std::pair<double, std::pair<double, double>>> execs;  // tid, win
  for (const auto& e : doc->find("traceEvents")->array) {
    if (e.find("ph")->string == "M" &&
        e.find("name")->string == "thread_name") {
      lanes[e.find("tid")->number] = e.at_path({"args", "name"})->string;
    }
    if (e.find("ph")->string == "X" && e.find("name")->string == "exec") {
      const double ts = e.find("ts")->number;
      execs.push_back({e.find("tid")->number,
                       {ts, ts + e.find("dur")->number}});
    }
  }
  bool dev0 = false, dev1 = false, overlap = false;
  for (const auto& [tid, win] : execs) {
    if (lanes[tid] == "dev0 shave") dev0 = true;
    if (lanes[tid] == "dev1 shave") dev1 = true;
  }
  for (const auto& [tid_a, a] : execs) {
    for (const auto& [tid_b, b] : execs) {
      if (lanes[tid_a] == "dev0 shave" && lanes[tid_b] == "dev1 shave" &&
          a.first < b.second && b.first < a.second) {
        overlap = true;
      }
    }
  }
  EXPECT_TRUE(dev0);
  EXPECT_TRUE(dev1);
  EXPECT_TRUE(overlap);

  // The instrumented run also fed the metrics registry.
  EXPECT_GE(util::metrics().counter("ncs.dev0.inferences").value(), 4u);

  t.set_enabled(false);
  t.reset();
  HostConfig empty;
  empty.devices = 0;
  host_reset(empty);
}

}  // namespace
