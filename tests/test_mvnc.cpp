#include "mvnc/mvnc.h"
#include "mvnc/sim_host.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "check/protocol.h"
#include "nn/googlenet.h"
#include "util/metrics.h"

namespace {

using namespace ncsw::mvnc;
using ncsw::check::ViolationKind;

std::uint64_t violations(ViolationKind kind) {
  return ncsw::check::verifier().count(kind);
}
using ncsw::graphc::compile;
using ncsw::graphc::Precision;
using ncsw::graphc::serialize;

std::vector<std::uint8_t> tiny_blob() {
  static const auto blob = serialize(
      compile(ncsw::nn::build_tiny_googlenet({32, 10}), Precision::kFP16));
  return blob;
}

class MvncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HostConfig cfg;
    cfg.devices = 2;
    // Several cases below commit *intentional* protocol misuse (double
    // close, FIFO over-issue, ...) to pin down the NCAPI error codes, so
    // the fixture runs the verifier in log mode and asserts on its
    // counters instead of letting a suite-wide NCSW_CHECK=strict abort.
    cfg.check = ncsw::check::CheckMode::kLog;
    host_reset(cfg);
  }
  void TearDown() override {
    HostConfig empty;
    empty.devices = 0;
    host_reset(empty);
  }

  void* open_first() {
    char name[64];
    EXPECT_EQ(mvncGetDeviceName(0, name, sizeof(name)), MVNC_OK);
    void* dev = nullptr;
    EXPECT_EQ(mvncOpenDevice(name, &dev), MVNC_OK);
    return dev;
  }

  void* allocate(void* dev) {
    const auto blob = tiny_blob();
    void* graph = nullptr;
    EXPECT_EQ(mvncAllocateGraph(dev, &graph, blob.data(),
                                static_cast<unsigned int>(blob.size())),
              MVNC_OK);
    return graph;
  }

  /// mvncAllocateGraph of `bytes`; the status, with the handle (or
  /// nullptr) in `graph`.
  mvncStatus allocate_file(void* dev, const std::vector<std::uint8_t>& bytes,
                           void** graph) {
    *graph = nullptr;
    return mvncAllocateGraph(dev, graph, bytes.data(),
                             static_cast<unsigned int>(bytes.size()));
  }

  std::vector<ncsw::fp16::half> input_tensor() {
    return std::vector<ncsw::fp16::half>(3 * 32 * 32);
  }
};

TEST_F(MvncTest, EnumerationListsAllDevices) {
  char name[64];
  EXPECT_EQ(mvncGetDeviceName(0, name, sizeof(name)), MVNC_OK);
  EXPECT_STREQ(name, "/sim/ncs0");
  EXPECT_EQ(mvncGetDeviceName(1, name, sizeof(name)), MVNC_OK);
  EXPECT_STREQ(name, "/sim/ncs1");
  EXPECT_EQ(mvncGetDeviceName(2, name, sizeof(name)), MVNC_DEVICE_NOT_FOUND);
  EXPECT_EQ(mvncGetDeviceName(-1, name, sizeof(name)), MVNC_DEVICE_NOT_FOUND);
}

TEST_F(MvncTest, EnumerationValidatesBuffer) {
  EXPECT_EQ(mvncGetDeviceName(0, nullptr, 64), MVNC_INVALID_PARAMETERS);
  char tiny[4];
  EXPECT_EQ(mvncGetDeviceName(0, tiny, sizeof(tiny)),
            MVNC_INVALID_PARAMETERS);
}

TEST_F(MvncTest, OpenUnknownNameFails) {
  void* dev = nullptr;
  EXPECT_EQ(mvncOpenDevice("/sim/ncs99", &dev), MVNC_DEVICE_NOT_FOUND);
  EXPECT_EQ(mvncOpenDevice(nullptr, &dev), MVNC_INVALID_PARAMETERS);
}

TEST_F(MvncTest, DoubleOpenIsBusy) {
  void* dev = open_first();
  ASSERT_NE(dev, nullptr);
  void* dev2 = nullptr;
  EXPECT_EQ(mvncOpenDevice("/sim/ncs0", &dev2), MVNC_BUSY);
  EXPECT_EQ(violations(ViolationKind::kDoubleOpen), 1u);
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_OK);
}

TEST_F(MvncTest, CloseInvalidatesHandle) {
  void* dev = open_first();
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_OK);
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_INVALID_PARAMETERS);
  EXPECT_EQ(violations(ViolationKind::kDoubleClose), 1u);
}

TEST_F(MvncTest, AllocateGraphRejectsGarbage) {
  void* dev = open_first();
  void* graph = nullptr;
  const std::uint8_t junk[16] = {1, 2, 3};
  EXPECT_EQ(mvncAllocateGraph(dev, &graph, junk, sizeof(junk)),
            MVNC_UNSUPPORTED_GRAPH_FILE);
  EXPECT_EQ(mvncAllocateGraph(dev, &graph, nullptr, 10),
            MVNC_INVALID_PARAMETERS);
}

TEST_F(MvncTest, AllocateGraphRejectsFp32Blob) {
  // The stick only executes FP16 graphs, like the real NCS.
  const auto blob32 = serialize(
      compile(ncsw::nn::build_tiny_googlenet({32, 10}), Precision::kFP32));
  void* dev = open_first();
  void* graph = nullptr;
  EXPECT_EQ(mvncAllocateGraph(dev, &graph, blob32.data(),
                              static_cast<unsigned int>(blob32.size())),
            MVNC_UNSUPPORTED_GRAPH_FILE);
}

TEST_F(MvncTest, GraphExceedingLpddrIsOutOfMemory) {
  // A 6 GB parameter set cannot fit the stick's 4 GB LPDDR3.
  ncsw::nn::Graph big("too_big");
  const int in = big.add_input("data", 1000, 1, 1);
  big.add_fc("fc", in, ncsw::nn::FCParams{3'000'000});
  const auto blob = serialize(
      compile(big, Precision::kFP16));
  void* dev = open_first();
  void* graph = nullptr;
  EXPECT_EQ(mvncAllocateGraph(dev, &graph, blob.data(),
                              static_cast<unsigned int>(blob.size())),
            MVNC_OUT_OF_MEMORY);
  // The device remains usable for a graph that fits.
  void* ok = allocate(dev);
  EXPECT_NE(ok, nullptr);
}

TEST_F(MvncTest, LoadGetRoundTrip) {
  void* dev = open_first();
  void* graph = allocate(dev);
  auto input = input_tensor();
  int marker = 42;
  EXPECT_EQ(mvncLoadTensor(graph, input.data(),
                           static_cast<unsigned int>(input.size() * 2),
                           &marker),
            MVNC_OK);
  void* out = nullptr;
  unsigned int out_len = 0;
  void* user = nullptr;
  EXPECT_EQ(mvncGetResult(graph, &out, &out_len, &user), MVNC_OK);
  EXPECT_EQ(out_len, 10u * 2u);  // 10 classes, FP16
  EXPECT_EQ(user, &marker);
  ASSERT_NE(out, nullptr);
}

TEST_F(MvncTest, LoadRejectsWrongSize) {
  void* dev = open_first();
  void* graph = allocate(dev);
  auto input = input_tensor();
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), 10, nullptr),
            MVNC_INVALID_PARAMETERS);
  EXPECT_EQ(mvncLoadTensor(graph, nullptr,
                           static_cast<unsigned int>(input.size() * 2),
                           nullptr),
            MVNC_INVALID_PARAMETERS);
}

TEST_F(MvncTest, GetResultWithoutLoadIsNoData) {
  void* dev = open_first();
  void* graph = allocate(dev);
  void* out = nullptr;
  unsigned int len = 0;
  EXPECT_EQ(mvncGetResult(graph, &out, &len, nullptr), MVNC_NO_DATA);
  EXPECT_EQ(violations(ViolationKind::kUnmatchedGetResult), 1u);
}

TEST_F(MvncTest, FifoFullReturnsBusy) {
  void* dev = open_first();
  void* graph = allocate(dev);
  auto input = input_tensor();
  const auto bytes = static_cast<unsigned int>(input.size() * 2);
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), bytes, nullptr), MVNC_OK);
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), bytes, nullptr), MVNC_OK);
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), bytes, nullptr), MVNC_BUSY);
  EXPECT_EQ(violations(ViolationKind::kOverIssue), 1u);
  void* out;
  unsigned int len;
  EXPECT_EQ(mvncGetResult(graph, &out, &len, nullptr), MVNC_OK);
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), bytes, nullptr), MVNC_OK);
  EXPECT_EQ(violations(ViolationKind::kOverIssue), 1u);
}

TEST_F(MvncTest, ResultsComeBackInFifoOrder) {
  void* dev = open_first();
  void* graph = allocate(dev);
  auto input = input_tensor();
  const auto bytes = static_cast<unsigned int>(input.size() * 2);
  int a = 1, b = 2;
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), bytes, &a), MVNC_OK);
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), bytes, &b), MVNC_OK);
  void* out;
  unsigned int len;
  void* user = nullptr;
  EXPECT_EQ(mvncGetResult(graph, &out, &len, &user), MVNC_OK);
  EXPECT_EQ(user, &a);
  EXPECT_EQ(mvncGetResult(graph, &out, &len, &user), MVNC_OK);
  EXPECT_EQ(user, &b);
}

TEST_F(MvncTest, TicketsAdvanceHostClock) {
  void* dev = open_first();
  void* graph = allocate(dev);
  auto input = input_tensor();
  const auto bytes = static_cast<unsigned int>(input.size() * 2);
  const double t0 = host_time(graph).value();
  mvncLoadTensor(graph, input.data(), bytes, nullptr);
  void* out;
  unsigned int len;
  mvncGetResult(graph, &out, &len, nullptr);
  const auto ticket = last_ticket(graph);
  ASSERT_TRUE(ticket.has_value());
  EXPECT_GT(ticket->result_ready, t0);
  EXPECT_GE(host_time(graph).value(), ticket->result_ready);
}

TEST_F(MvncTest, SetHostTimeOnlyMovesForward) {
  void* dev = open_first();
  void* graph = allocate(dev);
  const double t0 = host_time(graph).value();
  EXPECT_TRUE(set_host_time(graph, t0 + 5.0));
  EXPECT_DOUBLE_EQ(host_time(graph).value(), t0 + 5.0);
  EXPECT_TRUE(set_host_time(graph, t0));  // no-op backwards
  EXPECT_DOUBLE_EQ(host_time(graph).value(), t0 + 5.0);
}

TEST_F(MvncTest, InterOpGapValidation) {
  void* dev = open_first();
  void* graph = allocate(dev);
  EXPECT_TRUE(set_inter_op_gap(graph, 0.001));
  EXPECT_FALSE(set_inter_op_gap(graph, -1.0));
  EXPECT_FALSE(set_inter_op_gap(nullptr, 0.001));
}

TEST_F(MvncTest, TimeTakenOptionReportsPerLayerMs) {
  void* dev = open_first();
  void* graph = allocate(dev);
  float times[256];
  unsigned int len = sizeof(times);
  EXPECT_EQ(mvncGetGraphOption(graph, MVNC_TIME_TAKEN, times, &len), MVNC_OK);
  const std::size_t layers = len / sizeof(float);
  EXPECT_GT(layers, 10u);
  double total = 0;
  for (std::size_t i = 0; i < layers; ++i) {
    EXPECT_GE(times[i], 0.0f);
    total += times[i];
  }
  EXPECT_GT(total, 0.0);
}

TEST_F(MvncTest, TimeTakenRejectsSmallBuffer) {
  void* dev = open_first();
  void* graph = allocate(dev);
  float one;
  unsigned int len = sizeof(one);
  EXPECT_EQ(mvncGetGraphOption(graph, MVNC_TIME_TAKEN, &one, &len),
            MVNC_INVALID_PARAMETERS);
}

TEST_F(MvncTest, DebugInfoOption) {
  void* dev = open_first();
  void* graph = allocate(dev);
  char buf[160];
  unsigned int len = sizeof(buf);
  EXPECT_EQ(mvncGetGraphOption(graph, MVNC_DEBUG_INFO, buf, &len), MVNC_OK);
  EXPECT_NE(std::strstr(buf, "tiny_googlenet"), nullptr);
}

TEST_F(MvncTest, UnknownOptionRejected) {
  void* dev = open_first();
  void* graph = allocate(dev);
  char buf[16];
  unsigned int len = sizeof(buf);
  EXPECT_EQ(mvncGetGraphOption(graph, 12345, buf, &len),
            MVNC_INVALID_PARAMETERS);
}

TEST_F(MvncTest, DeallocateInvalidatesGraphHandle) {
  void* dev = open_first();
  void* graph = allocate(dev);
  EXPECT_EQ(mvncDeallocateGraph(graph), MVNC_OK);
  EXPECT_EQ(mvncDeallocateGraph(graph), MVNC_INVALID_PARAMETERS);
  auto input = input_tensor();
  EXPECT_EQ(mvncLoadTensor(graph, input.data(),
                           static_cast<unsigned int>(input.size() * 2),
                           nullptr),
            MVNC_INVALID_PARAMETERS);
  // Both the double dealloc and the load on the dead handle are flagged.
  EXPECT_EQ(violations(ViolationKind::kUseAfterDealloc), 2u);
}

TEST_F(MvncTest, CloseDeviceInvalidatesItsGraphs) {
  void* dev = open_first();
  void* graph = allocate(dev);
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_OK);
  void* out;
  unsigned int len;
  EXPECT_EQ(mvncGetResult(graph, &out, &len, nullptr),
            MVNC_INVALID_PARAMETERS);
  EXPECT_EQ(violations(ViolationKind::kUseAfterClose), 1u);
}

TEST_F(MvncTest, FunctionalNetworkValidatesShape) {
  void* dev = open_first();
  void* graph = allocate(dev);
  const auto net = ncsw::nn::build_tiny_googlenet({32, 10});
  const auto wf = ncsw::nn::init_msra(net, 1);
  const auto wh = ncsw::nn::to_fp16(wf);
  EXPECT_TRUE(set_functional_network(graph, &net, &wh));
  // Mismatched input size is rejected.
  const auto bad = ncsw::nn::build_tiny_googlenet({48, 10});
  EXPECT_FALSE(set_functional_network(graph, &bad, &wh));
  // Half-attached is rejected.
  EXPECT_FALSE(set_functional_network(graph, &net, nullptr));
  // Detach is fine.
  EXPECT_TRUE(set_functional_network(graph, nullptr, nullptr));
}

TEST_F(MvncTest, FunctionalOutputIsRealSoftmax) {
  void* dev = open_first();
  void* graph = allocate(dev);
  const auto net = ncsw::nn::build_tiny_googlenet({32, 10});
  const auto wf = ncsw::nn::init_msra(net, 1);
  const auto wh = ncsw::nn::to_fp16(wf);
  ASSERT_TRUE(set_functional_network(graph, &net, &wh));
  auto input = input_tensor();
  for (auto& h : input) h = ncsw::fp16::half(0.25f);
  ASSERT_EQ(mvncLoadTensor(graph, input.data(),
                           static_cast<unsigned int>(input.size() * 2),
                           nullptr),
            MVNC_OK);
  void* out = nullptr;
  unsigned int len = 0;
  ASSERT_EQ(mvncGetResult(graph, &out, &len, nullptr), MVNC_OK);
  const auto* probs = static_cast<const ncsw::fp16::half*>(out);
  double sum = 0;
  for (unsigned int i = 0; i < len / 2; ++i) {
    sum += static_cast<float>(probs[i]);
  }
  EXPECT_NEAR(sum, 1.0, 0.01);
}

TEST_F(MvncTest, UnpluggedDeviceReturnsGone) {
  void* dev = open_first();
  void* graph = allocate(dev);
  auto input = input_tensor();
  const auto bytes = static_cast<unsigned int>(input.size() * 2);
  ASSERT_EQ(mvncLoadTensor(graph, input.data(), bytes, nullptr), MVNC_OK);

  ncsw::mvnc::device_of(dev)->unplug();
  void* out;
  unsigned int len;
  EXPECT_EQ(mvncGetResult(graph, &out, &len, nullptr), MVNC_GONE);
  EXPECT_EQ(mvncLoadTensor(graph, input.data(), bytes, nullptr), MVNC_GONE);
  // GONE is a device loss, not caller misuse; only the speculative final
  // GetResult (nothing outstanding any more) is a contract violation.
  EXPECT_EQ(mvncGetResult(graph, &out, &len, nullptr), MVNC_NO_DATA);
  EXPECT_EQ(ncsw::check::verifier().total(), 1u);
  EXPECT_EQ(violations(ViolationKind::kUnmatchedGetResult), 1u);
}

TEST_F(MvncTest, HostResetInvalidatesEverything) {
  void* dev = open_first();
  void* graph = allocate(dev);
  HostConfig cfg;
  cfg.devices = 1;
  host_reset(cfg);
  EXPECT_EQ(mvncCloseDevice(dev), MVNC_INVALID_PARAMETERS);
  EXPECT_EQ(mvncDeallocateGraph(graph), MVNC_INVALID_PARAMETERS);
  EXPECT_EQ(host_device_count(), 1);
}

// ---- graph files: parsed once per host, simulated once per stick ---------

std::uint64_t chip_simulations() {
  return ncsw::util::metrics().counter("myriad.executions").value();
}

TEST_F(MvncTest, ReallocatingOneFileSimulatesOncePerStick) {
  // Every allocate passes a fresh copy of the same bytes. The host finds
  // the parsed package by content and each stick its profile of that
  // package, so the chip model runs once per stick. Bypassing either
  // cache makes it run on every allocation.
  void* dev0 = open_first();
  void* dev1 = nullptr;
  ASSERT_EQ(mvncOpenDevice("/sim/ncs1", &dev1), MVNC_OK);
  const std::uint64_t before = chip_simulations();
  for (int i = 0; i < 5; ++i) {
    for (void* dev : {dev0, dev1}) {
      void* graph = allocate(dev);
      ASSERT_NE(graph, nullptr);
      EXPECT_EQ(mvncDeallocateGraph(graph), MVNC_OK);
    }
  }
  EXPECT_EQ(chip_simulations() - before, 2u);
}

TEST_F(MvncTest, FileOneByteApartIsParsedAndSimulatedAfresh) {
  auto compiled =
      compile(ncsw::nn::build_tiny_googlenet({32, 10}), Precision::kFP16);
  const auto base = serialize(compiled);
  // Flip the low bit of one multi-tile layer's tile count: a file of the
  // same length that differs from `base` in exactly one byte.
  const auto it = std::find_if(
      compiled.layers.begin(), compiled.layers.end(),
      [](const ncsw::graphc::LayerCost& l) { return l.tiles >= 2; });
  ASSERT_NE(it, compiled.layers.end());
  const auto layer = static_cast<std::size_t>(it - compiled.layers.begin());
  it->tiles ^= 1;
  const auto edited = serialize(compiled);
  ASSERT_EQ(edited.size(), base.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    differing += base[i] != edited[i] ? 1 : 0;
  }
  ASSERT_EQ(differing, 1u);

  void* dev = open_first();
  void* graph = nullptr;
  ASSERT_EQ(allocate_file(dev, base, &graph), MVNC_OK);
  const auto base_profile = graph_device(graph)->profile();
  EXPECT_EQ(mvncDeallocateGraph(graph), MVNC_OK);
  ASSERT_EQ(allocate_file(dev, edited, &graph), MVNC_OK);
  const auto edited_profile = graph_device(graph)->profile();
  EXPECT_NE(edited_profile, base_profile);
  EXPECT_EQ(base_profile->layers[layer].tiles, it->tiles ^ 1);
  EXPECT_EQ(edited_profile->layers[layer].tiles, it->tiles);
}

TEST_F(MvncTest, MalformedFileIsRejectedOnEveryAttempt) {
  // A failed parse is never remembered, and a truncated file is not a
  // hit on the intact file it is a prefix of.
  const auto good = tiny_blob();
  const std::vector<std::uint8_t> truncated(good.begin(), good.end() - 1);
  void* dev = open_first();
  void* graph = nullptr;
  EXPECT_EQ(allocate_file(dev, truncated, &graph),
            MVNC_UNSUPPORTED_GRAPH_FILE);
  EXPECT_EQ(allocate_file(dev, truncated, &graph),
            MVNC_UNSUPPORTED_GRAPH_FILE);
  ASSERT_EQ(allocate_file(dev, good, &graph), MVNC_OK);
  EXPECT_EQ(mvncDeallocateGraph(graph), MVNC_OK);
  EXPECT_EQ(allocate_file(dev, truncated, &graph),
            MVNC_UNSUPPORTED_GRAPH_FILE);
  EXPECT_EQ(graph, nullptr);
}

TEST_F(MvncTest, DegradedStickSimulatesTheSameFileSlower) {
  // Profiles are per stick: a stick with a slower chip config must not
  // reuse the profile a normal stick computed from the same file.
  HostConfig cfg;
  cfg.devices = 2;
  cfg.degraded_device = 1;
  cfg.check = ncsw::check::CheckMode::kLog;
  host_reset(cfg);
  void* dev0 = open_first();
  void* dev1 = nullptr;
  ASSERT_EQ(mvncOpenDevice("/sim/ncs1", &dev1), MVNC_OK);
  void* g0 = allocate(dev0);
  void* g1 = allocate(dev1);
  ASSERT_TRUE(g0 && g1);
  EXPECT_GT(graph_device(g1)->profile()->total_s,
            graph_device(g0)->profile()->total_s);
}

}  // namespace
