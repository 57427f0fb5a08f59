#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "graphc/compiler.h"
#include "mvnc/mvnc.h"
#include "mvnc/sim_host.h"
#include "nn/executor.h"
#include "nn/googlenet.h"
#include "nn/zoo.h"
#include "util/binio.h"

namespace {

using namespace ncsw::nn;

TEST(BinIo, ScalarAndStringRoundTrip) {
  ncsw::util::BinWriter w;
  w.put<std::uint32_t>(0xdeadbeef);
  w.put<double>(3.25);
  w.put_string("hello");
  w.put_blob({1, 2, 3});
  const auto bytes = w.take();

  ncsw::util::BinReader r(bytes);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_blob(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.done());
}

TEST(BinIo, TruncationDetected) {
  ncsw::util::BinWriter w;
  w.put<std::uint64_t>(1);
  auto bytes = w.take();
  bytes.pop_back();
  ncsw::util::BinReader r(bytes);
  EXPECT_THROW(r.get<std::uint64_t>(), std::runtime_error);
}

TEST(BinIo, OversizedStringRejected) {
  ncsw::util::BinWriter w;
  w.put<std::uint32_t>(0xffffffffu);  // absurd length prefix
  const auto bytes = w.take();
  ncsw::util::BinReader r(bytes);
  EXPECT_THROW(r.get_string(), std::runtime_error);
}

TEST(GraphSerialization, EveryZooNetworkRoundTrips) {
  for (const auto& name : network_zoo_names()) {
    const Graph original = build_named_network(name);
    const auto bytes = serialize_graph(original);
    const Graph restored = deserialize_graph(bytes);
    ASSERT_EQ(restored.size(), original.size()) << name;
    EXPECT_EQ(restored.name(), original.name());
    for (int id = 0; id < original.size(); ++id) {
      const Layer& a = original.layer(id);
      const Layer& b = restored.layer(id);
      EXPECT_EQ(a.kind, b.kind) << name << " layer " << id;
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.inputs, b.inputs);
      EXPECT_EQ(a.out_shape, b.out_shape) << name << " " << a.name;
    }
  }
}

TEST(GraphSerialization, CorruptedInputRejected) {
  auto bytes = serialize_graph(build_tiny_googlenet({32, 10}));
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(deserialize_graph(bad_magic), std::runtime_error);

  auto truncated = bytes;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(deserialize_graph(truncated), std::runtime_error);

  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(deserialize_graph(trailing), std::runtime_error);
}

// A package whose LRN carries a non-finite alpha, beta or k: the parser
// rejects it as a structural error instead of handing the kernels a NaN
// power. The crafted bytes are a valid package with one float replaced.
TEST(GraphSerialization, NonFiniteLrnParameterRejected) {
  Graph g("lrn");
  const int in = g.add_input("data", 4, 6, 6);
  g.add_lrn("norm", in, LRNParams{5, 0x1.5p-13f, 0x1.7p-1f, 0x1.9p+1f});
  const auto bytes = serialize_graph(g);
  EXPECT_NO_THROW(deserialize_graph(bytes));
  for (const float original : {0x1.5p-13f, 0x1.7p-1f, 0x1.9p+1f}) {
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
      auto crafted = bytes;
      const auto* pattern = reinterpret_cast<const std::uint8_t*>(&original);
      const auto at = std::search(crafted.begin(), crafted.end(), pattern,
                                  pattern + sizeof(float));
      ASSERT_NE(at, crafted.end()) << original;
      std::memcpy(&*at, &bad, sizeof(float));
      try {
        deserialize_graph(crafted);
        ADD_FAILURE() << "accepted " << bad << " in place of " << original;
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("graph: invalid structure"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(WeightsSerialization, Fp16RoundTripBitExact) {
  const Graph g = build_tiny_googlenet({32, 8});
  const WeightsH original = to_fp16(init_msra(g, 11));
  const auto bytes = serialize_weights(original);
  const WeightsH restored = deserialize_weights_f16(bytes);
  ASSERT_EQ(restored.size(), original.size());
  for (const auto& [name, p] : original) {
    const auto& q = restored.at(name);
    ASSERT_EQ(q.w.shape(), p.w.shape()) << name;
    for (std::int64_t i = 0; i < p.w.numel(); ++i) {
      EXPECT_EQ(q.w[i].bits(), p.w[i].bits());
    }
    for (std::int64_t i = 0; i < p.b.numel(); ++i) {
      EXPECT_EQ(q.b[i].bits(), p.b[i].bits());
    }
  }
}

TEST(WeightsSerialization, Fp32RoundTripBitExact) {
  const Graph g = build_tiny_googlenet({32, 8});
  const WeightsF original = init_msra(g, 12);
  const WeightsF restored =
      deserialize_weights_f32(serialize_weights(original));
  for (const auto& [name, p] : original) {
    const auto& q = restored.at(name);
    EXPECT_EQ(ncsw::tensor::max_abs_diff(p.w, q.w), 0.0) << name;
  }
}

TEST(WeightsSerialization, PrecisionMismatchRejected) {
  const Graph g = build_tiny_googlenet({32, 8});
  const auto f32_bytes = serialize_weights(init_msra(g, 13));
  EXPECT_THROW(deserialize_weights_f16(f32_bytes), std::runtime_error);
}

TEST(Package, TimingOnlyV2RoundTrip) {
  const auto compiled = ncsw::graphc::compile(build_tiny_googlenet({32, 8}),
                                              ncsw::graphc::Precision::kFP16);
  const auto bytes =
      ncsw::graphc::serialize_package(compiled, nullptr, nullptr);
  const auto pkg = ncsw::graphc::deserialize_package(bytes);
  EXPECT_FALSE(pkg.functional);
  EXPECT_EQ(pkg.compiled.total_macs(), compiled.total_macs());
  // The plain deserialize() also accepts v2.
  EXPECT_EQ(ncsw::graphc::deserialize(bytes).net_name, compiled.net_name);
}

TEST(Package, FunctionalPayloadRoundTrips) {
  const Graph g = build_tiny_googlenet({32, 8});
  const WeightsH weights = to_fp16(init_msra(g, 14));
  const auto compiled =
      ncsw::graphc::compile(g, ncsw::graphc::Precision::kFP16);
  const auto bytes = ncsw::graphc::serialize_package(compiled, &g, &weights);
  const auto pkg = ncsw::graphc::deserialize_package(bytes);
  ASSERT_TRUE(pkg.functional);
  EXPECT_EQ(pkg.net.size(), g.size());
  EXPECT_EQ(pkg.weights.size(), weights.size());

  // The restored payload computes the same probabilities.
  ncsw::tensor::TensorH input(ncsw::tensor::Shape{1, 3, 32, 32},
                              ncsw::fp16::half(0.1f));
  const auto a = run_probabilities(g, weights, input);
  const auto b = run_probabilities(pkg.net, pkg.weights, input);
  for (std::size_t i = 0; i < a[0].size(); ++i) {
    EXPECT_FLOAT_EQ(a[0][i], b[0][i]);
  }
}

TEST(Package, MismatchedPayloadRejected) {
  const Graph g = build_tiny_googlenet({32, 8});
  const WeightsH weights = to_fp16(init_msra(g, 15));
  // Compile a DIFFERENT input geometry than the payload network.
  const auto compiled = ncsw::graphc::compile(
      build_tiny_googlenet({48, 8}), ncsw::graphc::Precision::kFP16);
  const auto bytes = ncsw::graphc::serialize_package(compiled, &g, &weights);
  EXPECT_THROW(ncsw::graphc::deserialize_package(bytes), std::runtime_error);
}

TEST(Package, HalfPayloadArgumentsRejected) {
  const Graph g = build_tiny_googlenet({32, 8});
  const auto compiled =
      ncsw::graphc::compile(g, ncsw::graphc::Precision::kFP16);
  EXPECT_THROW(ncsw::graphc::serialize_package(compiled, &g, nullptr),
               std::logic_error);
}

TEST(Package, SingleByteMutationsNeverCrashTheParser) {
  // Robustness fuzz: every single-byte corruption of a valid blob must
  // either parse (the byte was slack) or raise std::runtime_error —
  // never crash, never throw anything else.
  const Graph g = build_tiny_googlenet({32, 8});
  const WeightsH weights = to_fp16(init_msra(g, 21));
  const auto blob = ncsw::graphc::serialize_package(
      ncsw::graphc::compile(g, ncsw::graphc::Precision::kFP16), &g, &weights);
  ncsw::util::Xoshiro256 rng(77);
  for (int trial = 0; trial < 400; ++trial) {
    auto fuzzed = blob;
    const auto pos = rng.uniform_u64(fuzzed.size());
    fuzzed[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    try {
      (void)ncsw::graphc::deserialize_package(fuzzed);
    } catch (const std::runtime_error&) {
      // expected for most corruptions
    }
  }
  SUCCEED();
}

TEST(Package, RandomGarbageRejectedCleanly) {
  ncsw::util::Xoshiro256 rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> junk(1 + rng.uniform_u64(4096));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
    EXPECT_THROW((void)ncsw::graphc::deserialize_package(junk),
                 std::runtime_error);
  }
}

TEST(Package, StickExecutesFunctionallyFromBlobAlone) {
  // The end-to-end point of the format: allocate a self-contained graph
  // file over the NCAPI and get real softmax output with NO explicit
  // functional attachment.
  const Graph g = build_tiny_googlenet({32, 8});
  const WeightsH weights = to_fp16(init_msra(g, 16));
  const auto blob = ncsw::graphc::serialize_package(
      ncsw::graphc::compile(g, ncsw::graphc::Precision::kFP16), &g, &weights);

  ncsw::mvnc::HostConfig host;
  host.devices = 1;
  ncsw::mvnc::host_reset(host);
  char name[64];
  ASSERT_EQ(ncsw::mvnc::mvncGetDeviceName(0, name, sizeof(name)),
            ncsw::mvnc::MVNC_OK);
  void* dev = nullptr;
  ASSERT_EQ(ncsw::mvnc::mvncOpenDevice(name, &dev), ncsw::mvnc::MVNC_OK);
  void* graph = nullptr;
  ASSERT_EQ(ncsw::mvnc::mvncAllocateGraph(
                dev, &graph, blob.data(),
                static_cast<unsigned int>(blob.size())),
            ncsw::mvnc::MVNC_OK);

  std::vector<ncsw::fp16::half> input(3 * 32 * 32,
                                      ncsw::fp16::half(0.25f));
  ASSERT_EQ(ncsw::mvnc::mvncLoadTensor(
                graph, input.data(),
                static_cast<unsigned int>(input.size() * 2), nullptr),
            ncsw::mvnc::MVNC_OK);
  void* out = nullptr;
  unsigned int len = 0;
  ASSERT_EQ(ncsw::mvnc::mvncGetResult(graph, &out, &len, nullptr),
            ncsw::mvnc::MVNC_OK);
  const auto* probs = static_cast<const ncsw::fp16::half*>(out);
  double sum = 0;
  for (unsigned int i = 0; i < len / 2; ++i) {
    sum += static_cast<float>(probs[i]);
  }
  EXPECT_NEAR(sum, 1.0, 0.01);  // a real softmax, not zeros

  ncsw::mvnc::HostConfig empty;
  empty.devices = 0;
  ncsw::mvnc::host_reset(empty);
}

}  // namespace
