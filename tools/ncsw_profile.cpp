// ncsw_profile — the mvNCProfile equivalent: uploads a graph file (or a
// named network) to one simulated stick and prints the per-layer timing
// report the NCAPI exposes through MVNC_TIME_TAKEN, plus bandwidth and
// energy figures from the chip model.
//
//   ./build/tools/ncsw_profile --network googlenet
//   ./build/tools/ncsw_profile --graph googlenet.blob
//   ./build/tools/ncsw_profile --trace googlenet.trace.json   # Perfetto
#include <fstream>
#include <iostream>

#include "mvnc/mvnc.h"
#include "mvnc/sim_host.h"
#include "myriad/myriad.h"
#include "nn/zoo.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/trace.h"

namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("ncsw_profile", "per-layer device profile of a graph file");
  cli.add_string("network", "", "build + compile this named network");
  cli.add_string("graph", "", "or load this compiled graph file");
  cli.add_int("rows", 0, "print only the N slowest layers (0 = all)");
  cli.add_string("trace", "",
                 "write a per-layer timeline (Chrome trace JSON) here");
  cli.add_bool("trace-layers", true,
               "include one span per layer in the trace");
  cli.add_int("frames", 4, "inferences to run for the timeline");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::string trace_path = cli.get_string("trace");
    if (!trace_path.empty()) {
      auto& t = util::tracer();
      t.reset();
      t.set_detail(cli.get_bool("trace-layers") ? util::TraceDetail::kLayers
                                                : util::TraceDetail::kSpans);
      t.set_enabled(true);
    }

    std::vector<std::uint8_t> blob;
    if (!cli.get_string("graph").empty()) {
      blob = read_file(cli.get_string("graph"));
    } else {
      const std::string name = cli.get_string("network").empty()
                                   ? "googlenet"
                                   : cli.get_string("network");
      blob = graphc::serialize(graphc::compile(
          nn::build_named_network(name), graphc::Precision::kFP16));
    }

    mvnc::HostConfig host;
    host.devices = 1;
    mvnc::host_reset(host);
    char name[64];
    if (mvnc::mvncGetDeviceName(0, name, sizeof(name)) != mvnc::MVNC_OK) {
      throw std::runtime_error("no device");
    }
    void* dev = nullptr;
    if (mvnc::mvncOpenDevice(name, &dev) != mvnc::MVNC_OK) {
      throw std::runtime_error("mvncOpenDevice failed");
    }
    void* graph = nullptr;
    if (mvnc::mvncAllocateGraph(dev, &graph, blob.data(),
                                static_cast<unsigned int>(blob.size())) !=
        mvnc::MVNC_OK) {
      throw std::runtime_error("mvncAllocateGraph failed (bad graph file?)");
    }

    const auto compiled = graphc::deserialize(blob);
    ncs::NcsDevice* device = mvnc::graph_device(graph);
    const auto profile = device->profile();

    // Run a few inferences so the trace shows real LoadTensor / exec /
    // GetResult lifecycles (and the per-layer timeline) on the simulated
    // clock, not just boot + allocation.
    const std::int64_t frames = cli.get_int("frames");
    std::vector<std::uint8_t> input(
        static_cast<std::size_t>(compiled.input_bytes()), 0);
    for (std::int64_t f = 0; f < frames; ++f) {
      if (mvnc::mvncLoadTensor(graph, input.data(),
                               static_cast<unsigned int>(input.size()),
                               nullptr) != mvnc::MVNC_OK) {
        throw std::runtime_error("mvncLoadTensor failed");
      }
      void* out = nullptr;
      unsigned int out_len = 0;
      if (mvnc::mvncGetResult(graph, &out, &out_len, nullptr) !=
          mvnc::MVNC_OK) {
        throw std::runtime_error("mvncGetResult failed");
      }
    }

    struct Row {
      std::size_t i;
      double ms;
    };
    std::vector<Row> order;
    for (std::size_t i = 0; i < profile->layers.size(); ++i) {
      order.push_back({i, profile->layers[i].time_s * 1e3});
    }
    const auto rows = cli.get_int("rows");
    if (rows > 0) {
      std::sort(order.begin(), order.end(),
                [](const Row& a, const Row& b) { return a.ms > b.ms; });
      order.resize(std::min<std::size_t>(order.size(),
                                         static_cast<std::size_t>(rows)));
    }

    util::Table table("Detailed per-layer profile (" + compiled.net_name +
                      ", FP16)");
    table.set_header({"#", "layer", "kind", "ms", "MFLOPs", "MB/s",
                      "SHAVE util"});
    for (const auto& r : order) {
      const auto& lp = profile->layers[r.i];
      const auto& lc = compiled.layers[r.i];
      const double mflops = static_cast<double>(lc.macs) * 2.0 / 1e6;
      const double bytes = static_cast<double>(lc.in_bytes + lc.out_bytes +
                                               lc.weight_bytes);
      const double mbs = lp.time_s > 0 ? bytes / lp.time_s / 1e6 : 0.0;
      table.add_row({std::to_string(r.i), lp.name,
                     nn::layer_kind_name(lp.kind), util::Table::num(r.ms, 3),
                     util::Table::num(mflops, 1), util::Table::num(mbs, 0),
                     util::Table::num(lp.shave_utilization * 100, 0) + "%"});
    }
    std::cout << table.to_string();

    std::cout << "\ntotal inference time: "
              << util::Table::num(profile->total_s * 1e3, 2) << " ms ("
              << util::Table::num(1.0 / profile->total_s, 1)
              << " img/s on one stick)\n"
              << "avg power " << util::Table::num(profile->avg_power_w, 2)
              << " W | energy/frame "
              << util::Table::num(profile->energy_j * 1e3, 1) << " mJ | "
              << util::Table::num(
                     static_cast<double>(compiled.total_macs()) * 2.0 /
                         profile->total_s / 1e9,
                     1)
              << " effective GFLOP/s\n";

    if (!trace_path.empty()) {
      auto& t = util::tracer();
      t.write(trace_path);
      std::cout << "(trace with " << t.size() << " events written to "
                << trace_path
                << "; open in Perfetto / chrome://tracing)\n";
      t.set_enabled(false);
    }

    mvnc::mvncDeallocateGraph(graph);
    mvnc::mvncCloseDevice(dev);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ncsw_profile: " << e.what() << "\n";
    return 1;
  }
}
