// Ablation A1 — why the NCAPI's non-blocking LoadTensor/GetResult split
// matters (paper Section II-B / Fig. 4): compares the paper's overlapped
// multi-VPU runner against a hypothetical blocking "inference()" driver
// in which the host waits for each result before issuing the next input
// to ANY stick. Without overlap, adding sticks buys nothing.
#include "bench_common.h"
#include "core/model.h"
#include "core/vpu_target.h"
#include "mvnc/mvnc.h"

namespace {

using namespace ncsw;

// Blocking driver: one global host cursor across all sticks. Configures
// its own simulated host.
double blocking_throughput(const core::ModelBundle& bundle,
                           std::int64_t images, int devices) {
  mvnc::HostConfig host;
  host.devices = devices;
  mvnc::host_reset(host);

  std::vector<void*> devs, graphs;
  for (int d = 0; d < devices; ++d) {
    char name[64];
    if (mvnc::mvncGetDeviceName(d, name, sizeof(name)) != mvnc::MVNC_OK) {
      throw std::runtime_error("ablation: enumeration failed");
    }
    void* dh = nullptr;
    if (mvnc::mvncOpenDevice(name, &dh) != mvnc::MVNC_OK) {
      throw std::runtime_error("ablation: open failed");
    }
    void* gh = nullptr;
    if (mvnc::mvncAllocateGraph(
            dh, &gh, bundle.graph_blob.data(),
            static_cast<unsigned int>(bundle.graph_blob.size())) !=
        mvnc::MVNC_OK) {
      throw std::runtime_error("ablation: allocate failed");
    }
    devs.push_back(dh);
    graphs.push_back(gh);
  }
  std::vector<std::uint8_t> input(
      static_cast<std::size_t>(bundle.compiled_f16.input_bytes()), 0);
  double cursor = 0.0;
  for (void* g : graphs) {
    cursor = std::max(cursor, mvnc::host_time(g).value_or(0.0));
  }
  const double t0 = cursor;
  for (std::int64_t i = 0; i < images; ++i) {
    void* g = graphs[static_cast<std::size_t>(i % graphs.size())];
    mvnc::set_host_time(g, cursor);  // host blocked until previous result
    mvnc::mvncLoadTensor(g, input.data(),
                         static_cast<unsigned int>(input.size()), nullptr);
    void* out;
    unsigned int len;
    mvnc::mvncGetResult(g, &out, &len, nullptr);
    cursor = mvnc::last_ticket(g)->result_ready;
  }
  const double seconds = cursor - t0;
  for (void* g : graphs) mvnc::mvncDeallocateGraph(g);
  for (void* d : devs) mvnc::mvncCloseDevice(d);
  return static_cast<double>(images) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("ablation_overlap",
                "A1 — overlapped vs blocking multi-VPU driving");
  cli.add_int("images", 2000, "images per measurement");
  cli.add_int("devices", 8, "NCS sticks");
  ncsw::bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  ncsw::bench::setup(cli);

  const int devices = static_cast<int>(cli.get_int("devices"));
  const std::int64_t images = cli.get_int("images");
  auto bundle = core::ModelBundle::googlenet_reference();

  // Paper's overlapped runner at 1 and N sticks. With --trace, the two
  // drivers land on prefixed lanes so one Perfetto view shows the
  // overlapped timelines staggered across sticks and the blocking ones
  // strictly serialised.
  util::tracer().set_lane_prefix("overlap-on ");
  double single = 0.0, overlapped = 0.0;
  {
    core::VpuTargetConfig cfg;
    cfg.devices = devices;
    core::VpuTarget vpu(bundle, cfg);
    single =
        vpu.run_timed(std::max<std::int64_t>(64, images / 8), 1).throughput();
    overlapped = vpu.run_timed(images, devices).throughput();
  }

  // Hypothetical blocking driver on a fresh host.
  util::tracer().set_lane_prefix("overlap-off ");
  const double blocking = blocking_throughput(*bundle, images, devices);
  util::tracer().set_lane_prefix("");

  util::Table table("A1: load/get overlap ablation (images/s)");
  table.set_header({"Driver", "Sticks", "Throughput", "Speedup vs 1 stick"});
  table.add_row({"single stick (baseline)", "1", util::Table::num(single, 1),
                 "1.0"});
  table.add_row({"blocking inference()", std::to_string(devices),
                 util::Table::num(blocking, 1),
                 util::Table::num(blocking / single, 2)});
  table.add_row({"overlapped load/get (paper)", std::to_string(devices),
                 util::Table::num(overlapped, 1),
                 util::Table::num(overlapped / single, 2)});
  ncsw::bench::emit(table, cli);

  std::cout << "\nconclusion: without the MPI-like non-blocking split, "
               "eight sticks perform like one; the overlap is what buys "
               "the near-ideal scaling of Fig. 6b.\n";

  ncsw::bench::BenchReport report("ablation_overlap");
  report.config("images", images);
  report.config("devices", static_cast<std::int64_t>(devices));
  report.value("single_stick_img_per_s", single);
  report.value("blocking_img_per_s", blocking);
  report.value("overlapped_img_per_s", overlapped);
  report.value("blocking_speedup_x", blocking / single);
  report.value("overlapped_speedup_x", overlapped / single);
  ncsw::bench::write_report(report, cli);
  ncsw::bench::finalize(cli);
  return 0;
}
