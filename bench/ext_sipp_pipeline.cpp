// Extension E10 — the SIPP hardware filter pipeline (paper Section II-A):
// prices the denoise -> tone-map -> Harris vision front-end on the
// hardware filter units against the same chain in SHAVE software, per
// frame size, and demonstrates the combined mode the paper describes
// (SIPP preprocessing + SHAVE inference on the same chip).
#include "bench_common.h"
#include "graphc/compiler.h"
#include "myriad/myriad.h"
#include "nn/zoo.h"
#include "sipp/pipeline.h"

int main(int argc, char** argv) {
  using namespace ncsw;
  util::Cli cli("ext_sipp_pipeline",
                "E10 — SIPP hardware filters vs SHAVE software");
  bench::add_common_flags(cli);
  if (const auto rc = bench::parse(cli, argc, argv)) return *rc;
  bench::setup(cli);

  auto pipeline = sipp::make_vision_frontend();
  myriad::MyriadConfig chip;

  util::Table table("E10: vision front-end (denoise + tone map + Harris)");
  table.set_header({"frame", "SIPP ms", "Mpix/s", "SIPP mW", "SHAVE-SW ms",
                    "HW speedup"});
  struct Size {
    int w, h;
    const char* label;
  };
  for (const Size s : {Size{320, 240, "QVGA"}, Size{640, 480, "VGA"},
                       Size{1280, 720, "720p"}, Size{1920, 1080, "1080p"}}) {
    sipp::Plane frame(s.w, s.h);
    for (std::size_t i = 0; i < frame.data.size(); ++i) {
      frame.data[i] = static_cast<float>(i % 251);
    }
    sipp::SippStats stats;
    pipeline.run(frame, &stats);
    const double sw_s = pipeline.shave_software_time_s(s.w, s.h, chip);
    table.add_row({std::string(s.label) + " " + std::to_string(s.w) + "x" +
                       std::to_string(s.h),
                   util::Table::num(stats.time_s * 1e3, 3),
                   util::Table::num(stats.mpixels_per_s, 0),
                   util::Table::num(stats.avg_power_w * 1e3, 0),
                   util::Table::num(sw_s * 1e3, 3),
                   util::Table::num(sw_s / stats.time_s, 1) + "x"});
  }
  bench::emit(table, cli);

  // Combined mode: SIPP preprocesses the next frame while the SHAVEs run
  // inference on the current one — both fit the chip's power envelope.
  myriad::Myriad2 sim(chip);
  const auto profile = sim.execute(graphc::compile(
      nn::build_named_network("googlenet"), graphc::Precision::kFP16));
  sipp::Plane vga(640, 480);
  sipp::SippStats stats;
  pipeline.run(vga, &stats);
  std::cout << "\ncombined mode: GoogLeNet inference "
            << util::Table::num(profile.total_s * 1e3, 1)
            << " ms on the SHAVEs while SIPP preprocesses a VGA frame in "
            << util::Table::num(stats.time_s * 1e3, 2)
            << " ms (" << util::Table::num(stats.avg_power_w * 1e3, 0)
            << " mW extra) — preprocessing rides along for free, as the "
               "paper's architecture section promises.\n";
  bench::finalize(cli);
  return 0;
}
