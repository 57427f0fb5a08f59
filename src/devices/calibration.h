// Single source of truth for every calibration constant, each annotated
// with the paper anchor it reproduces (Section IV/V). See DESIGN.md §5.
#pragma once

namespace ncsw::devices::calibration {

// ---------------------------------------------------------------------------
// CPU: 2x Intel Xeon E5-2609v2, Caffe-MKL v1.0.7, FP32, batch processing.
// Batch latency follows t(b) = t_inf + o / b: GEMM efficiency improves and
// framework overhead amortises with batch, saturating quickly (the paper:
// "the performance of the CPU implementation is barely affected").
// Anchors: 26.0 ms @ batch 1, 22.7 ms @ batch 8 (=> 44.0 img/s).
// Prediction: 44.5 img/s @ batch 16 — exactly the paper's Fig. 8b maximum.
// ---------------------------------------------------------------------------
inline constexpr double kCpuInfMs = 22.229;      ///< asymptotic ms/image
inline constexpr double kCpuOverheadMs = 3.771;  ///< per-batch amortised ms

// ---------------------------------------------------------------------------
// GPU: NVIDIA Quadro K4000, Caffe-cuDNN v0.16.4, FP32.
// Anchors: 25.9 ms @ batch 1, 13.5 ms @ batch 8 (=> 74.2 img/s).
// Prediction: 79.3 img/s @ batch 16 vs the paper's 79.9.
// ---------------------------------------------------------------------------
inline constexpr double kGpuInfMs = 11.729;
inline constexpr double kGpuOverheadMs = 14.171;

// ---------------------------------------------------------------------------
// VPU: the Myriad 2 chip model (myriad::MyriadConfig defaults) is
// calibrated so one GoogLeNet FP16 inference executes in ~99.3 ms on-chip;
// USB transfer + command overhead brings the single-stick end-to-end time
// to the paper's 100.7 ms. Multi-VPU throughput *emerges* from the NCS
// simulation; the only host-side constants are the inter-op gaps and thread
// stagger below.
// ---------------------------------------------------------------------------
/// Host loop cost between inferences, single-threaded driver.
inline constexpr double kVpuSingleGapS = 0.2e-3;
/// Thread-management cost per inference in the multi-threaded multi-VPU
/// driver (paper: "a small penalty ... due to the thread-management
/// overhead and the data transferring involved").
inline constexpr double kVpuThreadGapS = 3.2e-3;
/// Stagger between the multi-VPU driver's worker-thread start-ups at the
/// beginning of a run.
inline constexpr double kVpuThreadSpawnS = 40e-6;

// ---------------------------------------------------------------------------
// Relative run-to-run noise applied to CPU/GPU batch timings (the paper's
// error bars are on the order of a percent).
// ---------------------------------------------------------------------------
inline constexpr double kHostJitterFrac = 0.006;

// ---------------------------------------------------------------------------
// Host fast tier (not a paper anchor): throughput multiplier a
// HostTarget::set_fast(true) target applies to the analytic batch model,
// calibrated from bench/perf_forward's measured fast-vs-optimised
// single-thread ratio (fp32; see BENCH_perf_forward.json,
// fp32.fast.speedup_vs_opt_t1_x). Keeps serve_loadgen's simulated
// mixed-fast phase consistent with what the real kernels deliver.
// ---------------------------------------------------------------------------
inline constexpr double kHostFastSpeedupX = 2.5;

// TDP constants are in myriad::TdpConstants (chip 0.9 W, stick 2.5 W,
// Xeon E5-2609v2 80 W, Quadro K4000 80 W).

}  // namespace ncsw::devices::calibration
