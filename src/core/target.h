// Target abstraction — the right-hand side of the paper's Fig. 3 class
// diagram. A Target is "where to conduct inference": the Intel CPU, the
// NVIDIA GPU, or a group of one-to-many NCS devices. Targets offer three
// services:
//
//  * submit()/poll()/wait() — the non-blocking batch API mirroring the
//    NCAPI's LoadTensor/GetResult split at host granularity: a batch is
//    submitted for execution on the simulated clock and a Ticket tracks
//    it to completion, so an outer scheduler (serve::Server) can keep
//    several batches in flight per target and pipeline load / execute /
//    retrieve across heterogeneous engines (docs/async-targets.md),
//  * run_timed() — the synchronous shim (submit one batch at the latest
//    completion seen, then wait); how every performance figure is
//    produced, and
//  * classify() — functional inference on real tensors (how the
//    error-rate figures are produced).
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/model.h"
#include "tensor/tensor.h"
#include "util/stats.h"

namespace ncsw::core {

/// Functional classification output for one image.
struct Prediction {
  int label = -1;           ///< argmax class
  float confidence = 0.0f;  ///< probability of `label`
  std::vector<float> probs; ///< full distribution
};

/// Result of a timed (simulated) throughput run.
struct TimedRun {
  std::int64_t images = 0;
  double seconds = 0.0;               ///< simulated makespan
  util::RunningStats per_image_ms;    ///< distribution of per-image latency
  /// Self-healing bookkeeping (multi-VPU target under fault injection;
  /// all zero on fault-free runs and on CPU/GPU targets).
  std::int64_t images_replayed = 0;   ///< re-issued after a stick failure
  std::int64_t images_lost = 0;       ///< abandoned (allow_partial runs only)
  int sticks_recovered = 0;           ///< quarantine exits during the run
  int sticks_dead = 0;                ///< sticks unrecoverable at the end

  /// Images per simulated second.
  double throughput() const noexcept {
    return seconds > 0.0 ? static_cast<double>(images) / seconds : 0.0;
  }
};

/// Handle to one submitted batch. Opaque; ids are per-target and never
/// reused within a target's lifetime.
struct Ticket {
  std::uint64_t id = 0;
};

/// Lifecycle of a submission (docs/async-targets.md has the state
/// machine): submitted -> completed | failed | cancelled. There are no
/// other transitions; completed/failed/cancelled are terminal.
enum class TicketState : int {
  kSubmitted = 0,  ///< in flight: `now` has not reached complete_s yet
  kCompleted,      ///< result ready; wait() returns the TimedRun
  kFailed,         ///< execution threw; wait() rethrows
  kCancelled,      ///< cancelled before retrieval; wait() throws
};

/// Stable lowercase name ("submitted", "completed", "failed",
/// "cancelled").
const char* ticket_state_name(TicketState s);

/// Completion record of a submission, on the simulated clock.
struct TicketInfo {
  TicketState state = TicketState::kSubmitted;
  std::int64_t images = 0;
  int batch = 0;
  double submit_s = 0.0;    ///< when the submission entered the window
  double start_s = 0.0;     ///< when execution began (>= submit_s)
  double complete_s = 0.0;  ///< when the last result lands on the host
};

/// Abstract inference target.
///
/// The async surface is deliberately single-threaded, like the serve
/// event loop driving it: submissions execute on the simulated clock
/// and tickets carry completion timestamps, so "polling" is a clock
/// comparison, not a wait on another thread. Not thread-safe.
class Target {
 public:
  virtual ~Target() = default;

  /// Full device description.
  virtual std::string name() const = 0;
  /// Column label used by the figures ("CPU", "GPU", "VPU (Multi)").
  virtual std::string short_name() const = 0;

  /// TDP used by Eq. (1) at a given batch size. For the multi-VPU target
  /// the paper couples the number of active sticks to the batch size, so
  /// TDP grows with it; CPU/GPU TDP is constant.
  virtual double tdp_w(int batch) const = 0;

  /// Largest batch size this target accepts.
  virtual int max_batch() const = 0;

  // ---- Non-blocking submit/poll surface (docs/async-targets.md) ----

  /// Bounded in-flight window — the paper's queue-depth knob at host
  /// granularity: how many submissions may be outstanding (submitted,
  /// failed or cancelled but not yet retired) before submit() refuses.
  int inflight_window() const noexcept { return window_; }
  /// Resize the window (clamped to >= 1). Outstanding tickets keep their
  /// slots; a shrink only throttles future submissions.
  void set_inflight_window(int window);
  /// Outstanding submissions occupying window slots.
  int inflight() const noexcept { return static_cast<int>(tickets_.size()); }
  bool window_full() const noexcept { return inflight() >= window_; }

  /// Queue `images` inputs at batch size `batch`, submitted at simulated
  /// time `submit_s`. Execution begins no earlier than `submit_s` and no
  /// earlier than work already in flight (per-engine FIFO). Throws
  /// std::invalid_argument on bad images/batch and std::runtime_error
  /// when the in-flight window is full (backpressure — wait() or
  /// cancel() a ticket first). A submission whose execution fails is
  /// *accepted*: its ticket reports TicketState::kFailed and wait()
  /// rethrows the failure.
  Ticket submit(std::int64_t images, int batch, double submit_s);

  /// State of `t` as of simulated time `now_s`: kSubmitted until the
  /// completion timestamp is reached, then kCompleted (failed/cancelled
  /// tickets report their terminal state regardless of `now_s`). Knows
  /// recently retired tickets too; throws std::out_of_range for ids this
  /// target never issued or retired long ago.
  TicketState poll(Ticket t, double now_s) const;

  /// Full lifecycle record of `t` (outstanding or recently retired);
  /// throws std::out_of_range like poll().
  TicketInfo info(Ticket t) const;

  /// Block (advance the simulated clock) until `t` completes, retire it
  /// and return its TimedRun, freeing the window slot. Rethrows the
  /// execution failure of a kFailed ticket; throws std::logic_error for
  /// a cancelled ticket and std::out_of_range for an unknown one.
  TimedRun wait(Ticket t);

  /// Cancel an outstanding ticket: its results are discarded and its
  /// window slot freed (simulated device time already committed to it is
  /// not reclaimed — cancellation is a host-side drain, not an abort).
  /// Returns false when `t` is not outstanding.
  bool cancel(Ticket t);

  /// Cancel every outstanding ticket (drain); returns how many.
  int cancel_outstanding();

  /// Synchronous shim: submit() one batch at the latest completion seen
  /// so far and wait() for it. The fig6 golden tests and
  /// tests/test_async_targets.cpp hold its timing fixed.
  TimedRun run_timed(std::int64_t images, int batch);

  /// Functional inference on preprocessed FP32 inputs (each 1xCxHxW).
  /// Requires a functional model bundle.
  virtual std::vector<Prediction> classify(
      const std::vector<tensor::TensorF>& inputs) = 0;

 protected:
  /// What one submission executed to. `start_s` is when the engine
  /// actually began (>= the submission time when the engine was busy);
  /// `complete_s` is when the last result landed.
  struct BatchExec {
    TimedRun run;
    double start_s = 0.0;
    double complete_s = 0.0;
  };

  /// Execute one batch submitted at `submit_s`; each engine picks the
  /// batch up as it frees. Implementations may throw; the base class
  /// converts throws into kFailed tickets (rethrown by wait()).
  virtual BatchExec execute_batch(std::int64_t images, int batch,
                                  double submit_s) = 0;

 private:
  struct TicketRec {
    TicketInfo info;
    TimedRun run;
    std::exception_ptr error;
  };

  const TicketRec* find(Ticket t) const;
  void retire(std::uint64_t id, TicketState final_state);

  /// Retired-ticket history kept for poll()/info() (bounded).
  static constexpr std::size_t kRetiredKept = 64;

  int window_ = 1;
  std::uint64_t next_ticket_ = 1;
  double horizon_s_ = 0.0;  ///< latest completion seen (shim submit time)
  std::unordered_map<std::uint64_t, TicketRec> tickets_;  ///< outstanding
  std::deque<std::pair<std::uint64_t, TicketInfo>> retired_;
};

/// Build a Prediction from a probability vector.
Prediction make_prediction(std::vector<float> probs);

}  // namespace ncsw::core
