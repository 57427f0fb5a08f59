// The async submit/poll/wait Target API (docs/async-targets.md): ticket
// lifecycle, in-flight window backpressure, ordering, cancellation, and
// — most load-bearing — golden byte-equality of the run_timed shim
// against the pre-async synchronous TimedRun outputs on every target
// kind. The goldens below were captured from the blocking run_timed
// implementations immediately before the submit/poll refactor; the shim
// must reproduce them to the last bit or every figure bench drifts.
#include "check/tracelint.h"
#include "core/host_target.h"
#include "core/vpu_target.h"
#include "util/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace ncsw::core;

std::shared_ptr<const ModelBundle> reference() {
  static auto bundle = ModelBundle::googlenet_reference();
  return bundle;
}

// Full-precision fingerprint of everything a TimedRun feeds into the
// figure benches; %.17g round-trips IEEE doubles exactly.
std::string fingerprint(const TimedRun& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%lld %.17g %.17g %.17g %.17g %.17g %llu",
                static_cast<long long>(r.images), r.seconds,
                r.per_image_ms.mean(), r.per_image_ms.stddev(),
                r.per_image_ms.min(), r.per_image_ms.max(),
                static_cast<unsigned long long>(r.per_image_ms.count()));
  return buf;
}

// ---------------------------------------------------------------------------
// Golden shim byte-equality: run_timed through submit/wait reproduces
// the pre-async synchronous outputs bit-for-bit.
// ---------------------------------------------------------------------------

TEST(AsyncShimGolden, CpuSequenceIsByteIdentical) {
  // Sequential calls on one target: host jitter is stateful, so the
  // sequence (not just each call) must match the capture.
  auto cpu = make_cpu_target(reference());
  EXPECT_EQ(fingerprint(cpu->run_timed(500, 1)),
            "500 12.999586979687667 25.999173959375344 "
            "0.089094110003620525 25.844418091018682 26.154149544214032 500");
  EXPECT_EQ(fingerprint(cpu->run_timed(100, 8)),
            "100 2.2744104427407037 22.744104427407038 "
            "0.11728002875017637 22.603262556790931 23.228267373716712 100");
  EXPECT_EQ(fingerprint(cpu->run_timed(10, 8)),
            "10 0.2287606474340122 22.876064743401219 "
            "0.65443704304978656 22.56563799721777 24.117771728135015 10");
}

TEST(AsyncShimGolden, GpuSequenceIsByteIdentical) {
  auto gpu = make_gpu_target(reference());
  EXPECT_EQ(fingerprint(gpu->run_timed(200, 1)),
            "200 5.1804189223574681 25.902094611787337 "
            "0.090448011583289939 25.745516115738347 26.052627139016039 200");
  EXPECT_EQ(fingerprint(gpu->run_timed(100, 8)),
            "100 1.3543646621491785 13.54364662149178 "
            "0.34687066115269427 13.425624462745199 15.221497547550506 100");
}

TEST(AsyncShimGolden, VpuSequenceIsByteIdentical) {
  VpuTargetConfig cfg;
  cfg.devices = 4;
  VpuTarget vpu(reference(), cfg);
  EXPECT_EQ(fingerprint(vpu.run_timed(50, 1)),
            "50 5.0248930876115523 100.30186175223088 "
            "0.23681520206383955 99.951964452264619 100.70585017597722 50");
  EXPECT_EQ(fingerprint(vpu.run_timed(80, 4)),
            "80 2.0707041278651399 100.38987595719955 "
            "0.36602553772224161 99.935779796648035 102.39559067212411 80");
  EXPECT_EQ(fingerprint(vpu.run_timed(30, 2)),
            "30 1.5510444638031604 100.32387803951147 "
            "0.33678290564659924 99.933276035590879 101.5425997054642 30");
}

// A smaller batch after a larger one starts on sticks that freed before
// the larger batch's last result: its scheduler span overlaps the
// previous one in time, and the trace must still lint clean.
TEST(AsyncTrace, SmallerBatchAfterLargerIsLintClean) {
  auto& tracer = ncsw::util::tracer();
  tracer.reset();
  tracer.set_enabled(true);
  {
    VpuTargetConfig cfg;
    cfg.devices = 8;
    VpuTarget vpu(reference(), cfg);
    vpu.wait(vpu.submit(24, 3, 0.0));
    vpu.wait(vpu.submit(15, 1, 0.0));
  }
  const std::string json = tracer.to_json();
  tracer.set_enabled(false);
  tracer.reset();

  std::string error;
  const auto lint = ncsw::check::lint_trace_text(json, {}, &error);
  ASSERT_TRUE(lint.has_value()) << error;
  EXPECT_TRUE(lint->ok()) << lint->to_string();
  // The second batch began before the first one's last result, so it
  // was drawn on the second scheduler lane.
  EXPECT_NE(json.find("\"scheduler 2\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Ticket lifecycle
// ---------------------------------------------------------------------------

TEST(AsyncTicket, LifecycleSubmitPollWait) {
  auto cpu = make_cpu_target(reference());
  const Ticket t = cpu->submit(8, 8, 1.0);
  const TicketInfo info = cpu->info(t);
  EXPECT_EQ(info.state, TicketState::kSubmitted);
  EXPECT_EQ(info.images, 8);
  EXPECT_EQ(info.batch, 8);
  EXPECT_DOUBLE_EQ(info.submit_s, 1.0);
  EXPECT_GE(info.start_s, 1.0);
  EXPECT_GT(info.complete_s, info.start_s);

  // poll is the simulated clock's view: in flight until now reaches the
  // completion timestamp, completed after.
  EXPECT_EQ(cpu->poll(t, info.submit_s), TicketState::kSubmitted);
  EXPECT_EQ(cpu->poll(t, (info.submit_s + info.complete_s) / 2.0),
            TicketState::kSubmitted);
  EXPECT_EQ(cpu->poll(t, info.complete_s), TicketState::kCompleted);

  const TimedRun run = cpu->wait(t);
  EXPECT_EQ(run.images, 8);
  EXPECT_DOUBLE_EQ(run.seconds, info.complete_s - info.start_s);
  // Retired tickets keep answering poll/info, but can only be waited on
  // once.
  EXPECT_EQ(cpu->poll(t, 0.0), TicketState::kCompleted);
  EXPECT_EQ(cpu->info(t).state, TicketState::kCompleted);
  EXPECT_THROW(cpu->wait(t), std::logic_error);
}

TEST(AsyncTicket, StateNamesAreStable) {
  EXPECT_STREQ(ticket_state_name(TicketState::kSubmitted), "submitted");
  EXPECT_STREQ(ticket_state_name(TicketState::kCompleted), "completed");
  EXPECT_STREQ(ticket_state_name(TicketState::kFailed), "failed");
  EXPECT_STREQ(ticket_state_name(TicketState::kCancelled), "cancelled");
}

TEST(AsyncTicket, UnknownTicketThrows) {
  auto cpu = make_cpu_target(reference());
  // std::logic_error covers both modes: plain runs throw out_of_range
  // (a logic_error), strict runs throw the verifier's unknown-ticket
  // ServeViolationError first (also a logic_error).
  EXPECT_THROW(cpu->poll(Ticket{999}, 0.0), std::logic_error);
  EXPECT_THROW(cpu->info(Ticket{999}), std::logic_error);
  EXPECT_THROW(cpu->wait(Ticket{999}), std::logic_error);
  try {
    EXPECT_FALSE(cpu->cancel(Ticket{999}));
  } catch (const std::logic_error&) {
    // strict-mode verifier flags the never-issued id instead.
  }
}

TEST(AsyncTicket, InvalidSubmissionsThrow) {
  auto cpu = make_cpu_target(reference());
  EXPECT_THROW(cpu->submit(0, 8, 0.0), std::invalid_argument);
  EXPECT_THROW(cpu->submit(8, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(cpu->submit(8, cpu->max_batch() + 1, 0.0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Ordering: tickets retire in submission order on a serial engine
// ---------------------------------------------------------------------------

TEST(AsyncTicket, OrderingOnSerialEngine) {
  auto gpu = make_gpu_target(reference());
  gpu->set_inflight_window(4);
  std::vector<Ticket> tickets;
  double submit = 0.0;
  for (int i = 0; i < 4; ++i) tickets.push_back(gpu->submit(8, 8, submit));
  // Ids are strictly increasing, completions non-decreasing: the engine
  // is a serial queue, so a later submission can never finish first.
  double prev_complete = 0.0;
  std::uint64_t prev_id = 0;
  for (const Ticket& t : tickets) {
    EXPECT_GT(t.id, prev_id);
    const TicketInfo info = gpu->info(t);
    EXPECT_GE(info.start_s, prev_complete);  // back-to-back, no overlap
    EXPECT_GE(info.complete_s, prev_complete);
    prev_complete = info.complete_s;
    prev_id = t.id;
  }
  for (const Ticket& t : tickets) EXPECT_GT(gpu->wait(t).seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Window backpressure
// ---------------------------------------------------------------------------

TEST(AsyncWindow, FullWindowRejectsSubmit) {
  auto cpu = make_cpu_target(reference());
  ASSERT_EQ(cpu->inflight_window(), 1);  // default: classic blocking shape
  const Ticket t1 = cpu->submit(8, 8, 0.0);
  EXPECT_TRUE(cpu->window_full());
  EXPECT_EQ(cpu->inflight(), 1);
  EXPECT_THROW(cpu->submit(8, 8, 0.0), std::runtime_error);
  cpu->wait(t1);  // retiring the ticket frees the slot
  EXPECT_FALSE(cpu->window_full());
  const Ticket t2 = cpu->submit(8, 8, 0.0);
  cpu->wait(t2);
}

TEST(AsyncWindow, WidenedWindowAdmitsThatManyAndClampsToOne) {
  auto cpu = make_cpu_target(reference());
  cpu->set_inflight_window(3);
  EXPECT_EQ(cpu->inflight_window(), 3);
  std::vector<Ticket> tickets;
  for (int i = 0; i < 3; ++i) tickets.push_back(cpu->submit(4, 4, 0.0));
  EXPECT_EQ(cpu->inflight(), 3);
  EXPECT_THROW(cpu->submit(4, 4, 0.0), std::runtime_error);
  for (const Ticket& t : tickets) cpu->wait(t);
  EXPECT_EQ(cpu->inflight(), 0);
  cpu->set_inflight_window(0);  // nonsense widths clamp to 1, not 0
  EXPECT_EQ(cpu->inflight_window(), 1);
}

// ---------------------------------------------------------------------------
// Cancellation and failure
// ---------------------------------------------------------------------------

TEST(AsyncCancel, CancelledTicketCannotBeWaited) {
  auto cpu = make_cpu_target(reference());
  const Ticket t = cpu->submit(8, 8, 0.0);
  EXPECT_TRUE(cpu->cancel(t));
  EXPECT_EQ(cpu->poll(t, 1e9), TicketState::kCancelled);
  EXPECT_THROW(cpu->wait(t), std::logic_error);
  EXPECT_FALSE(cpu->cancel(t));  // already retired
  EXPECT_EQ(cpu->inflight(), 0);
}

TEST(AsyncCancel, CancelOutstandingDrainsTheWindow) {
  auto gpu = make_gpu_target(reference());
  gpu->set_inflight_window(3);
  std::vector<Ticket> tickets;
  for (int i = 0; i < 3; ++i) tickets.push_back(gpu->submit(4, 4, 0.0));
  EXPECT_EQ(gpu->cancel_outstanding(), 3);
  EXPECT_EQ(gpu->inflight(), 0);
  for (const Ticket& t : tickets) {
    EXPECT_EQ(gpu->poll(t, 1e9), TicketState::kCancelled);
  }
  EXPECT_EQ(gpu->cancel_outstanding(), 0);
}

TEST(AsyncFail, DeadFleetTicketFailsAndWaitRethrows) {
  // Every stick departs the bus before the work lands and never replugs:
  // the submission commits as a kFailed ticket whose error surfaces on
  // wait — exactly what the serving dispatcher's failover consumes. The
  // health watchdog is armed so a hung stick would quarantine rather
  // than wedge the run (this test runs under TSan in CI).
  VpuTargetConfig cfg;
  cfg.devices = 2;
  cfg.health.watchdog_s = 0.25;
  cfg.health.max_probes = 1;
  cfg.faults.add(0, ncsw::sim::FaultKind::kDetach, 0.0, 1e9);
  cfg.faults.add(1, ncsw::sim::FaultKind::kDetach, 0.0, 1e9);
  VpuTarget vpu(reference(), cfg);
  vpu.set_inflight_window(2);

  const Ticket t = vpu.submit(8, 2, 0.0);
  EXPECT_EQ(vpu.poll(t, 0.0), TicketState::kFailed);
  EXPECT_EQ(vpu.info(t).state, TicketState::kFailed);
  EXPECT_THROW(vpu.wait(t), std::runtime_error);
  EXPECT_EQ(vpu.poll(t, 0.0), TicketState::kFailed);  // retired, still failed

  // Quarantine drains the rest of the window, the dispatcher's cleanup
  // path: submit, observe the failure, cancel everything outstanding.
  const Ticket t2 = vpu.submit(8, 2, 0.0);
  EXPECT_EQ(vpu.cancel_outstanding(), 1);
  EXPECT_EQ(vpu.poll(t2, 1e9), TicketState::kCancelled);
  EXPECT_EQ(vpu.inflight(), 0);
}

TEST(AsyncCancel, CancelOutstandingDuringQuarantineReplugIsClean) {
  // cancel_outstanding() racing a quarantine-triggered replug: a stick
  // detaches mid-window long enough to quarantine, the caller cancels
  // the whole window while the health ladder is still probing it back,
  // and the target must end idle and immediately usable — no wedge, no
  // half-cancelled ticket resurrected by the replug. Runs under TSan in
  // CI; the scenario executes on a worker thread behind a watchdog
  // future so a regression fails the test instead of hanging the suite
  // (the stuck thread is leaked on that path).
  std::promise<void> done;
  auto fut = done.get_future();
  std::thread worker([&] {
    VpuTargetConfig cfg;
    cfg.devices = 2;
    cfg.health.watchdog_s = 0.25;
    cfg.faults.add(0, ncsw::sim::FaultKind::kDetach, 0.05, 0.15);
    VpuTarget vpu(reference(), cfg);
    vpu.set_inflight_window(4);

    std::vector<Ticket> tickets;
    for (int i = 0; i < 4; ++i) tickets.push_back(vpu.submit(8, 2, 0.0));
    // Cancel everything that has not already completed; tickets that
    // raced to completion report themselves completed, never lost.
    const int cancelled = vpu.cancel_outstanding();
    EXPECT_GE(cancelled, 0);
    EXPECT_LE(cancelled, 4);
    EXPECT_EQ(vpu.inflight(), 0);
    for (const Ticket& t : tickets) {
      const TicketState s = vpu.poll(t, 1e9);
      EXPECT_TRUE(s == TicketState::kCancelled || s == TicketState::kCompleted)
          << ticket_state_name(s);
    }

    // The fleet replugs through the health ladder and serves fresh work.
    const Ticket fresh = vpu.submit(16, 2, 1.0);
    const TimedRun run = vpu.wait(fresh);
    EXPECT_EQ(run.images, 16);
    EXPECT_EQ(vpu.inflight(), 0);
    done.set_value();
  });

  if (fut.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    worker.detach();
    FAIL() << "cancel_outstanding vs replug deadlocked";
  }
  worker.join();
}

TEST(AsyncFail, QuarantineStormStaysHealthyViaFailover) {
  // One stick quarantined under the watchdog, the other healthy: work
  // replays onto the survivor, the ticket completes, and the run's
  // health rollups record the quarantine — cancel is not needed.
  VpuTargetConfig cfg;
  cfg.devices = 2;
  cfg.health.watchdog_s = 0.25;
  cfg.health.max_probes = 1;
  cfg.faults.add(1, ncsw::sim::FaultKind::kDetach, 0.0, 1e9);
  VpuTarget vpu(reference(), cfg);

  const Ticket t = vpu.submit(16, 2, 0.0);
  EXPECT_NE(vpu.poll(t, 0.0), TicketState::kFailed);
  const TimedRun run = vpu.wait(t);
  EXPECT_EQ(run.images, 16);
  EXPECT_GE(run.sticks_dead, 1);
}

}  // namespace
