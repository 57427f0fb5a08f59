// Serving-layer runtime verifier (check/serve_check.h): every violation
// class must trip in kStrict mode, stay observable-but-transparent in
// kLog mode, and cost nothing in kOff; plus the retired-ring contract
// of the async Target API and the Session CompletionMap slip
// accounting the verifier's conservation checks ride on.
#include "check/serve_check.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/target.h"
#include "serve/server.h"

namespace {

using namespace ncsw;
using check::CheckMode;
using check::ServeViolationError;
using check::ServeViolationKind;
using check::serve_verifier;

/// Deterministic analytic target (same shape as test_serve's).
class FakeTarget : public core::Target {
 public:
  FakeTarget(std::string label, double per_image_s, int max_batch)
      : label_(std::move(label)),
        per_image_s_(per_image_s),
        max_batch_(max_batch) {}

  std::string name() const override { return "fake " + label_; }
  std::string short_name() const override { return label_; }
  double tdp_w(int) const override { return 1.0; }
  int max_batch() const override { return max_batch_; }

  std::vector<core::Prediction> classify(
      const std::vector<tensor::TensorF>&) override {
    throw std::logic_error("timing-only fake");
  }

 protected:
  core::TimedRun execute_batch(std::int64_t images, int,
                               double) override {
    core::TimedRun run;
    run.images = images;
    run.seconds = per_image_s_ * static_cast<double>(images);
    return run;
  }

 private:
  std::string label_;
  double per_image_s_;
  int max_batch_;
};

/// Run a session's event loop to quiescence (the Server loop shape).
void drive(serve::Session& s) {
  for (;;) {
    const double tc = s.next_complete_s();
    const double td = s.next_drop_s();
    const double tf = s.next_flush_s();
    const double t = std::min({tc, td, tf});
    if (!std::isfinite(t)) break;
    if (t == tc) {
      s.on_complete(t);
    } else if (t == td) {
      s.on_drop(t);
    } else {
      s.on_flush(t);
    }
  }
}

class ServeCheckStrict : public ::testing::Test {
 protected:
  void SetUp() override { serve_verifier().configure(CheckMode::kStrict); }
  void TearDown() override { serve_verifier().configure(CheckMode::kDefault); }
};

TEST(ServeCheckNames, AreStableSlugs) {
  EXPECT_STREQ(serve_violation_name(ServeViolationKind::kWindowExceeded),
               "window-exceeded");
  EXPECT_STREQ(serve_violation_name(ServeViolationKind::kWaitAfterCancel),
               "wait-after-cancel");
  EXPECT_STREQ(serve_violation_name(ServeViolationKind::kDoubleWait),
               "double-wait");
  EXPECT_STREQ(serve_violation_name(ServeViolationKind::kPollAfterRetire),
               "poll-after-retire");
  EXPECT_STREQ(serve_violation_name(ServeViolationKind::kUnknownTicket),
               "unknown-ticket");
  EXPECT_STREQ(
      serve_violation_name(ServeViolationKind::kRequestConservation),
      "request-conservation");
  EXPECT_STREQ(serve_violation_name(ServeViolationKind::kDuplicateDelivery),
               "duplicate-delivery");
  EXPECT_STREQ(serve_violation_name(ServeViolationKind::kLedgerConservation),
               "ledger-conservation");
  EXPECT_STREQ(serve_violation_name(ServeViolationKind::kNegativeLive),
               "negative-live");
  EXPECT_STREQ(serve_violation_name(ServeViolationKind::kSwapWhileInflight),
               "swap-while-inflight");
  EXPECT_STREQ(serve_violation_name(ServeViolationKind::kWrongModelDispatch),
               "wrong-model-dispatch");
  EXPECT_STREQ(
      serve_violation_name(ServeViolationKind::kResidencyConservation),
      "residency-conservation");
  EXPECT_STREQ(serve_violation_name(ServeViolationKind::kStaleEventCache),
               "stale-event-cache");
}

// ---- graph residency -------------------------------------------------------

TEST_F(ServeCheckStrict, SwapWhileInflightTripsOnOutstandingTickets) {
  auto& sv = serve_verifier();
  // A drained stick may swap freely.
  sv.on_swap_begin("stick0", "alexnet", "tiny", 0, 1.0);
  EXPECT_EQ(sv.count(ServeViolationKind::kSwapWhileInflight), 0u);
  // Any outstanding ticket at the swap decision is a contract breach.
  EXPECT_THROW(sv.on_swap_begin("stick0", "alexnet", "tiny", 2, 2.0),
               ServeViolationError);
  EXPECT_EQ(sv.count(ServeViolationKind::kSwapWhileInflight), 1u);
}

TEST_F(ServeCheckStrict, WrongModelDispatchTripsOnResidencyMismatch) {
  auto& sv = serve_verifier();
  sv.on_zoo_dispatch("stick1", "googlenet", "googlenet", 1.0);
  EXPECT_EQ(sv.count(ServeViolationKind::kWrongModelDispatch), 0u);
  EXPECT_THROW(sv.on_zoo_dispatch("stick1", "googlenet", "alexnet", 2.0),
               ServeViolationError);
  EXPECT_EQ(sv.count(ServeViolationKind::kWrongModelDispatch), 1u);
}

TEST_F(ServeCheckStrict, ZooFinishChecksPartitionAndResidencyBalance) {
  auto& sv = serve_verifier();
  // 10 offered = 6 completed + 3 rejected + 1 dropped; 5 installs - 3
  // evicts = 2 resident: both identities hold.
  sv.on_zoo_finish("zoo", 10, 6, 3, 1, 5, 3, 2, 9.0);
  EXPECT_EQ(sv.count(ServeViolationKind::kResidencyConservation), 0u);
  // Requests that do not partition.
  EXPECT_THROW(sv.on_zoo_finish("zoo", 10, 6, 3, 0, 5, 3, 2, 9.0),
               ServeViolationError);
  // Installs/evicts that do not balance the resident count.
  EXPECT_THROW(sv.on_zoo_finish("zoo", 10, 6, 3, 1, 5, 3, 1, 9.0),
               ServeViolationError);
  EXPECT_EQ(sv.count(ServeViolationKind::kResidencyConservation), 2u);
}

// ---- ticket lifecycle ------------------------------------------------------

TEST_F(ServeCheckStrict, WindowExceededTripsViaHook) {
  // No API path can overfill the window (submit throws first), so the
  // hook is the seam: occupancy 3 of a window of 2 must trip.
  auto& sv = serve_verifier();
  sv.on_submit(nullptr, "T", 7, /*inflight=*/2, /*window=*/2, 0.0);
  EXPECT_EQ(sv.count(ServeViolationKind::kWindowExceeded), 0u);
  EXPECT_THROW(sv.on_submit(nullptr, "T", 8, 3, 2, 0.1), ServeViolationError);
  EXPECT_EQ(sv.count(ServeViolationKind::kWindowExceeded), 1u);
}

TEST_F(ServeCheckStrict, WaitAfterCancelTrips) {
  FakeTarget t("T", 0.01, 8);
  const core::Ticket tk = t.submit(4, 4, 0.0);
  EXPECT_TRUE(t.cancel(tk));
  EXPECT_THROW(t.wait(tk), ServeViolationError);
  EXPECT_EQ(serve_verifier().count(ServeViolationKind::kWaitAfterCancel), 1u);
}

TEST_F(ServeCheckStrict, DoubleWaitTrips) {
  FakeTarget t("T", 0.01, 8);
  const core::Ticket tk = t.submit(4, 4, 0.0);
  (void)t.wait(tk);
  EXPECT_THROW(t.wait(tk), ServeViolationError);
  EXPECT_EQ(serve_verifier().count(ServeViolationKind::kDoubleWait), 1u);
}

TEST_F(ServeCheckStrict, PollAfterRingEvictionTrips) {
  // The ring keeps the last 64 retired tickets; ticket 1 falls out
  // after 65 more retire behind it.
  FakeTarget t("T", 0.001, 1);
  const core::Ticket first = t.submit(1, 1, 0.0);
  (void)t.wait(first);
  for (int i = 0; i < 65; ++i) (void)t.wait(t.submit(1, 1, 0.0));
  EXPECT_THROW(t.poll(first, 1.0), ServeViolationError);
  EXPECT_THROW(t.info(first), ServeViolationError);
  EXPECT_EQ(serve_verifier().count(ServeViolationKind::kPollAfterRetire), 2u);
  // wait() on an evicted id is the double-wait class (it was waited or
  // cancelled once already, the ring just forgot which).
  EXPECT_THROW(t.wait(first), ServeViolationError);
  EXPECT_EQ(serve_verifier().count(ServeViolationKind::kDoubleWait), 1u);
  // cancel() of a retired-then-evicted id stays the documented drain
  // idiom: false, no violation.
  EXPECT_FALSE(t.cancel(first));
  EXPECT_EQ(serve_verifier().count(ServeViolationKind::kUnknownTicket), 0u);
}

TEST_F(ServeCheckStrict, UnknownTicketTrips) {
  FakeTarget t("T", 0.01, 8);
  EXPECT_THROW(t.poll(core::Ticket{999}, 0.0), ServeViolationError);
  EXPECT_THROW(t.wait(core::Ticket{999}), ServeViolationError);
  EXPECT_THROW(t.cancel(core::Ticket{999}), ServeViolationError);
  EXPECT_EQ(serve_verifier().count(ServeViolationKind::kUnknownTicket), 3u);
}

// ---- request conservation --------------------------------------------------

TEST_F(ServeCheckStrict, SessionFinishWithInflightWorkTrips) {
  FakeTarget t("T", 0.01, 8);
  serve::Session session({&t}, {}, "leak");
  serve::Request req;
  req.id = 1;
  ASSERT_TRUE(session.offer(req, 0, 0.0));
  // finish() without draining the event loop: the request is still in
  // flight, so conservation fails.
  EXPECT_THROW(session.finish(), ServeViolationError);
  EXPECT_EQ(serve_verifier().count(ServeViolationKind::kRequestConservation),
            1u);
}

TEST_F(ServeCheckStrict, SessionPartitionMismatchesTripViaHook) {
  // The Session cannot reach these states through its API (the counters
  // move together); the hook is the seam for the partition checks.
  auto& sv = serve_verifier();
  // dropped != deadline + inflight + failover.
  EXPECT_THROW(
      sv.on_session_finish("x", 10, 2, 4, 4, 1, 1, 1, /*unaccounted=*/0, 1.0),
      ServeViolationError);
  // offered != completed + rejected + dropped.
  EXPECT_THROW(
      sv.on_session_finish("x", 10, 2, 4, 3, 1, 1, 1, /*unaccounted=*/0, 1.0),
      ServeViolationError);
  EXPECT_EQ(sv.count(ServeViolationKind::kRequestConservation), 2u);
}

TEST_F(ServeCheckStrict, CleanSessionRunPasses) {
  FakeTarget t("T", 0.001, 8);
  serve::ServerConfig cfg;
  cfg.queue_capacity = 2;  // force some rejects too
  serve::Session session({&t}, cfg, "clean");
  for (int i = 0; i < 16; ++i) {
    serve::Request req;
    req.id = i;
    req.arrival_s = 0.001 * i;
    (void)session.offer(req, static_cast<std::size_t>(i), req.arrival_s);
  }
  drive(session);
  const serve::ServeReport r = session.finish();
  EXPECT_EQ(r.offered, 16);
  EXPECT_EQ(r.offered, r.completed + r.rejected + r.dropped);
  EXPECT_EQ(serve_verifier().total(), 0u);
}

// ---- cluster ledger --------------------------------------------------------

TEST_F(ServeCheckStrict, DuplicateDeliveryTrips) {
  auto& sv = serve_verifier();
  sv.on_cluster_begin();
  sv.on_ledger_deliver(41, 0, 1.0);
  sv.on_ledger_deliver(42, 0, 1.0);
  EXPECT_THROW(sv.on_ledger_deliver(42, 1, 1.5), ServeViolationError);
  EXPECT_EQ(sv.count(ServeViolationKind::kDuplicateDelivery), 1u);
  // A fresh run forgets delivery state.
  sv.on_cluster_begin();
  sv.on_ledger_deliver(42, 1, 0.5);
  EXPECT_EQ(sv.count(ServeViolationKind::kDuplicateDelivery), 1u);
}

TEST_F(ServeCheckStrict, NegativeLiveCountTrips) {
  auto& sv = serve_verifier();
  sv.on_cluster_begin();
  sv.on_ledger_live(7, 1, 1.0);
  sv.on_ledger_live(7, 0, 2.0);
  EXPECT_THROW(sv.on_ledger_live(7, -1, 3.0), ServeViolationError);
  EXPECT_EQ(sv.count(ServeViolationKind::kNegativeLive), 1u);
}

TEST_F(ServeCheckStrict, StaleEventCacheTripsAndChecksAreCounted) {
  auto& sv = serve_verifier();
  sv.on_event_cache_checked(5);
  sv.on_event_cache_checked(3);
  EXPECT_EQ(sv.event_cache_checks(), 8u);
  EXPECT_EQ(sv.total(), 0u);
  EXPECT_THROW(sv.on_stale_event_cache("cluster",
                                       "node 2 cached events "
                                       "{complete@1.000000} but its state "
                                       "schedules {complete@0.500000}",
                                       0.25),
               ServeViolationError);
  EXPECT_EQ(sv.count(ServeViolationKind::kStaleEventCache), 1u);
  const auto v = sv.violations();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].scope, "cluster");
  EXPECT_NE(v[0].detail.find("node 2"), std::string::npos);
  // configure() starts the count afresh.
  sv.configure(CheckMode::kStrict);
  EXPECT_EQ(sv.event_cache_checks(), 0u);
}

TEST_F(ServeCheckStrict, LedgerConservationTrips) {
  auto& sv = serve_verifier();
  sv.on_cluster_begin();
  sv.on_cluster_finish(/*offered=*/10, /*completed=*/6, /*rejected=*/2,
                       /*deadline=*/1, /*lost=*/1, 5.0);  // partitions: ok
  EXPECT_EQ(sv.count(ServeViolationKind::kLedgerConservation), 0u);
  EXPECT_THROW(sv.on_cluster_finish(10, 6, 2, 1, 0, 5.0),
               ServeViolationError);
  EXPECT_EQ(sv.count(ServeViolationKind::kLedgerConservation), 1u);
}

// ---- modes -----------------------------------------------------------------

TEST(ServeCheckModes, LogRecordsAndPreservesDocumentedErrors) {
  serve_verifier().configure(CheckMode::kLog);
  FakeTarget t("T", 0.01, 8);
  // The documented misuse exception still flies in kLog; the violation
  // is recorded alongside it.
  EXPECT_THROW(t.poll(core::Ticket{999}, 0.0), std::out_of_range);
  const core::Ticket tk = t.submit(4, 4, 0.0);
  EXPECT_TRUE(t.cancel(tk));
  EXPECT_THROW(t.wait(tk), std::logic_error);
  auto& sv = serve_verifier();
  EXPECT_EQ(sv.count(ServeViolationKind::kUnknownTicket), 1u);
  EXPECT_EQ(sv.count(ServeViolationKind::kWaitAfterCancel), 1u);
  EXPECT_EQ(sv.total(), 2u);
  const auto violations = sv.violations();
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].kind, ServeViolationKind::kUnknownTicket);
  EXPECT_EQ(violations[0].scope, "T");
  sv.clear_violations();
  EXPECT_EQ(sv.total(), 0u);
  serve_verifier().configure(CheckMode::kDefault);
}

TEST(ServeCheckModes, OffRecordsNothing) {
  serve_verifier().configure(CheckMode::kOff);
  FakeTarget t("T", 0.01, 8);
  EXPECT_THROW(t.poll(core::Ticket{999}, 0.0), std::out_of_range);
  EXPECT_FALSE(t.cancel(core::Ticket{999}));
  EXPECT_EQ(serve_verifier().total(), 0u);
  serve_verifier().configure(CheckMode::kDefault);
}

// ---- retired-ring regression (docs/async-targets.md) -----------------------

TEST(RetiredRing, EvictedTicketGetsDefinedErrorNotStaleState) {
  serve_verifier().configure(CheckMode::kOff);
  FakeTarget t("T", 0.001, 1);
  const core::Ticket first = t.submit(1, 1, 0.0);
  (void)t.wait(first);
  // While retired and still in the ring, poll/info answer.
  EXPECT_EQ(t.poll(first, 1.0), core::TicketState::kCompleted);
  for (int i = 0; i < 64; ++i) (void)t.wait(t.submit(1, 1, 0.0));
  // Evicted (65 retirements behind it): a defined error, never a stale
  // or fabricated state.
  EXPECT_THROW(t.poll(first, 1.0), std::out_of_range);
  EXPECT_THROW(t.info(first), std::out_of_range);
  EXPECT_THROW(t.wait(first), std::out_of_range);
  // The newest 64 still answer.
  EXPECT_EQ(t.poll(core::Ticket{2}, 1.0), core::TicketState::kCompleted);
  serve_verifier().configure(CheckMode::kDefault);
}

// ---- CompletionMap slip accounting (wedge + hedge shape) -------------------

/// Captures the dispatcher's promise and the loop's observation.
struct SlipObserver : serve::Session::Observer {
  std::vector<double> promised;
  std::vector<double> observed;
  void on_dispatched(std::size_t, double,
                     double promised_complete_s) override {
    promised.push_back(promised_complete_s);
  }
  void on_batch_completed(int, double, double complete_s,
                          std::int64_t) override {
    observed.push_back(complete_s);
  }
};

TEST(CompletionMapSlip, WedgeSlipIsObservedNotPromised) {
  serve_verifier().configure(CheckMode::kStrict);
  FakeTarget t("T", 0.01, 8);
  constexpr double kWedgeEnd = 1.0;
  // The cluster's wedge model: completions promised inside the window
  // slip to its end.
  auto wedge = [](double promised) {
    return promised < kWedgeEnd ? kWedgeEnd : promised;
  };
  SlipObserver obs;
  serve::Session session({&t}, {}, "wedged", &obs, wedge);
  serve::Request req;
  req.id = 1;
  ASSERT_TRUE(session.offer(req, 0, 0.0));
  drive(session);
  const serve::ServeReport r = session.finish();
  ASSERT_EQ(obs.promised.size(), 1u);
  ASSERT_EQ(obs.observed.size(), 1u);
  // The engine promised an early completion; the session observed the
  // slipped one, and the records account latency against it.
  EXPECT_LT(obs.promised[0], kWedgeEnd);
  EXPECT_DOUBLE_EQ(obs.observed[0], kWedgeEnd);
  EXPECT_EQ(r.completed, 1);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_DOUBLE_EQ(r.records[0].complete_s, kWedgeEnd);
  EXPECT_DOUBLE_EQ(r.last_complete_s, kWedgeEnd);
  // Conservation held under strict checking throughout.
  EXPECT_EQ(serve_verifier().total(), 0u);
  serve_verifier().configure(CheckMode::kDefault);
}

TEST(CompletionMapSlip, HedgeOnHealthySessionBeatsWedgedPromise) {
  // The hedge shape one level down from the cluster: the same request
  // offered to a wedged session and (after the promised completion
  // slips) to a healthy one. The healthy copy must observe completion
  // before the wedged copy's slipped time — that gap is what makes
  // deadline-aware hedging worth firing.
  serve_verifier().configure(CheckMode::kStrict);
  constexpr double kWedgeEnd = 2.0;
  auto wedge = [](double promised) {
    return promised < kWedgeEnd ? kWedgeEnd : promised;
  };
  FakeTarget wedged_t("W", 0.01, 1);
  FakeTarget healthy_t("H", 0.01, 1);
  // max_batch 1: a lone request dispatches at offer time, so the
  // promise is visible immediately (no flush-timeout wait).
  serve::ServerConfig cfg;
  cfg.max_batch = 1;
  SlipObserver wedged_obs, healthy_obs;
  serve::Session wedged({&wedged_t}, cfg, "wedged", &wedged_obs, wedge);
  serve::Session healthy({&healthy_t}, cfg, "healthy", &healthy_obs);
  serve::Request req;
  req.id = 7;
  ASSERT_TRUE(wedged.offer(req, 0, 0.0));
  // Hedge fires once the promise has visibly slipped past promised +
  // slack (the cluster's hedge_slack_s idea).
  ASSERT_EQ(wedged_obs.promised.size(), 1u);
  const double hedge_at = wedged_obs.promised[0] + 0.050;
  ASSERT_TRUE(healthy.offer(req, 0, hedge_at));
  drive(wedged);
  drive(healthy);
  const serve::ServeReport wr = wedged.finish();
  const serve::ServeReport hr = healthy.finish();
  EXPECT_EQ(wr.completed, 1);
  EXPECT_EQ(hr.completed, 1);
  ASSERT_EQ(healthy_obs.observed.size(), 1u);
  // First completion wins: the hedge lands well before the wedge ends.
  EXPECT_LT(healthy_obs.observed[0], kWedgeEnd);
  EXPECT_DOUBLE_EQ(wedged_obs.observed[0], kWedgeEnd);
  // Both copies conserve requests under strict checking; dedup is the
  // cluster ledger's job (see DuplicateDeliveryTrips).
  EXPECT_EQ(serve_verifier().total(), 0u);
  serve_verifier().configure(CheckMode::kDefault);
}

}  // namespace
