// wormcheck: causal-path reconstruction, the expectations DSL evaluated
// over hand-built event vectors, checker refusal semantics, and end-to-end
// runs where the standard rule pack judges a real (faulted, repaired)
// simulation — including the intentionally-broken configuration that must
// produce a deterministic violation report.
#include "check/wormcheck.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/network.h"
#include "net/topologies.h"
#include "traffic/groups.h"

namespace wormcast {
namespace {

using check::CheckReport;
using check::expect;
using check::Expectation;
using check::reconstruct_paths;
using check::run_checks;
using T = TraceEventType;

TraceEvent make_event(Time t, T type, std::int32_t node, std::uint64_t worm,
                      std::int64_t arg, std::int32_t port = -1) {
  TraceEvent e;
  e.t = t;
  e.type = type;
  e.node = node;
  e.port = port;
  e.worm = worm;
  e.arg = arg;
  return e;
}

// Matchers shared by the DSL tests.
bool same_worm(const TraceEvent& t, const TraceEvent& c) {
  return c.worm == t.worm;
}
bool same_worm_same_node(const TraceEvent& t, const TraceEvent& c) {
  return c.worm == t.worm && c.node == t.node;
}

// --- reconstruction ----------------------------------------------------------

TEST(Reconstruct, GroupsEventsByWormOldestFirst) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(10, T::kChanHead, 0, 7, 0));
  events.push_back(make_event(12, T::kChanHead, 0, 9, 0));
  events.push_back(make_event(20, T::kProtoProbe, 1, 0, 3));  // id-less
  events.push_back(make_event(30, T::kChanTail, 1, 7, 0));
  const auto paths = reconstruct_paths(events);
  ASSERT_EQ(paths.size(), 2u);  // worm 0 events belong to no path
  EXPECT_EQ(paths[0].worm, 7u);
  ASSERT_EQ(paths[0].events.size(), 2u);
  EXPECT_EQ(paths[0].first_t, 10);
  EXPECT_EQ(paths[0].last_t, 30);
  EXPECT_EQ(paths[1].worm, 9u);
  EXPECT_EQ(paths[1].events.size(), 1u);
}

TEST(Reconstruct, AttemptIndexCountsPriorRetransmissions) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(10, T::kProtoNackSent, 2, 7, 1));
  events.push_back(make_event(20, T::kProtoRetransmit, 1, 7, 2));
  events.push_back(make_event(30, T::kProtoAckSent, 2, 7, 1));
  events.push_back(make_event(40, T::kProtoRetransmit, 1, 7, 2));
  events.push_back(make_event(50, T::kProtoAckSent, 2, 7, 1));
  const auto paths = reconstruct_paths(events);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].retransmissions, 2);
  const std::vector<int> want = {0, 0, 1, 1, 2};
  EXPECT_EQ(paths[0].attempt, want);
}

TEST(Reconstruct, OpenReservationMarksUnterminated) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(10, T::kProtoReserve, 2, 7, 1024));
  events.push_back(make_event(20, T::kProtoRelease, 2, 7, 1024));
  events.push_back(make_event(30, T::kProtoReserve, 3, 7, 1024));
  const auto paths = reconstruct_paths(events);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].open_reservations, 1);
  EXPECT_TRUE(paths[0].unterminated());
}

// --- the DSL, over hand-built vectors ---------------------------------------

std::vector<Expectation> one_rule(Expectation e) {
  std::vector<Expectation> rules;
  rules.push_back(std::move(e));
  return rules;
}

TEST(Dsl, FollowedBySatisfiedInsideWindow) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(100, T::kProtoNackSent, 2, 7, 1));
  events.push_back(make_event(150, T::kProtoRetransmit, 1, 7, 2));
  events.push_back(make_event(400, T::kChanGo, 0, 0, 0));  // horizon filler
  const CheckReport rep = run_checks(
      events, one_rule(expect("r").on(T::kProtoNackSent).within(100).followed_by(
          T::kProtoRetransmit, same_worm)));
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.obligations, 1);
  EXPECT_EQ(rep.unterminated, 0);
}

TEST(Dsl, FollowedByMissingIsViolated) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(100, T::kProtoNackSent, 2, 7, 1));
  events.push_back(make_event(400, T::kChanGo, 0, 0, 0));
  const CheckReport rep = run_checks(
      events, one_rule(expect("r").on(T::kProtoNackSent).within(100).followed_by(
          T::kProtoRetransmit, same_worm)));
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_EQ(rep.violations[0].rule, "r");
  EXPECT_EQ(rep.violations[0].worm, 7u);
  EXPECT_EQ(rep.violations[0].window_begin, 100);
  EXPECT_EQ(rep.violations[0].window_end, 200);
}

TEST(Dsl, WrongWormDoesNotSatisfy) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(100, T::kProtoNackSent, 2, 7, 1));
  events.push_back(make_event(150, T::kProtoRetransmit, 1, 9, 2));  // other worm
  events.push_back(make_event(400, T::kChanGo, 0, 0, 0));
  const CheckReport rep = run_checks(
      events, one_rule(expect("r").on(T::kProtoNackSent).within(100).followed_by(
          T::kProtoRetransmit, same_worm)));
  EXPECT_EQ(rep.violations.size(), 1u);
}

TEST(Dsl, OrByAlternativeSatisfies) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(100, T::kProtoAckTimeout, 1, 7, 2));
  events.push_back(make_event(150, T::kProtoSendFailed, 1, 7, 2));
  events.push_back(make_event(400, T::kChanGo, 0, 0, 0));
  const CheckReport rep = run_checks(
      events,
      one_rule(expect("r")
                   .on(T::kProtoAckTimeout)
                   .within(100)
                   .followed_by(T::kProtoRetransmit, same_worm)
                   .or_by(T::kProtoSendFailed, same_worm)));
  EXPECT_TRUE(rep.ok());
}

TEST(Dsl, UnlessWaivesEvenWhenExcusePrecedesTrigger) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(80, T::kProtoSendFailed, 1, 7, 2));
  events.push_back(make_event(100, T::kProtoNackSent, 2, 7, 1));
  events.push_back(make_event(400, T::kChanGo, 0, 0, 0));
  const CheckReport rep = run_checks(
      events, one_rule(expect("r")
                           .on(T::kProtoNackSent)
                           .within(100)
                           .followed_by(T::kProtoRetransmit, same_worm)
                           .unless(T::kProtoSendFailed, same_worm)));
  EXPECT_TRUE(rep.ok());
}

TEST(Dsl, PrecededByWantsEvidenceBeforeAccusation) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(100, T::kProtoProbe, 1, 0, 3));
  events.push_back(make_event(150, T::kProtoSuspect, 1, 0, 3));
  const CheckReport ok_rep = run_checks(
      events, one_rule(expect("r").on(T::kProtoSuspect).within(100).preceded_by(
          T::kProtoProbe, [](const TraceEvent& t, const TraceEvent& c) {
            return c.node == t.node && c.arg == t.arg;
          })));
  EXPECT_TRUE(ok_rep.ok());

  // The probe after the suspicion is no evidence at all. (The filler at
  // t=40 keeps the whole lookback window [50, 150] inside the recording,
  // so the miss judges as a violation rather than unterminated.)
  std::vector<TraceEvent> bad;
  bad.push_back(make_event(40, T::kChanGo, 0, 0, 0));
  bad.push_back(make_event(150, T::kProtoSuspect, 1, 0, 3));
  bad.push_back(make_event(160, T::kProtoProbe, 1, 0, 3));
  const CheckReport bad_rep = run_checks(
      bad, one_rule(expect("r").on(T::kProtoSuspect).within(100).preceded_by(
          T::kProtoProbe, [](const TraceEvent& t, const TraceEvent& c) {
            return c.node == t.node && c.arg == t.arg;
          })));
  EXPECT_EQ(bad_rep.violations.size(), 1u);
}

TEST(Dsl, NeverWithinFlagsForbiddenHistory) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(100, T::kProtoDeliver, 2, 7, 1));
  events.push_back(make_event(150, T::kProtoDeliver, 2, 7, 1));  // duplicate
  const CheckReport rep = run_checks(
      events, one_rule(expect("dup").on(T::kProtoDeliver).never_within(
          T::kProtoDeliver, same_worm_same_node)));
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_EQ(rep.violations[0].rule, "dup");
  EXPECT_EQ(rep.violations[0].worm, 7u);
  // The offending earlier delivery opens the reported window.
  EXPECT_EQ(rep.violations[0].window_begin, 100);
}

TEST(Dsl, NeverWithinRespectsWindowAndStrictLeftEdge) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(100, T::kChanHead, 5, 7, 0, 2));
  events.push_back(make_event(400, T::kMcastIdleFlush, 5, 9, 0, 2));
  // The head sits exactly one full window before the flush: legal.
  const auto rule = [] {
    return expect("flush").on(T::kMcastIdleFlush).never_within(
        T::kChanHead,
        [](const TraceEvent& t, const TraceEvent& c) {
          return c.node == t.node && c.port == t.port;
        },
        300);
  };
  EXPECT_TRUE(run_checks(events, one_rule(rule())).ok());
  events[0].t = 101;  // now inside the idle threshold: violation
  EXPECT_EQ(run_checks(events, one_rule(rule())).violations.size(), 1u);
}

TEST(Dsl, ObligationPastHorizonIsUnterminatedNotViolated) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(100, T::kProtoNackSent, 2, 7, 1));
  events.push_back(make_event(120, T::kChanGo, 0, 0, 0));  // horizon = 120
  const CheckReport rep = run_checks(
      events, one_rule(expect("r").on(T::kProtoNackSent).within(100).followed_by(
          T::kProtoRetransmit, same_worm)));
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.unterminated, 1);
}

TEST(Dsl, InactiveRuleOpensNoObligations) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(100, T::kProtoNackSent, 2, 7, 1));
  events.push_back(make_event(400, T::kChanGo, 0, 0, 0));
  const CheckReport rep = run_checks(
      events, one_rule(expect("r")
                           .on(T::kProtoNackSent)
                           .within(100)
                           .followed_by(T::kProtoRetransmit, same_worm)
                           .active_if(false)));
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.obligations, 0);
  EXPECT_EQ(rep.rules_evaluated, 0);
}

TEST(Dsl, FilterRestrictsTriggers) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(100, T::kProtoNackSent, 2, 0, 1));  // id-less
  events.push_back(make_event(110, T::kProtoNackSent, 2, 7, 1));
  events.push_back(make_event(400, T::kChanGo, 0, 0, 0));
  const CheckReport rep = run_checks(
      events,
      one_rule(expect("r")
                   .on(T::kProtoNackSent,
                       [](const TraceEvent& e) { return e.worm != 0; })
                   .within(100)
                   .followed_by(T::kProtoRetransmit, same_worm)));
  EXPECT_EQ(rep.obligations, 1);
  EXPECT_EQ(rep.violations.size(), 1u);
}

TEST(Dsl, FormatNamesRuleWormAndWindow) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(100, T::kProtoNackSent, 2, 7, 1));
  events.push_back(make_event(400, T::kChanGo, 0, 0, 0));
  const CheckReport rep = run_checks(
      events, one_rule(expect("nack-retransmit")
                           .on(T::kProtoNackSent)
                           .within(100)
                           .followed_by(T::kProtoRetransmit, same_worm)
                           .detail("must retry")));
  const std::string report = rep.format();
  EXPECT_NE(report.find("FAIL"), std::string::npos);
  EXPECT_NE(report.find("[nack-retransmit] worm=7 window=[100, 200]"),
            std::string::npos);
  EXPECT_NE(report.find("must retry"), std::string::npos);
  EXPECT_NE(report.find("proto.nack"), std::string::npos);  // trigger line
}

// --- Network::check_expectations refusal semantics ---------------------------

ExperimentConfig lossy_config(double loss, std::uint64_t seed = 42) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = Scheme::kHamiltonianSF;
  cfg.protocol.ack_timeout = 20'000;
  cfg.protocol.retry_backoff = 2'000;
  cfg.protocol.retry_jitter = 1'000;
  cfg.protocol.max_attempts = 8;
  cfg.protocol.pool_bytes = 128 * 1024;
  cfg.faults.worm_kill_rate = loss;
  cfg.faults.ctrl_loss_rate = loss;
  cfg.seed = seed;
  return cfg;
}

void inject_multicasts(Network& net, int count, std::int64_t length) {
  for (int i = 0; i < count; ++i) {
    Demand d;
    d.src = static_cast<HostId>((i * 3) % net.num_hosts());
    d.multicast = true;
    d.group = 0;
    d.length = length;
    net.inject(d);
  }
}

TEST(CheckExpectations, RefusesWhenTracingOff) {
  Network net(make_myrinet_testbed(), {make_full_group(8)}, lossy_config(0.0));
  inject_multicasts(net, 2, 256);
  net.run_to_quiescence();
  const CheckReport rep = net.check_expectations();
  EXPECT_FALSE(rep.usable);
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.refusal.find("tracing"), std::string::npos);
  EXPECT_NE(rep.format().find("REFUSED"), std::string::npos);
}

TEST(CheckExpectations, RefusesWhenRingWrapped) {
  Network net(make_myrinet_testbed(), {make_full_group(8)}, lossy_config(0.0));
  net.enable_tracing(16);  // far too small for a full run
  inject_multicasts(net, 4, 512);
  net.run_to_quiescence();
  const CheckReport rep = net.check_expectations();
  EXPECT_FALSE(rep.usable);
  EXPECT_GT(rep.events_dropped, 0);
  EXPECT_NE(rep.refusal.find("wrapped"), std::string::npos);
}

// A ring larger than 2^20 that holds more than 2^20 events is checked
// whole: snapshot() used to cap at the last 2^20 events, so the checker
// silently judged a suffix while reporting nothing dropped.
TEST(CheckExpectations, ChecksEveryEventOfARingLargerThanTwoToTheTwenty) {
  Network net(make_myrinet_testbed(), {make_full_group(8)}, lossy_config(0.0));
  net.enable_tracing(std::size_t{1} << 21);
  inject_multicasts(net, 40, 8192);
  net.run_to_quiescence();
  ASSERT_GT(net.trace_recorded(), std::int64_t{1} << 20);
  ASSERT_EQ(net.trace_dropped(), 0);
  const CheckReport rep = net.check_expectations();
  EXPECT_TRUE(rep.ok()) << rep.format();
  EXPECT_EQ(rep.events_checked, net.trace_recorded());
  EXPECT_EQ(rep.events_dropped, 0);
}

// --- the standard rule pack, end to end --------------------------------------

TEST(CheckExpectations, CleanLossyRunPassesStandardRules) {
  Network net(make_myrinet_testbed(), {make_full_group(8)}, lossy_config(0.08));
  net.enable_tracing(std::size_t{1} << 18);
  inject_multicasts(net, 20, 512);
  net.run_to_quiescence();
  ASSERT_GT(net.summary().faults_injected, 0);
  ASSERT_GT(net.summary().retransmits, 0);  // recovery actually exercised
  const CheckReport rep = net.check_expectations();
  EXPECT_TRUE(rep.ok()) << rep.format();
  EXPECT_GT(rep.obligations, 0);
}

TEST(CheckExpectations, CrashAndRepairRunPassesStandardRules) {
  ExperimentConfig cfg = lossy_config(0.0);
  cfg.protocol.ack_timeout = 8'000;
  cfg.protocol.max_attempts = 10;
  cfg.protocol.suspicion_timeout = 30'000;
  Network net(make_myrinet_testbed(), {make_full_group(8)}, cfg);
  net.enable_tracing(std::size_t{1} << 18);
  inject_multicasts(net, 10, 512);
  net.crash_host(3, 5'000);
  net.run_to_quiescence();
  ASSERT_GT(net.summary().hosts_removed, 0);  // repair actually happened
  const CheckReport rep = net.check_expectations();
  EXPECT_TRUE(rep.ok()) << rep.format();
  EXPECT_GT(rep.obligations, 0);
}

/// Regression: a falsely-accused tree root gets removed while an origin's
/// relay-phase copy is still unACKed. The rescue retargets that copy to the
/// newly promoted serializer — which already received the old root's flood.
/// The dedup memory keys on (message, phase), so the relay copy used to slip
/// past it and deliver the payload a second time (wormcheck's dedup-delivery
/// rule caught this; the serializer now re-floods without re-delivering).
TEST(CheckExpectations, RescuedRelayAfterRootRemovalDoesNotDoubleDeliver) {
  ExperimentConfig cfg = lossy_config(0.0);
  cfg.protocol.scheme = Scheme::kTreeSF;
  cfg.protocol.ack_timeout = 8'000;
  cfg.protocol.max_attempts = 10;
  cfg.protocol.suspicion_timeout = 60'000;
  cfg.faults.ctrl_loss_rate = 0.2;  // lose ACKs, keep relay sends pending
  Network net(make_myrinet_testbed(), {make_full_group(8)}, cfg);
  net.enable_tracing(std::size_t{1} << 18);
  net.crash_host(3, 20'000);
  for (int i = 0; i < 24; ++i) {
    const HostId src = static_cast<HostId>((i * 3) % 8 == 3 ? 1 : (i * 3) % 8);
    net.sim().at(1'000 + i * 2'000, [&net, src] {
      Demand d;
      d.src = src;
      d.multicast = true;
      d.group = 0;
      d.length = 300;
      net.inject(d);
    });
  }
  net.run_to_quiescence();
  // The interesting part of the scenario is the *second* removal: heavy ACK
  // loss makes a live host (the root) look silent, so repair promotes a new
  // serializer while relay copies are still in flight toward the old one.
  ASSERT_GE(net.summary().hosts_removed, 2);
  const CheckReport rep = net.check_expectations();
  EXPECT_TRUE(rep.ok()) << rep.format();
  EXPECT_GT(rep.obligations, 0);
}

/// The acceptance scenario for the whole subsystem, part 1: a rule whose
/// window is intentionally broken (forced to ~0, as if the protocol's
/// recovery deadline were misconfigured) must flag the real trace of a
/// correct lossy run — naming the rule, the worm, and the event window —
/// and render the identical report run after run.
TEST(CheckExpectations, BrokenRuleWindowProducesDeterministicViolation) {
  const auto run_broken = [] {
    Network net(make_myrinet_testbed(), {make_full_group(8)},
                lossy_config(0.08));
    net.enable_tracing(std::size_t{1} << 18);
    inject_multicasts(net, 20, 512);
    net.run_to_quiescence();
    // A rule pack whose timeout-response deadline is zero byte-times:
    // every real ACK-timeout -> retransmission gap now "violates" it.
    // (The genuine protocol config derives a >=80k-byte-time window; see
    // standard_rules.)
    check::CheckConfig broken;
    broken.ack_timeout = 1;
    broken.retry_backoff = 0;
    broken.retry_jitter = 0;
    broken.max_attempts = 8;
    broken.slack = 0;
    return run_checks(net.sim().tracer().snapshot(),
                      check::standard_rules(broken));
  };
  const CheckReport rep = run_broken();
  ASSERT_TRUE(rep.usable);
  ASSERT_FALSE(rep.violations.empty()) << rep.format();
  bool found = false;
  for (const auto& v : rep.violations) {
    if (v.rule != "timeout-response") continue;
    found = true;
    EXPECT_NE(v.worm, 0u);
    EXPECT_LE(v.window_begin, v.window_end);
  }
  EXPECT_TRUE(found) << rep.format();
  const std::string report = rep.format();
  EXPECT_NE(report.find("[timeout-response] worm="), std::string::npos);
  // Determinism: an identical run renders the identical report.
  EXPECT_EQ(report, run_broken().format());
}

/// Part 2: a duplicate application delivery — what a dedup window forced
/// to 0 would let through — is caught by the dedup-delivery rule. The
/// simulator itself asserts on real double delivery (it is an internal
/// invariant), so the duplicate is injected into the genuine trace of a
/// recovered lossy run: the recorded stream stays real except for the one
/// event the broken protocol would have added.
TEST(CheckExpectations, DuplicateDeliveryIsCaughtByDedupRule) {
  Network net(make_myrinet_testbed(), {make_full_group(8)}, lossy_config(0.08));
  net.enable_tracing(std::size_t{1} << 18);
  inject_multicasts(net, 20, 512);
  net.run_to_quiescence();
  std::vector<TraceEvent> events = net.sim().tracer().snapshot();
  const auto cfg_rules = [&net] {
    check::CheckConfig ccfg;
    ccfg.ack_timeout = 20'000;
    ccfg.retry_backoff = 2'000;
    ccfg.retry_jitter = 1'000;
    ccfg.max_attempts = 8;
    return check::standard_rules(ccfg);
  };
  ASSERT_TRUE(run_checks(events, cfg_rules()).ok());  // the real trace is clean

  // Re-deliver the first recorded delivery a little later.
  const auto it = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.type == T::kProtoDeliver;
  });
  ASSERT_NE(it, events.end());
  TraceEvent dup = *it;
  const Time first_delivery_t = it->t;
  dup.t = events.back().t;  // keeps the snapshot time-ordered
  events.push_back(dup);

  const CheckReport rep = run_checks(events, cfg_rules());
  ASSERT_EQ(rep.violations.size(), 1u) << rep.format();
  EXPECT_EQ(rep.violations[0].rule, "dedup-delivery");
  EXPECT_EQ(rep.violations[0].worm, dup.worm);
  EXPECT_EQ(rep.violations[0].window_begin, first_delivery_t);
  EXPECT_EQ(rep.violations[0].window_end, dup.t);
}

// --- the membership-churn rules, isolated from the standard pack ------------
// These pull the *real* rule out of standard_rules by name, so the tests
// pin the shipped wiring (matchers, windows, excuses) and not a re-typed
// copy. Membership events carry worm=0, node=member, arg=group; a suspect
// event carries node=accuser, arg=suspect.

check::CheckConfig churn_cfg() {
  check::CheckConfig cfg;
  cfg.join_grace = 1'000;
  cfg.suspicion_timeout = 500;
  cfg.slack = 100;
  return cfg;
}

std::vector<Expectation> named_rule(const check::CheckConfig& cfg,
                                    const std::string& name) {
  std::vector<Expectation> out;
  for (Expectation& r : check::standard_rules(cfg))
    if (r.name() == name) out.push_back(std::move(r));
  return out;
}

TEST(ChurnRules, JoinGraceSatisfiedByApplyOrShed) {
  const auto rules = [] { return named_rule(churn_cfg(), "join-grace"); };
  std::vector<TraceEvent> applied;
  applied.push_back(make_event(100, T::kProtoJoinRequest, 3, 0, 0));
  applied.push_back(make_event(600, T::kProtoJoinApplied, 3, 0, 0));
  applied.push_back(make_event(5'000, T::kChanGo, 0, 0, 0));  // horizon
  EXPECT_TRUE(run_checks(applied, rules()).ok());

  std::vector<TraceEvent> shed;
  shed.push_back(make_event(100, T::kProtoJoinRequest, 3, 0, 0));
  shed.push_back(make_event(600, T::kProtoJoinShed, 3, 0, 0));
  shed.push_back(make_event(5'000, T::kChanGo, 0, 0, 0));
  EXPECT_TRUE(run_checks(shed, rules()).ok());
}

TEST(ChurnRules, JoinDanglingInQueueIsViolated) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(100, T::kProtoJoinRequest, 3, 0, 0));
  // Another host's join applying is no answer for host 3.
  events.push_back(make_event(600, T::kProtoJoinApplied, 5, 0, 0));
  events.push_back(make_event(5'000, T::kChanGo, 0, 0, 0));
  const CheckReport rep =
      run_checks(events, named_rule(churn_cfg(), "join-grace"));
  ASSERT_EQ(rep.violations.size(), 1u) << rep.format();
  EXPECT_EQ(rep.violations[0].rule, "join-grace");
  // Window = join_grace + slack past the request.
  EXPECT_EQ(rep.violations[0].window_end, 100 + 1'000 + 100);
}

TEST(ChurnRules, JoinWaivedWhenJoinerCrashesAndGraceZeroDisables) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(100, T::kProtoJoinRequest, 3, 0, 0));
  events.push_back(make_event(400, T::kProtoCrash, 3, 0, 0));
  events.push_back(make_event(5'000, T::kChanGo, 0, 0, 0));
  EXPECT_TRUE(run_checks(events, named_rule(churn_cfg(), "join-grace")).ok());

  check::CheckConfig off = churn_cfg();
  off.join_grace = 0;  // rule inactive: the dangling request is not judged
  std::vector<TraceEvent> dangling;
  dangling.push_back(make_event(100, T::kProtoJoinRequest, 3, 0, 0));
  dangling.push_back(make_event(5'000, T::kChanGo, 0, 0, 0));
  const CheckReport rep = run_checks(dangling, named_rule(off, "join-grace"));
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.obligations, 0);
}

TEST(ChurnRules, VoluntaryLeaveMustNeverBeSuspected) {
  const auto rules = [] {
    return named_rule(churn_cfg(), "leave-no-suspect");
  };
  // Host 4 leaves; host 2 accuses it shortly after: violation.
  std::vector<TraceEvent> bad;
  bad.push_back(make_event(100, T::kProtoLeave, 4, 0, 0));
  bad.push_back(make_event(300, T::kProtoSuspect, 2, 0, 4));
  const CheckReport rep = run_checks(bad, rules());
  ASSERT_EQ(rep.violations.size(), 1u) << rep.format();
  EXPECT_EQ(rep.violations[0].rule, "leave-no-suspect");

  // A suspicion with no leave in the lookback is out of scope here.
  std::vector<TraceEvent> clean;
  clean.push_back(make_event(100, T::kProtoLeave, 6, 0, 0));  // other host
  clean.push_back(make_event(300, T::kProtoSuspect, 2, 0, 4));
  EXPECT_TRUE(run_checks(clean, rules()).ok());

  // The leaver genuinely crashing afterwards makes the accusation fair.
  std::vector<TraceEvent> crashed;
  crashed.push_back(make_event(100, T::kProtoLeave, 4, 0, 0));
  crashed.push_back(make_event(200, T::kProtoCrash, 4, 0, 0));
  crashed.push_back(make_event(300, T::kProtoSuspect, 2, 0, 4));
  EXPECT_TRUE(run_checks(crashed, rules()).ok());
}

TEST(ChurnRules, RejoinMustResetTheDedupEpoch) {
  const auto rules = [] {
    return named_rule(churn_cfg(), "rejoin-fresh-dedup");
  };
  std::vector<TraceEvent> good;
  good.push_back(make_event(100, T::kProtoRejoin, 3, 0, 1));
  good.push_back(make_event(100, T::kProtoDedupReset, 3, 0, 1));
  good.push_back(make_event(5'000, T::kChanGo, 0, 0, 0));
  EXPECT_TRUE(run_checks(good, rules()).ok());

  std::vector<TraceEvent> bad;
  bad.push_back(make_event(100, T::kProtoRejoin, 3, 0, 1));
  // A reset for a *different group* at the same member does not count.
  bad.push_back(make_event(100, T::kProtoDedupReset, 3, 0, 2));
  bad.push_back(make_event(5'000, T::kChanGo, 0, 0, 0));
  const CheckReport rep = run_checks(bad, rules());
  ASSERT_EQ(rep.violations.size(), 1u) << rep.format();
  EXPECT_EQ(rep.violations[0].rule, "rejoin-fresh-dedup");
}

}  // namespace
}  // namespace wormcast
