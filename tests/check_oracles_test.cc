// Pinned diagnostics of the universal history audit.
//
// Each test hand-builds a History that departs from its TrialPlan in exactly
// one way and asserts the oracle name and the full detail text the audit
// records for it.  Failure reports, shrunk reproducers and the pinned
// regressions all quote these strings, so they are part of the contract:
// a change to how the audit formats (or when) must leave every byte alone.
#include <gtest/gtest.h>

#include "check/oracles.h"

namespace ftss {
namespace {

// A history of `rounds` all-alive, fault-free rounds with no sends.
History blank_history(int n, int rounds) {
  History h;
  h.n = n;
  for (Round r = 1; r <= rounds; ++r) {
    RoundRecord rec;
    rec.round = r;
    rec.alive.assign(n, true);
    rec.faulty_by_now.assign(n, false);
    h.rounds.push_back(std::move(rec));
  }
  return h;
}

TrialPlan blank_plan(int n, int rounds, int max_extra_delay = 0) {
  TrialPlan plan;
  plan.n = n;
  plan.rounds = rounds;
  plan.max_extra_delay = max_extra_delay;
  return plan;
}

SendRecord send(ProcessId from, ProcessId to, Round sent, Round delivery) {
  SendRecord s;
  s.sender = from;
  s.dest = to;
  s.sent_round = sent;
  s.delivery_round = delivery;
  return s;
}

SendRecord delivered(ProcessId from, ProcessId to, Round sent, Round delivery) {
  SendRecord s = send(from, to, sent, delivery);
  s.delivered = true;
  return s;
}

FaultSpec crash(ProcessId p, Round onset) {
  FaultSpec f;
  f.process = p;
  f.kind = FaultSpec::Kind::kCrash;
  f.onset = onset;
  return f;
}

FaultSpec omission(FaultSpec::Kind kind, ProcessId p, ProcessId peer,
                   int permille = 1000) {
  FaultSpec f;
  f.process = p;
  f.kind = kind;
  f.onset = 1;
  f.peer = peer;
  f.permille = permille;
  return f;
}

// Marks p dead from round `onset` on, as a crash at `onset` records it.
void kill(History& h, ProcessId p, Round onset) {
  for (auto& rec : h.rounds) {
    if (rec.round >= onset) {
      rec.alive[p] = false;
      rec.faulty_by_now[p] = true;
    }
  }
}

std::vector<Violation> audit(const History& h, const TrialPlan& plan) {
  std::vector<Violation> out;
  audit_history(h, plan, out);
  return out;
}

// The audit stops at the first departure, so each case yields exactly one.
void expect_single(const History& h, const TrialPlan& plan,
                   const std::string& oracle, const std::string& detail) {
  const std::vector<Violation> out = audit(h, plan);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].oracle, oracle);
  EXPECT_EQ(out[0].detail, detail);
}

TEST(CheckOracles, LicensedHistoryPassesClean) {
  TrialPlan plan = blank_plan(3, 3, /*max_extra_delay=*/1);
  plan.faults = {crash(2, 3),
                 omission(FaultSpec::Kind::kSendOmission, 0, 1),
                 omission(FaultSpec::Kind::kReceiveOmission, 1, 2)};
  History h = blank_history(3, 3);
  kill(h, 2, 3);
  SendRecord send_drop = send(0, 1, 1, 1);
  send_drop.dropped_by_sender = true;
  SendRecord receive_drop = send(2, 1, 1, 1);
  receive_drop.dropped_by_receiver = true;
  SendRecord eaten = send(0, 2, 2, 3);
  eaten.dest_crashed = true;
  SendRecord in_flight = send(1, 0, 3, 4);
  in_flight.lost_in_flight = true;
  h.rounds[0].sends = {delivered(0, 0, 1, 1), send_drop, receive_drop,
                       delivered(1, 0, 1, 2)};
  h.rounds[1].sends = {eaten};
  h.rounds[2].sends = {in_flight};
  for (auto& rec : h.rounds) rec.faulty_by_now[0] = rec.faulty_by_now[1] = true;
  EXPECT_TRUE(audit(h, plan).empty());
}

TEST(CheckOracles, Length) {
  expect_single(blank_history(3, 2), blank_plan(3, 3), "audit-length",
                "history has 2 rounds, plan says 3");
}

TEST(CheckOracles, CrashLiveness) {
  TrialPlan plan = blank_plan(3, 3);
  plan.faults = {crash(1, 2)};
  expect_single(blank_history(3, 3), plan, "audit-crash",
                "p1 alive at round 2 contradicts crash plan");

  History h = blank_history(3, 3);
  kill(h, 0, 3);
  expect_single(h, blank_plan(3, 3), "audit-crash",
                "p0 dead at round 3 contradicts crash plan");
}

TEST(CheckOracles, DelayBound) {
  History h = blank_history(3, 3);
  h.rounds[0].sends = {delivered(0, 1, 1, 3)};
  expect_single(h, blank_plan(3, 3, /*max_extra_delay=*/1), "audit-delay",
                "p0->p1 sent round 1 delivered round 3, max_extra_delay 1");

  // A process's own message is never delayed, whatever the jitter budget.
  h.rounds[0].sends = {delivered(2, 2, 1, 2)};
  expect_single(h, blank_plan(3, 3, /*max_extra_delay=*/1), "audit-delay",
                "p2->p2 sent round 1 delivered round 2, max_extra_delay 1");
}

TEST(CheckOracles, SendAfterCrash) {
  TrialPlan plan = blank_plan(3, 3);
  plan.faults = {crash(0, 2)};
  History h = blank_history(3, 3);
  kill(h, 0, 2);
  h.rounds[1].sends = {delivered(0, 1, 2, 2)};
  expect_single(h, plan, "audit-crash", "p0 sent at round 2 despite crashing at 2");
}

TEST(CheckOracles, UnlicensedSendDrop) {
  TrialPlan plan = blank_plan(3, 2);
  // A send-omission rule aimed at another peer does not license this drop.
  plan.faults = {omission(FaultSpec::Kind::kSendOmission, 0, 2)};
  History h = blank_history(3, 2);
  SendRecord s = send(0, 1, 2, 2);
  s.dropped_by_sender = true;
  h.rounds[1].sends = {s};
  expect_single(h, plan, "audit-omission",
                "unlicensed send drop: p0->p1 sent 2 delivery 2");
}

TEST(CheckOracles, MessageEatenByNonCrash) {
  History h = blank_history(3, 2);
  SendRecord s = send(1, 2, 1, 1);
  s.dest_crashed = true;
  h.rounds[0].sends = {s};
  expect_single(h, blank_plan(3, 2), "audit-crash",
                "message eaten by non-crash: p1->p2 sent 1 delivery 1");

  // Nor may a crash eat a message delivered before its onset.
  TrialPlan plan = blank_plan(3, 2);
  plan.faults = {crash(2, 2)};
  kill(h, 2, 2);
  expect_single(h, plan, "audit-crash",
                "message eaten by non-crash: p1->p2 sent 1 delivery 1");
}

TEST(CheckOracles, UnlicensedReceiveDrop) {
  TrialPlan plan = blank_plan(3, 2);
  // The receive-omission window closes before the drop.
  FaultSpec window = omission(FaultSpec::Kind::kReceiveOmission, 1, 0);
  window.until = 1;
  plan.faults = {window};
  History h = blank_history(3, 2);
  SendRecord s = send(0, 1, 2, 2);
  s.dropped_by_receiver = true;
  h.rounds[1].sends = {s};
  expect_single(h, plan, "audit-omission",
                "unlicensed receive drop: p0->p1 sent 2 delivery 2");
}

TEST(CheckOracles, InFlightFlushInsideTheRun) {
  History h = blank_history(3, 3);
  SendRecord s = send(2, 0, 2, 3);
  s.lost_in_flight = true;
  h.rounds[1].sends = {s};
  expect_single(h, blank_plan(3, 3, /*max_extra_delay=*/1), "audit-omission",
                "in-flight flush inside the run: p2->p0 sent 2 delivery 3");
}

TEST(CheckOracles, FrameCorruption) {
  History h = blank_history(3, 1);
  SendRecord s = send(0, 2, 1, 1);
  s.frame_corrupted = true;
  h.rounds[0].sends = {s};
  expect_single(h, blank_plan(3, 1), "audit-omission",
                "frame corruption in an in-memory history: p0->p2 sent 1 "
                "delivery 1");
}

TEST(CheckOracles, MustDropSendDelivered) {
  TrialPlan plan = blank_plan(3, 1);
  plan.faults = {omission(FaultSpec::Kind::kSendOmission, 0,
                          OmissionRule::kAllPeers)};
  History h = blank_history(3, 1);
  h.rounds[0].sends = {delivered(0, 0, 1, 1), delivered(0, 1, 1, 1)};
  expect_single(h, plan, "audit-omission",
                "must-drop send delivered: p0->p1 sent 1 delivery 1");

  // A probabilistic rule may or may not fire: delivery is licensed.
  plan.faults[0].permille = 500;
  EXPECT_TRUE(audit(h, plan).empty());
}

TEST(CheckOracles, MustDropReceiveDelivered) {
  TrialPlan plan = blank_plan(3, 1);
  plan.faults = {omission(FaultSpec::Kind::kReceiveOmission, 1, 2)};
  History h = blank_history(3, 1);
  h.rounds[0].sends = {delivered(0, 1, 1, 1), delivered(2, 1, 1, 1)};
  expect_single(h, plan, "audit-omission",
                "must-drop receive delivered: p2->p1 sent 1 delivery 1");
}

TEST(CheckOracles, DeliveredToCrashedDestination) {
  TrialPlan plan = blank_plan(3, 2, /*max_extra_delay=*/1);
  plan.faults = {crash(1, 2)};
  History h = blank_history(3, 2);
  kill(h, 1, 2);
  h.rounds[0].sends = {delivered(0, 1, 1, 2)};
  expect_single(h, plan, "audit-crash",
                "delivered to crashed dest: p0->p1 sent 1 delivery 2");
}

TEST(CheckOracles, UndeliveredWithNoCause) {
  History h = blank_history(3, 1);
  h.rounds[0].sends = {delivered(0, 1, 1, 1), send(1, 2, 1, 1)};
  expect_single(h, blank_plan(3, 1), "audit-omission",
                "undelivered with no cause: p1->p2 sent 1 delivery 1");
}

// The model never drops a process's own message (footnote 1), so no
// omission rule licenses it, not even one covering every peer.
TEST(CheckOracles, SelfMessageDropped) {
  TrialPlan plan = blank_plan(3, 2);
  plan.faults = {omission(FaultSpec::Kind::kSendOmission, 1,
                          OmissionRule::kAllPeers, /*permille=*/500),
                 omission(FaultSpec::Kind::kReceiveOmission, 2,
                          OmissionRule::kAllPeers)};
  History h = blank_history(3, 2);
  SendRecord s = send(1, 1, 2, 2);
  s.dropped_by_sender = true;
  h.rounds[1].sends = {s};
  expect_single(h, plan, "audit-omission",
                "self-message dropped: p1->p1 sent 2 delivery 2");

  s = send(2, 2, 1, 1);
  s.dropped_by_receiver = true;
  h.rounds[1].sends.clear();
  h.rounds[0].sends = {s};
  expect_single(h, plan, "audit-omission",
                "self-message dropped: p2->p2 sent 1 delivery 1");
}

TEST(CheckOracles, FaultyWithNoPlanEntry) {
  History h = blank_history(4, 2);
  h.rounds[1].faulty_by_now = {false, true, false, true};
  const std::vector<Violation> out = audit(h, blank_plan(4, 2));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].oracle, "audit-faulty");
  EXPECT_EQ(out[0].detail, "p1 manifested a fault but has no plan entry");
  EXPECT_EQ(out[1].oracle, "audit-faulty");
  EXPECT_EQ(out[1].detail, "p3 manifested a fault but has no plan entry");
}

TEST(CheckOracles, FirstDepartureStopsTheAudit) {
  History h = blank_history(3, 2);
  h.rounds[0].sends = {send(0, 1, 1, 1), send(1, 2, 1, 1)};
  h.rounds[1].faulty_by_now = {false, true, false};
  expect_single(h, blank_plan(3, 2), "audit-omission",
                "undelivered with no cause: p0->p1 sent 1 delivery 1");
}

}  // namespace
}  // namespace ftss
