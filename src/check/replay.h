// The replay ledger: the external observer's books for a second execution
// leg that replays a TrialPlan against the SyncSimulator.
//
// Both differential legs — the event-simulator lock-step leg
// (conform/lockstep.h) and the socket transport leg (net/transport.h) — run
// the sync leg first, read every message's fate and delivery round off its
// audited history (sim/fate_schedule.h), and then re-execute that schedule
// on their own machinery.  What the second leg actually did is recorded
// here, in one place: the History of §2.1 (liveness, states, clocks, suspect
// sets, one SendRecord per message fate), the happened-before closure and
// the Def 2.3 coterie, plus the cross-checks a history cannot express
// (schedule integrity, crash-vector, survivor final state/clock, derived
// metrics).  Leg-specific facts reach the ledger as data — which processes
// the leg counts as crashed, each survivor's final report, the leg's name
// for report text — so each driver keeps only its own machinery: ticks and
// adapters for the lock-step leg, threads, channels and frames for the
// transport leg.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/plan.h"
#include "sim/causality.h"
#include "sim/fate_schedule.h"
#include "sim/history.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace ftss {

struct Divergence {
  // Stable kind identifier.  History diffs (conform/diff.h): "length",
  // "alive", "halted", "clock", "state", "sends", "suspects", "faulty",
  // "coterie".  Replay cross-checks: "schedule" (replay integrity),
  // "crashed" (crash-vector agreement), "final-state" / "final-clock"
  // (survivors after the last round), "metrics" (derived metrics
  // snapshots); the transport leg adds "io" (a channel failed mid-run).
  std::string kind;
  Round round = 0;  // 0 = whole-run property
  std::string detail;
};

// What every replay leg returns.  `supported` is false when the plan cannot
// run on the leg (unknown protocol, no rounds, an ambiguous fate schedule,
// a leg-specific limit or harness failure) — such results are skipped, not
// failed.
struct ReplayResult {
  bool supported = true;
  std::string unsupported_reason;

  History sync_history;
  std::vector<Divergence> divergences;

  bool ok() const { return supported && divergences.empty(); }
};

// Outbox capturing a process's begin_round emissions, with the same bounds
// behavior and broadcast order as the sync simulator's outbox.
class CollectOutbox : public Outbox {
 public:
  CollectOutbox(ProcessId self, int n, std::vector<Message>* sink)
      : self_(self), n_(n), sink_(sink) {}

  void send(ProcessId to, Value payload) override;
  void broadcast(Value payload) override;
  int process_count() const override { return n_; }

 private:
  ProcessId self_;
  int n_;
  std::vector<Message>* sink_;
};

// Closes one process's round: unless it has halted, its buffered
// deliveries go to end_round sorted by sender, as the sync inbox is; the
// buffer is emptied either way.
void close_round(SyncProcess& proc, std::vector<Message>& inbox);

// What the observer sees of one process at a round boundary.
struct ProcessReport {
  Value state;
  bool halted = false;
  std::optional<Round> clock;
  std::vector<ProcessId> suspects;
};

// A message the second leg has accepted from a sender: its resolved fate
// plus everything needed to record it when it resolves.
struct Pending {
  ProcessId sender = -1;
  ProcessId dest = -1;
  Round sent_round = 0;
  Round delivery_round = 0;
  int fate = kFateDelivered;
  Value payload;
  ProcessSet influence;  // sender's happened-before snapshot at send time
  bool resolved = false;
};

class ReplayLedger {
 public:
  // `leg` names the second leg in report text ("event", "transport").
  ReplayLedger(const TrialPlan& plan, const char* leg, ReplayResult* result);

  // Marks the result unsupported; returns false for the caller to return.
  bool unsupported(std::string reason);

  // Appends a divergence unless the result already holds kMaxReports.
  void report(const char* kind, Round r, std::string detail);

  // Runs the plan on the SyncSimulator into result->sync_history and reads
  // the fate schedule off it.  False (result unsupported) on failure.
  bool run_sync_leg();

  // Fresh processes for the second leg, built exactly as the sync leg's;
  // empty (result unsupported) on failure.
  std::vector<std::unique_ptr<SyncProcess>> build_second_leg();

  // Whether the plan has crashed p by the start of round r, and that for
  // every process.
  bool crashed_by(ProcessId p, Round r) const;
  std::vector<bool> planned_crashes(Round r) const;

  // Opens round r: its record (nobody alive until observed), crash faults
  // manifested at its start, and the causality tracker's round.
  void begin_round(Round r);
  void observe(Round r, ProcessId p, const ProcessReport& report);

  // One send of round r: takes its next scheduled fate.  Returns the index
  // of the new pending message, or -1 when the message ends here (dropped
  // by its sender, and recorded so; or unscheduled, and reported).
  std::int64_t accept_send(Round r, ProcessId sender, ProcessId dest,
                           Value payload);
  std::vector<Pending>& pendings() { return pendings_; }
  // The pending message `id` names, or nullptr after reporting `unknown`
  // as a "schedule" divergence when the leg never sent one.
  Pending* find_pending(Round r, std::int64_t id, const char* unknown);

  // Records `pend` as resolved in round r with fate `fate`, carrying
  // `payload` (what actually arrived, or the sent payload): a delivery
  // extends happened-before, a receive omission marks the receiver faulty.
  void resolve(Pending& pend, Round r, int fate, Value payload);

  // Closes round r's books.  Messages due this round that never resolved
  // vanished in the second leg, which is correct exactly when the sync leg
  // resolved them dest-crashed and `crashed` (the leg's own crash view)
  // agrees; then faulty_by_now and the coterie.
  void finalize_round(Round r, const std::vector<bool>& crashed);

  // Sends still in flight when the run stops become lost_in_flight records
  // in the final round, in delivery-round order.
  void flush_lost();

  // End-of-run cross-checks against the sync leg: sends it scheduled that
  // the second leg never attempted, crash-vector agreement with `crashed`,
  // each survivor's `finals` entry against the sync process, then
  // `history_diffs` appended as given, then derived-metrics agreement.
  void finish(const std::vector<bool>& crashed,
              const std::vector<ProcessReport>& finals,
              std::vector<Divergence> history_diffs = {});

  // The second leg's history as recorded so far.
  const History& history() const { return history_; }

 private:
  static constexpr int kMaxReports = 16;

  RoundRecord& rec_of(Round r) { return history_.rounds.at(r - 1); }

  const TrialPlan& plan_;
  const char* leg_;
  ReplayResult* result_;
  const int n_;
  const Round final_;

  std::unique_ptr<SyncSimulator> sync_;
  std::map<FateScheduleKey, FateQueue> fates_;
  std::vector<Pending> pendings_;
  History history_;
  CausalityTracker causality_;
  std::vector<bool> fault_manifested_;
  std::vector<std::optional<Round>> crash_round_;
  bool any_suspects_ = false;
};

}  // namespace ftss
