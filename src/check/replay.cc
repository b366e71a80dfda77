#include "check/replay.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "check/trial_build.h"
#include "obs/metrics.h"

namespace ftss {

void CollectOutbox::send(ProcessId to, Value payload) {
  if (to < 0 || to >= n_) {
    throw std::out_of_range("Outbox::send: bad destination");
  }
  sink_->push_back(Message{self_, to, std::move(payload)});
}

void CollectOutbox::broadcast(Value payload) {
  for (ProcessId q = 0; q < n_; ++q) {
    sink_->push_back(Message{self_, q, payload});
  }
}

void close_round(SyncProcess& proc, std::vector<Message>& inbox) {
  if (!proc.halted()) {
    const auto by_sender = [](const Message& x, const Message& y) {
      return x.sender < y.sender;
    };
    if (!std::is_sorted(inbox.begin(), inbox.end(), by_sender)) {
      std::stable_sort(inbox.begin(), inbox.end(), by_sender);
    }
    proc.end_round(inbox);
  }
  inbox.clear();
}

namespace {

SendRecord send_record(const Pending& pend, Round delivery_round, int fate,
                       Value payload) {
  SendRecord sr;
  sr.sender = pend.sender;
  sr.dest = pend.dest;
  sr.sent_round = pend.sent_round;
  sr.delivery_round = delivery_round;
  sr.payload = std::move(payload);
  sr.delivered = fate == kFateDelivered;
  sr.dropped_by_sender = fate == kFateDroppedBySender;
  sr.dropped_by_receiver = fate == kFateDroppedByReceiver;
  sr.dest_crashed = fate == kFateDestCrashed;
  sr.lost_in_flight = fate == kFateLostInFlight;
  sr.frame_corrupted = fate == kFateFrameCorrupted;
  return sr;
}

std::string pid(ProcessId p) {
  return std::string("p").append(std::to_string(p));
}

}  // namespace

ReplayLedger::ReplayLedger(const TrialPlan& plan, const char* leg,
                           ReplayResult* result)
    : plan_(plan),
      leg_(leg),
      result_(result),
      n_(plan.n),
      final_(plan.rounds),
      causality_(plan.n),
      fault_manifested_(plan.n, false),
      crash_round_(plan.n) {
  history_.n = n_;
  for (ProcessId p = 0; p < n_; ++p) {
    crash_round_[p] = plan.fault_plan_for(p).crash_at;
  }
}

bool ReplayLedger::unsupported(std::string reason) {
  result_->supported = false;
  result_->unsupported_reason = std::move(reason);
  return false;
}

void ReplayLedger::report(const char* kind, Round r, std::string detail) {
  if (static_cast<int>(result_->divergences.size()) < kMaxReports) {
    result_->divergences.push_back(Divergence{kind, r, std::move(detail)});
  }
}

bool ReplayLedger::run_sync_leg() {
  std::string error;
  std::vector<std::unique_ptr<SyncProcess>> procs =
      build_trial_processes(plan_, &error);
  if (procs.empty()) return unsupported("build: " + error);
  SyncConfig scfg;
  scfg.seed = plan_.trial_seed;
  scfg.record_states = true;
  scfg.max_extra_delay = plan_.max_extra_delay;
  scfg.threads = 0;  // inherit the process-wide lane default
  sync_ = std::make_unique<SyncSimulator>(scfg, std::move(procs));
  configure_trial(*sync_, plan_);
  sync_->run_rounds(static_cast<int>(final_));
  result_->sync_history = sync_->history();
  FateSchedule schedule = extract_fate_schedule(result_->sync_history);
  if (!schedule.ok) return unsupported("sync " + schedule.error);
  fates_ = std::move(schedule.fates);
  return true;
}

std::vector<std::unique_ptr<SyncProcess>> ReplayLedger::build_second_leg() {
  std::string error;
  std::vector<std::unique_ptr<SyncProcess>> fresh =
      build_trial_processes(plan_, &error);
  if (fresh.empty()) unsupported("rebuild: " + error);
  for (const auto& proc : fresh) {
    if (proc->suspect_set() != nullptr) any_suspects_ = true;
  }
  return fresh;
}

bool ReplayLedger::crashed_by(ProcessId p, Round r) const {
  return crash_round_[p] && r >= *crash_round_[p];
}

std::vector<bool> ReplayLedger::planned_crashes(Round r) const {
  std::vector<bool> crashed(n_);
  for (ProcessId p = 0; p < n_; ++p) crashed[p] = crashed_by(p, r);
  return crashed;
}

void ReplayLedger::begin_round(Round r) {
  RoundRecord rec;
  rec.round = r;
  rec.alive.assign(n_, false);  // flipped by each observation
  rec.halted.resize(n_);
  rec.state.resize(n_);
  rec.clock.resize(n_);
  if (any_suspects_) rec.suspects.resize(n_);
  history_.rounds.push_back(std::move(rec));
  // A crash manifests the fault at the start of its round, as in the sync
  // observer; omissions manifest only when they actually drop something.
  for (ProcessId p = 0; p < n_; ++p) {
    if (crashed_by(p, r)) fault_manifested_[p] = true;
  }
  causality_.begin_round();
}

void ReplayLedger::observe(Round r, ProcessId p, const ProcessReport& report) {
  RoundRecord& rec = rec_of(r);
  rec.alive[p] = true;
  rec.halted[p] = report.halted;
  rec.state[p] = report.state;
  rec.clock[p] = report.clock;
  if (any_suspects_) rec.suspects[p] = report.suspects;
}

std::int64_t ReplayLedger::accept_send(Round r, ProcessId sender,
                                       ProcessId dest, Value payload) {
  const auto it = fates_.find(FateScheduleKey{r, sender, dest});
  if (it == fates_.end() || it->second.next >= it->second.fates.size()) {
    std::ostringstream os;
    os << leg_ << " leg sent an unscheduled message p" << sender << "->p"
       << dest;
    report("schedule", r, os.str());
    return -1;
  }
  const ResolvedFate fate = it->second.fates[it->second.next++];

  Pending pend;
  pend.sender = sender;
  pend.dest = dest;
  pend.sent_round = r;
  pend.delivery_round = fate.delivery_round;
  pend.fate = fate.code;
  pend.payload = std::move(payload);
  if (fate.code == kFateDroppedBySender) {
    // Never enters the network; the observer records the drop at send time.
    rec_of(r).sends.push_back(
        send_record(pend, r, fate.code, std::move(pend.payload)));
    fault_manifested_[sender] = true;
    return -1;
  }
  pend.influence = causality_.send_snapshot(sender);
  pendings_.push_back(std::move(pend));
  return static_cast<std::int64_t>(pendings_.size()) - 1;
}

Pending* ReplayLedger::find_pending(Round r, std::int64_t id,
                                    const char* unknown) {
  if (id < 0 || id >= static_cast<std::int64_t>(pendings_.size())) {
    report("schedule", r, unknown);
    return nullptr;
  }
  return &pendings_[static_cast<std::size_t>(id)];
}

void ReplayLedger::resolve(Pending& pend, Round r, int fate, Value payload) {
  pend.resolved = true;
  if (fate == kFateDelivered) {
    causality_.deliver_snapshot(pend.influence, pend.dest);
  } else if (fate == kFateDroppedByReceiver) {
    fault_manifested_[pend.dest] = true;
  }
  rec_of(r).sends.push_back(send_record(pend, r, fate, std::move(payload)));
}

void ReplayLedger::finalize_round(Round r, const std::vector<bool>& crashed) {
  for (Pending& pend : pendings_) {
    if (pend.resolved || pend.delivery_round != r) continue;
    if (pend.fate != kFateDestCrashed || !crashed[pend.dest]) {
      std::ostringstream os;
      os << "p" << pend.sender << "->p" << pend.dest << " vanished in the "
         << leg_ << " leg (resolved fate " << pend.fate
         << ", dest crashed=" << crashed[pend.dest] << ")";
      report("schedule", r, os.str());
    }
    resolve(pend, r, kFateDestCrashed, pend.payload);
  }

  RoundRecord& rec = rec_of(r);
  rec.faulty_by_now = fault_manifested_;
  ProcessSet correct(n_);
  for (ProcessId p = 0; p < n_; ++p) {
    if (!fault_manifested_[p]) correct.insert(p);
  }
  rec.coterie = causality_.coterie(correct).to_bools();
}

void ReplayLedger::flush_lost() {
  std::vector<const Pending*> lost;
  for (const Pending& pend : pendings_) {
    if (!pend.resolved && pend.delivery_round > final_) lost.push_back(&pend);
  }
  std::stable_sort(lost.begin(), lost.end(),
                   [](const Pending* a, const Pending* b) {
                     return a->delivery_round < b->delivery_round;
                   });
  for (const Pending* pend : lost) {
    rec_of(final_).sends.push_back(send_record(
        *pend, pend->delivery_round, kFateLostInFlight, pend->payload));
  }
}

void ReplayLedger::finish(const std::vector<bool>& crashed,
                          const std::vector<ProcessReport>& finals,
                          std::vector<Divergence> history_diffs) {
  for (const auto& [key, fq] : fates_) {
    if (fq.next < fq.fates.size()) {
      std::ostringstream os;
      os << "p" << std::get<1>(key) << "->p" << std::get<2>(key) << ": "
         << (fq.fates.size() - fq.next)
         << " sync-scheduled send(s) never attempted by the " << leg_
         << " leg";
      report("schedule", std::get<0>(key), os.str());
    }
  }

  for (ProcessId p = 0; p < n_; ++p) {
    const bool sc = sync_->crashed(p);
    if (sc != crashed[p]) {
      report("crashed", final_,
             pid(p) + ": sync " + (sc ? "crashed" : "alive") + " vs " +
                 leg_ + " " + (crashed[p] ? "crashed" : "alive"));
    }
  }

  // Post-final-round survivor agreement.  (A crashed process's in-memory
  // state is unspecified past its crash and is not compared.)
  for (ProcessId p = 0; p < n_; ++p) {
    if (sync_->crashed(p) || crashed[p]) continue;
    const SyncProcess& sp = sync_->process(p);
    const ProcessReport& fin = finals[p];
    if (!(sp.snapshot_state() == fin.state) || sp.halted() != fin.halted) {
      report("final-state", final_,
             pid(p) + ": " + sp.snapshot_state().to_string() + " vs " +
                 fin.state.to_string());
    }
    if (sp.round_counter() != fin.clock) report("final-clock", final_, pid(p));
  }

  for (Divergence& d : history_diffs) {
    result_->divergences.push_back(std::move(d));
  }

  MetricsRegistry ms, m2;
  record_history_metrics(result_->sync_history, ms);
  record_history_metrics(history_, m2);
  if (ms.snapshot().fingerprint() != m2.snapshot().fingerprint()) {
    report("metrics", final_, "derived metrics snapshots differ");
  }
}

}  // namespace ftss
