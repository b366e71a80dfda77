#include "conform/lockstep.h"

#include <memory>
#include <sstream>
#include <utility>

#include "async/event_sim.h"
#include "check/trial_build.h"

namespace ftss {

namespace {

class LockstepDriver;

// AsyncProcess shell around one SyncProcess: all round mechanics live in the
// driver; the adapter only forwards activations and holds the per-round
// delivery buffer (the event-leg analogue of the sync simulator's inbox).
class LockstepAdapter : public AsyncProcess {
 public:
  LockstepAdapter(LockstepDriver* driver, ProcessId self,
                  std::unique_ptr<SyncProcess> proc)
      : driver_(driver), self_(self), proc_(std::move(proc)) {}

  void on_tick(AsyncContext& ctx) override;
  void on_message(AsyncContext& ctx, ProcessId from,
                  const Value& payload) override;

  Value snapshot_state() const override { return proc_->snapshot_state(); }
  void restore_state(const Value& state) override {
    proc_->restore_state(state);
  }

  SyncProcess& proc() { return *proc_; }
  std::vector<Message>& buffer() { return buffer_; }

 private:
  LockstepDriver* driver_;
  ProcessId self_;
  std::unique_ptr<SyncProcess> proc_;
  std::vector<Message> buffer_;
};

class LockstepDriver {
 public:
  LockstepDriver(const TrialPlan& plan, const LockstepOptions& options,
                 LockstepResult* result)
      : plan_(plan),
        options_(options),
        result_(result),
        n_(plan.n),
        final_(plan.rounds),
        ledger_(plan, "event", result) {}

  void run();

  // Adapter callbacks. -------------------------------------------------------
  void on_round_tick(ProcessId p, AsyncContext& ctx);
  void on_wire_message(ProcessId dest, ProcessId from, const Value& wire,
                       AsyncContext& ctx);

 private:
  void handle_send(Round r, Message&& m, AsyncContext& ctx);
  // The event simulator's own crash gating, as data for the ledger.
  std::vector<bool> event_crashes(const EventSimulator& sim) const;
  void finish(const EventSimulator& sim);

  const TrialPlan& plan_;
  const LockstepOptions options_;
  LockstepResult* result_;
  const int n_;
  const Round final_;

  ReplayLedger ledger_;
  std::vector<LockstepAdapter*> adapters_;
  int delivered_seen_ = 0;
  Time pending_delay_ = 0;
};

void LockstepAdapter::on_tick(AsyncContext& ctx) {
  driver_->on_round_tick(self_, ctx);
}

void LockstepAdapter::on_message(AsyncContext& ctx, ProcessId from,
                                 const Value& payload) {
  driver_->on_wire_message(self_, from, payload, ctx);
}

ProcessReport report_of(const SyncProcess& proc) {
  ProcessReport rep;
  rep.state = proc.snapshot_state();
  rep.halted = proc.halted();
  rep.clock = proc.round_counter();
  if (const ProcessSet* s = proc.suspect_set()) {
    rep.suspects.assign(s->begin(), s->end());
  }
  return rep;
}

void LockstepDriver::on_round_tick(ProcessId p, AsyncContext& ctx) {
  const Round r = ctx.now() / kRoundPeriod;
  LockstepAdapter& a = *adapters_.at(p);
  SyncProcess& proc = a.proc();

  // The tick of round r first closes round r-1.
  if (r >= 2) close_round(proc, a.buffer());
  if (r > final_) return;  // the one-past-the-end tick only closes books

  // Start-of-round observation, then the send phase.
  ledger_.observe(r, p, report_of(proc));
  if (!proc.halted()) {
    std::vector<Message> outgoing;
    CollectOutbox out(p, n_, &outgoing);
    proc.begin_round(out);
    for (Message& m : outgoing) handle_send(r, std::move(m), ctx);
  }
}

void LockstepDriver::handle_send(Round r, Message&& m, AsyncContext& ctx) {
  const std::int64_t id = ledger_.accept_send(r, m.sender, m.dest, m.payload);
  if (id < 0) return;
  const Pending& pend = ledger_.pendings()[static_cast<std::size_t>(id)];

  Value wire;
  wire["id"] = Value(id);
  wire["sr"] = Value(r);
  wire["b"] = std::move(m.payload);
  // Side-channel to the delay policy: land exactly at the resolved round's
  // delivery instant.  Lost-in-flight fates resolve past the final round, so
  // their events are scheduled but never dispatched.
  pending_delay_ =
      pend.delivery_round * kRoundPeriod + kDeliverOffset - ctx.now();
  ctx.send(m.dest, std::move(wire));
}

void LockstepDriver::on_wire_message(ProcessId dest, ProcessId from,
                                     const Value& wire, AsyncContext& ctx) {
  const Time now = ctx.now();
  const Round r = now / kRoundPeriod;
  const std::int64_t id = wire.is_map() ? wire.at("id").int_or(-1) : -1;
  Pending* found = ledger_.find_pending(
      r, id, "delivery of a message the driver never sent");
  if (found == nullptr) return;
  Pending& pend = *found;
  if (pend.resolved) {
    ledger_.report("schedule", r, "duplicate delivery of one message");
    return;
  }
  pend.resolved = true;
  if (pend.sender != from || pend.dest != dest || pend.delivery_round != r ||
      now % kRoundPeriod != kDeliverOffset) {
    std::ostringstream os;
    os << "delivery off schedule: expected p" << pend.sender << "->p"
       << pend.dest << " due round " << pend.delivery_round << ", got p"
       << from << "->p" << dest << " at time " << now;
    ledger_.report("schedule", r, os.str());
    return;
  }
  if (pend.fate == kFateDestCrashed || pend.fate == kFateLostInFlight) {
    // The event simulator should have withheld this dispatch on its own
    // (crash gating / run horizon); reaching the adapter is a divergence.
    std::ostringstream os;
    os << "p" << from << "->p" << dest << " dispatched despite "
       << (pend.fate == kFateDestCrashed ? "a crashed destination"
                                     : "being lost in flight");
    ledger_.report("schedule", r, os.str());
    return;
  }

  if (pend.fate == kFateDroppedByReceiver) {
    ledger_.resolve(pend, r, kFateDroppedByReceiver, wire.at("b"));
    return;
  }
  if (delivered_seen_++ == options_.drop_delivery_index) return;  // TEST HOOK
  ledger_.resolve(pend, r, kFateDelivered, wire.at("b"));
  adapters_.at(dest)->buffer().push_back(Message{from, dest, wire.at("b")});
}

std::vector<bool> LockstepDriver::event_crashes(
    const EventSimulator& sim) const {
  std::vector<bool> crashed(n_);
  for (ProcessId p = 0; p < n_; ++p) crashed[p] = sim.crashed(p);
  return crashed;
}

void LockstepDriver::finish(const EventSimulator& sim) {
  const std::vector<bool> crashed = event_crashes(sim);
  std::vector<ProcessReport> finals(n_);
  for (ProcessId p = 0; p < n_; ++p) {
    if (!crashed[p]) finals[p] = report_of(adapters_.at(p)->proc());
  }
  result_->event_history = ledger_.history();
  ledger_.finish(crashed, finals,
                 diff_histories(result_->sync_history, result_->event_history));
  result_->sync_fingerprint = history_fingerprint(result_->sync_history);
  result_->event_fingerprint = history_fingerprint(result_->event_history);
}

void LockstepDriver::run() {
  if (final_ < 1) {
    ledger_.unsupported("plan has no rounds");
    return;
  }
  // Every tick must precede every delivery within a round window, and each
  // process needs a distinct tick offset.
  if (n_ < 1 || n_ > static_cast<int>(kDeliverOffset)) {
    ledger_.unsupported("n out of range for the lock-step tick stagger");
    return;
  }
  if (!ledger_.run_sync_leg()) return;

  // Event leg: fresh processes behind adapters, same corruptions, crashes
  // handed to the event simulator's own gating.
  std::vector<std::unique_ptr<SyncProcess>> fresh = ledger_.build_second_leg();
  if (fresh.empty()) return;
  std::vector<std::unique_ptr<AsyncProcess>> adapters;
  adapters.reserve(fresh.size());
  for (ProcessId p = 0; p < n_; ++p) {
    auto a = std::make_unique<LockstepAdapter>(this, p, std::move(fresh[p]));
    adapters_.push_back(a.get());
    adapters.push_back(std::move(a));
  }

  AsyncConfig acfg;
  acfg.seed = plan_.trial_seed;
  acfg.tick_interval = kRoundPeriod;
  EventSimulator sim(acfg, std::move(adapters));
  sim.set_delay_policy(
      [this](ProcessId, ProcessId, Time) { return pending_delay_; });
  for (const auto& c : plan_.corruptions) {
    sim.corrupt_state(c.process, corruption_value(c));
  }
  for (ProcessId p = 0; p < n_; ++p) {
    if (const auto crash_at = plan_.fault_plan_for(p).crash_at) {
      sim.schedule_crash(p, *crash_at * kRoundPeriod);
    }
  }

  for (Round r = 1; r <= final_; ++r) {
    ledger_.begin_round(r);
    sim.run_until(r * kRoundPeriod + kRoundPeriod - 1);
    ledger_.finalize_round(r, event_crashes(sim));
  }
  // One more tick per survivor closes the final round's deliveries without
  // opening a new round; stop short of the next delivery instant so
  // lost-in-flight events stay undispatched.
  sim.run_until((final_ + 1) * kRoundPeriod + n_ - 1);
  ledger_.flush_lost();
  finish(sim);
}

}  // namespace

LockstepResult run_lockstep_trial(const TrialPlan& plan,
                                  const LockstepOptions& options) {
  LockstepResult result;
  LockstepDriver driver(plan, options, &result);
  driver.run();
  return result;
}

}  // namespace ftss
