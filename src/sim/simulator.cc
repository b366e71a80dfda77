#include "sim/simulator.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "util/worker_pool.h"

namespace ftss {

namespace {

// Process-wide threads default (SyncConfig::threads == 0).  0 in the slot
// means "not yet initialized from the environment"; the public value is
// always >= 1.  Atomic so a sweep's worker threads constructing simulators
// can read it while a test harness thread set it — last write wins.
std::atomic<unsigned> g_sim_threads_default{0};

std::atomic<std::int64_t (*)()> g_lane_now{nullptr};
std::atomic<void (*)(Round, std::int64_t)> g_lane_span{nullptr};

}  // namespace

unsigned sim_threads_default() {
  unsigned v = g_sim_threads_default.load(std::memory_order_relaxed);
  if (v == 0) {
    v = 1;
    if (const char* e = std::getenv("FTSS_SIM_THREADS")) {
      const long k = std::strtol(e, nullptr, 10);
      if (k > 0 && k < 65536) v = static_cast<unsigned>(k);
    }
    g_sim_threads_default.store(v, std::memory_order_relaxed);
  }
  return v;
}

void set_sim_threads_default(unsigned threads) {
  g_sim_threads_default.store(threads == 0 ? 1u : threads,
                              std::memory_order_relaxed);
}

void set_sim_lane_hooks(SimLaneHooks hooks) {
  g_lane_now.store(hooks.now, std::memory_order_relaxed);
  g_lane_span.store(hooks.span, std::memory_order_relaxed);
}

SimLaneHooks sim_lane_hooks() {
  SimLaneHooks hooks;
  hooks.now = g_lane_now.load(std::memory_order_relaxed);
  hooks.span = g_lane_span.load(std::memory_order_relaxed);
  if (hooks.now == nullptr || hooks.span == nullptr) return SimLaneHooks{};
  return hooks;
}

// Collection outbox: sends are logged into the round log — a broadcast as
// ONE entry, not n fanned-out messages — and their fates are resolved after
// the collection phase.  Deferring fate and delivery to the end of
// collection is unobservable: send-time influence snapshots are pinned for
// the whole round by begin_round, process code draws no simulator
// randomness, reads no fault state and emits no trace events, and it
// cannot read deliveries until its end_round runs.
class SyncSimulator::PlaneOutboxImpl : public Outbox {
 public:
  // The sink is a parameter (rather than the simulator's shared log) so each
  // collection lane can get a private log; one lane passes &plane_log_.
  PlaneOutboxImpl(ProcessId self, int n, std::vector<PlaneSend>* sink)
      : self_(self), n_(n), sink_(sink) {}

  void send(ProcessId to, Value payload) override {
    if (to < 0 || to >= n_) {
      throw std::out_of_range("Outbox::send: bad destination");
    }
    sink_->push_back(PlaneSend{self_, to, std::move(payload)});
  }

  void broadcast(Value payload) override {
    sink_->push_back(PlaneSend{self_, kBroadcastDest, std::move(payload)});
  }

  int process_count() const override { return n_; }

 private:
  ProcessId self_;
  int n_;
  std::vector<PlaneSend>* sink_;
};

SyncSimulator::SyncSimulator(SyncConfig config,
                             std::vector<std::unique_ptr<SyncProcess>> processes)
    : config_(config),
      rng_(config.seed),
      processes_(std::move(processes)),
      plans_(processes_.size()),
      fault_manifested_(processes_.size(), false),
      causality_(static_cast<int>(processes_.size())),
      in_flight_slots_(static_cast<std::size_t>(
                           std::max(0, config.max_extra_delay)) +
                       1),
      inbox_(processes_.size()),
      plane_union_(static_cast<int>(processes_.size())),
      correct_(static_cast<int>(processes_.size())),
      last_suspects_(processes_.size(),
                     ProcessSet(static_cast<int>(processes_.size()))) {
  history_.n = static_cast<int>(processes_.size());
  for (const auto& p : processes_) {
    if (p->suspect_set() != nullptr) any_suspects_ = true;
  }

  // Resolve the engine's lane count: 0 inherits the process default, and
  // more lanes than processes buys nothing (255 bounds the pool threads one
  // simulator may ask for).
  const unsigned wanted =
      config_.threads == 0 ? sim_threads_default() : config_.threads;
  const unsigned cap = static_cast<unsigned>(std::min<std::size_t>(
      std::max<std::size_t>(1, processes_.size()), 255));
  lanes_ = std::max(1u, std::min(wanted, cap));
  engine_lanes_.reserve(lanes_);
  for (unsigned l = 0; l < lanes_; ++l) {
    engine_lanes_.emplace_back();
    engine_lanes_.back().causality = causality_.make_lane();
  }
  if (lanes_ > 1) {
    // Lanes are logical: correctness never depends on the pool's physical
    // size (a 1-thread pool runs every lane inline), but grow it so a
    // threads = 8 simulator gets real concurrency on capable hardware.
    WorkerPool::shared().ensure_lanes(lanes_);
  }
}

// Fault manifestation is a trace event exactly once per process (the round
// its plan first deviates — F(H') growing, in the paper's terms).
void SyncSimulator::mark_faulty(ProcessId p, Round r, const char* cause) {
  if (!fault_manifested_[p]) {
    fault_manifested_[p] = true;
    if (trace_ != nullptr) {
      trace_->event(TraceEvent{.kind = TraceEventKind::kFaultManifest,
                               .round = r,
                               .process = p,
                               .detail = cause,
                               .data = {}});
    }
  }
}

// Out-of-line so the Value-bearing TraceEvent construction stays off the
// message hot path (see header comment).
__attribute__((noinline)) void SyncSimulator::trace_message(
    TraceEventKind kind, Round r, ProcessId sender, ProcessId dest,
    Round sent_round, const char* cause, std::int64_t flow_id) {
  trace_->event(TraceEvent{.kind = kind,
                           .round = r,
                           .process = sender,
                           .peer = dest,
                           .aux = sent_round,
                           .detail = cause,
                           .flow_id = flow_id,
                           .data = {}});
}

void SyncSimulator::set_fault_plan(ProcessId p, FaultPlan plan) {
  if (started_) throw std::logic_error("fault plans must precede execution");
  plans_.at(p) = std::move(plan);
}

void SyncSimulator::corrupt_state(ProcessId p, const Value& state) {
  if (started_) throw std::logic_error("corruption must precede execution");
  processes_.at(p)->restore_state(state);
}

// Aligned with the round loop's liveness test (`r >= *crash_at`): a process
// with crash_at = c is alive through round c-1 and crashed from round c on,
// so after executing rounds 1..round_ it is crashed iff round_ >= c.  The
// old `round_ + 1 >= c` form reported the crash one round early (while the
// process was still alive and sending in its final round).
bool SyncSimulator::crashed(ProcessId p) const {
  return plans_[p].crash_at && round_ >= *plans_[p].crash_at;
}

// The per-pair helpers below are forced inline: the fate pass runs them
// once per (sender, dest) pair, and at the explorer's n = 3..8 the call
// overhead alone was measurable in trial throughput.
[[gnu::always_inline]] inline bool SyncSimulator::send_dropped(ProcessId s,
                                                               ProcessId d,
                                                               Round r) {
  if (s == d) return false;  // own broadcast is always received (footnote 1)
  for (const auto& rule : plans_[s].send_omissions) {
    if (rule.covers(r, d) && (rule.probability >= 1.0 || rng_.chance(rule.probability))) {
      return true;
    }
  }
  return false;
}

[[gnu::always_inline]] inline bool SyncSimulator::receive_dropped(
    ProcessId s, ProcessId d, Round r) {
  if (s == d) return false;
  for (const auto& rule : plans_[d].receive_omissions) {
    if (rule.covers(r, s) && (rule.probability >= 1.0 || rng_.chance(rule.probability))) {
      return true;
    }
  }
  return false;
}

[[gnu::always_inline]] inline void SyncSimulator::record(
    RoundRecord& rec, ProcessId s, ProcessId q, const Value& payload,
    Round sent_round, Round delivery_round, bool SendRecord::*fate) {
  if (!config_.record_sends) return;
  SendRecord& sr = rec.sends.emplace_back();
  sr.sender = s;
  sr.dest = q;
  sr.sent_round = sent_round;
  sr.delivery_round = delivery_round;
  if (config_.record_states) sr.payload = payload;
  sr.*fate = true;
}

[[gnu::always_inline]] inline bool SyncSimulator::arrive(
    ProcessId s, ProcessId q, const Value& payload, Round sent_round, Round r,
    std::int64_t flow_id, RoundRecord& rec) {
  if (!rec.alive[q]) {
    record(rec, s, q, payload, sent_round, r, &SendRecord::dest_crashed);
    if (trace_ != nullptr) {
      trace_message(TraceEventKind::kDrop, r, s, q, sent_round, "dest-crashed",
                    flow_id);
    }
    return false;
  }
  if (has_recv_rules_[q] && receive_dropped(s, q, r)) {
    record(rec, s, q, payload, sent_round, r, &SendRecord::dropped_by_receiver);
    mark_faulty(q, r, "receive-omission");
    if (trace_ != nullptr) {
      trace_message(TraceEventKind::kDrop, r, s, q, sent_round,
                    "receive-omission", flow_id);
    }
    return false;
  }
  record(rec, s, q, payload, sent_round, r, &SendRecord::delivered);
  if (trace_ != nullptr) {
    trace_message(TraceEventKind::kDeliver, r, s, q, sent_round, "", flow_id);
  }
  return true;
}

[[gnu::always_inline]] inline bool SyncSimulator::send_pair(
    const PlaneSend& e, ProcessId q, Round r, RoundRecord& rec) {
  const ProcessId s = e.sender;
  std::int64_t flow_id = -1;
  if (trace_ != nullptr) {
    flow_id = next_flow_id_++;
    trace_message(TraceEventKind::kSend, r, s, q, 0, "", flow_id);
  }
  if (has_send_rules_[s] && send_dropped(s, q, r)) {
    record(rec, s, q, e.payload, r, r, &SendRecord::dropped_by_sender);
    mark_faulty(s, r, "send-omission");
    if (trace_ != nullptr) {
      trace_message(TraceEventKind::kDrop, r, s, q, r, "send-omission",
                    flow_id);
    }
    return false;
  }
  if (config_.max_extra_delay > 0 && s != q) {
    const int delay =
        static_cast<int>(rng_.uniform(0, config_.max_extra_delay));
    if (delay != 0) {
      FlightSlot& slot = in_flight_slots_[static_cast<std::size_t>(r + delay) %
                                          in_flight_slots_.size()];
      // A drained entry is recycled by assignment, reusing its ProcessSet
      // heap words and payload storage instead of reallocating them.
      if (slot.used == slot.pool.size()) slot.pool.emplace_back();
      InFlight& f = slot.pool[slot.used++];
      f.message = Message{s, q, e.payload};
      f.sent_round = r;
      f.sender_influence = causality_.send_snapshot(s);
      f.flow_id = flow_id;
      ++in_flight_count_;
      return false;
    }
  }
  return arrive(s, q, e.payload, r, r, flow_id, rec);
}

void SyncSimulator::fate_pass(Round r, RoundRecord& rec, bool streamed) {
  const int n = process_count();
  plane_shared_drop_.assign(plane_log_.size(), 0);
  plane_filtered_.assign(static_cast<std::size_t>(n), streamed ? 1 : 0);
  plane_drops_.clear();

  // Messages from earlier rounds whose jitter expires now arrive first, in
  // the order they were delayed (a jittered round is always streamed).  A
  // slot is fully drained before any
  // message can land in it again (delay is at most max_extra_delay =
  // ring - 1), and this round's delays never land in it.
  FlightSlot& due =
      in_flight_slots_[static_cast<std::size_t>(r) % in_flight_slots_.size()];
  for (std::size_t i = 0; i < due.used; ++i) {
    InFlight& f = due.pool[i];
    const ProcessId q = f.message.dest;
    if (arrive(f.message.sender, q, f.message.payload, f.sent_round, r,
               f.flow_id, rec)) {
      causality_.deliver_snapshot(f.sender_influence, q);
      inbox_[q].push_back(std::move(f.message));
    }
  }
  in_flight_count_ -= static_cast<int>(due.used);
  due.used = 0;  // entries stay constructed; re-arming recycles them

  // Only observers, jitter and streamed deliveries need every pair;
  // otherwise a pair with no omission rule is delivered (or lost to a
  // crash) without a draw.
  const bool every_pair =
      streamed || trace_ != nullptr || config_.record_sends;
  const auto live = static_cast<std::size_t>(
      std::count(rec.alive.begin(), rec.alive.end(), true));
  for (std::size_t i = 0; i < plane_log_.size(); ++i) {
    const PlaneSend& e = plane_log_[i];
    const ProcessId s = e.sender;
    const std::size_t mark = plane_drops_.size();
    const auto visit = [&](ProcessId q) __attribute__((always_inline)) {
      if (send_pair(e, q, r, rec)) {
        if (streamed) {
          causality_.deliver_snapshot(causality_.send_snapshot(s), q);
          inbox_[q].push_back(Message{s, q, e.payload});
        }
      } else if (!streamed && rec.alive[q]) {
        plane_drops_.emplace_back(q, static_cast<std::uint32_t>(i));
      }
    };
    if (e.dest != kBroadcastDest) {
      visit(e.dest);
    } else if (every_pair || has_send_rules_[s]) {
      for (ProcessId q = 0; q < n; ++q) visit(q);
    } else {
      for (const ProcessId q : recv_rule_procs_) {
        if (rec.alive[q]) visit(q);
      }
    }
    // A broadcast no live remote process receives (a send-omission window,
    // mute, hide_until) leaves the shared inbox instead of filtering every destination;
    // its sender still receives it (footnote 1).
    const std::size_t dropped = plane_drops_.size() - mark;
    if (dropped > 0 && dropped + 1 == live) {
      plane_drops_.resize(mark);
      plane_shared_drop_[i] = 1;
      plane_filtered_[s] = 1;
    }
  }
  for (const auto& [q, i] : plane_drops_) plane_filtered_[q] = 1;
  std::sort(plane_drops_.begin(), plane_drops_.end());
}

void SyncSimulator::deliver(std::size_t lo, std::size_t hi,
                            const std::vector<bool>& alive, bool streamed,
                            std::vector<Message>& shared, EngineLane& lane) {
  auto drop = std::lower_bound(
      plane_drops_.begin(), plane_drops_.end(),
      std::pair<ProcessId, std::uint32_t>{static_cast<ProcessId>(lo), 0});
  for (std::size_t qi = lo; qi < hi; ++qi) {
    const ProcessId q = static_cast<ProcessId>(qi);
    if (!alive[q]) continue;  // a crashed process receives nothing
    std::vector<Message>* in = &shared;
    // Within a round the closure unions commute (send snapshots are pinned
    // by begin_round), so destination-major delivery leaves influence_, and
    // therefore every later observable, unchanged — and a destination that
    // receives the shared inbox gains exactly plane_union_, in one union
    // instead of one per message.  A destination's saturation within the
    // round can only come from deliveries to it, all of which this lane
    // (or the serial fate pass before it) performs.
    const bool saturated = causality_.saturated_lane(q, lane.causality);
    if (plane_filtered_[q]) {
      in = &inbox_[q];
      if (!streamed) {
        // Rebuild q's inbox from the log: the shared entries minus q's
        // drops, plus q's own broadcasts that left the shared inbox.
        for (std::size_t i = 0; i < plane_log_.size(); ++i) {
          if (drop != plane_drops_.end() && drop->first == q &&
              drop->second == i) {
            ++drop;
            continue;
          }
          const PlaneSend& e = plane_log_[i];
          if (plane_shared_drop_[i] && e.sender != q) continue;
          in->push_back(Message{e.sender, q, e.payload});
        }
        for (std::size_t j = 0; !saturated && j < in->size(); ++j) {
          causality_.deliver_snapshot_lane(
              causality_.send_snapshot((*in)[j].sender), q, lane.causality);
        }
      }
      // A jittered round's drained arrivals precede its own messages, so
      // the inbox needs ordering by sender; the stable sort keeps each
      // sender's messages oldest first.
      const auto by_sender = [](const Message& a, const Message& b) {
        return a.sender < b.sender;
      };
      if (config_.max_extra_delay > 0 &&
          !std::is_sorted(in->begin(), in->end(), by_sender)) {
        std::stable_sort(in->begin(), in->end(), by_sender);
      }
    } else {
      for (Message& m : shared) m.dest = q;
      if (!saturated) {
        causality_.deliver_snapshot_lane(plane_union_, q, lane.causality);
      }
    }
    // A halted process still has its deliveries counted by the closure but
    // takes no transition.
    if (!processes_[q]->halted()) processes_[q]->end_round(*in);
    if (in != &shared) in->clear();
  }
}

void SyncSimulator::run_rounds(int k) {
  if (config_.record_states && !config_.record_sends) {
    throw std::logic_error(
        "SyncConfig: record_states requires record_sends (payload capture "
        "lives in SendRecords)");
  }
  const int n = process_count();
  const std::size_t ring = in_flight_slots_.size();
  // Lane-span instrumentation (installed by the obs layer; see SimLaneHooks)
  // read once per call: the hot loop pays one pointer test per lane-phase.
  const SimLaneHooks hooks = sim_lane_hooks();
  if (!started_) {
    started_ = true;
    has_send_rules_.resize(static_cast<std::size_t>(n));
    has_recv_rules_.resize(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      has_send_rules_[p] = !plans_[p].send_omissions.empty();
      has_recv_rules_[p] = !plans_[p].receive_omissions.empty();
      if (has_recv_rules_[p]) recv_rule_procs_.push_back(p);
    }
  }

  // The previous run_rounds call closed its books by recording still-in-
  // flight messages as lost; this call extends the execution, so those
  // messages resolve normally below — retract the synthetic records.
  if (flushed_in_flight_ > 0 && k > 0) {
    auto& sends = history_.rounds.back().sends;
    sends.resize(sends.size() - static_cast<std::size_t>(flushed_in_flight_));
    flushed_in_flight_ = 0;
  }

  for (int step = 0; step < k; ++step) {
    const Round r = ++round_;
    RoundRecord rec;
    rec.round = r;
    rec.alive.resize(n);
    rec.halted.resize(n);
    rec.state.resize(n);
    rec.clock.resize(n);

    for (ProcessId p = 0; p < n; ++p) {
      const bool alive = !(plans_[p].crash_at && r >= *plans_[p].crash_at);
      rec.alive[p] = alive;
      if (alive) {
        rec.halted[p] = processes_[p]->halted();
        if (config_.record_states) rec.state[p] = processes_[p]->snapshot_state();
        rec.clock[p] = processes_[p]->round_counter();
      }
      // A crash that takes effect this round manifests the fault now.
      if (!alive) {
        mark_faulty(p, r, "crash");
      }
    }

    // Start-of-round §2.4 suspect sets, for processes exposing one.
    if (any_suspects_ && config_.record_states) {
      rec.suspects.resize(n);
      for (ProcessId p = 0; p < n; ++p) {
        if (!rec.alive[p]) continue;
        if (const auto* s = processes_[p]->suspect_set()) {
          rec.suspects[p].assign(s->begin(), s->end());
        }
      }
    }

    if (trace_ != nullptr) {
      trace_->event(
          TraceEvent{.kind = TraceEventKind::kRoundBegin, .round = r, .data = {}});
    }

    causality_.begin_round();

    // One parallel phase: body(lane) on every engine lane, each lane
    // reporting a wall-clock span to the installed hooks (per-worker flight
    // rings) — wall-clock only, never an input to any fingerprint.
    const auto run_lanes = [&](auto&& body) {
      WorkerPool::shared().run_tasks(lanes_, [&](std::size_t lane) {
        const std::int64_t t0 = hooks.now != nullptr ? hooks.now() : 0;
        body(lane);
        if (hooks.span != nullptr) hooks.span(r, t0);
      });
    };

    // Phase 1, collection.
    plane_log_.clear();
    const auto collect = [&](std::size_t lo, std::size_t hi,
                             std::vector<PlaneSend>* log) {
      for (std::size_t p = lo; p < hi; ++p) {
        if (!rec.alive[p] || processes_[p]->halted()) continue;
        PlaneOutboxImpl out(static_cast<ProcessId>(p), n, log);
        processes_[p]->begin_round(out);
      }
    };
    if (lanes_ > 1) {
      run_lanes([&](std::size_t lane) {
        EngineLane& el = engine_lanes_[lane];
        el.plane_log.clear();
        const auto [lo, hi] =
            WorkerPool::split(static_cast<std::size_t>(n), lanes_, lane);
        collect(lo, hi, &el.plane_log);
      });
      for (EngineLane& el : engine_lanes_) {
        for (PlaneSend& e : el.plane_log) plane_log_.push_back(std::move(e));
        el.plane_log.clear();
      }
    } else {
      collect(0, static_cast<std::size_t>(n), &plane_log_);
    }

    // Phase 2, the fate pass.  The shared inbox only pays off when most
    // destinations hear the same broadcasts.  With targeted sends in the
    // log, or with jitter (which gives nearly every destination a delayed
    // or drained message), the pass streams every delivery straight into
    // its destination's own inbox instead.
    const bool streamed =
        config_.max_extra_delay > 0 ||
        !std::all_of(plane_log_.begin(), plane_log_.end(),
                     [](const PlaneSend& e) { return e.dest == kBroadcastDest; });
    fate_pass(r, rec, streamed);

    // Phase 3, delivery.  The shared inbox holds the round's broadcasts in
    // sender order; only the 4-byte dest field is retargeted per
    // destination, keeping the delivery working set cache-resident instead
    // of materializing n^2 Messages.
    plane_union_.clear();
    for (std::size_t i = 0; !streamed && i < plane_log_.size(); ++i) {
      if (plane_shared_drop_[i]) continue;
      const ProcessId s = plane_log_[i].sender;
      plane_inbox_.push_back(Message{s, 0, plane_log_[i].payload});
      plane_union_ |= causality_.send_snapshot(s);
    }
    if (lanes_ > 1) {
      // Each lane takes a private copy of the shared inbox (COW payloads —
      // refcount bumps, not deep copies) because the dest field is
      // retargeted.
      run_lanes([&](std::size_t lane) {
        EngineLane& el = engine_lanes_[lane];
        el.plane_inbox = plane_inbox_;
        const auto [lo, hi] =
            WorkerPool::split(static_cast<std::size_t>(n), lanes_, lane);
        deliver(lo, hi, rec.alive, streamed, el.plane_inbox, el);
        el.plane_inbox.clear();
      });
    } else {
      deliver(0, static_cast<std::size_t>(n), rec.alive, streamed,
              plane_inbox_, engine_lanes_[0]);
    }
    // Release this round's payload references now: a process that reuses
    // its broadcast Value then updates it in place next round instead of
    // cloning a node the scratch still shares.
    plane_log_.clear();
    plane_inbox_.clear();

    // Fold lane-local causality staleness back into the shared bookkeeping
    // (fixed lane order; unions commute, so merge order is immaterial)
    // before the coterie reads it and the next begin_round consumes it.
    for (EngineLane& el : engine_lanes_) causality_.merge_lane(el.causality);

    // Post-transition observations: adopted round variables and Π⁺
    // suspect-set deltas.
    if (trace_ != nullptr) {
      for (ProcessId p = 0; p < n; ++p) {
        if (!rec.alive[p] || processes_[p]->halted()) continue;
        if (const auto c = processes_[p]->round_counter()) {
          trace_->event(TraceEvent{.kind = TraceEventKind::kClockAdopt,
                                   .round = r,
                                   .process = p,
                                   .aux = *c,
                                   .data = {}});
        }
        if (const auto* s = processes_[p]->suspect_set();
            s != nullptr && *s != last_suspects_[p]) {
          Value::Array added, removed;
          for (ProcessId q : *s) {
            if (!last_suspects_[p].contains(q)) added.push_back(Value(q));
          }
          for (ProcessId q : last_suspects_[p]) {
            if (!s->contains(q)) removed.push_back(Value(q));
          }
          Value delta;
          delta["added"] = Value(std::move(added));
          delta["removed"] = Value(std::move(removed));
          trace_->event(TraceEvent{.kind = TraceEventKind::kSuspectDelta,
                                   .round = r,
                                   .process = p,
                                   .data = std::move(delta)});
          last_suspects_[p] = *s;
        }
      }
    }

    rec.faulty_by_now = fault_manifested_;
    correct_.clear();
    for (int p = 0; p < n; ++p) {
      if (!fault_manifested_[p]) correct_.insert(p);
    }
    rec.coterie = causality_.coterie(correct_).to_bools();
    if (trace_ != nullptr) {
      if (history_.rounds.empty() ||
          history_.rounds.back().coterie != rec.coterie) {
        Value::Array members;
        for (int p = 0; p < n; ++p) {
          if (rec.coterie[p]) members.push_back(Value(p));
        }
        trace_->event(TraceEvent{.kind = TraceEventKind::kCoterieChange,
                                 .round = r,
                                 .data = Value(std::move(members))});
      }
      trace_->event(TraceEvent{.kind = TraceEventKind::kRoundEnd, .round = r, .data = {}});
    }
    history_.rounds.push_back(std::move(rec));
  }

  // Jittered messages still in flight when the run stops used to vanish —
  // no SendRecord, no trace event — so history/trace send accounting
  // disagreed with what was actually sent.  Flush them into the final
  // round's record as lost_in_flight drops (see SendRecord; retracted above
  // if the execution is extended).  The trace drop is not retractable: an
  // extended traced run re-resolves the same flow id, which is the tape's
  // honest record of the observer closing and reopening the run.  Slots are
  // walked in delivery-round order (the order the old sorted map yielded).
  if (k > 0 && in_flight_count_ > 0 && !history_.rounds.empty()) {
    RoundRecord& last = history_.rounds.back();
    for (std::size_t d = 1; d < ring; ++d) {
      const Round delivery_round = round_ + static_cast<Round>(d);
      const FlightSlot& slot =
          in_flight_slots_[static_cast<std::size_t>(delivery_round) % ring];
      for (std::size_t i = 0; i < slot.used; ++i) {
        const InFlight& f = slot.pool[i];
        record(last, f.message.sender, f.message.dest, f.message.payload,
               f.sent_round, delivery_round, &SendRecord::lost_in_flight);
        if (config_.record_sends) ++flushed_in_flight_;
        if (trace_ != nullptr) {
          trace_message(TraceEventKind::kDrop, round_, f.message.sender,
                        f.message.dest, f.sent_round, "in-flight-at-end",
                        f.flow_id);
        }
      }
    }
  }
}

}  // namespace ftss
