#include "sim/simulator.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
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

class SyncSimulator::OutboxImpl : public Outbox {
 public:
  OutboxImpl(ProcessId self, int n, std::vector<Message>* sink)
      : self_(self), n_(n), sink_(sink) {}

  void send(ProcessId to, Value payload) override {
    if (to < 0 || to >= n_) {
      throw std::out_of_range("Outbox::send: bad destination");
    }
    sink_->push_back(Message{self_, to, std::move(payload)});
  }

  void broadcast(Value payload) override {
    for (ProcessId q = 0; q < n_; ++q) {
      sink_->push_back(Message{self_, q, payload});
    }
  }

  int process_count() const override { return n_; }

 private:
  ProcessId self_;
  int n_;
  std::vector<Message>* sink_;
};

// Broadcast-plane outbox: sends are collected into the round log — a
// broadcast as ONE entry, not n fanned-out messages — and their fates are
// resolved after the collection phase.  Deferring fate and delivery to the
// end of the send phase is unobservable: send-time influence snapshots are
// pinned for the whole round by begin_round, process code draws no
// simulator randomness and reads no fault state, and it cannot read
// deliveries until its end_round runs.
class SyncSimulator::PlaneOutboxImpl : public Outbox {
 public:
  // The sink is a parameter (rather than the simulator's shared log) so the
  // parallel engine can hand each collection lane a private log; the serial
  // path passes &plane_log_ directly.
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

  // Resolve the parallel round engine's lane count: 0 inherits the process
  // default, and more lanes than processes (or than dest_lane_'s uint8 can
  // index) buys nothing.
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
    dest_lane_.resize(processes_.size());
    for (unsigned l = 0; l < lanes_; ++l) {
      const auto [lo, hi] = WorkerPool::split(processes_.size(), lanes_, l);
      for (std::size_t d = lo; d < hi; ++d) {
        dest_lane_[d] = static_cast<std::uint8_t>(l);
      }
    }
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

bool SyncSimulator::send_dropped(ProcessId s, ProcessId d, Round r) {
  if (s == d) return false;  // own broadcast is always received (footnote 1)
  for (const auto& rule : plans_[s].send_omissions) {
    if (rule.covers(r, d) && (rule.probability >= 1.0 || rng_.chance(rule.probability))) {
      return true;
    }
  }
  return false;
}

bool SyncSimulator::receive_dropped(ProcessId s, ProcessId d, Round r) {
  if (s == d) return false;
  for (const auto& rule : plans_[d].receive_omissions) {
    if (rule.covers(r, s) && (rule.probability >= 1.0 || rng_.chance(rule.probability))) {
      return true;
    }
  }
  return false;
}

std::uint8_t SyncSimulator::fate(ProcessId s, ProcessId q, Round r,
                                 const std::vector<bool>& alive) {
  if (has_send_rules_[s] && send_dropped(s, q, r)) {
    mark_faulty(s, r, "send-omission");
    return kFateSendDropped;
  }
  if (!alive[q]) return kFateDestCrashed;
  if (has_recv_rules_[q] && receive_dropped(s, q, r)) {
    mark_faulty(q, r, "receive-omission");
    return kFateRecvDropped;
  }
  return kFateDelivered;
}

// Walks the log in sender-major emission order — the order the streaming
// path resolves the fanned-out messages in — but visits only the pairs whose
// fate can differ from "delivered or dest crashed" without drawing: every
// destination of a sender with send rules, and the live destinations with
// receive rules otherwise.  So every RNG draw and fault manifestation lands
// exactly as the streaming path's would.
void SyncSimulator::plane_fate_pass(Round r, const std::vector<bool>& alive) {
  const int n = process_count();
  const auto live = static_cast<std::size_t>(
      std::count(alive.begin(), alive.end(), true));
  plane_shared_drop_.assign(plane_log_.size(), 0);
  plane_filtered_.assign(static_cast<std::size_t>(n), 0);
  plane_drops_.clear();
  for (std::size_t i = 0; i < plane_log_.size(); ++i) {
    const ProcessId s = plane_log_[i].sender;
    const std::size_t mark = plane_drops_.size();
    const auto visit = [&](ProcessId q) {
      const std::uint8_t f = fate(s, q, r, alive);
      if (f == kFateRecvDropped || (f == kFateSendDropped && alive[q])) {
        plane_drops_.emplace_back(q, static_cast<std::uint32_t>(i));
      }
    };
    if (has_send_rules_[s]) {
      for (ProcessId q = 0; q < n; ++q) visit(q);
    } else {
      for (const ProcessId q : recv_rule_procs_) {
        if (alive[q]) visit(q);
      }
    }
    // A broadcast no live remote process receives (a send-omission window,
    // mute, hide_until) leaves the shared inbox instead of filtering every
    // destination; its sender still receives it (footnote 1).
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

void SyncSimulator::plane_deliver(std::size_t lo, std::size_t hi,
                                  const std::vector<bool>& alive,
                                  std::vector<Message>& shared,
                                  EngineLane& lane) {
  auto drop = std::lower_bound(
      plane_drops_.begin(), plane_drops_.end(),
      std::pair<ProcessId, std::uint32_t>{static_cast<ProcessId>(lo), 0});
  for (std::size_t qi = lo; qi < hi; ++qi) {
    const ProcessId q = static_cast<ProcessId>(qi);
    if (!alive[q]) continue;  // a crashed process receives nothing
    std::vector<Message>* in = &shared;
    if (plane_filtered_[q]) {
      // Rebuild q's inbox from the log: the shared entries minus q's own
      // drops, plus q's own broadcasts that left the shared inbox.
      lane.filtered_inbox.clear();
      for (std::size_t i = 0; i < plane_log_.size(); ++i) {
        if (drop != plane_drops_.end() && drop->first == q &&
            drop->second == i) {
          ++drop;
          continue;
        }
        const PlaneSend& e = plane_log_[i];
        if (plane_shared_drop_[i] && e.sender != q) continue;
        lane.filtered_inbox.push_back(Message{e.sender, q, e.payload});
      }
      in = &lane.filtered_inbox;
    } else {
      for (Message& m : shared) m.dest = q;
    }
    // Within a round the closure unions commute (send snapshots are pinned
    // by begin_round), so destination-major delivery leaves influence_, and
    // therefore every later observable, unchanged — and a destination that
    // receives the shared inbox gains exactly plane_union_, in one union
    // instead of one per message.  A destination's saturation within the
    // round can only come from deliveries to it, all of which this lane
    // performs.
    if (!causality_.saturated_lane(q, lane.causality)) {
      if (in == &shared) {
        causality_.deliver_snapshot_lane(plane_union_, q, lane.causality);
      } else {
        for (const Message& m : *in) {
          causality_.deliver_snapshot_lane(causality_.send_snapshot(m.sender),
                                           q, lane.causality);
        }
      }
    }
    // A halted process still has its deliveries counted by the closure but
    // takes no transition, exactly as the receive phase treats it.
    if (!processes_[q]->halted()) processes_[q]->end_round(*in);
  }
}

void SyncSimulator::run_rounds(int k) {
  if (config_.record_states && !config_.record_sends) {
    throw std::logic_error(
        "SyncConfig: record_states requires record_sends (payload capture "
        "lives in SendRecords)");
  }
  if (trace_ == nullptr) {
    if (config_.record_sends) {
      run_rounds_impl<false, true>(k);
    } else {
      run_rounds_impl<false, false>(k);
    }
  } else {
    if (config_.record_sends) {
      run_rounds_impl<true, true>(k);
    } else {
      run_rounds_impl<true, false>(k);
    }
  }
}

template <bool kTraced, bool kRecordSends>
void SyncSimulator::run_rounds_impl(int k) {
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

    if constexpr (kTraced) {
      trace_->event(
          TraceEvent{.kind = TraceEventKind::kRoundBegin, .round = r, .data = {}});
    }

    causality_.begin_round();

    // Does the parallel engine run this round's phases?  Never when traced:
    // the tape must interleave per-message events in exact serial order, so
    // a traced run takes the serial path regardless of config.threads (the
    // tracing-transparency oracle compares traced vs untraced histories,
    // and the untraced parallel run is byte-identical to serial).
    bool par = false;
    if constexpr (!kTraced) par = lanes_ > 1;

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

    // Resolve a message at its delivery round: crash / receive-omission /
    // delivery, recording the outcome in the current round's record.  The
    // recording-off instantiation repeats the branch structure without any
    // SendRecord so that configuration never constructs (or destroys) one
    // per message; RNG draw order is identical in both arms.
    auto resolve = [&](Message&& m, Round sent_round,
                       const ProcessSet& sender_influence,
                       std::int64_t flow_id) {
      if constexpr (kRecordSends) {
        SendRecord sr;
        sr.sender = m.sender;
        sr.dest = m.dest;
        sr.sent_round = sent_round;
        sr.delivery_round = r;
        if (config_.record_states) sr.payload = m.payload;
        if (!rec.alive[m.dest]) {
          sr.dest_crashed = true;
          if constexpr (kTraced) {
            trace_message(TraceEventKind::kDrop, r, m.sender, m.dest,
                          sent_round, "dest-crashed", flow_id);
          }
        } else if (has_recv_rules_[m.dest] &&
                   receive_dropped(m.sender, m.dest, r)) {
          sr.dropped_by_receiver = true;
          mark_faulty(m.dest, r, "receive-omission");
          if constexpr (kTraced) {
            trace_message(TraceEventKind::kDrop, r, m.sender, m.dest,
                          sent_round, "receive-omission", flow_id);
          }
        } else {
          sr.delivered = true;
          if constexpr (kTraced) {
            trace_message(TraceEventKind::kDeliver, r, m.sender, m.dest,
                          sent_round, "", flow_id);
          }
          causality_.deliver_snapshot(sender_influence, m.dest);
          inbox_[m.dest].push_back(std::move(m));
        }
        rec.sends.push_back(std::move(sr));
      } else {
        if (!rec.alive[m.dest]) {
          if constexpr (kTraced) {
            trace_message(TraceEventKind::kDrop, r, m.sender, m.dest,
                          sent_round, "dest-crashed", flow_id);
          }
        } else if (has_recv_rules_[m.dest] &&
                   receive_dropped(m.sender, m.dest, r)) {
          mark_faulty(m.dest, r, "receive-omission");
          if constexpr (kTraced) {
            trace_message(TraceEventKind::kDrop, r, m.sender, m.dest,
                          sent_round, "receive-omission", flow_id);
          }
        } else {
          if constexpr (kTraced) {
            trace_message(TraceEventKind::kDeliver, r, m.sender, m.dest,
                          sent_round, "", flow_id);
          }
          causality_.deliver_snapshot(sender_influence, m.dest);
          inbox_[m.dest].push_back(std::move(m));
        }
      }
    };

    // Messages from earlier rounds whose delivery jitter expires now.  A
    // slot is fully drained before any message can land in it again (delay
    // is at most max_extra_delay = ring - 1).  This runs before the send
    // phase — process code emits no observable events, draws no randomness
    // and reads no history, so draining first is behavior-identical to the
    // old drain-after-send order while letting the send phase stream.
    {
      FlightSlot& due = in_flight_slots_[static_cast<std::size_t>(r) % ring];
      for (std::size_t i = 0; i < due.used; ++i) {
        InFlight& flight = due.pool[i];
        resolve(std::move(flight.message), flight.sent_round,
                flight.sender_influence, flight.flow_id);
      }
      in_flight_count_ -= static_cast<int>(due.used);
      due.used = 0;  // entries stay constructed; re-arming recycles them
    }

    // Does this round take the broadcast plane?  Every untraced, unrecorded
    // round with zero jitter does: there is nothing to emit per message,
    // every send resolves now (nothing is ever in flight), and the fate
    // pass replays the streaming path's draws exactly, so the plane is
    // behavior-identical by construction.  Omission rules, crashes and
    // halts only change which inboxes the plane has to filter.
    bool plane = false;
    if constexpr (!kTraced && !kRecordSends) {
      plane = config_.max_extra_delay == 0;
    }

    bool plane_delivered = false;
    if (plane) {
      // Collection: each live, unhalted sender logs its traffic
      // (broadcasts stored once).
      plane_log_.clear();
      const auto collect = [&](std::size_t lo, std::size_t hi,
                               std::vector<PlaneSend>* log) {
        for (std::size_t p = lo; p < hi; ++p) {
          if (!rec.alive[p] || processes_[p]->halted()) continue;
          PlaneOutboxImpl out(static_cast<ProcessId>(p), n, log);
          processes_[p]->begin_round(out);
        }
      };
      if (par) {
        // Lanes collect contiguous sender ranges into private logs;
        // concatenating in lane order reproduces the serial id-ascending
        // log exactly (each lane walks its own range in id order).
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
      const bool broadcast_only = std::all_of(
          plane_log_.begin(), plane_log_.end(),
          [](const PlaneSend& e) { return e.dest == kBroadcastDest; });
      if (broadcast_only) {
        // Every destination receives the same sender-ascending broadcast
        // sequence minus its drops, so ONE n-sized scratch inbox serves
        // every destination whose drops are the round's shared ones —
        // only the 4-byte dest field is retargeted per destination,
        // keeping the delivery working set cache-resident instead of
        // materializing n^2 Messages.
        plane_fate_pass(r, rec.alive);
        plane_inbox_.clear();
        plane_union_.clear();
        for (std::size_t i = 0; i < plane_log_.size(); ++i) {
          if (plane_shared_drop_[i]) continue;
          const ProcessId s = plane_log_[i].sender;
          plane_inbox_.push_back(Message{s, 0, plane_log_[i].payload});
          plane_union_ |= causality_.send_snapshot(s);
        }
        if (par) {
          // Destination-partitioned delivery: each lane takes a private
          // copy of the scratch inbox (COW payloads — refcount bumps, not
          // deep copies) because the dest field is retargeted.
          run_lanes([&](std::size_t lane) {
            EngineLane& el = engine_lanes_[lane];
            el.plane_inbox = plane_inbox_;
            const auto [lo, hi] =
                WorkerPool::split(static_cast<std::size_t>(n), lanes_, lane);
            plane_deliver(lo, hi, rec.alive, el.plane_inbox, el);
          });
        } else {
          plane_deliver(0, static_cast<std::size_t>(n), rec.alive,
                        plane_inbox_, engine_lanes_[0]);
        }
        plane_delivered = true;
      } else {
        // Mixed targeted sends: resolve the log in send order through the
        // same fate function, streaming each delivery into the
        // per-destination inboxes; the receive phase below runs as usual.
        for (const PlaneSend& e : plane_log_) {
          const ProcessSet& snap = causality_.send_snapshot(e.sender);
          const auto deliver = [&](ProcessId q) {
            if (fate(e.sender, q, r, rec.alive) != kFateDelivered) return;
            causality_.deliver_snapshot(snap, q);
            inbox_[q].push_back(Message{e.sender, q, e.payload});
          };
          if (e.dest == kBroadcastDest) {
            for (ProcessId q = 0; q < n; ++q) deliver(q);
          } else {
            deliver(e.dest);
          }
        }
      }
      plane_log_.clear();
    } else if (par) {
      // Send phase, parallel: senders are processed in blocks, bounding the
      // collected scratch at O(block * n) messages (the serial streaming
      // path holds O(n)).  Within a block: (C1) lanes run begin_round for
      // contiguous sender subranges into private outboxes; (C2) a SERIAL
      // fate pass walks the collected messages in exact sender-major order
      // — lane concatenation order IS sender order, since lanes own
      // ascending contiguous ranges — so every RNG draw, fault
      // manifestation, in-flight enqueue and SendRecord slot assignment
      // replicates the serial path bit-for-bit; (C3) lanes fill their
      // pre-assigned record slots, apply lane-local closure updates and
      // push inbox deliveries for the destinations they own.
      const int block = static_cast<int>(std::max(32u, 4u * lanes_));
      for (int s0 = 0; s0 < n; s0 += block) {
        const int s1 = std::min(n, s0 + block);
        run_lanes([&](std::size_t lane) {
          EngineLane& el = engine_lanes_[lane];
          el.outbox.clear();
          const auto [lo, hi] = WorkerPool::split(
              static_cast<std::size_t>(s1 - s0), lanes_, lane);
          for (std::size_t i = lo; i < hi; ++i) {
            const ProcessId p =
                static_cast<ProcessId>(s0 + static_cast<int>(i));
            if (!rec.alive[p] || processes_[p]->halted()) continue;
            OutboxImpl out(p, n, &el.outbox);
            processes_[p]->begin_round(out);
          }
        });

        const std::size_t base = rec.sends.size();
        std::size_t slots = 0;
        dropped_sends_.clear();
        for (unsigned lane = 0; lane < lanes_; ++lane) {
          for (Message& m : engine_lanes_[lane].outbox) {
            if (has_send_rules_[m.sender] &&
                send_dropped(m.sender, m.dest, r)) {
              if constexpr (kRecordSends) {
                dropped_sends_.emplace_back(
                    &m, static_cast<std::uint32_t>(slots++));
              }
              mark_faulty(m.sender, r, "send-omission");
              continue;
            }
            const int delay =
                (config_.max_extra_delay > 0 && m.sender != m.dest)
                    ? static_cast<int>(
                          rng_.uniform(0, config_.max_extra_delay))
                    : 0;
            if (delay != 0) {
              FlightSlot& slot = in_flight_slots_[static_cast<std::size_t>(
                                                      r + delay) %
                                                  ring];
              if (slot.used < slot.pool.size()) {
                InFlight& f = slot.pool[slot.used];
                f.sender_influence = causality_.send_snapshot(m.sender);
                f.message = std::move(m);
                f.sent_round = r;
                f.flow_id = -1;
              } else {
                slot.pool.push_back(
                    InFlight{std::move(m), r,
                             causality_.send_snapshot(m.sender), -1});
              }
              ++slot.used;
              ++in_flight_count_;
              continue;
            }
            std::uint8_t fate = kFateDelivered;
            if (!rec.alive[m.dest]) {
              fate = kFateDestCrashed;
            } else if (has_recv_rules_[m.dest] &&
                       receive_dropped(m.sender, m.dest, r)) {
              fate = kFateRecvDropped;
              mark_faulty(m.dest, r, "receive-omission");
            }
            std::uint32_t slot_index =
                std::numeric_limits<std::uint32_t>::max();
            if constexpr (kRecordSends) {
              slot_index = static_cast<std::uint32_t>(slots++);
            }
            engine_lanes_[dest_lane_[m.dest]].deliveries.push_back(
                EngineLane::Delivery{&m, slot_index, fate});
          }
        }

        // C3: size the block's record tail, fill the sender-dropped
        // records serially (they were never bucketed to a lane), then let
        // lanes fill their slots and deliver.  A destination's messages
        // all live in one lane and each lane's bucket is already in global
        // send order, so inbox contents and order match the serial path.
        if constexpr (kRecordSends) {
          rec.sends.resize(base + slots);
          for (const auto& [message, slot_index] : dropped_sends_) {
            SendRecord& sr = rec.sends[base + slot_index];
            sr.sender = message->sender;
            sr.dest = message->dest;
            sr.sent_round = r;
            sr.delivery_round = r;
            if (config_.record_states) sr.payload = message->payload;
            sr.dropped_by_sender = true;
          }
        }
        run_lanes([&](std::size_t lane) {
          EngineLane& el = engine_lanes_[lane];
          for (const EngineLane::Delivery& d : el.deliveries) {
            Message& m = *d.message;
            if constexpr (kRecordSends) {
              SendRecord& sr = rec.sends[base + d.slot];
              sr.sender = m.sender;
              sr.dest = m.dest;
              sr.sent_round = r;
              sr.delivery_round = r;
              if (config_.record_states) sr.payload = m.payload;
              if (d.fate == kFateDestCrashed) {
                sr.dest_crashed = true;
              } else if (d.fate == kFateRecvDropped) {
                sr.dropped_by_receiver = true;
              } else {
                sr.delivered = true;
              }
            }
            if (d.fate == kFateDelivered) {
              causality_.deliver_snapshot_lane(
                  causality_.send_snapshot(m.sender), m.dest, el.causality);
              inbox_[m.dest].push_back(std::move(m));
            }
          }
          el.deliveries.clear();
        });
      }
    } else {
      // Send phase, streamed sender-by-sender in id order: each live,
      // non-halted process fills the shared outbox scratch and its messages
      // resolve immediately (send-omission faults apply now; remote messages
      // may be delayed, self-deliveries never are).  Message order, RNG draw
      // order and trace order are exactly the old collect-then-resolve
      // order's, without ever materializing all n^2 messages.
      for (ProcessId p = 0; p < n; ++p) {
        if (!rec.alive[p] || processes_[p]->halted()) continue;
        outgoing_.clear();
        OutboxImpl out(p, n, &outgoing_);
        processes_[p]->begin_round(out);
        for (auto& m : outgoing_) {
          std::int64_t fid = -1;
          if constexpr (kTraced) {
            fid = next_flow_id_++;
            trace_message(TraceEventKind::kSend, r, m.sender, m.dest, 0, "",
                          fid);
          }
          if (has_send_rules_[m.sender] && send_dropped(m.sender, m.dest, r)) {
            if constexpr (kRecordSends) {
              SendRecord sr;
              sr.sender = m.sender;
              sr.dest = m.dest;
              sr.sent_round = r;
              sr.delivery_round = r;
              if (config_.record_states) sr.payload = m.payload;
              sr.dropped_by_sender = true;
              rec.sends.push_back(std::move(sr));
            }
            mark_faulty(m.sender, r, "send-omission");
            if constexpr (kTraced) {
              trace_message(TraceEventKind::kDrop, r, m.sender, m.dest, r,
                            "send-omission", fid);
            }
            continue;
          }
          const int delay =
              (config_.max_extra_delay > 0 && m.sender != m.dest)
                  ? static_cast<int>(rng_.uniform(0, config_.max_extra_delay))
                  : 0;
          if (delay == 0) {
            resolve(std::move(m), r, causality_.send_snapshot(m.sender), fid);
          } else {
            FlightSlot& slot =
                in_flight_slots_[static_cast<std::size_t>(r + delay) % ring];
            if (slot.used < slot.pool.size()) {
              // Recycle a drained entry: assignment reuses its ProcessSet
              // heap words and Message storage instead of reallocating.
              InFlight& f = slot.pool[slot.used];
              f.sender_influence = causality_.send_snapshot(m.sender);
              f.message = std::move(m);
              f.sent_round = r;
              f.flow_id = fid;
            } else {
              slot.pool.push_back(InFlight{std::move(m), r,
                                           causality_.send_snapshot(m.sender),
                                           fid});
            }
            ++slot.used;
            ++in_flight_count_;
          }
        }
      }
    }

    // Receive/transition phase (already folded into the destination-major
    // loop on a broadcast-only plane round).  The parallel arm partitions
    // destinations by lane and mirrors the serial loop exactly; every
    // inbox was filled identically (drain order, then block order), so
    // each transition sees the same message sequence either way.
    if (par && !plane_delivered) {
      run_lanes([&](std::size_t lane) {
        const auto [lo, hi] =
            WorkerPool::split(static_cast<std::size_t>(n), lanes_, lane);
        for (std::size_t pi = lo; pi < hi; ++pi) {
          const ProcessId p = static_cast<ProcessId>(pi);
          auto& in = inbox_[p];
          if (!rec.alive[p] || processes_[p]->halted()) {
            in.clear();
            continue;
          }
          if (config_.max_extra_delay > 0) {
            const auto by_sender = [](const Message& a, const Message& b) {
              return a.sender < b.sender;
            };
            if (!std::is_sorted(in.begin(), in.end(), by_sender)) {
              std::stable_sort(in.begin(), in.end(), by_sender);
            }
          }
          processes_[p]->end_round(in);
          in.clear();
        }
      });
    } else {
      for (ProcessId p = 0; !plane_delivered && p < n; ++p) {
        auto& in = inbox_[p];
        if (!rec.alive[p] || processes_[p]->halted()) {
          in.clear();
          continue;
        }
        // Deliveries land in send order, which with zero jitter is strictly
        // sender-ascending (the send phase streams senders in id order);
        // only a jittered configuration can interleave rounds, so only then
        // does the order need checking at all.
        if (config_.max_extra_delay > 0) {
          const auto by_sender = [](const Message& a, const Message& b) {
            return a.sender < b.sender;
          };
          if (!std::is_sorted(in.begin(), in.end(), by_sender)) {
            std::stable_sort(in.begin(), in.end(), by_sender);
          }
        }
        processes_[p]->end_round(in);
        in.clear();
      }
    }

    // Fold lane-local causality staleness back into the shared bookkeeping
    // (fixed lane order; unions commute, so merge order is immaterial)
    // before the coterie reads it and the next begin_round consumes it.
    for (EngineLane& el : engine_lanes_) causality_.merge_lane(el.causality);

    // Post-transition observations: adopted round variables and Π⁺
    // suspect-set deltas.
    if constexpr (kTraced) {
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
    if constexpr (kTraced) {
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
    [[maybe_unused]] auto& sends = history_.rounds.back().sends;
    for (std::size_t d = 1; d < ring; ++d) {
      const Round delivery_round = round_ + static_cast<Round>(d);
      const FlightSlot& slot =
          in_flight_slots_[static_cast<std::size_t>(delivery_round) % ring];
      for (std::size_t i = 0; i < slot.used; ++i) {
        const InFlight& flight = slot.pool[i];
        if constexpr (kRecordSends) {
          SendRecord sr;
          sr.sender = flight.message.sender;
          sr.dest = flight.message.dest;
          sr.sent_round = flight.sent_round;
          sr.delivery_round = delivery_round;
          if (config_.record_states) sr.payload = flight.message.payload;
          sr.lost_in_flight = true;
          sends.push_back(std::move(sr));
          ++flushed_in_flight_;
        }
        if constexpr (kTraced) {
          trace_message(TraceEventKind::kDrop, round_, flight.message.sender,
                        flight.message.dest, flight.sent_round,
                        "in-flight-at-end", flight.flow_id);
        }
      }
    }
  }
}

}  // namespace ftss
