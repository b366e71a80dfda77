// The perfectly synchronous, completely connected message-passing system of
// §2: all processes step in lock-step rounds, message delivery takes exactly
// one round, and the simulator plays the roles of network, fault adversary,
// systemic-failure adversary and external observer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/causality.h"
#include "sim/fault.h"
#include "sim/history.h"
#include "sim/process.h"
#include "sim/trace.h"
#include "util/process_set.h"
#include "util/rng.h"

namespace ftss {

struct SyncConfig {
  std::uint64_t seed = 1;
  // Record full state snapshots into the history (disable for large
  // benchmark sweeps where only clocks/coterie matter).
  bool record_states = true;
  // Record per-message SendRecords into the history.  The n-scaling bench
  // grid disables this: at n=10^4 a single all-to-all round is 10^8
  // SendRecords (~7 GB), and the scale checkers only need the per-round
  // clock/coterie/faulty columns.  The audit oracles and every pinned
  // fingerprint run with it on (the default).  record_states=true implies
  // send payload capture and therefore requires record_sends=true.
  bool record_sends = true;
  // "Synchronous, but not perfectly synchronized" (§3's opening remark):
  // each REMOTE message is delayed by a uniformly random 0..max_extra_delay
  // additional rounds (0 = the perfectly synchronous model, delivery at the
  // end of the sending round).  A process always receives its own broadcast
  // in the sending round.  Receive-omission faults are evaluated at the
  // delivery round; send-omission faults at the send round.
  int max_extra_delay = 0;
  // Deterministic intra-round parallelism.  1 (the default) is exactly
  // today's serial round loop.  k > 1 partitions each round's phases —
  // send-phase collection, delivery/closure, and the receive/transition
  // sweep — across k lanes of the shared WorkerPool by contiguous
  // process-id ranges, with per-lane scratch merged back in ascending id
  // order; every RNG draw, SendRecord, inbox ordering, causality update
  // and therefore every history byte and pinned fingerprint is identical
  // to the serial path's at any k (parallel_round_test pins this).
  // 0 = inherit the process-wide default (set_sim_threads_default /
  // $FTSS_SIM_THREADS), which is how the trial drivers let one knob
  // parallelize every simulator they construct.  Clamped to the process
  // count.  Attaching a trace sink forces the serial path: the tape must
  // interleave per-message events in exact serial order, and the tracing
  // transparency oracle already compares traced against untraced histories.
  unsigned threads = 1;
};

// Process-wide default lane count adopted by simulators constructed with
// threads == 0.  Initialized from $FTSS_SIM_THREADS (falling back to 1) at
// first use.
unsigned sim_threads_default();
void set_sim_threads_default(unsigned threads);

// Wall-clock instrumentation hook for the parallel round engine: when
// installed, every engine lane reports one (round, t0) span per parallel
// phase it executes, on the worker thread that ran it.  The simulator sits
// below the observability plane in the layering, so the hook is a pair of
// raw function pointers (a clock and a sink) rather than a FlightRecorder
// call; obs/flight.cc self-installs adapters mapping them onto per-thread
// flight rings (FlightCat::kLane), which is what makes lane timing show up
// per-worker in flight dumps with zero sim -> obs dependency.
struct SimLaneHooks {
  std::int64_t (*now)() = nullptr;                 // monotonic ns
  void (*span)(Round round, std::int64_t t0) = nullptr;
};
void set_sim_lane_hooks(SimLaneHooks hooks);
SimLaneHooks sim_lane_hooks();

class SyncSimulator {
 public:
  // Takes ownership of the processes.  All fault plans and corruptions must
  // be configured before the first run_rounds call.
  SyncSimulator(SyncConfig config,
                std::vector<std::unique_ptr<SyncProcess>> processes);

  int process_count() const { return static_cast<int>(processes_.size()); }

  // Declare process p's failure behavior (default: correct).
  void set_fault_plan(ProcessId p, FaultPlan plan);

  // Systemic failure: replace p's initial state with `state` before
  // execution commences.  Per §2.1 this does NOT make p faulty.
  void corrupt_state(ProcessId p, const Value& state);

  // Attach a structured event tracer (non-owning; may be null).  With no
  // sink attached every emission site reduces to one null-check, so the
  // tracing-off hot loop is unchanged (bench_overhead verifies).
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

  // Execute `k` more rounds (the execution can be extended incrementally;
  // actual round numbers continue from where the previous call stopped).
  void run_rounds(int k);

  Round current_round() const { return round_; }  // rounds executed so far
  const History& history() const { return history_; }
  SyncProcess& process(ProcessId p) { return *processes_.at(p); }
  const SyncProcess& process(ProcessId p) const { return *processes_.at(p); }

  bool crashed(ProcessId p) const;

 private:
  class OutboxImpl;
  class PlaneOutboxImpl;

  bool send_dropped(ProcessId s, ProcessId d, Round r);
  bool receive_dropped(ProcessId s, ProcessId d, Round r);

  // One broadcast-plane send-phase log entry: a broadcast is stored once
  // (dest = kBroadcastDest) instead of being fanned out into n Messages at
  // collect time.  At n = 10^3+ the fan-out itself is the bottleneck — n^2
  // Message constructions scattered over n growing inboxes is tens of MB of
  // cache-hostile traffic per round — so the plane keeps the log n-sized
  // and delivers destination-major through one shared scratch inbox that
  // stays cache-resident.
  static constexpr ProcessId kBroadcastDest = -1;
  struct PlaneSend {
    ProcessId sender = 0;
    ProcessId dest = kBroadcastDest;
    Value payload;
  };

  // A message delayed past its sending round, together with the sender's
  // happened-before snapshot at send time (needed for correct causality).
  struct InFlight {
    Message message;
    Round sent_round = 0;
    ProcessSet sender_influence;
    std::int64_t flow_id = -1;  // trace flow linking send to delivery
  };

  void mark_faulty(ProcessId p, Round r, const char* cause);

  // Cold path of the per-message trace emission: constructing a TraceEvent
  // (which embeds a Value) inline bloats the message-resolution hot loop
  // enough to measurably slow the tracing-off configuration, so the
  // construction lives out-of-line and call sites reduce to a predictable
  // null test + call.
  void trace_message(TraceEventKind kind, Round r, ProcessId sender,
                     ProcessId dest, Round sent_round, const char* cause,
                     std::int64_t flow_id);

  // run_rounds dispatches on whether a sink is attached and whether send
  // records are kept; each instantiation contains no code for the disabled
  // planes at all (if constexpr), so the tracing-off hot loop is bit-for-bit
  // the untraced simulator's (bench_overhead's BM_TracedRoundAgreement/0
  // guards the claim) and the record_sends-off loop carries no SendRecord
  // construction.
  template <bool kTraced, bool kRecordSends>
  void run_rounds_impl(int k);

  // --- Broadcast plane -----------------------------------------------------
  //
  // Every untraced, unrecorded, jitter-free round: senders log their
  // traffic (broadcasts once), a serial fate pass draws randomness only for
  // the (sender, dest) pairs an omission rule can touch, and delivery runs
  // destination-major through one shared scratch inbox.  Serial and
  // parallel rounds run the same phases; lanes_ > 1 splits collection by
  // sender range and delivery by destination range.

  // Fate of one zero-delay message s -> q sent in round r, with exactly the
  // RNG draws and fault manifestations the streaming path makes for it
  // (send omission, then dest crash, then receive omission).
  std::uint8_t fate(ProcessId s, ProcessId q, Round r,
                    const std::vector<bool>& alive);
  // Serial fate pass over a broadcast-only plane_log_: fills
  // plane_shared_drop_, plane_drops_ and plane_filtered_.
  void plane_fate_pass(Round r, const std::vector<bool>& alive);
  // Destination-major delivery and transition for destinations [lo, hi):
  // `shared` holds the round's shared inbox (its dest fields are retargeted
  // per destination), `lane` collects the closure updates.
  struct EngineLane;
  void plane_deliver(std::size_t lo, std::size_t hi,
                     const std::vector<bool>& alive,
                     std::vector<Message>& shared, EngineLane& lane);

  // --- Parallel round engine (lanes_ > 1) --------------------------------
  //
  // Message fate in the parallel send phase of a traced, recorded or
  // jittered round: begin_round collection fans out across lanes (C1), a
  // SERIAL fate pass walks the collected messages in exact sender-major
  // order — every RNG draw, fault manifestation, in-flight enqueue and
  // SendRecord slot index therefore matches the serial path bit-for-bit
  // (C2) — and the lanes then fill their pre-assigned record slots, apply
  // lane-local causality updates and push inbox deliveries for the
  // destinations they own (C3).
  static constexpr std::uint8_t kFateDelivered = 0;
  static constexpr std::uint8_t kFateDestCrashed = 1;
  static constexpr std::uint8_t kFateRecvDropped = 2;
  static constexpr std::uint8_t kFateSendDropped = 3;
  struct EngineLane {
    // Slow-path send collection: messages from this lane's contiguous
    // sender range, in sender-then-emission order.
    std::vector<Message> outbox;
    // Fate-resolved messages awaiting C3, bucketed by destination owner.
    // `slot` is the message's offset into this block's rec.sends tail
    // (uint32 max if records are off); pointers reference lane outboxes
    // and stay valid for the block.
    struct Delivery {
      Message* message;
      std::uint32_t slot;
      std::uint8_t fate;
    };
    std::vector<Delivery> deliveries;
    // Broadcast-plane scratch: the lane's collection log, a private copy of
    // the shared inbox (only the dest field is retargeted per destination,
    // so lanes cannot share one) and the filtered inbox of a destination
    // whose drops differ from the round's shared ones.
    std::vector<PlaneSend> plane_log;
    std::vector<Message> plane_inbox;
    std::vector<Message> filtered_inbox;
    CausalityTracker::Lane causality;
  };
  unsigned lanes_ = 1;  // config_.threads resolved and clamped
  // lanes_ entries (one when serial: the broadcast plane delivers through a
  // lane either way).
  std::vector<EngineLane> engine_lanes_;
  std::vector<std::uint8_t> dest_lane_;  // owner lane of each destination
  // Fate-pass scratch: sender-omission-dropped messages and their record
  // slots, filled serially after the block's rec.sends tail is sized.
  std::vector<std::pair<Message*, std::uint32_t>> dropped_sends_;

  SyncConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<SyncProcess>> processes_;
  std::vector<FaultPlan> plans_;
  std::vector<bool> fault_manifested_;
  CausalityTracker causality_;
  History history_;
  // Message plane: delivery slot ring, indexed by delivery round modulo
  // max_extra_delay + 1.  A message delayed by d in [1, max_extra_delay]
  // lands d slots ahead of the slot being drained this round, so a slot is
  // always fully drained before anything new lands in it.  Each slot is an
  // arena of InFlight entries recycled in place: draining resets `used`
  // without destroying entries, so re-arming a slot reuses the previous
  // occupant's heap (ProcessSet words, payload nodes) instead of
  // reallocating it — after warm-up the steady-state round loop performs no
  // message-plane allocation at all.
  struct FlightSlot {
    std::vector<InFlight> pool;  // high-water storage, entries live forever
    std::size_t used = 0;        // live entries are pool[0..used)
  };
  std::vector<FlightSlot> in_flight_slots_;
  int in_flight_count_ = 0;  // total messages currently in flight
  // Per-sender outbox scratch, cleared-not-reallocated: the send phase
  // streams one sender's messages to resolution before the next sender
  // runs, so peak scratch is O(n) messages, not the O(n^2) a whole-round
  // outgoing buffer held.
  std::vector<Message> outgoing_;
  std::vector<std::vector<Message>> inbox_;  // per destination
  // Broadcast-plane round log and shared delivery scratch (see PlaneSend);
  // both keep their capacity across rounds.
  std::vector<PlaneSend> plane_log_;
  std::vector<Message> plane_inbox_;
  // Broadcast-plane fate-pass output.  plane_shared_drop_[i]: log entry i
  // reaches no live remote destination (it is left out of the shared inbox
  // and delivered to its sender alone).  plane_drops_: the remaining
  // (dest, entry) drops to live destinations, sorted.  plane_filtered_[q]:
  // q's inbox differs from the shared one (it has drops, or is the sender
  // of a shared-dropped entry).
  std::vector<std::uint8_t> plane_shared_drop_;
  std::vector<std::pair<ProcessId, std::uint32_t>> plane_drops_;
  std::vector<std::uint8_t> plane_filtered_;
  // Union of the shared inbox's send snapshots: the closure update of every
  // destination that receives the shared inbox.
  ProcessSet plane_union_;
  // Per-process omission-rule presence, frozen at the first run_rounds call:
  // lets the per-message path skip the rule-scan calls entirely for the
  // (typical) processes with no omission faults planned.  Behavior-neutral:
  // an empty rule list never draws randomness and never drops.
  std::vector<std::uint8_t> has_send_rules_;
  std::vector<std::uint8_t> has_recv_rules_;
  std::vector<ProcessId> recv_rule_procs_;  // ascending ids with recv rules
  ProcessSet correct_;  // non-manifested processes, rebuilt each round
  // Synthetic lost_in_flight records appended to the final round's sends
  // when run_rounds returned with messages still in flight; retracted (and
  // the messages resolved normally) if the execution is extended.
  int flushed_in_flight_ = 0;
  Round round_ = 0;
  bool started_ = false;
  bool any_suspects_ = false;  // some process exposes a §2.4 suspect set
  TraceSink* trace_ = nullptr;
  std::int64_t next_flow_id_ = 0;
  std::vector<ProcessSet> last_suspects_;  // for kSuspectDelta
};

}  // namespace ftss
