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
  // fingerprint run with it on (the default).  It decides only whether
  // records are written: every round runs the same engine, draws the same
  // randomness and delivers the same inboxes either way.  record_states=true
  // implies send payload capture and therefore requires record_sends=true.
  bool record_sends = true;
  // "Synchronous, but not perfectly synchronized" (§3's opening remark):
  // each REMOTE message is delayed by a uniformly random 0..max_extra_delay
  // additional rounds (0 = the perfectly synchronous model, delivery at the
  // end of the sending round).  A process always receives its own broadcast
  // in the sending round.  Receive-omission faults are evaluated at the
  // delivery round; send-omission faults at the send round.
  int max_extra_delay = 0;
  // Deterministic intra-round parallelism.  1 (the default) runs every
  // round phase inline.  k > 1 splits each round's collection (by sender
  // range) and delivery/transition (by destination range) across k lanes of
  // the shared WorkerPool; the fate pass between them stays serial, so
  // every RNG draw, SendRecord, trace event, inbox ordering, causality
  // update and therefore every history byte and pinned fingerprint is
  // identical at any k (parallel_round_test pins this).  Traced runs use
  // the lanes too: the tape is written by the serial fate pass and the
  // serial end-of-round observations.
  // 0 = inherit the process-wide default (set_sim_threads_default /
  // $FTSS_SIM_THREADS), which is how the trial drivers let one knob
  // parallelize every simulator they construct.  Clamped to the process
  // count.
  unsigned threads = 1;
};

// Process-wide default lane count adopted by simulators constructed with
// threads == 0.  Initialized from $FTSS_SIM_THREADS (falling back to 1) at
// first use.
unsigned sim_threads_default();
void set_sim_threads_default(unsigned threads);

// Wall-clock instrumentation hook for the round engine's lanes: when
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
  // sink attached every emission site reduces to one null-check, so a
  // tracing-off round costs what the untraced engine costs
  // (bench_overhead's BM_TracedRoundAgreement/0 verifies).
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
  class PlaneOutboxImpl;

  bool send_dropped(ProcessId s, ProcessId d, Round r);
  bool receive_dropped(ProcessId s, ProcessId d, Round r);

  void mark_faulty(ProcessId p, Round r, const char* cause);

  // Cold path of the per-message trace emission: constructing a TraceEvent
  // (which embeds a Value) inline bloats the fate pass enough to measurably
  // slow the tracing-off configuration, so the construction lives
  // out-of-line and call sites reduce to a predictable null test + call.
  void trace_message(TraceEventKind kind, Round r, ProcessId sender,
                     ProcessId dest, Round sent_round, const char* cause,
                     std::int64_t flow_id);

  // --- The round engine ----------------------------------------------------
  //
  // Every round runs three phases.
  //
  //  1. Collection: each live, unhalted sender's begin_round logs its
  //     traffic into plane_log_, a broadcast as ONE entry (dest =
  //     kBroadcastDest) rather than n fanned-out messages.  Lanes collect
  //     contiguous sender ranges; concatenating them in lane order is the
  //     sender-ascending log.
  //  2. The fate pass (serial): messages whose jitter expires now arrive
  //     first, then every (sender, dest) pair of the log is resolved in
  //     sender-major emission order — send omission, then the delay draw
  //     (remote pairs, max_extra_delay > 0), then dest crash and receive
  //     omission (zero-delay pairs).  The pass writes each pair's
  //     SendRecord, emits its trace events and parks delayed messages in
  //     the in-flight ring, so every RNG draw, record slot and tape event
  //     lands in one fixed order.  An untraced, unrecorded, jitter-free
  //     round has nothing to write per pair, so its pass visits only the
  //     pairs an omission rule covers.
  //  3. Delivery, destination-major (lanes split destinations): a
  //     destination whose inbox equals the round's shared one — the
  //     sender-ascending broadcasts nobody lost — receives that one scratch
  //     inbox and one closure union.  Any other destination (drops, drained
  //     or delayed messages, targeted sends) gets its own inbox in
  //     inbox_[q], ordered by sender with a stable sort.  In a jittered
  //     round or one with targeted sends nearly every destination differs,
  //     so the fate pass streams each delivery into inbox_[q] directly.
  //
  // At n = 10^3+ fanning broadcasts out is itself the bottleneck — n^2
  // Message constructions scattered over n growing inboxes — so the log
  // stays n-sized and the shared inbox stays cache-resident.
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

  // Phase 2 over plane_log_.  With `streamed` (jitter, or targeted sends in
  // the log) every delivery is pushed straight into inbox_[q]; otherwise
  // the pass fills plane_shared_drop_, plane_drops_ and plane_filtered_ for
  // phase 3.
  void fate_pass(Round r, RoundRecord& rec, bool streamed);
  // Resolves message e -> q sent in round r; true iff it is delivered now.
  bool send_pair(const PlaneSend& e, ProcessId q, Round r, RoundRecord& rec);
  // Resolves a message s -> q arriving in round r (dest crash, then receive
  // omission); true iff it is delivered.
  bool arrive(ProcessId s, ProcessId q, const Value& payload, Round sent_round,
              Round r, std::int64_t flow_id, RoundRecord& rec);
  // Appends one SendRecord with outcome flag `fate` when records are kept.
  void record(RoundRecord& rec, ProcessId s, ProcessId q, const Value& payload,
              Round sent_round, Round delivery_round, bool SendRecord::*fate);

  struct EngineLane {
    // The lane's collection log and a private copy of the shared inbox
    // (only the dest field is retargeted per destination, so lanes cannot
    // share one).
    std::vector<PlaneSend> plane_log;
    std::vector<Message> plane_inbox;
    CausalityTracker::Lane causality;
  };
  // Phase 3 for destinations [lo, hi): `shared` holds the round's shared
  // inbox, `lane` collects the closure updates.
  void deliver(std::size_t lo, std::size_t hi, const std::vector<bool>& alive,
               bool streamed, std::vector<Message>& shared, EngineLane& lane);

  unsigned lanes_ = 1;  // config_.threads resolved and clamped
  // lanes_ entries (one when serial: delivery runs through a lane either
  // way).
  std::vector<EngineLane> engine_lanes_;

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
  std::vector<std::vector<Message>> inbox_;  // own inboxes, per destination
  // Round log and shared delivery scratch (see PlaneSend); both keep their
  // capacity across rounds.
  std::vector<PlaneSend> plane_log_;
  std::vector<Message> plane_inbox_;
  // Fate-pass output.  plane_shared_drop_[i]: log entry i reaches no live
  // remote destination this round (it is left out of the shared inbox and
  // delivered to its sender alone).  plane_drops_: the remaining (dest,
  // entry) pairs a live destination does not receive this round, sorted.
  // plane_filtered_[q]: q gets its own inbox.
  std::vector<std::uint8_t> plane_shared_drop_;
  std::vector<std::pair<ProcessId, std::uint32_t>> plane_drops_;
  std::vector<std::uint8_t> plane_filtered_;
  // Union of the shared inbox's send snapshots: the closure update of every
  // destination that receives the shared inbox.
  ProcessSet plane_union_;
  // Per-process omission-rule presence, frozen at the first run_rounds call:
  // lets the fate pass skip the rule-scan calls entirely for the
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
