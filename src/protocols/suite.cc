#include "protocols/suite.h"

#include "protocols/atomic_commit.h"
#include "protocols/floodset.h"
#include "protocols/interactive_consistency.h"
#include "protocols/leader_election.h"
#include "protocols/reliable_broadcast.h"
#include "util/numeric.h"

namespace ftss {

namespace {

InputSource numbered_inputs(int) {
  return [](ProcessId p, std::int64_t iteration) {
    return Value(iteration * 100 + p);
  };
}

InputSource string_inputs(int) {
  return [](ProcessId p, std::int64_t iteration) {
    return Value(std::string("v").append(std::to_string(iteration)) +
                 "_" + std::to_string(p));
  };
}

InputSource rotating_broadcast_inputs(int n) {
  return [n](ProcessId, std::int64_t iteration) {
    return ReliableBroadcastProtocol::make_input(
        static_cast<ProcessId>(floor_mod(iteration, n)),
        Value(std::string("m").append(std::to_string(iteration))));
  };
}

InputSource empty_inputs(int) {
  return [](ProcessId, std::int64_t) { return Value(); };
}

InputSource vote_inputs(int) {
  // Deterministic mix of yes/no votes that varies per iteration.
  return [](ProcessId p, std::int64_t iteration) {
    return Value(floor_mod(iteration * 31 + p * 7, 4) != 0);
  };
}

}  // namespace

const std::vector<ProtocolSpec>& protocol_suite() {
  static const std::vector<ProtocolSpec> kSuite = {
      {"floodset-consensus",
       [](int f) -> std::shared_ptr<const TerminatingProtocol> {
         return std::make_shared<FloodSetConsensus>(f);
       },
       numbered_inputs,
       [](const InputSource& inputs, int n) {
         return consensus_validity_any(inputs, n);
       }},
      {"interactive-consistency",
       [](int f) -> std::shared_ptr<const TerminatingProtocol> {
         return std::make_shared<InteractiveConsistency>(f);
       },
       string_inputs,
       [](const InputSource&, int) { return interactive_consistency_validity(); }},
      {"reliable-broadcast",
       [](int f) -> std::shared_ptr<const TerminatingProtocol> {
         return std::make_shared<ReliableBroadcastProtocol>(f);
       },
       rotating_broadcast_inputs,
       [](const InputSource&, int) { return broadcast_validity(); }},
      {"leader-election",
       [](int f) -> std::shared_ptr<const TerminatingProtocol> {
         return std::make_shared<LeaderElection>(f);
       },
       empty_inputs,
       [](const InputSource&, int) { return leader_validity(); }},
      {"atomic-commit",
       [](int f) -> std::shared_ptr<const TerminatingProtocol> {
         return std::make_shared<AtomicCommit>(f);
       },
       vote_inputs,
       [](const InputSource&, int n) { return commit_validity(n); }},
  };
  return kSuite;
}

const ProtocolSpec* find_protocol(const std::string& name) {
  for (const auto& spec : protocol_suite()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

}  // namespace ftss
