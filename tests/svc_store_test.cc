// KvStore and the clean-era convergence check, below the service:
//
//   * the decode-once path (decode_decision, one DecodedBatch applied at
//     several stores) against apply_decision and against a reference model
//     of the Value-walking semantics the store has always had, over a
//     seeded stream of adversarial decided values;
//   * check_clean_era on hand-built survivor logs: identical logs replay
//     once, a differing clean-range value breaks convergence, differences
//     outside [clean_from, cutoff] do not;
//   * the RequestPlane's open assignments: partial decides, oldest-first
//     reclaim of the stale ones, and drained().
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "svc/service.h"
#include "util/rng.h"

namespace ftss {
namespace {

using svc::ApplyStats;
using svc::Command;
using svc::DecisionLog;
using svc::DecodedBatch;
using svc::KvStore;

// --- reference model ---------------------------------------------------------

// The store semantics written directly over Values with ordered maps: one
// command is a map with a string "key" and a "val" entry (null deletes);
// int client >= 0 with an int-or-missing seq is deduplicated by seq.
struct ReferenceStore {
  Value::Map data;
  std::map<std::int64_t, std::int64_t> last_seq;
  std::int64_t applied = 0, deduped = 0, garbage = 0;

  void apply_one(const Value& cmd, ApplyStats& stats) {
    if (!cmd.is_map() || !cmd.at("key").is_string() || !cmd.contains("val")) {
      ++stats.garbage;
      ++garbage;
      return;
    }
    const std::int64_t client = cmd.at("client").int_or(-1);
    const std::int64_t seq = cmd.at("seq").int_or(-1);
    if (client >= 0) {
      auto [it, inserted] = last_seq.try_emplace(client, seq);
      if (!inserted) {
        if (seq <= it->second) {
          ++stats.deduped;
          ++deduped;
          return;
        }
        it->second = seq;
      }
    }
    if (cmd.at("val").is_null()) {
      data.erase(cmd.at("key").as_string());
    } else {
      data[cmd.at("key").as_string()] = cmd.at("val");
    }
    ++stats.applied;
    ++applied;
  }

  ApplyStats apply(const Value& decision) {
    ApplyStats stats;
    if (decision.is_null() ||
        (decision.is_array() && decision.as_array().empty())) {
      stats.empty = true;
    } else if (decision.is_array()) {
      for (const Value& cmd : decision.as_array()) apply_one(cmd, stats);
    } else {
      apply_one(decision, stats);
    }
    return stats;
  }
};

// The (client, seq) every raw entry carries, read tolerantly: what request
// completion must see.
std::vector<std::pair<std::int64_t, std::int64_t>> raw_ids(const Value& d) {
  std::vector<std::pair<std::int64_t, std::int64_t>> ids;
  const auto read = [&](const Value& cmd) {
    ids.emplace_back(cmd.at("client").int_or(-1), cmd.at("seq").int_or(-1));
  };
  if (d.is_array()) {
    for (const Value& cmd : d.as_array()) read(cmd);
  } else if (!d.is_null()) {
    read(d);
  }
  return ids;
}

// --- adversarial decided values ----------------------------------------------

class DecisionGen {
 public:
  explicit DecisionGen(std::uint64_t seed) : rng_(seed) {}

  Value decision() {
    switch (rng_.uniform(0, 9)) {
      case 0:
        return scalar();
      case 1:
        return rng_.chance(0.5) ? Value() : Value(Value::Array{});
      case 2:
      case 3:
        return command();
      default: {
        Value::Array batch;
        const std::int64_t size = rng_.uniform(1, 12);
        for (std::int64_t i = 0; i < size; ++i) {
          batch.push_back(rng_.chance(0.1) ? scalar() : command());
        }
        if (rng_.chance(0.05)) batch.push_back(Value::array({command()}));
        return Value(std::move(batch));
      }
    }
  }

 private:
  Value key(std::int64_t max) {
    static const char* const kKeys[] = {"k0", "k1", "k2", "k3",
                                        "k4", "k5", "k6", "k7"};
    return Value(kKeys[rng_.uniform(0, max)]);
  }

  Value scalar() {
    switch (rng_.uniform(0, 3)) {
      case 0: return Value(rng_.uniform(-5, 5));
      case 1: return Value(rng_.chance(0.5));
      case 2: return key(3);
      default: return Value();
    }
  }

  // Small ids collide (dedup hits); the wide range and the extremes spread
  // the dedup floor over thousands of clients, so its table grows and
  // probes past occupied slots.
  Value id_field() {
    switch (rng_.uniform(0, 11)) {
      case 0: return Value("3");  // non-int
      case 1: return Value(true);
      case 2: return Value();
      case 3: return Value(std::int64_t{1'000'000'000'000'000});  // 10^15
      case 4: return Value(std::numeric_limits<std::int64_t>::max());
      case 5: return Value(std::numeric_limits<std::int64_t>::min());
      case 6: return Value(rng_.uniform(0, 1'000'000'000'000));
      default: return Value(rng_.uniform(-1, 6));
    }
  }

  Value command() {
    // Replay an earlier command: at-least-once retransmit of (client, seq).
    if (!past_.empty() && rng_.chance(0.2)) {
      return past_[static_cast<std::size_t>(
          rng_.uniform(0, static_cast<std::int64_t>(past_.size()) - 1))];
    }
    Value::Map cmd;
    switch (rng_.uniform(0, 9)) {
      case 0: cmd["key"] = Value(rng_.uniform(0, 3)); break;  // non-string
      case 1: cmd["key"] = Value::array({Value("k0")}); break;
      case 2: break;                                          // no key
      default: cmd["key"] = key(7);
    }
    switch (rng_.uniform(0, 9)) {
      case 0: break;                              // no val
      case 1: cmd["val"] = Value(); break;        // delete
      case 2: cmd["val"] = Value::array({Value(1)}); break;
      default: cmd["val"] = Value(rng_.uniform(0, 99));
    }
    if (rng_.chance(0.8)) cmd["client"] = id_field();
    if (rng_.chance(0.8)) {
      cmd["seq"] = rng_.chance(0.7) ? Value(next_seq_++) : id_field();
    }
    Value v(std::move(cmd));
    if (past_.size() < 256) past_.push_back(v);
    return v;
  }

  Rng rng_;
  std::vector<Value> past_;
  std::int64_t next_seq_ = 0;
};

TEST(SvcDecodeOnce, SharedDecodedPathMatchesApplyDecisionAndReference) {
  constexpr int kDecisions = 20000;
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    DecisionGen gen(seed);
    ReferenceStore reference;
    KvStore by_value, shared_a, shared_b;
    for (int i = 0; i < kDecisions / 2; ++i) {
      const Value d = gen.decision();
      const DecodedBatch batch = svc::decode_decision(d);

      const ApplyStats want = reference.apply(d);
      ASSERT_EQ(by_value.apply_decision(d), want) << d;
      ASSERT_EQ(shared_a.apply(batch), want) << d;
      ASSERT_EQ(shared_b.apply(batch), want) << d;

      std::vector<std::pair<std::int64_t, std::int64_t>> ids;
      for (const DecodedBatch::Entry& e : batch.entries) {
        ids.emplace_back(e.cmd.client, e.cmd.seq);
      }
      ASSERT_EQ(ids, raw_ids(d)) << d;
    }
    const std::uint64_t want_fp = Value(reference.data).hash();
    for (const KvStore* store : {&by_value, &shared_a, &shared_b}) {
      EXPECT_EQ(store->applied_total(), reference.applied);
      EXPECT_EQ(store->deduped_total(), reference.deduped);
      EXPECT_EQ(store->garbage_total(), reference.garbage);
      EXPECT_EQ(store->data(), reference.data);
      EXPECT_EQ(store->fingerprint(), want_fp);
    }
    // The stream reaches every outcome.
    EXPECT_GT(reference.applied, 0);
    EXPECT_GT(reference.deduped, 0);
    EXPECT_GT(reference.garbage, 0);
  }
}

TEST(SvcDecodeOnce, EmptyAndScalarShapes) {
  EXPECT_TRUE(svc::decode_decision(Value()).entries.empty());
  EXPECT_TRUE(svc::decode_decision(Value(Value::Array{})).entries.empty());
  const DecodedBatch scalar = svc::decode_decision(Value(123));
  ASSERT_EQ(scalar.entries.size(), 1u);
  EXPECT_TRUE(scalar.entries[0].garbage);

  KvStore store;
  EXPECT_TRUE(store.apply_decision(Value()).empty);
  EXPECT_EQ(store.apply_decision(Value(123)).garbage, 1);
  EXPECT_FALSE(store.apply_decision(Value(123)).empty);
}

// --- clean-era convergence ---------------------------------------------------

Value put(const std::string& key, std::int64_t val, std::int64_t client,
          std::int64_t seq) {
  return Command{key, Value(val), client, seq}.encode();
}

// Instances 0..5; instances 1..4 are the clean range used below.
DecisionLog base_log() {
  DecisionLog log;
  for (std::int64_t k = 0; k <= 5; ++k) {
    log[k] = svc::encode_batch({{"a", Value(k), 0, 2 * k},
                                {"b", Value(10 * k), 1, 2 * k + 1}});
  }
  return log;
}

TEST(SvcCleanEra, IdenticalLogsReplayOnce) {
  const std::vector<DecisionLog> logs(4, base_log());
  const svc::CleanEraCheck check = svc::check_clean_era(logs, 1, 4);
  EXPECT_TRUE(check.converged);
  EXPECT_EQ(check.replays, 1);
}

TEST(SvcCleanEra, DifferingCleanRangeValueBreaksConvergence) {
  std::vector<DecisionLog> logs(3, base_log());
  logs[2][3] = put("c", 999, 5, 0);  // a write no other log makes
  const svc::CleanEraCheck check = svc::check_clean_era(logs, 1, 4);
  EXPECT_FALSE(check.converged);
  EXPECT_EQ(check.replays, 2);
}

TEST(SvcCleanEra, DifferencesOutsideTheCleanRangeStillConverge) {
  std::vector<DecisionLog> logs(3, base_log());
  logs[1][0] = Value("garbage");          // before clean_from
  logs[2][5] = put("a", 999, 0, 100);     // after cutoff
  logs[2][9] = put("z", 1, 7, 0);         // an instance only one log has
  const svc::CleanEraCheck check = svc::check_clean_era(logs, 1, 4);
  EXPECT_TRUE(check.converged);
  EXPECT_EQ(check.replays, 1);
}

TEST(SvcCleanEra, DistinctRangesWithEqualStoresAreReplayedAndConverge) {
  std::vector<DecisionLog> logs(2, base_log());
  // The same writes in the clean range, batched differently: the ranges
  // differ as Values, so both are replayed, and the stores agree.
  const Value batch2 = logs[1][2];
  const Value batch3 = logs[1][3];
  Value::Array merged = batch2.as_array();
  for (const Value& cmd : batch3.as_array()) merged.push_back(cmd);
  logs[1][2] = Value(std::move(merged));
  logs[1][3] = Value();
  const svc::CleanEraCheck check = svc::check_clean_era(logs, 1, 4);
  EXPECT_TRUE(check.converged);
  EXPECT_EQ(check.replays, 2);
}

TEST(SvcCleanEra, EmptyRangeOrNoLogsIsNotConverged) {
  EXPECT_FALSE(svc::check_clean_era({}, 0, 3).converged);
  const std::vector<DecisionLog> logs(2, base_log());
  const svc::CleanEraCheck check = svc::check_clean_era(logs, 4, 3);
  EXPECT_FALSE(check.converged);
  EXPECT_EQ(check.replays, 0);
}

// --- request plane -----------------------------------------------------------

Command write(std::int64_t seq) { return {"k", Value(seq), 0, seq}; }

TEST(SvcRequestPlane, PartialDecideReclaimsOnlyStaleOpenAssignmentsInOrder) {
  svc::RequestPlane plane(/*batch=*/2, /*pipeline_depth=*/100);
  EXPECT_TRUE(plane.drained());
  for (std::int64_t seq = 0; seq < 6; ++seq) plane.submit(write(seq));
  EXPECT_FALSE(plane.drained());
  EXPECT_EQ(plane.proposal(0), svc::encode_batch({write(0), write(1)}));
  EXPECT_EQ(plane.proposal(1), svc::encode_batch({write(2), write(3)}));
  EXPECT_EQ(plane.proposal(2), svc::encode_batch({write(4), write(5)}));
  EXPECT_EQ(plane.pending_depth(), 0);
  EXPECT_FALSE(plane.drained());  // three assignments still open

  plane.on_decided(1);
  EXPECT_FALSE(plane.drained());
  // Nothing is `gap` behind the decided log yet.
  EXPECT_EQ(plane.reclaim(/*max_decided=*/3, /*gap=*/4), 0);
  // Instances 0 and 2 are stale and open; 1 is decided.  Their commands go
  // back to the front of the queue in submission order.
  EXPECT_EQ(plane.reclaim(/*max_decided=*/6, /*gap=*/4), 4);
  EXPECT_EQ(plane.retransmitted(), 4);
  EXPECT_EQ(plane.pending_depth(), 4);
  EXPECT_FALSE(plane.drained());
  // A reclaimed assignment is never reclaimed twice, and a late decide of
  // it changes nothing.
  EXPECT_EQ(plane.reclaim(/*max_decided=*/6, /*gap=*/4), 0);
  plane.on_decided(0);
  EXPECT_EQ(plane.pending_depth(), 4);

  // Memoized proposals are unchanged; the re-queued commands fill new
  // instances in their original order.
  EXPECT_EQ(plane.proposal(0), svc::encode_batch({write(0), write(1)}));
  EXPECT_EQ(plane.proposal(7), svc::encode_batch({write(0), write(1)}));
  EXPECT_EQ(plane.proposal(8), svc::encode_batch({write(4), write(5)}));
  EXPECT_EQ(plane.pending_depth(), 0);
  EXPECT_FALSE(plane.drained());
  plane.on_decided(8);
  EXPECT_FALSE(plane.drained());
  plane.on_decided(7);
  EXPECT_TRUE(plane.drained());

  // An instance decided before anyone asked for its proposal, with nothing
  // queued, proposes the empty batch and leaves the plane drained.
  plane.on_decided(9);
  EXPECT_TRUE(plane.proposal(9).is_null());
  EXPECT_TRUE(plane.drained());
  EXPECT_NE(plane.find_proposal(2), nullptr);
  EXPECT_EQ(plane.find_proposal(42), nullptr);
  EXPECT_EQ(plane.retransmitted(), 4);
}

}  // namespace
}  // namespace ftss
