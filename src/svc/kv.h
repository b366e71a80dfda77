// The replicated key-value state machine: command encoding and the store
// every replica materializes from the decided command log.
//
// decode_decision() is THE decoding path for decided values: apply_decision
// is "apply decode_decision(v)", the serving layer applies the same decoded
// batch at every replica, and the batching-transparency oracle and
// examples/replicated_kv.cpp go through the same code, so the
// garbage-command-skip behavior cannot silently diverge between them
// (tests/services_test.cc pins the grid).
//
// Decision shapes (what a consensus instance can decide):
//   * a single command map  — batch size 1, exactly the shape the original
//     replicated_kv example proposed one-command-per-instance;
//   * an array of command maps — a batch, applied in array order;
//   * null / empty array — an empty batch (pipelining backpressure
//     heartbeat), applies nothing;
//   * anything else — garbage from a corrupted era, skipped and counted.
//
// Commands carry an optional (client, seq) identity.  The store deduplicates
// by it: a command whose seq is not greater than the client's last applied
// seq is skipped.  This makes the request plane's at-least-once retransmit
// (instances lost to systemic corruption are re-proposed) safe: re-applying
// an already-applied command cannot clobber a later write to the same key.
//
// Decode once, serve from a hashed store.  A decided value is decoded into
// a DecodedBatch of typed commands once, and KvService applies that one
// batch at every replica whose log holds the agreed value.  The store keeps
// its contents in a hash map and its per-client dedup floor in a flat
// open-addressing table (one probe per identified command, at 10^5 clients);
// only data(), to_value() and fingerprint() sort, when they are called, so
// the content hash is exactly the hash of the sorted Value map.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/flat_map.h"
#include "util/value.h"

namespace ftss::svc {

struct Command {
  std::string key;
  Value val;             // null means delete
  std::int64_t client = -1;  // <0: anonymous (no dedup), the example's shape
  std::int64_t seq = -1;

  Value encode() const;
};

// Defensive decode of one command map.  nullopt (garbage) when `v` is not a
// map, its "key" is not a string, or it has no "val" entry at all.  A null
// "val" is a valid delete.  Missing/non-int client or seq decode as -1.
std::optional<Command> decode_command(const Value& v);

// Encode a batch for proposal.  Size 1 encodes the bare command map —
// byte-identical to the original one-command-per-instance example — and
// size 0 encodes null (the empty heartbeat batch).
Value encode_batch(const std::vector<Command>& commands);

// One decided value as typed commands, in application order.  Undecodable
// entries keep their place as garbage (skipped and counted on apply); their
// (client, seq) is still the tolerant read of the raw entry, so request
// completion sees exactly the identity the raw value carries.  No entries
// means the empty batch.
struct DecodedBatch {
  struct Entry {
    Command cmd;           // key and val are meaningful only when !garbage
    bool garbage = false;
  };
  std::vector<Entry> entries;
};

// The single decoder: null and [] decode to no entries, an array to one
// entry per element, anything else to one entry.
DecodedBatch decode_decision(const Value& decision);

// What applying one decided value did.
struct ApplyStats {
  int applied = 0;     // commands that mutated (or deleted from) the store
  int deduped = 0;     // skipped: (client, seq) already applied
  int garbage = 0;     // skipped: undecodable command (corrupted era)
  bool empty = false;  // the decision was an empty batch

  friend bool operator==(const ApplyStats&, const ApplyStats&) = default;
};

class KvStore {
 public:
  // Applies one decoded decision in order.  Totals accumulate on the
  // store; the return value covers only this decision.
  ApplyStats apply(const DecodedBatch& batch);
  // apply(decode_decision(decision)).
  ApplyStats apply_decision(const Value& decision);

  // The contents as a sorted map (built on each call).
  Value::Map data() const;
  std::size_t size() const { return data_.size(); }
  // Null when absent.
  const Value& get(std::string_view key) const;

  std::int64_t applied_total() const { return applied_total_; }
  std::int64_t deduped_total() const { return deduped_total_; }
  std::int64_t garbage_total() const { return garbage_total_; }

  // Stable content hash of the materialized map (dedup bookkeeping
  // excluded: two stores with identical contents fingerprint equal).
  std::uint64_t fingerprint() const;
  Value to_value() const;

  friend bool operator==(const KvStore& a, const KvStore& b) {
    return a.data_ == b.data_;
  }

 private:
  // Transparent hash: get() and apply probe with a string_view.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };

  void apply_one(const DecodedBatch::Entry& entry, ApplyStats& stats);

  std::unordered_map<std::string, Value, KeyHash, std::equal_to<>> data_;
  FlatMap64 last_seq_;  // dedup floor: client → last applied seq
  std::int64_t applied_total_ = 0;
  std::int64_t deduped_total_ = 0;
  std::int64_t garbage_total_ = 0;
};

}  // namespace ftss::svc
