#include "svc/kv.h"

#include <vector>

namespace ftss::svc {

Value Command::encode() const {
  Value v;
  v["key"] = Value(key);
  v["val"] = val;
  if (client >= 0) {
    v["client"] = Value(client);
    v["seq"] = Value(seq);
  }
  return v;
}

std::optional<Command> decode_command(const Value& v) {
  if (!v.is_map()) return std::nullopt;
  const Value& key = v.at("key");
  if (!key.is_string()) return std::nullopt;  // the example's garbage skip
  if (!v.contains("val")) return std::nullopt;
  Command cmd;
  cmd.key = key.as_string();
  cmd.val = v.at("val");
  cmd.client = v.at("client").int_or(-1);
  cmd.seq = v.at("seq").int_or(-1);
  return cmd;
}

Value encode_batch(const std::vector<Command>& commands) {
  if (commands.empty()) return Value();
  if (commands.size() == 1) return commands.front().encode();
  Value::Array batch;
  batch.reserve(commands.size());
  for (const Command& cmd : commands) batch.push_back(cmd.encode());
  return Value(std::move(batch));
}

namespace {

DecodedBatch::Entry decode_entry(const Value& v) {
  DecodedBatch::Entry entry;
  if (std::optional<Command> cmd = decode_command(v)) {
    entry.cmd = std::move(*cmd);
  } else {
    entry.garbage = true;
    entry.cmd.client = v.at("client").int_or(-1);
    entry.cmd.seq = v.at("seq").int_or(-1);
  }
  return entry;
}

}  // namespace

DecodedBatch decode_decision(const Value& decision) {
  DecodedBatch batch;
  if (decision.is_null()) return batch;
  if (decision.is_array()) {
    const Value::Array& items = decision.as_array();
    batch.entries.reserve(items.size());
    for (const Value& cmd : items) batch.entries.push_back(decode_entry(cmd));
    return batch;
  }
  batch.entries.push_back(decode_entry(decision));
  return batch;
}

const Value& KvStore::get(std::string_view key) const {
  static const Value null;
  auto it = data_.find(key);
  return it == data_.end() ? null : it->second;
}

void KvStore::apply_one(const DecodedBatch::Entry& entry, ApplyStats& stats) {
  if (entry.garbage) {
    ++stats.garbage;
    ++garbage_total_;
    return;
  }
  const Command& cmd = entry.cmd;
  if (cmd.client >= 0) {
    auto [last, inserted] = last_seq_.try_emplace(cmd.client, cmd.seq);
    if (!inserted) {
      if (cmd.seq <= *last) {
        ++stats.deduped;
        ++deduped_total_;
        return;
      }
      *last = cmd.seq;
    }
  }
  if (cmd.val.is_null()) {
    data_.erase(cmd.key);
  } else {
    data_.insert_or_assign(cmd.key, cmd.val);
  }
  ++stats.applied;
  ++applied_total_;
}

ApplyStats KvStore::apply(const DecodedBatch& batch) {
  ApplyStats stats;
  stats.empty = batch.entries.empty();
  for (const DecodedBatch::Entry& entry : batch.entries) {
    apply_one(entry, stats);
  }
  return stats;
}

ApplyStats KvStore::apply_decision(const Value& decision) {
  return apply(decode_decision(decision));
}

Value::Map KvStore::data() const { return Value::Map(data_.begin(), data_.end()); }

std::uint64_t KvStore::fingerprint() const { return to_value().hash(); }

Value KvStore::to_value() const { return Value(data()); }

}  // namespace ftss::svc
