// libFuzzer harness for the serving layer's decision decoder.
//
// Bytes parse to a Value (the decided value a corrupted era may leave in a
// replica's log) and go through both store entry points: apply_decision on
// the raw value, and one decode_decision batch applied at two stores, as
// KvService shares it across replicas.  Properties: nothing throws; every
// path reports the same ApplyStats and ends in the same totals and
// fingerprint; and each decoded entry carries the raw entry's tolerant
// (client, seq).  The value is applied twice, so the second pass exercises
// the (client, seq) dedup floor.  The seeded ctest twin is
// tests/svc_store_test.cc (SvcDecodeOnce).
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "svc/kv.h"
#include "util/value.h"

namespace {

using ftss::Value;
using ftss::svc::DecodedBatch;
using ftss::svc::KvStore;

void check_ids(const Value& decision, const DecodedBatch& batch) {
  const auto same = [](const Value& raw, const DecodedBatch::Entry& e) {
    return e.cmd.client == raw.at("client").int_or(-1) &&
           e.cmd.seq == raw.at("seq").int_or(-1);
  };
  if (decision.is_null()) {
    if (!batch.entries.empty()) __builtin_trap();
  } else if (decision.is_array()) {
    const Value::Array& items = decision.as_array();
    if (items.size() != batch.entries.size()) __builtin_trap();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!same(items[i], batch.entries[i])) __builtin_trap();
    }
  } else if (batch.entries.size() != 1 || !same(decision, batch.entries[0])) {
    __builtin_trap();
  }
}

void run(const Value& decision) {
  const DecodedBatch batch = ftss::svc::decode_decision(decision);
  check_ids(decision, batch);
  KvStore by_value, shared_a, shared_b;
  for (int pass = 0; pass < 2; ++pass) {
    const auto want = by_value.apply_decision(decision);
    if (!(shared_a.apply(batch) == want)) __builtin_trap();
    if (!(shared_b.apply(batch) == want)) __builtin_trap();
  }
  for (const KvStore* store : {&shared_a, &shared_b}) {
    if (store->applied_total() != by_value.applied_total() ||
        store->deduped_total() != by_value.deduped_total() ||
        store->garbage_total() != by_value.garbage_total() ||
        store->fingerprint() != by_value.fingerprint() ||
        !(*store == by_value)) {
      __builtin_trap();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  try {
    const auto parsed = Value::parse(text);
    if (parsed) run(*parsed);
  } catch (...) {
    __builtin_trap();  // the decode path must not throw on any value
  }
  return 0;
}
