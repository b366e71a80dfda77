// Wire codec tests (ctest label: wire).
//
// Four layers:
//   1. golden byte-layout vectors — the exact encoding of representative
//      values and one whole frame is pinned byte for byte, so any codec
//      change that would break cross-version decoding fails here first;
//   2. round-trip properties over a depth/width grid of generated trees,
//      integer edge cases, and interning hit/miss behavior (strings and
//      COW-shared nodes);
//   3. typed rejection of malformed input: every WireError is produced by a
//      hand-crafted buffer, and the decoders' canonical-form rules
//      (minimal varints, ascending map keys) are checked against
//      Value::parse's behavior where the two overlap (duplicate keys);
//   4. the frame integrity blanket: for a corpus of frames, EVERY single
//      bit flip anywhere in the encoded frame must be rejected — the
//      hash-covers-header-and-body design makes this provable, and this
//      test is the proof by enumeration.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/value.h"
#include "wire/codec.h"
#include "wire/frame.h"

namespace ftss {
namespace {

using wire::decode_frame;
using wire::decode_frame_exact;
using wire::decode_value;
using wire::encode_frame;
using wire::encode_value;
using wire::FrameType;
using wire::WireError;

std::vector<std::uint8_t> encoded(const Value& v) {
  std::vector<std::uint8_t> out;
  encode_value(v, out);
  return out;
}

Value decoded_ok(const std::vector<std::uint8_t>& bytes) {
  const wire::ValueDecodeResult r = decode_value(bytes.data(), bytes.size());
  EXPECT_EQ(r.error, WireError::kOk) << wire_error_name(r.error);
  EXPECT_EQ(r.consumed, bytes.size());
  return r.value;
}

WireError decode_error(const std::vector<std::uint8_t>& bytes) {
  return decode_value(bytes.data(), bytes.size()).error;
}

void expect_round_trip(const Value& v) {
  const std::vector<std::uint8_t> bytes = encoded(v);
  EXPECT_EQ(decoded_ok(bytes), v);
  // Encoding is a pure function of the tree: re-encoding the decoded value
  // reproduces the bytes (the decoder rebuilds the same sharing structure).
  EXPECT_EQ(encoded(decoded_ok(bytes)), bytes);
}

// --- Layer 1: golden byte layouts ---------------------------------------

TEST(WireGolden, Scalars) {
  EXPECT_EQ(encoded(Value()), (std::vector<std::uint8_t>{0}));
  EXPECT_EQ(encoded(Value(false)), (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(encoded(Value(true)), (std::vector<std::uint8_t>{2}));
  EXPECT_EQ(encoded(Value(0)), (std::vector<std::uint8_t>{3, 0}));
  EXPECT_EQ(encoded(Value(1)), (std::vector<std::uint8_t>{3, 2}));    // zigzag
  EXPECT_EQ(encoded(Value(-1)), (std::vector<std::uint8_t>{3, 1}));
  EXPECT_EQ(encoded(Value(63)), (std::vector<std::uint8_t>{3, 126}));
  EXPECT_EQ(encoded(Value(64)), (std::vector<std::uint8_t>{3, 0x80, 1}));
}

TEST(WireGolden, StringsInternAcrossKeysAndValues) {
  EXPECT_EQ(encoded(Value("hi")),
            (std::vector<std::uint8_t>{4, 2, 'h', 'i'}));
  // ["a", "a"]: def then one-byte... two-byte ref.
  EXPECT_EQ(encoded(Value::array({Value("a"), Value("a")})),
            (std::vector<std::uint8_t>{6, 2, 4, 1, 'a', 5, 0}));
  // {"a": 1, "b": "a"}: the value "a" back-references the KEY "a" — keys and
  // string values share one intern table.
  Value m;
  m["a"] = Value(1);
  m["b"] = Value("a");
  EXPECT_EQ(encoded(m), (std::vector<std::uint8_t>{7, 2, 4, 1, 'a', 3, 2, 4,
                                                   1, 'b', 5, 0}));
}

TEST(WireGolden, SharedNodesCollapseToRefs) {
  Value inner;
  inner["x"] = Value(1);
  Value arr = Value::array({inner, inner});  // one COW node, twice
  // Node ids are assigned post-order: the map completes as node 0; its
  // second occurrence is a two-byte ref instead of re-encoded bytes.
  EXPECT_EQ(encoded(arr),
            (std::vector<std::uint8_t>{6, 2, 7, 1, 4, 1, 'x', 3, 2, 8, 0}));
}

TEST(WireGolden, FrameLayout) {
  std::vector<std::uint8_t> frame;
  encode_frame(FrameType::kMessage, Value(7), frame);
  ASSERT_EQ(frame.size(), wire::kFrameHeaderSize + 2);
  const std::vector<std::uint8_t> head(frame.begin(), frame.begin() + 12);
  EXPECT_EQ(head, (std::vector<std::uint8_t>{'F', 'T', 'S', 'W',  // magic
                                             1,                   // version
                                             4,     // type: kMessage
                                             0, 0,  // flags
                                             2, 0, 0, 0}));  // body length
  EXPECT_EQ(frame[20], 3);   // int tag
  EXPECT_EQ(frame[21], 14);  // zigzag(7)
  // The stored hash equals an independently computed FNV-1a over header
  // bytes [4, 12) and the body.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::size_t i : {4, 5, 6, 7, 8, 9, 10, 11, 20, 21}) {
    h ^= frame[i];
    h *= 0x100000001b3ULL;
  }
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(frame[12 + i]) << (8 * i);
  }
  EXPECT_EQ(stored, h);

  const wire::FrameDecodeResult r = decode_frame_exact(frame.data(),
                                                       frame.size());
  ASSERT_EQ(r.error, WireError::kOk);
  EXPECT_EQ(r.frame.type, FrameType::kMessage);
  EXPECT_EQ(r.frame.body, Value(7));
}

// --- Layer 2: round-trip properties -------------------------------------

TEST(WireRoundTrip, IntegerEdges) {
  for (const std::int64_t i :
       {std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::min() + 1, std::int64_t{-65},
        std::int64_t{-64}, std::int64_t{-1}, std::int64_t{0}, std::int64_t{1},
        std::int64_t{63}, std::int64_t{64}, std::int64_t{1} << 32,
        std::numeric_limits<std::int64_t>::max() - 1,
        std::numeric_limits<std::int64_t>::max()}) {
    expect_round_trip(Value(static_cast<long long>(i)));
  }
  EXPECT_EQ(wire::zigzag(std::numeric_limits<std::int64_t>::min()),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(wire::unzigzag(wire::zigzag(-12345)), -12345);
}

TEST(WireRoundTrip, EmptyContainersAndStrings) {
  expect_round_trip(Value(Value::Array{}));
  expect_round_trip(Value(Value::Map{}));
  expect_round_trip(Value(""));
  expect_round_trip(Value(std::string("\x00\x01\xff\x7f", 4)));  // binary-safe
}

// A deterministic tree with `width` children per level and `depth` levels,
// cycling through every value kind, with deliberately repeated strings.
Value grid_tree(int depth, int width, int salt) {
  if (depth <= 0) {
    switch (salt % 5) {
      case 0: return Value();
      case 1: return Value(salt % 2 == 0);
      case 2: return Value(salt * 2654435761LL);
      case 3: return Value(std::string("leaf-").append(std::to_string(salt % 3)));
      default: return Value(Value::Array{});
    }
  }
  if (salt % 2 == 0) {
    Value::Array items;
    for (int i = 0; i < width; ++i) {
      items.push_back(grid_tree(depth - 1, width, salt * 7 + i));
    }
    return Value(std::move(items));
  }
  Value m;
  for (int i = 0; i < width; ++i) {
    m[std::string("k").append(std::to_string(i))] = grid_tree(depth - 1, width, salt * 5 + i);
  }
  return m;
}

TEST(WireRoundTrip, DepthWidthGrid) {
  for (const int depth : {0, 1, 2, 3, 5}) {
    for (const int width : {0, 1, 2, 5}) {
      for (int salt = 0; salt < 7; ++salt) {
        expect_round_trip(grid_tree(depth, width, salt));
      }
    }
  }
}

TEST(WireRoundTrip, SharedSubtreesDecodeShared) {
  Value shared = grid_tree(3, 3, 4);
  Value doc;
  doc["a"] = shared;
  doc["b"] = shared;
  doc["c"] = Value::array({shared, Value(1)});
  const std::vector<std::uint8_t> bytes = encoded(doc);
  const Value back = decoded_ok(bytes);
  EXPECT_EQ(back, doc);
  // The decoder reconstructs the sharing, not just the content: both
  // occurrences are one COW node, so re-encoding stays compact.
  EXPECT_EQ(back.at("a").node_identity(), back.at("b").node_identity());

  // Interning pays: the same content with sharing severed (distinct nodes,
  // distinct string buffers) must encode strictly larger.
  Value severed;
  severed["a"] = grid_tree(3, 3, 4);
  severed["b"] = grid_tree(3, 3, 4);
  severed["c"] = Value::array({grid_tree(3, 3, 4), Value(1)});
  std::vector<std::uint8_t> severed_bytes;
  encode_value(severed, severed_bytes);
  EXPECT_LT(bytes.size(), severed_bytes.size());
}

TEST(WireRoundTrip, InternMissesStayIndependent) {
  // Equal-content strings in *different* buffers still intern (the table is
  // keyed by content), but distinct content never aliases.
  Value v = Value::array({Value(std::string("dup")), Value(std::string("dup")),
                          Value("dupx")});
  expect_round_trip(v);
  const std::vector<std::uint8_t> bytes = encoded(v);
  // "dup" defined once (5 bytes), referenced once (2 bytes), "dupx" defined.
  EXPECT_EQ(bytes.size(), 2u + 5u + 2u + 6u);
}

TEST(WireVarint, MinimalFormRoundTrips) {
  for (const std::uint64_t x :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
        std::uint64_t{1} << 56, std::numeric_limits<std::uint64_t>::max()}) {
    std::vector<std::uint8_t> bytes;
    wire::put_varint(bytes, x);
    std::size_t pos = 0;
    std::uint64_t back = 0;
    ASSERT_EQ(wire::get_varint(bytes.data(), bytes.size(), &pos, &back),
              WireError::kOk);
    EXPECT_EQ(back, x);
    EXPECT_EQ(pos, bytes.size());
  }
}

// --- Layer 3: typed rejection of malformed input ------------------------

TEST(WireReject, NonMinimalVarint) {
  // 0x80 0x00 encodes 0 in two bytes; only the one-byte form is accepted.
  EXPECT_EQ(decode_error({3, 0x80, 0x00}), WireError::kVarintTooLong);
  // Ten bytes with a high bit still set on the last: overflow.
  EXPECT_EQ(decode_error({3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                          0xff, 0xff}),
            WireError::kVarintTooLong);
}

TEST(WireReject, TruncatedInputs) {
  EXPECT_EQ(decode_error({}), WireError::kTruncated);
  EXPECT_EQ(decode_error({3}), WireError::kTruncated);          // int, no body
  EXPECT_EQ(decode_error({4, 5, 'a'}), WireError::kTruncated);  // short string
  EXPECT_EQ(decode_error({6, 2, 0}), WireError::kTruncated);    // short array
  // Every proper prefix of a valid encoding is truncated or otherwise bad,
  // never silently accepted.
  const std::vector<std::uint8_t> bytes = encoded(grid_tree(3, 2, 1));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const wire::ValueDecodeResult r = decode_value(bytes.data(), cut);
    EXPECT_NE(r.error, WireError::kOk) << "prefix length " << cut;
  }
}

TEST(WireReject, BadTagsAndRefs) {
  EXPECT_EQ(decode_error({9}), WireError::kBadTag);
  EXPECT_EQ(decode_error({0xff}), WireError::kBadTag);
  EXPECT_EQ(decode_error({5, 0}), WireError::kBadStringRef);
  EXPECT_EQ(decode_error({8, 0}), WireError::kBadNodeRef);
  // A node cannot reference itself: ids are assigned post-order, so inside
  // array 0 the id 0 does not exist yet.
  EXPECT_EQ(decode_error({6, 1, 8, 0}), WireError::kBadNodeRef);
  // Map keys must be strings.
  EXPECT_EQ(decode_error({7, 1, 3, 0, 0}), WireError::kBadTag);
}

TEST(WireReject, DepthCap) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 300; ++i) {
    bytes.push_back(6);  // array...
    bytes.push_back(1);  // ...of one element
  }
  bytes.push_back(0);  // null at the bottom
  EXPECT_EQ(decode_error(bytes), WireError::kDepthExceeded);
}

TEST(WireReject, DuplicateAndMisorderedMapKeys) {
  // {"a": 0, "a": 1} via a key back-reference.
  EXPECT_EQ(decode_error({7, 2, 4, 1, 'a', 3, 0, 5, 0, 3, 2}),
            WireError::kDuplicateMapKey);
  // {"b": 0, "a": 0}: non-canonical order.
  EXPECT_EQ(decode_error({7, 2, 4, 1, 'b', 3, 0, 4, 1, 'a', 3, 0}),
            WireError::kMapKeyOrder);
}

// The two adversary-facing decoders must agree on duplicate keys: the JSON
// parser may not quietly last-wins what the binary decoder rejects.
TEST(WireReject, DuplicateKeyParityWithValueParse) {
  EXPECT_FALSE(Value::parse(R"({"a":1,"a":2})").has_value());
  EXPECT_FALSE(Value::parse(R"({"x":{"k":1,"k":1}})").has_value());
  EXPECT_TRUE(Value::parse(R"({"a":1,"b":2})").has_value());
  EXPECT_EQ(decode_error({7, 2, 4, 1, 'a', 3, 0, 5, 0, 3, 2}),
            WireError::kDuplicateMapKey);
}

TEST(WireFrameReject, HeaderFieldErrors) {
  std::vector<std::uint8_t> frame;
  encode_frame(FrameType::kInit, Value(1), frame);

  auto mangled = [&frame](std::size_t i, std::uint8_t b) {
    std::vector<std::uint8_t> copy = frame;
    copy[i] = b;
    return decode_frame(copy.data(), copy.size()).error;
  };
  EXPECT_EQ(mangled(0, 'X'), WireError::kBadMagic);
  EXPECT_EQ(mangled(4, 99), WireError::kBadVersion);
  EXPECT_EQ(mangled(5, 0), WireError::kBadFrameType);
  EXPECT_EQ(mangled(5, 200), WireError::kBadFrameType);
  EXPECT_EQ(mangled(6, 1), WireError::kBadFlags);
  EXPECT_EQ(mangled(11, 0x70), WireError::kOversized);  // length beyond cap

  EXPECT_EQ(decode_frame(frame.data(), 10).error, WireError::kTruncated);
  EXPECT_EQ(decode_frame(frame.data(), frame.size() - 1).error,
            WireError::kTruncated);

  // decode_frame tolerates trailing bytes (stream framing);
  // decode_frame_exact does not (re-wrapped inner frames).
  std::vector<std::uint8_t> extended = frame;
  extended.push_back(0);
  EXPECT_EQ(decode_frame(extended.data(), extended.size()).error,
            WireError::kOk);
  EXPECT_EQ(decode_frame_exact(extended.data(), extended.size()).error,
            WireError::kTrailingBytes);
}

TEST(WireFrameReject, BodyMustBeExactlyOneValue) {
  // Hand-build a frame whose body has trailing garbage after the root value,
  // with a correct hash — only kTrailingBytes can catch it.
  std::vector<std::uint8_t> frame;
  encode_frame(FrameType::kInit, Value(1), frame);
  frame.push_back(0);  // extra body byte
  frame[8] = static_cast<std::uint8_t>(frame.size() - wire::kFrameHeaderSize);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 4; i < 12; ++i) {
    h ^= frame[i];
    h *= 0x100000001b3ULL;
  }
  for (std::size_t i = wire::kFrameHeaderSize; i < frame.size(); ++i) {
    h ^= frame[i];
    h *= 0x100000001b3ULL;
  }
  for (int i = 0; i < 8; ++i) {
    frame[12 + i] = static_cast<std::uint8_t>(h >> (8 * i));
  }
  EXPECT_EQ(decode_frame(frame.data(), frame.size()).error,
            WireError::kTrailingBytes);
}

// --- Layer 4: the single-bit-flip blanket -------------------------------

TEST(WireFrameIntegrity, EverySingleBitFlipIsRejected) {
  std::vector<Value> corpus;
  corpus.push_back(Value());
  corpus.push_back(Value(7));
  corpus.push_back(Value("payload"));
  corpus.push_back(grid_tree(3, 3, 2));
  {
    Value m;
    m["s"] = Value(1);
    m["d"] = Value(2);
    m["r"] = Value(9);
    m["b"] = grid_tree(2, 2, 5);
    corpus.push_back(std::move(m));  // a realistic kMessage body
  }

  for (std::size_t c = 0; c < corpus.size(); ++c) {
    std::vector<std::uint8_t> frame;
    encode_frame(FrameType::kMessage, corpus[c], frame);
    ASSERT_EQ(decode_frame_exact(frame.data(), frame.size()).error,
              WireError::kOk);
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
      frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      const wire::FrameDecodeResult r =
          decode_frame_exact(frame.data(), frame.size());
      EXPECT_NE(r.error, WireError::kOk)
          << "corpus " << c << ": flip of bit " << bit << " went undetected";
      frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
}

}  // namespace
}  // namespace ftss
