// Document model, JSON codec and binary wire codec tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>

#include "common/hex.hpp"
#include "common/status.hpp"
#include "core/cloud_node.hpp"
#include "core/wire.hpp"
#include "doc/binary_codec.hpp"
#include "doc/json.hpp"
#include "doc/value.hpp"

namespace datablinder::doc {
namespace {

TEST(ValueTest, TypeAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(true).as_bool(), true);
  EXPECT_EQ(Value(std::int64_t{42}).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Value(std::int64_t{3}).as_double(), 3.0);  // widening
  EXPECT_EQ(Value("hi").as_string(), "hi");
  EXPECT_EQ(Value(Bytes{1, 2}).as_binary(), (Bytes{1, 2}));
  EXPECT_THROW(Value("hi").as_int(), Error);
  EXPECT_THROW(Value(std::int64_t{1}).as_string(), Error);
}

TEST(ValueTest, ScalarBytesAreTypeTagged) {
  // int 5 and string "5" must never produce the same keyword/ciphertext.
  EXPECT_NE(Value(std::int64_t{5}).scalar_bytes(), Value("5").scalar_bytes());
  EXPECT_NE(Value(true).scalar_bytes(), Value(std::int64_t{1}).scalar_bytes());
  EXPECT_THROW(Value(Array{}).scalar_bytes(), Error);
  EXPECT_THROW(Value(Object{}).scalar_bytes(), Error);
}

TEST(DocumentTest, FieldAccess) {
  Document d;
  d.id = "x";
  d.set("a", Value(std::int64_t{1}));
  EXPECT_TRUE(d.has("a"));
  EXPECT_FALSE(d.has("b"));
  EXPECT_EQ(d.at("a").as_int(), 1);
  EXPECT_THROW(d.at("b"), Error);
}

// --- Object: a sorted flat vector with std::map's interface ------------------

TEST(ObjectTest, IteratesInMapOrderAndComparesLikeAMap) {
  const std::vector<std::string> keys = {"value", "id", "", "Code", "code", "a", "ab",
                                         "aa", "b", "issued", "z", "\x01"};
  std::map<std::string, Value> want;
  Object forward;
  Object backward;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    want[keys[i]] = Value(static_cast<std::int64_t>(i));
    forward[keys[i]] = Value(static_cast<std::int64_t>(i));
    const std::size_t j = keys.size() - 1 - i;
    backward.emplace(keys[j], Value(static_cast<std::int64_t>(j)));
  }
  ASSERT_EQ(forward.size(), want.size());
  EXPECT_TRUE(std::equal(forward.begin(), forward.end(), want.begin(), want.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first && a.second == b.second;
                         }));
  EXPECT_EQ(forward, backward);  // insertion order does not matter
  backward["a"] = Value("other");
  EXPECT_NE(forward, backward);
  EXPECT_EQ(forward.count("ab"), 1u);
  EXPECT_EQ(forward.count("abc"), 0u);
  EXPECT_EQ(forward.find("missing"), forward.end());
  EXPECT_THROW(forward.at("missing"), std::out_of_range);
}

TEST(ObjectTest, DuplicateKeysKeepWhatTheMapKept) {
  // An initializer list keeps the first of two equal keys, like std::map's.
  const Object listed{{"k", Value(1)}, {"a", Value(2)}, {"k", Value(3)}};
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed.at("k").as_int(), 1);
  EXPECT_EQ(listed.begin()->first, "a");
  // emplace leaves an existing member alone; operator[] overwrites it.
  Object o;
  EXPECT_TRUE(o.emplace("k", Value(1)).second);
  EXPECT_FALSE(o.emplace("k", Value(2)).second);
  EXPECT_EQ(o.at("k").as_int(), 1);
  o["k"] = Value(3);
  EXPECT_EQ(o.at("k").as_int(), 3);
  EXPECT_TRUE(o["fresh"].is_null());
  // Decoding keeps the last of two equal keys, and sorts keys that arrive
  // out of order: {"b": 1, "a": 2, "b": 3}.
  const Bytes encoded = {8, 0, 0, 0, 3,                    // object, 3 members
                         0, 0, 0, 1, 'b', 3, 0, 0, 0, 0, 0, 0, 0, 1,
                         0, 0, 0, 1, 'a', 3, 0, 0, 0, 0, 0, 0, 0, 2,
                         0, 0, 0, 1, 'b', 3, 0, 0, 0, 0, 0, 0, 0, 3};
  const Value v = decode_value(encoded);
  EXPECT_EQ(v, Value(Object{{"a", Value(2)}, {"b", Value(3)}}));
  // JSON parsing keeps the last too.
  EXPECT_EQ(parse_json(R"({"k":1,"k":2})").as_object().at("k").as_int(), 2);
}

TEST(ObjectTest, EraseByKeyAndByPosition) {
  Object o{{"a", Value(1)}, {"b", Value(2)}, {"c", Value(3)}};
  EXPECT_EQ(o.erase("b"), 1u);
  EXPECT_EQ(o.erase("b"), 0u);
  EXPECT_FALSE(o.count("b"));
  auto next = o.erase(o.find("a"));
  ASSERT_NE(next, o.end());
  EXPECT_EQ(next->first, "c");
  EXPECT_EQ(o, (Object{{"c", Value(3)}}));
  o.erase(o.begin());
  EXPECT_TRUE(o.empty());
}

TEST(JsonTest, SerializeBasics) {
  Object obj;
  obj["s"] = Value("he\"llo\n");
  obj["i"] = Value(std::int64_t{-7});
  obj["d"] = Value(1.5);
  obj["b"] = Value(true);
  obj["n"] = Value(nullptr);
  obj["arr"] = Value(Array{Value(std::int64_t{1}), Value("x")});
  EXPECT_EQ(to_json(Value(obj)),
            R"({"arr":[1,"x"],"b":true,"d":1.5,"i":-7,"n":null,"s":"he\"llo\n"})");
}

TEST(JsonTest, ParseRoundTrip) {
  const char* text =
      R"({"arr":[1,"x",null,true],"bin":{"$bin":"0a0b"},"nested":{"k":2.25},"neg":-12})";
  const Value v = parse_json(text);
  EXPECT_EQ(v.as_object().at("neg").as_int(), -12);
  EXPECT_EQ(v.as_object().at("bin").as_binary(), (Bytes{0x0a, 0x0b}));
  EXPECT_DOUBLE_EQ(v.as_object().at("nested").as_object().at("k").as_double(), 2.25);
  // Round trip through text again.
  EXPECT_EQ(parse_json(to_json(v)), v);
}

TEST(JsonTest, ParseEscapes) {
  const Value v = parse_json(R"("aA\t\\\"")");
  EXPECT_EQ(v.as_string(), "aA\t\\\"");
}

TEST(JsonTest, ParseErrors) {
  EXPECT_THROW(parse_json(""), Error);
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("[1,]"), Error);
  EXPECT_THROW(parse_json("{\"a\" 1}"), Error);
  EXPECT_THROW(parse_json("tru"), Error);
  EXPECT_THROW(parse_json("12 34"), Error);
  EXPECT_THROW(parse_json("\"unterminated"), Error);
  EXPECT_THROW(parse_json("+1"), Error);  // a sign with nothing before it
  EXPECT_THROW(parse_json(R"({"$bin":"0g"})"), Error);  // not hex: typed error
}

TEST(JsonTest, DeepNestingIsMalformedNotAStackOverflow) {
  // A million-deep recursive descent would overflow an 8 MB stack; the
  // parser stops at 512 levels with its usual malformed-input error.
  EXPECT_NO_THROW(parse_json(std::string(512, '[') + std::string(512, ']')));
  EXPECT_THROW(parse_json(std::string(513, '[') + std::string(513, ']')), Error);
  EXPECT_THROW(parse_json(std::string(1000000, '[')), Error);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(parse_json(objects), Error);
}

TEST(JsonTest, DocumentRoundTrip) {
  Document d;
  d.id = "f001";
  d.set("status", Value("final"));
  d.set("value", Value(6.3));
  const Document back = parse_document_json(to_json(d));
  EXPECT_EQ(back, d);
}

TEST(BinaryCodecTest, AllTypesRoundTrip) {
  Object obj;
  obj["null"] = Value(nullptr);
  obj["t"] = Value(true);
  obj["f"] = Value(false);
  obj["i"] = Value(std::int64_t{-1234567890123});
  obj["d"] = Value(3.14159);
  obj["s"] = Value(std::string("hello\0world", 11));  // embedded NUL survives
  obj["bin"] = Value(Bytes{0, 255, 127});
  obj["arr"] = Value(Array{Value(std::int64_t{1}), Value(Array{}), Value(Object{})});
  const Value v(obj);
  EXPECT_EQ(decode_value(encode_value(v)), v);
}

TEST(BinaryCodecTest, DocumentRoundTrip) {
  Document d;
  d.id = "abc";
  d.set("x", Value(std::int64_t{9}));
  EXPECT_EQ(decode_document(encode_document(d)), d);
}

TEST(BinaryCodecTest, MalformedInputRejected) {
  EXPECT_THROW(decode_value(Bytes{}), Error);
  EXPECT_THROW(decode_value(Bytes{99}), Error);          // unknown tag
  EXPECT_THROW(decode_value(Bytes{3, 0, 0}), Error);     // truncated int
  EXPECT_THROW(decode_value(Bytes{5, 0, 0, 0, 10, 'a'}), Error);  // short string
  // Trailing bytes rejected.
  Bytes ok = encode_value(Value(std::int64_t{1}));
  ok.push_back(0);
  EXPECT_THROW(decode_value(ok), Error);
}

TEST(BinaryCodecTest, NumbersPreserveBitPatterns) {
  for (double d : {0.0, -0.0, 1e-300, -1e300, 6.3}) {
    EXPECT_EQ(decode_value(encode_value(Value(d))).as_double(), d);
  }
  for (std::int64_t i : {INT64_MIN, INT64_MAX, std::int64_t{0}}) {
    EXPECT_EQ(decode_value(encode_value(Value(i))).as_int(), i);
  }
}

// --- known answers -------------------------------------------------------------
//
// The wire bytes are part of the protocol: channel byte counts, replica
// logs and sealed documents all depend on them. These hex strings were
// recorded from the map-based codec and must not change with the codec's
// implementation.

Document fig5_document() {
  // The shape of a §5.2 benchmark observation (fhir::ObservationGenerator).
  Document d;
  d.id = "5f1c0a9e3b7d2c4e6a8f0b1d";
  d.set("identifier", Value(std::int64_t{482913}));
  d.set("status", Value("final"));
  d.set("code", Value("glucose"));
  d.set("subject", Value("Jane Roe"));
  d.set("effective", Value(std::int64_t{1700000000}));
  d.set("issued", Value(std::int64_t{1700086400}));
  d.set("performer", Value("Dr. Peeters"));
  d.set("value", Value(6.3));
  d.set("interpretation", Value("normal"));
  return d;
}

TEST(WireKnownAnswerTest, Fig5Document) {
  const Document d = fig5_document();
  const std::string want =
      "0000001835663163306139653362376432633465366138663062316408000000"
      "0900000004636f64650500000007676c75636f73650000000965666665637469"
      "766503000000006553f1000000000a6964656e74696669657203000000000007"
      "5e610000000e696e746572707265746174696f6e05000000066e6f726d616c00"
      "00000669737375656403000000006555428000000009706572666f726d657205"
      "0000000b44722e20506565746572730000000673746174757305000000056669"
      "6e616c000000077375626a65637405000000084a616e6520526f650000000576"
      "616c7565044019333333333333";
  EXPECT_EQ(hex_encode(encode_document(d)), want);
  EXPECT_EQ(decode_document(hex_decode(want)), d);
}

TEST(WireKnownAnswerTest, NestedValueWithEveryTag) {
  Object inner;
  inner["z"] = Value(Bytes{0xde, 0xad});
  inner["a"] = Value(nullptr);
  Object obj;
  obj["t"] = Value(true);
  obj["f"] = Value(false);
  obj["i"] = Value(std::int64_t{-2});
  obj["d"] = Value(-0.5);
  obj["s"] = Value("x");
  obj["arr"] = Value(Array{Value(std::int64_t{7}), Value(inner), Value(Array{})});
  const Value v(obj);
  const std::string want =
      "0800000006000000036172720700000003030000000000000007080000000200"
      "0000016100000000017a0600000002dead0700000000000000016404bfe00000"
      "00000000000000016601000000016903fffffffffffffffe0000000173050000"
      "000178000000017402";
  EXPECT_EQ(hex_encode(encode_value(v)), want);
  EXPECT_EQ(decode_value(hex_decode(want)), v);
}

struct CloudRig {
  CloudRig() : rpc(cloud.rpc(), channel) {}
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc;
};

TEST(WireKnownAnswerTest, DocMgetReply) {
  // Two stored entries requested around a vanished id: the reply keeps
  // request order and skips the missing one.
  CloudRig rig;
  rig.rpc.call("doc.put", core::wire::pack({{"col", Value("obs")},
                                            {"id", Value("d-1")},
                                            {"blob", Value(Bytes{0x01, 0x02, 0x03})}}));
  rig.rpc.call("doc.put", core::wire::pack({{"col", Value("obs")},
                                            {"id", Value("d-2")},
                                            {"blob", Value(Bytes{0xff})}}));
  const Bytes reply = rig.rpc.call(
      "doc.mget",
      core::wire::pack({{"col", Value("obs")},
                        {"ids", Value(Array{Value("d-2"), Value("gone"), Value("d-1")})}}));
  EXPECT_EQ(hex_encode(reply),
            "080000000100000004646f63730700000002080000000200000004626c6f6206"
            "00000001ff0000000269640500000003642d32080000000200000004626c6f62"
            "06000000030102030000000269640500000003642d31");
}

TEST(WireKnownAnswerTest, DetSearchReply) {
  CloudRig rig;
  for (const char* id : {"doc-b", "doc-a", "doc-c"}) {
    rig.rpc.call("det.insert", core::wire::pack({{"col", Value("obs")},
                                                 {"field", Value("code")},
                                                 {"label", Value(Bytes{0xab, 0xcd})},
                                                 {"id", Value(id)}}));
  }
  const Bytes reply = rig.rpc.call(
      "det.search", core::wire::pack({{"col", Value("obs")},
                                      {"field", Value("code")},
                                      {"label", Value(Bytes{0xab, 0xcd})}}));
  EXPECT_EQ(hex_encode(reply),
            "08000000010000000369647307000000030500000005646f632d610500000005"
            "646f632d620500000005646f632d63");
}

// --- the streaming cursors -----------------------------------------------------

TEST(WireReaderTest, ReadsTypedItemsAsViews) {
  Bytes buf;
  wire::Writer w(buf);
  w.object(3);
  w.key("b");
  w.bin(Bytes{1, 2});
  w.key("n");
  w.array(4);
  w.integer(-5);
  w.real(0.25);
  w.boolean(true);
  w.null();
  w.key("s");
  w.str("text");
  EXPECT_EQ(buf, encode_value(Value(Object{
                     {"b", Value(Bytes{1, 2})},
                     {"n", Value(Array{Value(-5), Value(0.25), Value(true), Value(nullptr)})},
                     {"s", Value("text")}})));

  wire::Reader r(buf);
  EXPECT_EQ(r.peek(), ValueType::kObject);
  EXPECT_EQ(r.object(), 3u);
  EXPECT_EQ(r.key(), "b");
  const BytesView b = r.bin();
  EXPECT_EQ(b.data(), buf.data() + 15);  // a view into the buffer, not a copy
  EXPECT_EQ(Bytes(b.begin(), b.end()), (Bytes{1, 2}));
  EXPECT_EQ(r.key(), "n");
  EXPECT_EQ(r.array(), 4u);
  EXPECT_EQ(r.integer(), -5);
  EXPECT_EQ(r.real(), 0.25);
  EXPECT_TRUE(r.boolean());
  r.null();
  EXPECT_EQ(r.key(), "s");
  EXPECT_EQ(r.peek(), ValueType::kString);
  EXPECT_THROW(r.integer(), Error);  // a mistyped read is a protocol error
}

TEST(WireReaderTest, RejectsTruncatedAndForgedInput) {
  // Every bound is exact: no prefix of an item reads, the whole item does.
  // A prefix view is backed by the full buffer, so a check that is off by
  // one would read on silently instead of throwing.
  const Bytes text = {5, 0, 0, 0, 3, 'a', 'b', 'c'};
  const Bytes number = encode_value(Value(std::int64_t{-9}));
  for (std::size_t len = 0; len < text.size(); ++len) {
    wire::Reader r(BytesView(text).first(len));
    try {
      r.str();
      ADD_FAILURE() << "a " << len << "-byte prefix read as a string";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kProtocolError);
    }
  }
  for (std::size_t len = 0; len < number.size(); ++len) {
    wire::Reader r(BytesView(number).first(len));
    EXPECT_THROW(r.integer(), Error) << len;
  }
  wire::Reader whole_text(text);
  EXPECT_EQ(whole_text.str(), "abc");
  EXPECT_TRUE(whole_text.at_end());
  wire::Reader whole_number(number);
  EXPECT_EQ(whole_number.integer(), -9);
  whole_number.expect_end();
  // A count larger than the bytes left is refused before anything reserves.
  const Bytes two_of_one = {7, 0, 0, 0, 2, 0};
  wire::Reader forged(two_of_one);
  EXPECT_THROW(forged.array(), Error);
  const Bytes one_of_one = {7, 0, 0, 0, 1, 0};
  wire::Reader exact(one_of_one);
  EXPECT_EQ(exact.array(), 1u);
  exact.null();
  exact.expect_end();
}

TEST(WireReaderTest, DeepNestingIsMalformedNotAStackOverflow) {
  // Five bytes a level: half a megabyte of nested arrays would overflow
  // the stack of a recursive walk without the codec's depth bound.
  auto nested = [](std::size_t depth) {
    Bytes b;
    for (std::size_t i = 0; i < depth; ++i) b.insert(b.end(), {7, 0, 0, 0, 1});
    b.push_back(0);
    return b;
  };
  const Bytes shallow = nested(100);
  EXPECT_NO_THROW(decode_value(shallow));
  const Bytes deep = nested(100000);
  for (auto walk : {+[](BytesView b) { decode_value(b); },
                    +[](BytesView b) { wire::Reader(b).skip(); }}) {
    try {
      walk(deep);
      ADD_FAILURE() << "a 100000-deep payload was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kProtocolError);
    }
  }
}

TEST(WireReplyTest, IdListsAndDocEntriesRoundTrip) {
  const std::vector<std::string> ids = {"a", "", "ccc"};
  const Bytes reply = wire::pack_ids(ids);
  EXPECT_EQ(reply, wire::pack({{"ids", Value(Array{Value("a"), Value(""), Value("ccc")})}}));
  EXPECT_EQ(wire::unpack_ids(reply), ids);
  EXPECT_TRUE(wire::unpack_ids(wire::pack_ids(std::vector<std::string>{})).empty());
  EXPECT_THROW(wire::unpack_ids(wire::pack({{"docs", Value(Array{})}})), Error);

  wire::DocsWriter docs(2);
  docs.add("d-1", Bytes{9});
  docs.add("d-2", Bytes{});
  std::vector<std::pair<std::string, Bytes>> seen;
  wire::for_each_doc(docs.finish(), [&](std::string_view id, BytesView blob) {
    seen.emplace_back(id, Bytes(blob.begin(), blob.end()));
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<std::string, Bytes>{"d-1", Bytes{9}}));
  EXPECT_EQ(seen[1], (std::pair<std::string, Bytes>{"d-2", Bytes{}}));

  // The reader takes members by name: extra members are skipped, and an
  // entry without its blob is a protocol error.
  const Bytes extra = wire::pack(
      {{"docs", Value(Array{Value(Object{{"blob", Value(Bytes{1})},
                                         {"id", Value("x")},
                                         {"z", Value(Array{Value(1)})}})})},
       {"more", Value(true)}});
  int entries = 0;
  wire::for_each_doc(extra, [&](std::string_view id, BytesView) {
    EXPECT_EQ(id, "x");
    ++entries;
  });
  EXPECT_EQ(entries, 1);
  const Bytes no_blob = wire::pack({{"docs", Value(Array{Value(Object{{"id", Value("x")}})})}});
  EXPECT_THROW(wire::for_each_doc(no_blob, [](std::string_view, BytesView) {}), Error);

  const std::vector<std::string_view> want = {"x", "y"};
  const Bytes request = wire::pack_mget("obs", want);
  const wire::MgetRequest req = wire::unpack_mget(request);
  EXPECT_EQ(req.col, "obs");
  EXPECT_EQ(req.ids, want);
}

}  // namespace
}  // namespace datablinder::doc
