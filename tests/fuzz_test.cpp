// Robustness "fuzz" tests: every decode path that consumes bytes from the
// untrusted zone (wire codecs, token deserializers, the batch handler, the
// cloud RPC surface) must reject arbitrary garbage with a typed error —
// never crash, hang, or mis-parse silently.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/cloud_node.hpp"
#include "doc/binary_codec.hpp"
#include "doc/json.hpp"
#include "doc/wire.hpp"
#include "net/message.hpp"
#include "net/methods.hpp"
#include "net/rpc.hpp"
#include "ppe/ore.hpp"
#include "sse/index_common.hpp"

namespace datablinder {
namespace {

/// Drives a decode callback with structured mutations: random buffers,
/// truncations of valid encodings, and bit flips.
template <typename Decode>
void fuzz_decoder(const Bytes& valid, Decode&& decode, int iterations = 300) {
  DetRng rng(1234);
  // Pure random buffers of assorted sizes.
  for (int i = 0; i < iterations; ++i) {
    const Bytes garbage = rng.bytes(rng.uniform(200));
    try {
      decode(garbage);
    } catch (const Error&) {
      // typed rejection: exactly what we want
    }
  }
  // Every truncation of a valid encoding.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    const Bytes prefix(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      decode(prefix);
    } catch (const Error&) {
    }
  }
  // Single-bit flips over a valid encoding.
  for (std::size_t bit = 0; bit < valid.size() * 8 && bit < 512; bit += 3) {
    Bytes mutated = valid;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    try {
      decode(mutated);
    } catch (const Error&) {
    }
  }
}

TEST(FuzzTest, BinaryCodecNeverCrashes) {
  doc::Object obj;
  obj["s"] = doc::Value("hello");
  obj["n"] = doc::Value(std::int64_t{42});
  obj["arr"] = doc::Value(doc::Array{doc::Value(1.5), doc::Value(Bytes{1, 2, 3})});
  const Bytes valid = doc::encode_value(doc::Value(obj));
  fuzz_decoder(valid, [](BytesView b) { doc::decode_value(b); });
}

TEST(FuzzTest, DocumentCodecNeverCrashes) {
  doc::Document d;
  d.id = "doc-1";
  d.set("f", doc::Value("v"));
  const Bytes valid = doc::encode_document(d);
  fuzz_decoder(valid, [](BytesView b) { doc::decode_document(b); });
}

TEST(FuzzTest, WireReaderNeverCrashes) {
  // The streaming readers hand out views into the buffer they parse; every
  // bounds check sits in wire::Reader.
  doc::wire::DocsWriter docs(2);
  docs.add("doc-1", Bytes{1, 2, 3});
  docs.add("doc-2", Bytes(40, 7));
  fuzz_decoder(docs.finish(), [](BytesView b) {
    std::size_t total = 0;
    doc::wire::for_each_doc(b, [&](std::string_view id, BytesView blob) {
      total += id.size() + blob.size();
    });
  });
  fuzz_decoder(doc::wire::pack_ids(std::vector<std::string>{"a", "bb", "ccc"}),
               [](BytesView b) { doc::wire::unpack_ids(b); });
  fuzz_decoder(doc::wire::pack_mget("obs", std::vector<std::string>{"a", "bb"}),
               [](BytesView b) { doc::wire::unpack_mget(b); });
  fuzz_decoder(doc::encode_value(doc::Value(doc::Array{doc::Value(doc::Object{
                   {"k", doc::Value(doc::Array{doc::Value(1.5), doc::Value(nullptr)})}})})),
               [](BytesView b) {
                 doc::wire::Reader r(b);
                 r.skip();
                 r.expect_end();
               });
}

TEST(FuzzTest, WireMessagesNeverCrash) {
  net::Request r;
  r.method = "det.search";
  r.payload = Bytes{1, 2, 3, 4};
  fuzz_decoder(r.serialize(), [](BytesView b) { net::Request::deserialize(b); });
  fuzz_decoder(net::Response::success(Bytes{5, 6}).serialize(),
               [](BytesView b) { net::Response::deserialize(b); });
}

TEST(FuzzTest, OreTokensNeverCrash) {
  ppe::OreCipher ore(Bytes(32, 9), "f", 32);
  fuzz_decoder(ore.encrypt_left(123).serialize(),
               [](BytesView b) { ppe::OreLeft::deserialize(b); });
  fuzz_decoder(ore.encrypt_right(123).serialize(),
               [](BytesView b) { ppe::OreRight::deserialize(b); });
}

TEST(FuzzTest, IdListAndCountersNeverCrash) {
  fuzz_decoder(sse::encode_id_list({"a", "bb", "ccc"}),
               [](BytesView b) { sse::decode_id_list(b); });
  sse::KeywordCounters counters;
  counters.increment("w1");
  counters.increment("w2");
  fuzz_decoder(counters.serialize(),
               [](BytesView b) { sse::KeywordCounters::deserialize(b); });
}

TEST(FuzzTest, JsonParserNeverCrashes) {
  DetRng rng(77);
  const char* seeds[] = {R"({"a":[1,2,{"b":null}],"c":"x"})", "[[[[]]]]",
                         R"("strA\n")", "-1.5e10"};
  for (const char* seed : seeds) {
    std::string s = seed;
    for (int i = 0; i < 200; ++i) {
      std::string mutated = s;
      const std::size_t pos = rng.uniform(mutated.size());
      mutated[pos] = static_cast<char>(rng.uniform(256));
      try {
        doc::parse_json(mutated);
      } catch (const Error&) {
      }
    }
    for (std::size_t len = 0; len < s.size(); ++len) {
      try {
        doc::parse_json(std::string_view(s).substr(0, len));
      } catch (const Error&) {
      }
    }
  }
}

TEST(FuzzTest, JsonTextNeverCrashes) {
  // The same random, truncated and bit-flipped input the binary decoders
  // get, over a JSON document, plus nesting far past the parser's bound.
  const std::string valid =
      R"({"id":"f1","v":[1,-2.5e3,true,null,{"$bin":"00ff"}],"s":"a\u0041\n"})";
  fuzz_decoder(Bytes(valid.begin(), valid.end()), [](BytesView b) {
    doc::parse_json(std::string_view(reinterpret_cast<const char*>(b.data()), b.size()));
  });
  for (const std::string open : {"[", "{\"k\":", "[{\"k\":"}) {
    std::string deep;
    for (int i = 0; i < 200000; ++i) deep += open;
    EXPECT_THROW(doc::parse_json(deep), Error) << open;
  }
}

TEST(FuzzTest, CloudRpcSurfaceSurvivesGarbage) {
  // Fire random bytes at every registered method; the node must answer
  // with typed errors and stay serviceable.
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  DetRng rng(31337);
  for (const net::MethodInfo& m : net::cloud_methods()) {
    const std::string method(m.name);
    for (int i = 0; i < 60; ++i) {
      try {
        rpc.call(method, rng.bytes(rng.uniform(120)));
      } catch (const Error&) {
      }
    }
  }
  // Still alive and correct afterwards.
  const Bytes reply = rpc.call("admin.storage", doc::encode_value(doc::Value(doc::Object{})));
  EXPECT_FALSE(reply.empty());
}

TEST(FuzzTest, BatchHandlerRejectsMalformedFrames) {
  net::RpcServer server;
  server.register_method("doc.put", [](BytesView) { return Bytes{8, 0, 0, 0, 0}; });
  server.register_method("rpc.batch", net::RpcClient::make_batch_handler(server));
  net::Channel channel;
  net::RpcClient client(server, channel);

  DetRng rng(99);
  for (int i = 0; i < 200; ++i) {
    try {
      client.call("rpc.batch", rng.bytes(rng.uniform(100)));
    } catch (const Error&) {
    }
  }
  // Valid batches still work after the abuse.
  EXPECT_EQ(client.send_batch(client.capture([&] { client.call("doc.put", {}); })), 1u);
}

}  // namespace
}  // namespace datablinder
