// Known answers for the counter-based SSE schemes: Mitra, Mitra-SL,
// IEX-2Lev and IEX-ZMF. For fixed keys, each test pins the update-token
// bytes, the search addresses and the ids a search resolves to, over one
// keyword stream that holds a delete and a missing slot (an update the
// server never applied). The stream resolver and the token builders can
// then be restructured without moving one byte a cloud stores or sees.
#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "sse/iex2lev.hpp"
#include "sse/iexzmf.hpp"
#include "sse/mitra.hpp"
#include "sse/mitra_stateless.hpp"

namespace datablinder::sse {
namespace {

// An update op is named by its wire byte, 0 add and 1 delete: the value
// these answers pin. Its type is taken from each client's update().
template <typename F>
struct OpOf;
template <typename R, typename C, typename Op, typename... Rest>
struct OpOf<R (C::*)(Op, Rest...)> {
  using type = Op;
};
template <typename R, typename C, typename Op, typename... Rest>
struct OpOf<R (C::*)(Op, Rest...) const> {
  using type = Op;
};
template <typename Client>
constexpr auto kAdd = static_cast<typename OpOf<decltype(&Client::update)>::type>(0);
template <typename Client>
constexpr auto kDelete = static_cast<typename OpOf<decltype(&Client::update)>::type>(1);

/// SHA-256 over length-prefixed parts, as hex: one line pins every byte.
class Digest {
 public:
  void add(BytesView part) {
    sha_.update(be32(static_cast<std::uint32_t>(part.size())));
    sha_.update(part);
  }
  std::string hex() {
    const auto d = sha_.finalize();
    return hex_encode(d);
  }

 private:
  crypto::Sha256 sha_;
};

// The stream every test writes: add a, add m (never applied: a missing
// slot), add b, delete a. A search resolves to b alone, in slot order.
const std::vector<std::pair<int, DocId>> kStream = {{0, "a"}, {0, "m"}, {0, "b"}, {1, "a"}};
constexpr std::size_t kMissing = 1;

TEST(SseKnownAnswerTest, Mitra) {
  MitraClient client(Bytes(32, 0x11));
  MitraServer server;
  Digest tokens;
  for (std::size_t i = 0; i < kStream.size(); ++i) {
    const auto& [op, id] = kStream[i];
    const MitraUpdateToken t = client.update(
        op == 0 ? kAdd<MitraClient> : kDelete<MitraClient>, "status:final", id);
    tokens.add(t.address);
    tokens.add(t.value);
    if (i != kMissing) server.apply_update(t);
  }
  EXPECT_EQ(tokens.hex(), "1b68015c0581f01d49b56991e537508717e49cab3e5be98e38ec6b6fdeb869ef");

  const MitraSearchToken search = client.search_token("status:final");
  ASSERT_EQ(search.addresses.size(), 4u);
  Digest addresses;
  for (const Bytes& a : search.addresses) addresses.add(a);
  EXPECT_EQ(addresses.hex(), "4108a117d704b8ded9dab931c39f23905df91f4602deef1dafb9edaab4ae11e1");

  const std::vector<Bytes> values = server.search(search);
  EXPECT_TRUE(values[kMissing].empty());
  EXPECT_EQ(client.resolve("status:final", values), std::vector<DocId>{"b"});
}

TEST(SseKnownAnswerTest, MitraStateless) {
  const MitraStatelessClient client(Bytes(32, 0x22));
  MitraStatelessServer server;
  Digest tokens;
  for (std::size_t i = 0; i < kStream.size(); ++i) {
    const auto& [op, id] = kStream[i];
    const MitraUpdateToken t =
        client.update(op == 0 ? kAdd<MitraStatelessClient> : kDelete<MitraStatelessClient>,
                      "subject:alice", id, i);
    tokens.add(t.address);
    tokens.add(t.value);
    if (i != kMissing) server.apply_update(t);
  }
  EXPECT_EQ(tokens.hex(), "18016c6550654166ea11d40820edb7e0d3ec0b998e8f47d1c85eb404fe73025b");
  EXPECT_EQ(hex_encode(client.counter_label("subject:alice")),
            "dcb3a4f4256dfd11836483ce1508b9b77d87bcfafaca544b8541166837d36646");

  const MitraSearchToken search = client.search_token("subject:alice", kStream.size());
  Digest addresses;
  for (const Bytes& a : search.addresses) addresses.add(a);
  EXPECT_EQ(addresses.hex(), "b49af19a85713375d8aa1c5408d693f9c9b15b8a9c84c93050496549a26ffe18");

  const std::vector<Bytes> values = server.search(search);
  EXPECT_TRUE(values[kMissing].empty());
  EXPECT_EQ(client.resolve("subject:alice", values), std::vector<DocId>{"b"});
}

TEST(SseKnownAnswerTest, Iex2Lev) {
  Iex2LevClient client(Bytes(32, 0x33));
  Iex2LevServer server;
  const std::vector<std::string> keywords = {"status:final", "code:glucose"};
  Digest tokens;
  for (std::size_t i = 0; i < kStream.size(); ++i) {
    const auto& [op, id] = kStream[i];
    for (const IexUpdateToken& t :
         client.update(op == 0 ? kAdd<Iex2LevClient> : kDelete<Iex2LevClient>, keywords, id)) {
      tokens.add(t.address);
      tokens.add(t.value);
      if (i != kMissing) server.apply_update(t);
    }
  }
  EXPECT_EQ(tokens.hex(), "54c76d8a345f41524d42bd4bee84b649f399a26922a3d7df41f0486a9eb501bc");

  const std::pair<std::vector<std::string>, std::string> searches[] = {
      {{"status:final"}, "845cf145c62c1b6bf75da29729e6e767b923faef15d210a1c8403c3afa5de42d"},
      {keywords, "9836ba89bdef7c45f1166f10ffe85003fba0e01f46914742a4da3c1681213ddb"},
  };
  for (const auto& [conj, expected] : searches) {
    const IexConjToken search = client.conj_token(conj);
    ASSERT_EQ(search.lists.size(), conj.size());
    Digest addresses;
    for (const auto& list : search.lists) {
      for (const Bytes& a : list) addresses.add(a);
    }
    EXPECT_EQ(addresses.hex(), expected);
    const auto lists = server.search(search);
    EXPECT_TRUE(lists[0][kMissing].empty());
    EXPECT_EQ(client.resolve_conj(conj, lists), std::vector<DocId>{"b"});
  }
}

TEST(SseKnownAnswerTest, IexZmf) {
  IexZmfClient client(Bytes(32, 0x44));
  IexZmfServer server;
  const std::vector<std::string> keywords = {"status:final", "code:glucose"};
  // A token's salt and filter are drawn fresh per entry; its address and
  // padded value are the deterministic part.
  Digest tokens;
  for (std::size_t i = 0; i < kStream.size(); ++i) {
    const auto& [op, id] = kStream[i];
    for (const ZmfUpdateToken& t :
         client.update(op == 0 ? kAdd<IexZmfClient> : kDelete<IexZmfClient>, keywords, id)) {
      tokens.add(t.address);
      tokens.add(t.value);
      if (i != kMissing) server.apply_update(t);
    }
  }
  EXPECT_EQ(tokens.hex(), "8954a76620e4634fcd7429f6796bacd2ec81ae2e50a6c5d309127fed696ebad9");

  // Every document carries both keywords, so no filter admits a false
  // positive and the answer is exact.
  const std::pair<std::vector<std::string>, std::string> searches[] = {
      {{"status:final"}, "411ccf6a8c22e0077a36fafd2c81be2a1840522c314b6123f5a2e95779c1d2ef"},
      {keywords, "4fe1577335fec610fa7d3d3d8fa47e509f0ccfb576fb0426b1a78062f6a2bab0"},
  };
  for (const auto& [conj, expected] : searches) {
    const ZmfConjToken search = client.conj_token(conj);
    Digest addresses;
    for (const Bytes& a : search.addresses) addresses.add(a);
    for (const Bytes& k : search.keyword_tokens) addresses.add(k);
    EXPECT_EQ(addresses.hex(), expected);
    const std::vector<Bytes> values = server.search(search);
    EXPECT_TRUE(values[kMissing].empty());
    EXPECT_EQ(client.resolve_conj(conj, values), std::vector<DocId>{"b"});
  }
}

}  // namespace
}  // namespace datablinder::sse
