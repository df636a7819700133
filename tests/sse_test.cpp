// SSE scheme tests: Mitra, Sophos, IEX-2Lev, IEX-ZMF — search correctness
// against a plaintext reference, dynamic updates, forward-privacy
// structure, and the shared index plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "sse/iex2lev.hpp"
#include "sse/iexzmf.hpp"
#include "sse/index_common.hpp"
#include "sse/mitra.hpp"
#include "sse/sophos.hpp"

namespace datablinder::sse {
namespace {

std::vector<DocId> sorted(std::vector<DocId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(EncryptedDictTest, BasicOperations) {
  EncryptedDict d;
  d.put(Bytes{1, 2}, Bytes{3, 4, 5});
  EXPECT_TRUE(d.contains(Bytes{1, 2}));
  EXPECT_EQ(d.get(Bytes{1, 2}), (Bytes{3, 4, 5}));
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.storage_bytes(), 5u);
  d.put(Bytes{1, 2}, Bytes{9});  // overwrite shrinks accounting
  EXPECT_EQ(d.storage_bytes(), 3u);
  EXPECT_TRUE(d.erase(Bytes{1, 2}));
  EXPECT_FALSE(d.erase(Bytes{1, 2}));
  EXPECT_EQ(d.storage_bytes(), 0u);
  EXPECT_FALSE(d.get(Bytes{7}).has_value());
}

TEST(IdListCodecTest, RoundTripAndErrors) {
  const std::vector<DocId> ids = {"a", "doc-123", "", std::string(300, 'x')};
  EXPECT_EQ(decode_id_list(encode_id_list(ids)), ids);
  EXPECT_EQ(decode_id_list(encode_id_list({})), std::vector<DocId>{});
  EXPECT_THROW(decode_id_list(Bytes{0, 0}), Error);
}

TEST(KeywordCountersTest, SerializeRoundTrip) {
  KeywordCounters c;
  c.increment("alpha");
  c.increment("alpha");
  c.increment("beta");
  const KeywordCounters back = KeywordCounters::deserialize(c.serialize());
  EXPECT_EQ(back.get("alpha"), 2u);
  EXPECT_EQ(back.get("beta"), 1u);
  EXPECT_EQ(back.get("gamma"), 0u);
  EXPECT_EQ(back.distinct_keywords(), 2u);
}

// --- Mitra ------------------------------------------------------------------

TEST(MitraTest, SearchFindsAllAddedDocuments) {
  MitraClient client(Bytes(32, 1));
  MitraServer server;
  for (int i = 0; i < 20; ++i) {
    server.apply_update(client.update(MitraOp::kAdd, "diabetes", "doc" + std::to_string(i)));
  }
  server.apply_update(client.update(MitraOp::kAdd, "cancer", "docX"));

  const auto results =
      client.resolve("diabetes", server.search(client.search_token("diabetes")));
  EXPECT_EQ(results.size(), 20u);
  const auto other = client.resolve("cancer", server.search(client.search_token("cancer")));
  EXPECT_EQ(other, std::vector<DocId>{"docX"});
  EXPECT_TRUE(client.search_token("unknown").addresses.empty());
}

TEST(MitraTest, DeletionsCancelAdditions) {
  MitraClient client(Bytes(32, 2));
  MitraServer server;
  server.apply_update(client.update(MitraOp::kAdd, "w", "a"));
  server.apply_update(client.update(MitraOp::kAdd, "w", "b"));
  server.apply_update(client.update(MitraOp::kDelete, "w", "a"));

  const auto results = client.resolve("w", server.search(client.search_token("w")));
  EXPECT_EQ(results, std::vector<DocId>{"b"});

  // Re-adding after deletion resurrects the id.
  server.apply_update(client.update(MitraOp::kAdd, "w", "a"));
  const auto again = client.resolve("w", server.search(client.search_token("w")));
  EXPECT_EQ(sorted(again), (std::vector<DocId>{"a", "b"}));
}

TEST(MitraTest, MissingEntryShiftsNoOtherEntry) {
  // Update 2 of 3 never reaches the server (in flight, or lost in a crash
  // window): the search answers a miss at its address, and resolve still
  // decrypts update 3 with update 3's pad.
  MitraClient client(Bytes(32, 9));
  MitraServer server;
  server.apply_update(client.update(MitraOp::kAdd, "w", "a"));
  client.update(MitraOp::kAdd, "w", "b");  // skipped
  server.apply_update(client.update(MitraOp::kAdd, "w", "c"));

  const auto values = server.search(client.search_token("w"));
  ASSERT_EQ(values.size(), 3u);
  EXPECT_TRUE(values[1].empty());
  EXPECT_EQ(client.resolve("w", values), (std::vector<DocId>{"a", "c"}));
}

TEST(MitraTest, ForwardPrivacyStructure) {
  // Forward privacy (structural check): the address of a future update is
  // unpredictable from everything the server has seen — concretely, new
  // addresses never collide with previously issued search-token addresses.
  MitraClient client(Bytes(32, 3));
  MitraServer server;
  for (int i = 0; i < 10; ++i) {
    server.apply_update(client.update(MitraOp::kAdd, "kw", std::string("d").append(std::to_string(i))));
  }
  const auto token = client.search_token("kw");
  const std::set<Bytes, BytesLess> seen(token.addresses.begin(), token.addresses.end());
  const auto future = client.update(MitraOp::kAdd, "kw", "dnew");
  EXPECT_EQ(seen.count(future.address), 0u);
}

TEST(MitraTest, StateExportImportPreservesSearchability) {
  MitraClient client(Bytes(32, 4));
  MitraServer server;
  server.apply_update(client.update(MitraOp::kAdd, "w", "doc1"));
  server.apply_update(client.update(MitraOp::kAdd, "w", "doc2"));

  MitraClient recovered(Bytes(32, 4));
  recovered.import_state(client.export_state());
  const auto results =
      recovered.resolve("w", server.search(recovered.search_token("w")));
  EXPECT_EQ(sorted(results), (std::vector<DocId>{"doc1", "doc2"}));
}

// --- Sophos ------------------------------------------------------------------

class SophosFixture : public ::testing::Test {
 protected:
  // One RSA keygen shared across tests (expensive).
  static SophosClient& client() {
    static SophosClient c(Bytes(32, 5), 512);
    return c;
  }
};

TEST_F(SophosFixture, SearchRecoversInsertedIds) {
  SophosServer server(client().public_params());
  for (int i = 0; i < 8; ++i) {
    server.apply_update(client().update("hypertension", "doc" + std::to_string(i)));
  }
  const auto token = client().search_token("hypertension");
  ASSERT_TRUE(token.has_value());
  EXPECT_EQ(token->count, 8u);
  const auto ids = server.search(*token);
  EXPECT_EQ(sorted(ids), sorted({"doc0", "doc1", "doc2", "doc3", "doc4", "doc5",
                                 "doc6", "doc7"}));
}

TEST_F(SophosFixture, UnknownKeywordHasNoToken) {
  EXPECT_FALSE(client().search_token("never-inserted").has_value());
}

TEST_F(SophosFixture, TokenChainWalksBackwards) {
  // Each update's UT is unlinkable until a search reveals the chain: check
  // that a server missing the latest update still finds all earlier ones.
  SophosServer server(client().public_params());
  server.apply_update(client().update("chain", "old1"));
  server.apply_update(client().update("chain", "old2"));
  const auto pre_token = client().search_token("chain");

  // A new update lands only at a second server (simulating forward privacy:
  // the first server cannot derive the new UT from what it has).
  const auto new_update = client().update("chain", "new3");
  const auto ids_without_new = server.search(*pre_token);
  EXPECT_EQ(sorted(ids_without_new), sorted({"old1", "old2"}));

  server.apply_update(new_update);
  const auto full = server.search(*client().search_token("chain"));
  EXPECT_EQ(sorted(full), sorted({"new3", "old1", "old2"}));
}

// --- IEX-2Lev ------------------------------------------------------------------

struct IexWorld {
  Iex2LevClient client{Bytes(32, 6)};
  Iex2LevServer server;

  void add(const DocId& id, const std::vector<std::string>& kws) {
    for (const auto& t : client.update(IexOp::kAdd, kws, id)) server.apply_update(t);
  }
  void del(const DocId& id, const std::vector<std::string>& kws) {
    for (const auto& t : client.update(IexOp::kDelete, kws, id)) server.apply_update(t);
  }
  std::vector<DocId> query(const BoolQuery& q) { return sorted(client.query(q, server)); }
};

TEST(Iex2LevTest, SingleKeywordSearch) {
  IexWorld w;
  w.add("d1", {"status:final", "code:glucose"});
  w.add("d2", {"status:final", "code:sodium"});
  w.add("d3", {"status:amended", "code:glucose"});
  EXPECT_EQ(w.query({{{"status:final"}}}), (std::vector<DocId>{"d1", "d2"}));
  EXPECT_EQ(w.query({{{"code:glucose"}}}), (std::vector<DocId>{"d1", "d3"}));
  EXPECT_TRUE(w.query({{{"nothing"}}}).empty());
}

TEST(Iex2LevTest, ConjunctionUsesCrossKeywordIndex) {
  IexWorld w;
  w.add("d1", {"status:final", "code:glucose", "value:63"});
  w.add("d2", {"status:final", "code:sodium", "value:63"});
  w.add("d3", {"status:amended", "code:glucose", "value:70"});
  EXPECT_EQ(w.query({{{"status:final", "code:glucose"}}}), (std::vector<DocId>{"d1"}));
  EXPECT_EQ(w.query({{{"status:final", "value:63"}}}),
            (std::vector<DocId>{"d1", "d2"}));
  EXPECT_EQ(w.query({{{"status:final", "code:glucose", "value:63"}}}),
            (std::vector<DocId>{"d1"}));
  EXPECT_TRUE(w.query({{{"status:amended", "code:sodium"}}}).empty());
}

TEST(Iex2LevTest, DisjunctionUnionsConjunctions) {
  IexWorld w;
  w.add("d1", {"a", "b"});
  w.add("d2", {"c"});
  w.add("d3", {"a", "c"});
  EXPECT_EQ(w.query({{{"a", "b"}, {"c"}}}), (std::vector<DocId>{"d1", "d2", "d3"}));
}

TEST(Iex2LevTest, DeleteRemovesFromAllIndexes) {
  IexWorld w;
  w.add("d1", {"a", "b"});
  w.add("d2", {"a", "b"});
  w.del("d1", {"a", "b"});
  EXPECT_EQ(w.query({{{"a"}}}), (std::vector<DocId>{"d2"}));
  EXPECT_EQ(w.query({{{"a", "b"}}}), (std::vector<DocId>{"d2"}));
}

TEST(Iex2LevTest, RandomizedAgainstPlaintextReference) {
  IexWorld w;
  DetRng rng(17);
  const std::vector<std::string> universe = {"k0", "k1", "k2", "k3", "k4"};
  std::vector<std::pair<DocId, std::set<std::string>>> reference;
  for (int i = 0; i < 60; ++i) {
    std::set<std::string> kws;
    const std::size_t n = 1 + rng.uniform(universe.size());
    while (kws.size() < n) kws.insert(universe[rng.uniform(universe.size())]);
    const DocId id = "doc" + std::to_string(i);
    w.add(id, {kws.begin(), kws.end()});
    reference.emplace_back(id, std::move(kws));
  }
  for (int trial = 0; trial < 20; ++trial) {
    std::set<std::string> conj;
    const std::size_t n = 1 + rng.uniform(3);
    while (conj.size() < n) conj.insert(universe[rng.uniform(universe.size())]);
    std::vector<DocId> expected;
    for (const auto& [id, kws] : reference) {
      if (std::includes(kws.begin(), kws.end(), conj.begin(), conj.end())) {
        expected.push_back(id);
      }
    }
    BoolQuery q;
    q.dnf.push_back({conj.begin(), conj.end()});
    EXPECT_EQ(w.query(q), sorted(expected)) << "trial " << trial;
  }
}

// --- IEX-ZMF ------------------------------------------------------------------

struct ZmfWorld {
  IexZmfClient client{Bytes(32, 7)};
  IexZmfServer server;

  void add(const DocId& id, const std::vector<std::string>& kws) {
    for (const auto& t : client.update(IexOp::kAdd, kws, id)) server.apply_update(t);
  }
  std::vector<DocId> query(const BoolQuery& q) { return sorted(client.query(q, server)); }
};

TEST(IexZmfTest, ConjunctionViaFilters) {
  ZmfWorld w;
  w.add("d1", {"status:final", "code:glucose"});
  w.add("d2", {"status:final", "code:sodium"});
  w.add("d3", {"status:amended", "code:glucose"});
  const auto hits = w.query({{{"status:final", "code:glucose"}}});
  // Bloom filters admit false positives but never false negatives.
  EXPECT_TRUE(std::count(hits.begin(), hits.end(), "d1") == 1);
  EXPECT_TRUE(std::count(hits.begin(), hits.end(), "d3") == 0);  // wrong first keyword list
}

TEST(IexZmfTest, NoFalseNegativesRandomized) {
  ZmfWorld w;
  DetRng rng(23);
  const std::vector<std::string> universe = {"u0", "u1", "u2", "u3", "u4", "u5"};
  std::vector<std::pair<DocId, std::set<std::string>>> reference;
  for (int i = 0; i < 50; ++i) {
    std::set<std::string> kws;
    const std::size_t n = 2 + rng.uniform(3);
    while (kws.size() < n) kws.insert(universe[rng.uniform(universe.size())]);
    const DocId id = "doc" + std::to_string(i);
    w.add(id, {kws.begin(), kws.end()});
    reference.emplace_back(id, std::move(kws));
  }
  for (int trial = 0; trial < 20; ++trial) {
    const std::string a = universe[rng.uniform(universe.size())];
    const std::string b = universe[rng.uniform(universe.size())];
    BoolQuery q;
    q.dnf.push_back({a, b});
    const auto hits = w.query(q);
    for (const auto& [id, kws] : reference) {
      if (kws.count(a) && kws.count(b)) {
        EXPECT_TRUE(std::binary_search(hits.begin(), hits.end(), id))
            << "missing " << id << " for " << a << " AND " << b;
      }
    }
  }
}

TEST(IexZmfTest, SpaceVsPairIndexTradeoff) {
  // The design claim behind Table 2's 2Lev/ZMF contrast: with many keywords
  // per document, ZMF's per-entry filters use less cloud storage than
  // 2Lev's quadratic pair expansion.
  IexWorld lev;
  ZmfWorld zmf;
  DetRng rng(31);
  const std::vector<std::string> universe = {"a", "b", "c", "d", "e", "f", "g", "h"};
  for (int i = 0; i < 40; ++i) {
    std::vector<std::string> kws(universe.begin(), universe.end());  // 8 kws/doc
    const DocId id = "doc" + std::to_string(i);
    lev.add(id, kws);
    zmf.add(id, kws);
  }
  EXPECT_LT(zmf.server.storage_bytes(), lev.server.dict().storage_bytes());
}

TEST(IexZmfTest, RejectsBadParams) {
  EXPECT_THROW(IexZmfClient(Bytes(32, 1), ZmfFilterParams{0, 4}), Error);
  EXPECT_THROW(IexZmfClient(Bytes(32, 1), ZmfFilterParams{12, 4}), Error);
  EXPECT_THROW(IexZmfClient(Bytes(32, 1), ZmfFilterParams{256, 0}), Error);
  EXPECT_THROW(IexZmfClient(Bytes{}, ZmfFilterParams{}), Error);
}

}  // namespace
}  // namespace datablinder::sse
