// Storage substrate tests: KvStore (including AOF persistence) and
// DocumentStore (filters, secondary indexes).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "store/docstore.hpp"
#include "store/kvstore.hpp"

namespace datablinder::store {
namespace {

using doc::Document;
using doc::Value;

std::vector<std::string> members(const KvStore& kv, const std::string& key) {
  std::vector<std::string> out;
  kv.visit_members(key, [&](const std::string& m) { out.push_back(m); });
  return out;
}

TEST(KvStoreTest, BytesLessIsTheVectorOrder) {
  // The sorted-set and index maps order keys by BytesLess; a range scan is
  // only right if that is exactly std::vector<uint8_t>'s own order.
  auto vector_less = [](const Bytes& a, const Bytes& b) {
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (a[i] != b[i]) return a[i] < b[i];
    }
    return a.size() < b.size();
  };
  std::vector<Bytes> keys = {{}, {0}, {0, 0}, {1}, {0x7F, 0x80}, {0x80}, {0xFF}, {0xFF, 0}};
  DetRng rng(7);
  for (int i = 0; i < 100; ++i) keys.push_back(rng.bytes(rng.uniform(4)));
  for (const Bytes& a : keys) {
    for (const Bytes& b : keys) EXPECT_EQ(BytesLess{}(a, b), vector_less(a, b));
  }
}

TEST(KvStoreTest, Strings) {
  KvStore kv;
  EXPECT_FALSE(kv.get("k").has_value());
  kv.set("k", Bytes{1, 2});
  EXPECT_EQ(kv.get("k"), (Bytes{1, 2}));
  EXPECT_TRUE(kv.exists("k"));
  EXPECT_TRUE(kv.del("k"));
  EXPECT_FALSE(kv.del("k"));
  EXPECT_FALSE(kv.exists("k"));
}

TEST(KvStoreTest, Hashes) {
  KvStore kv;
  kv.hset("h", "f1", Bytes{1});
  kv.hset("h", "f2", Bytes{2});
  EXPECT_EQ(kv.hget("h", "f1"), Bytes{1});
  EXPECT_FALSE(kv.hget("h", "nope").has_value());
  EXPECT_EQ(kv.hgetall("h").size(), 2u);
  EXPECT_TRUE(kv.hdel("h", "f1"));
  EXPECT_FALSE(kv.hdel("h", "f1"));
  EXPECT_EQ(kv.hgetall("h").size(), 1u);
}

TEST(KvStoreTest, Sets) {
  KvStore kv;
  kv.sadd("s", "a");
  kv.sadd("s", "b");
  kv.sadd("s", "a");  // idempotent
  EXPECT_EQ(kv.scard("s"), 2u);
  EXPECT_TRUE(kv.srem("s", "a"));
  EXPECT_EQ(members(kv, "s"), (std::vector<std::string>{"b"}));
  kv.sadd("s", "a");
  EXPECT_EQ(members(kv, "s"), (std::vector<std::string>{"a", "b"}));  // in order
  EXPECT_TRUE(members(kv, "absent").empty());
}

TEST(KvStoreTest, SortedSetsRangeQueries) {
  KvStore kv;
  kv.zadd("z", Bytes{0x10}, "low");
  kv.zadd("z", Bytes{0x20}, "mid1");
  kv.zadd("z", Bytes{0x20}, "mid2");
  kv.zadd("z", Bytes{0x30}, "high");
  EXPECT_EQ(kv.zcard("z"), 4u);

  const auto mid = kv.zrange("z", Bytes{0x15}, Bytes{0x25});
  EXPECT_EQ(mid.size(), 2u);
  const auto all = kv.zrange("z", Bytes{0x00}, Bytes{0xff});
  EXPECT_EQ(all.size(), 4u);
  EXPECT_EQ(all.front(), "low");
  EXPECT_EQ(all.back(), "high");

  ASSERT_TRUE(kv.zmin("z").has_value());
  EXPECT_EQ(kv.zmin("z")->second, "low");
  EXPECT_EQ(kv.zmax("z")->second, "high");

  EXPECT_TRUE(kv.zrem("z", Bytes{0x20}, "mid1"));
  EXPECT_EQ(kv.zcard("z"), 3u);
  EXPECT_FALSE(kv.zmin("empty").has_value());
}

TEST(KvStoreTest, Counters) {
  KvStore kv;
  EXPECT_EQ(kv.incr("c"), 1);
  EXPECT_EQ(kv.incr("c", 10), 11);
  EXPECT_EQ(kv.incr("c", -1), 10);
}

TEST(KvStoreTest, AofPersistenceReplaysAcrossReopen) {
  const std::string path = "/tmp/datablinder_kv_test.aof";
  std::remove(path.c_str());
  {
    KvStore kv(path);
    kv.set("k", Bytes{9});
    kv.hset("h", "f", Bytes{8});
    kv.sadd("s", "m");
    kv.zadd("z", Bytes{0x42}, "member");
    kv.incr("c", 5);
    kv.set("gone", Bytes{1});
    kv.del("gone");
  }
  KvStore kv(path);
  EXPECT_EQ(kv.get("k"), Bytes{9});
  EXPECT_EQ(kv.hget("h", "f"), Bytes{8});
  EXPECT_EQ(members(kv, "s"), (std::vector<std::string>{"m"}));
  EXPECT_EQ(kv.zrange("z", Bytes{0x00}, Bytes{0xff}).size(), 1u);
  EXPECT_EQ(kv.incr("c", 0), 5);
  EXPECT_FALSE(kv.exists("gone"));
  std::remove(path.c_str());
}

TEST(KvStoreTest, FlushAllClearsEverything) {
  KvStore kv;
  kv.set("a", Bytes{1});
  kv.sadd("s", "x");
  kv.flush_all();
  EXPECT_FALSE(kv.exists("a"));
  EXPECT_EQ(kv.scard("s"), 0u);
  EXPECT_EQ(kv.storage_bytes(), 0u);
}

// --- DocumentStore -----------------------------------------------------------

Document make_doc(const std::string& id, const std::string& name, std::int64_t age) {
  Document d;
  d.id = id;
  d.set("name", Value(name));
  d.set("age", Value(age));
  return d;
}

TEST(CollectionTest, PutGetErase) {
  Collection c("people");
  c.put(make_doc("1", "alice", 30));
  EXPECT_EQ(c.size(), 1u);
  ASSERT_TRUE(c.get("1").has_value());
  EXPECT_EQ(c.get("1")->at("name").as_string(), "alice");
  c.put(make_doc("1", "alicia", 31));  // replace
  EXPECT_EQ(c.get("1")->at("name").as_string(), "alicia");
  EXPECT_TRUE(c.erase("1"));
  EXPECT_FALSE(c.erase("1"));
  EXPECT_THROW(c.put(Document{}), Error);  // empty id
}

TEST(CollectionTest, FilterSemantics) {
  Collection c("people");
  c.put(make_doc("1", "alice", 30));
  c.put(make_doc("2", "bob", 40));
  c.put(make_doc("3", "carol", 50));

  EXPECT_EQ(c.find(Filter::all()).size(), 3u);
  EXPECT_EQ(c.find(Filter::eq("name", Value("bob"))).size(), 1u);
  EXPECT_EQ(c.find(Filter::range("age", Value(std::int64_t{35}), Value(std::int64_t{55})))
                .size(),
            2u);
  EXPECT_EQ(c.find(Filter::range("age", std::nullopt, Value(std::int64_t{39}))).size(), 1u);
  EXPECT_EQ(c.find(Filter::and_of({Filter::eq("name", Value("bob")),
                                   Filter::range("age", Value(std::int64_t{0}),
                                                 Value(std::int64_t{100}))}))
                .size(),
            1u);
  EXPECT_EQ(c.find(Filter::or_of({Filter::eq("name", Value("alice")),
                                  Filter::eq("name", Value("carol"))}))
                .size(),
            2u);
  EXPECT_EQ(c.find(Filter::not_of(Filter::eq("name", Value("bob")))).size(), 2u);
}

TEST(CollectionTest, IndexedAndScannedQueriesAgree) {
  Collection indexed("a"), scanned("b");
  indexed.create_index("age");
  for (int i = 0; i < 200; ++i) {
    auto d = make_doc(std::to_string(i), i % 2 ? "odd" : "even", i % 37);
    indexed.put(d);
    scanned.put(d);
  }
  for (std::int64_t lo = 0; lo < 37; lo += 5) {
    const auto f = Filter::range("age", Value(lo), Value(lo + 7));
    EXPECT_EQ(indexed.find(f).size(), scanned.find(f).size()) << lo;
  }
  const auto eq = Filter::eq("age", Value(std::int64_t{5}));
  EXPECT_EQ(indexed.find(eq).size(), scanned.find(eq).size());
}

TEST(CollectionTest, IndexBackfillAndMaintenance) {
  Collection c("x");
  c.put(make_doc("1", "a", 10));
  c.create_index("age");  // backfills existing doc
  EXPECT_EQ(c.find(Filter::eq("age", Value(std::int64_t{10}))).size(), 1u);
  c.erase("1");
  EXPECT_TRUE(c.find(Filter::eq("age", Value(std::int64_t{10}))).empty());
  // Replacement updates the index entry.
  c.put(make_doc("2", "b", 20));
  c.put(make_doc("2", "b", 21));
  EXPECT_TRUE(c.find(Filter::eq("age", Value(std::int64_t{20}))).empty());
  EXPECT_EQ(c.find(Filter::eq("age", Value(std::int64_t{21}))).size(), 1u);
}

TEST(CollectionTest, MixedNumericIndexOrdering) {
  Collection c("nums");
  c.create_index("v");
  Document a; a.id = "a"; a.set("v", Value(std::int64_t{-5})); c.put(a);
  Document b; b.id = "b"; b.set("v", Value(2.5)); c.put(b);
  Document d; d.id = "d"; d.set("v", Value(std::int64_t{10})); c.put(d);
  // Range across negative ints and doubles via the order-preserving key.
  EXPECT_EQ(c.find(Filter::range("v", Value(std::int64_t{-10}), Value(3.0))).size(), 2u);
}

TEST(CompareValuesTest, Rules) {
  EXPECT_LT(compare_values(Value(std::int64_t{1}), Value(2.5)), 0);
  EXPECT_EQ(compare_values(Value(std::int64_t{2}), Value(2.0)), 0);
  EXPECT_GT(compare_values(Value("b"), Value("a")), 0);
  EXPECT_THROW(compare_values(Value("a"), Value(std::int64_t{1})), Error);
}

TEST(DocumentStoreTest, CollectionsAreIsolated) {
  DocumentStore store;
  store.collection("a").put(make_doc("1", "x", 1));
  EXPECT_TRUE(store.has_collection("a"));
  EXPECT_FALSE(store.has_collection("b"));
  EXPECT_EQ(store.collection("b").size(), 0u);
  EXPECT_EQ(store.collection("a").size(), 1u);
  EXPECT_GT(store.storage_bytes(), 0u);
}

}  // namespace
}  // namespace datablinder::store
