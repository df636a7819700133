// Mitra-Stateless tests — the library's implementation of the paper's
// concluding future-work direction (stateless SE for cloud-native
// gateways). The headline property under test: a brand-new gateway with NO
// local state (fresh KvStore, fresh tactic instances) serves updates and
// searches over an index built by a previous gateway incarnation.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/status.hpp"
#include "core/cloud_node.hpp"
#include "core/gateway.hpp"
#include "core/tactics/builtin.hpp"
#include "core/tactics/mitra_stateless_tactic.hpp"
#include "sse/mitra_stateless.hpp"

namespace datablinder {
namespace {

using core::DocId;
using doc::Document;
using doc::Value;

std::vector<sse::DocId> sorted(std::vector<sse::DocId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// --- scheme level -------------------------------------------------------------

TEST(MitraStatelessSchemeTest, UpdateAndSearchProtocol) {
  sse::MitraStatelessClient client(Bytes(32, 1));
  sse::MitraStatelessServer server;

  // Drive the two-round update protocol by hand.
  auto add = [&](const std::string& kw, const sse::DocId& id) {
    const auto label = client.counter_label(kw);
    const std::uint64_t current = client.decode_counter(kw, server.get_counter(label));
    server.apply_update(client.update(sse::UpdateOp::kAdd, kw, id, current));
    server.put_counter(label, client.encode_counter(kw, current + 1));
  };
  add("diabetes", "d1");
  add("diabetes", "d2");
  add("cancer", "d3");

  const auto label = client.counter_label("diabetes");
  const std::uint64_t count = client.decode_counter("diabetes", server.get_counter(label));
  EXPECT_EQ(count, 2u);
  const auto values = server.search(client.search_token("diabetes", count));
  EXPECT_EQ(sorted(client.resolve("diabetes", values)),
            (std::vector<sse::DocId>{"d1", "d2"}));
}

TEST(MitraStatelessSchemeTest, FreshClientIsInterchangeable) {
  // No state export/import needed: any client with the key continues.
  sse::MitraStatelessClient first(Bytes(32, 2));
  sse::MitraStatelessServer server;
  const auto label = first.counter_label("kw");
  server.apply_update(first.update(sse::UpdateOp::kAdd, "kw", "doc1", 0));
  server.put_counter(label, first.encode_counter("kw", 1));

  sse::MitraStatelessClient second(Bytes(32, 2));  // brand-new instance
  const std::uint64_t count = second.decode_counter("kw", server.get_counter(label));
  EXPECT_EQ(count, 1u);
  const auto values = server.search(second.search_token("kw", count));
  EXPECT_EQ(second.resolve("kw", values), std::vector<sse::DocId>{"doc1"});

  // ...and can append where the first left off.
  server.apply_update(second.update(sse::UpdateOp::kAdd, "kw", "doc2", count));
  server.put_counter(label, second.encode_counter("kw", count + 1));
  const auto values2 = server.search(second.search_token("kw", 2));
  EXPECT_EQ(sorted(second.resolve("kw", values2)),
            (std::vector<sse::DocId>{"doc1", "doc2"}));
}

TEST(MitraStatelessSchemeTest, CounterBlobsAreUnlinkable) {
  sse::MitraStatelessClient client(Bytes(32, 3));
  // Probabilistic counter encryption: same count, different blobs.
  EXPECT_NE(client.encode_counter("kw", 5), client.encode_counter("kw", 5));
  // Tampered blob rejected loudly.
  Bytes blob = client.encode_counter("kw", 5);
  blob[10] ^= 1;
  EXPECT_THROW(client.decode_counter("kw", blob), Error);
  // Blob bound to its keyword.
  const Bytes other = client.encode_counter("other", 5);
  EXPECT_THROW(client.decode_counter("kw", other), Error);
}

TEST(MitraStatelessSchemeTest, DeletionsFold) {
  sse::MitraStatelessClient client(Bytes(32, 4));
  sse::MitraStatelessServer server;
  const auto label = client.counter_label("w");
  std::uint64_t c = 0;
  auto step = [&](sse::UpdateOp op, const sse::DocId& id) {
    server.apply_update(client.update(op, "w", id, c));
    server.put_counter(label, client.encode_counter("w", ++c));
  };
  step(sse::UpdateOp::kAdd, "a");
  step(sse::UpdateOp::kAdd, "b");
  step(sse::UpdateOp::kDelete, "a");
  const auto values = server.search(client.search_token("w", c));
  EXPECT_EQ(client.resolve("w", values), std::vector<sse::DocId>{"b"});
}

// --- middleware level ------------------------------------------------------------

core::TacticRegistry stateless_registry() {
  core::TacticRegistry r;
  core::register_det_tactic(r);
  core::register_rnd_tactic(r);
  core::register_mitra_tactic(r);
  {
    // Promote Mitra-SL over Mitra for equality.
    core::TacticDescriptor d = core::MitraStatelessTactic::static_descriptor();
    d.preference = 100;
    r.register_field_tactic(std::move(d), [](const core::GatewayContext& ctx) {
      return std::make_unique<core::MitraStatelessTactic>(ctx);
    });
  }
  core::register_sophos_tactic(r);
  core::register_biex2lev_tactic(r);
  core::register_biexzmf_tactic(r);
  core::register_ope_tactic(r);
  core::register_ore_tactic(r);
  core::register_paillier_tactic(r);
  return r;
}

schema::Schema name_schema() {
  schema::Schema s("people");
  schema::FieldAnnotation f;
  f.type = schema::FieldType::kString;
  f.sensitive = true;
  f.protection = schema::ProtectionClass::kClass2;
  f.operations = {schema::Operation::kInsert, schema::Operation::kEquality};
  s.field("name", f);
  return s;
}

TEST(MitraStatelessGatewayTest, SurvivesGatewayReboot) {
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  const Bytes master(32, 7);
  const core::TacticRegistry registry = stateless_registry();

  // Incarnation 1 inserts and is destroyed — its local KvStore dies with it.
  {
    kms::KeyManager kms(master);
    store::KvStore local;
    core::Gateway gw(rpc, kms, local, registry, {});
    gw.register_schema(name_schema());
    ASSERT_EQ(gw.plan("people").fields.at("name").eq_tactic, "Mitra-SL");
    for (const char* who : {"alice", "bob", "alice"}) {
      Document d;
      d.set("name", Value(who));
      gw.insert("people", d);
    }
  }

  // Incarnation 2: fresh everything in the trusted zone (same master key).
  kms::KeyManager kms(master);
  store::KvStore local;
  core::Gateway rebooted(rpc, kms, local, registry, {});
  rebooted.register_schema(name_schema());
  EXPECT_EQ(rebooted.equality_search("people", "name", Value("alice")).size(), 2u);
  EXPECT_EQ(rebooted.equality_search("people", "name", Value("bob")).size(), 1u);

  // And it can continue writing seamlessly.
  Document d;
  d.set("name", Value("alice"));
  rebooted.insert("people", d);
  EXPECT_EQ(rebooted.equality_search("people", "name", Value("alice")).size(), 3u);
}

TEST(MitraStatelessGatewayTest, StatefulMitraLosesStateOnReboot) {
  // Contrast test: the SAME reboot scenario with plain Mitra silently
  // loses searchability (counters lived in the dead gateway's memory/store)
  // — exactly the operational problem the stateless variant removes.
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  const Bytes master(32, 8);
  core::TacticRegistry registry;
  core::register_builtin_tactics(registry);

  {
    kms::KeyManager kms(master);
    store::KvStore local;  // dies with this scope
    core::Gateway gw(rpc, kms, local, registry, {});
    gw.register_schema(name_schema());
    ASSERT_EQ(gw.plan("people").fields.at("name").eq_tactic, "Mitra");
    Document d;
    d.set("name", Value("alice"));
    gw.insert("people", d);
    EXPECT_EQ(gw.equality_search("people", "name", Value("alice")).size(), 1u);
  }

  kms::KeyManager kms(master);
  store::KvStore local;
  core::Gateway rebooted(rpc, kms, local, registry, {});
  rebooted.register_schema(name_schema());
  // The cloud still holds the entry, but the fresh gateway's counter is 0:
  // it cannot derive any search addresses.
  EXPECT_EQ(rebooted.equality_search("people", "name", Value("alice")).size(), 0u);
}

TEST(MitraStatelessGatewayTest, DeleteThroughMiddleware) {
  core::CloudNode cloud;
  net::Channel channel;
  net::RpcClient rpc(cloud.rpc(), channel);
  kms::KeyManager kms;
  store::KvStore local;
  const core::TacticRegistry registry = stateless_registry();
  core::Gateway gw(rpc, kms, local, registry, {});
  gw.register_schema(name_schema());

  Document d;
  d.set("name", Value("carol"));
  const DocId id = gw.insert("people", d);
  EXPECT_EQ(gw.equality_search("people", "name", Value("carol")).size(), 1u);
  gw.remove("people", id);
  EXPECT_EQ(gw.equality_search("people", "name", Value("carol")).size(), 0u);
}

}  // namespace
}  // namespace datablinder
