// dblint rule tests: every rule (R1–R13, minus the retired R8) must fire on
// a bad fixture, stay quiet on the matching good fixture, honour
// `// dblint:allow(<rule>)` / `// dblint:allow-fn(<rule>)` escapes, and —
// via DBLINT_REPO_ROOT — report the real tree clean. The taint engine,
// facts cache, and SARIF writer are covered here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "cache.hpp"
#include "flow.hpp"
#include "index.hpp"
#include "leakage_pass.hpp"
#include "lint.hpp"
#include "sarif.hpp"

namespace dblint {
namespace {

bool has_rule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

int line_of(const std::vector<Diagnostic>& diags, const std::string& rule) {
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) return d.line;
  }
  return -1;
}

// --- R1: ct-compare --------------------------------------------------------

TEST(DblintCtCompare, FlagsMemcmp) {
  const std::string bad =
      "bool check(const Bytes& a, const Bytes& b) {\n"
      "  return memcmp(a.data(), b.data(), a.size()) == 0;\n"
      "}\n";
  const auto diags = lint_file("src/core/x.cpp", bad);
  EXPECT_TRUE(has_rule(diags, "ct-compare"));
  EXPECT_EQ(line_of(diags, "ct-compare"), 2);
}

TEST(DblintCtCompare, FlagsEqualityOnSecretNamedBuffer) {
  EXPECT_TRUE(has_rule(lint_file("src/core/x.cpp", "if (auth_tag == expected) fail();\n"),
                       "ct-compare"));
  EXPECT_TRUE(has_rule(lint_file("src/core/x.cpp", "if (computed != mac_) reject();\n"),
                       "ct-compare"));
  EXPECT_TRUE(has_rule(lint_file("src/core/x.cpp",
                                 "bool same = std::equal(t.begin(), t.end(),\n"
                                 "                       search_token.begin());\n"),
                       "ct-compare"));
}

TEST(DblintCtCompare, SizeComparisonAndBenignNamesPass) {
  // .size() on a token buffer is public metadata; `keyword` is not `key`.
  EXPECT_FALSE(has_rule(
      lint_file("src/core/x.cpp", "if (det_token.size() == onion.size()) go();\n"),
      "ct-compare"));
  EXPECT_FALSE(has_rule(lint_file("src/core/x.cpp", "if (keyword == other) go();\n"),
                        "ct-compare"));
  EXPECT_FALSE(has_rule(
      lint_file("src/core/x.cpp", "bool operator==(const Token& o) const = default;\n"),
      "ct-compare"));
}

TEST(DblintCtCompare, AllowEscapeSuppresses) {
  const std::string escaped =
      "if (det_token == label) {  // dblint:allow(ct-compare): public label\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_file("src/core/x.cpp", escaped), "ct-compare"));
  // The marker may also sit on the line above.
  const std::string above =
      "// dblint:allow(ct-compare): public label\n"
      "if (det_token == label) go();\n";
  EXPECT_FALSE(has_rule(lint_file("src/core/x.cpp", above), "ct-compare"));
  // An escape for a DIFFERENT rule does not suppress.
  const std::string wrong_rule =
      "if (det_token == label) {  // dblint:allow(rng): unrelated\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_file("src/core/x.cpp", wrong_rule), "ct-compare"));
}

// --- R2: rng ---------------------------------------------------------------

TEST(DblintRng, FlagsWeakRngInCryptoDirs) {
  for (const char* path : {"src/crypto/x.cpp", "src/kms/x.cpp", "src/ppe/x.cpp",
                           "src/sse/x.cpp", "src/phe/x.cpp"}) {
    EXPECT_TRUE(has_rule(lint_file(path, "DetRng rng(42);\n"), "rng")) << path;
    EXPECT_TRUE(has_rule(lint_file(path, "std::mt19937_64 gen(seed);\n"), "rng")) << path;
    EXPECT_TRUE(has_rule(lint_file(path, "int r = rand();\n"), "rng")) << path;
  }
}

TEST(DblintRng, UnrestrictedDirsAndSecureRngPass) {
  // Simulation/workload directories may use deterministic randomness.
  EXPECT_FALSE(has_rule(lint_file("src/net/channel.cpp", "std::mt19937_64 rng_(s);\n"), "rng"));
  EXPECT_FALSE(has_rule(lint_file("src/workload/scenarios.cpp", "DetRng rng(7);\n"), "rng"));
  EXPECT_FALSE(has_rule(lint_file("src/crypto/x.cpp", "SecureRng rng;\n"), "rng"));
}

TEST(DblintRng, AllowEscapeSuppresses) {
  const std::string escaped =
      "DetRng rng(read_be64(seed));  // dblint:allow(rng): PRF-seeded permutation\n";
  EXPECT_FALSE(has_rule(lint_file("src/ppe/x.cpp", escaped), "rng"));
}

TEST(DblintRng, CommentMentionsDoNotFire) {
  EXPECT_FALSE(has_rule(lint_file("src/crypto/x.cpp", "// never use rand() here\n"), "rng"));
  EXPECT_FALSE(
      has_rule(lint_file("src/crypto/x.cpp", "const char* s = \"mt19937\";\n"), "rng"));
}

// --- R3: expose ------------------------------------------------------------

TEST(DblintExpose, FlagsOutsideKernel) {
  const std::string bad = "Bytes raw(key.expose_secret().begin(), key.expose_secret().end());\n";
  EXPECT_TRUE(has_rule(lint_file("src/core/gateway.cpp", bad), "expose"));
  EXPECT_TRUE(has_rule(lint_file("src/workload/scenarios.cpp", bad), "expose"));
  EXPECT_TRUE(has_rule(lint_file("tests/gateway_test.cpp", bad), "expose"));
  // Headers are not kernel files even inside crypto dirs: unwrapping
  // belongs in translation units.
  EXPECT_TRUE(has_rule(lint_file("src/ppe/det.hpp", bad), "expose"));
}

TEST(DblintExpose, KernelAllowlistPasses) {
  const std::string unwrap = "return prf(key.expose_secret(), input);\n";
  for (const char* path :
       {"src/crypto/prf.cpp", "src/crypto/aes.cpp",
        "src/ppe/ope.cpp", "src/sse/mitra.cpp", "src/phe/paillier.cpp",
        "src/common/secret.cpp"}) {
    EXPECT_FALSE(has_rule(lint_file(path, unwrap), "expose")) << path;
  }
  // The flow-engine audit shrank the allowlist: kms/ and core/ are not
  // blanket-exempt — their reviewed unwraps carry inline escapes.
  for (const char* path : {"src/kms/key_manager.cpp", "src/core/cost_model.cpp"}) {
    EXPECT_TRUE(has_rule(lint_file(path, unwrap), "expose")) << path;
  }
}

TEST(DblintExpose, AllowEscapeSuppresses) {
  const std::string escaped =
      "auto v = key.expose_secret();  // dblint:allow(expose): reviewed disclosure\n";
  EXPECT_FALSE(has_rule(lint_file("src/core/gateway.cpp", escaped), "expose"));
}

// --- R10: secret-cache -----------------------------------------------------

TEST(DblintSecretCache, FlagsSecretFlowingIntoCacheContainer) {
  // An ordinary map keeps the plaintext alive after "deletion": no wipe.
  const std::string bad =
      "void remember(const SecretBytes& key) {\n"
      "  label_cache[scope] = Bytes(key.expose_secret().begin(),\n"
      "                             key.expose_secret().end());\n"
      "}\n";
  // Kernel files may expose, but caching the product is still R10.
  const auto diags = lint_file("src/sse/mitra.cpp", bad);
  EXPECT_FALSE(has_rule(diags, "expose"));  // kernel allowlist covers R3
  EXPECT_TRUE(has_rule(diags, "secret-cache"));
  EXPECT_EQ(line_of(diags, "secret-cache"), 2);
  EXPECT_TRUE(has_rule(
      lint_file("src/ppe/det.cpp",
                "trapdoor_cache.emplace(kw, token.expose_secret());\n"),
      "secret-cache"));
}

TEST(DblintSecretCache, NoPathIsExemptAndUnrelatedStatementsPass) {
  // No file is a sanctioned cache any more: core/ (which once held the
  // exempt gateway cache), kms/ and the crypto kernel are all flagged.
  const std::string cached = "doc_cache[id] = key.expose_secret();\n";
  for (const char* path : {"src/core/gateway.cpp", "src/core/cost_model.hpp",
                           "src/kms/key_manager.cpp", "src/crypto/prf.cpp"}) {
    EXPECT_TRUE(has_rule(lint_file(path, cached), "secret-cache")) << path;
  }
  // expose without a cache container, and caches without secrets, pass.
  EXPECT_FALSE(has_rule(
      lint_file("src/crypto/prf.cpp", "return prf(key.expose_secret(), in);\n"),
      "secret-cache"));
  EXPECT_FALSE(has_rule(
      lint_file("src/core/x.cpp", "score_cache[v] = public_score(v);\n"),
      "secret-cache"));
}

TEST(DblintSecretCache, AllowEscapeSuppresses) {
  const std::string escaped =
      "mont_cache[n] = ctx.expose_secret();  "
      "// dblint:allow(secret-cache): public modulus context\n";
  EXPECT_FALSE(has_rule(lint_file("src/phe/paillier.cpp", escaped), "secret-cache"));
}

// --- R4: log-secret --------------------------------------------------------

TEST(DblintLogSecret, FlagsSecretsInLogStatements) {
  EXPECT_TRUE(has_rule(
      lint_file("src/core/x.cpp", "DB_LOG_INFO << \"key: \" << master_key;\n"), "log-secret"));
  EXPECT_TRUE(has_rule(
      lint_file("src/core/x.cpp", "log_line(LogLevel::kDebug, to_hex(prk));\n"), "log-secret"));
  // Multi-line statements are scanned to the terminating ';'.
  const std::string multiline =
      "DB_LOG_WARN << \"rotating scope \" << scope\n"
      "            << \" old=\" << old_secret;\n";
  const auto diags = lint_file("src/core/x.cpp", multiline);
  EXPECT_TRUE(has_rule(diags, "log-secret"));
  EXPECT_EQ(line_of(diags, "log-secret"), 1);  // reported at the DB_LOG line
  EXPECT_TRUE(has_rule(
      lint_file("src/core/x.cpp", "DB_LOG_DEBUG << k.expose_secret().size();\n"),
      "log-secret"));
}

TEST(DblintLogSecret, BenignLogsPass) {
  EXPECT_FALSE(has_rule(
      lint_file("src/core/x.cpp",
                "DB_LOG_INFO << \"policy: \" << s.name() << \".\" << field;\n"),
      "log-secret"));
  EXPECT_FALSE(has_rule(
      lint_file("src/core/x.cpp", "DB_LOG_DEBUG << \"keyword \" << keyword;\n"), "log-secret"));
}

TEST(DblintLogSecret, AllowEscapeSuppresses) {
  const std::string escaped =
      "DB_LOG_DEBUG << fingerprint_of(key);  // dblint:allow(log-secret): hashed\n";
  EXPECT_FALSE(has_rule(lint_file("src/core/x.cpp", escaped), "log-secret"));
}

// --- R5: layering ----------------------------------------------------------

std::vector<FileInput> with_common_header(FileInput f) {
  return {std::move(f), {"src/common/bytes.hpp", "#pragma once\n"}};
}

TEST(DblintLayering, CommonMustNotIncludeCore) {
  const auto diags = lint_include_graph(
      with_common_header({"src/common/util.hpp", "#include \"core/gateway.hpp\"\n"}));
  ASSERT_TRUE(has_rule(diags, "layering"));
  EXPECT_EQ(line_of(diags, "layering"), 1);
}

TEST(DblintLayering, LowerLayersMustNotReachUp) {
  EXPECT_TRUE(has_rule(
      lint_include_graph({{"src/crypto/aes.cpp", "#include \"kms/key_manager.hpp\"\n"}}),
      "layering"));
  EXPECT_TRUE(has_rule(
      lint_include_graph({{"src/sse/mitra.cpp", "#include \"core/policy.hpp\"\n"}}),
      "layering"));
}

TEST(DblintLayering, TacticsMustUseSchemeSurfacesNotCrypto) {
  const auto diags = lint_include_graph(
      {{"src/core/tactics/det_tactic.cpp", "#include \"crypto/gcm.hpp\"\n"}});
  ASSERT_TRUE(has_rule(diags, "layering"));
  // Non-tactics core code MAY include crypto (e.g. the exec runtime).
  EXPECT_FALSE(has_rule(
      lint_include_graph({{"src/core/exec/runtime.hpp", "#include \"crypto/gcm.hpp\"\n"}}),
      "layering"));
}

TEST(DblintLayering, DownwardIncludesPass) {
  EXPECT_FALSE(has_rule(
      lint_include_graph({{"src/core/gateway.cpp",
                           "#include \"common/bytes.hpp\"\n#include \"sse/mitra.hpp\"\n"}}),
      "layering"));
  EXPECT_FALSE(has_rule(
      lint_include_graph({{"src/sse/mitra.cpp", "#include \"crypto/prf.hpp\"\n"}}),
      "layering"));
}

TEST(DblintLayering, DetectsIncludeCycles) {
  const auto diags = lint_include_graph({
      {"src/sse/a.hpp", "#include \"sse/b.hpp\"\n"},
      {"src/sse/b.hpp", "#include \"sse/a.hpp\"\n"},
  });
  ASSERT_TRUE(has_rule(diags, "layering"));
  bool mentions_cycle = false;
  for (const auto& d : diags) {
    if (d.message.find("cycle") != std::string::npos) mentions_cycle = true;
  }
  EXPECT_TRUE(mentions_cycle);
}

TEST(DblintLayering, AllowEscapeSuppresses) {
  const auto diags = lint_include_graph(
      {{"src/common/util.hpp",
        "#include \"core/gateway.hpp\"  // dblint:allow(layering): transitional\n"}});
  EXPECT_FALSE(has_rule(diags, "layering"));
}

// --- R6: unchecked-status --------------------------------------------------

// The Status signature can come from any file in the indexed set, the way
// src/common/status.hpp declares it for the real tree.
const FileInput kStatusHeader{"src/store/s.hpp",
                              "Status sync();\nResult<int> fetch();\n"};

TEST(DblintUncheckedStatus, FlagsDiscardedStatementCall) {
  const auto diags =
      lint_indexed({kStatusHeader, {"src/store/s.cpp", "void f() {\n  sync();\n}\n"}});
  ASSERT_TRUE(has_rule(diags, "unchecked-status"));
  EXPECT_EQ(line_of(diags, "unchecked-status"), 2);
}

TEST(DblintUncheckedStatus, FlagsMemberChainAndBranchBodyDiscards) {
  EXPECT_TRUE(has_rule(
      lint_indexed({kStatusHeader,
                    {"src/store/s.cpp", "void f() {\n  store_.sync();\n}\n"}}),
      "unchecked-status"));
  // `if (x) chain.f();` is still a discard.
  EXPECT_TRUE(has_rule(
      lint_indexed({kStatusHeader,
                    {"src/store/s.cpp", "void f() {\n  if (dirty) sync();\n}\n"}}),
      "unchecked-status"));
  // Result<T> counts too.
  EXPECT_TRUE(has_rule(
      lint_indexed({kStatusHeader,
                    {"src/store/s.cpp", "void f() {\n  fetch();\n}\n"}}),
      "unchecked-status"));
}

TEST(DblintUncheckedStatus, ConsumedResultsPass) {
  for (const char* body : {
           "void f() {\n  Status s = sync();\n  (void)s;\n}\n",
           "void f() {\n  sync().throw_if_error();\n}\n",
           "bool f() {\n  return sync().ok();\n}\n",
           "void f() {\n  if (!sync().ok()) retry();\n}\n",
       }) {
    EXPECT_FALSE(has_rule(lint_indexed({kStatusHeader, {"src/store/s.cpp", body}}),
                          "unchecked-status"))
        << body;
  }
  // Non-Status callees discard freely.
  EXPECT_FALSE(has_rule(
      lint_indexed({kStatusHeader, {"src/store/s.cpp", "void f() {\n  log();\n}\n"}}),
      "unchecked-status"));
}

TEST(DblintUncheckedStatus, VoidCastAndAllowEscapeMarkDeliberateDiscards) {
  EXPECT_FALSE(has_rule(
      lint_indexed({kStatusHeader,
                    {"src/store/s.cpp",
                     "void f() {\n  // completion loss only replays\n  (void)sync();\n}\n"}}),
      "unchecked-status"));
  EXPECT_FALSE(has_rule(
      lint_indexed(
          {kStatusHeader,
           {"src/store/s.cpp",
            "void f() {\n  sync();  // dblint:allow(unchecked-status): fire-and-forget\n}\n"}}),
      "unchecked-status"));
}

// --- R7: lock-discipline ---------------------------------------------------

TEST(DblintLockDiscipline, FlagsRawLockAndUnlock) {
  const auto diags = lint_indexed(
      {{"src/store/a.cpp",
        "void KvStore::f() {\n  mutex_.lock();\n  work();\n  mutex_.unlock();\n}\n"}});
  ASSERT_TRUE(has_rule(diags, "lock-discipline"));
  EXPECT_EQ(line_of(diags, "lock-discipline"), 2);
  EXPECT_TRUE(has_rule(
      lint_indexed({{"src/store/a.cpp", "void f() {\n  mu_->try_lock();\n}\n"}}),
      "lock-discipline"));
}

TEST(DblintLockDiscipline, RaiiGuardsPass) {
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/store/a.cpp",
                     "void KvStore::f() {\n  std::lock_guard<std::mutex> lock(mutex_);\n"
                     "  work();\n}\n"}}),
      "lock-discipline"));
}

TEST(DblintLockDiscipline, ReportsLockOrderCycle) {
  const auto diags = lint_indexed(
      {{"src/store/a.cpp",
        "void Store::f() {\n"
        "  std::lock_guard<std::mutex> g1(a_);\n"
        "  std::lock_guard<std::mutex> g2(b_);\n"
        "}\n"
        "void Store::g() {\n"
        "  std::lock_guard<std::mutex> g1(b_);\n"
        "  std::lock_guard<std::mutex> g2(a_);\n"
        "}\n"}});
  ASSERT_TRUE(has_rule(diags, "lock-discipline"));
  bool mentions_cycle = false;
  for (const auto& d : diags) {
    if (d.message.find("lock-order cycle") != std::string::npos) mentions_cycle = true;
  }
  EXPECT_TRUE(mentions_cycle);
}

TEST(DblintLockDiscipline, ConsistentOrderAndScopedScopesPass) {
  // Same order everywhere: no cycle.
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/store/a.cpp",
                     "void Store::f() {\n"
                     "  std::lock_guard<std::mutex> g1(a_);\n"
                     "  std::lock_guard<std::mutex> g2(b_);\n"
                     "}\n"
                     "void Store::g() {\n"
                     "  std::lock_guard<std::mutex> g1(a_);\n"
                     "  std::lock_guard<std::mutex> g2(b_);\n"
                     "}\n"}}),
      "lock-discipline"));
  // Sequential (non-nested) scopes impose no order.
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/store/a.cpp",
                     "void Store::f() {\n"
                     "  { std::lock_guard<std::mutex> g(a_); }\n"
                     "  { std::lock_guard<std::mutex> g(b_); }\n"
                     "}\n"
                     "void Store::g() {\n"
                     "  { std::lock_guard<std::mutex> g(b_); }\n"
                     "  { std::lock_guard<std::mutex> g(a_); }\n"
                     "}\n"}}),
      "lock-discipline"));
}

TEST(DblintLockDiscipline, MemberMutexesAreClassQualified) {
  // Two classes both nest `mutex_` against the same global — opposite
  // textual order, but distinct nodes once qualified: no cycle.
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/store/a.cpp",
                     "void KvStore::f() {\n"
                     "  std::lock_guard<std::mutex> g(mutex_);\n"
                     "  std::lock_guard<std::mutex> h(g_mu);\n"
                     "}\n"},
                    {"src/doc/b.cpp",
                     "void DocStore::f() {\n"
                     "  std::lock_guard<std::mutex> g(g_mu);\n"
                     "  std::lock_guard<std::mutex> h(mutex_);\n"
                     "}\n"}}),
      "lock-discipline"));
}

TEST(DblintLockDiscipline, AllowEscapeSuppresses) {
  EXPECT_FALSE(has_rule(
      lint_indexed(
          {{"src/store/a.cpp",
            "void f() {\n  mu_.lock();  // dblint:allow(lock-discipline): handoff\n}\n"}}),
      "lock-discipline"));
}

// --- R11: secret-egress (interprocedural taint) ----------------------------

TEST(DblintSecretEgress, FlagsPlaintextAccessorAtEgress) {
  const auto diags = lint_indexed(
      {{"src/core/gateway.cpp",
        "void Gateway::f(const Value& v) {\n"
        "  cloud_.call(m, v.as_string());\n"
        "}\n"}});
  ASSERT_TRUE(has_rule(diags, "secret-egress"));
  EXPECT_EQ(line_of(diags, "secret-egress"), 2);
}

TEST(DblintSecretEgress, FlagsExposedSecretThroughLocal) {
  const auto diags = lint_indexed(
      {{"src/core/gateway.cpp",
        "void Gateway::f(const SecretBytes& key) {\n"
        "  const Bytes raw(key.expose_secret());\n"
        "  chan_.send_batch(raw);\n"
        "}\n"}});
  ASSERT_TRUE(has_rule(diags, "secret-egress"));
  EXPECT_EQ(line_of(diags, "secret-egress"), 3);
  // The trace walks source -> sink.
  for (const auto& d : diags) {
    if (d.rule != "secret-egress") continue;
    ASSERT_GE(d.trace.size(), 2u);
    EXPECT_NE(d.trace.front().note.find("expose_secret"), std::string::npos);
    EXPECT_NE(d.trace.back().note.find("send_batch"), std::string::npos);
  }
}

TEST(DblintSecretEgress, FlagsTaintedLogEntryConstruction) {
  // Writing plaintext into a replica LogEntry is egress: the log replays to
  // every cloud replica.
  EXPECT_TRUE(has_rule(
      lint_indexed({{"src/net/replica_group.cpp",
                     "void G::f(const Value& v) {\n"
                     "  LogEntry entry = make_entry(v.as_string());\n"
                     "}\n"}}),
      "secret-egress"));
  // log_line is an egress sink for R11 too.
  EXPECT_TRUE(has_rule(
      lint_indexed({{"src/core/gateway.cpp",
                     "void G::f(const SecretBytes& k) {\n"
                     "  log_.log_line(kDebug, k.expose_secret());\n"
                     "}\n"}}),
      "secret-egress"));
}

TEST(DblintSecretEgress, CatchesCrossFunctionLeakWithFullTrace) {
  // The planted leak: a secret crosses TWO translation units through a
  // helper before hitting the wire. The trace must show every hop.
  const auto diags = lint_indexed(
      {{"src/core/helpers.cpp",
        "Bytes reveal(const SecretBytes& key) {\n"
        "  return Bytes(key.expose_secret());\n"
        "}\n"},
       {"src/core/shipper.cpp",
        "void Shipper::ship(const SecretBytes& key) {\n"
        "  chan_.send_batch(reveal(key));\n"
        "}\n"}});
  ASSERT_TRUE(has_rule(diags, "secret-egress"));
  bool traced = false;
  for (const auto& d : diags) {
    if (d.rule != "secret-egress" || d.file != "src/core/shipper.cpp") continue;
    ASSERT_GE(d.trace.size(), 3u);
    bool has_source = false, has_hop = false, has_sink = false;
    for (const auto& step : d.trace) {
      if (step.file == "src/core/helpers.cpp" &&
          step.note.find("expose_secret") != std::string::npos) {
        has_source = true;
      }
      if (step.note.find("reveal") != std::string::npos) has_hop = true;
      if (step.note.find("send_batch") != std::string::npos) has_sink = true;
    }
    EXPECT_TRUE(has_source) << format(d);
    EXPECT_TRUE(has_hop) << format(d);
    EXPECT_TRUE(has_sink) << format(d);
    traced = true;
  }
  EXPECT_TRUE(traced);
}

TEST(DblintSecretEgress, SanitizedAndLaunderedFlowsPass) {
  // An inline crypto-kernel sanitizer cleanses in the same statement.
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/core/gateway.cpp",
                     "void G::f(const Value& v) {\n"
                     "  cloud_.call(m, encrypt_value(key_, v.as_string()));\n"
                     "}\n"}}),
      "secret-egress"));
  // Summary-driven laundering: the callee PRFs its argument internally, so
  // the engine proves the plaintext never reaches the wire raw.
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/sse/labels.cpp",
                     "Bytes seal_label(const Bytes& kw) {\n"
                     "  return prf_labeled(key_, kw);\n"
                     "}\n"},
                    {"src/core/gateway.cpp",
                     "void G::put(const Value& v) {\n"
                     "  cloud_.call(m, seal_label(v.as_string()));\n"
                     "}\n"}}),
      "secret-egress"));
  // Sealed identifiers with no taint source pass.
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/core/gateway.cpp",
                     "void G::f() {\n  cloud_.call(m, sealed_blob_);\n}\n"}}),
      "secret-egress"));
}

TEST(DblintSecretEgress, WorkloadIsOutOfScopeAndEscapesSuppress) {
  const std::string body =
      "void f(const Value& v) {\n  cloud_.call(m, v.as_string());\n}\n";
  EXPECT_FALSE(has_rule(lint_indexed({{"src/workload/scenarios.cpp", body}}),
                        "secret-egress"));
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/core/gateway.cpp",
                     "void f(const Value& v) {\n"
                     "  // dblint:allow(secret-egress): public routing key\n"
                     "  cloud_.call(m, v.as_string());\n}\n"}}),
      "secret-egress"));
  // allow-fn on the signature covers the whole body.
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/core/gateway.cpp",
                     "// dblint:allow-fn(secret-egress): modelled disclosure\n"
                     "void f(const Value& v) {\n"
                     "  cloud_.call(m, v.as_string());\n}\n"}}),
      "secret-egress"));
}

// --- R12: wipe-on-all-paths ------------------------------------------------

TEST(DblintWipeOnAllPaths, FlagsNeverWipedRawCopy) {
  const auto diags = lint_indexed(
      {{"src/crypto/kernel.cpp",
        "void f(const SecretBytes& k) {\n"
        "  Bytes raw(k.expose_secret());\n"
        "  use(raw);\n"
        "}\n"}});
  ASSERT_TRUE(has_rule(diags, "wipe-on-all-paths"));
  EXPECT_EQ(line_of(diags, "wipe-on-all-paths"), 2);
}

TEST(DblintWipeOnAllPaths, FlagsEarlyReturnBeforeWipe) {
  EXPECT_TRUE(has_rule(
      lint_indexed({{"src/crypto/kernel.cpp",
                     "Bytes f(const SecretBytes& k) {\n"
                     "  std::string tmp(k.expose_secret().begin(), k.expose_secret().end());\n"
                     "  if (!valid_) return {};\n"
                     "  secure_wipe(tmp);\n"
                     "  return out_;\n"
                     "}\n"}}),
      "wipe-on-all-paths"));
}

TEST(DblintWipeOnAllPaths, FlagsThrowPathBeforeWipe) {
  EXPECT_TRUE(has_rule(
      lint_indexed({{"src/crypto/kernel.cpp",
                     "void f(const SecretBytes& k) {\n"
                     "  Bytes raw(k.expose_secret());\n"
                     "  if (bad_) throw_error(ErrorCode::kInternal, \"x\");\n"
                     "  secure_wipe(raw);\n"
                     "}\n"}}),
      "wipe-on-all-paths"));
}

TEST(DblintWipeOnAllPaths, WipedAndAdoptedCopiesPass) {
  // secure_wipe before the only exit.
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/crypto/kernel.cpp",
                     "void f(const SecretBytes& k) {\n"
                     "  Bytes raw(k.expose_secret());\n"
                     "  use(raw);\n"
                     "  secure_wipe(raw);\n"
                     "}\n"}}),
      "wipe-on-all-paths"));
  // Adoption into SecretBytes wipes the source buffer.
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/crypto/kernel.cpp",
                     "void f(const SecretBytes& k) {\n"
                     "  Bytes raw(k.expose_secret());\n"
                     "  SecretBytes owned(raw);\n"
                     "}\n"}}),
      "wipe-on-all-paths"));
  // Non-owning views and non-secret buffers are out of scope.
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/crypto/kernel.cpp",
                     "void f(const SecretBytes& k) {\n"
                     "  BytesView v = k.expose_secret();\n"
                     "  Bytes plain = to_bytes(label);\n"
                     "}\n"}}),
      "wipe-on-all-paths"));
}

TEST(DblintWipeOnAllPaths, AllowEscapeSuppresses) {
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/crypto/kernel.cpp",
                     "void f(const SecretBytes& k) {\n"
                     "  // dblint:allow(wipe-on-all-paths): caller wipes\n"
                     "  Bytes raw(k.expose_secret());\n"
                     "}\n"}}),
      "wipe-on-all-paths"));
}

// --- R13: lock-held-egress -------------------------------------------------

TEST(DblintLockHeldEgress, FlagsDirectEgressUnderLock) {
  const auto diags = lint_indexed(
      {{"src/net/pool.cpp",
        "void Pool::f() {\n"
        "  std::lock_guard<std::mutex> lock(mu_);\n"
        "  chan_.call(m, wire_);\n"
        "}\n"}});
  ASSERT_TRUE(has_rule(diags, "lock-held-egress"));
  EXPECT_EQ(line_of(diags, "lock-held-egress"), 3);
}

TEST(DblintLockHeldEgress, FlagsSendBatchUnderScopedLock) {
  EXPECT_TRUE(has_rule(
      lint_indexed({{"src/net/pool.cpp",
                     "void Pool::f() {\n"
                     "  std::scoped_lock guard(mu_);\n"
                     "  chan_.send_batch(buf_);\n"
                     "}\n"}}),
      "lock-held-egress"));
}

TEST(DblintLockHeldEgress, FlagsTransitiveEgressThroughCallee) {
  const auto diags = lint_indexed(
      {{"src/net/pool.cpp",
        "void Pool::flush() {\n"
        "  chan_.send_batch(buf_);\n"
        "}\n"
        "void Pool::tick() {\n"
        "  std::lock_guard<std::mutex> g(mu_);\n"
        "  flush();\n"
        "}\n"}});
  ASSERT_TRUE(has_rule(diags, "lock-held-egress"));
  EXPECT_EQ(line_of(diags, "lock-held-egress"), 6);
  for (const auto& d : diags) {
    if (d.rule != "lock-held-egress") continue;
    // The trace continues into the callee's own egress site.
    ASSERT_GE(d.trace.size(), 2u);
    EXPECT_NE(d.trace.back().note.find("send_batch"), std::string::npos);
  }
}

TEST(DblintLockHeldEgress, EgressOutsideGuardScopePasses) {
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/net/pool.cpp",
                     "void Pool::f() {\n"
                     "  {\n"
                     "    std::lock_guard<std::mutex> g(mu_);\n"
                     "    buf_ = prep();\n"
                     "  }\n"
                     "  chan_.call(m, buf_);\n"
                     "}\n"}}),
      "lock-held-egress"));
}

TEST(DblintLockHeldEgress, WorkloadIsOutOfScope) {
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/workload/driver.cpp",
                     "void D::f() {\n"
                     "  std::lock_guard<std::mutex> g(mu_);\n"
                     "  chan_.call(m, wire_);\n"
                     "}\n"}}),
      "lock-held-egress"));
}

TEST(DblintLockHeldEgress, AllowFnEscapeSuppressesWholeBody) {
  EXPECT_FALSE(has_rule(
      lint_indexed({{"src/net/pool.cpp",
                     "// dblint:allow-fn(lock-held-egress): in-process replay\n"
                     "void Pool::f() {\n"
                     "  std::lock_guard<std::mutex> g(mu_);\n"
                     "  chan_.call(m, a_);\n"
                     "  chan_.call(m, b_);\n"
                     "}\n"}}),
      "lock-held-egress"));
}

// --- Call graph and function summaries -------------------------------------

TEST(DblintFlowSummaries, CrossTuSummariesCompose) {
  const RepoIndex index = build_index(
      {{"src/core/helpers.cpp",
        "Bytes reveal(const SecretBytes& key) {\n"
        "  return Bytes(key.expose_secret());\n"
        "}\n"},
       {"src/core/shipper.cpp",
        "void Shipper::ship(const Chan& chan, const SecretBytes& key) {\n"
        "  chan_.send_batch(reveal(key));\n"
        "}\n"}});
  const auto summaries = flow_summaries(index);
  const FlowSummary* reveal = nullptr;
  const FlowSummary* ship = nullptr;
  for (const auto& s : summaries) {
    if (s.qualified == "reveal") reveal = &s;
    if (s.qualified == "Shipper::ship") ship = &s;
  }
  ASSERT_NE(reveal, nullptr);
  ASSERT_NE(ship, nullptr);
  EXPECT_TRUE(reveal->returns_secret);
  EXPECT_TRUE(reveal->params_to_return.count(0) > 0);
  EXPECT_FALSE(reveal->reaches_egress);
  EXPECT_TRUE(ship->reaches_egress);
  // key (param 1) flows into the sink via reveal's summary.
  EXPECT_TRUE(ship->params_to_sink.count(1) > 0);
}

TEST(DblintFlowSummaries, SanitizerLaundersParamInSummary) {
  const RepoIndex index = build_index(
      {{"src/sse/labels.cpp",
        "Bytes seal_label(const Bytes& kw) {\n"
        "  return prf_labeled(key_, kw);\n"
        "}\n"}});
  const auto summaries = flow_summaries(index);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_FALSE(summaries[0].returns_secret);
  EXPECT_TRUE(summaries[0].params_to_return.empty());
  EXPECT_TRUE(summaries[0].params_to_sink.empty());
}

TEST(DblintFlowSummaries, SanctionedFlowsAreInventoried) {
  const RepoIndex index = build_index(
      {{"src/core/gateway.cpp",
        "void G::put(const Value& v) {\n"
        "  cloud_.call(m, encrypt_value(key_, v.as_string()));\n"
        "}\n"}});
  const FlowAnalysis analysis = analyze_flows(index);
  EXPECT_TRUE(analysis.diagnostics.empty());
  bool found = false;
  for (const auto& f : analysis.sanctioned) {
    if (f.function == "G::put" && f.sanitizer == "encrypt_value") found = true;
  }
  EXPECT_TRUE(found);
  // The markdown table is deterministic and row-per-flow.
  const std::string md = secret_flows_markdown(analysis.sanctioned);
  EXPECT_NE(md.find("| File | Function | Sanitizer | Source |"), std::string::npos);
  EXPECT_NE(md.find("G::put"), std::string::npos);
}

// --- R9: leakage-conformance -----------------------------------------------

std::string tactic_src(const std::string& cls, const std::string& op,
                       const std::string& leak) {
  return "TacticDescriptor t;\n"
         "t.name = \"FIX\";\n"
         "t.protection_class = schema::ProtectionClass::" + cls + ";\n"
         "t.operations = {\n"
         "    {TacticOperation::" + op + ", {LeakageLevel::" + leak + ", \"O(1)\", 1}},\n"
         "};\n";
}

TEST(DblintLeakage, FlagsQueryLeakageAboveClassCeiling) {
  // A Class2 (identifiers) tactic whose search leaks equalities is
  // mis-registered — the same fixture the runtime registry test rejects.
  const auto diags = lint_leakage_conformance(
      {{"src/core/tactics/evil_tactic.cpp",
        tactic_src("kClass2", "kEqualitySearch", "kEqualities")}});
  ASSERT_TRUE(has_rule(diags, "leakage-conformance"));
  EXPECT_EQ(line_of(diags, "leakage-conformance"), 5);  // the declaring row
}

TEST(DblintLeakage, CeilingRespectsOperationFamilies) {
  // Query ops are bounded exactly by the class rung.
  EXPECT_FALSE(has_rule(
      lint_leakage_conformance({{"src/core/tactics/a_tactic.cpp",
                                 tactic_src("kClass2", "kEqualitySearch", "kIdentifiers")}}),
      "leakage-conformance"));
  // Update-pattern equality leakage is tolerated for Class2..4 (the
  // stateless-Mitra shape) but not for Class1 (forward privacy).
  EXPECT_FALSE(has_rule(
      lint_leakage_conformance({{"src/core/tactics/a_tactic.cpp",
                                 tactic_src("kClass2", "kInsert", "kEqualities")}}),
      "leakage-conformance"));
  EXPECT_TRUE(has_rule(
      lint_leakage_conformance({{"src/core/tactics/a_tactic.cpp",
                                 tactic_src("kClass1", "kInsert", "kEqualities")}}),
      "leakage-conformance"));
  // Init may never reveal more than structure, for any class.
  EXPECT_TRUE(has_rule(
      lint_leakage_conformance({{"src/core/tactics/a_tactic.cpp",
                                 tactic_src("kClass5", "kInit", "kIdentifiers")}}),
      "leakage-conformance"));
}

TEST(DblintLeakage, MissingDescriptorTableIsItselfAFinding) {
  EXPECT_TRUE(has_rule(
      lint_leakage_conformance({{"src/core/tactics/empty_tactic.cpp", "void f() {}\n"}}),
      "leakage-conformance"));
  // Only *_tactic.cpp files are in scope.
  EXPECT_FALSE(has_rule(
      lint_leakage_conformance({{"src/core/gateway.cpp", "void f() {}\n"}}),
      "leakage-conformance"));
}

TEST(DblintLeakage, AllowEscapeSuppresses) {
  std::string src = tactic_src("kClass2", "kEqualitySearch", "kEqualities");
  const std::string row = "{TacticOperation::kEqualitySearch,";
  src.replace(src.find(row), row.size(),
              "// dblint:allow(leakage-conformance): reviewed exception\n    " + row);
  EXPECT_FALSE(has_rule(
      lint_leakage_conformance({{"src/core/tactics/evil_tactic.cpp", src}}),
      "leakage-conformance"));
}

TEST(DblintLeakage, MatrixIsDeterministicAndCeilingDriven) {
  const std::vector<FileInput> files = {
      {"src/core/tactics/a_tactic.cpp",
       tactic_src("kClass2", "kEqualitySearch", "kIdentifiers")}};
  const std::string a = leakage_matrix_markdown(files);
  EXPECT_EQ(a, leakage_matrix_markdown(files));
  // One ceiling row straight out of schema::leakage_ceiling.
  EXPECT_NE(a.find("| equality_search | Structure | Identifiers | Predicates | "
                   "Equalities | Order |"),
            std::string::npos);
  // The declared profile, with its ceiling alongside.
  EXPECT_NE(a.find("| FIX | Class2 | equality_search | Identifiers | Identifiers |"),
            std::string::npos);
}

// --- Tokenizer: raw strings and line continuations -------------------------

TEST(DblintTokenizer, RawStringContentsDoNotFireRules) {
  // Without raw-literal handling the `)"` would desynchronize the string
  // state machine and the literal's body would be scanned as code.
  EXPECT_FALSE(has_rule(
      lint_file("src/crypto/x.cpp",
                "const char* doc = R\"(never call rand() or mt19937 here)\";\n"
                "SecureRng rng;\n"),
      "rng"));
  // Delimited form.
  EXPECT_FALSE(has_rule(
      lint_file("src/crypto/x.cpp",
                "const char* doc = R\"ml(seed = rand();)ml\";\n"),
      "rng"));
  // Code AFTER the closing delimiter is still scanned.
  EXPECT_TRUE(has_rule(
      lint_file("src/crypto/x.cpp",
                "const char* doc = R\"(text)\"; int r = rand();\n"),
      "rng"));
}

TEST(DblintTokenizer, BackslashContinuationExtendsLineComments) {
  // The preprocessor splices the next physical line into the comment; the
  // tokenizer must agree or the spliced line is scanned as code.
  EXPECT_FALSE(has_rule(lint_file("src/crypto/x.cpp",
                                  "// seed once \\\n"
                                  "rand();\n"),
                        "rng"));
  // Without the backslash the second line is real code.
  EXPECT_TRUE(has_rule(lint_file("src/crypto/x.cpp",
                                 "// seed once\n"
                                 "int r = rand();\n"),
                       "rng"));
}

// --- SARIF output ----------------------------------------------------------

TEST(DblintSarif, EmitsSchemaRulesAndResults) {
  Diagnostic d{"src/core/x.cpp", 7, "secret-egress", "plaintext reaches 'call'"};
  d.trace = {{"src/core/y.cpp", 3, "plaintext accessor"},
             {"src/core/x.cpp", 7, "reaches egress"}};
  const std::string sarif = to_sarif({d});
  EXPECT_NE(sarif.find("\"$schema\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"dblint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"secret-egress\""), std::string::npos);
  // The flow trace is exported as a codeFlow for code-scanning UIs.
  EXPECT_NE(sarif.find("\"codeFlows\""), std::string::npos);
  EXPECT_NE(sarif.find("plaintext accessor"), std::string::npos);
  // Every rule is declared in the driver table even with one result.
  EXPECT_NE(sarif.find("\"id\": \"ct-compare\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"lock-held-egress\""), std::string::npos);
}

TEST(DblintSarif, EmptyRunIsStillValid) {
  const std::string sarif = to_sarif({});
  EXPECT_NE(sarif.find("\"results\": ["), std::string::npos);
  EXPECT_EQ(sarif.find("\"ruleId\""), std::string::npos);  // no result objects
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
}

// --- Facts cache -----------------------------------------------------------

TEST(DblintCache, RoundTripsFileFacts) {
  const std::string path = "src/store/s.cpp";
  const std::string content =
      "// dblint:allow(rng): fixture\n"
      "Status KvStore::sync(int retries) {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  Status s = flush(retries);\n"
      "  return s;\n"
      "}\n"
      "#include \"common/bytes.hpp\"\n";
  const FileFacts facts = compute_file_facts(path, content);
  const std::string dir = ::testing::TempDir() + "/dblint-cache-rt";
  store_file_facts(dir, path, fnv1a64(content), facts);

  FileFacts loaded;
  ASSERT_TRUE(load_file_facts(dir, path, fnv1a64(content), &loaded));
  EXPECT_EQ(loaded.path, facts.path);
  EXPECT_EQ(loaded.status_names, facts.status_names);
  ASSERT_EQ(loaded.includes.size(), facts.includes.size());
  EXPECT_EQ(loaded.includes[0].target, facts.includes[0].target);
  ASSERT_EQ(loaded.index.functions.size(), facts.index.functions.size());
  const FunctionInfo& a = facts.index.functions[0];
  const FunctionInfo& b = loaded.index.functions[0];
  EXPECT_EQ(b.qualified, a.qualified);
  EXPECT_EQ(b.params, a.params);
  EXPECT_EQ(b.returns_status, a.returns_status);
  ASSERT_EQ(b.calls.size(), a.calls.size());
  for (std::size_t i = 0; i < a.calls.size(); ++i) {
    EXPECT_EQ(b.calls[i].callee, a.calls[i].callee);
    EXPECT_EQ(b.calls[i].args, a.calls[i].args);
    EXPECT_EQ(b.calls[i].held_mutexes, a.calls[i].held_mutexes);
  }
  ASSERT_EQ(b.stmts.size(), a.stmts.size());
  for (std::size_t i = 0; i < a.stmts.size(); ++i) {
    EXPECT_EQ(b.stmts[i].write_ident, a.stmts[i].write_ident);
    EXPECT_EQ(b.stmts[i].read_idents, a.stmts[i].read_idents);
    EXPECT_EQ(b.stmts[i].is_return, a.stmts[i].is_return);
  }
  // Allow markers survive.
  EXPECT_EQ(loaded.index.allows.size(), facts.index.allows.size());
}

TEST(DblintCache, RejectsStaleAndTruncatedEntries) {
  const std::string path = "src/store/s.cpp";
  const std::string content = "void f() {}\n";
  const FileFacts facts = compute_file_facts(path, content);
  const std::string dir = ::testing::TempDir() + "/dblint-cache-stale";
  store_file_facts(dir, path, fnv1a64(content), facts);
  FileFacts out;
  // Different content hash: miss.
  EXPECT_FALSE(load_file_facts(dir, path, fnv1a64(content) + 1, &out));
  // Unknown path: miss.
  EXPECT_FALSE(load_file_facts(dir, "src/other.cpp", fnv1a64(content), &out));
  // Hit for the right key.
  EXPECT_TRUE(load_file_facts(dir, path, fnv1a64(content), &out));
}

// --- Formatting and the real tree ------------------------------------------

TEST(DblintFormat, JsonOutputEscapesAndOrdersKeys) {
  const std::string json =
      to_json({{"src/a.cpp", 7, "rng", "bad \"seed\""}});
  EXPECT_NE(json.find("{\"file\": \"src/a.cpp\", \"line\": 7, \"rule\": \"rng\", "
                      "\"message\": \"bad \\\"seed\\\"\"}"),
            std::string::npos);
  EXPECT_EQ(to_json({}), "[]\n");
}


TEST(DblintFormat, FileLineRuleMessage) {
  EXPECT_EQ(format({"src/a.cpp", 7, "rng", "bad"}), "src/a.cpp:7: [rng] bad");
}

#ifdef DBLINT_REPO_ROOT
// The acceptance gate: the shipped tree must lint clean. Any new finding
// needs a fix or a reviewed `dblint:allow` escape.
TEST(DblintTree, RepositoryIsClean) {
  const auto diags = lint_tree(DBLINT_REPO_ROOT);
  for (const auto& d : diags) ADD_FAILURE() << format(d);
  EXPECT_TRUE(diags.empty());
}

// A cached run must agree with a cold run finding-for-finding, and the
// second warm run must be served entirely from the cache.
TEST(DblintTree, CacheChangesNothingAndHitsOnSecondRun) {
  const auto cold = lint_tree(DBLINT_REPO_ROOT);

  LintOptions options;
  options.cache_dir = ::testing::TempDir() + "/dblint-cache-tree";
  std::filesystem::remove_all(options.cache_dir);  // stale runs would hit
  LintStats first, second;
  const auto warm1 = lint_tree(DBLINT_REPO_ROOT, options, &first);
  const auto warm2 = lint_tree(DBLINT_REPO_ROOT, options, &second);

  ASSERT_EQ(warm1.size(), cold.size());
  ASSERT_EQ(warm2.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(format(warm1[i]), format(cold[i]));
    EXPECT_EQ(format(warm2[i]), format(cold[i]));
  }
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_GT(second.files, 0u);
  EXPECT_EQ(second.cache_hits, second.files);
}
#endif

}  // namespace
}  // namespace dblint
