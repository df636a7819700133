// dblint concurrency-analyzer tests (R14–R16): each rule must fire on a bad
// fixture, stay quiet on the matching good fixture, and honour
// `// dblint:allow(<rule>)` escapes. The thread-root discovery heuristics,
// guarded-by inference, guard-lifecycle lockset normalization, the v2 facts
// cache, and the doc/CONCURRENCY.md drift gate are covered here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cache.hpp"
#include "concurrency.hpp"
#include "index.hpp"
#include "lint.hpp"
#include "sarif.hpp"

namespace dblint {
namespace {

bool has_rule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

const Diagnostic* find_rule(const std::vector<Diagnostic>& diags,
                            const std::string& rule) {
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

bool has_root(const ConcurrencyAnalysis& a, const std::string& qualified,
              const std::string& how) {
  return std::any_of(a.roots.begin(), a.roots.end(), [&](const ThreadRoot& r) {
    return r.qualified == qualified && r.how == how;
  });
}

const GuardedByEntry* find_field(const ConcurrencyAnalysis& a,
                                 const std::string& field) {
  for (const GuardedByEntry& e : a.guarded_by) {
    if (e.field == field) return &e;
  }
  return nullptr;
}

// --- R14: inconsistent-lockset ---------------------------------------------

// A lock-owning class (it has a mutex member) whose field is written under
// the mutex in one method and bare in a thread-rooted method.
const char* kCounterRacy =
    "class Counter {\n"
    " public:\n"
    "  void bump();\n"
    "  void reset();\n"
    " private:\n"
    "  std::mutex mutex_;\n"
    "  int value_ = 0;\n"
    "};\n"
    "void Counter::bump() {\n"
    "  std::lock_guard<std::mutex> lock(mutex_);\n"
    "  value_ = 1;\n"
    "}\n"
    "// dblint:thread-root\n"
    "void Counter::reset() {\n"
    "  value_ = 0;\n"
    "}\n";

TEST(DblintInconsistentLockset, FlagsUnguardedWriteAgainstLockedWrite) {
  const auto diags = lint_indexed({{"src/store/c.cpp", kCounterRacy}});
  const Diagnostic* d = find_rule(diags, "inconsistent-lockset");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("Counter::value_"), std::string::npos);
  EXPECT_NE(d->message.find("no lock"), std::string::npos);
  EXPECT_FALSE(d->trace.empty());
}

TEST(DblintInconsistentLockset, ConsistentLockingAndAtomicsPass) {
  const auto consistent = lint_indexed({{"src/store/c.cpp",
      "class Counter {\n"
      " public:\n"
      "  void bump();\n"
      "  void reset();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  int value_ = 0;\n"
      "};\n"
      "void Counter::bump() {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  value_ = 1;\n"
      "}\n"
      "// dblint:thread-root\n"
      "void Counter::reset() {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  value_ = 0;\n"
      "}\n"}});
  EXPECT_FALSE(has_rule(consistent, "inconsistent-lockset"));

  const auto atomic = lint_indexed({{"src/store/c.cpp",
      "class Counter {\n"
      " public:\n"
      "  void bump();\n"
      "  void reset();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  std::atomic<int> value_{0};\n"
      "};\n"
      "void Counter::bump() {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  value_ = 1;\n"
      "}\n"
      "// dblint:thread-root\n"
      "void Counter::reset() {\n"
      "  value_ = 0;\n"
      "}\n"}});
  EXPECT_FALSE(has_rule(atomic, "inconsistent-lockset"));
}

TEST(DblintInconsistentLockset, ValueTypesWithoutOwnMutexPass) {
  // RacerD's ownership heuristic: a class with no synchronization member is
  // a value type; its instances live in one frame at a time.
  const auto diags = lint_indexed({{"src/crypto/p.cpp",
      "class Pt {\n"
      " public:\n"
      "  void w();\n"
      "  void r();\n"
      " private:\n"
      "  int x_ = 0;\n"
      "};\n"
      "void Pt::w() { x_ = 1; }\n"
      "// dblint:thread-root\n"
      "void Pt::r() { x_ = 2; }\n"}});
  EXPECT_FALSE(has_rule(diags, "inconsistent-lockset"));
}

TEST(DblintInconsistentLockset, AtomicAggregateFieldsPass) {
  // A struct made entirely of std::atomic members (a stats block) needs no
  // guard: every member access is individually atomic.
  const auto diags = lint_indexed({{"src/net/m.cpp",
      "struct NetStats {\n"
      "  std::atomic<int> sent{0};\n"
      "  std::atomic<int> recv{0};\n"
      "};\n"
      "class Link {\n"
      " public:\n"
      "  void a();\n"
      "  void b();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  NetStats stats_;\n"
      "};\n"
      "void Link::a() {\n"
      "  std::lock_guard<std::mutex> l(mutex_);\n"
      "  stats_.sent = 1;\n"
      "}\n"
      "// dblint:thread-root\n"
      "void Link::b() { stats_.recv = 1; }\n"}});
  EXPECT_FALSE(has_rule(diags, "inconsistent-lockset"));
}

TEST(DblintInconsistentLockset, AllowEscapeSuppresses) {
  const auto diags = lint_indexed({{"src/store/c.cpp",
      "class Counter {\n"
      " public:\n"
      "  void bump();\n"
      "  void reset();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  int value_ = 0;\n"
      "};\n"
      "void Counter::bump() {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  value_ = 1;  // dblint:allow(inconsistent-lockset): fixture\n"
      "}\n"
      "// dblint:thread-root\n"
      "void Counter::reset() {\n"
      "  value_ = 0;  // dblint:allow(inconsistent-lockset): fixture\n"
      "}\n"}});
  EXPECT_FALSE(has_rule(diags, "inconsistent-lockset"));
}

TEST(DblintInconsistentLockset, CrossTuRaceReportsFullTrace) {
  // The planted race: a locked write in one TU, an unguarded read reachable
  // from a thread root in another. The summary fixpoint must stitch the
  // whole chain into the trace.
  const std::vector<FileInput> files = {
      {"src/store/s.hpp",
       "class Store {\n"
       " public:\n"
       "  void touch();\n"
       "  int peek();\n"
       "  void monitor();\n"
       " private:\n"
       "  std::mutex mutex_;\n"
       "  int value_ = 0;\n"
       "};\n"},
      {"src/store/a.cpp",
       "void Store::touch() {\n"
       "  std::lock_guard<std::mutex> lock(mutex_);\n"
       "  value_ = 1;\n"
       "}\n"},
      {"src/store/b.cpp",
       "int Store::peek() {\n"
       "  const int v = value_;\n"
       "  return v;\n"
       "}\n"
       "// dblint:thread-root\n"
       "void Store::monitor() {\n"
       "  const int snapshot = peek();\n"
       "  (void)snapshot;\n"
       "}\n"}};
  const auto diags = lint_indexed(files);
  const Diagnostic* d = find_rule(diags, "inconsistent-lockset");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->file, "src/store/a.cpp");
  EXPECT_EQ(d->line, 3);
  EXPECT_NE(d->message.find("'Store::value_'"), std::string::npos);
  EXPECT_NE(d->message.find("{Store::mutex_}"), std::string::npos);
  EXPECT_NE(d->message.find("read with no lock at src/store/b.cpp:2"),
            std::string::npos);

  // Exact trace: locked-write chain, then the conflicting thread-root chain.
  ASSERT_EQ(d->trace.size(), 6u);
  EXPECT_EQ(d->trace[0].file, "src/store/a.cpp");
  EXPECT_EQ(d->trace[0].line, 1);
  EXPECT_NE(d->trace[0].note.find("entry point 'Store::touch'"),
            std::string::npos);
  EXPECT_EQ(d->trace[1].file, "src/store/a.cpp");
  EXPECT_EQ(d->trace[1].line, 3);
  EXPECT_NE(d->trace[1].note.find(
                "write of 'Store::value_' with {Store::mutex_} in Store::touch"),
            std::string::npos);
  EXPECT_EQ(d->trace[2].file, "src/store/b.cpp");
  EXPECT_EQ(d->trace[2].line, 2);
  EXPECT_NE(d->trace[2].note.find("conflicting read with no lock"),
            std::string::npos);
  EXPECT_EQ(d->trace[3].file, "src/store/b.cpp");
  EXPECT_EQ(d->trace[3].line, 6);
  EXPECT_NE(d->trace[3].note.find("thread root 'Store::monitor' (annotation)"),
            std::string::npos);
  EXPECT_EQ(d->trace[4].file, "src/store/b.cpp");
  EXPECT_EQ(d->trace[4].line, 7);
  EXPECT_NE(d->trace[4].note.find("calls 'peek()' in Store::monitor"),
            std::string::npos);
  EXPECT_EQ(d->trace[5].file, "src/store/b.cpp");
  EXPECT_EQ(d->trace[5].line, 2);
  EXPECT_NE(d->trace[5].note.find(
                "read of 'Store::value_' with no lock in Store::peek"),
            std::string::npos);

  // The same trace must survive SARIF export as a codeFlow.
  const std::string sarif = to_sarif({*d});
  EXPECT_NE(sarif.find("\"ruleId\": \"inconsistent-lockset\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"codeFlows\""), std::string::npos);
  EXPECT_NE(sarif.find("thread root 'Store::monitor' (annotation)"),
            std::string::npos);
}

// --- R15: guard-escape -----------------------------------------------------

TEST(DblintGuardEscape, FlagsReturnOfAliasUnderLock) {
  const auto diags = lint_indexed({{"src/store/e.cpp",
      "class Buf {\n"
      " public:\n"
      "  const char* name();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  std::string name_;\n"
      "};\n"
      "const char* Buf::name() {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  return name_.c_str();\n"
      "}\n"}});
  const Diagnostic* d = find_rule(diags, "guard-escape");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 10);
  EXPECT_NE(d->message.find("'Buf::name_'"), std::string::npos);
  EXPECT_NE(d->message.find("escapes"), std::string::npos);
}

TEST(DblintGuardEscape, FlagsUseAfterRelease) {
  const auto diags = lint_indexed({{"src/store/e.cpp",
      "class Buf {\n"
      " public:\n"
      "  void scan();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  std::vector<int> data_;\n"
      "};\n"
      "void Buf::scan() {\n"
      "  const int* p = nullptr;\n"
      "  {\n"
      "    std::lock_guard<std::mutex> lock(mutex_);\n"
      "    p = data_.data();\n"
      "  }\n"
      "  consume(p);\n"
      "}\n"}});
  const Diagnostic* d = find_rule(diags, "guard-escape");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 14);
  EXPECT_NE(d->message.find("'p'"), std::string::npos);
  EXPECT_NE(d->message.find("'Buf::data_'"), std::string::npos);
}

TEST(DblintGuardEscape, UseInsideCriticalSectionAndCopiesPass) {
  const auto diags = lint_indexed({{"src/store/e.cpp",
      "class Buf {\n"
      " public:\n"
      "  void ok();\n"
      "  std::string copy_out();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  std::string name_;\n"
      "};\n"
      "void Buf::ok() {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  const char* p = name_.c_str();\n"
      "  consume(p);\n"
      "}\n"
      "std::string Buf::copy_out() {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  std::string c = name_;\n"
      "  return c;\n"
      "}\n"}});
  EXPECT_FALSE(has_rule(diags, "guard-escape"));
}

TEST(DblintGuardEscape, AllowEscapeSuppresses) {
  const auto diags = lint_indexed({{"src/store/e.cpp",
      "class Buf {\n"
      " public:\n"
      "  const char* name();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  std::string name_;\n"
      "};\n"
      "const char* Buf::name() {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  return name_.c_str();  // dblint:allow(guard-escape): fixture\n"
      "}\n"}});
  EXPECT_FALSE(has_rule(diags, "guard-escape"));
}

// --- R16: lock-order-cycle -------------------------------------------------

TEST(DblintLockOrderCycle, FlagsInterproceduralCycle) {
  const auto diags = lint_indexed({{"src/core/ab.cpp",
      "class Pair {\n"
      " public:\n"
      "  void one();\n"
      "  void two();\n"
      "  void one_impl();\n"
      "  void two_impl();\n"
      " private:\n"
      "  std::mutex m1_;\n"
      "  std::mutex m2_;\n"
      "};\n"
      "void Pair::one() {\n"
      "  std::lock_guard<std::mutex> a(m1_);\n"
      "  two_impl();\n"
      "}\n"
      "void Pair::two() {\n"
      "  std::lock_guard<std::mutex> b(m2_);\n"
      "  one_impl();\n"
      "}\n"
      "void Pair::one_impl() {\n"
      "  std::lock_guard<std::mutex> c(m1_);\n"
      "}\n"
      "void Pair::two_impl() {\n"
      "  std::lock_guard<std::mutex> d(m2_);\n"
      "}\n"}});
  const Diagnostic* d = find_rule(diags, "lock-order-cycle");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("Pair::m1_"), std::string::npos);
  EXPECT_NE(d->message.find("Pair::m2_"), std::string::npos);
  EXPECT_NE(d->message.find("across the call graph"), std::string::npos);
  EXPECT_FALSE(d->trace.empty());
}

TEST(DblintLockOrderCycle, ConsistentOrderPasses) {
  const auto diags = lint_indexed({{"src/core/ab.cpp",
      "class Pair {\n"
      " public:\n"
      "  void one();\n"
      "  void two();\n"
      "  void two_impl();\n"
      " private:\n"
      "  std::mutex m1_;\n"
      "  std::mutex m2_;\n"
      "};\n"
      "void Pair::one() {\n"
      "  std::lock_guard<std::mutex> a(m1_);\n"
      "  two_impl();\n"
      "}\n"
      "void Pair::two() {\n"
      "  std::lock_guard<std::mutex> b(m1_);\n"
      "  two_impl();\n"
      "}\n"
      "void Pair::two_impl() {\n"
      "  std::lock_guard<std::mutex> d(m2_);\n"
      "}\n"}});
  EXPECT_FALSE(has_rule(diags, "lock-order-cycle"));
}

TEST(DblintLockOrderCycle, AllowFnEscapeSuppresses) {
  const auto diags = lint_indexed({{"src/core/ab.cpp",
      "class Pair {\n"
      " public:\n"
      "  void one();\n"
      "  void two();\n"
      "  void one_impl();\n"
      "  void two_impl();\n"
      " private:\n"
      "  std::mutex m1_;\n"
      "  std::mutex m2_;\n"
      "};\n"
      "// dblint:allow-fn(lock-order-cycle): fixture\n"
      "void Pair::one() {\n"
      "  std::lock_guard<std::mutex> a(m1_);\n"
      "  two_impl();\n"
      "}\n"
      "// dblint:allow-fn(lock-order-cycle): fixture\n"
      "void Pair::two() {\n"
      "  std::lock_guard<std::mutex> b(m2_);\n"
      "  one_impl();\n"
      "}\n"
      "void Pair::one_impl() {\n"
      "  std::lock_guard<std::mutex> c(m1_);\n"
      "}\n"
      "void Pair::two_impl() {\n"
      "  std::lock_guard<std::mutex> d(m2_);\n"
      "}\n"}});
  EXPECT_FALSE(has_rule(diags, "lock-order-cycle"));
}

// --- Thread-root discovery -------------------------------------------------

TEST(DblintThreadRoots, DiscoversAnnotationCtorArgsDetachAndSubmit) {
  const RepoIndex index = build_index({{"src/core/r.cpp",
      "class Pool {\n"
      " public:\n"
      "  void start();\n"
      "  void refill();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  std::thread worker_;\n"
      "};\n"
      "void Pool::start() {\n"
      "  worker_ = std::thread(&Pool::refill, this);\n"
      "}\n"
      "void Pool::refill() {}\n"
      "void pump() {}\n"
      "void spin() {\n"
      "  std::thread(pump).detach();\n"
      "}\n"
      "// dblint:thread-root\n"
      "void annotated() {}\n"}});
  const ConcurrencyAnalysis a = analyze_concurrency(index);
  // The spawner itself, the `&Cls::method` target, the lone free-function
  // argument, and the explicit annotation are all roots.
  EXPECT_TRUE(has_root(a, "Pool::start", "thread-ctor"));
  EXPECT_TRUE(has_root(a, "Pool::refill", "thread-ctor"));
  EXPECT_TRUE(has_root(a, "pump", "thread-ctor"));
  EXPECT_TRUE(has_root(a, "spin", "thread-ctor"));
  EXPECT_TRUE(has_root(a, "annotated", "annotation"));
}

TEST(DblintThreadRoots, LoneMethodNamesInLambdasAreNotRoots) {
  // `jar.refresh()` inside a thread lambda must not mark Jar::refresh a
  // root by bare name — the spawning function is the root, and reachability
  // covers the lambda's calls through its summary.
  const RepoIndex index = build_index({{"src/core/j.cpp",
      "class Jar {\n"
      " public:\n"
      "  void refresh();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  int level_ = 0;\n"
      "};\n"
      "void Jar::refresh() { level_ = 1; }\n"
      "void go(Jar& jar) {\n"
      "  std::thread([&] { jar.refresh(); }).detach();\n"
      "}\n"}});
  const ConcurrencyAnalysis a = analyze_concurrency(index);
  EXPECT_TRUE(has_root(a, "go", "thread-ctor"));
  EXPECT_FALSE(has_root(a, "Jar::refresh", "thread-ctor"));
}

TEST(DblintThreadRoots, ExecutorSubmitMarksSubmitter) {
  const RepoIndex index = build_index({{"src/core/s.cpp",
      "void fan_out(Executor& pool) {\n"
      "  pool.submit([] { work(); });\n"
      "}\n"
      "void scatter(WorkerPool& pool, std::size_t n) {\n"
      "  pool.run_all(n, [](std::size_t i) { work(i); });\n"
      "}\n"}});
  const ConcurrencyAnalysis a = analyze_concurrency(index);
  EXPECT_TRUE(has_root(a, "fan_out", "executor-submit"));
  EXPECT_TRUE(has_root(a, "scatter", "executor-submit"));
}

// --- Guarded-by inference --------------------------------------------------

TEST(DblintGuardedBy, InfersIntersectionAcrossWrites) {
  const RepoIndex index = build_index({{"src/store/g.cpp",
      "class Gauge {\n"
      " public:\n"
      "  void a();\n"
      "  void b();\n"
      "  void c();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  int v_ = 0;\n"
      "  int w_ = 0;\n"
      "  std::atomic<int> hits_{0};\n"
      "};\n"
      "void Gauge::a() {\n"
      "  std::lock_guard<std::mutex> l(mutex_);\n"
      "  v_ = 1;\n"
      "  w_ = 1;\n"
      "  hits_ = 1;\n"
      "}\n"
      "void Gauge::b() { v_ = 2; }\n"
      "void Gauge::c() {\n"
      "  std::lock_guard<std::mutex> l(mutex_);\n"
      "  w_ = 2;\n"
      "}\n"}});
  const ConcurrencyAnalysis a = analyze_concurrency(index);

  // v_ has a bare write: the intersection over writes is empty.
  const GuardedByEntry* v = find_field(a, "Gauge::v_");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->writes, 2u);
  EXPECT_TRUE(v->guards.empty());

  // w_ is written under mutex_ everywhere: the intersection keeps it.
  const GuardedByEntry* w = find_field(a, "Gauge::w_");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->writes, 2u);
  ASSERT_EQ(w->guards.size(), 1u);
  EXPECT_EQ(w->guards[0], "Gauge::mutex_");

  // hits_ is atomic; the markdown renders it as such.
  const GuardedByEntry* h = find_field(a, "Gauge::hits_");
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->is_atomic);

  const std::string md = concurrency_markdown(a);
  EXPECT_NE(md.find("| Gauge::w_ | int | Gauge::mutex_ |"), std::string::npos);
  EXPECT_NE(md.find("| Gauge::v_ | int | (none) |"), std::string::npos);
  EXPECT_NE(md.find("(atomic)"), std::string::npos);
}

TEST(DblintGuardedBy, MarkdownIsDeterministic) {
  const std::vector<FileInput> files = {{"src/store/g.cpp",
      "class Gauge {\n"
      " public:\n"
      "  void a();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  int v_ = 0;\n"
      "};\n"
      "// dblint:thread-root\n"
      "void Gauge::a() {\n"
      "  std::lock_guard<std::mutex> l(mutex_);\n"
      "  v_ = 1;\n"
      "}\n"}};
  const std::string first = concurrency_markdown(analyze_concurrency(build_index(files)));
  const std::string second = concurrency_markdown(analyze_concurrency(build_index(files)));
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("## Thread roots"), std::string::npos);
  EXPECT_NE(first.find("## Guarded-by map"), std::string::npos);
}

// --- Guard-lifecycle lockset normalization ---------------------------------

TEST(DblintGuardNormalization, DeferredAndMidScopeUnlockShrinkLocksets) {
  const RepoIndex index = build_index({{"src/store/n.cpp",
      "class Norm {\n"
      " public:\n"
      "  void f();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  int value_ = 0;\n"
      "};\n"
      "void Norm::f() {\n"
      "  std::unique_lock<std::mutex> lk(mutex_, std::defer_lock);\n"
      "  value_ = 1;\n"
      "  lk.lock();\n"
      "  value_ = 2;\n"
      "  lk.unlock();\n"
      "  value_ = 3;\n"
      "}\n"}});
  const FunctionInfo* f = nullptr;
  for (const FileIndex& file : index.files) {
    for (const FunctionInfo& fn : file.functions) {
      if (fn.qualified == "Norm::f") f = &fn;
    }
  }
  ASSERT_NE(f, nullptr);

  std::vector<std::vector<std::string>> write_locksets;
  for (const FieldAccess& a : f->accesses) {
    if (a.field == "Norm::value_" && a.is_write) {
      write_locksets.push_back(a.held_mutexes);
    }
  }
  ASSERT_EQ(write_locksets.size(), 3u);
  EXPECT_TRUE(write_locksets[0].empty());  // before lk.lock(): deferred
  ASSERT_EQ(write_locksets[1].size(), 1u);  // between lock() and unlock()
  EXPECT_EQ(write_locksets[1][0], "Norm::mutex_");
  EXPECT_TRUE(write_locksets[2].empty());  // after lk.unlock()
}

// --- v2 facts cache --------------------------------------------------------

TEST(DblintCacheV2, RejectsOlderFormatVersion) {
  namespace fs = std::filesystem;
  const std::string path = "src/store/s.cpp";
  const std::string content = "void f() {}\n";
  const FileFacts facts = compute_file_facts(path, content);
  const std::string dir = ::testing::TempDir() + "/dblint-cache-ver";
  fs::remove_all(dir);
  store_file_facts(dir, path, fnv1a64(content), facts);

  fs::path cache_file;
  for (const auto& e : fs::directory_iterator(dir)) cache_file = e.path();
  ASSERT_FALSE(cache_file.empty());

  std::ifstream in(cache_file, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string buf = ss.str();
  in.close();
  const std::size_t at = buf.find("dblintcache 2 ");
  ASSERT_NE(at, std::string::npos);  // header carries the current version
  buf.replace(at, std::string("dblintcache 2 ").size(), "dblintcache 1 ");
  std::ofstream(cache_file, std::ios::binary | std::ios::trunc) << buf;

  // Entries written by an older dblint must be recomputed, not trusted: the
  // v1 format predates the concurrency fact records.
  FileFacts out;
  EXPECT_FALSE(load_file_facts(dir, path, fnv1a64(content), &out));
}

TEST(DblintCacheV2, RoundTripsConcurrencyFacts) {
  const std::string path = "src/store/s.cpp";
  const std::string content =
      "class KvStore {\n"
      " public:\n"
      "  void sync();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  std::atomic<int> gen_{0};\n"
      "  int value_ = 0;\n"
      "};\n"
      "// dblint:thread-root\n"
      "void KvStore::sync() {\n"
      "  std::unique_lock<std::mutex> lk(mutex_, std::defer_lock);\n"
      "  lk.lock();\n"
      "  value_ = 1;\n"
      "  lk.unlock();\n"
      "}\n";
  const FileFacts facts = compute_file_facts(path, content);

  // The fixture must exercise every new fact class before we trust the
  // round-trip comparison.
  ASSERT_EQ(facts.index.fields.size(), 3u);
  ASSERT_EQ(facts.index.functions.size(), 1u);
  const FunctionInfo& fn = facts.index.functions[0];
  EXPECT_TRUE(fn.thread_root);
  ASSERT_FALSE(fn.guards.empty());
  EXPECT_EQ(fn.guards[0].var, "lk");
  ASSERT_FALSE(fn.accesses.empty());

  const std::string dir = ::testing::TempDir() + "/dblint-cache-conc";
  std::filesystem::remove_all(dir);
  store_file_facts(dir, path, fnv1a64(content), facts);
  FileFacts loaded;
  ASSERT_TRUE(load_file_facts(dir, path, fnv1a64(content), &loaded));

  ASSERT_EQ(loaded.index.fields.size(), facts.index.fields.size());
  for (std::size_t i = 0; i < facts.index.fields.size(); ++i) {
    const FieldDecl& a = facts.index.fields[i];
    const FieldDecl& b = loaded.index.fields[i];
    EXPECT_EQ(b.class_name, a.class_name);
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.type, a.type);
    EXPECT_EQ(b.is_atomic, a.is_atomic);
    EXPECT_EQ(b.is_sync, a.is_sync);
  }

  ASSERT_EQ(loaded.index.functions.size(), 1u);
  const FunctionInfo& lf = loaded.index.functions[0];
  EXPECT_EQ(lf.thread_root, fn.thread_root);
  ASSERT_EQ(lf.guards.size(), fn.guards.size());
  EXPECT_EQ(lf.guards[0].var, fn.guards[0].var);
  EXPECT_EQ(lf.guards[0].mutexes, fn.guards[0].mutexes);

  ASSERT_EQ(lf.accesses.size(), fn.accesses.size());
  for (std::size_t i = 0; i < fn.accesses.size(); ++i) {
    EXPECT_EQ(lf.accesses[i].field, fn.accesses[i].field);
    EXPECT_EQ(lf.accesses[i].is_write, fn.accesses[i].is_write);
    EXPECT_EQ(lf.accesses[i].line_index, fn.accesses[i].line_index);
    EXPECT_EQ(lf.accesses[i].held_mutexes, fn.accesses[i].held_mutexes);
  }

  ASSERT_EQ(lf.stmts.size(), fn.stmts.size());
  for (std::size_t i = 0; i < fn.stmts.size(); ++i) {
    EXPECT_EQ(lf.stmts[i].held_mutexes, fn.stmts[i].held_mutexes);
  }
}

// --- doc/CONCURRENCY.md drift gate ------------------------------------------

TEST(DblintConcurrencyDoc, MissingDocIsAFindingUntilGenerated) {
  namespace fs = std::filesystem;
  const std::string root = ::testing::TempDir() + "/dblint-conc-doc";
  fs::remove_all(root);
  fs::create_directories(root + "/src/store");
  std::ofstream(root + "/src/store/c.cpp") << "void f() {}\n";

  auto doc_finding = [](const std::vector<Diagnostic>& diags) {
    return std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
      return d.file == "doc/CONCURRENCY.md";
    });
  };

  EXPECT_TRUE(doc_finding(lint_tree(root)));

  // Generating the doc (what `dblint --emit-concurrency` writes) closes it.
  const ConcurrencyAnalysis analysis =
      analyze_concurrency(build_index(read_tree(root)));
  fs::create_directories(root + "/doc");
  std::ofstream(root + "/doc/CONCURRENCY.md") << concurrency_markdown(analysis);
  EXPECT_FALSE(doc_finding(lint_tree(root)));

  // Drift (a stale checked-in doc) reopens it.
  std::ofstream(root + "/doc/CONCURRENCY.md", std::ios::trunc) << "# stale\n";
  EXPECT_TRUE(doc_finding(lint_tree(root)));
}

// --- SARIF rule table ------------------------------------------------------

TEST(DblintSarifConcurrency, NewRulesAreInDriverTable) {
  const std::string sarif = to_sarif({});
  EXPECT_NE(sarif.find("\"id\": \"inconsistent-lockset\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"guard-escape\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"lock-order-cycle\""), std::string::npos);
}

}  // namespace
}  // namespace dblint
