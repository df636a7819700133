#include "concurrency.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "text.hpp"

namespace dblint {
namespace {

constexpr std::size_t kMaxTraceSteps = 12;
constexpr int kMaxFixpointRounds = 10;
constexpr std::size_t kMaxCalleeDefs = 3;
constexpr std::size_t kMaxLocksetsPerField = 4;  // distinct locksets kept per
                                                 // (field, kind) in a summary

// ---------------------------------------------------------------------------
// Scope + classification helpers
// ---------------------------------------------------------------------------

/// Findings anchor to src/ only; src/workload/ is the simulated client,
/// whose driver threads hammer the gateway from plain loops by design.
bool report_scope(const std::string& path) {
  return starts_with(path, "src/") && !starts_with(path, "src/workload/");
}

/// Same standard-library collision list as flow.cpp, plus names that are
/// generic verbs in this tree (`step.run()` must not resolve to
/// Executor::run and drag the whole gateway into thread-root reachability).
bool is_unresolvable_method(const std::string& callee) {
  static const std::set<std::string> kMethods = {
      "insert",  "find",   "erase",  "emplace", "emplace_back", "push_back",
      "pop_back","append", "at",     "count",   "begin",        "end",
      "size",    "empty",  "clear",  "front",   "back",         "data",
      "reserve", "resize", "substr", "c_str",   "str",          "reset",
      "release", "swap",   "assign", "get",     "push",         "pop",
      "top",     "load",   "store",  "contains",
      // std algorithms and utilities whose names the tree also defines:
      // `std::remove(...)` must not resolve to Planner::remove.
      "remove",  "sort",   "copy",   "move",    "transform",    "accumulate",
      "fill",    "min",    "max",    "forward", "to_string",
      // generic verbs in this tree (`step.run()` is a plan step, not
      // Executor::run) and thread plumbing.
      "run",     "wait",   "notify_one", "notify_all", "join", "detach"};
  return kMethods.count(callee) > 0;
}

/// Accessors whose result aliases the receiver's storage: obtaining one on
/// a guarded field mints a pointer/iterator the guard no longer protects
/// once it goes out of scope.
bool is_escape_accessor(const std::string& callee) {
  static const std::set<std::string> kEscaping = {
      "data", "c_str", "begin", "cbegin", "rbegin", "front", "back"};
  return kEscaping.count(callee) > 0;
}

bool is_ctor_or_dtor(const FunctionInfo& fn) {
  return !fn.class_name.empty() && fn.name == fn.class_name;
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string lockset_label(const std::vector<std::string>& lockset) {
  return lockset.empty() ? "no lock" : "{" + join(lockset, ", ") + "}";
}

std::vector<std::string> lockset_union(const std::vector<std::string>& a,
                                       const std::vector<std::string>& b) {
  std::set<std::string> u(a.begin(), a.end());
  u.insert(b.begin(), b.end());
  return {u.begin(), u.end()};
}

bool locksets_intersect(const std::vector<std::string>& a,
                        const std::vector<std::string>& b) {
  for (const std::string& m : a) {
    if (std::find(b.begin(), b.end(), m) != b.end()) return true;
  }
  return false;
}

void append_step(std::vector<TraceStep>* dst, const std::string& file,
                 std::size_t line_index, const std::string& note) {
  if (dst->size() >= kMaxTraceSteps) return;
  dst->push_back({file, static_cast<int>(line_index + 1), note});
}

void append_steps(std::vector<TraceStep>* dst, const std::vector<TraceStep>& src) {
  for (const TraceStep& s : src) {
    if (dst->size() >= kMaxTraceSteps) return;
    dst->push_back(s);
  }
}

// ---------------------------------------------------------------------------
// Engine state
// ---------------------------------------------------------------------------

/// One converged way of reaching a field: kind x lockset, with the call
/// chain that witnesses it and the underlying source-level access site.
struct AccessPath {
  bool is_write = false;
  std::vector<std::string> lockset;  // sorted union over the call chain
  std::vector<TraceStep> trace;      // caller-ward chain down to the access
  const FileIndex* leaf_file = nullptr;  // the access's own location,
  const FunctionInfo* leaf_fn = nullptr;  // for scope + allow lookups
  std::size_t leaf_line = 0;
};

using FieldPaths = std::map<std::string, std::vector<AccessPath>>;

struct FnRef {
  const FileIndex* file = nullptr;
  const FunctionInfo* fn = nullptr;
};

struct Engine {
  const RepoIndex* index = nullptr;
  std::vector<FnRef> fns;
  std::map<std::string, std::vector<std::size_t>> defs;  // name -> fns idx
  std::vector<FieldPaths> summaries;                     // parallel to fns
  std::vector<char> is_root;       // thread-root flag per fn
  std::vector<std::string> root_how;  // discovery mechanism when is_root
  std::vector<char> is_callee;     // appears as a resolved call target
  std::map<std::string, FieldDecl> field_decls;  // "Cls::name" -> decl
};

const std::vector<std::size_t>* resolve(const Engine& eng, const std::string& callee) {
  if (is_unresolvable_method(callee)) return nullptr;
  const auto it = eng.defs.find(callee);
  if (it == eng.defs.end() || it->second.size() > kMaxCalleeDefs) return nullptr;
  return &it->second;
}

/// Name-based resolution refined by the receiver: when a member call's
/// chain head names a declared field whose type IS an indexed class, only
/// that class's methods are candidates — `journal_.remove()` on a
/// `Journal journal_;` member must not resolve to Planner::remove. A
/// container/smart-pointer-typed receiver keeps the unrefined candidates
/// (the wrapped element's class is not recoverable from the last type
/// segment). Unqualified calls follow C++ name lookup: they can reach the
/// caller's own class and free functions, never another class's method —
/// `apply(x)` inside PolicyEngine::select (a local lambda there) must not
/// resolve to KvStore::apply.
std::vector<std::size_t> resolve_call(const Engine& eng, const CallSite& call,
                                      const std::string& caller_class) {
  const std::vector<std::size_t>* targets = resolve(eng, call.callee);
  if (targets == nullptr) return {};
  if (!call.member_call || call.chain_head == call.callee ||
      call.chain_head == "this") {
    std::vector<std::size_t> visible;
    for (const std::size_t t : *targets) {
      const std::string& cls = eng.fns[t].fn->class_name;
      if (cls.empty() || cls == caller_class) visible.push_back(t);
    }
    return visible;  // empty: a local lambda or an unindexed free function
  }
  const FieldDecl* receiver = nullptr;
  for (const auto& [key, fd] : eng.field_decls) {
    if (fd.name == call.chain_head) {
      receiver = &fd;
      break;
    }
  }
  if (receiver == nullptr) return *targets;
  bool type_is_class = false;
  std::vector<std::size_t> refined;
  for (const std::size_t t : *targets) {
    if (eng.fns[t].fn->class_name == receiver->type) refined.push_back(t);
  }
  for (const auto& [key, fd] : eng.field_decls) {
    if (fd.class_name == receiver->type) type_is_class = true;
  }
  if (!refined.empty()) return refined;
  // The receiver's type is a known class but defines no such method: the
  // name match was coincidental. Unknown types keep the candidates.
  return type_is_class ? std::vector<std::size_t>{} : *targets;
}

Engine build_engine(const RepoIndex& index) {
  Engine eng;
  eng.index = &index;
  for (const FileIndex& file : index.files) {
    for (const FieldDecl& fd : file.fields) {
      eng.field_decls.emplace(fd.class_name + "::" + fd.name, fd);
    }
    for (const FunctionInfo& fn : file.functions) {
      eng.defs[fn.name].push_back(eng.fns.size());
      eng.fns.push_back({&file, &fn});
    }
  }
  eng.summaries.resize(eng.fns.size());
  eng.is_root.assign(eng.fns.size(), 0);
  eng.root_how.resize(eng.fns.size());
  eng.is_callee.assign(eng.fns.size(), 0);
  return eng;
}

/// Looks up the declaration behind an access key. "Cls::f_" resolves
/// exactly; "obj.f_" (receiver class unknown to the indexer) falls back to
/// any declaration of that member name.
/// A field whose type is a struct made entirely of std::atomic members
/// (e.g. a ChannelStats counters block) needs no guard: every member
/// access lowers to an individually-atomic operation.
bool is_atomic_aggregate(const Engine& eng, const std::string& type) {
  bool any = false;
  for (const auto& [key, fd] : eng.field_decls) {
    (void)key;
    if (fd.class_name != type) continue;
    any = true;
    if (!fd.is_atomic) return false;
  }
  return any;
}

const FieldDecl* decl_for(const Engine& eng, const std::string& field) {
  const std::size_t qual = field.find("::");
  if (qual != std::string::npos) {
    const auto it = eng.field_decls.find(field);
    return it != eng.field_decls.end() ? &it->second : nullptr;
  }
  const std::size_t dot = field.find('.');
  const std::string member = dot == std::string::npos ? field : field.substr(dot + 1);
  for (const auto& [key, fd] : eng.field_decls) {
    if (fd.name == member) return &fd;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Thread-root discovery
// ---------------------------------------------------------------------------

void mark_root(Engine* eng, std::size_t idx, const std::string& how) {
  if (eng->is_root[idx]) return;
  eng->is_root[idx] = 1;
  eng->root_how[idx] = how;
}

void discover_thread_roots(Engine* eng) {
  for (std::size_t i = 0; i < eng->fns.size(); ++i) {
    const FunctionInfo& fn = *eng->fns[i].fn;
    if (fn.thread_root) mark_root(eng, i, "annotation");

    // `std::thread t(&Cls::method, this, ...)` declarations and
    // `member_ = std::thread(...)` assignments: the target method runs on
    // its own thread, and the constructing function owns any lambda body
    // the indexer folded into it.
    for (const Statement& stmt : fn.stmts) {
      const bool spawns =
          stmt.decl_type == "thread" || stmt.decl_type == "jthread";
      for (const std::size_t c : stmt.calls) {
        const CallSite& call = fn.calls[c];
        const bool ctor_call = call.callee == "thread" || call.callee == "jthread";
        if (!spawns && !ctor_call) continue;
        mark_root(eng, i, "thread-ctor");
        // Argument references: an `&Cls::method` pair resolves to exactly
        // that class's method; a lone identifier resolves only to a free
        // function. Lambda arguments need no marking — their bodies are
        // indexed into the constructing function, which is a root itself.
        for (const auto& arg : call.args) {
          if (arg.size() == 1) {
            const std::vector<std::size_t>* targets = resolve(*eng, arg[0]);
            if (targets == nullptr) continue;
            for (const std::size_t t : *targets) {
              if (eng->fns[t].fn->class_name.empty()) {
                mark_root(eng, t, "thread-ctor");
              }
            }
            continue;
          }
          for (std::size_t k = 0; k + 1 < arg.size(); ++k) {
            const std::vector<std::size_t>* targets = resolve(*eng, arg[k + 1]);
            if (targets == nullptr) continue;
            for (const std::size_t t : *targets) {
              const FunctionInfo& cand = *eng->fns[t].fn;
              if (cand.class_name == arg[k] && !is_ctor_or_dtor(cand)) {
                mark_root(eng, t, "thread-ctor");
              }
            }
          }
        }
      }
    }

    for (const CallSite& call : fn.calls) {
      if (!call.member_call) continue;
      // A detached lambda's body is indexed as part of this function.
      if (call.callee == "detach") mark_root(eng, i, "detach");
      // Work handed to a worker pool runs on worker threads; the task
      // lambda's accesses are attributed to the submitting function.
      if (call.callee == "submit" || call.callee == "enqueue" ||
          call.callee == "run_all") {
        mark_root(eng, i, "executor-submit");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Access-summary fixpoint
// ---------------------------------------------------------------------------

/// Adds one path, deduplicating on (kind, lockset) and capping the number
/// of distinct locksets kept per (field, kind) — the lattice is finite, so
/// the fixpoint terminates without trace-content comparisons.
bool add_path(std::vector<AccessPath>* paths, AccessPath path) {
  std::size_t same_kind = 0;
  for (const AccessPath& p : *paths) {
    if (p.is_write != path.is_write) continue;
    if (p.lockset == path.lockset) return false;
    ++same_kind;
  }
  if (same_kind >= kMaxLocksetsPerField) return false;
  paths->push_back(std::move(path));
  return true;
}

bool transfer(Engine* eng, std::size_t fn_idx) {
  const FileIndex& file = *eng->fns[fn_idx].file;
  const FunctionInfo& fn = *eng->fns[fn_idx].fn;
  FieldPaths& sum = eng->summaries[fn_idx];
  bool changed = false;

  // Own accesses. Constructors/destructors touch pre-publication (or
  // post-quiescence) state: no concurrent frame can exist yet, so they
  // contribute nothing directly — but calls they make still propagate.
  if (!is_ctor_or_dtor(fn)) {
    for (const FieldAccess& a : fn.accesses) {
      AccessPath path;
      path.is_write = a.is_write;
      path.lockset = a.held_mutexes;
      path.leaf_file = &file;
      path.leaf_fn = &fn;
      path.leaf_line = a.line_index;
      append_step(&path.trace, file.path, a.line_index,
                  std::string(a.is_write ? "write" : "read") + " of '" + a.field +
                      "' with " + lockset_label(a.held_mutexes) + " in " +
                      fn.qualified);
      changed = add_path(&sum[a.field], std::move(path)) || changed;
    }
  }

  // Callee summaries, widened by the mutexes held at the call site: a bare
  // access inside a helper is safe when every caller locks first, and the
  // lockset recorded here is what proves it.
  for (const CallSite& call : fn.calls) {
    for (const std::size_t t : resolve_call(*eng, call, fn.class_name)) {
      if (t == fn_idx) continue;  // direct recursion adds nothing new
      const FieldPaths& callee_sum = eng->summaries[t];
      for (const auto& [field, paths] : callee_sum) {
        for (const AccessPath& p : paths) {
          AccessPath path;
          path.is_write = p.is_write;
          path.lockset = lockset_union(p.lockset, call.held_mutexes);
          path.leaf_file = p.leaf_file;
          path.leaf_fn = p.leaf_fn;
          path.leaf_line = p.leaf_line;
          append_step(&path.trace, file.path, call.line_index,
                      "calls '" + call.callee + "()' in " + fn.qualified +
                          (call.held_mutexes.empty()
                               ? std::string()
                               : " holding " + lockset_label(call.held_mutexes)));
          append_steps(&path.trace, p.trace);
          changed = add_path(&sum[field], std::move(path)) || changed;
        }
      }
    }
  }
  return changed;
}

void run_fixpoint(Engine* eng) {
  for (int round = 0; round < kMaxFixpointRounds; ++round) {
    bool changed = false;
    for (std::size_t i = 0; i < eng->fns.size(); ++i) {
      changed = transfer(eng, i) || changed;
    }
    if (!changed) break;
  }
}

void mark_callees(Engine* eng) {
  for (const FnRef& ref : eng->fns) {
    for (const CallSite& call : ref.fn->calls) {
      for (const std::size_t t : resolve_call(*eng, call, ref.fn->class_name)) {
        eng->is_callee[t] = 1;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R14: inconsistent-lockset
// ---------------------------------------------------------------------------

/// One entry point's view of a field: the converged path plus whether the
/// entry is a thread root (which is what makes the path CONCURRENT).
struct EntryPath {
  const AccessPath* path = nullptr;
  const FnRef* entry = nullptr;
  bool from_root = false;
  std::string root_how;
};

bool path_allowed(const EntryPath& ep, const std::string& rule) {
  return allowed(ep.path->leaf_file->allows, ep.path->leaf_line, rule) ||
         allowed(ep.path->leaf_file->fn_allows, ep.path->leaf_fn->line_index, rule);
}

void entry_steps(const EntryPath& ep, std::vector<TraceStep>* trace) {
  const FnRef& entry = *ep.entry;
  append_step(trace, entry.file->path, entry.fn->line_index,
              ep.from_root
                  ? "thread root '" + entry.fn->qualified + "' (" + ep.root_how + ")"
                  : "entry point '" + entry.fn->qualified + "'");
  append_steps(trace, ep.path->trace);
}

void check_inconsistent_locksets(Engine* eng, std::vector<Diagnostic>* out) {
  // Collect every entry point's converged paths per field. Entry points are
  // thread roots plus functions never reached as a resolved callee — paths
  // that only exist inside helpers surface through their callers' locksets.
  std::map<std::string, std::vector<EntryPath>> by_field;
  for (std::size_t i = 0; i < eng->fns.size(); ++i) {
    if (!eng->is_root[i] && eng->is_callee[i]) continue;
    for (const auto& [field, paths] : eng->summaries[i]) {
      for (const AccessPath& p : paths) {
        by_field[field].push_back(
            {&p, &eng->fns[i], eng->is_root[i] != 0, eng->root_how[i]});
      }
    }
  }

  // Ownership heuristic (RacerD's): only classes that own a synchronization
  // member have shared-between-threads instances worth reporting on. Value
  // types (BigInt, Stopwatch, wire structs) live in one frame at a time —
  // their fields race only through their OWNER's fields, which are covered.
  std::set<std::string> lock_owning;
  for (const auto& [key, fd] : eng->field_decls) {
    if (fd.is_sync) lock_owning.insert(fd.class_name);
  }

  std::set<std::string> emitted;
  for (const auto& [field, entries] : by_field) {
    // Object-qualified keys ("out.limbs_") name per-frame receivers the
    // analyzer cannot prove shared; only this-qualified class state counts.
    const std::size_t qual = field.find("::");
    if (qual == std::string::npos) continue;
    if (lock_owning.count(field.substr(0, qual)) == 0) continue;
    const FieldDecl* decl = decl_for(*eng, field);
    // Unknown declarations cannot be proven non-atomic; std::atomic fields,
    // atomics-only aggregates, and the sync objects themselves are exempt.
    if (decl == nullptr || decl->is_atomic || decl->is_sync) continue;
    if (is_atomic_aggregate(*eng, decl->type)) continue;

    for (const EntryPath& w : entries) {
      if (!w.path->is_write) continue;
      if (!report_scope(w.path->leaf_file->path)) continue;
      for (const EntryPath& a : entries) {
        if (a.path == w.path) continue;
        if (a.path->leaf_file == w.path->leaf_file &&
            a.path->leaf_line == w.path->leaf_line &&
            a.path->is_write == w.path->is_write) {
          continue;  // same source site reached through another entry
        }
        if (!report_scope(a.path->leaf_file->path)) continue;
        if (!w.from_root && !a.from_root) continue;  // never concurrent
        if (locksets_intersect(w.path->lockset, a.path->lockset)) continue;
        if (w.path->lockset.empty() && a.path->lockset.empty() &&
            !(w.from_root && a.from_root)) {
          continue;  // both unguarded: racy only if both sides run on threads
        }
        if (path_allowed(w, "inconsistent-lockset")) continue;

        std::ostringstream key;
        key << w.path->leaf_file->path << ":" << w.path->leaf_line;
        if (!emitted.insert(key.str()).second) continue;

        std::vector<TraceStep> trace;
        entry_steps(w, &trace);
        append_step(&trace, a.path->leaf_file->path, a.path->leaf_line,
                    "conflicting " + std::string(a.path->is_write ? "write" : "read") +
                        " with " + lockset_label(a.path->lockset));
        entry_steps(a, &trace);

        Diagnostic d;
        d.file = w.path->leaf_file->path;
        d.line = static_cast<int>(w.path->leaf_line + 1);
        d.rule = "inconsistent-lockset";
        d.message = "field '" + field + "' written with " +
                    lockset_label(w.path->lockset) + " here but " +
                    (a.path->is_write ? "written" : "read") + " with " +
                    lockset_label(a.path->lockset) + " at " +
                    a.path->leaf_file->path + ":" +
                    std::to_string(a.path->leaf_line + 1) +
                    " on a concurrently-reachable path; guard every access "
                    "with a common mutex or make the field std::atomic";
        d.trace = std::move(trace);
        out->push_back(std::move(d));
        break;  // one conflict per write site
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R15: guard-escape (purely local)
// ---------------------------------------------------------------------------

void check_guard_escapes(const FileIndex& file, const FunctionInfo& fn,
                         std::vector<Diagnostic>* out) {
  if (!report_scope(file.path)) return;

  struct Pending {
    std::string var;    // local holding the aliasing pointer/iterator
    std::string field;  // guarded field it points into
    std::vector<std::string> lockset;
    std::size_t line_index;
    std::size_t stmt_idx;
  };
  std::vector<Pending> pending;

  auto emit = [&](std::size_t line_index, const std::string& message,
                  std::vector<TraceStep> trace) {
    if (allowed(file.allows, line_index, "guard-escape") ||
        allowed(file.fn_allows, fn.line_index, "guard-escape")) {
      return;
    }
    out->push_back({file.path, static_cast<int>(line_index + 1), "guard-escape",
                    message, std::move(trace)});
  };

  for (std::size_t si = 0; si < fn.stmts.size(); ++si) {
    const Statement& stmt = fn.stmts[si];
    for (const std::size_t c : stmt.calls) {
      const CallSite& call = fn.calls[c];
      if (!call.member_call || !is_escape_accessor(call.callee)) continue;
      if (!ends_with(call.chain_head, "_")) continue;  // fields only
      if (call.held_mutexes.empty()) continue;         // nothing to escape
      const std::string field = fn.class_name.empty()
                                    ? call.chain_head
                                    : fn.class_name + "::" + call.chain_head;
      if (stmt.is_return) {
        std::vector<TraceStep> trace;
        append_step(&trace, file.path, call.line_index,
                    "'" + call.chain_head + "." + call.callee +
                        "()' aliases the field's storage under " +
                        lockset_label(call.held_mutexes));
        append_step(&trace, file.path, call.line_index,
                    "returned from " + fn.qualified +
                        "; the guard releases at scope exit");
        emit(call.line_index,
             "pointer/iterator into guarded field '" + field + "' escapes " +
                 fn.qualified + " via return while " +
                 lockset_label(call.held_mutexes) +
                 " is held; copy the value out, or return under a caller-held "
                 "lock",
             std::move(trace));
      } else if (!stmt.write_ident.empty() && !ends_with(stmt.write_ident, "_")) {
        pending.push_back(
            {stmt.write_ident, field, call.held_mutexes, call.line_index, si});
      }
    }
  }

  for (const Pending& p : pending) {
    for (std::size_t sj = p.stmt_idx + 1; sj < fn.stmts.size(); ++sj) {
      const Statement& stmt = fn.stmts[sj];
      const bool reads = std::find(stmt.read_idents.begin(), stmt.read_idents.end(),
                                   p.var) != stmt.read_idents.end();
      if (stmt.write_ident == p.var && !reads) break;  // overwritten
      if (!reads) continue;
      if (locksets_intersect(stmt.held_mutexes, p.lockset)) continue;
      std::vector<TraceStep> trace;
      append_step(&trace, file.path, p.line_index,
                  "'" + p.var + "' aliases guarded field '" + p.field +
                      "' obtained under " + lockset_label(p.lockset));
      append_step(&trace, file.path, stmt.line_index,
                  "used with " + lockset_label(stmt.held_mutexes) + " in " +
                      fn.qualified);
      emit(stmt.line_index,
           "'" + p.var + "' points into guarded field '" + p.field +
               "' but is used after " + lockset_label(p.lockset) +
               " is released; keep the use inside the critical section or "
               "copy the data out",
           std::move(trace));
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// R16: interprocedural lock-order cycles
// ---------------------------------------------------------------------------

struct CycleEdgeWitness {
  const FileIndex* file = nullptr;
  std::size_t line_index = 0;
  std::size_t fn_line = 0;        // enclosing function, for allow-fn
  std::string function;
  bool interproc = false;
};

void check_lock_order_cycles(Engine* eng, std::vector<Diagnostic>* out) {
  // Transitive acquired-sets: mutexes a function (or any resolved callee)
  // takes. Deferred guards are included — they lock eventually.
  std::vector<std::set<std::string>> acquired(eng->fns.size());
  for (std::size_t i = 0; i < eng->fns.size(); ++i) {
    for (const GuardSite& g : eng->fns[i].fn->guards) {
      acquired[i].insert(g.mutexes.begin(), g.mutexes.end());
    }
  }
  for (int round = 0; round < kMaxFixpointRounds; ++round) {
    bool changed = false;
    for (std::size_t i = 0; i < eng->fns.size(); ++i) {
      for (const CallSite& call : eng->fns[i].fn->calls) {
        for (const std::size_t t :
             resolve_call(*eng, call, eng->fns[i].fn->class_name)) {
          const std::size_t before = acquired[i].size();
          acquired[i].insert(acquired[t].begin(), acquired[t].end());
          changed = changed || acquired[i].size() != before;
        }
      }
    }
    if (!changed) break;
  }

  // Edge graph: intra-function edges from the R7 model, plus "holding M
  // while calling a function that acquires N" interprocedural edges. First
  // witness per edge wins (deterministic: index order).
  std::map<std::string, std::map<std::string, CycleEdgeWitness>> graph;
  for (std::size_t i = 0; i < eng->fns.size(); ++i) {
    const FileIndex& file = *eng->fns[i].file;
    const FunctionInfo& fn = *eng->fns[i].fn;
    for (const LockEdge& e : fn.lock_edges) {
      graph[e.from].emplace(
          e.to, CycleEdgeWitness{&file, e.line_index, fn.line_index,
                                 fn.qualified, false});
    }
    for (const CallSite& call : fn.calls) {
      if (call.held_mutexes.empty()) continue;
      for (const std::size_t t : resolve_call(*eng, call, fn.class_name)) {
        for (const std::string& m : call.held_mutexes) {
          for (const std::string& n : acquired[t]) {
            if (n == m || std::find(call.held_mutexes.begin(),
                                    call.held_mutexes.end(),
                                    n) != call.held_mutexes.end()) {
              continue;  // re-entry up the stack, not an ordering edge
            }
            graph[m].emplace(
                n, CycleEdgeWitness{&file, call.line_index, fn.line_index,
                                    fn.qualified + " -> " + call.callee + "()",
                                    true});
          }
        }
      }
    }
  }

  // Cycle DFS (the R7 detector's idiom); only cycles carrying at least one
  // interprocedural edge are reported here — pure intra-function cycles
  // are already R7 findings.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> path;
  std::set<std::string> reported;

  struct Frame {
    std::string node;
    std::map<std::string, CycleEdgeWitness>::const_iterator next, end;
  };

  for (const auto& [start, unused] : graph) {
    (void)unused;
    if (color[start] != 0) continue;
    std::vector<Frame> stack;
    const auto& first_children = graph.at(start);
    stack.push_back({start, first_children.begin(), first_children.end()});
    color[start] = 1;
    path.push_back(start);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next != frame.end) {
        const std::string& child = frame.next->first;
        ++frame.next;
        if (color[child] == 1) {
          const auto at = std::find(path.begin(), path.end(), child);
          std::vector<std::string> cycle(at, path.end());
          cycle.push_back(child);

          const CycleEdgeWitness* anchor = nullptr;
          std::vector<TraceStep> trace;
          for (std::size_t e = 0; e + 1 < cycle.size(); ++e) {
            const CycleEdgeWitness& w = graph.at(cycle[e]).at(cycle[e + 1]);
            append_step(&trace, w.file->path, w.line_index,
                        cycle[e] + " -> " + cycle[e + 1] + " (" + w.function + ")");
            if (w.interproc && anchor == nullptr) anchor = &w;
          }
          if (anchor == nullptr) continue;  // intra-only: R7's finding
          if (!report_scope(anchor->file->path)) continue;
          if (allowed(anchor->file->allows, anchor->line_index,
                      "lock-order-cycle") ||
              allowed(anchor->file->fn_allows, anchor->fn_line,
                      "lock-order-cycle")) {
            continue;
          }
          std::ostringstream label;
          for (const std::string& n : cycle) {
            if (label.tellp() > 0) label << " -> ";
            label << n;
          }
          if (!reported.insert(label.str()).second) continue;
          out->push_back({anchor->file->path,
                          static_cast<int>(anchor->line_index + 1),
                          "lock-order-cycle",
                          "interprocedural lock-order cycle: " + label.str() +
                              " (" + anchor->function +
                              " acquires across the call graph); impose a "
                              "single acquisition order or drop the lock "
                              "before the call",
                          std::move(trace)});
        } else if (color[child] == 0) {
          color[child] = 1;
          path.push_back(child);
          static const std::map<std::string, CycleEdgeWitness> kNone;
          const auto it = graph.find(child);
          const auto& children = (it != graph.end()) ? it->second : kNone;
          stack.push_back({child, children.begin(), children.end()});
        }
      } else {
        color[frame.node] = 2;
        path.pop_back();
        stack.pop_back();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Guarded-by inference (the doc/CONCURRENCY.md payload)
// ---------------------------------------------------------------------------

std::vector<GuardedByEntry> infer_guarded_by(const Engine& eng) {
  struct Agg {
    std::vector<std::string> guards;  // running intersection over writes
    bool any_write = false;
    std::size_t writes = 0;
    std::size_t reads = 0;
  };
  std::map<std::string, Agg> agg;  // class-scoped fields with src/ accesses

  for (const FnRef& ref : eng.fns) {
    if (!starts_with(ref.file->path, "src/")) continue;
    if (is_ctor_or_dtor(*ref.fn)) continue;
    for (const FieldAccess& a : ref.fn->accesses) {
      if (a.field.find("::") == std::string::npos) continue;
      Agg& entry = agg[a.field];
      if (a.is_write) {
        ++entry.writes;
        if (!entry.any_write) {
          entry.any_write = true;
          entry.guards = a.held_mutexes;
        } else {
          std::vector<std::string> kept;
          for (const std::string& m : entry.guards) {
            if (std::find(a.held_mutexes.begin(), a.held_mutexes.end(), m) !=
                a.held_mutexes.end()) {
              kept.push_back(m);
            }
          }
          entry.guards = std::move(kept);
        }
      } else {
        ++entry.reads;
      }
    }
  }

  std::vector<GuardedByEntry> out;
  for (const auto& [field, a] : agg) {
    const FieldDecl* decl = decl_for(eng, field);
    GuardedByEntry e;
    e.field = field;
    e.type = decl != nullptr ? decl->type : "?";
    e.guards = a.any_write ? a.guards : std::vector<std::string>{};
    e.writes = a.writes;
    e.reads = a.reads;
    e.is_atomic = decl != nullptr &&
                  (decl->is_atomic || is_atomic_aggregate(eng, decl->type));
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<ThreadRoot> collect_roots(const Engine& eng) {
  std::set<ThreadRoot> roots;
  for (std::size_t i = 0; i < eng.fns.size(); ++i) {
    if (!eng.is_root[i]) continue;
    if (!starts_with(eng.fns[i].file->path, "src/")) continue;
    roots.insert({eng.fns[i].file->path, eng.fns[i].fn->qualified, eng.root_how[i]});
  }
  return {roots.begin(), roots.end()};
}

}  // namespace

ConcurrencyAnalysis analyze_concurrency(const RepoIndex& index) {
  Engine eng = build_engine(index);
  discover_thread_roots(&eng);
  mark_callees(&eng);
  run_fixpoint(&eng);

  ConcurrencyAnalysis result;
  check_inconsistent_locksets(&eng, &result.diagnostics);
  for (const FnRef& ref : eng.fns) {
    check_guard_escapes(*ref.file, *ref.fn, &result.diagnostics);
  }
  check_lock_order_cycles(&eng, &result.diagnostics);
  result.guarded_by = infer_guarded_by(eng);
  result.roots = collect_roots(eng);
  return result;
}

std::string concurrency_markdown(const ConcurrencyAnalysis& analysis) {
  std::ostringstream os;
  os << "# Concurrency contract\n\n";
  os << "Generated by `dblint --emit-concurrency`; do not edit by hand.\n\n";
  os << "The guarded-by map below is INFERRED by the lockset engine\n"
        "(tools/dblint/concurrency.cpp): for every class field accessed under\n"
        "src/, the guard column is the intersection of the mutexes held across\n"
        "all of its write sites. A PR that changes locking changes this file,\n"
        "and `dblint` fails until it is regenerated — the same drift gate\n"
        "doc/LEAKAGE.md and doc/SECRET_FLOWS.md use. Fields guarded by\n"
        "`(atomic)` rely on std::atomic, not a mutex; `(none)` means no mutex\n"
        "is common to every write — safe only for single-threaded or\n"
        "externally-synchronized state.\n\n";
  os << "## Thread roots\n\n";
  os << "| File | Function | Discovered via |\n";
  os << "|---|---|---|\n";
  for (const ThreadRoot& r : analysis.roots) {
    os << "| " << r.file << " | " << r.qualified << " | " << r.how << " |\n";
  }
  os << "\n## Guarded-by map\n\n";
  os << "| Field | Type | Guarded by | Writes | Reads |\n";
  os << "|---|---|---|---|---|\n";
  for (const GuardedByEntry& e : analysis.guarded_by) {
    os << "| " << e.field << " | " << e.type << " | ";
    if (e.is_atomic) {
      os << "(atomic)";
    } else if (e.guards.empty()) {
      os << "(none)";
    } else {
      for (std::size_t i = 0; i < e.guards.size(); ++i) {
        if (i) os << ", ";
        os << e.guards[i];
      }
    }
    os << " | " << e.writes << " | " << e.reads << " |\n";
  }
  return os.str();
}

}  // namespace dblint
