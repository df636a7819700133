#include "flow.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "text.hpp"

namespace dblint {
namespace {

constexpr std::size_t kMaxTraceSteps = 12;
constexpr int kMaxFixpointRounds = 10;
constexpr std::size_t kMaxCalleeDefs = 3;  // skip resolution beyond this

// ---------------------------------------------------------------------------
// Source / sanitizer / sink classification
// ---------------------------------------------------------------------------

/// Case-sensitive '_'-segment scan, shared with the old R8: the `Value(`
/// wire-constructor is allowed, `enc_value` / `plaintext` are not.
bool has_segment(const std::string& ident, const std::set<std::string>& segments) {
  std::size_t start = 0;
  while (start <= ident.size()) {
    const std::size_t us = ident.find('_', start);
    const std::string seg =
        ident.substr(start, (us == std::string::npos ? ident.size() : us) - start);
    if (segments.count(seg) > 0) return true;
    if (us == std::string::npos) break;
    start = us + 1;
  }
  return false;
}

bool is_plaintext_accessor(const std::string& callee) {
  static const std::set<std::string> kAccessors = {"as_string", "as_int", "as_double",
                                                   "as_bool", "scalar_bytes"};
  return kAccessors.count(callee) > 0;
}

/// Identifiers that are taint sources by NAME. Returns "", "secret" or
/// "plaintext". Deliberately narrower than R8's old ident test: `value` is
/// NOT a taint segment — the wire type doc::Value carries sealed bytes as
/// often as not (decode_value, Value{}, value_), and the engine tracks the
/// REAL plaintext mints (accessors, decrypt, expose_secret) as flows
/// instead of guessing from that name.
std::string name_taint_kind(const std::string& ident) {
  if (ident == "expose_secret" || is_plaintext_accessor(ident)) return "plaintext";
  static const std::set<std::string> kSecret = {"secret"};
  static const std::set<std::string> kPlain = {"plaintext", "cleartext"};
  if (has_segment(ident, kSecret)) return "secret";
  if (has_segment(ident, kPlain)) return "plaintext";
  return {};
}

/// The crypto-kernel entry points whose OUTPUT is safe to egress. hkdf is
/// deliberately absent (key derivation: output is still key material), and
/// decrypt is a source, not a sanitizer.
bool is_sanitizer(const std::string& callee) {
  static const std::set<std::string> kSegments = {
      "encrypt", "seal", "prf", "prf64", "hmac", "fingerprint",
      "hash",    "digest", "mac", "sha",  "sha256"};
  return has_segment(callee, kSegments);
}

bool is_decrypt(const std::string& callee) {
  static const std::set<std::string> kSegments = {"decrypt", "unseal", "open"};
  return has_segment(callee, kSegments);
}

/// RPC/channel egress. `log_line` is an R11 sink but handled separately —
/// it is not "egress" for R13 (logging under a lock is noisy, not a
/// wire-protocol hazard).
bool is_egress_sink(const CallSite& call) {
  if (!call.member_call) return false;
  static const std::set<std::string> kSinks = {
      "call",      "send_batch", "transfer_request", "transfer_response",
      "call_read", "call_write", "dispatch"};
  return kSinks.count(call.callee) > 0;
}

bool is_wipe_callee(const std::string& callee) {
  return callee == "secure_wipe" || callee == "wipe_region";
}

bool is_owning_buffer_type(const std::string& decl_type) {
  static const std::set<std::string> kOwning = {"Bytes", "string", "basic_string",
                                                "vector", "array"};
  return kOwning.count(decl_type) > 0;
}

// ---------------------------------------------------------------------------
// Scope predicates — where findings are reported (summaries are computed
// everywhere so helpers in any tree contribute).
// ---------------------------------------------------------------------------

bool r11_scope(const std::string& path) {
  return starts_with(path, "src/") && !starts_with(path, "src/workload/");
}
bool r12_scope(const std::string& path) { return starts_with(path, "src/"); }
bool r13_scope(const std::string& path) {
  // The simulated client (workload/) is outside the trust boundary the
  // lock/egress interaction protects; its driver loops hold bookkeeping
  // locks around whole gateway calls by design.
  return starts_with(path, "src/") && !starts_with(path, "src/workload/");
}

// ---------------------------------------------------------------------------
// Taint values and summaries
// ---------------------------------------------------------------------------

/// Taint carried by one identifier: inherent (a source was touched) and/or
/// parameter-derived (flows from the function's own params — the part that
/// becomes the caller's problem via summaries).
struct Taint {
  bool inherent = false;
  std::string kind;  // "secret" | "plaintext" when inherent
  std::set<int> from_params;
  std::vector<TraceStep> steps;

  bool empty() const { return !inherent && from_params.empty(); }
};

void append_steps(std::vector<TraceStep>* dst, const std::vector<TraceStep>& src) {
  for (const TraceStep& s : src) {
    if (dst->size() >= kMaxTraceSteps) return;
    dst->push_back(s);
  }
}

void append_step(std::vector<TraceStep>* dst, const std::string& file,
                 std::size_t line_index, const std::string& note) {
  if (dst->size() >= kMaxTraceSteps) return;
  dst->push_back({file, static_cast<int>(line_index + 1), note});
}

void merge_taint(Taint* into, const Taint& from) {
  if (from.empty()) return;
  if (from.inherent) {
    if (!into->inherent) {
      into->inherent = true;
      into->kind = from.kind;
    } else if (into->kind == "plaintext" && from.kind == "secret") {
      into->kind = "secret";  // secret dominates in messages
    }
  }
  into->from_params.insert(from.from_params.begin(), from.from_params.end());
  if (into->steps.empty()) {
    into->steps = from.steps;
  } else {
    append_steps(&into->steps, from.steps);
  }
}

struct FnSummary {
  std::map<int, std::vector<TraceStep>> param_to_sink;
  std::set<int> param_to_return;
  bool returns_secret = false;
  std::string returns_kind;
  std::vector<TraceStep> returns_trace;
  bool reaches_egress = false;
  std::vector<TraceStep> egress_trace;

  /// Change detection for the fixpoint — traces excluded (they only grow
  /// in lockstep with the boolean/set facts).
  bool same_facts(const FnSummary& o) const {
    // dblint:allow(ct-compare): summary booleans about secrecy, not key material
    if (returns_secret != o.returns_secret || reaches_egress != o.reaches_egress ||
        param_to_return != o.param_to_return) {
      return false;
    }
    if (param_to_sink.size() != o.param_to_sink.size()) return false;
    for (const auto& [k, unused] : param_to_sink) {
      (void)unused;
      if (o.param_to_sink.count(k) == 0) return false;
    }
    return true;
  }
};

struct FnRef {
  const FileIndex* file = nullptr;
  const FunctionInfo* fn = nullptr;
};

struct Engine {
  const RepoIndex* index = nullptr;
  std::vector<FnRef> fns;                         // all functions, index order
  std::map<std::string, std::vector<std::size_t>> defs;  // unqualified name -> fns idx
  std::vector<FnSummary> summaries;               // parallel to fns

  // Report-pass outputs.
  std::vector<Diagnostic>* out = nullptr;
  std::set<SanctionedFlow>* sanctioned = nullptr;
  std::set<std::string> emitted;  // "file:line:rule" dedup
};

bool flow_allowed(const FileIndex& file, const FunctionInfo& fn,
                  std::size_t line_index, const std::string& rule) {
  return allowed(file.allows, line_index, rule) ||
         allowed(file.fn_allows, fn.line_index, rule);
}

void emit(Engine* eng, const FileIndex& file, const FunctionInfo& fn,
          std::size_t line_index, const std::string& rule, const std::string& message,
          std::vector<TraceStep> trace) {
  if (eng->out == nullptr) return;
  if (flow_allowed(file, fn, line_index, rule)) return;
  std::ostringstream key;
  key << file.path << ":" << line_index << ":" << rule;
  if (!eng->emitted.insert(key.str()).second) return;
  Diagnostic d;
  d.file = file.path;
  d.line = static_cast<int>(line_index + 1);
  d.rule = rule;
  d.message = message;
  d.trace = std::move(trace);
  eng->out->push_back(std::move(d));
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Local transfer function: one pass over a function body, computing its
// summary against the current callee summaries; with `report` set it also
// emits R11/R13 findings (R12 runs separately — it is purely local).
// ---------------------------------------------------------------------------

struct LocalState {
  std::map<std::string, Taint> taint;
  std::set<std::string> cleansed;          // sanitizer products by name
  std::map<std::string, std::string> decl_types;
  std::map<std::string, int> param_index;
};

Taint ident_taint(const LocalState& st, const std::string& ident,
                  const std::string& file, std::size_t line_index) {
  if (st.cleansed.count(ident) > 0) return {};
  const auto it = st.taint.find(ident);
  if (it != st.taint.end()) return it->second;
  const std::string kind = name_taint_kind(ident);
  if (!kind.empty()) {
    Taint t;
    t.inherent = true;
    t.kind = kind;
    append_step(&t.steps, file, line_index,
                "identifier '" + ident + "' is " + kind + "-patterned");
    return t;
  }
  return {};
}

/// Method names that collide with the standard containers/smart pointers.
/// `journal_.find(k)` is almost always std::map::find, not whatever
/// `find()` the tree happens to define — resolving it interprocedurally
/// manufactures absurd chains (map.insert → Gateway::insert → RPC egress).
/// The cost is losing flows through same-named in-tree APIs; direct sink
/// detection is unaffected.
bool is_container_method(const std::string& callee) {
  static const std::set<std::string> kMethods = {
      "insert",  "find",    "erase",   "emplace", "emplace_back", "push_back",
      "pop_back","append",  "at",      "count",   "begin",        "end",
      "size",    "empty",   "clear",   "front",   "back",         "data",
      "reserve", "resize",  "substr",  "c_str",   "str",          "reset",
      "release", "swap",    "assign",  "get",     "push",         "pop",
      "top",     "load",    "store",   "contains"};
  return kMethods.count(callee) > 0;
}

/// Resolves an unqualified callee name to its in-tree definitions (at most
/// kMaxCalleeDefs — beyond that the name is too generic to trust).
const std::vector<std::size_t>* resolve(const Engine& eng, const std::string& callee) {
  if (is_container_method(callee)) return nullptr;
  const auto it = eng.defs.find(callee);
  if (it == eng.defs.end() || it->second.size() > kMaxCalleeDefs) return nullptr;
  return &it->second;
}

void analyze_function(Engine* eng, std::size_t fn_idx, bool report) {
  const FileIndex& file = *eng->fns[fn_idx].file;
  const FunctionInfo& fn = *eng->fns[fn_idx].fn;
  FnSummary& sum = eng->summaries[fn_idx];

  LocalState st;
  for (std::size_t i = 0; i < fn.params.size(); ++i) {
    const std::string& p = fn.params[i];
    st.param_index[p] = static_cast<int>(i);
    Taint t;
    t.from_params.insert(static_cast<int>(i));
    const std::string kind = name_taint_kind(p);
    if (!kind.empty()) {
      t.inherent = true;
      t.kind = kind;
    }
    append_step(&t.steps, file.path, fn.line_index,
                "parameter " + std::to_string(i + 1) + " ('" + p + "') of " + fn.qualified);
    st.taint[p] = std::move(t);
  }

  // Two sweeps so taint assigned late still reaches earlier statements of a
  // loop body; findings are emitted on the last sweep only.
  for (int sweep = 0; sweep < 2; ++sweep) {
    const bool emit_now = report && sweep == 1;
    for (const Statement& stmt : fn.stmts) {
      Taint stmt_taint;
      bool sanitizer_in_stmt = false;
      std::set<std::string> sanitized_idents;

      // Sanitizer arguments are collected up front so a sink that appears
      // EARLIER in token order than the sanitizer feeding it — the nested
      // `call(m, pack(encrypt(v)))` shape — still sees them excluded.
      for (const std::size_t c : stmt.calls) {
        const CallSite& call = fn.calls[c];
        if (!is_sanitizer(call.callee)) continue;
        for (const auto& arg : call.args) {
          for (const std::string& ident : arg) sanitized_idents.insert(ident);
        }
      }

      // Summary-driven laundering: an argument consumed by a resolved callee
      // whose summary proves that parameter neither forwards to a sink nor
      // flows to the return value is clean for the rest of the statement —
      // the callee sanitizes internally (SSE clients PRF keywords before the
      // wire, for instance). Recorded as a sanctioned flow like an inline
      // sanitizer would be. The arity guard keeps a mis-parsed signature
      // from laundering everything.
      std::map<std::string, std::string> laundered;  // ident -> laundering callee
      for (const std::size_t c : stmt.calls) {
        const CallSite& call = fn.calls[c];
        if (is_sanitizer(call.callee) || is_egress_sink(call) ||
            call.callee == "log_line" || call.callee == "expose_secret" ||
            is_plaintext_accessor(call.callee) || is_decrypt(call.callee) ||
            is_wipe_callee(call.callee)) {
          continue;
        }
        const std::vector<std::size_t>* targets = resolve(*eng, call.callee);
        if (targets == nullptr) continue;
        for (std::size_t a = 0; a < call.args.size(); ++a) {
          bool launders = true;
          for (const std::size_t t_idx : *targets) {
            const FnSummary& cs = eng->summaries[t_idx];
            const int ap = static_cast<int>(a);
            if (eng->fns[t_idx].fn->params.size() <= a ||
                cs.param_to_sink.count(ap) > 0 || cs.param_to_return.count(ap) > 0) {
              launders = false;
            }
          }
          if (!launders) continue;
          for (const std::string& ident : call.args[a]) {
            laundered.emplace(ident, call.callee);
            const Taint t = ident_taint(st, ident, file.path, stmt.line_index);
            if (emit_now && t.inherent && eng->sanctioned != nullptr &&
                starts_with(file.path, "src/")) {
              eng->sanctioned->insert(
                  {file.path, fn.qualified, call.callee,
                   t.steps.empty() ? (t.kind + " value") : t.steps.front().note});
            }
          }
        }
      }

      // Products of resolved same-statement callees, keyed by callee name:
      // `sink(helper(x))` must see helper's summary without an intermediate
      // local. Two rounds so a nested producer feeds an enclosing one.
      std::map<std::string, Taint> products;
      for (int prod_round = 0; prod_round < 2; ++prod_round) {
        for (const std::size_t c : stmt.calls) {
          const CallSite& call = fn.calls[c];
          if (is_sanitizer(call.callee) || laundered.count(call.callee) > 0) continue;
          const std::vector<std::size_t>* targets = resolve(*eng, call.callee);
          if (targets == nullptr) continue;
          Taint product;
          for (const std::size_t t_idx : *targets) {
            const FnSummary& cs = eng->summaries[t_idx];
            if (cs.returns_secret) {
              Taint t;
              t.inherent = true;
              t.kind = cs.returns_kind;
              t.steps = cs.returns_trace;
              append_step(&t.steps, file.path, call.line_index,
                          "returned by '" + call.callee + "()' in " + fn.qualified);
              merge_taint(&product, t);
            }
            for (std::size_t a = 0; a < call.args.size(); ++a) {
              if (cs.param_to_return.count(static_cast<int>(a)) == 0) continue;
              Taint at;
              for (const std::string& ident : call.args[a]) {
                if (laundered.count(ident) > 0 || sanitized_idents.count(ident) > 0) {
                  continue;
                }
                merge_taint(&at, ident_taint(st, ident, file.path, stmt.line_index));
                const auto pit = products.find(ident);
                if (pit != products.end()) merge_taint(&at, pit->second);
              }
              if (at.empty()) continue;
              append_step(&at.steps, file.path, call.line_index,
                          "flows through '" + call.callee + "()' (argument " +
                              std::to_string(a + 1) + " returned)");
              merge_taint(&product, at);
            }
          }
          if (!product.empty()) products[call.callee] = product;
        }
      }

      for (const std::size_t c : stmt.calls) {
        const CallSite& call = fn.calls[c];

        // Union taint of all argument identifiers (and nested call
        // products), remembering per-arg taints for the param mapping below.
        std::vector<Taint> arg_taints(call.args.size());
        for (std::size_t a = 0; a < call.args.size(); ++a) {
          for (const std::string& ident : call.args[a]) {
            merge_taint(&arg_taints[a],
                        ident_taint(st, ident, file.path, stmt.line_index));
            const auto pit = products.find(ident);
            if (pit != products.end()) merge_taint(&arg_taints[a], pit->second);
          }
        }

        if (is_sanitizer(call.callee)) {
          sanitizer_in_stmt = true;
          Taint all;
          for (std::size_t a = 0; a < call.args.size(); ++a) {
            merge_taint(&all, arg_taints[a]);
            for (const std::string& ident : call.args[a]) sanitized_idents.insert(ident);
          }
          if (emit_now && all.inherent && eng->sanctioned != nullptr &&
              starts_with(file.path, "src/")) {
            eng->sanctioned->insert(
                {file.path, fn.qualified, call.callee,
                 all.steps.empty() ? (all.kind + " value") : all.steps.front().note});
          }
          continue;  // product is clean
        }

        if (call.callee == "expose_secret") {
          Taint t;
          t.inherent = true;
          t.kind = "secret";
          append_step(&t.steps, file.path, call.line_index,
                      "expose_secret() unwraps key material in " + fn.qualified);
          merge_taint(&stmt_taint, t);
          continue;
        }
        if (is_plaintext_accessor(call.callee)) {
          Taint t;
          t.inherent = true;
          t.kind = "plaintext";
          append_step(&t.steps, file.path, call.line_index,
                      "plaintext accessor '" + call.callee + "()' in " + fn.qualified);
          merge_taint(&stmt_taint, t);
          continue;
        }
        if (is_decrypt(call.callee)) {
          Taint t;
          t.inherent = true;
          t.kind = "plaintext";
          append_step(&t.steps, file.path, call.line_index,
                      "decryption product of '" + call.callee + "()' in " + fn.qualified);
          merge_taint(&stmt_taint, t);
          continue;
        }

        const bool sink = is_egress_sink(call);
        const bool log_sink = call.callee == "log_line";

        if (sink || log_sink) {
          if (sink) {
            if (!sum.reaches_egress) {
              sum.reaches_egress = true;
              append_step(&sum.egress_trace, file.path, call.line_index,
                          "egress '" + call.callee + "' in " + fn.qualified);
            }
            if (!call.held_mutexes.empty() && emit_now && r13_scope(file.path)) {
              std::vector<TraceStep> trace;
              append_step(&trace, file.path, call.line_index,
                          "egress '" + call.callee + "' with " +
                              join(call.held_mutexes, ", ") + " held");
              emit(eng, file, fn, call.line_index, "lock-held-egress",
                   "egress call '" + call.callee + "' in " + fn.qualified +
                       " while holding " + join(call.held_mutexes, ", ") +
                       "; release the lock before touching the wire, or annotate "
                       "the function with dblint:allow-fn(lock-held-egress)",
                   std::move(trace));
            }
          }
          // Tainted flow INTO the sink (R11).
          for (std::size_t a = 0; a < call.args.size(); ++a) {
            Taint t;
            for (const std::string& ident : call.args[a]) {
              if (sanitized_idents.count(ident) > 0) continue;
              if (laundered.count(ident) > 0) continue;
              merge_taint(&t, ident_taint(st, ident, file.path, stmt.line_index));
              const auto pit = products.find(ident);
              if (pit != products.end()) merge_taint(&t, pit->second);
            }
            if (t.empty()) continue;
            std::vector<TraceStep> trace = t.steps;
            append_step(&trace, file.path, call.line_index,
                        "reaches egress '" + call.callee + "' in " + fn.qualified);
            if (t.inherent && emit_now && r11_scope(file.path)) {
              emit(eng, file, fn, call.line_index, "secret-egress",
                   t.kind + "-tainted value reaches egress call '" + call.callee +
                       "' in " + fn.qualified +
                       "; seal it through a crypto-kernel sanitizer first",
                   trace);
            }
            for (const int p : t.from_params) {
              if (sum.param_to_sink.count(p) == 0) sum.param_to_sink[p] = trace;
            }
          }
          continue;
        }

        // Resolved in-tree callees: propagate their summaries.
        const std::vector<std::size_t>* targets = resolve(*eng, call.callee);
        bool callee_reaches_egress = false;
        std::vector<TraceStep> callee_egress_trace;
        if (targets != nullptr) {
          for (const std::size_t t_idx : *targets) {
            const FnSummary& cs = eng->summaries[t_idx];
            if (cs.reaches_egress && !callee_reaches_egress) {
              callee_reaches_egress = true;
              callee_egress_trace = cs.egress_trace;
            }
            if (cs.returns_secret) {
              const auto lb = laundered.find(call.callee);
              if (lb != laundered.end() || sanitized_idents.count(call.callee) > 0) {
                // The product feeds straight into a laundering (or sanitizer)
                // call in the same statement — sanctioned, not propagated.
                if (emit_now && eng->sanctioned != nullptr &&
                    starts_with(file.path, "src/")) {
                  eng->sanctioned->insert(
                      {file.path, fn.qualified,
                       lb != laundered.end() ? lb->second : std::string("sanitizer"),
                       cs.returns_trace.empty() ? (cs.returns_kind + " value")
                                                : cs.returns_trace.front().note});
                }
              } else {
                Taint t;
                t.inherent = true;
                t.kind = cs.returns_kind;
                t.steps = cs.returns_trace;
                append_step(&t.steps, file.path, call.line_index,
                            "returned by '" + call.callee + "()' in " + fn.qualified);
                merge_taint(&stmt_taint, t);
              }
            }
            for (std::size_t a = 0; a < call.args.size(); ++a) {
              const int ap = static_cast<int>(a);
              Taint at = arg_taints[a];
              for (const std::string& ident : call.args[a]) {
                if (sanitized_idents.count(ident) > 0 || laundered.count(ident) > 0) {
                  at = Taint{};
                }
              }
              if (at.empty()) continue;
              if (cs.param_to_return.count(ap) > 0) {
                Taint t = at;
                append_step(&t.steps, file.path, call.line_index,
                            "flows through '" + call.callee + "()' (argument " +
                                std::to_string(a + 1) + " returned)");
                merge_taint(&stmt_taint, t);
              }
              const auto ps = cs.param_to_sink.find(ap);
              if (ps != cs.param_to_sink.end()) {
                std::vector<TraceStep> trace = at.steps;
                append_step(&trace, file.path, call.line_index,
                            "passed as argument " + std::to_string(a + 1) + " to '" +
                                call.callee + "()' in " + fn.qualified);
                append_steps(&trace, ps->second);
                if (at.inherent && emit_now && r11_scope(file.path)) {
                  emit(eng, file, fn, call.line_index, "secret-egress",
                       at.kind + "-tainted value passed to '" + call.callee +
                           "()', which forwards it to an egress sink; seal it "
                           "through a crypto-kernel sanitizer first",
                       trace);
                }
                for (const int p : at.from_params) {
                  if (sum.param_to_sink.count(p) == 0) sum.param_to_sink[p] = trace;
                }
              }
            }
          }
        }
        if (callee_reaches_egress) {
          if (!sum.reaches_egress) {
            sum.reaches_egress = true;
            append_step(&sum.egress_trace, file.path, call.line_index,
                        "calls '" + call.callee + "()' in " + fn.qualified);
            append_steps(&sum.egress_trace, callee_egress_trace);
          }
          if (!call.held_mutexes.empty() && emit_now && r13_scope(file.path)) {
            std::vector<TraceStep> trace;
            append_step(&trace, file.path, call.line_index,
                        "calls '" + call.callee + "()' with " +
                            join(call.held_mutexes, ", ") + " held");
            append_steps(&trace, callee_egress_trace);
            emit(eng, file, fn, call.line_index, "lock-held-egress",
                 "call to '" + call.callee + "()' reaches an egress sink while " +
                     join(call.held_mutexes, ", ") +
                     " is held; release the lock before touching the wire, or "
                     "annotate the function with dblint:allow-fn(lock-held-egress)",
                 std::move(trace));
          }
        }
      }

      // Reads outside sanitizer/laundering arguments contribute to the
      // statement value.
      for (const std::string& ident : stmt.read_idents) {
        if (sanitizer_in_stmt && sanitized_idents.count(ident) > 0) continue;
        if (laundered.count(ident) > 0) continue;
        if (is_sanitizer(ident)) continue;  // the callee name itself
        merge_taint(&stmt_taint, ident_taint(st, ident, file.path, stmt.line_index));
      }

      // Return edges feed the summary.
      if (stmt.is_return && !stmt_taint.empty()) {
        if (stmt_taint.inherent && !sum.returns_secret) {
          sum.returns_secret = true;
          sum.returns_kind = stmt_taint.kind;
          sum.returns_trace = stmt_taint.steps;
        }
        sum.param_to_return.insert(stmt_taint.from_params.begin(),
                                   stmt_taint.from_params.end());
      }

      // Assignment: strong update.
      if (!stmt.write_ident.empty()) {
        if (!stmt.decl_type.empty()) st.decl_types[stmt.write_ident] = stmt.decl_type;

        // Writing a tainted value into a replica LogEntry is a sink: the
        // entry is replayed to every cloud replica.
        const auto dt = st.decl_types.find(stmt.write_ident);
        if (dt != st.decl_types.end() && dt->second == "LogEntry" &&
            !stmt_taint.empty() && !sanitizer_in_stmt) {
          std::vector<TraceStep> trace = stmt_taint.steps;
          append_step(&trace, file.path, stmt.line_index,
                      "stored into replica LogEntry '" + stmt.write_ident + "' in " +
                          fn.qualified);
          if (stmt_taint.inherent && emit_now && r11_scope(file.path)) {
            emit(eng, file, fn, stmt.line_index, "secret-egress",
                 stmt_taint.kind + "-tainted value stored into replica LogEntry '" +
                     stmt.write_ident + "' in " + fn.qualified +
                     "; the log is replayed to every replica — seal the bytes first",
                 trace);
          }
          for (const int p : stmt_taint.from_params) {
            if (sum.param_to_sink.count(p) == 0) sum.param_to_sink[p] = trace;
          }
        }

        if (stmt.decl_type == "SecretBytes") {
          Taint t;
          t.inherent = true;
          t.kind = "secret";
          append_step(&t.steps, file.path, stmt.line_index,
                      "SecretBytes '" + stmt.write_ident + "' declared in " + fn.qualified);
          st.cleansed.erase(stmt.write_ident);
          st.taint[stmt.write_ident] = std::move(t);
        } else if (sanitizer_in_stmt) {
          st.cleansed.insert(stmt.write_ident);
          st.taint.erase(stmt.write_ident);
        } else if (!stmt_taint.empty()) {
          st.cleansed.erase(stmt.write_ident);
          Taint t = stmt_taint;
          st.taint[stmt.write_ident] = std::move(t);
        } else if (st.param_index.count(stmt.write_ident) == 0) {
          // Clean overwrite kills prior and name-pattern taint (but a
          // param keeps its origin — the summary tracks entry values).
          st.cleansed.insert(stmt.write_ident);
          st.taint.erase(stmt.write_ident);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R12: wipe-on-all-paths — purely local, linear CFG sketch: a raw owning
// copy of an expose_secret() product must have a wipe (secure_wipe /
// wipe_region / SecretBytes adoption) between its declaration and every
// later return/throw edge.
// ---------------------------------------------------------------------------

void check_wipe_on_all_paths(Engine* eng, std::size_t fn_idx) {
  const FileIndex& file = *eng->fns[fn_idx].file;
  const FunctionInfo& fn = *eng->fns[fn_idx].fn;
  if (!r12_scope(file.path)) return;

  for (std::size_t si = 0; si < fn.stmts.size(); ++si) {
    const Statement& decl = fn.stmts[si];
    if (decl.write_ident.empty() || !is_owning_buffer_type(decl.decl_type)) continue;
    bool exposes = false;
    for (const std::size_t c : decl.calls) {
      if (fn.calls[c].callee == "expose_secret") exposes = true;
    }
    if (!exposes) continue;
    const std::string& local = decl.write_ident;

    std::vector<std::size_t> wipes;  // statement indices
    std::vector<std::size_t> exits;
    for (std::size_t sj = si + 1; sj < fn.stmts.size(); ++sj) {
      const Statement& s = fn.stmts[sj];
      bool wiped = false;
      for (const std::size_t c : s.calls) {
        const CallSite& call = fn.calls[c];
        if (is_wipe_callee(call.callee)) {
          for (const auto& arg : call.args) {
            if (std::find(arg.begin(), arg.end(), local) != arg.end()) wiped = true;
          }
        }
        if (call.callee == "throw_error" && !wiped) exits.push_back(sj);
      }
      if (s.decl_type == "SecretBytes" &&
          std::find(s.read_idents.begin(), s.read_idents.end(), local) !=
              s.read_idents.end()) {
        wiped = true;  // the adopting constructor wipes its source
      }
      if (wiped) wipes.push_back(sj);
      if (s.is_return || s.is_throw) exits.push_back(sj);
    }

    auto decl_step = [&](std::vector<TraceStep>* trace) {
      append_step(trace, file.path, decl.line_index,
                  "raw owning copy of expose_secret() product into '" + local + "' (" +
                      decl.decl_type + ") in " + fn.qualified);
    };

    if (wipes.empty()) {
      std::vector<TraceStep> trace;
      decl_step(&trace);
      append_step(&trace, file.path, decl.line_index, "no secure_wipe on any path");
      emit(eng, file, fn, decl.line_index, "wipe-on-all-paths",
           "raw secret copy '" + local + "' in " + fn.qualified +
               " is never wiped; call secure_wipe()/wipe_region() or adopt it "
               "into SecretBytes before every exit",
           std::move(trace));
      continue;
    }
    for (const std::size_t e : exits) {
      const bool covered =
          std::any_of(wipes.begin(), wipes.end(),
                      [e](std::size_t w) { return w <= e; });
      if (covered) continue;
      std::vector<TraceStep> trace;
      decl_step(&trace);
      append_step(&trace, file.path, fn.stmts[e].line_index,
                  "exit path without prior secure_wipe of '" + local + "'");
      emit(eng, file, fn, fn.stmts[e].line_index, "wipe-on-all-paths",
           "exit path leaves raw secret copy '" + local + "' in " + fn.qualified +
               " unwiped; wipe before this return/throw",
           std::move(trace));
    }
  }
}

Engine build_engine(const RepoIndex& index) {
  Engine eng;
  eng.index = &index;
  for (const FileIndex& file : index.files) {
    for (const FunctionInfo& fn : file.functions) {
      eng.defs[fn.name].push_back(eng.fns.size());
      eng.fns.push_back({&file, &fn});
    }
  }
  eng.summaries.resize(eng.fns.size());
  return eng;
}

void run_fixpoint(Engine* eng) {
  for (int round = 0; round < kMaxFixpointRounds; ++round) {
    bool changed = false;
    for (std::size_t i = 0; i < eng->fns.size(); ++i) {
      const FnSummary before = eng->summaries[i];
      analyze_function(eng, i, /*report=*/false);
      if (!eng->summaries[i].same_facts(before)) changed = true;
    }
    if (!changed) break;
  }
}

}  // namespace

FlowAnalysis analyze_flows(const RepoIndex& index) {
  Engine eng = build_engine(index);
  run_fixpoint(&eng);

  FlowAnalysis result;
  std::set<SanctionedFlow> sanctioned;
  eng.out = &result.diagnostics;
  eng.sanctioned = &sanctioned;
  for (std::size_t i = 0; i < eng.fns.size(); ++i) {
    analyze_function(&eng, i, /*report=*/true);
    check_wipe_on_all_paths(&eng, i);
  }
  result.sanctioned.assign(sanctioned.begin(), sanctioned.end());
  return result;
}

std::vector<FlowSummary> flow_summaries(const RepoIndex& index) {
  Engine eng = build_engine(index);
  run_fixpoint(&eng);
  std::vector<FlowSummary> out;
  for (std::size_t i = 0; i < eng.fns.size(); ++i) {
    FlowSummary s;
    s.file = eng.fns[i].file->path;
    s.qualified = eng.fns[i].fn->qualified;
    for (const auto& [p, unused] : eng.summaries[i].param_to_sink) {
      (void)unused;
      s.params_to_sink.insert(p);
    }
    s.params_to_return = eng.summaries[i].param_to_return;
    s.returns_secret = eng.summaries[i].returns_secret;
    s.reaches_egress = eng.summaries[i].reaches_egress;
    out.push_back(std::move(s));
  }
  return out;
}

std::string secret_flows_markdown(const std::vector<SanctionedFlow>& flows) {
  std::ostringstream os;
  os << "# Sanctioned secret flows\n\n";
  os << "Generated by `dblint --emit-secret-flows`; do not edit by hand.\n\n";
  os << "Every row is a place where the taint engine (tools/dblint/flow.cpp)\n"
        "watched a secret- or plaintext-tainted value cross into a crypto-kernel\n"
        "sanitizer — the ONLY sanctioned way for protected material to reach an\n"
        "egress sink. The table is line-free on purpose: it drifts only when a\n"
        "flow appears or disappears, and `dblint` fails until it is\n"
        "regenerated, the same gate doc/LEAKAGE.md uses.\n\n";
  os << "| File | Function | Sanitizer | Source |\n";
  os << "|---|---|---|---|\n";
  for (const SanctionedFlow& f : flows) {
    os << "| " << f.file << " | " << f.function << " | " << f.sanitizer << " | "
       << f.source << " |\n";
  }
  return os.str();
}

}  // namespace dblint
