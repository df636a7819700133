// dblint — DataBlinder's in-repo static analyzer.
//
// A deliberately small, dependency-free checker (no libclang): v1 is a
// token-level scan plus an include-graph pass; v2 adds a lightweight
// indexer (index.hpp) — one pass extracting function definitions, call
// edges, RAII guard scopes and Status-returning signatures into an
// in-memory fact base — and rules that query it; v3 adds an
// interprocedural taint-flow engine (flow.hpp) over per-function summaries
// propagated to fixpoint, an on-disk facts cache (cache.hpp) keyed by
// content hash, and SARIF 2.1.0 output (sarif.hpp) for CI code-scanning
// annotations; v4 adds a RacerD-style interprocedural lockset analyzer
// (concurrency.hpp) — thread-root discovery, per-function field-access
// summaries widened by caller-held locks, and guarded-by inference emitted
// as doc/CONCURRENCY.md. The linted tree covers src/, tests/, bench/ and
// tools/.
//
// Rules:
//   ct-compare          (R1)  no memcmp/operator== on tag/key/token/mac
//                             buffers; use ct_equal.
//   rng                 (R2)  DetRng/mt19937/rand() banned under
//                             src/crypto, src/kms, src/ppe, src/sse,
//                             src/phe; SecureRng only.
//   expose              (R3)  expose_secret() only in the crypto kernel
//                             (secret.{hpp,cpp} + crypto/ppe/sse/phe
//                             kernels); everywhere else needs a justified
//                             dblint:allow(expose) escape.
//   log-secret          (R4)  no logging statement may receive SecretBytes
//                             contents or key/secret-pattern identifiers.
//   layering            (R5)  include layering + no include cycles.
//   unchecked-status    (R6)  no discarded call to a Status/Result-
//                             returning function (see passes.hpp).
//   lock-discipline     (R7)  no raw .lock()/.unlock(); acyclic lock-order
//                             graph from nested guard scopes.
//   leakage-conformance (R9)  declared tactic leakage within the
//                             schema/leakage.hpp ceilings; doc/LEAKAGE.md
//                             in sync (see leakage_pass.hpp).
//   secret-cache        (R10) secret-derived values are never cached: no
//                             cache-named container, in any file, may
//                             receive expose_secret() products.
//   secret-egress       (R11) interprocedural: no unsanitized secret/
//                             plaintext flow reaches an egress sink; the
//                             diagnostic carries the source→…→sink trace
//                             (see flow.hpp — replaces R8's allowlists).
//   wipe-on-all-paths   (R12) raw copies of expose_secret() products are
//                             wiped on every return/throw edge.
//   lock-held-egress    (R13) no RPC/channel sink reachable while a mutex
//                             from the R7 lock model is held.
//   inconsistent-lockset(R14) interprocedural: every pair of concurrently-
//                             reachable accesses to a field of a lock-
//                             owning class shares a common mutex (or the
//                             field is std::atomic); both conflicting
//                             chains appear in the trace.
//   guard-escape        (R15) a pointer/iterator into a guarded field
//                             (.data()/.c_str()/.begin()/…) must not
//                             outlive the guard: no returning it under the
//                             lock, no use after the scope closes.
//   lock-order-cycle    (R16) the lock-order graph plus "holding M while
//                             calling a function that acquires N" edges
//                             across the call graph stays acyclic (intra-
//                             function cycles stay R7 findings).
//
// Escape hatches: a finding on line N is suppressed when line N (or the
// line immediately above) carries `// dblint:allow(<rule>): reason`; the
// flow rules (R11–R16) additionally honor `// dblint:allow-fn(<rule>):
// reason` on a function's signature line, suppressing the rule for that
// whole body. `// dblint:thread-root` on (or above) a function definition
// marks it as a thread entry point for R14 reachability.
#pragma once

#include <string>
#include <vector>

namespace dblint {

/// One hop of a flow trace attached to a diagnostic (R11–R13).
struct TraceStep {
  std::string file;  // repo-relative
  int line = 0;      // 1-based
  std::string note;

  bool operator==(const TraceStep&) const = default;
};

struct Diagnostic {
  std::string file;  // repo-relative, '/'-separated
  int line = 0;      // 1-based
  std::string rule;  // e.g. "ct-compare"
  std::string message;
  std::vector<TraceStep> trace;  // source→…→sink, flow rules only

  bool operator==(const Diagnostic&) const = default;
};

/// "file:line: [rule] message" — the CI-greppable form; flow traces follow
/// as indented "    trace: file:line: note" lines.
std::string format(const Diagnostic& d);

/// The same diagnostics as a JSON array (stable key order: file, line,
/// rule, message, trace) for tooling; `dblint --json`.
std::string to_json(const std::vector<Diagnostic>& diagnostics);

struct FileInput {
  std::string path;  // repo-relative, '/'-separated
  std::string content;
};

/// Token-level rules (R1–R4, R10) over one file. `path` decides which
/// rules apply (restricted dirs, kernel allowlist).
std::vector<Diagnostic> lint_file(const std::string& path, const std::string& content);

/// Include-graph rules (R5) over a set of files (normally everything
/// under src/).
std::vector<Diagnostic> lint_include_graph(const std::vector<FileInput>& files);

/// Indexer-backed rules (R6, R7, R11–R13) over a set of files: builds the
/// fact base (index.hpp) once, then runs unchecked-status, lock-discipline
/// and the taint-flow engine against it.
std::vector<Diagnostic> lint_indexed(const std::vector<FileInput>& files);

/// Every .hpp/.cpp under `repo_root`/{src,tests,bench,tools}, paths
/// repo-relative. The walk behind lint_tree and the --emit-* modes.
std::vector<FileInput> read_tree(const std::string& repo_root);

struct LintOptions {
  std::string cache_dir;  // "" disables the on-disk facts cache
};

struct LintStats {
  std::size_t files = 0;
  std::size_t cache_hits = 0;
  double analysis_ms = 0.0;  // per-file phase only: hash + (load | compute)
};

/// Runs every rule over the repo, including the doc/LEAKAGE.md and
/// doc/SECRET_FLOWS.md drift checks. Diagnostics come back sorted by file
/// then line. With a cache dir set, unchanged files load their facts from
/// disk instead of re-lexing; `stats` (optional) reports the hit count and
/// the per-file analysis time — the portion the cache accelerates.
std::vector<Diagnostic> lint_tree(const std::string& repo_root,
                                  const LintOptions& options, LintStats* stats);
std::vector<Diagnostic> lint_tree(const std::string& repo_root);

}  // namespace dblint
