// dblint concurrency engine — RacerD-style interprocedural lockset analysis
// over the index.hpp fact base. TSan certifies the interleavings the tests
// happen to execute; this pass certifies the locking DISCIPLINE statically,
// for every indexed path.
//
// Model (DESIGN.md §15 has the full write-up):
//
//   thread roots   functions spawned onto their own thread: std::thread /
//                  std::jthread constructions (the member-function pointer
//                  argument form is resolved to its in-tree definition, and
//                  the constructing function itself is a root — lambda
//                  bodies are indexed as part of it), .detach() sites,
//                  pool task submission (submit / enqueue / run_all),
//                  and an explicit
//                  `// dblint:thread-root` marker on the definition line
//                  (or the line above) for roots the indexer cannot see,
//                  e.g. a worker loop only ever entered through a lambda.
//   access paths   per-function summaries field -> {read|write} x lockset,
//                  seeded from the indexer's FieldAccess records (ctors and
//                  dtors excluded: pre-publication state) and propagated
//                  caller-ward to fixpoint like flow.hpp's FnSummary — a
//                  callee's bare access inherits the mutexes held at the
//                  call site, which is how `erase_locked()`-style helpers
//                  stay clean when every caller locks first.
//   guarded-by     per class field, the intersection of locksets across
//                  all (non-ctor) writes — emitted as doc/CONCURRENCY.md
//                  and drift-gated like LEAKAGE.md / SECRET_FLOWS.md.
//
// Rules:
//   inconsistent-lockset (R14)  a field written on one concurrently-
//                               reachable path and accessed with a
//                               non-intersecting lockset on another
//                               (std::atomic fields exempt).
//   guard-escape         (R15)  a pointer/iterator into a guarded field
//                               (.data()/.begin()/.c_str()/...) returned
//                               under the guard or stored into a local
//                               that is used after the lockset drops.
//   lock-order-cycle     (R16)  the R7 cycle detector lifted onto the call
//                               graph: holding M while calling a function
//                               whose transitive acquired-set contains N
//                               contributes an M -> N edge; only cycles
//                               with at least one interprocedural edge are
//                               reported here (pure intra-function cycles
//                               are R7's).
//
// Scope: findings anchor to src/ (src/workload/ exempt — the simulated
// client drives the gateway from plain threads by design); summaries are
// computed over every indexed function. Suppression: dblint:allow(<rule>)
// at the finding line, dblint:allow-fn(<rule>) on the enclosing function.
#pragma once

#include <string>
#include <vector>

#include "index.hpp"
#include "lint.hpp"

namespace dblint {

/// One row of the inferred guarded-by map (doc/CONCURRENCY.md). Line-free
/// so the document drifts only when the locking contract changes.
struct GuardedByEntry {
  std::string field;                // "CostModel::state_"
  std::string type;                 // declared type's last segment
  std::vector<std::string> guards;  // lockset intersection over all writes
  std::size_t writes = 0;           // non-ctor write sites
  std::size_t reads = 0;            // read sites
  bool is_atomic = false;

  bool operator==(const GuardedByEntry&) const = default;
};

/// One discovered thread root, for the markdown inventory.
struct ThreadRoot {
  std::string file;
  std::string qualified;
  std::string how;  // "annotation" | "thread-ctor" | "detach" | "executor-submit"

  bool operator==(const ThreadRoot&) const = default;
  bool operator<(const ThreadRoot& o) const {
    if (file != o.file) return file < o.file;
    if (qualified != o.qualified) return qualified < o.qualified;
    return how < o.how;
  }
};

struct ConcurrencyAnalysis {
  std::vector<Diagnostic> diagnostics;     // R14-R16, traces attached
  std::vector<GuardedByEntry> guarded_by;  // sorted by field
  std::vector<ThreadRoot> roots;           // sorted, deduplicated
};

/// Runs thread-root discovery, the access-summary fixpoint and the three
/// rule passes over a built index.
ConcurrencyAnalysis analyze_concurrency(const RepoIndex& index);

/// doc/CONCURRENCY.md content for the given analysis result.
std::string concurrency_markdown(const ConcurrencyAnalysis& analysis);

}  // namespace dblint
