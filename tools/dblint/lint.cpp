#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "cache.hpp"
#include "concurrency.hpp"
#include "flow.hpp"
#include "index.hpp"
#include "leakage_pass.hpp"
#include "passes.hpp"
#include "text.hpp"

namespace dblint {
namespace {

bool is_secret_buffer_name(const std::string& ident) {
  static const std::set<std::string> kSegments = {"tag", "mac", "token", "key", "secret"};
  return kSegments.count(last_segment(ident)) > 0;
}

bool is_secret_log_name(const std::string& ident) {
  static const std::set<std::string> kSegments = {"tag", "mac",    "token", "key", "secret",
                                                  "ikm", "master", "prk",   "okm"};
  return kSegments.count(last_segment(ident)) > 0;
}

/// Effective name of the operand to the LEFT of tokens[op]: for a trailing
/// call chain `det_token.size()` the method name (`size`) is what matters —
/// `.size()` comparisons are public metadata, the buffer itself is not.
std::string left_operand_name(const std::vector<Token>& tokens, std::size_t op) {
  std::size_t i = op;
  if (i == 0) return {};
  --i;
  if (tokens[i].text == ")") {
    int depth = 1;
    while (i > 0 && depth > 0) {
      --i;
      if (tokens[i].text == ")") ++depth;
      if (tokens[i].text == "(") --depth;
    }
    if (i == 0) return {};
    --i;  // token before '(' — the callee name
  }
  if (tokens[i].text == "]") {  // subscript: name[idx] — walk back to name
    int depth = 1;
    while (i > 0 && depth > 0) {
      --i;
      if (tokens[i].text == "]") ++depth;
      if (tokens[i].text == "[") --depth;
    }
    if (i == 0) return {};
    --i;
  }
  return tokens[i].is_ident ? tokens[i].text : std::string{};
}

/// Effective name of the operand to the RIGHT of tokens[op]: follows the
/// member chain `det_token.size()` forward and returns the final name.
std::string right_operand_name(const std::vector<Token>& tokens, std::size_t op) {
  std::size_t i = op + 1;
  while (i < tokens.size() && (tokens[i].text == "*" || tokens[i].text == "&" ||
                               tokens[i].text == "!" || tokens[i].text == "::")) {
    ++i;
  }
  if (i >= tokens.size() || !tokens[i].is_ident) return {};
  std::string name = tokens[i].text;
  while (i + 2 < tokens.size() && (tokens[i + 1].text == "." || tokens[i + 1].text == "->") &&
         tokens[i + 2].is_ident) {
    i += 2;
    name = tokens[i].text;
  }
  return name;
}

// ---------------------------------------------------------------------------
// Rule predicates keyed on path
// ---------------------------------------------------------------------------

bool in_rng_restricted_dir(const std::string& path) {
  for (const char* dir : {"src/crypto/", "src/kms/", "src/ppe/", "src/sse/", "src/phe/"}) {
    if (starts_with(path, dir)) return true;
  }
  return false;
}

/// The crypto kernel: the only files allowed to unwrap SecretBytes without
/// a justification. Shrunk by the flow-engine audit (PR 8): key_manager
/// and the wrapper's own test now carry per-site `dblint:allow(expose)`
/// escapes instead of a blanket entry, so every unwrap outside the kernel
/// names its reason in-line.
bool may_expose_secret(const std::string& path) {
  if (path == "src/common/secret.hpp" || path == "src/common/secret.cpp") return true;
  for (const char* dir : {"src/crypto/", "src/ppe/", "src/sse/", "src/phe/"}) {
    if (starts_with(path, dir) && ends_with(path, ".cpp")) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// R1–R3: token-stream rules
// ---------------------------------------------------------------------------

void check_ct_compare(const std::string& path, const std::vector<Token>& tokens,
                      const std::vector<std::set<std::string>>& allows,
                      std::vector<Diagnostic>* out) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.is_ident && t.text == "memcmp" && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(") {
      if (!allowed(allows, t.line_index, "ct-compare")) {
        out->push_back({path, static_cast<int>(t.line_index + 1), "ct-compare",
                        "memcmp leaks timing; compare secret buffers with ct_equal"});
      }
      continue;
    }
    // std::equal / std::ranges::equal over a secret-named buffer.
    if (t.is_ident && t.text == "equal" && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(") {
      int depth = 0;
      std::string secret_arg;
      for (std::size_t j = i + 1; j < tokens.size(); ++j) {
        if (tokens[j].text == "(") ++depth;
        if (tokens[j].text == ")" && --depth == 0) break;
        if (tokens[j].is_ident && is_secret_buffer_name(tokens[j].text)) {
          secret_arg = tokens[j].text;
        }
      }
      if (!secret_arg.empty() && !allowed(allows, t.line_index, "ct-compare")) {
        out->push_back({path, static_cast<int>(t.line_index + 1), "ct-compare",
                        "std::equal over secret-named buffer '" + secret_arg +
                            "'; use ct_equal"});
      }
      continue;
    }
    if (t.text != "==" && t.text != "!=") continue;
    // `operator==` declarations are structure, not comparisons.
    if (i > 0 && tokens[i - 1].is_ident && tokens[i - 1].text == "operator") continue;
    const std::string lhs = left_operand_name(tokens, i);
    const std::string rhs = right_operand_name(tokens, i);
    if (is_secret_buffer_name(lhs) || is_secret_buffer_name(rhs)) {
      if (!allowed(allows, t.line_index, "ct-compare")) {
        const std::string& name = is_secret_buffer_name(lhs) ? lhs : rhs;
        out->push_back({path, static_cast<int>(t.line_index + 1), "ct-compare",
                        "variable-time comparison of secret-named buffer '" + name +
                            "'; use ct_equal"});
      }
    }
  }
}

void check_rng(const std::string& path, const std::vector<Token>& tokens,
               const std::vector<std::set<std::string>>& allows, std::vector<Diagnostic>* out) {
  if (!in_rng_restricted_dir(path)) return;
  static const std::set<std::string> kBanned = {
      "DetRng", "mt19937",       "mt19937_64",           "minstd_rand", "rand",
      "srand",  "random_device", "default_random_engine"};
  for (const Token& t : tokens) {
    if (!t.is_ident || kBanned.count(t.text) == 0) continue;
    if (allowed(allows, t.line_index, "rng")) continue;
    out->push_back({path, static_cast<int>(t.line_index + 1), "rng",
                    "'" + t.text + "' is not a CSPRNG; crypto-bearing directories must use "
                    "SecureRng"});
  }
}

void check_expose(const std::string& path, const std::vector<Token>& tokens,
                  const std::vector<std::set<std::string>>& allows,
                  std::vector<Diagnostic>* out) {
  if (may_expose_secret(path)) return;
  for (const Token& t : tokens) {
    if (!t.is_ident || t.text != "expose_secret") continue;
    if (allowed(allows, t.line_index, "expose")) continue;
    out->push_back({path, static_cast<int>(t.line_index + 1), "expose",
                    "expose_secret() outside the crypto kernel allowlist; pass SecretBytes "
                    "through and let the kernel unwrap"});
  }
}

/// R4: a logging statement (DB_LOG* stream or log_line call) must not
/// mention secret material. The statement runs from the logging token to
/// the terminating ';'.
void check_log_secret(const std::string& path, const std::vector<Token>& tokens,
                      const std::vector<std::set<std::string>>& allows,
                      std::vector<Diagnostic>* out) {
  // Skip the logging framework's own definitions.
  if (path == "src/common/logging.hpp" || path == "src/common/logging.cpp") return;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (!t.is_ident || !(starts_with(t.text, "DB_LOG") || t.text == "log_line")) continue;
    std::size_t end = i;
    while (end < tokens.size() && tokens[end].text != ";") ++end;
    for (std::size_t j = i + 1; j < end; ++j) {
      if (!tokens[j].is_ident) continue;
      if (starts_with(tokens[j].text, "DB_LOG") || tokens[j].text == "log_line") continue;
      if (tokens[j].text == "expose_secret" || is_secret_log_name(tokens[j].text)) {
        if (!allowed(allows, t.line_index, "log-secret")) {
          out->push_back({path, static_cast<int>(t.line_index + 1), "log-secret",
                          "logging statement mentions secret-pattern identifier '" +
                              tokens[j].text + "'; log a redacted form instead"});
        }
        break;  // one finding per statement
      }
    }
    i = end;
  }
}

/// R10: secret-derived values are never cached. A statement that both
/// unwraps a secret (expose_secret) and touches a cache-named container is
/// a plaintext copy the container would keep alive after "deletion". No
/// file is exempt; a reviewed exception carries an inline escape.
/// Statement granularity: token run up to ';'.
void check_secret_cache(const std::string& path, const std::vector<Token>& tokens,
                        const std::vector<std::set<std::string>>& allows,
                        std::vector<Diagnostic>* out) {
  auto mentions_cache = [](const std::string& ident) {
    std::string lower = ident;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return lower.find("cache") != std::string::npos;
  };
  std::size_t stmt_begin = 0;
  for (std::size_t i = 0; i <= tokens.size(); ++i) {
    if (i < tokens.size() && tokens[i].text != ";") continue;
    bool exposes = false;
    std::size_t expose_line = 0;
    std::string cache_ident;
    for (std::size_t j = stmt_begin; j < i && j < tokens.size(); ++j) {
      if (!tokens[j].is_ident) continue;
      if (tokens[j].text == "expose_secret") {
        if (!exposes) expose_line = tokens[j].line_index;
        exposes = true;
      } else if (cache_ident.empty() && mentions_cache(tokens[j].text)) {
        cache_ident = tokens[j].text;
      }
    }
    if (exposes && !cache_ident.empty() &&
        !allowed(allows, expose_line, "secret-cache")) {
      out->push_back({path, static_cast<int>(expose_line + 1), "secret-cache",
                      "expose_secret() product flows into cache-named container '" +
                          cache_ident +
                          "'; secret-derived values stay in SecretBytes and are "
                          "never cached"});
    }
    stmt_begin = i + 1;
  }
}

// ---------------------------------------------------------------------------
// R5: include graph
// ---------------------------------------------------------------------------

/// Coarse architectural layers, lowest first. A file may include its own
/// top-level directory or any strictly lower layer. Directories absent from
/// the map (tests, tools) are exempt.
const std::map<std::string, int>& layer_ranks() {
  static const std::map<std::string, int> kRanks = {
      {"common", 0}, {"crypto", 1}, {"bigint", 1}, {"doc", 1},  {"phe", 2},
      {"ppe", 2},    {"sse", 2},    {"schema", 2}, {"store", 2}, {"net", 2},
      {"kms", 2},    {"fhir", 3},   {"core", 4},   {"workload", 5},
  };
  return kRanks;
}

std::string top_dir_under_src(const std::string& path) {
  if (!starts_with(path, "src/")) return {};
  const std::size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return {};
  return path.substr(4, slash - 4);
}

void report_cycles(const std::map<std::string, std::vector<std::string>>& graph,
                   std::vector<Diagnostic>* out) {
  // Iterative DFS with colors; reports each back-edge's cycle once.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack_path;
  std::set<std::string> reported;

  struct Frame {
    std::string node;
    std::size_t next_child = 0;
  };

  for (const auto& [start, unused] : graph) {
    (void)unused;
    if (color[start] != 0) continue;
    std::vector<Frame> stack;
    stack.push_back({start});
    color[start] = 1;
    stack_path.push_back(start);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto it = graph.find(frame.node);
      static const std::vector<std::string> kNone;
      const std::vector<std::string>& children = (it != graph.end()) ? it->second : kNone;
      if (frame.next_child < children.size()) {
        const std::string child = children[frame.next_child++];
        if (color[child] == 1) {
          // Back edge: the cycle is the stack_path suffix from `child`.
          auto at = std::find(stack_path.begin(), stack_path.end(), child);
          std::ostringstream cycle;
          for (auto p = at; p != stack_path.end(); ++p) cycle << *p << " -> ";
          cycle << child;
          if (reported.insert(cycle.str()).second) {
            out->push_back({frame.node, 1, "layering", "include cycle: " + cycle.str()});
          }
        } else if (color[child] == 0) {
          color[child] = 1;
          stack_path.push_back(child);
          stack.push_back({child});
        }
      } else {
        color[frame.node] = 2;
        stack_path.pop_back();
        stack.pop_back();
      }
    }
  }
}

std::string json_escape(const std::string& s) {
  std::ostringstream out;
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  return out.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

std::string format(const Diagnostic& d) {
  std::ostringstream os;
  os << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message;
  for (const TraceStep& step : d.trace) {
    os << "\n    trace: " << step.file << ":" << step.line << ": " << step.note;
  }
  return os.str();
}

std::string to_json(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i) os << ",";
    os << "\n  {\"file\": \"" << json_escape(d.file) << "\", \"line\": " << d.line
       << ", \"rule\": \"" << json_escape(d.rule) << "\", \"message\": \""
       << json_escape(d.message) << "\"";
    if (!d.trace.empty()) {
      os << ", \"trace\": [";
      for (std::size_t t = 0; t < d.trace.size(); ++t) {
        const TraceStep& step = d.trace[t];
        if (t) os << ", ";
        os << "{\"file\": \"" << json_escape(step.file) << "\", \"line\": " << step.line
           << ", \"note\": \"" << json_escape(step.note) << "\"}";
      }
      os << "]";
    }
    os << "}";
  }
  os << (diagnostics.empty() ? "]\n" : "\n]\n");
  return os.str();
}

std::vector<Diagnostic> lint_file(const std::string& path, const std::string& content) {
  std::vector<Diagnostic> out;
  const std::vector<std::string> raw_lines = split_lines(content);
  const std::vector<std::set<std::string>> allows = collect_allows(raw_lines);
  const std::vector<Token> tokens = tokenize(strip_comments_and_strings(content));

  check_ct_compare(path, tokens, allows, &out);
  check_rng(path, tokens, allows, &out);
  check_expose(path, tokens, allows, &out);
  check_log_secret(path, tokens, allows, &out);
  check_secret_cache(path, tokens, allows, &out);
  return out;
}

namespace {

/// Include-graph rules over assembled facts. `files` must already be
/// filtered to src/ (the layer map only speaks src/ dirs anyway).
void include_graph_pass(const std::vector<const FileFacts*>& files,
                        std::vector<Diagnostic>* out_ptr) {
  std::vector<Diagnostic>& out = *out_ptr;
  std::set<std::string> known_paths;
  for (const FileFacts* f : files) known_paths.insert(f->path);

  std::map<std::string, std::vector<std::string>> graph;
  for (const FileFacts* fp : files) {
    const FileFacts& f = *fp;
    const std::vector<std::set<std::string>>& allows = f.index.allows;
    const std::string from_dir = top_dir_under_src(f.path);
    const auto& ranks = layer_ranks();

    for (const IncludeEdge& e : f.includes) {
      const std::string resolved = "src/" + e.target;
      if (known_paths.count(resolved)) graph[f.path].push_back(resolved);

      const std::size_t slash = e.target.find('/');
      if (slash == std::string::npos) continue;
      const std::string to_dir = e.target.substr(0, slash);
      const auto from_rank = ranks.find(from_dir);
      const auto to_rank = ranks.find(to_dir);
      if (from_rank == ranks.end() || to_rank == ranks.end()) continue;

      if (starts_with(f.path, "src/core/tactics/") && to_dir == "crypto") {
        if (!allowed(allows, e.line_index, "layering")) {
          out.push_back({f.path, static_cast<int>(e.line_index + 1), "layering",
                         "tactics must not include crypto/ directly; reach primitives via the "
                         "core/spi.hpp surfaces (ppe/sse/phe schemes)"});
        }
        continue;
      }
      if (to_dir != from_dir && to_rank->second >= from_rank->second) {
        if (!allowed(allows, e.line_index, "layering")) {
          out.push_back({f.path, static_cast<int>(e.line_index + 1), "layering",
                         "layering violation: src/" + from_dir + " (layer " +
                             std::to_string(from_rank->second) + ") must not include src/" +
                             to_dir + " (layer " + std::to_string(to_rank->second) + ")"});
        }
      }
    }
  }
  report_cycles(graph, &out);
}

}  // namespace

std::vector<Diagnostic> lint_include_graph(const std::vector<FileInput>& files) {
  std::vector<FileFacts> facts;
  for (const FileInput& f : files) {
    FileFacts ff;
    ff.path = f.path;
    const std::vector<std::string> raw_lines = split_lines(f.content);
    ff.includes = extract_includes(raw_lines);
    ff.index.allows = collect_allows(raw_lines);
    facts.push_back(std::move(ff));
  }
  std::vector<const FileFacts*> ptrs;
  for (const FileFacts& f : facts) ptrs.push_back(&f);
  std::vector<Diagnostic> out;
  include_graph_pass(ptrs, &out);
  return out;
}

std::vector<Diagnostic> lint_indexed(const std::vector<FileInput>& files) {
  const RepoIndex index = build_index(files);
  std::vector<Diagnostic> out = check_unchecked_status(index);
  std::vector<Diagnostic> locks = check_lock_discipline(index);
  out.insert(out.end(), locks.begin(), locks.end());
  FlowAnalysis flows = analyze_flows(index);
  out.insert(out.end(), flows.diagnostics.begin(), flows.diagnostics.end());
  ConcurrencyAnalysis conc = analyze_concurrency(index);
  out.insert(out.end(), conc.diagnostics.begin(), conc.diagnostics.end());
  return out;
}

std::vector<FileInput> read_tree(const std::string& repo_root) {
  namespace fs = std::filesystem;
  std::vector<FileInput> files;
  for (const char* top : {"src", "tests", "bench", "tools"}) {
    const fs::path base = fs::path(repo_root) / top;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".hpp" && ext != ".cpp") continue;
      const std::string rel = fs::relative(entry.path(), repo_root).generic_string();
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      files.push_back({rel, ss.str()});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const FileInput& a, const FileInput& b) { return a.path < b.path; });
  return files;
}

namespace {

std::string read_doc(const std::string& repo_root, const char* name) {
  const std::filesystem::path doc = std::filesystem::path(repo_root) / "doc" / name;
  if (!std::filesystem::exists(doc)) return {};
  std::ifstream in(doc, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

std::vector<Diagnostic> lint_tree(const std::string& repo_root,
                                  const LintOptions& options, LintStats* stats) {
  const std::vector<FileInput> files = read_tree(repo_root);
  std::vector<Diagnostic> out;

  // Per-file phase — the part the facts cache accelerates and --stats times.
  std::vector<FileFacts> facts;
  facts.reserve(files.size());
  std::size_t cache_hits = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const FileInput& file : files) {
    const std::uint64_t hash = fnv1a64(file.content);
    FileFacts ff;
    if (!options.cache_dir.empty() &&
        load_file_facts(options.cache_dir, file.path, hash, &ff)) {
      ++cache_hits;
    } else {
      ff = compute_file_facts(file.path, file.content);
      if (!options.cache_dir.empty()) {
        store_file_facts(options.cache_dir, file.path, hash, ff);
      }
    }
    facts.push_back(std::move(ff));
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (stats != nullptr) {
    stats->files = files.size();
    stats->cache_hits = cache_hits;
    stats->analysis_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(t1 - t0)
            .count();
  }

  // Repo-level passes over the assembled facts.
  RepoIndex index;
  std::vector<const FileFacts*> src_facts;
  std::vector<FileInput> src_files;
  for (std::size_t i = 0; i < facts.size(); ++i) {
    out.insert(out.end(), facts[i].token_diags.begin(), facts[i].token_diags.end());
    index.files.push_back(facts[i].index);
    index.status_returning.insert(facts[i].status_names.begin(),
                                  facts[i].status_names.end());
    if (starts_with(facts[i].path, "src/")) {
      src_facts.push_back(&facts[i]);
      src_files.push_back(files[i]);
    }
  }
  include_graph_pass(src_facts, &out);

  std::vector<Diagnostic> indexed = check_unchecked_status(index);
  out.insert(out.end(), indexed.begin(), indexed.end());
  std::vector<Diagnostic> locks = check_lock_discipline(index);
  out.insert(out.end(), locks.begin(), locks.end());
  FlowAnalysis flows = analyze_flows(index);
  out.insert(out.end(), flows.diagnostics.begin(), flows.diagnostics.end());
  ConcurrencyAnalysis conc = analyze_concurrency(index);
  out.insert(out.end(), conc.diagnostics.begin(), conc.diagnostics.end());

  const std::vector<Diagnostic> leakage = lint_leakage_conformance(src_files);
  out.insert(out.end(), leakage.begin(), leakage.end());

  // doc/LEAKAGE.md drift gate: the checked-in matrix must match what the
  // current schema ceilings + tactic tables generate.
  {
    const std::string expected = leakage_matrix_markdown(src_files);
    const std::string actual = read_doc(repo_root, "LEAKAGE.md");
    if (actual != expected) {
      out.push_back({"doc/LEAKAGE.md", 1, "leakage-conformance",
                     actual.empty()
                         ? "doc/LEAKAGE.md is missing; generate it with "
                           "`dblint --emit-leakage-matrix`"
                         : "doc/LEAKAGE.md is stale; regenerate with "
                           "`dblint --emit-leakage-matrix`"});
    }
  }

  // doc/SECRET_FLOWS.md drift gate: the sanctioned-flow inventory the taint
  // engine observed must match the checked-in document.
  {
    const std::string expected = secret_flows_markdown(flows.sanctioned);
    const std::string actual = read_doc(repo_root, "SECRET_FLOWS.md");
    if (actual != expected) {
      out.push_back({"doc/SECRET_FLOWS.md", 1, "secret-egress",
                     actual.empty()
                         ? "doc/SECRET_FLOWS.md is missing; generate it with "
                           "`dblint --emit-secret-flows`"
                         : "doc/SECRET_FLOWS.md is stale; regenerate with "
                           "`dblint --emit-secret-flows`"});
    }
  }

  // doc/CONCURRENCY.md drift gate: the inferred thread-root inventory and
  // guarded-by map must match the checked-in concurrency contract.
  {
    const std::string expected = concurrency_markdown(conc);
    const std::string actual = read_doc(repo_root, "CONCURRENCY.md");
    if (actual != expected) {
      out.push_back({"doc/CONCURRENCY.md", 1, "inconsistent-lockset",
                     actual.empty()
                         ? "doc/CONCURRENCY.md is missing; generate it with "
                           "`dblint --emit-concurrency`"
                         : "doc/CONCURRENCY.md is stale; regenerate with "
                           "`dblint --emit-concurrency`"});
    }
  }

  std::sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

std::vector<Diagnostic> lint_tree(const std::string& repo_root) {
  return lint_tree(repo_root, LintOptions{}, nullptr);
}

}  // namespace dblint
