#include "sarif.hpp"

#include <cstdio>
#include <map>
#include <sstream>

namespace dblint {
namespace {

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

struct RuleMeta {
  const char* id;
  const char* description;
};

/// Static rule table — stable ruleIndex values regardless of which rules
/// fired in a given run.
const std::vector<RuleMeta>& rule_table() {
  static const std::vector<RuleMeta> kRules = {
      {"ct-compare", "Secret buffers must be compared with ct_equal, not memcmp/=="},
      {"rng", "Crypto-bearing directories must use SecureRng, not a deterministic RNG"},
      {"expose", "expose_secret() is restricted to the crypto kernel"},
      {"log-secret", "Logging statements must not mention secret material"},
      {"layering", "Include layering must be respected and acyclic"},
      {"unchecked-status", "Status/Result return values must be consumed"},
      {"lock-discipline", "RAII guards only; the lock-order graph must be acyclic"},
      {"leakage-conformance", "Declared tactic leakage must fit the schema ceilings"},
      {"secret-cache", "Secret-derived values are never cached"},
      {"secret-egress",
       "No unsanitized secret/plaintext flow may reach an egress sink "
       "(interprocedural taint analysis)"},
      {"wipe-on-all-paths",
       "Raw copies of expose_secret() products must be wiped on every exit path"},
      {"lock-held-egress",
       "No RPC/channel egress may be reachable while a mutex is held"},
      {"inconsistent-lockset",
       "Concurrently-reachable accesses to a field must share a common mutex "
       "(interprocedural lockset analysis)"},
      {"guard-escape",
       "Pointers/iterators into guarded fields must not outlive the guard"},
      {"lock-order-cycle",
       "The interprocedural lock-order graph must stay acyclic"},
  };
  return kRules;
}

int rule_index(const std::string& rule) {
  const auto& table = rule_table();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (rule == table[i].id) return static_cast<int>(i);
  }
  return -1;
}

void emit_location(std::ostringstream& os, const std::string& file, int line,
                   const std::string& indent) {
  os << indent << "{\n";
  os << indent << "  \"physicalLocation\": {\n";
  os << indent << "    \"artifactLocation\": {\"uri\": \"" << json_escape(file)
     << "\"},\n";
  os << indent << "    \"region\": {\"startLine\": " << (line > 0 ? line : 1) << "}\n";
  os << indent << "  }\n";
  os << indent << "}";
}

}  // namespace

std::string to_sarif(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  os << "  \"version\": \"2.1.0\",\n";
  os << "  \"runs\": [\n";
  os << "    {\n";
  os << "      \"tool\": {\n";
  os << "        \"driver\": {\n";
  os << "          \"name\": \"dblint\",\n";
  os << "          \"informationUri\": \"https://example.invalid/dblint\",\n";
  os << "          \"rules\": [\n";
  const auto& table = rule_table();
  for (std::size_t i = 0; i < table.size(); ++i) {
    os << "            {\"id\": \"" << table[i].id
       << "\", \"shortDescription\": {\"text\": \"" << json_escape(table[i].description)
       << "\"}}" << (i + 1 < table.size() ? "," : "") << "\n";
  }
  os << "          ]\n";
  os << "        }\n";
  os << "      },\n";
  os << "      \"results\": [\n";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    os << "        {\n";
    os << "          \"ruleId\": \"" << json_escape(d.rule) << "\",\n";
    const int idx = rule_index(d.rule);
    if (idx >= 0) os << "          \"ruleIndex\": " << idx << ",\n";
    os << "          \"level\": \"error\",\n";
    os << "          \"message\": {\"text\": \"" << json_escape(d.message) << "\"},\n";
    os << "          \"locations\": [\n";
    emit_location(os, d.file, d.line, "            ");
    os << "\n          ]";
    if (!d.trace.empty()) {
      os << ",\n          \"codeFlows\": [\n";
      os << "            {\"threadFlows\": [{\"locations\": [\n";
      for (std::size_t t = 0; t < d.trace.size(); ++t) {
        const TraceStep& step = d.trace[t];
        os << "              {\"location\": {\n";
        os << "                \"physicalLocation\": {\n";
        os << "                  \"artifactLocation\": {\"uri\": \""
           << json_escape(step.file) << "\"},\n";
        os << "                  \"region\": {\"startLine\": "
           << (step.line > 0 ? step.line : 1) << "}\n";
        os << "                },\n";
        os << "                \"message\": {\"text\": \"" << json_escape(step.note)
           << "\"}\n";
        os << "              }}" << (t + 1 < d.trace.size() ? "," : "") << "\n";
      }
      os << "            ]}]}\n";
      os << "          ]";
    }
    os << "\n        }" << (i + 1 < diagnostics.size() ? "," : "") << "\n";
  }
  os << "      ]\n";
  os << "    }\n";
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

}  // namespace dblint
