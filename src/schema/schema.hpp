// Data-access abstraction model (paper §3.2, Fig. 2).
//
// Application developers annotate each sensitive field with a *protection
// class* (C1 strongest ... C5 weakest) and the operations/aggregates the
// application needs on that field. The middleware's policy engine resolves
// these annotations to concrete tactics; the schema manager validates that
// stored documents conform to their declared schema (paper §4.1, the data
// protection metadata subsystem).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "doc/value.hpp"
#include "schema/leakage.hpp"  // ProtectionClass + the leakage-ceiling table

namespace datablinder::schema {

std::string to_string(ProtectionClass c);

/// Query operations a field can be annotated with (Fig. 2: I, EQ, BL, RG).
enum class Operation : std::uint8_t {
  kInsert,
  kEquality,
  kBoolean,
  kRange,
};

std::string to_string(Operation op);

/// Aggregate functions (Fig. 2: agg list).
enum class Aggregate : std::uint8_t {
  kSum,
  kAverage,
  kCount,
  kMin,
  kMax,
};

std::string to_string(Aggregate a);

/// Expected field value types for schema validation.
enum class FieldType : std::uint8_t { kString, kInt, kDouble, kBool, kAny };

std::string to_string(FieldType t);

/// Per-field annotation: sensitivity + required capabilities.
struct FieldAnnotation {
  FieldType type = FieldType::kAny;
  bool sensitive = false;
  /// Required protection level; the policy engine must honour it as a
  /// *minimum* (a selected tactic set may be stronger, never weaker).
  ProtectionClass protection = ProtectionClass::kClass1;
  std::set<Operation> operations;
  std::set<Aggregate> aggregates;
  bool required = false;  // document must carry this field

  bool needs(Operation op) const { return operations.count(op) > 0; }
  bool needs(Aggregate a) const { return aggregates.count(a) > 0; }
};

/// A named document schema: field -> annotation.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  Schema& field(const std::string& name, FieldAnnotation ann);

  /// Fluent helper for a non-sensitive (plaintext-allowed... still encrypted
  /// at rest by the middleware, but unindexed) field.
  Schema& plain_field(const std::string& name, FieldType type, bool required = false);

  /// Throws Error(kNotFound) for unknown fields.
  const FieldAnnotation& annotation(const std::string& name) const;

  const std::map<std::string, FieldAnnotation>& fields() const noexcept { return fields_; }

  /// Validates `d` against this schema. Throws Error(kSchemaViolation)
  /// listing the first violation (unknown field, type mismatch, missing
  /// required field).
  void validate(const doc::Document& d) const;

 private:
  std::string name_;
  std::map<std::string, FieldAnnotation> fields_;
};

/// True when the value's dynamic type satisfies the declared field type.
bool type_matches(FieldType declared, const doc::Value& v);

}  // namespace datablinder::schema
