#include "fhir/observation.hpp"

#include <array>

namespace datablinder::fhir {

using doc::Document;
using doc::Value;
using schema::Aggregate;
using schema::FieldAnnotation;
using schema::FieldType;
using schema::Operation;
using schema::ProtectionClass;
using schema::Schema;

namespace {
constexpr std::array<const char*, 4> kStatuses = {"final", "preliminary", "amended",
                                                  "corrected"};
constexpr std::array<const char*, 8> kCodes = {
    "glucose",    "cholesterol", "heart-rate", "blood-pressure",
    "hemoglobin", "creatinine",  "sodium",     "potassium"};
constexpr std::array<const char*, 16> kSubjects = {
    "John Doe",      "Jane Roe",     "Alice Martin",  "Bob Janssens",
    "Carla Peeters", "David Maes",   "Emma Jacobs",   "Frank Willems",
    "Grace Claes",   "Henry Goossens", "Iris Wouters", "Jack Mertens",
    "Karen Dubois",  "Leo Lambert",  "Mia Dupont",    "Noah Simon"};
constexpr std::array<const char*, 6> kPerformers = {
    "Dr. Smith", "Dr. Garcia", "Dr. Chen", "Nurse Adams", "Nurse Brown", "Dr. Yilmaz"};
constexpr std::array<const char*, 3> kInterpretations = {"Low", "Normal", "High"};

// The paper's example uses Unix timestamps around 2013.
constexpr std::int64_t kEffectiveBase = 1356998400;   // 2013-01-01
constexpr std::int64_t kEffectiveSpan = 2 * 365 * 24 * 3600;
}  // namespace

Document ObservationGenerator::next() {
  Document d;
  d.set("identifier", Value(rng_.range(1000, 999999)));
  d.set("status", Value(kStatuses[rng_.uniform(kStatuses.size())]));
  d.set("code", Value(kCodes[rng_.uniform(kCodes.size())]));
  d.set("subject", Value(kSubjects[rng_.uniform(kSubjects.size())]));
  const std::int64_t effective = kEffectiveBase + rng_.range(0, kEffectiveSpan);
  d.set("effective", Value(effective));
  d.set("issued", Value(effective + rng_.range(3600, 30 * 24 * 3600)));
  d.set("performer", Value(kPerformers[rng_.uniform(kPerformers.size())]));
  // Glucose-like magnitude with one decimal.
  d.set("value", Value(static_cast<double>(rng_.range(35, 120)) / 10.0));
  d.set("interpretation", Value(kInterpretations[rng_.uniform(kInterpretations.size())]));
  return d;
}

Value ObservationGenerator::random_status() {
  return Value(kStatuses[rng_.uniform(kStatuses.size())]);
}

Value ObservationGenerator::random_code() {
  return Value(kCodes[rng_.uniform(kCodes.size())]);
}

Value ObservationGenerator::random_subject() {
  return Value(kSubjects[rng_.uniform(kSubjects.size())]);
}

std::pair<Value, Value> ObservationGenerator::random_effective_range() {
  const std::int64_t start = kEffectiveBase + rng_.range(0, kEffectiveSpan - 1);
  const std::int64_t width = rng_.range(24 * 3600, 60 * 24 * 3600);
  return {Value(start), Value(start + width)};
}

Schema observation_schema(const std::string& name) {
  Schema s(name);
  s.plain_field("identifier", FieldType::kInt);
  s.plain_field("interpretation", FieldType::kString);

  FieldAnnotation status;
  status.type = FieldType::kString;
  status.sensitive = true;
  status.protection = ProtectionClass::kClass3;
  status.operations = {Operation::kInsert, Operation::kEquality, Operation::kBoolean};
  s.field("status", status);

  FieldAnnotation code = status;  // C3, op [I, EQ, BL]
  s.field("code", code);

  FieldAnnotation subject;
  subject.type = FieldType::kString;
  subject.sensitive = true;
  subject.protection = ProtectionClass::kClass2;
  subject.operations = {Operation::kInsert, Operation::kEquality};
  s.field("subject", subject);

  FieldAnnotation effective;
  effective.type = FieldType::kInt;
  effective.sensitive = true;
  effective.protection = ProtectionClass::kClass5;
  effective.operations = {Operation::kInsert, Operation::kEquality,
                          Operation::kBoolean, Operation::kRange};
  s.field("effective", effective);

  FieldAnnotation issued = effective;  // C5, op [I, EQ, BL, RG]
  s.field("issued", issued);

  FieldAnnotation performer;
  performer.type = FieldType::kString;
  performer.sensitive = true;
  performer.protection = ProtectionClass::kClass1;
  performer.operations = {Operation::kInsert};
  s.field("performer", performer);

  FieldAnnotation value;
  value.type = FieldType::kDouble;
  value.sensitive = true;
  value.protection = ProtectionClass::kClass3;
  value.operations = {Operation::kInsert, Operation::kEquality, Operation::kBoolean};
  value.aggregates = {Aggregate::kAverage};
  s.field("value", value);

  return s;
}

Schema benchmark_schema(const std::string& name) {
  // §5.2: "8 tactics ... namely Mitra, RND, Paillier, and five times DET".
  Schema s(name);
  s.plain_field("identifier", FieldType::kInt);
  s.plain_field("interpretation", FieldType::kString);

  auto det_field = [&](const std::string& field, FieldType type) {
    FieldAnnotation ann;
    ann.type = type;
    ann.sensitive = true;
    ann.protection = ProtectionClass::kClass4;  // DET-level
    ann.operations = {Operation::kInsert, Operation::kEquality};
    s.field(field, ann);
  };
  det_field("status", FieldType::kString);
  det_field("code", FieldType::kString);
  det_field("effective", FieldType::kInt);
  det_field("issued", FieldType::kInt);

  FieldAnnotation subject;
  subject.type = FieldType::kString;
  subject.sensitive = true;
  subject.protection = ProtectionClass::kClass2;  // Mitra-level
  subject.operations = {Operation::kInsert, Operation::kEquality};
  s.field("subject", subject);

  FieldAnnotation performer;
  performer.type = FieldType::kString;
  performer.sensitive = true;
  performer.protection = ProtectionClass::kClass1;  // RND-level
  performer.operations = {Operation::kInsert};
  s.field("performer", performer);

  FieldAnnotation value;
  value.type = FieldType::kDouble;
  value.sensitive = true;
  value.protection = ProtectionClass::kClass4;  // 5th DET
  value.operations = {Operation::kInsert, Operation::kEquality};
  value.aggregates = {Aggregate::kAverage};     // + Paillier
  s.field("value", value);

  return s;
}

}  // namespace datablinder::fhir
