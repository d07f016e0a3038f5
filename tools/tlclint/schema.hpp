// Wire-schema extraction + drift detection (ISSUE 8 tentpole, rule
// family 1).
//
// Every codec built on util/serde.hpp declares itself with a pragma on
// the encode/decode function — or, when one function hosts several
// byte streams (the signed message framings), on the individual
// ByteWriter/ByteReader declaration:
//
//   // tlclint: codec(epc_cdr_compact, encode, version=kCompactWireVersion)
//   Bytes ChargingDataRecord::encode_compact() const { ... }
//
// The extractor walks the function body (splicing helper functions
// that take ByteWriter&/ByteReader&, tracking loop depth through
// for/while/do bodies) and produces the canonical field-order/width
// sequence. Three rules ride on it:
//
//   schema-coverage   a function moving bytes through ByteWriter/
//                     ByteReader without a codec annotation (waivable
//                     with allow(schema-coverage) for multiplexers)
//   schema-asymmetry  encode and decode sides of one codec disagree
//                     after loop-normalization (a run of one op kind
//                     containing a looped op collapses to `kind+`, so
//                     an encode-side unrolled loop still matches its
//                     decode-side rolled twin)
//   schema-drift      the rendered schema differs from the checked-in
//                     golden under tools/schemas/ — and if the *layout*
//                     (op kinds + loop depths) changed while the
//                     declared version constant did not, the finding
//                     demands a version bump, not just a regen
//
// --write-schemas regenerates goldens but refuses a layout change
// whose version constant is unbumped unless --force-schemas is given:
// the golden diff plus the version bump is the reviewed artifact.
#pragma once

#include <string>
#include <vector>

#include "lint.hpp"
#include "model.hpp"

namespace tlclint {

/// One serde call: kind is the ByteWriter/ByteReader method name.
struct SerdeOp {
  std::string kind;     // u8 u16 u32 u64 i64 f64 blob str (count: u32)
  int loop_depth = 0;   // number of enclosing for/while/do bodies
  std::string arg;      // normalized encode-side expression ("" decode)
  std::size_t line = 0;  // 0-based
};

/// One annotated encode or decode implementation of a codec.
struct CodecSide {
  std::string codec;
  bool encode = false;
  std::string file;      // root-relative
  std::string function;  // qualified name hosting the stream
  std::size_t line = 0;  // 0-based anchor (the pragma's target line)
  std::vector<SerdeOp> ops;
  std::string version_ident;  // "" = no version declared
  std::string version_value;  // "" = declared but unresolved
};

struct SchemaAnalysis {
  std::vector<CodecSide> sides;  // sorted (codec, decode-after-encode)
  /// Codec names in first-seen sorted order.
  [[nodiscard]] std::vector<std::string> codec_names() const;
  [[nodiscard]] std::vector<const CodecSide*> sides_of(
      const std::string& codec) const;
};

/// Extracts every annotated codec side from the model. Emits
/// schema-coverage findings for unannotated serde users and
/// schema-asymmetry findings for malformed pragmas.
[[nodiscard]] SchemaAnalysis extract_schemas(const SourceModel& model,
                                             std::vector<Finding>& findings);

/// Canonical golden text for one codec (stable across runs).
[[nodiscard]] std::string render_schema(
    const std::string& codec, const std::vector<const CodecSide*>& sides);

/// Encode↔decode agreement after loop-normalization.
void check_asymmetry(const SchemaAnalysis& analysis,
                     std::vector<Finding>& findings);

/// Rendered schemas vs checked-in goldens in `schemas_dir`.
/// `complete_model` additionally flags orphan goldens (only meaningful
/// when the model covers the whole tree, not a single mutated file).
/// Golden paths in findings are printed relative to `root` when they
/// live under it, so output is stable across invocation styles.
void check_drift(const SchemaAnalysis& analysis,
                 const std::string& schemas_dir, const std::string& root,
                 bool complete_model, std::vector<Finding>& findings);

/// wire-count: an integer read from a ByteReader by u8..u64 that
/// reaches a for/while bound, reserve/resize/assign, or a sized
/// container constructor. Such counts must come from
/// ByteReader::count(), which bounds them by the bytes left.
void check_wire_counts(const SourceModel& model,
                       std::vector<Finding>& findings);

/// Writes/updates goldens. Returns 0 on success, 2 when a layout
/// change without a version bump was refused (unless `force`).
/// Appends a human-readable summary to `log`.
[[nodiscard]] int write_schemas(const SchemaAnalysis& analysis,
                                const std::string& schemas_dir, bool force,
                                std::string& log);

}  // namespace tlclint
