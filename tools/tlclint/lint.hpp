// tlclint — TLC's repo-native determinism & concurrency linter.
//
// v1 (PR 3) was a token/line scanner; v2 (ISSUE 8) adds a two-pass,
// include-graph-aware analysis: pass one loads every file into a
// cross-TU SourceModel (model.hpp), pass two runs the semantic rule
// families over it. No libclang — fast enough to run as a tier-1
// ctest over all of src/.
//
// Per-line rules (pass two, per file):
//
//   wallclock          no std::chrono clocks / time() / rand() /
//                      std::random_device outside util/rng.* and
//                      explicitly allowlisted sites (util/walltime.hpp)
//   float-money        no float/double in charging/money translation
//                      units (src/charging/, src/core/, src/epc/cdr*)
//   unordered-iter     no range-for over unordered_{map,set} without an
//                      ordering pragma — hash order must never reach
//                      serialization or aggregation
//   nodiscard-expected Expected<...>/Status-returning declarations must
//                      be [[nodiscard]]
//   naked-mutex        fleet/, transport/, recovery/ and epc/ofcs* must
//                      use the annotated util::Mutex/MutexLock/CondVar
//                      wrappers, never raw std::mutex & friends
//   journal-write      stateful subsystems (recovery/, core/, epc/,
//                      transport/, fleet/) must write durable bytes via
//                      util::fileio or the Journal API, never a raw
//                      ofstream/FILE
//
// Cross-TU rules (pass two, whole model):
//
//   schema-coverage    ByteWriter/ByteReader use without a
//                      `// tlclint: codec(...)` annotation (schema.hpp)
//   schema-asymmetry   encode/decode sides of one codec disagree after
//                      loop-normalization
//   schema-drift       extracted wire schema differs from the golden
//                      under tools/schemas/ (only with --schemas-dir);
//                      layout changes additionally demand a version-
//                      constant bump
//   wire-count         an integer read from a ByteReader by u8..u64
//                      that sizes a loop or an allocation without
//                      going through ByteReader::count()
//   lock-cycle         cycle in the cross-TU util::Mutex acquisition
//                      graph (locks.hpp), incl. self-re-acquisition
//   lock-discipline    naked .lock()/.unlock() on a util::Mutex
//   seed-stream        stream_seed/stream_rng index without a named
//                      stream token, or a k...Stream constant drawn
//                      outside its declaring owner (streams.hpp)
//
// Suppression is two-tier: in-code pragmas for sites that are correct
// by design (`// tlclint: allow(rule) reason` on the line or the line
// above; `// tlclint: ordered — reason` for unordered-iter), and a
// checked-in baseline file for legacy findings, so the lint lands clean
// and only *new* findings fail CI.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace tlclint {

struct Finding {
  std::string rule;
  std::string file;  // root-relative, forward slashes
  int line = 0;      // 1-based
  std::string message;
  std::string snippet;  // whitespace-normalized source line

  /// Baseline identity: deliberately excludes the line number so code
  /// motion above a legacy finding does not resurrect it.
  [[nodiscard]] std::string baseline_key() const;
};

struct Options {
  /// Paths are reported relative to this directory.
  std::string root = ".";
  /// Baseline file to subtract (empty = report everything).
  std::string baseline;
  /// Rules to run (empty = all).
  std::vector<std::string> rules;
  /// Directory of checked-in *.schema goldens; empty disables the
  /// schema-drift rule (coverage and asymmetry still run).
  std::string schemas_dir;
};

/// All rule names, in reporting order.
[[nodiscard]] const std::vector<std::string>& all_rules();

/// Lints one file's contents (exposed for unit tests and the fixture
/// corpus driver). `relpath` selects the path-scoped rules; `sibling
/// header` optionally supplies the paired .hpp text so member
/// declarations are visible when linting a .cpp. Cross-TU rules run
/// over a single-file model (plus the sibling as context).
[[nodiscard]] std::vector<Finding> lint_file(const std::string& relpath,
                                             const std::string& contents,
                                             const std::string& sibling_header,
                                             const Options& options);

/// Walks `paths` (files or directories; .cpp/.cc/.hpp/.h), lints every
/// file, runs the cross-TU rules over the combined model, returns
/// findings sorted by (file, line, rule).
[[nodiscard]] std::vector<Finding> lint_paths(
    const std::vector<std::string>& paths, const Options& options);

/// Extracts codec schemas from `paths` and writes/updates the goldens
/// in `schemas_dir`. Returns 0 on success, 2 when a layout change
/// without a version bump was refused (see --force-schemas). `log`
/// receives a per-codec summary.
[[nodiscard]] int write_schema_goldens(const std::vector<std::string>& paths,
                                       const Options& options,
                                       const std::string& schemas_dir,
                                       bool force, std::string& log);

/// Baseline I/O: a multiset of baseline keys.
[[nodiscard]] std::map<std::string, int> load_baseline(
    const std::string& path, std::string& error);
[[nodiscard]] std::string render_baseline(const std::vector<Finding>& findings);

/// Subtracts the baseline multiset; returns only new findings.
[[nodiscard]] std::vector<Finding> subtract_baseline(
    const std::vector<Finding>& findings,
    const std::map<std::string, int>& baseline, int& suppressed);

}  // namespace tlclint
