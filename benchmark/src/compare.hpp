// `--compare=BASE.json,CHANGE.json`: the regression gate between two
// result files written by `--json`.
#pragma once

#include <string>

namespace tlc::bench {

/// Prints a verdict per (workload, end-to-end metric) — better, same,
/// worse or unresolved — and each layer metric's change. Returns the
/// process exit code: 0, 1 on any "worse" (or an incorrect run), 2 when
/// a file cannot be read or lacks one of the base's workloads.
[[nodiscard]] int run_compare(const std::string& base_path,
                              const std::string& change_path);

}  // namespace tlc::bench
