#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "locks.hpp"
#include "model.hpp"
#include "schema.hpp"
#include "streams.hpp"

namespace tlclint {
namespace {

namespace fs = std::filesystem;

void add_finding(std::vector<Finding>& out, const std::string& rule,
                 const std::string& relpath, std::size_t line_index,
                 const std::string& message,
                 const std::vector<std::string>& code_lines) {
  Finding f;
  f.rule = rule;
  f.file = relpath;
  f.line = static_cast<int>(line_index) + 1;
  f.message = message;
  f.snippet = normalize_ws(code_lines[line_index]);
  out.push_back(std::move(f));
}

// --------------------------------------------------------------------
// Rule: wallclock
// --------------------------------------------------------------------

void rule_wallclock(const std::string& relpath,
                    const std::vector<std::string>& code,
                    const Pragmas& pragmas, std::vector<Finding>& out) {
  if (relpath.find("util/rng.") != std::string::npos) return;
  static const std::vector<std::string> kTokens = {
      "system_clock",   "steady_clock", "high_resolution_clock",
      "random_device",  "gettimeofday", "clock_gettime",
      "timespec_get",   "localtime",    "gmtime",
      "mktime",         "mt19937",      "minstd_rand",
      "default_random_engine",
  };
  static const std::vector<std::string> kCalls = {"time", "clock", "rand",
                                                  "srand"};
  static const std::vector<std::string> kHeaders = {
      "<chrono>", "<ctime>", "<time.h>", "<random>", "<sys/time.h>"};
  // The §13 bypass generators carry a stricter contract: all their
  // randomness must come from the injected seeded Rng stream, so the
  // OS-entropy syscalls (which the base rule tolerates elsewhere, e.g.
  // in tooling) are banned outright in their translation units.
  static const std::vector<std::string> kEntropyCalls = {
      "getrandom", "getentropy",       "arc4random", "arc4random_uniform",
      "rand_r",    "drand48",          "lrand48",    "mrand48",
      "random",    "arc4random_buf",
  };
  const bool adversarial_scope =
      relpath.find("workloads/adversarial") != std::string::npos;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (pragmas.allowed(i, "wallclock")) continue;
    const std::string& line = code[i];
    bool flagged = false;
    for (const std::string& token : kTokens) {
      if (!find_word(line, token).empty()) {
        add_finding(out, "wallclock", relpath, i,
                    "wall-clock / ambient-RNG primitive '" + token +
                        "' — use SimTime (util/simtime.hpp) or a seeded "
                        "util::Rng stream",
                    code);
        flagged = true;
        break;
      }
    }
    if (flagged) continue;
    for (const std::string& call : kCalls) {
      if (!find_call(line, call).empty()) {
        add_finding(out, "wallclock", relpath, i,
                    "call to '" + call +
                        "()' reads ambient time/randomness — settlement "
                        "must be a pure function of seeds and SimTime",
                    code);
        flagged = true;
        break;
      }
    }
    if (flagged) continue;
    if (adversarial_scope) {
      for (const std::string& call : kEntropyCalls) {
        if (!find_call(line, call).empty()) {
          add_finding(out, "wallclock", relpath, i,
                      "call to '" + call +
                          "()' draws OS entropy in an adversarial "
                          "generator — bypass traffic must derive from its "
                          "injected seeded Rng stream",
                      code);
          flagged = true;
          break;
        }
      }
      if (flagged) continue;
    }
    if (line.find("#include") != std::string::npos) {
      for (const std::string& header : kHeaders) {
        if (line.find(header) != std::string::npos) {
          add_finding(out, "wallclock", relpath, i,
                      "include of wall-clock/RNG header " + header +
                          " — only util/rng.* and allowlisted sites may",
                      code);
          break;
        }
      }
    }
  }
}

// --------------------------------------------------------------------
// Rule: float-money
// --------------------------------------------------------------------

bool in_money_tu(const std::string& relpath) {
  return starts_with(relpath, "src/charging/") ||
         starts_with(relpath, "src/core/") ||
         starts_with(relpath, "src/epc/cdr");
}

void rule_float_money(const std::string& relpath,
                      const std::vector<std::string>& code,
                      const Pragmas& pragmas, std::vector<Finding>& out) {
  if (!in_money_tu(relpath)) return;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (pragmas.allowed(i, "float-money")) continue;
    if (!find_word(code[i], "float").empty() ||
        !find_word(code[i], "double").empty()) {
      add_finding(out, "float-money", relpath, i,
                  "floating point in a charging/money translation unit — "
                  "bill in integer bytes; derive ratios at the edges",
                  code);
    }
  }
}

// --------------------------------------------------------------------
// Rule: unordered-iter
// --------------------------------------------------------------------

/// Collects variable/member names declared (or passed) with an
/// unordered_{map,set} type in `code`.
std::set<std::string> unordered_names(const std::vector<std::string>& code) {
  std::set<std::string> names;
  // Join into one buffer with line breaks as spaces: declarations wrap.
  std::string joined;
  for (const std::string& line : code) {
    joined += line;
    joined += ' ';
  }
  for (const char* container : {"unordered_map", "unordered_set"}) {
    std::size_t pos = 0;
    while ((pos = joined.find(container, pos)) != std::string::npos) {
      std::size_t i = pos + std::string(container).size();
      pos = i;
      while (i < joined.size() && joined[i] == ' ') ++i;
      if (i >= joined.size() || joined[i] != '<') continue;
      int depth = 0;
      while (i < joined.size()) {
        if (joined[i] == '<') ++depth;
        if (joined[i] == '>') {
          --depth;
          if (depth == 0) {
            ++i;
            break;
          }
        }
        ++i;
      }
      // Skip refs/pointers/qualifiers between the type and the name.
      for (;;) {
        while (i < joined.size() &&
               (joined[i] == ' ' || joined[i] == '&' || joined[i] == '*')) {
          ++i;
        }
        if (joined.compare(i, 5, "const") == 0 &&
            (i + 5 >= joined.size() || !is_ident_char(joined[i + 5]))) {
          i += 5;
          continue;
        }
        break;
      }
      std::string name;
      while (i < joined.size() && is_ident_char(joined[i])) {
        name += joined[i++];
      }
      if (!name.empty() &&
          std::isdigit(static_cast<unsigned char>(name[0])) == 0) {
        names.insert(name);
      }
    }
  }
  return names;
}

void rule_unordered_iter(const std::string& relpath,
                         const std::vector<std::string>& code,
                         const std::set<std::string>& names,
                         const Pragmas& pragmas, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::vector<std::size_t> fors = find_word(code[i], "for");
    if (fors.empty()) continue;
    // Join up to 4 lines so a wrapped for-header is still parsed.
    std::string joined;
    for (std::size_t j = i; j < code.size() && j < i + 4; ++j) {
      joined += code[j];
      joined += ' ';
    }
    for (std::size_t start : fors) {
      std::size_t open = joined.find('(', start);
      if (open == std::string::npos) continue;
      int depth = 0;
      std::size_t close = open;
      while (close < joined.size()) {
        if (joined[close] == '(') ++depth;
        if (joined[close] == ')') {
          --depth;
          if (depth == 0) break;
        }
        ++close;
      }
      if (close >= joined.size()) continue;
      const std::string header = joined.substr(open + 1, close - open - 1);
      // Range-for: a top-level ':' that is not part of '::'.
      std::size_t colon = std::string::npos;
      int inner = 0;
      for (std::size_t k = 0; k < header.size(); ++k) {
        const char c = header[k];
        if (c == '(' || c == '<' || c == '[') ++inner;
        if (c == ')' || c == '>' || c == ']') --inner;
        if (c == ':' && inner == 0) {
          const bool dbl = (k + 1 < header.size() && header[k + 1] == ':') ||
                           (k > 0 && header[k - 1] == ':');
          if (!dbl) {
            colon = k;
            break;
          }
        }
      }
      if (colon == std::string::npos) continue;
      const std::string range = header.substr(colon + 1);
      bool hit = range.find("unordered_") != std::string::npos;
      if (!hit) {
        std::string ident;
        for (std::size_t k = 0; k <= range.size(); ++k) {
          if (k < range.size() && is_ident_char(range[k])) {
            ident += range[k];
          } else {
            if (!ident.empty() && names.count(ident) != 0) {
              hit = true;
              break;
            }
            ident.clear();
          }
        }
      }
      if (hit && !pragmas.allowed(i, "unordered-iter")) {
        add_finding(out, "unordered-iter", relpath, i,
                    "iteration over an unordered container — hash order "
                    "must not reach serialization/aggregation; iterate a "
                    "sorted view or annotate '// tlclint: ordered — why'",
                    code);
      }
    }
  }
}

// --------------------------------------------------------------------
// Rule: nodiscard-expected
// --------------------------------------------------------------------

void rule_nodiscard(const std::string& relpath,
                    const std::vector<std::string>& raw,
                    const std::vector<std::string>& code,
                    const Pragmas& pragmas, std::vector<Finding>& out) {
  const bool is_header = relpath.size() > 4 &&
                         (relpath.rfind(".hpp") == relpath.size() - 4 ||
                          relpath.rfind(".h") == relpath.size() - 2);
  if (!is_header) return;
  static const std::vector<std::string> kPrefixes = {
      "[[nodiscard]]", "static", "inline", "virtual",
      "constexpr",     "friend", "explicit"};
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (pragmas.allowed(i, "nodiscard-expected")) continue;
    std::string s = trim(code[i]);
    for (bool stripped = true; stripped;) {
      stripped = false;
      for (const std::string& prefix : kPrefixes) {
        if (starts_with(s, prefix)) {
          s = trim(s.substr(prefix.size()));
          stripped = true;
        }
      }
    }
    std::string rest;
    if (starts_with(s, "Expected<")) {
      std::size_t k = 8;
      int depth = 0;
      while (k < s.size()) {
        if (s[k] == '<') ++depth;
        if (s[k] == '>') {
          --depth;
          if (depth == 0) {
            ++k;
            break;
          }
        }
        ++k;
      }
      if (k >= s.size()) continue;  // type wraps to next line; rare
      rest = trim(s.substr(k));
    } else if (starts_with(s, "Status") &&
               (s.size() == 6 || !is_ident_char(s[6]))) {
      rest = trim(s.substr(6));
    } else {
      continue;
    }
    // `rest` must look like `identifier(` — skips variables, ctors
    // (`Status(...)`) and out-of-line definitions (`Foo::bar(`).
    std::string ident;
    std::size_t k = 0;
    while (k < rest.size() && is_ident_char(rest[k])) ident += rest[k++];
    if (ident.empty() || k >= rest.size() || rest[k] != '(') continue;
    const bool annotated =
        raw[i].find("[[nodiscard]]") != std::string::npos ||
        (i > 0 && raw[i - 1].find("[[nodiscard]]") != std::string::npos);
    if (!annotated) {
      add_finding(out, "nodiscard-expected", relpath, i,
                  "declaration returning Expected/Status without "
                  "[[nodiscard]] — dropped errors are silent undercharges",
                  code);
    }
  }
}

// --------------------------------------------------------------------
// Rule: naked-mutex
// --------------------------------------------------------------------

bool in_annotated_subsystem(const std::string& relpath) {
  return starts_with(relpath, "src/fleet/") ||
         starts_with(relpath, "src/transport/") ||
         starts_with(relpath, "src/recovery/") ||
         starts_with(relpath, "src/epc/ofcs") ||
         // Crypto contexts are shared read-only across fleet workers;
         // any mutex appearing there signals a design change that needs
         // the same annotation discipline as the fleet itself.
         starts_with(relpath, "src/crypto/");
}

void rule_naked_mutex(const std::string& relpath,
                      const std::vector<std::string>& code,
                      const Pragmas& pragmas, std::vector<Finding>& out) {
  if (!in_annotated_subsystem(relpath)) return;
  // Longest-first so condition_variable_any wins over its prefix.
  static const std::vector<std::string> kTokens = {
      "std::recursive_timed_mutex",
      "std::condition_variable_any",
      "std::shared_timed_mutex",
      "std::condition_variable",
      "std::recursive_mutex",
      "std::timed_mutex",
      "std::shared_mutex",
      "std::scoped_lock",
      "std::unique_lock",
      "std::lock_guard",
      "std::once_flag",
      "std::call_once",
      "std::mutex",
  };
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (pragmas.allowed(i, "naked-mutex")) continue;
    for (const std::string& token : kTokens) {
      if (!find_word(code[i], token).empty()) {
        add_finding(out, "naked-mutex", relpath, i,
                    "raw '" + token +
                        "' in an annotated subsystem — use util::Mutex / "
                        "MutexLock / CondVar (util/thread_annotations.hpp) "
                        "so Clang's -Wthread-safety sees the lock",
                    code);
        break;
      }
    }
  }
}

// --------------------------------------------------------------------
// Rule: journal-write
// --------------------------------------------------------------------

/// Subsystems whose on-disk bytes are recovery-critical: every durable
/// write must go through util::fileio or the Journal append path, both
/// of which understand atomicity and framing. An ad-hoc ofstream here
/// is a torn-write waiting for a crash.
bool in_stateful_subsystem(const std::string& relpath) {
  return starts_with(relpath, "src/recovery/") ||
         starts_with(relpath, "src/core/") ||
         starts_with(relpath, "src/epc/") ||
         starts_with(relpath, "src/transport/") ||
         starts_with(relpath, "src/fleet/");
}

void rule_journal_write(const std::string& relpath,
                        const std::vector<std::string>& code,
                        const Pragmas& pragmas, std::vector<Finding>& out) {
  if (!in_stateful_subsystem(relpath)) return;
  // The Journal implementation is the one blessed ofstream owner (its
  // append path needs a persistent stream for frame-granular flushes).
  if (relpath.find("src/recovery/journal.") != std::string::npos) return;
  static const std::vector<std::string> kTokens = {"ofstream", "fstream",
                                                   "FILE"};
  static const std::vector<std::string> kCalls = {"fopen", "fwrite", "fputs",
                                                  "fprintf"};
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (pragmas.allowed(i, "journal-write")) continue;
    const std::string& line = code[i];
    bool flagged = false;
    for (const std::string& token : kTokens) {
      if (!find_word(line, token).empty()) {
        add_finding(out, "journal-write", relpath, i,
                    "raw file-write primitive '" + token +
                        "' in a stateful subsystem — durable bytes must go "
                        "through util::fileio or the Journal API "
                        "(recovery/journal.hpp), never an ad-hoc stream",
                    code);
        flagged = true;
        break;
      }
    }
    if (flagged) continue;
    for (const std::string& call : kCalls) {
      if (!find_call(line, call).empty()) {
        add_finding(out, "journal-write", relpath, i,
                    "call to '" + call +
                        "()' writes files behind the recovery machinery's "
                        "back — use util::fileio or the Journal API",
                    code);
        break;
      }
    }
  }
}

// --------------------------------------------------------------------
// Pass drivers
// --------------------------------------------------------------------

bool rule_enabled(const Options& options, const std::string& rule) {
  return options.rules.empty() ||
         std::find(options.rules.begin(), options.rules.end(), rule) !=
             options.rules.end();
}

/// Per-line rules over one file (pass two, file-local part).
std::vector<Finding> lint_lines(const std::string& relpath,
                                const std::vector<std::string>& raw,
                                const std::vector<std::string>& code,
                                const Pragmas& pragmas,
                                const std::set<std::string>& unordered,
                                const Options& options) {
  std::vector<Finding> findings;
  if (rule_enabled(options, "wallclock")) {
    rule_wallclock(relpath, code, pragmas, findings);
  }
  if (rule_enabled(options, "float-money")) {
    rule_float_money(relpath, code, pragmas, findings);
  }
  if (rule_enabled(options, "unordered-iter")) {
    rule_unordered_iter(relpath, code, unordered, pragmas, findings);
  }
  if (rule_enabled(options, "nodiscard-expected")) {
    rule_nodiscard(relpath, raw, code, pragmas, findings);
  }
  if (rule_enabled(options, "naked-mutex")) {
    rule_naked_mutex(relpath, code, pragmas, findings);
  }
  if (rule_enabled(options, "journal-write")) {
    rule_journal_write(relpath, code, pragmas, findings);
  }
  return findings;
}

/// Cross-TU rules over the whole model. `context_files` were loaded
/// only to resolve symbols (sibling headers of linted .cpp files);
/// findings inside them are dropped. `complete_model` enables the
/// orphan-golden check (meaningless on partial models).
void run_semantic(const SourceModel& model, const Options& options,
                  bool complete_model,
                  const std::set<std::string>& context_files,
                  std::vector<Finding>& out) {
  std::vector<Finding> sem;
  const bool want_schema = rule_enabled(options, "schema-coverage") ||
                           rule_enabled(options, "schema-asymmetry") ||
                           rule_enabled(options, "schema-drift");
  if (want_schema) {
    const SchemaAnalysis analysis = extract_schemas(model, sem);
    if (rule_enabled(options, "schema-asymmetry")) {
      check_asymmetry(analysis, sem);
    }
    if (rule_enabled(options, "schema-drift") &&
        !options.schemas_dir.empty()) {
      check_drift(analysis, options.schemas_dir, options.root, complete_model,
                  sem);
    }
  }
  if (rule_enabled(options, "wire-count")) check_wire_counts(model, sem);
  if (rule_enabled(options, "lock-cycle") ||
      rule_enabled(options, "lock-discipline")) {
    check_locks(model, sem);
  }
  if (rule_enabled(options, "seed-stream")) {
    check_streams(model, sem);
  }
  for (Finding& f : sem) {
    if (!rule_enabled(options, f.rule)) continue;
    if (context_files.count(f.file) != 0) continue;
    out.push_back(std::move(f));
  }
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool lintable_extension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

std::string to_relpath(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(path, root, ec);
  std::string s = (ec || rel.empty()) ? path.string() : rel.generic_string();
  return s;
}

struct LoadedTree {
  SourceModel model;
  /// Relpaths the caller asked to lint, in walk order.
  std::vector<std::string> requested;
  /// Relpaths loaded only as symbol context (sibling headers).
  std::set<std::string> context;
  /// True when any input path was a directory — the model then covers
  /// a whole subtree and completeness checks make sense.
  bool complete = false;
};

LoadedTree load_tree(const std::vector<std::string>& paths,
                     const Options& options) {
  const fs::path root = fs::path(options.root);
  LoadedTree tree;
  std::vector<fs::path> files;
  for (const std::string& p : paths) {
    const fs::path path(p);
    if (fs::is_directory(path)) {
      tree.complete = true;
      for (const auto& entry : fs::recursive_directory_iterator(path)) {
        if (entry.is_regular_file() && lintable_extension(entry.path())) {
          files.push_back(entry.path());
        }
      }
    } else if (fs::is_regular_file(path)) {
      files.push_back(path);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::set<std::string> loaded;
  for (const fs::path& file : files) {
    const std::string rel = to_relpath(file, root);
    if (!loaded.insert(rel).second) continue;
    tree.model.add_file(rel, read_file(file));
    tree.requested.push_back(rel);
  }
  // Sibling headers of linted .cpp files join the model as context:
  // member declarations, version constants and mutex declarations live
  // there even when only the .cpp was requested.
  for (const fs::path& file : files) {
    if (file.extension() != ".cpp" && file.extension() != ".cc") continue;
    fs::path header = file;
    header.replace_extension(".hpp");
    if (!fs::exists(header)) continue;
    const std::string rel = to_relpath(header, root);
    if (!loaded.insert(rel).second) continue;
    tree.model.add_file(rel, read_file(header));
    tree.context.insert(rel);
  }
  tree.model.finalize();
  return tree;
}

}  // namespace

std::string Finding::baseline_key() const {
  return rule + "|" + file + "|" + snippet;
}

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {
      "wallclock",       "float-money",      "unordered-iter",
      "nodiscard-expected", "naked-mutex",   "journal-write",
      "schema-coverage", "schema-asymmetry", "schema-drift",
      "wire-count",      "lock-cycle",       "lock-discipline",
      "seed-stream"};
  return kRules;
}

std::vector<Finding> lint_file(const std::string& relpath,
                               const std::string& contents,
                               const std::string& sibling_header,
                               const Options& options) {
  SourceModel model;
  model.add_file(relpath, contents);
  std::set<std::string> context;
  if (!sibling_header.empty()) {
    const SourceFile* f = model.file(relpath);
    const std::string sibling_rel = f->stem() + ".hpp";
    model.add_file(sibling_rel, sibling_header);
    context.insert(sibling_rel);
  }
  model.finalize();

  const SourceFile& sf = *model.file(relpath);
  std::set<std::string> names = unordered_names(sf.code);
  if (!sibling_header.empty()) {
    for (const std::string& name :
         unordered_names(model.file(sf.stem() + ".hpp")->code)) {
      names.insert(name);
    }
  }
  std::vector<Finding> findings =
      lint_lines(relpath, sf.raw, sf.code, sf.pragmas, names, options);
  run_semantic(model, options, /*complete_model=*/false, context, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

std::vector<Finding> lint_paths(const std::vector<std::string>& paths,
                                const Options& options) {
  const LoadedTree tree = load_tree(paths, options);

  std::vector<Finding> findings;
  for (const std::string& rel : tree.requested) {
    const SourceFile& sf = *tree.model.file(rel);
    std::set<std::string> names = unordered_names(sf.code);
    for (const SourceFile* sib : tree.model.stem_group(sf.stem())) {
      if (sib == &sf) continue;
      for (const std::string& name : unordered_names(sib->code)) {
        names.insert(name);
      }
    }
    const std::vector<Finding> file_findings =
        lint_lines(rel, sf.raw, sf.code, sf.pragmas, names, options);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }
  run_semantic(tree.model, options, tree.complete, tree.context, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

int write_schema_goldens(const std::vector<std::string>& paths,
                         const Options& options,
                         const std::string& schemas_dir, bool force,
                         std::string& log) {
  const LoadedTree tree = load_tree(paths, options);
  std::vector<Finding> scratch;
  const SchemaAnalysis analysis = extract_schemas(tree.model, scratch);
  return write_schemas(analysis, schemas_dir, force, log);
}

std::map<std::string, int> load_baseline(const std::string& path,
                                         std::string& error) {
  std::map<std::string, int> baseline;
  std::ifstream in(path);
  if (!in) {
    error = "cannot open baseline file: " + path;
    return baseline;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    ++baseline[line];
  }
  return baseline;
}

std::string render_baseline(const std::vector<Finding>& findings) {
  std::vector<std::string> keys;
  keys.reserve(findings.size());
  for (const Finding& f : findings) keys.push_back(f.baseline_key());
  std::sort(keys.begin(), keys.end());
  std::ostringstream out;
  out << "# tlclint suppression baseline.\n"
      << "# One `rule|file|normalized snippet` per legacy finding; new\n"
      << "# findings not listed here fail the `static`-labelled ctest.\n"
      << "# Regenerate (after fixing or consciously accepting findings):\n"
      << "#   tlclint --root . --write-baseline tools/tlclint/baseline.txt "
         "src\n";
  for (const std::string& key : keys) out << key << "\n";
  return out.str();
}

std::vector<Finding> subtract_baseline(
    const std::vector<Finding>& findings,
    const std::map<std::string, int>& baseline, int& suppressed) {
  std::map<std::string, int> budget = baseline;
  std::vector<Finding> fresh;
  suppressed = 0;
  for (const Finding& f : findings) {
    auto it = budget.find(f.baseline_key());
    if (it != budget.end() && it->second > 0) {
      --it->second;
      ++suppressed;
    } else {
      fresh.push_back(f);
    }
  }
  return fresh;
}

}  // namespace tlclint
