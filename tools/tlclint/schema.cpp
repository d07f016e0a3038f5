#include "schema.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace tlclint {
namespace {

namespace fs = std::filesystem;

const std::set<std::string>& serde_kinds() {
  static const std::set<std::string> kKinds = {
      "u8", "u16", "u32", "u64", "i64", "f64", "blob", "str", "count"};
  return kKinds;
}

/// Wire kind of a serde method: ByteReader::count() reads a u32.
std::string wire_kind(const std::string& method) {
  return method == "count" ? "u32" : method;
}

std::size_t skip_ws(const std::string& t, std::size_t i, std::size_t end) {
  while (i < end && (t[i] == ' ' || t[i] == '\t' || t[i] == '\n')) ++i;
  return i;
}

std::size_t match_delim(const std::string& t, std::size_t open,
                        std::size_t end, char o, char c) {
  int depth = 0;
  for (std::size_t i = open; i < end; ++i) {
    if (t[i] == o) ++depth;
    if (t[i] == c) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return end;
}

/// Half-open spans of loop bodies (for/while/do) inside [begin, end).
/// Nesting is expressed by overlap: loop depth at an offset is the
/// number of spans containing it.
std::vector<std::pair<std::size_t, std::size_t>> loop_spans(
    const std::string& t, std::size_t begin, std::size_t end) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t i = begin;
  while (i < end) {
    if (!is_ident_char(t[i])) {
      ++i;
      continue;
    }
    std::size_t b = i;
    while (i < end && is_ident_char(t[i])) ++i;
    if (b > begin && is_ident_char(t[b - 1])) continue;
    const std::string word = t.substr(b, i - b);
    if (word == "do") {
      const std::size_t j = skip_ws(t, i, end);
      if (j < end && t[j] == '{') {
        spans.push_back({j + 1, match_delim(t, j, end, '{', '}')});
      }
      continue;
    }
    if (word != "for" && word != "while") continue;
    const std::size_t open = skip_ws(t, i, end);
    if (open >= end || t[open] != '(') continue;
    const std::size_t close = match_delim(t, open, end, '(', ')');
    std::size_t k = skip_ws(t, close + 1, end);
    if (k >= end) continue;
    if (t[k] == '{') {
      spans.push_back({k + 1, match_delim(t, k, end, '{', '}')});
    } else if (t[k] != ';') {
      // Single-statement body: up to the first ';' outside nested
      // parens/braces, or the end of a braced sub-statement.
      std::size_t stmt_end = k;
      int paren = 0;
      for (std::size_t j = k; j < end; ++j) {
        if (t[j] == '(') ++paren;
        if (t[j] == ')') --paren;
        if (t[j] == '{' && paren == 0) {
          stmt_end = match_delim(t, j, end, '{', '}') + 1;
          break;
        }
        if (t[j] == ';' && paren == 0) {
          stmt_end = j + 1;
          break;
        }
      }
      spans.push_back({k, stmt_end});
    }
  }
  return spans;
}

int depth_at(const std::vector<std::pair<std::size_t, std::size_t>>& spans,
             std::size_t pos) {
  int depth = 0;
  for (const auto& [b, e] : spans) {
    if (pos >= b && pos < e) ++depth;
  }
  return depth;
}

/// Identifier immediately after a ByteWriter/ByteReader type token
/// (skipping refs, pointers, const): the declared variable or
/// parameter name.
std::string var_after_type(const std::string& t, std::size_t type_end,
                           std::size_t end) {
  std::size_t i = type_end;
  for (;;) {
    i = skip_ws(t, i, end);
    if (i < end && (t[i] == '&' || t[i] == '*')) {
      ++i;
      continue;
    }
    if (t.compare(i, 5, "const") == 0 &&
        (i + 5 >= end || !is_ident_char(t[i + 5]))) {
      i += 5;
      continue;
    }
    break;
  }
  std::string name;
  while (i < end && is_ident_char(t[i])) name.push_back(t[i++]);
  if (!name.empty() && std::isdigit(static_cast<unsigned char>(name[0]))) {
    return "";
  }
  return name;
}

/// All ByteWriter/ByteReader variable names introduced in [begin, end).
std::set<std::string> serde_vars(const std::string& t, std::size_t begin,
                                 std::size_t end) {
  std::set<std::string> vars;
  for (const char* type : {"ByteWriter", "ByteReader"}) {
    std::size_t pos = begin;
    const std::string token(type);
    while ((pos = t.find(token, pos)) != std::string::npos && pos < end) {
      const std::size_t word_end = pos + token.size();
      const bool start_ok = pos == 0 || !is_ident_char(t[pos - 1]);
      const bool end_ok = word_end >= end || !is_ident_char(t[word_end]);
      pos = word_end;
      if (!start_ok || !end_ok) continue;
      const std::string name = var_after_type(t, word_end, end);
      if (!name.empty()) vars.insert(name);
    }
  }
  return vars;
}

struct HelperFn {
  const SourceFile* file = nullptr;
  const FunctionDef* fn = nullptr;
};

/// Functions taking ByteWriter&/ByteReader& are schema helpers: their
/// op sequences splice into callers at the call site's loop depth.
std::map<std::string, std::vector<HelperFn>> build_helper_map(
    const SourceModel& model) {
  std::map<std::string, std::vector<HelperFn>> helpers;
  for (const SourceFile& f : model.files()) {
    for (const FunctionDef& fn : f.functions) {
      if (find_word(fn.head, "ByteWriter").empty() &&
          find_word(fn.head, "ByteReader").empty()) {
        continue;
      }
      helpers[fn.name].push_back({&f, &fn});
    }
  }
  return helpers;
}

class Extractor {
 public:
  explicit Extractor(const SourceModel& model)
      : model_(model), helpers_(build_helper_map(model)) {}

  /// Ops for a whole function body (all serde vars + param vars).
  std::vector<SerdeOp> function_ops(const SourceFile& f,
                                    const FunctionDef& fn) {
    std::set<std::string> vars =
        serde_vars(f.joined, fn.body_begin, fn.body_end);
    for (const std::string& p : serde_vars(fn.head, 0, fn.head.size())) {
      vars.insert(p);
    }
    return range_ops(f, fn.body_begin, fn.body_end, vars, true);
  }

  /// Ops for one tracked variable from its declaration to the end of
  /// the enclosing function body.
  std::vector<SerdeOp> var_ops(const SourceFile& f, const FunctionDef& fn,
                               std::size_t decl_offset,
                               const std::string& var) {
    return range_ops(f, decl_offset, fn.body_end, {var}, true);
  }

  /// True when the function body moves bytes through a serde var it
  /// declares — directly or by handing it to a helper (used by the
  /// coverage rule).
  bool uses_serde(const SourceFile& f, const FunctionDef& fn) {
    const std::set<std::string> vars =
        serde_vars(f.joined, fn.body_begin, fn.body_end);
    if (vars.empty()) return false;
    return !range_ops(f, fn.body_begin, fn.body_end, vars, true).empty();
  }

  [[nodiscard]] bool is_helper(const FunctionDef& fn) const {
    return !find_word(fn.head, "ByteWriter").empty() ||
           !find_word(fn.head, "ByteReader").empty();
  }

 private:
  std::vector<SerdeOp> range_ops(const SourceFile& f, std::size_t begin,
                                 std::size_t end,
                                 const std::set<std::string>& vars,
                                 bool splice_helpers) {
    const std::string& t = f.joined;
    const auto spans = loop_spans(t, begin, end);
    struct Event {
      std::size_t pos;
      std::vector<SerdeOp> ops;
    };
    std::vector<Event> events;

    // Direct ops: `<var>.<kind>(...)`.
    for (std::size_t i = begin; i < end; ++i) {
      if (t[i] != '.') continue;
      std::size_t vb = i;
      while (vb > begin && is_ident_char(t[vb - 1])) --vb;
      if (vb == i) continue;
      const std::string var = t.substr(vb, i - vb);
      if (vb > begin && (is_ident_char(t[vb - 1]) || t[vb - 1] == '.')) {
        continue;
      }
      if (vars.count(var) == 0) continue;
      std::size_t kb = i + 1;
      std::size_t ke = kb;
      while (ke < end && is_ident_char(t[ke])) ++ke;
      const std::string kind = t.substr(kb, ke - kb);
      if (serde_kinds().count(kind) == 0) continue;
      if (ke >= end || t[ke] != '(') continue;
      const std::size_t close = match_delim(t, ke, end, '(', ')');
      SerdeOp op;
      op.kind = wire_kind(kind);
      op.loop_depth = depth_at(spans, i);
      // count()'s argument is a decode-side size bound, not a field.
      if (kind != "count") {
        op.arg = normalize_ws(t.substr(ke + 1, close - ke - 1));
      }
      if (op.arg.size() > 60) op.arg = op.arg.substr(0, 57) + "...";
      op.line = f.line_of(i);
      events.push_back({i, {std::move(op)}});
    }

    if (splice_helpers) {
      for (const auto& [hname, defs] : helpers_) {
        for (std::size_t pos : find_word_in_range(t, hname, begin, end)) {
          const std::size_t after = pos + hname.size();
          const std::size_t open = skip_ws(t, after, end);
          if (open >= end || t[open] != '(') continue;
          const std::size_t close = match_delim(t, open, end, '(', ')');
          const std::string args = t.substr(open + 1, close - open - 1);
          bool passes_var = false;
          for (const std::string& v : vars) {
            if (!find_word(args, v).empty()) {
              passes_var = true;
              break;
            }
          }
          if (!passes_var) continue;
          const int call_depth = depth_at(spans, pos);
          std::vector<SerdeOp> spliced;
          for (const HelperFn& h : defs) {
            std::vector<SerdeOp> ops = helper_ops(*h.file, *h.fn);
            for (SerdeOp& op : ops) {
              op.loop_depth += call_depth;
              op.line = f.line_of(pos);
              spliced.push_back(std::move(op));
            }
            break;  // name-keyed model: first definition wins
          }
          if (!spliced.empty()) events.push_back({pos, std::move(spliced)});
        }
      }
    }

    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.pos < b.pos; });
    std::vector<SerdeOp> out;
    for (Event& e : events) {
      for (SerdeOp& op : e.ops) out.push_back(std::move(op));
    }
    return out;
  }

  std::vector<SerdeOp> helper_ops(const SourceFile& f,
                                  const FunctionDef& fn) {
    const void* key = &fn;
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    if (in_progress_.count(key) != 0) return {};  // recursion guard
    in_progress_.insert(key);
    std::vector<SerdeOp> ops = function_ops(f, fn);
    in_progress_.erase(key);
    memo_[key] = ops;
    return ops;
  }

  static std::vector<std::size_t> find_word_in_range(const std::string& t,
                                                     const std::string& word,
                                                     std::size_t begin,
                                                     std::size_t end) {
    std::vector<std::size_t> hits;
    std::size_t pos = begin;
    while ((pos = t.find(word, pos)) != std::string::npos && pos < end) {
      const bool start_ok = pos == 0 || !is_ident_char(t[pos - 1]);
      const std::size_t word_end = pos + word.size();
      const bool end_ok = word_end >= end || !is_ident_char(t[word_end]);
      if (start_ok && end_ok) hits.push_back(pos);
      pos = word_end;
    }
    return hits;
  }

  const SourceModel& model_;
  std::map<std::string, std::vector<HelperFn>> helpers_;
  std::map<const void*, std::vector<SerdeOp>> memo_;
  std::set<const void*> in_progress_;
};

struct CodecPragma {
  std::string name;
  bool encode = false;
  std::string version_ident;
  std::size_t line = 0;  // 0-based
};

bool valid_codec_name(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!is_ident_char(c) && c != '-') return false;
  }
  return true;
}

void finding_at(std::vector<Finding>& out, const std::string& rule,
                const SourceFile& f, std::size_t line,
                const std::string& message) {
  Finding fnd;
  fnd.rule = rule;
  fnd.file = f.relpath;
  fnd.line = static_cast<int>(line) + 1;
  fnd.message = message;
  fnd.snippet = line < f.code.size() ? normalize_ws(f.code[line]) : "";
  out.push_back(std::move(fnd));
}

std::vector<CodecPragma> parse_codec_pragmas(const SourceFile& f,
                                             std::vector<Finding>& findings) {
  std::vector<CodecPragma> pragmas;
  for (std::size_t i = 0; i < f.raw.size(); ++i) {
    const std::string& line = f.raw[i];
    const std::size_t at = line.find("tlclint:");
    if (at == std::string::npos) continue;
    const std::size_t c = line.find("codec(", at);
    if (c == std::string::npos) continue;
    const std::size_t close = line.find(')', c);
    if (close == std::string::npos) {
      finding_at(findings, "schema-coverage", f, i,
                 "malformed codec pragma: missing ')'");
      continue;
    }
    std::stringstream ss(line.substr(c + 6, close - c - 6));
    std::vector<std::string> parts;
    std::string part;
    while (std::getline(ss, part, ',')) parts.push_back(trim(part));
    CodecPragma p;
    p.line = i;
    if (parts.size() < 2 || !valid_codec_name(parts[0]) ||
        (parts[1] != "encode" && parts[1] != "decode")) {
      finding_at(findings, "schema-coverage", f, i,
                 "malformed codec pragma: expected "
                 "codec(name, encode|decode[, version=kIdent])");
      continue;
    }
    p.name = parts[0];
    p.encode = parts[1] == "encode";
    for (std::size_t k = 2; k < parts.size(); ++k) {
      if (starts_with(parts[k], "version=")) {
        p.version_ident = trim(parts[k].substr(8));
      }
    }
    pragmas.push_back(std::move(p));
  }
  return pragmas;
}

/// Resolves `ident = value` in the stem group of `file` (the TU and
/// its sibling header — where codec version constants live).
std::string resolve_version(const SourceModel& model, const SourceFile& file,
                            const std::string& ident) {
  for (const SourceFile* f : model.stem_group(file.stem())) {
    for (const std::string& line : f->code) {
      const auto hits = find_word(line, ident);
      if (hits.empty()) continue;
      const std::size_t eq = line.find('=', hits[0] + ident.size());
      if (eq == std::string::npos) continue;
      std::size_t stop = line.find(';', eq);
      if (stop == std::string::npos) stop = line.size();
      const std::string value = trim(line.substr(eq + 1, stop - eq - 1));
      if (!value.empty()) return value;
    }
  }
  return "";
}

/// Loop-normalized op sequence: a maximal run of one kind containing
/// at least one looped op collapses to `kind+`, so rolled/unrolled
/// twins compare equal while order and width changes do not.
std::vector<std::string> normalized_sequence(const CodecSide& side) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < side.ops.size()) {
    std::size_t j = i;
    bool looped = false;
    while (j < side.ops.size() && side.ops[j].kind == side.ops[i].kind) {
      looped = looped || side.ops[j].loop_depth > 0;
      ++j;
    }
    if (looped) {
      tokens.push_back(side.ops[i].kind + "+");
    } else {
      for (std::size_t k = i; k < j; ++k) tokens.push_back(side.ops[i].kind);
    }
    i = j;
  }
  return tokens;
}

std::string join_tokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) {
    if (!out.empty()) out.push_back(' ');
    out += t;
  }
  return out;
}

std::string layout_hash(const std::vector<const CodecSide*>& sides) {
  // FNV-1a over the encode side's (kind, loop depth) sequence; falls
  // back to the first side for decode-only codecs.
  const CodecSide* basis = nullptr;
  for (const CodecSide* s : sides) {
    if (s->encode) {
      basis = s;
      break;
    }
  }
  if (basis == nullptr && !sides.empty()) basis = sides[0];
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](char c) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  };
  if (basis != nullptr) {
    for (const SerdeOp& op : basis->ops) {
      for (char c : op.kind) mix(c);
      mix(static_cast<char>('0' + (op.loop_depth % 10)));
      mix('|');
    }
  }
  std::ostringstream ss;
  ss << std::hex;
  ss.width(16);
  ss.fill('0');
  ss << h;
  return ss.str();
}

std::string version_line(const std::vector<const CodecSide*>& sides) {
  for (const CodecSide* s : sides) {
    if (!s->version_ident.empty()) {
      return "version " + s->version_ident + " = " +
             (s->version_value.empty() ? "?" : s->version_value);
    }
  }
  return "version none";
}

std::string read_text_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string golden_field(const std::string& text, const std::string& key) {
  for (const std::string& line : split_lines(text)) {
    if (starts_with(line, key)) return line;
  }
  return "";
}

}  // namespace

std::vector<std::string> SchemaAnalysis::codec_names() const {
  std::vector<std::string> names;
  for (const CodecSide& s : sides) {
    if (std::find(names.begin(), names.end(), s.codec) == names.end()) {
      names.push_back(s.codec);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<const CodecSide*> SchemaAnalysis::sides_of(
    const std::string& codec) const {
  std::vector<const CodecSide*> out;
  for (const CodecSide& s : sides) {
    if (s.codec == codec) out.push_back(&s);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CodecSide* a, const CodecSide* b) {
                     return std::tie(b->encode, a->file, a->line) <
                            std::tie(a->encode, b->file, b->line);
                   });
  return out;
}

SchemaAnalysis extract_schemas(const SourceModel& model,
                               std::vector<Finding>& findings) {
  SchemaAnalysis analysis;
  Extractor extractor(model);
  // (file ptr, function ptr) pairs covered by some codec annotation;
  // the coverage rule skips these.
  std::set<const void*> covered;

  for (const SourceFile& f : model.files()) {
    for (const CodecPragma& p : parse_codec_pragmas(f, findings)) {
      CodecSide side;
      side.codec = p.name;
      side.encode = p.encode;
      side.file = f.relpath;
      side.version_ident = p.version_ident;
      if (!p.version_ident.empty()) {
        side.version_value = resolve_version(model, f, p.version_ident);
        if (side.version_value.empty()) {
          finding_at(findings, "schema-coverage", f, p.line,
                     "codec '" + p.name + "': version constant '" +
                         p.version_ident +
                         "' not found in this translation unit or its "
                         "sibling header");
        }
      }

      // Variable attachment: a ByteWriter/ByteReader declaration on
      // the pragma line or the next one.
      bool attached = false;
      for (std::size_t cand = p.line;
           cand <= p.line + 1 && cand < f.code.size(); ++cand) {
        const std::string& cl = f.code[cand];
        for (const char* type : {"ByteWriter", "ByteReader"}) {
          const auto hits = find_word(cl, type);
          if (hits.empty()) continue;
          const std::string var = var_after_type(
              cl, hits[0] + std::string(type).size(), cl.size());
          if (var.empty()) continue;
          const std::size_t decl_offset =
              (cand < f.line_starts.size() ? f.line_starts[cand] : 0) +
              hits[0];
          const FunctionDef* host = nullptr;
          for (const FunctionDef& fn : f.functions) {
            if (decl_offset >= fn.body_begin && decl_offset < fn.body_end) {
              host = &fn;
              break;
            }
          }
          if (host == nullptr) continue;
          side.function = host->qualified;
          side.line = cand;
          side.ops = extractor.var_ops(f, *host, decl_offset, var);
          covered.insert(host);
          attached = true;
          break;
        }
        if (attached) break;
      }

      // Function attachment: the next function definition.
      if (!attached) {
        const FunctionDef* best = nullptr;
        for (const FunctionDef& fn : f.functions) {
          if (fn.head_line >= p.line && fn.head_line <= p.line + 8 &&
              (best == nullptr || fn.head_line < best->head_line)) {
            best = &fn;
          }
        }
        if (best != nullptr) {
          side.function = best->qualified;
          side.line = best->head_line;
          side.ops = extractor.function_ops(f, *best);
          covered.insert(best);
          attached = true;
        }
      }

      if (!attached) {
        finding_at(findings, "schema-coverage", f, p.line,
                   "codec pragma for '" + p.name +
                       "' is not followed by a function definition or a "
                       "ByteWriter/ByteReader declaration");
        continue;
      }
      if (side.ops.empty()) {
        finding_at(findings, "schema-coverage", f, side.line,
                   "codec '" + p.name +
                       "' extracted zero serde ops — pragma attached to "
                       "the wrong construct?");
        continue;
      }
      analysis.sides.push_back(std::move(side));
    }
  }

  // Coverage: unannotated serde users in src/.
  for (const SourceFile& f : model.files()) {
    if (!starts_with(f.relpath, "src/")) continue;
    if (f.relpath.find("util/serde") != std::string::npos) continue;
    for (const FunctionDef& fn : f.functions) {
      if (covered.count(&fn) != 0) continue;
      if (extractor.is_helper(fn)) continue;  // spliced into callers
      if (!extractor.uses_serde(f, fn)) continue;
      if (f.pragmas.allowed(fn.head_line, "schema-coverage")) continue;
      finding_at(findings, "schema-coverage", f, fn.head_line,
                 "'" + fn.qualified +
                     "' moves wire bytes without a codec annotation — add "
                     "'// tlclint: codec(name, encode|decode[, "
                     "version=kIdent])' or waive with allow(schema-coverage)");
    }
  }

  std::stable_sort(analysis.sides.begin(), analysis.sides.end(),
                   [](const CodecSide& a, const CodecSide& b) {
                     return std::tie(a.codec, b.encode, a.file, a.line) <
                            std::tie(b.codec, a.encode, b.file, b.line);
                   });
  return analysis;
}

std::string render_schema(const std::string& codec,
                          const std::vector<const CodecSide*>& sides) {
  std::ostringstream out;
  out << "# " << codec << " — canonical wire schema extracted by tlclint.\n"
      << "# Regenerate: tlclint --root . --write-schemas tools/schemas src\n"
      << "codec " << codec << "\n"
      << version_line(sides) << "\n"
      << "layout " << layout_hash(sides) << "\n";
  for (const CodecSide* s : sides) {
    out << (s->encode ? "encode " : "decode ") << s->file << " "
        << s->function << "\n";
    for (const SerdeOp& op : s->ops) {
      out << "  " << op.kind;
      for (int d = 0; d < op.loop_depth; ++d) out << "*";
      if (!op.arg.empty()) out << " " << op.arg;
      out << "\n";
    }
  }
  return out.str();
}

void check_asymmetry(const SchemaAnalysis& analysis,
                     std::vector<Finding>& findings) {
  for (const std::string& codec : analysis.codec_names()) {
    const auto sides = analysis.sides_of(codec);
    std::vector<const CodecSide*> encodes;
    std::vector<const CodecSide*> decodes;
    for (const CodecSide* s : sides) {
      (s->encode ? encodes : decodes).push_back(s);
    }
    const auto report = [&findings](const CodecSide& at,
                                    const std::string& message) {
      Finding f;
      f.rule = "schema-asymmetry";
      f.file = at.file;
      f.line = static_cast<int>(at.line) + 1;
      f.message = message;
      f.snippet = at.function;
      findings.push_back(std::move(f));
    };
    if (encodes.size() > 1) {
      report(*encodes[1], "codec '" + codec +
                              "' has more than one encode side — the wire "
                              "format owner must be unique");
    }
    if (encodes.empty() || decodes.empty()) continue;  // one-sided codec
    const std::vector<std::string> want = normalized_sequence(*encodes[0]);
    for (const CodecSide* d : decodes) {
      const std::vector<std::string> got = normalized_sequence(*d);
      if (got != want) {
        report(*d, "codec '" + codec + "' encode/decode asymmetry:\n"
                       "    encode: " + join_tokens(want) + "\n"
                       "    decode: " + join_tokens(got));
      }
    }
  }
}

namespace {

/// Renders a golden path relative to `root` when it lives under it;
/// output must not depend on whether the caller passed absolute or
/// relative paths.
std::string display_schema_path(const std::string& root, const fs::path& p) {
  std::error_code ec;
  const std::string rs = fs::weakly_canonical(root, ec).generic_string();
  const std::string ps = fs::weakly_canonical(p, ec).generic_string();
  if (!rs.empty() && ps.size() > rs.size() + 1 &&
      ps.compare(0, rs.size(), rs) == 0 && ps[rs.size()] == '/') {
    return ps.substr(rs.size() + 1);
  }
  return p.generic_string();
}

}  // namespace

void check_drift(const SchemaAnalysis& analysis,
                 const std::string& schemas_dir, const std::string& root,
                 bool complete_model, std::vector<Finding>& findings) {
  std::set<std::string> known;
  for (const std::string& codec : analysis.codec_names()) {
    known.insert(codec);
    const auto sides = analysis.sides_of(codec);
    const std::string rendered = render_schema(codec, sides);
    const fs::path path = fs::path(schemas_dir) / (codec + ".schema");
    const CodecSide& anchor = *sides[0];
    const auto report = [&findings, &anchor](const std::string& message) {
      Finding f;
      f.rule = "schema-drift";
      f.file = anchor.file;
      f.line = static_cast<int>(anchor.line) + 1;
      f.message = message;
      f.snippet = anchor.function;
      findings.push_back(std::move(f));
    };
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      report("codec '" + codec + "' has no golden " +
             display_schema_path(root, path) +
             " — pin it with --write-schemas and commit the file");
      continue;
    }
    const std::string golden = read_text_file(path);
    if (golden == rendered) continue;
    const std::string golden_layout = golden_field(golden, "layout ");
    const std::string current_layout = "layout " + layout_hash(sides);
    const std::string golden_version = golden_field(golden, "version ");
    const std::string current_version = version_line(sides);
    if (golden_layout == current_layout) {
      report("codec '" + codec + "' golden is stale (naming/sides changed, "
             "wire layout unchanged) — regenerate with --write-schemas");
    } else if (golden_version == current_version) {
      report("codec '" + codec +
             "' WIRE LAYOUT CHANGED without a version bump (" +
             (current_version == "version none"
                  ? std::string("codec declares no version constant")
                  : current_version) +
             ") — bump the version constant, regenerate the golden with "
             "--write-schemas, and review the diff");
    } else {
      report("codec '" + codec + "' wire layout changed (version bumped: " +
             golden_version + " -> " + current_version +
             ") — regenerate the golden with --write-schemas and review "
             "the diff");
    }
  }

  if (!complete_model) return;
  std::error_code ec;
  if (!fs::is_directory(schemas_dir, ec)) return;
  std::vector<fs::path> orphans;
  for (const auto& entry : fs::directory_iterator(schemas_dir)) {
    if (!entry.is_regular_file() ||
        entry.path().extension() != ".schema") {
      continue;
    }
    if (known.count(entry.path().stem().string()) == 0) {
      orphans.push_back(entry.path());
    }
  }
  std::sort(orphans.begin(), orphans.end());
  for (const fs::path& p : orphans) {
    Finding f;
    f.rule = "schema-drift";
    f.file = display_schema_path(root, p);
    f.line = 1;
    f.message = "golden has no extracted codec named '" +
                p.stem().string() +
                "' — delete the file or restore the codec pragma";
    findings.push_back(std::move(f));
  }
}

namespace {

/// Start of the statement holding offset `pos`: just past the nearest
/// ';', '{' or '}' before it.
std::size_t statement_begin(const std::string& t, std::size_t begin,
                            std::size_t pos) {
  while (pos > begin && t[pos - 1] != ';' && t[pos - 1] != '{' &&
         t[pos - 1] != '}') {
    --pos;
  }
  return pos;
}

/// The identifier a read at `pos` is assigned to (`n = r.u32()`, with
/// any `const T` or member prefix), or "" when the read is not the
/// right-hand side of an assignment.
std::string assigned_name(const std::string& t, std::size_t stmt,
                          std::size_t pos) {
  std::size_t i = pos;
  while (i > stmt && (t[i - 1] == ' ' || t[i - 1] == '\n')) --i;
  // See through one `static_cast<T>(` wrapped around the read.
  if (i > stmt && t[i - 1] == '(' && i > stmt + 1 && t[i - 2] == '>') {
    const std::size_t cast = t.rfind("static_cast<", i - 2);
    if (cast != std::string::npos && cast >= stmt) {
      i = cast;
      while (i > stmt && (t[i - 1] == ' ' || t[i - 1] == '\n')) --i;
    }
  }
  if (i == stmt || t[i - 1] != '=') return "";
  --i;
  if (i > stmt && std::string("=!<>+-*/").find(t[i - 1]) !=
                      std::string::npos) {
    return "";  // a comparison or a compound operator
  }
  while (i > stmt && (t[i - 1] == ' ' || t[i - 1] == '\n')) --i;
  std::size_t e = i;
  while (i > stmt && is_ident_char(t[i - 1])) --i;
  return t.substr(i, e - i);
}

/// True when statement `s` declares a container sized by `name`:
/// `std::vector<T> v(n)`, `Bytes out(n)`.
bool sized_container(const std::string& s, const std::string& name) {
  for (const char* type : {"vector", "Bytes", "string", "deque"}) {
    const auto hits = find_word(s, type);
    if (hits.empty()) continue;
    const std::size_t eq = s.find('=');
    const std::size_t open = s.find('(', hits[0]);
    if (open == std::string::npos || (eq != std::string::npos && eq < open)) {
      continue;
    }
    const std::size_t close = match_delim(s, open, s.size(), '(', ')');
    if (!find_word(s.substr(open, close - open), name).empty()) return true;
  }
  return false;
}

/// The sink that statement `stmt` (or loop header) makes of `name`: a
/// loop bound, a container sizing call, or a sized container; "" when
/// it makes none.
std::string count_sink(const std::string& stmt, const std::string& name) {
  if (find_word(stmt, name).empty()) return "";
  const std::string s = normalize_ws(stmt);
  for (const char* loop : {"for", "while"}) {
    const auto hits = find_word(s, loop);
    if (hits.empty() || hits[0] != 0) continue;
    const std::size_t open = s.find('(');
    if (open == std::string::npos) continue;
    const std::string header =
        s.substr(open, match_delim(s, open, s.size(), '(', ')') - open);
    // A range-for walks a container, not a count.
    if (find_word(header, name).empty() ||
        (std::string(loop) == "for" && header.find(';') == std::string::npos)) {
      continue;
    }
    return std::string(loop) + " bound";
  }
  for (const char* call : {"reserve", "resize", "assign"}) {
    for (std::size_t at : find_word(s, call)) {
      const std::size_t open = at + std::string(call).size();
      if (at == 0 || s[at - 1] != '.' || open >= s.size() || s[open] != '(') {
        continue;
      }
      const std::size_t close = match_delim(s, open, s.size(), '(', ')');
      if (!find_word(s.substr(open, close - open), name).empty()) return call;
    }
  }
  return sized_container(s, name) ? "sized constructor" : "";
}

/// Every statement (or loop header) in [from, end), split at ';', '{'
/// and '}' outside parentheses.
std::vector<std::string> statements_after(const std::string& t,
                                          std::size_t from, std::size_t end) {
  std::vector<std::string> out;
  std::size_t i = from;
  while (i < end) {
    std::size_t e = i;
    int paren = 0;
    while (e < end) {
      const char c = t[e];
      if (c == '(') ++paren;
      if (c == ')') --paren;
      if (paren == 0 && (c == ';' || c == '{' || c == '}')) break;
      ++e;
    }
    if (!trim(t.substr(i, e - i)).empty()) out.push_back(t.substr(i, e - i));
    i = e + 1;
  }
  return out;
}

}  // namespace

void check_wire_counts(const SourceModel& model,
                       std::vector<Finding>& findings) {
  static const std::set<std::string> kIntReads = {"u8", "u16", "u32",
                                                  "u64"};
  for (const SourceFile& f : model.files()) {
    const std::string& t = f.joined;
    for (const FunctionDef& fn : f.functions) {
      static const std::string kReader = "ByteReader";
      std::set<std::string> readers;
      const auto add_readers = [&readers](const std::string& text,
                                          std::size_t b, std::size_t e) {
        for (std::size_t pos : find_word(text.substr(b, e - b), kReader)) {
          const std::string var =
              var_after_type(text, b + pos + kReader.size(), e);
          if (!var.empty()) readers.insert(var);
        }
      };
      add_readers(t, fn.body_begin, fn.body_end);
      add_readers(fn.head, 0, fn.head.size());
      if (readers.empty()) continue;

      for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
        if (t[i] != '.') continue;
        std::size_t vb = i;
        while (vb > fn.body_begin && is_ident_char(t[vb - 1])) --vb;
        if (vb == i || readers.count(t.substr(vb, i - vb)) == 0) continue;
        if (vb > fn.body_begin &&
            (is_ident_char(t[vb - 1]) || t[vb - 1] == '.')) {
          continue;
        }
        std::size_t ke = i + 1;
        while (ke < fn.body_end && is_ident_char(t[ke])) ++ke;
        const std::string kind = t.substr(i + 1, ke - i - 1);
        if (kIntReads.count(kind) == 0 || ke >= fn.body_end ||
            t[ke] != '(') {
          continue;
        }
        const std::size_t line = f.line_of(vb);
        if (f.pragmas.allowed(line, "wire-count")) continue;
        const std::size_t stmt = statement_begin(t, fn.body_begin, vb);
        const std::string name = assigned_name(t, stmt, vb);
        std::string sink;
        if (name.empty()) {
          // The read itself sits in the sink: `v.resize(r.u32())`, a
          // loop header, `std::vector<T> v(r.u32())`. Walk out to the
          // nearest unmatched '(' within the enclosing block.
          const std::string read = t.substr(vb, ke - vb);
          int depth = 0;
          for (std::size_t j = vb; j > fn.body_begin; --j) {
            const char c = t[j - 1];
            if (c == '{' || c == '}') break;
            if (c == ')') ++depth;
            if (c != '(' || depth-- > 0) continue;
            std::size_t kw = j - 1;
            while (kw > fn.body_begin && t[kw - 1] == ' ') --kw;
            std::size_t kb = kw;
            while (kb > fn.body_begin && is_ident_char(t[kb - 1])) --kb;
            const std::string word = t.substr(kb, kw - kb);
            const std::size_t from = word == "for" || word == "while"
                                         ? kb
                                         : statement_begin(t, fn.body_begin, kb);
            sink = count_sink(
                t.substr(from, match_delim(t, j - 1, fn.body_end, '(', ')') +
                                   1 - from),
                read);
            break;
          }
        } else {
          for (const std::string& text :
               statements_after(t, ke, fn.body_end)) {
            sink = count_sink(text, name);
            if (!sink.empty()) break;
          }
        }
        if (sink.empty()) continue;
        finding_at(findings, "wire-count", f, line,
                   "'" + t.substr(vb, ke - vb) + "()' from a ByteReader "
                   "reaches a " + sink + " — read counts with "
                   "ByteReader::count(min_encoded_size) so the bytes left "
                   "bound them");
      }
    }
  }
}

int write_schemas(const SchemaAnalysis& analysis,
                  const std::string& schemas_dir, bool force,
                  std::string& log) {
  std::error_code ec;
  fs::create_directories(schemas_dir, ec);
  int rc = 0;
  for (const std::string& codec : analysis.codec_names()) {
    const auto sides = analysis.sides_of(codec);
    const std::string rendered = render_schema(codec, sides);
    const fs::path path = fs::path(schemas_dir) / (codec + ".schema");
    if (fs::exists(path, ec)) {
      const std::string golden = read_text_file(path);
      if (golden == rendered) {
        log += "  up-to-date " + codec + "\n";
        continue;
      }
      const std::string golden_layout = golden_field(golden, "layout ");
      const std::string current_layout = "layout " + layout_hash(sides);
      const std::string golden_version = golden_field(golden, "version ");
      if (golden_layout != current_layout &&
          golden_version == version_line(sides) && !force) {
        log += "  REFUSED    " + codec +
               " — wire layout changed but the version constant did not; "
               "bump it first (or --force-schemas)\n";
        rc = 2;
        continue;
      }
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << rendered;
    log += "  wrote      " + codec + "\n";
  }
  return rc;
}

}  // namespace tlclint
