#include "lint/lint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace teeperf::lint {
namespace {

namespace fs = std::filesystem;

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool lintable(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough for shm_manifest.json.

struct JsonCursor {
  std::string_view src;
  usize i = 0;
  std::string error = {};

  void skip_ws() {
    while (i < src.size() && (src[i] == ' ' || src[i] == '\t' ||
                              src[i] == '\n' || src[i] == '\r')) {
      ++i;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (i < src.size() && src[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool expect(char c) {
    if (eat(c)) return true;
    if (error.empty()) {
      error = std::string("expected '") + c + "' at offset " + std::to_string(i);
    }
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return i < src.size() && src[i] == c;
  }
  bool parse_string(std::string* out) {
    if (!expect('"')) return false;
    out->clear();
    while (i < src.size() && src[i] != '"') {
      if (src[i] == '\\' && i + 1 < src.size()) {
        ++i;
        switch (src[i]) {
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          default: *out += src[i]; break;
        }
      } else {
        *out += src[i];
      }
      ++i;
    }
    return expect('"');
  }
  bool parse_u64(u64* out) {
    skip_ws();
    usize start = i;
    while (i < src.size() && src[i] >= '0' && src[i] <= '9') ++i;
    if (i == start) {
      if (error.empty()) error = "expected number at offset " + std::to_string(i);
      return false;
    }
    *out = std::strtoull(std::string(src.substr(start, i - start)).c_str(),
                         nullptr, 10);
    return true;
  }
  // Skips any value (for unknown keys — forward compatibility).
  bool skip_value() {
    skip_ws();
    if (i >= src.size()) return false;
    char c = src[i];
    if (c == '"') {
      std::string tmp;
      return parse_string(&tmp);
    }
    if (c == '{' || c == '[') {
      char close = c == '{' ? '}' : ']';
      int depth = 0;
      bool in_str = false;
      for (; i < src.size(); ++i) {
        char d = src[i];
        if (in_str) {
          if (d == '\\') ++i;
          else if (d == '"') in_str = false;
          continue;
        }
        if (d == '"') in_str = true;
        else if (d == c) ++depth;
        else if (d == close && --depth == 0) {
          ++i;
          return true;
        }
      }
      return false;
    }
    while (i < src.size() && src[i] != ',' && src[i] != '}' && src[i] != ']') {
      ++i;
    }
    return true;
  }
};

bool parse_manifest_field(JsonCursor& c, ManifestField* field) {
  if (!c.expect('{')) return false;
  if (c.eat('}')) return true;
  do {
    std::string key;
    if (!c.parse_string(&key) || !c.expect(':')) return false;
    if (key == "name") {
      if (!c.parse_string(&field->name)) return false;
    } else if (key == "offset") {
      if (!c.parse_u64(&field->offset)) return false;
    } else if (key == "size") {
      if (!c.parse_u64(&field->size)) return false;
    } else if (!c.skip_value()) {
      return false;
    }
  } while (c.eat(','));
  return c.expect('}');
}

bool parse_manifest_struct(JsonCursor& c, ManifestStruct* ms) {
  if (!c.expect('{')) return false;
  if (c.eat('}')) return true;
  do {
    std::string key;
    if (!c.parse_string(&key) || !c.expect(':')) return false;
    if (key == "name") {
      if (!c.parse_string(&ms->name)) return false;
    } else if (key == "file") {
      if (!c.parse_string(&ms->file)) return false;
    } else if (key == "size") {
      if (!c.parse_u64(&ms->size)) return false;
    } else if (key == "align") {
      if (!c.parse_u64(&ms->align)) return false;
    } else if (key == "fields") {
      if (!c.expect('[')) return false;
      if (!c.eat(']')) {
        do {
          ManifestField f;
          if (!parse_manifest_field(c, &f)) return false;
          ms->fields.push_back(std::move(f));
        } while (c.eat(','));
        if (!c.expect(']')) return false;
      }
    } else if (!c.skip_value()) {
      return false;
    }
  } while (c.eat(','));
  return c.expect('}');
}

}  // namespace

bool parse_manifest(std::string_view text, std::vector<ManifestStruct>* out,
                    std::string* error) {
  JsonCursor c{text};
  bool ok = [&] {
    if (!c.expect('{')) return false;
    if (c.eat('}')) return true;
    do {
      std::string key;
      if (!c.parse_string(&key) || !c.expect(':')) return false;
      if (key == "structs") {
        if (!c.expect('[')) return false;
        if (!c.eat(']')) {
          do {
            ManifestStruct ms;
            if (!parse_manifest_struct(c, &ms)) return false;
            out->push_back(std::move(ms));
          } while (c.eat(','));
          if (!c.expect(']')) return false;
        }
      } else if (!c.skip_value()) {
        return false;
      }
    } while (c.eat(','));
    return c.expect('}');
  }();
  if (!ok && error) {
    *error = c.error.empty() ? "malformed manifest JSON" : c.error;
  }
  return ok;
}

std::string render_manifest(const Corpus& corpus) {
  std::ostringstream out;
  out << "{\n  \"structs\": [";
  bool first = true;
  for (const FileIndex& fi : corpus.files) {
    bool shm = false;
    for (const std::string& suffix : corpus.shm_headers) {
      if (fi.path.size() >= suffix.size() &&
          fi.path.compare(fi.path.size() - suffix.size(), suffix.size(),
                          suffix) == 0) {
        shm = true;
      }
    }
    if (!shm) continue;
    for (const StructDef& sd : fi.structs) {
      if (fi.waived_in("r3", sd.line - 3, sd.line)) continue;  // view structs
      out << (first ? "\n" : ",\n");
      first = false;
      out << "    {\n      \"name\": \"" << sd.name << "\",\n"
          << "      \"file\": \"" << fi.path << "\",\n"
          << "      \"size\": " << sd.size << ",\n"
          << "      \"align\": " << sd.align << ",\n"
          << "      \"fields\": [";
      bool ffirst = true;
      for (const FieldDef& fd : sd.fields) {
        out << (ffirst ? "\n" : ",\n");
        ffirst = false;
        out << "        { \"name\": \"" << fd.name
            << "\", \"offset\": " << fd.offset << ", \"size\": " << fd.size
            << " }";
      }
      out << (ffirst ? "]\n" : "\n      ]\n") << "    }";
    }
  }
  out << (first ? "]\n" : "\n  ]\n") << "}\n";
  return out.str();
}

std::set<std::string> parse_fault_point_table(std::string_view markdown) {
  std::set<std::string> out;
  bool in_section = false;
  usize pos = 0;
  while (pos < markdown.size()) {
    usize eol = markdown.find('\n', pos);
    if (eol == std::string_view::npos) eol = markdown.size();
    std::string_view line = markdown.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line[0] == '#') {
      std::string lower(line);
      for (char& ch : lower) {
        if (ch >= 'A' && ch <= 'Z') ch = static_cast<char>(ch - 'A' + 'a');
      }
      in_section = lower.find("fault point") != std::string::npos;
      continue;
    }
    if (!in_section || line.empty() || line[0] != '|') continue;
    usize tick = line.find('`');
    if (tick == std::string_view::npos) continue;
    usize end = line.find('`', tick + 1);
    if (end == std::string_view::npos) continue;
    std::string name(line.substr(tick + 1, end - tick - 1));
    if (name.find('.') != std::string::npos) out.insert(name);
  }
  return out;
}

std::set<std::string> parse_baseline(std::string_view text) {
  std::set<std::string> out;
  usize pos = 0;
  while (pos < text.size()) {
    usize eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    if (line.empty() || line[0] == '#') continue;
    out.insert(std::string(line));
  }
  return out;
}

Corpus build_corpus(const LintOptions& options,
                    std::vector<std::string>* errors) {
  Corpus corpus;
  std::vector<std::string> files;
  for (const std::string& root : options.paths) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) && lintable(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
      if (ec) errors->push_back(root + ": " + ec.message());
    } else if (fs::exists(root, ec)) {
      files.push_back(root);
    } else {
      errors->push_back(root + ": not found");
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  for (const std::string& path : files) {
    std::string contents;
    if (!read_file(path, &contents)) {
      errors->push_back(path + ": unreadable");
      continue;
    }
    corpus.files.push_back(index_file(path, contents));
  }

  if (!options.manifest_path.empty()) {
    std::string text, error;
    if (!read_file(options.manifest_path, &text)) {
      errors->push_back(options.manifest_path + ": unreadable");
    } else if (!parse_manifest(text, &corpus.manifest, &error)) {
      errors->push_back(options.manifest_path + ": " + error);
    } else {
      corpus.have_manifest = true;
    }
  }
  if (!options.testing_md_path.empty()) {
    std::string text;
    if (!read_file(options.testing_md_path, &text)) {
      errors->push_back(options.testing_md_path + ": unreadable");
    } else {
      corpus.doc_fault_points = parse_fault_point_table(text);
      corpus.have_doc = true;
    }
  }
  return corpus;
}

LintResult run_lint(const LintOptions& options) {
  LintResult result;
  Corpus corpus = build_corpus(options, &result.errors);

  std::set<std::string> baseline;
  if (!options.baseline_path.empty()) {
    std::string text;
    if (read_file(options.baseline_path, &text)) {
      baseline = parse_baseline(text);
    } else {
      result.errors.push_back(options.baseline_path + ": unreadable");
    }
  }

  for (Finding& f : run_rules(corpus)) {
    if (baseline.count(f.key())) {
      result.baselined.push_back(std::move(f));
    } else {
      result.findings.push_back(std::move(f));
    }
  }
  return result;
}

int lint_main(int argc, char** argv) {
  LintOptions options;
  bool print_keys = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--check") {
      // The default behaviour; accepted for CI-invocation clarity.
    } else if (arg == "--manifest") {
      if (const char* v = next()) options.manifest_path = v;
    } else if (arg == "--testing") {
      if (const char* v = next()) options.testing_md_path = v;
    } else if (arg == "--baseline") {
      if (const char* v = next()) options.baseline_path = v;
    } else if (arg == "--dump-manifest") {
      options.dump_manifest = true;
    } else if (arg == "--keys") {
      print_keys = true;  // emit baseline-file keys instead of diagnostics
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: teeperf_lint [--check] [--manifest FILE] [--testing FILE]\n"
          "                    [--baseline FILE] [--dump-manifest] [--keys]\n"
          "                    PATH...\n"
          "Rules: r1 probe purity, r2 explicit memory order, r3 shm layout\n"
          "manifest, r4 name-registry consistency, r5 fold hot-loop purity.\n"
          "Exits 1 on findings not\n"
          "covered by the baseline, 2 on input errors.\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "teeperf_lint: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      options.paths.push_back(arg);
    }
  }
  if (options.paths.empty()) {
    std::fprintf(stderr, "teeperf_lint: no paths given (try --help)\n");
    return 2;
  }

  if (options.dump_manifest) {
    std::vector<std::string> errors;
    Corpus corpus = build_corpus(options, &errors);
    for (const std::string& e : errors) {
      std::fprintf(stderr, "teeperf_lint: %s\n", e.c_str());
    }
    if (!errors.empty()) return 2;
    std::fputs(render_manifest(corpus).c_str(), stdout);
    return 0;
  }

  LintResult result = run_lint(options);
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "teeperf_lint: %s\n", e.c_str());
  }
  for (const Finding& f : result.findings) {
    if (print_keys) {
      std::printf("%s\n", f.key().c_str());
    } else {
      std::printf("%s:%d: %s: %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
    }
  }
  if (!result.baselined.empty()) {
    std::fprintf(stderr, "teeperf_lint: %zu finding(s) covered by baseline\n",
                 result.baselined.size());
  }
  if (!result.errors.empty()) return 2;
  return result.findings.empty() ? 0 : 1;
}

}  // namespace teeperf::lint
