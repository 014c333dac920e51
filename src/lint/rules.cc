#include "lint/rules.h"

#include <algorithm>
#include <map>

namespace teeperf::lint {
namespace {

bool path_ends_with(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool path_contains(const std::string& path, const char* needle) {
  return path.find(needle) != std::string::npos;
}

void add(std::vector<Finding>* out, std::string rule, const std::string& file,
         int line, std::string message) {
  out->push_back(Finding{std::move(rule), file, line, std::move(message)});
}

// ---------------------------------------------------------------------------
// r1: probe-path purity.

// Directories whose functions participate in the probe call graph. Narrow on
// purpose: resolving by last name across the whole tree would alias probe
// calls onto unrelated subsystems (WalWriter::flush, ...).
bool in_probe_scope(const std::string& path) {
  return path_contains(path, "/core/") || path_contains(path, "/common/") ||
         path_contains(path, "/obs/") || path_contains(path, "/faultsim/");
}

// Function names whose call makes the probe path impure. Allocation, locks,
// formatted I/O and syscalls; memcpy/memset stay allowed (plain stores).
const std::set<std::string>& banned_calls() {
  static const std::set<std::string> kBanned = {
      "malloc",    "calloc",       "realloc",   "free",     "posix_memalign",
      "aligned_alloc",             "strdup",
      "lock",      "unlock",       "try_lock",
      "sleep",     "usleep",       "nanosleep", "sched_yield",
      "clock_gettime",             "gettimeofday",          "time",
      "syscall",   "read",         "write",     "open",     "openat",
      "close",     "mmap",         "munmap",    "msync",    "fsync",
      "ftruncate", "raise",        "kill",      "abort",    "exit",
      "printf",    "fprintf",      "snprintf",  "sprintf",  "vsnprintf",
      "fwrite",    "fflush",       "str_format",
  };
  return kBanned;
}

// std:: types whose mere construction allocates or blocks.
const std::set<std::string>& banned_std_types() {
  static const std::set<std::string> kBanned = {
      "string",        "vector",      "map",    "unordered_map", "set",
      "unordered_set", "deque",       "list",   "function",      "mutex",
      "shared_mutex",  "lock_guard",  "unique_lock", "scoped_lock",
      "condition_variable",           "thread",      "ostringstream",
      "stringstream",
  };
  return kBanned;
}

struct FnRef {
  const FileIndex* file;
  const FunctionDef* fn;
};

// A definition-site waiver covers the whole function: the comment sits on
// the signature line or within the three lines above it (doc block).
bool function_waived(const FileIndex& fi, const FunctionDef& fn,
                     const std::string& rule) {
  return fi.waived_in(rule, fn.line - 3, fn.line);
}

bool is_ident(const std::vector<Token>& toks, usize i, const char* text) {
  return i < toks.size() && toks[i].kind == Tok::kIdent && toks[i].text == text;
}
bool is_punct(const std::vector<Token>& toks, usize i, const char* text) {
  return i < toks.size() && toks[i].kind == Tok::kPunct && toks[i].text == text;
}

// Visits every function reachable from the roots (is_root) through the
// functions of the files in scope (in_scope), breadth first, as
// visit(ref, chain) with chain the "root -> ... -> fn" path that reached
// it. The graph is over-approximated: a call resolves to every in-scope
// definition with that last name, narrowed by a spelled qualifier when one
// matches the owning class. A function waived for `rule` is trusted
// wholesale: it is not visited and its callees are not pulled in.
template <typename InScope, typename IsRoot, typename Visit>
void walk_call_graph(const Corpus& corpus, InScope in_scope, IsRoot is_root,
                     const std::string& rule, Visit visit) {
  std::map<std::string, std::vector<FnRef>> by_name;
  std::vector<FnRef> queue;
  for (const FileIndex& fi : corpus.files) {
    if (!in_scope(fi.path)) continue;
    for (const FunctionDef& fn : fi.functions) {
      by_name[fn.last_name()].push_back(FnRef{&fi, &fn});
      if (is_root(fn)) queue.push_back(FnRef{&fi, &fn});
    }
  }

  std::set<const FunctionDef*> visited;
  std::map<const FunctionDef*, const FunctionDef*> parent;
  auto chain = [&](const FunctionDef* fn) {
    std::string c = fn->last_name();
    for (const FunctionDef* p = fn; parent.count(p);) {
      p = parent.at(p);
      c = p->last_name() + " -> " + c;
    }
    return c;
  };
  // Member calls spelled with ubiquitous STL method names are not
  // resolved to project functions — `entries.size()` aliasing onto, say,
  // SymbolRegistry::size would drag unrelated subsystems into the graph.
  static const std::set<std::string> kStlMethodNames = {
      "size",  "empty", "begin", "end",       "data",     "front",   "back",
      "c_str", "find",  "count", "push_back", "reserve", "resize",
  };
  for (usize qi = 0; qi < queue.size(); ++qi) {
    FnRef ref = queue[qi];
    if (!visited.insert(ref.fn).second) continue;
    if (function_waived(*ref.file, *ref.fn, rule)) continue;
    visit(ref, chain(ref.fn));
    for (const CallSite& cs : ref.fn->calls) {
      if (cs.is_member && kStlMethodNames.count(cs.name)) continue;
      auto it = by_name.find(cs.name);
      if (it == by_name.end()) continue;
      // A spelled qualifier (Registry::instance, obj.flush) narrows the
      // candidate set when any definition matches it as the owning class;
      // with no match the full set stays (the qualifier may be an object
      // name unrelated to any class).
      std::vector<FnRef> candidates;
      if (!cs.qualifier.empty()) {
        for (const FnRef& cand : it->second) {
          std::string q = cand.fn->qualified();
          usize tail = q.rfind("::" + cs.name);
          if (tail == std::string::npos) continue;
          std::string owner = q.substr(0, tail);
          usize dot = owner.rfind("::");
          if (dot != std::string::npos) owner = owner.substr(dot + 2);
          if (owner == cs.qualifier) candidates.push_back(cand);
        }
      }
      if (candidates.empty()) candidates = it->second;
      for (const FnRef& callee : candidates) {
        if (callee.fn == ref.fn || visited.count(callee.fn)) continue;
        if (!parent.count(callee.fn)) parent[callee.fn] = ref.fn;
        queue.push_back(callee);
      }
    }
  }
}

// `std::<name>` at token i.
bool is_std_name(const std::vector<Token>& toks, usize i) {
  return toks[i].kind == Tok::kIdent && i >= 2 && is_punct(toks, i - 1, "::") &&
         is_ident(toks, i - 2, "std");
}

void check_r1(const Corpus& corpus, std::vector<Finding>* out) {
  auto is_root = [](const FunctionDef& fn) {
    return fn.last_name() == "on_enter" || fn.last_name() == "on_exit" ||
           (fn.last_name() == "flush" &&
            (fn.name.find("LogBatch") != std::string::npos ||
             fn.scope.find("LogBatch") != std::string::npos));
  };
  walk_call_graph(corpus, in_probe_scope, is_root, "r1", [&](FnRef ref, const std::string& chain) {
    const FileIndex& fi = *ref.file;
    auto report = [&](int line, const std::string& what) {
      if (!fi.waived_at("r1", line)) {
        add(out, "r1", fi.path, line, what + " on probe path (" + chain + ")");
      }
    };
    // Banned calls.
    for (const CallSite& cs : ref.fn->calls) {
      if (banned_calls().count(cs.name)) report(cs.line, "call to '" + cs.name + "'");
    }
    // Operator new/delete and allocating std:: types.
    const std::vector<Token>& toks = fi.tokens;
    for (usize i = ref.fn->body_begin; i < ref.fn->body_end && i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Tok::kIdent) continue;
      if (t.text == "new" || t.text == "delete") {
        report(t.line, "operator " + t.text);
      } else if (banned_std_types().count(t.text) && is_std_name(toks, i)) {
        report(t.line, "std::" + t.text + " constructed");
      }
    }
  });
}

// ---------------------------------------------------------------------------
// r5: fold hot-loop purity.

// Directories whose functions participate in the fold's call graph: the
// reconstruction engine and its sinks live in the analyzer.
bool in_fold_scope(const std::string& path) {
  return path_contains(path, "/analyzer/");
}

// Calls that allocate outright; amortized container growth (push_back,
// assign) is the sinks' business and is not flagged.
const std::set<std::string>& allocating_calls() {
  static const std::set<std::string> kAlloc = {
      "malloc",        "calloc",        "realloc",     "free",
      "posix_memalign", "aligned_alloc", "strdup",     "make_unique",
      "make_shared",
  };
  return kAlloc;
}

const std::set<std::string>& allocating_std_types() {
  static const std::set<std::string> kAlloc = {
      "string", "vector", "map",  "unordered_map", "set", "unordered_set",
      "deque",  "list",   "ostringstream",         "stringstream",
  };
  return kAlloc;
}

// Names of the functions a fold-scope file declares `virtual` or marks
// `override`/`final`: a call by one of those names may go through a vtable.
std::set<std::string> virtual_names(const Corpus& corpus) {
  std::set<std::string> out;
  for (const FileIndex& fi : corpus.files) {
    if (!in_fold_scope(fi.path)) continue;
    const std::vector<Token>& toks = fi.tokens;
    for (usize i = 0; i < toks.size(); ++i) {
      if (is_ident(toks, i, "virtual")) {
        // The first name followed by its parameter list.
        for (usize j = i + 1; j + 1 < toks.size() && !is_punct(toks, j, ";"); ++j) {
          if (toks[j].kind == Tok::kIdent && is_punct(toks, j + 1, "(")) {
            out.insert(toks[j].text);
            break;
          }
        }
      } else if (is_ident(toks, i, "override") || is_ident(toks, i, "final")) {
        // Back over the qualifiers to the parameter list's ')', then to its
        // '(' and the name in front of it. `class X final` has no ')'.
        usize j = i;
        while (j > 0 && toks[j - 1].kind == Tok::kIdent) --j;
        if (j == 0 || !is_punct(toks, j - 1, ")")) continue;
        int depth = 0;
        for (usize k = j - 1; k > 0; --k) {
          if (is_punct(toks, k, ")")) ++depth;
          if (is_punct(toks, k, "(") && --depth == 0) {
            if (toks[k - 1].kind == Tok::kIdent) out.insert(toks[k - 1].text);
            break;
          }
        }
      }
    }
  }
  return out;
}

// Everything reachable from ShardFold::feed runs once per log entry: no
// indirect call (virtual dispatch, function or member pointers,
// std::function) and no allocation may sit on it.
void check_r5(const Corpus& corpus, std::vector<Finding>* out) {
  const std::set<std::string> virtuals = virtual_names(corpus);
  auto is_root = [](const FunctionDef& fn) {
    return fn.last_name() == "feed" && fn.qualified().find("ShardFold") != std::string::npos;
  };
  walk_call_graph(corpus, in_fold_scope, is_root, "r5", [&](FnRef ref, const std::string& chain) {
    const FileIndex& fi = *ref.file;
    auto report = [&](int line, const std::string& what) {
      if (!fi.waived_at("r5", line)) {
        add(out, "r5", fi.path, line, what + " in the fold's per-entry loop (" + chain + ")");
      }
    };
    for (const CallSite& cs : ref.fn->calls) {
      if (allocating_calls().count(cs.name)) {
        report(cs.line, "allocating call '" + cs.name + "'");
      } else if (cs.is_member && virtuals.count(cs.name)) {
        report(cs.line, "virtual call '" + cs.name + "'");
      }
    }
    const std::vector<Token>& toks = fi.tokens;
    for (usize i = ref.fn->body_begin; i < ref.fn->body_end && i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (is_punct(toks, i, "->*") || (is_punct(toks, i, ".") && is_punct(toks, i + 1, "*"))) {
        report(t.line, "call through a member pointer");
      } else if (is_punct(toks, i, "(") && is_punct(toks, i + 1, "*") &&
                 i + 2 < toks.size() && toks[i + 2].kind == Tok::kIdent &&
                 is_punct(toks, i + 3, ")") && is_punct(toks, i + 4, "(")) {
        report(t.line, "call through a function pointer");
      } else if (is_ident(toks, i, "new") || is_ident(toks, i, "delete")) {
        report(t.line, "operator " + t.text);
      } else if (is_std_name(toks, i) && t.text == "function") {
        report(t.line, "std::function call");
      } else if (is_std_name(toks, i) && allocating_std_types().count(t.text)) {
        report(t.line, "std::" + t.text + " constructed");
      }
    }
  });
}

// ---------------------------------------------------------------------------
// r2: explicit memory order.

const std::set<std::string>& atomic_ops() {
  static const std::set<std::string> kOps = {
      "load",        "store",        "exchange",
      "fetch_add",   "fetch_sub",    "fetch_and",
      "fetch_or",    "fetch_xor",    "test_and_set",
      "compare_exchange_weak",       "compare_exchange_strong",
  };
  return kOps;
}

int order_rank(const std::string& name) {
  if (name == "memory_order_relaxed") return 0;
  if (name == "memory_order_consume") return 1;
  if (name == "memory_order_acquire") return 2;
  if (name == "memory_order_release") return 2;
  if (name == "memory_order_acq_rel") return 3;
  if (name == "memory_order_seq_cst") return 4;
  return -1;
}

void check_r2(const Corpus& corpus, std::vector<Finding>* out) {
  for (const FileIndex& fi : corpus.files) {
    const std::vector<Token>& toks = fi.tokens;
    for (usize i = 2; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Tok::kIdent || !atomic_ops().count(t.text)) continue;
      // Must look like a member call: `.op(` or `->op(`.
      const Token& prev = toks[i - 1];
      if (prev.kind != Tok::kPunct || (prev.text != "." && prev.text != "->"))
        continue;
      usize open = i + 1;
      while (open < toks.size() && (toks[open].kind == Tok::kComment ||
                                    toks[open].kind == Tok::kPreproc)) {
        ++open;
      }
      if (open >= toks.size() || toks[open].kind != Tok::kPunct ||
          toks[open].text != "(") {
        continue;
      }
      if (fi.waived_at("r2", t.line)) continue;
      // Collect memory_order_* identifiers in the argument list.
      std::vector<std::string> orders;
      int depth = 0;
      usize j = open;
      for (; j < toks.size(); ++j) {
        if (toks[j].kind == Tok::kPunct) {
          if (toks[j].text == "(") ++depth;
          else if (toks[j].text == ")" && --depth == 0) break;
        } else if (toks[j].kind == Tok::kIdent &&
                   toks[j].text.rfind("memory_order_", 0) == 0) {
          orders.push_back(toks[j].text);
        }
      }
      bool is_cas = t.text.rfind("compare_exchange", 0) == 0;
      if (orders.empty()) {
        add(out, "r2", fi.path, t.line,
            "atomic " + t.text + "() without an explicit std::memory_order");
        continue;
      }
      if (is_cas) {
        if (orders.size() < 2) {
          add(out, "r2", fi.path, t.line,
              t.text + "() must spell both success and failure orders");
          continue;
        }
        int success = order_rank(orders[orders.size() - 2]);
        int failure = order_rank(orders[orders.size() - 1]);
        const std::string& fname = orders.back();
        if (fname == "memory_order_release" ||
            fname == "memory_order_acq_rel") {
          add(out, "r2", fi.path, t.line,
              t.text + "() failure order may not be " + fname);
        } else if (failure > success) {
          add(out, "r2", fi.path, t.line,
              t.text + "() failure order " + fname +
                  " is stronger than the success order " +
                  orders[orders.size() - 2]);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// r3: shm layout manifest.

bool is_shm_header(const Corpus& corpus, const std::string& path) {
  for (const std::string& suffix : corpus.shm_headers) {
    if (path_ends_with(path, suffix)) return true;
  }
  return false;
}

void check_r3(const Corpus& corpus, std::vector<Finding>* out) {
  std::map<std::string, std::pair<const FileIndex*, const StructDef*>> shm;
  bool saw_shm_header = false;
  for (const FileIndex& fi : corpus.files) {
    if (!is_shm_header(corpus, fi.path)) continue;
    saw_shm_header = true;
    for (const StructDef& sd : fi.structs) {
      // A waiver on or just above the struct marks it non-shm (a view type).
      if (fi.waived_in("r3", sd.line - 3, sd.line)) continue;
      shm[sd.name] = {&fi, &sd};
      for (const std::string& member : sd.non_trivial_members) {
        add(out, "r3", fi.path, sd.line,
            "shm struct " + sd.name + " has non-trivially-copyable member '" +
                member + "'");
      }
      if (sd.has_pointer_member) {
        add(out, "r3", fi.path, sd.line,
            "shm struct " + sd.name +
                " has a pointer member (meaningless across processes)");
      }
      if (!sd.layout_computed) {
        add(out, "r3", fi.path, sd.line,
            "layout of shm struct " + sd.name +
                " could not be computed (unknown member type)");
      }
    }
  }
  // The manifest comparison needs the headers in the corpus; a scan of an
  // unrelated subtree (tools only, a fixture dir) must not report every
  // manifest struct as missing.
  if (!corpus.have_manifest || !saw_shm_header) return;

  std::set<std::string> in_manifest;
  for (const ManifestStruct& ms : corpus.manifest) {
    in_manifest.insert(ms.name);
    auto it = shm.find(ms.name);
    if (it == shm.end()) {
      add(out, "r3", ms.file, 0,
          "manifest struct " + ms.name +
              " not found in any shm layout header");
      continue;
    }
    const FileIndex& fi = *it->second.first;
    const StructDef& sd = *it->second.second;
    if (!sd.layout_computed) continue;  // already reported above
    if (sd.size != ms.size || sd.align != ms.align) {
      add(out, "r3", fi.path, sd.line,
          sd.name + ": size/align " + std::to_string(sd.size) + "/" +
              std::to_string(sd.align) + " != manifest " +
              std::to_string(ms.size) + "/" + std::to_string(ms.align));
    }
    std::map<std::string, const ManifestField*> mfields;
    for (const ManifestField& mf : ms.fields) mfields[mf.name] = &mf;
    for (const FieldDef& fd : sd.fields) {
      auto mit = mfields.find(fd.name);
      if (mit == mfields.end()) {
        add(out, "r3", fi.path, fd.line,
            sd.name + "." + fd.name +
                " is not in the manifest (regenerate tools/shm_manifest.json)");
        continue;
      }
      if (fd.offset != mit->second->offset || fd.size != mit->second->size) {
        add(out, "r3", fi.path, fd.line,
            sd.name + "." + fd.name + ": offset/size " +
                std::to_string(fd.offset) + "/" + std::to_string(fd.size) +
                " != manifest " + std::to_string(mit->second->offset) + "/" +
                std::to_string(mit->second->size));
      }
      mfields.erase(mit);
    }
    for (const auto& [name, mf] : mfields) {
      add(out, "r3", fi.path, sd.line,
          sd.name + "." + name + " is in the manifest but not in the struct");
    }
  }
  for (const auto& [name, ref] : shm) {
    if (!in_manifest.count(name)) {
      add(out, "r3", ref.first->path, ref.second->line,
          "shm struct " + name + " missing from tools/shm_manifest.json");
    }
  }
}

// ---------------------------------------------------------------------------
// r4: name-registry consistency.

bool is_name_header(const Corpus& corpus, const std::string& path) {
  for (const std::string& suffix : corpus.name_headers) {
    if (path_ends_with(path, suffix)) return true;
  }
  return false;
}

// `constexpr const char* kFoo = "...";` constants declared in `fi`.
std::map<std::string, std::string> string_constants(const FileIndex& fi) {
  std::map<std::string, std::string> out;
  const std::vector<Token>& toks = fi.tokens;
  for (usize i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || toks[i].text.size() < 2 ||
        toks[i].text[0] != 'k') {
      continue;
    }
    usize j = i + 1;  // `kName = "..."` or the array form `kName[] = "..."`
    if (j + 1 < toks.size() && toks[j].kind == Tok::kPunct &&
        toks[j].text == "[" && toks[j + 1].kind == Tok::kPunct &&
        toks[j + 1].text == "]") {
      j += 2;
    }
    if (j + 2 < toks.size() && toks[j].kind == Tok::kPunct &&
        toks[j].text == "=" && toks[j + 1].kind == Tok::kString &&
        toks[j + 2].kind == Tok::kPunct && toks[j + 2].text == ";") {
      out[toks[i].text] = toks[j + 1].text;
    }
  }
  return out;
}

// Call names whose first argument must be a manifest constant, not a
// literal.
const std::set<std::string>& registered_name_calls() {
  static const std::set<std::string> kCalls = {
      "fires",     "value_below",      "counter",
      "gauge",     "histogram",        "apply_byte_faults",
      "family",    "family_histogram", "apply_byte_faults_to_file",
  };
  return kCalls;
}

void check_r4(const Corpus& corpus, std::vector<Finding>* out) {
  const FileIndex* fault_header = nullptr;
  const FileIndex* metric_header = nullptr;
  for (const FileIndex& fi : corpus.files) {
    if (path_ends_with(fi.path, "faultsim/fault_points.h")) fault_header = &fi;
    if (path_ends_with(fi.path, "obs/metric_names.h")) metric_header = &fi;
  }

  // 1) Raw name literals outside the manifest headers.
  for (const FileIndex& fi : corpus.files) {
    if (is_name_header(corpus, fi.path)) continue;
    const std::vector<Token>& toks = fi.tokens;
    for (usize i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].kind != Tok::kIdent ||
          !registered_name_calls().count(toks[i].text)) {
        continue;
      }
      if (toks[i + 1].kind != Tok::kPunct || toks[i + 1].text != "(") continue;
      usize arg = i + 2;
      while (arg < toks.size() && (toks[arg].kind == Tok::kComment ||
                                   toks[arg].kind == Tok::kPreproc)) {
        ++arg;
      }
      if (arg >= toks.size() || toks[arg].kind != Tok::kString) continue;
      if (fi.waived_at("r4", toks[i].line)) continue;
      add(out, "r4", fi.path, toks[i].line,
          toks[i].text + "(\"" + toks[arg].text +
              "\") spells a raw name; use the manifest constant");
    }
  }

  // 2) Every name constant must be referenced outside its defining header.
  auto check_referenced = [&](const FileIndex* header) {
    if (!header) return;
    for (const auto& [cname, value] : string_constants(*header)) {
      // Points reached only through a runtime-composed name (kDumpPrefix +
      // ".torn") are anchored by the TESTING.md table instead of a direct
      // code reference.
      if (corpus.have_doc && corpus.doc_fault_points.count(value)) continue;
      bool used = false;
      for (const FileIndex& fi : corpus.files) {
        if (&fi == header) continue;
        for (const Token& t : fi.tokens) {
          if (t.kind == Tok::kIdent && t.text == cname) {
            used = true;
            break;
          }
        }
        if (used) break;
      }
      if (!used) {
        add(out, "r4", header->path, 0,
            "name constant " + cname + " (\"" + value +
                "\") is referenced nowhere outside its manifest header");
      }
    }
  };
  check_referenced(fault_header);
  check_referenced(metric_header);

  // 3) Fault points <-> TESTING.md table, both directions.
  if (fault_header && corpus.have_doc) {
    std::set<std::string> declared;
    for (const auto& [cname, value] : string_constants(*fault_header)) {
      // Point names contain a '.'; bare prefixes (kDumpPrefix = "dump") are
      // building blocks, not points.
      if (value.find('.') != std::string::npos) declared.insert(value);
    }
    for (const std::string& name : declared) {
      if (!corpus.doc_fault_points.count(name)) {
        add(out, "r4", fault_header->path, 0,
            "fault point '" + name +
                "' is not documented in the TESTING.md fault-point table");
      }
    }
    for (const std::string& name : corpus.doc_fault_points) {
      if (!declared.count(name)) {
        add(out, "r4", fault_header->path, 0,
            "TESTING.md documents fault point '" + name +
                "' which fault_points.h does not declare");
      }
    }
  }
}

}  // namespace

std::vector<Finding> run_rules(const Corpus& corpus) {
  std::vector<Finding> out;
  check_r1(corpus, &out);
  check_r2(corpus, &out);
  check_r3(corpus, &out);
  check_r4(corpus, &out);
  check_r5(corpus, &out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return out;
}

}  // namespace teeperf::lint
