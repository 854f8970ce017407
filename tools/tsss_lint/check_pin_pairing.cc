// Check 5 — pin pairing (flow-sensitive). The buffer pool's page pins are
// the project's most delicate resource: a pin leaked on one early-return
// path wedges eviction forever, and a page reference that outlives its
// guard dangles. RAII (`PageGuard`) is the sanctioned style; this check
// polices the manual escape hatches by enumerating execution paths
// through the statement tree and requiring every acquisition to reach a
// release on all of them.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "tsss_lint/checks.h"
#include "tsss_lint/parser.h"

namespace tsss_lint {

namespace {

/// Manual acquisition → required release. RAII-returning calls (Fetch/New
/// return Result<PageGuard>) are deliberately absent: a guard releases
/// itself on every path by construction.
struct PairRule {
  const char* acquire;
  const char* release;
};
constexpr PairRule kPairs[] = {
    {"Pin", "Unpin"},
    {"AcquirePage", "ReleasePage"},
};

/// Layers whose files participate (the ones that touch the buffer pool).
bool InScope(const std::string& path) {
  return path.rfind("src/tsss/storage/", 0) == 0 ||
         path.rfind("src/tsss/index/", 0) == 0 ||
         path.rfind("src/tsss/core/", 0) == 0 ||
         path.rfind("src/tsss/shard/", 0) == 0;
}

/// RAII wrapper types: a declaration whose type mentions one of these
/// owns its resource and needs no manual release.
bool IsRaiiTypeName(const std::string& name) {
  static const std::set<std::string> kRaii = {
      "PageGuard", "Result",     "MutexLock",  "unique_ptr",
      "shared_ptr", "optional",  "ScopedExecControl",
  };
  return kRaii.count(name) != 0;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// One acquisition discovered inside a leaf statement.
struct Acquisition {
  const Stmt* leaf = nullptr;
  int line = 0;
  std::string var;      ///< bound variable; empty = bare statement call
  std::string release;  ///< required release function name
  bool raii = false;    ///< bound into an RAII wrapper type
};

/// Scans one leaf statement for `X.Pin(...)`-style acquisitions and
/// classifies how the result is captured.
void FindAcquisitions(const std::vector<Token>& toks, const Stmt& leaf,
                      std::vector<Acquisition>* out) {
  std::size_t begin = 0;
  std::size_t end = 0;
  LeafTokenRange(leaf, &begin, &end);
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const PairRule* rule = nullptr;
    for (const PairRule& p : kPairs) {
      if (toks[i].text == p.acquire) rule = &p;
    }
    if (rule == nullptr) continue;
    if (i + 1 >= end || !IsPunct(toks[i + 1], "(")) continue;
    // Skip definitions/declarations of the acquire function itself: the
    // name preceded by a type identifier (`Frame* Pin(...)`) outside a
    // member-access chain is a declarator, not a call — detect by the
    // statement ending in `{` is impossible here (leaves are `;`-bound),
    // so require the call to be reached via `.`/`->`/`=`/statement start.
    Acquisition acq;
    acq.leaf = &leaf;
    acq.line = toks[i].line;
    acq.release = rule->release;

    // Walk left over the receiver chain to the statement position where
    // a binding would sit: `frame = pool->Pin(id)` / `auto* f = x.Pin()`.
    std::size_t pos = i;
    while (pos > begin && (IsPunct(toks[pos - 1], ".") ||
                           IsPunct(toks[pos - 1], "->") ||
                           IsPunct(toks[pos - 1], "::"))) {
      if (pos >= 2 && toks[pos - 2].kind == TokKind::kIdent) {
        pos -= 2;
      } else {
        break;
      }
    }
    if (pos > begin && IsPunct(toks[pos - 1], "=")) {
      // Find the bound variable: identifier left of `=`.
      std::size_t v = pos - 1;
      if (v > begin && toks[v - 1].kind == TokKind::kIdent) {
        acq.var = toks[v - 1].text;
        // Type tokens left of the variable: RAII wrapper?
        for (std::size_t t = begin; t + 1 < v; ++t) {
          if (toks[t].kind == TokKind::kIdent && IsRaiiTypeName(toks[t].text)) {
            acq.raii = true;
          }
        }
      }
    }
    out->push_back(std::move(acq));
  }
}

/// Does the leaf release `var` via `release` (e.g. `pool->Unpin(f);` or
/// `f->Release()`)? Accepts any call to the release name whose argument
/// list or receiver chain mentions the variable.
bool LeafReleases(const std::vector<Token>& toks, const Stmt& leaf,
                  const std::string& release, const std::string& var) {
  std::size_t begin = 0;
  std::size_t end = 0;
  LeafTokenRange(leaf, &begin, &end);
  bool saw_release = false;
  bool saw_var = false;
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    if (toks[i].text == release) saw_release = true;
    if (toks[i].text == var) saw_var = true;
  }
  return saw_release && (var.empty() || saw_var);
}

/// Declaration `T name =` whose type borrows page bytes: a `Page&` or
/// `Page*`, or a NodeView (bare or as Result<NodeView>), which points into
/// the page whatever its declarator. Returns the index of the name token,
/// or 0 when the tokens at `i` start no such declaration.
std::size_t BorrowingDeclName(const std::vector<Token>& toks, std::size_t i) {
  const std::size_t n = toks.size();
  if (toks[i].kind != TokKind::kIdent) return 0;
  std::size_t j = i + 1;
  const bool by_ref =
      j < n && (IsPunct(toks[j], "&") || IsPunct(toks[j], "*"));
  if (toks[i].text == "Page") {
    if (!by_ref) return 0;  // a Page value is a copy, not a borrow
    ++j;
  } else if (toks[i].text == "NodeView") {
    if (j < n && IsPunct(toks[j], ">")) ++j;  // Result<NodeView>
    if (j < n && (IsPunct(toks[j], "&") || IsPunct(toks[j], "*"))) ++j;
  } else {
    return 0;
  }
  if (j + 1 >= n || toks[j].kind != TokKind::kIdent ||
      !IsPunct(toks[j + 1], "=")) {
    return 0;
  }
  return j;
}

/// Page reference or NodeView whose initializer pins the page inline: the
/// guard temporary dies at the semicolon, and the borrow dangles.
void FindDanglingPageRefs(const SourceFile& file,
                          const std::vector<Token>& toks,
                          const std::set<int>& waived,
                          std::vector<Finding>* findings) {
  static const std::set<std::string> kInlineAcquire = {"Fetch", "New"};
  const std::size_t n = toks.size();
  for (std::size_t i = 0; i + 3 < n; ++i) {
    // Pattern: `Page & name =` / `NodeView name =` ... `Fetch ( ... ) .
    // value ( ) . page ( )` within the same statement.
    const std::size_t name = BorrowingDeclName(toks, i);
    if (name == 0) continue;
    bool pins_inline = false;
    for (std::size_t j = name + 2; j < n && !IsPunct(toks[j], ";"); ++j) {
      if (toks[j].kind == TokKind::kIdent &&
          kInlineAcquire.count(toks[j].text) != 0 && j + 1 < n &&
          IsPunct(toks[j + 1], "(")) {
        pins_inline = true;
      }
    }
    if (pins_inline && !HasWaiver(waived, toks[i].line)) {
      const char* what = toks[i].text == "Page" ? "page reference '"
                                                : "node view '";
      findings->push_back(
          Finding{Check::kPinPairing, file.path, toks[i].line,
                  what + toks[name].text +
                      "' outlives its pin: the guard temporary dies at the "
                      "semicolon; bind the PageGuard to a named variable"});
    }
  }
}

}  // namespace

std::vector<Finding> CheckPinPairing(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  constexpr std::size_t kPathCap = 512;

  for (const SourceFile& file : files) {
    if (!InScope(file.path)) continue;
    const std::set<int> waived = WaiverLines(file, "pin-ok");

    std::vector<Token> code;
    code.reserve(file.tokens.size());
    for (const Token& t : file.tokens) {
      if (!IsComment(t)) code.push_back(t);
    }

    FindDanglingPageRefs(file, code, waived, &findings);

    const std::vector<FunctionDef> functions = ParseFunctions(code);
    for (const FunctionDef& fn : functions) {
      // Cheap pre-scan: does the body mention any acquire name at all?
      bool any = false;
      for (std::size_t i = fn.body.begin; i < fn.body.end && i < code.size();
           ++i) {
        for (const PairRule& p : kPairs) {
          if (code[i].kind == TokKind::kIdent && code[i].text == p.acquire &&
              i + 1 < code.size() && IsPunct(code[i + 1], "(")) {
            any = true;
          }
        }
      }
      if (!any) continue;

      const std::vector<ExecPath> paths = EnumeratePaths(fn.body, kPathCap);
      for (const ExecPath& path : paths) {
        for (std::size_t li = 0; li < path.leaves.size(); ++li) {
          std::vector<Acquisition> acqs;
          FindAcquisitions(code, *path.leaves[li], &acqs);
          for (const Acquisition& acq : acqs) {
            if (acq.raii) continue;
            if (HasWaiver(waived, acq.line)) continue;
            if (acq.var.empty()) {
              findings.push_back(Finding{
                  Check::kPinPairing, file.path, acq.line,
                  "acquisition result is not bound: the pin leaks at the "
                  "semicolon; hold it in a guard or release it explicitly "
                  "(or waive with `// pin-ok: <why>`)"});
              continue;
            }
            bool released = false;
            for (std::size_t lj = li + 1; lj < path.leaves.size(); ++lj) {
              if (LeafReleases(code, *path.leaves[lj], acq.release, acq.var)) {
                released = true;
                break;
              }
            }
            if (!released) {
              const std::string where =
                  path.ends_in_return
                      ? "the return at line " + std::to_string(path.exit_line)
                      : "the end of '" + fn.name + "'";
              findings.push_back(Finding{
                  Check::kPinPairing, file.path, acq.line,
                  "pin '" + acq.var + "' is not released on the path to " +
                      where + "; release on every path or use an RAII "
                      "guard (waive with `// pin-ok: <why>`)"});
            }
          }
        }
      }
    }
  }

  // A leaky acquisition typically appears on several enumerated paths;
  // report each (acquisition, exit) pair once.
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.message < b.message;
                   });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.message == b.message;
                             }),
                 findings.end());
  return findings;
}

}  // namespace tsss_lint
