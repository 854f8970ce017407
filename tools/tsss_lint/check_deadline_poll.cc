// Check 7 — deadline-poll coverage. Query deadlines are cooperative:
// ExecControl only fires where somebody polls it. The convention (DESIGN.md
// §9) is to poll once per page of I/O, which makes the dangerous pattern
// precisely "a loop that reads pages but never reaches a poll". This check
// finds those loops by closing two sets over the project call graph —
// functions that do page I/O and functions that poll — and intersecting
// them per loop.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tsss_lint/checks.h"
#include "tsss_lint/parser.h"

namespace tsss_lint {

namespace {

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Page-I/O primitives. Fetch/New are deliberately absent: build-side
/// mutation paths (Insert/StoreNode) pin pages too, but deadlines govern
/// *queries*; seeding on the query-side read entry points keeps the
/// check focused and waiver-free on the write path.
bool IsIoSeed(const std::string& name) {
  return name == "LoadNode" || name == "ScanNode" || name == "ViewWindow" ||
         name == "ReadWindow" || name == "ReadWindowDeduped";
}

/// Direct evidence of polling inside a token range.
bool IsPollName(const std::string& name) {
  return name == "CurrentExecControl" || name == "PollExecControl";
}

bool IsControlKeyword(const std::string& name) {
  static const std::set<std::string> kKw = {
      "if",     "while",  "for",      "switch", "return",   "sizeof",
      "static", "const",  "co_await", "case",   "new",      "delete",
      "catch",  "assert", "alignof",  "decltype"};
  return kKw.count(name) != 0;
}

/// Unqualified names called inside [begin, end): identifier followed by
/// `(`, keywords excluded. Method calls contribute their method name —
/// name conflation across classes is accepted; it only ever errs toward
/// requiring a poll (or crediting one, which the fixtures pin down).
void CollectCallees(const std::vector<Token>& code, std::size_t begin,
                    std::size_t end, std::set<std::string>* out) {
  for (std::size_t i = begin; i < end && i + 1 < code.size(); ++i) {
    if (code[i].kind != TokKind::kIdent) continue;
    if (!IsPunct(code[i + 1], "(")) continue;
    if (IsControlKeyword(code[i].text)) continue;
    out->insert(code[i].text);
  }
}

/// Fixed-point closure: grow `members` with every function whose body
/// calls a member (or a seed, tested by `seed`).
template <typename SeedFn>
void Close(const std::map<std::string, std::set<std::string>>& calls,
           SeedFn seed, std::set<std::string>* members) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [fn, callees] : calls) {
      if (members->count(fn) != 0) continue;
      for (const std::string& callee : callees) {
        if (seed(callee) || members->count(callee) != 0) {
          members->insert(fn);
          changed = true;
          break;
        }
      }
    }
  }
}

void CollectLoops(const Stmt& stmt, std::vector<const Stmt*>* out) {
  if (stmt.kind == StmtKind::kLoop) out->push_back(&stmt);
  for (const Stmt& child : stmt.children) CollectLoops(child, out);
}

bool InScope(const std::string& path) {
  return path.rfind("src/tsss/index/", 0) == 0 ||
         path.rfind("src/tsss/core/", 0) == 0 ||
         path.rfind("src/tsss/shard/", 0) == 0;
}

}  // namespace

std::vector<Finding> CheckDeadlinePoll(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;

  // Pass 1: per-function callee sets across *all* files, so a loop in
  // core/ gets credit for a poll buried in an index/ callee.
  struct ParsedFile {
    const SourceFile* file = nullptr;
    std::vector<Token> code;
    std::vector<FunctionDef> functions;
  };
  std::vector<ParsedFile> parsed;
  std::map<std::string, std::set<std::string>> calls;
  std::set<std::string> direct_poll;  // bodies that mention a poll name
  for (const SourceFile& file : files) {
    ParsedFile pf;
    pf.file = &file;
    pf.code.reserve(file.tokens.size());
    for (const Token& t : file.tokens) {
      if (!IsComment(t)) pf.code.push_back(t);
    }
    pf.functions = ParseFunctions(pf.code);
    for (const FunctionDef& fn : pf.functions) {
      std::set<std::string>& callees = calls[fn.name];
      CollectCallees(pf.code, fn.body.begin, fn.body.end, &callees);
      for (std::size_t i = fn.body.begin;
           i < fn.body.end && i < pf.code.size(); ++i) {
        if (pf.code[i].kind == TokKind::kIdent && IsPollName(pf.code[i].text)) {
          direct_poll.insert(fn.name);
        }
      }
    }
    parsed.push_back(std::move(pf));
  }

  // Pass 2: close the polling and io-doing sets over the call graph.
  std::set<std::string> polling = direct_poll;
  Close(calls, [&](const std::string& n) { return direct_poll.count(n) != 0; },
        &polling);
  std::set<std::string> io_doing;
  Close(calls, IsIoSeed, &io_doing);

  // Pass 3: every loop in scope whose range reaches I/O must reach a poll.
  for (const ParsedFile& pf : parsed) {
    if (!InScope(pf.file->path)) continue;
    const std::set<int> waived = WaiverLines(*pf.file, "poll-ok");

    for (const FunctionDef& fn : pf.functions) {
      std::vector<const Stmt*> loops;
      CollectLoops(fn.body, &loops);
      for (const Stmt* loop : loops) {
        std::set<std::string> callees;
        CollectCallees(pf.code, loop->begin, loop->end, &callees);
        bool does_io = false;
        bool polls = false;
        for (const std::string& c : callees) {
          if (IsIoSeed(c) || io_doing.count(c) != 0) does_io = true;
          if (IsPollName(c) || polling.count(c) != 0) polls = true;
        }
        if (!does_io || polls) continue;
        if (HasWaiver(waived, loop->line)) continue;
        findings.push_back(Finding{
            Check::kDeadlinePoll, pf.file->path, loop->line,
            "loop in '" + fn.name +
                "' does page I/O but never polls ExecControl; a deadline "
                "cannot fire here — call PollExecControl() in the body "
                "(or waive with `// poll-ok: <why>`)"});
      }
    }
  }
  return findings;
}

}  // namespace tsss_lint
