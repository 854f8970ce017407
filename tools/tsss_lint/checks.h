#ifndef TSSS_TOOLS_TSSS_LINT_CHECKS_H_
#define TSSS_TOOLS_TSSS_LINT_CHECKS_H_

// The four check families. Each check is a pure function over pre-lexed
// sources: no globals, no filesystem — the runner does the IO, the tests
// feed fixtures straight in.

#include <set>
#include <string>
#include <vector>

#include "tsss_lint/lexer.h"
#include "tsss_lint/lint.h"
#include "tsss_lint/rules.h"

namespace tsss_lint {

/// One analyzed file: repo-relative path, raw text and token stream.
struct SourceFile {
  std::string path;
  std::string text;
  std::vector<Token> tokens;
};

/// Check 1 — layering. Extracts the `#include "tsss/..."` graph and
/// enforces the layer DAG from `rules`; also rejects include cycles among
/// project headers. Exempt prefixes (tests/bench/tools/fuzz/examples) may
/// include anything but still participate as cycle *edges* sources.
std::vector<Finding> CheckLayering(const std::vector<SourceFile>& files,
                                   const LayerRules& rules);

/// Check 2 — lock order. Builds the static mutex-acquisition graph from
/// TSSS_ACQUIRED_BEFORE/AFTER annotations plus lexically nested MutexLock
/// scopes, and fails on cycles. Also requires every `Mutex` member in an
/// analyzed src/ file to be referenced by at least one thread-safety
/// annotation in that file, and bans raw `std::mutex` members (invisible
/// to -Wthread-safety) unless the line carries `// lint-ok: raw-mutex`.
std::vector<Finding> CheckLockOrder(const std::vector<SourceFile>& files);

/// Check 3 — Status soundness. Collects the names of functions returning
/// Status / Result<...> across all files, then flags statement-level calls
/// to them whose result is dropped. `(void)`-casts are accepted only when
/// justified by a `// discard-ok: <why>` comment on the same or previous
/// line; a bare cast is itself a finding.
std::vector<Finding> CheckStatusDiscard(const std::vector<SourceFile>& files);

/// Check 4 — hot-path hygiene. Inside `// TSSS_HOT_BEGIN(name)` ...
/// `// TSSS_HOT_END` regions: no heap allocation (new / make_unique /
/// make_shared / malloc family), no container growth (push_back, resize,
/// reserve, insert, ...), no bare assert, no throw, no std::mutex.
/// Unbalanced or nested markers are findings too.
std::vector<Finding> CheckHotPath(const std::vector<SourceFile>& files);

// --- v2 flow-sensitive families (statement tree, parser.h) -----------------

/// Check 5 — pin pairing. In src/tsss/{storage,index,core,shard}: a manual
/// page acquisition (`Pin(...)` / `AcquirePage(...)`) whose result is not
/// held by an RAII guard must reach its matching release (`Unpin` /
/// `ReleasePage`) naming the same variable on *every* enumerated execution
/// path — early returns included. A bare acquisition statement that binds
/// nothing leaks immediately. Binding a reference or pointer to an
/// expression that pins a page inline (`const Page& p =
/// ...Fetch(id).value().page()`) dangles when the temporary guard dies and
/// is flagged too. Waiver: `// pin-ok: <why>` on the acquisition line.
std::vector<Finding> CheckPinPairing(const std::vector<SourceFile>& files);

/// Check 6 — atomic-order audit, src/ only. Every `memory_order_relaxed`
/// must carry a `// relaxed-ok: <why>` waiver on the same or previous
/// line. compare_exchange misuse: `compare_exchange_weak` outside any loop
/// (spurious failure unhandled), `compare_exchange_strong` as a loop
/// condition (retry loops should use weak), and an explicit failure
/// ordering of release/acq_rel (a failure is a pure load).
std::vector<Finding> CheckAtomicOrder(const std::vector<SourceFile>& files);

/// Check 7 — deadline-poll coverage. In src/tsss/{index,core,shard}: a
/// loop whose body does page I/O (calls LoadNode / ViewWindow /
/// ReadWindow / ReadWindowDeduped, directly or transitively) must poll ExecControl —
/// directly (CurrentExecControl in the loop) or via a callee in the
/// transitive polling set (seeded by bodies that use CurrentExecControl).
/// Waiver: `// poll-ok: <why>` on the loop's line or the line above.
std::vector<Finding> CheckDeadlinePoll(const std::vector<SourceFile>& files);

/// Check 8 — float hazards. `==`/`!=` between floating-point operands
/// (declared double/float locals or parameters, or non-zero float
/// literals) inside TSSS_HOT regions or the geom prune predicates
/// (src/tsss/geom/). Comparisons against a literal zero are exempt:
/// exact-zero guards before division are well-defined and idiomatic.
std::vector<Finding> CheckFloatHazard(const std::vector<SourceFile>& files);

/// Shared helper — lines of `file` carrying a `// <tag>: ...` waiver.
/// A waiver on line L covers findings on L and L+1 (same or previous
/// line convention, matching discard-ok).
std::set<int> WaiverLines(const SourceFile& file, const std::string& tag);

/// True when `line` is covered by a waiver set (same or previous line).
inline bool HasWaiver(const std::set<int>& lines, int line) {
  return lines.count(line) != 0 || lines.count(line - 1) != 0;
}

}  // namespace tsss_lint

#endif  // TSSS_TOOLS_TSSS_LINT_CHECKS_H_
