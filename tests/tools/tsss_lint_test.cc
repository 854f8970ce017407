// Drives tsss_lint over the fixture corpus in tools/tsss_lint/testdata/.
// Every check family gets one passing fixture (good/ exercises all eight)
// and at least one failing fixture with golden finding counts, so a
// regression that silences a family trips a test here before it lets a
// real violation through CI. The parser unit tests at the bottom pin down
// the statement tree and path enumeration the v2 families are built on.
//
// TSSS_LINT_TESTDATA_DIR and TSSS_LINT_RULES are injected by CMake.

#include <string>

#include <gtest/gtest.h>

#include "tsss_lint/lexer.h"
#include "tsss_lint/lint.h"
#include "tsss_lint/parser.h"
#include "tsss_lint/rules.h"

namespace tsss_lint {
namespace {

LintResult RunOnFixture(const std::string& fixture) {
  LintOptions options;
  options.root = std::string(TSSS_LINT_TESTDATA_DIR) + "/" + fixture;
  options.rules_path = TSSS_LINT_RULES;
  options.paths = {"src"};
  return RunLint(options);
}

TEST(TsssLintFixtures, GoodCorpusIsClean) {
  const LintResult result = RunOnFixture("good");
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.findings.empty())
      << "unexpected finding: " << FormatFinding(result.findings.front());
  EXPECT_TRUE(result.ok());
}

TEST(TsssLintFixtures, BadLayeringFindsBothUpwardIncludes) {
  const LintResult result = RunOnFixture("bad_layering");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.CountFor(Check::kLayering), 2);
  EXPECT_EQ(static_cast<int>(result.findings.size()), 2);
}

// shard is the top layer: a lower layer (service) including a shard header
// is an upward edge the DAG must reject.
TEST(TsssLintFixtures, BadShardLayeringReachUpIsCaught) {
  const LintResult result = RunOnFixture("bad_shard_layering");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.CountFor(Check::kLayering), 1);
  EXPECT_NE(result.findings.front().message.find("shard"), std::string::npos);
}

// obs is among core's declared deps, but debug_server.h carries a
// [restrict.debug_server] rule: only the serving layers may include it.
TEST(TsssLintFixtures, BadRestrictedIncludeIsCaughtBelowServiceLayer) {
  const LintResult result = RunOnFixture("bad_restricted_include");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.CountFor(Check::kLayering), 1);
  EXPECT_NE(result.findings.front().message.find("restricted header"),
            std::string::npos)
      << FormatFinding(result.findings.front());
  EXPECT_NE(result.findings.front().message.find("restrict.debug_server"),
            std::string::npos);
}

// Same narrow-waist mechanism for the sampling profiler: it owns the
// process-wide SIGPROF timer, so [restrict.profiler] keeps it out of every
// layer below the service boundary.
TEST(TsssLintFixtures, BadRestrictedProfilerIsCaughtBelowServiceLayer) {
  const LintResult result = RunOnFixture("bad_restricted_profiler");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.CountFor(Check::kLayering), 1);
  EXPECT_NE(result.findings.front().message.find("restricted header"),
            std::string::npos)
      << FormatFinding(result.findings.front());
  EXPECT_NE(result.findings.front().message.find("restrict.profiler"),
            std::string::npos);
}

TEST(TsssLintFixtures, BadIncludeCycleIsReportedOnce) {
  const LintResult result = RunOnFixture("bad_include_cycle");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.CountFor(Check::kLayering), 1);
  EXPECT_NE(result.findings.front().message.find("include cycle"),
            std::string::npos);
}

TEST(TsssLintFixtures, BadLockCycleFromDeclaredOrder) {
  const LintResult result = RunOnFixture("bad_lock_cycle");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.CountFor(Check::kLockOrder), 1);
  EXPECT_NE(result.findings.front().message.find("cycle"), std::string::npos);
}

TEST(TsssLintFixtures, BadLockCycleFromNestedMutexLockScopes) {
  const LintResult result = RunOnFixture("bad_lock_nested");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.CountFor(Check::kLockOrder), 1);
}

TEST(TsssLintFixtures, BadLockUnannotatedFlagsBothMembers) {
  const LintResult result = RunOnFixture("bad_lock_unannotated");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.CountFor(Check::kLockOrder), 2);
}

TEST(TsssLintFixtures, BadStatusBareCallsAreFlagged) {
  const LintResult result = RunOnFixture("bad_status_bare");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.CountFor(Check::kStatusDiscard), 2);
}

TEST(TsssLintFixtures, BadStatusVoidCastNeedsJustification) {
  const LintResult result = RunOnFixture("bad_status_void");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.CountFor(Check::kStatusDiscard), 2);
  EXPECT_NE(result.findings.front().message.find("discard-ok"),
            std::string::npos);
}

TEST(TsssLintFixtures, BadHotAllocFlagsGrowthAndNew) {
  const LintResult result = RunOnFixture("bad_hot_alloc");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.CountFor(Check::kHotPath), 2);
}

TEST(TsssLintFixtures, BadHotAssertFlagsAssertAndLock) {
  const LintResult result = RunOnFixture("bad_hot_assert");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.CountFor(Check::kHotPath), 2);
}

TEST(TsssLintFixtures, BadHotUnbalancedRegionIsFlagged) {
  const LintResult result = RunOnFixture("bad_hot_unbalanced");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.CountFor(Check::kHotPath), 1);
  EXPECT_NE(result.findings.front().message.find("never closed"),
            std::string::npos);
}

// --- v2 flow-sensitive fixtures --------------------------------------------

TEST(TsssLintFixtures, BadPinLeakFlagsLeakBareAndDangling) {
  const LintResult result = RunOnFixture("bad_pin_leak");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.CountFor(Check::kPinPairing), 4);
  EXPECT_EQ(static_cast<int>(result.findings.size()), 4);
}

TEST(TsssLintFixtures, BadRelaxedUnwaivedFlagsAllFourMisuses) {
  const LintResult result = RunOnFixture("bad_relaxed_unwaived");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.CountFor(Check::kAtomicOrder), 4);
  EXPECT_EQ(static_cast<int>(result.findings.size()), 4);
}

TEST(TsssLintFixtures, BadPollMissingFlagsDirectAndTransitiveIo) {
  const LintResult result = RunOnFixture("bad_poll_missing");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.CountFor(Check::kDeadlinePoll), 3);
  EXPECT_EQ(static_cast<int>(result.findings.size()), 3);
}

TEST(TsssLintFixtures, BadFloatEqFlagsPruneAndHotComparisons) {
  const LintResult result = RunOnFixture("bad_float_eq");
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.CountFor(Check::kFloatHazard), 3);
  EXPECT_EQ(static_cast<int>(result.findings.size()), 3);
}

// --checks filtering: a layering-broken fixture is clean when only the
// hot-path family runs.
TEST(TsssLintFixtures, CheckFilterRestrictsFamilies) {
  LintOptions options;
  options.root = std::string(TSSS_LINT_TESTDATA_DIR) + "/bad_layering";
  options.rules_path = TSSS_LINT_RULES;
  options.paths = {"src"};
  options.checks = {Check::kHotPath};
  const LintResult result = RunLint(options);
  EXPECT_TRUE(result.ok()) << (result.findings.empty()
                                   ? result.error
                                   : FormatFinding(result.findings.front()));
}

// Configuration failures surface as `error` (CLI exit 2), not findings.
TEST(TsssLintFixtures, MissingRulesFileIsAnError) {
  LintOptions options;
  options.root = std::string(TSSS_LINT_TESTDATA_DIR) + "/good";
  options.rules_path =
      std::string(TSSS_LINT_TESTDATA_DIR) + "/no_such_rules.toml";
  options.paths = {"src"};
  const LintResult result = RunLint(options);
  EXPECT_FALSE(result.error.empty());
  EXPECT_TRUE(result.findings.empty());
}

TEST(TsssLintFindings, FormatMatchesCliContract) {
  Finding finding;
  finding.check = Check::kStatusDiscard;
  finding.file = "src/tsss/core/engine.cc";
  finding.line = 42;
  finding.message = "result discarded";
  EXPECT_EQ(FormatFinding(finding),
            "src/tsss/core/engine.cc:42: [status-discard] result discarded");
}

TEST(TsssLintLexer, CommentsStringsAndRawStrings) {
  const auto tokens = Lex(
      "int a; // trailing\n"
      "/* block */ const char* s = \"x\\\"y\";\n"
      "auto r = R\"(raw \" text)\";\n");
  int comments = 0;
  int strings = 0;
  for (const auto& token : tokens) {
    if (token.kind == TokKind::kComment) ++comments;
    if (token.kind == TokKind::kString) ++strings;
  }
  EXPECT_EQ(comments, 2);
  EXPECT_EQ(strings, 2);
}

// --- statement-tree parser -------------------------------------------------

std::vector<Token> CodeTokens(const std::string& text) {
  std::vector<Token> code;
  for (const Token& t : Lex(text)) {
    if (!IsComment(t)) code.push_back(t);
  }
  return code;
}

TEST(TsssLintParser, ExtractsFreeAndMemberFunctions) {
  const auto code = CodeTokens(
      "int Free(int a) { return a; }\n"
      "struct S {\n"
      "  void Inline() { x = 1; }\n"
      "  int Declared(int b);\n"
      "};\n"
      "int S::Declared(int b) { return b; }\n");
  const auto functions = ParseFunctions(code);
  ASSERT_EQ(functions.size(), 3u);
  EXPECT_EQ(functions[0].name, "Free");
  EXPECT_EQ(functions[1].name, "Inline");
  EXPECT_EQ(functions[2].name, "Declared");
}

TEST(TsssLintParser, IfElseAndEarlyReturnEnumerateDistinctPaths) {
  const auto code = CodeTokens(
      "int F(bool c) {\n"
      "  before();\n"
      "  if (c) {\n"
      "    return 1;\n"
      "  }\n"
      "  after();\n"
      "  return 2;\n"
      "}\n");
  const auto functions = ParseFunctions(code);
  ASSERT_EQ(functions.size(), 1u);
  bool truncated = false;
  const auto paths = EnumeratePaths(functions[0].body, 64, &truncated);
  EXPECT_FALSE(truncated);
  // Path A: before, if-cond, return 1. Path B: before, if-cond, after,
  // return 2. Both end in a return, at different lines.
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_TRUE(paths[0].ends_in_return);
  EXPECT_TRUE(paths[1].ends_in_return);
  EXPECT_NE(paths[0].exit_line, paths[1].exit_line);
  EXPECT_NE(paths[0].leaves.size(), paths[1].leaves.size());
}

TEST(TsssLintParser, LoopContributesZeroOrOneIteration) {
  const auto code = CodeTokens(
      "void F(int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    work(i);\n"
      "  }\n"
      "}\n");
  const auto functions = ParseFunctions(code);
  ASSERT_EQ(functions.size(), 1u);
  const auto paths = EnumeratePaths(functions[0].body, 64);
  ASSERT_EQ(paths.size(), 2u);  // skip the loop entirely, or run it once
  EXPECT_NE(paths[0].leaves.size(), paths[1].leaves.size());
  for (const auto& path : paths) EXPECT_FALSE(path.ends_in_return);
}

TEST(TsssLintParser, DoWhileBodyNeverSkipped) {
  const auto code = CodeTokens(
      "void F() {\n"
      "  do {\n"
      "    work();\n"
      "  } while (again());\n"
      "}\n");
  const auto functions = ParseFunctions(code);
  ASSERT_EQ(functions.size(), 1u);
  ASSERT_EQ(functions[0].body.children.size(), 1u);
  EXPECT_EQ(functions[0].body.children[0].kind, StmtKind::kLoop);
  EXPECT_FALSE(functions[0].body.children[0].may_skip_body);
  // Exactly one path: the body always runs.
  EXPECT_EQ(EnumeratePaths(functions[0].body, 64).size(), 1u);
}

TEST(TsssLintParser, InnermostLoopDistinguishesConditionFromBody) {
  const auto code = CodeTokens(
      "void F(int n) {\n"
      "  while (probe()) {\n"
      "    inner(n);\n"
      "  }\n"
      "}\n");
  const auto functions = ParseFunctions(code);
  ASSERT_EQ(functions.size(), 1u);
  const Stmt& body = functions[0].body;
  std::size_t probe_at = 0;
  std::size_t inner_at = 0;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].text == "probe") probe_at = i;
    if (code[i].text == "inner") inner_at = i;
  }
  bool in_condition = false;
  ASSERT_NE(InnermostLoop(body, probe_at, &in_condition), nullptr);
  EXPECT_TRUE(in_condition);
  ASSERT_NE(InnermostLoop(body, inner_at, &in_condition), nullptr);
  EXPECT_FALSE(in_condition);
  // A token outside any loop has no innermost loop.
  EXPECT_EQ(InnermostLoop(body, body.end - 1, nullptr), nullptr);
}

TEST(TsssLintParser, PathCapTruncatesConservatively) {
  std::string text = "void F() {\n";
  for (int i = 0; i < 12; ++i) {
    text += "  if (c" + std::to_string(i) + ") { a(); }\n";
  }
  text += "}\n";
  const auto code = CodeTokens(text);
  const auto functions = ParseFunctions(code);
  ASSERT_EQ(functions.size(), 1u);
  bool truncated = false;
  const auto paths = EnumeratePaths(functions[0].body, 64, &truncated);
  EXPECT_TRUE(truncated);  // 2^12 paths exist, only 64 kept
  EXPECT_LE(paths.size(), 64u);
}

// --- waiver inventory ------------------------------------------------------

TEST(TsssLintWaivers, ListWaiversCollectsTagsAndReasons) {
  LintOptions options;
  options.root = std::string(TSSS_LINT_TESTDATA_DIR) + "/good";
  options.paths = {"src"};
  const WaiverResult result = ListWaivers(options);
  ASSERT_TRUE(result.error.empty()) << result.error;
  int pin_ok = 0;
  int relaxed_ok = 0;
  for (const Waiver& w : result.waivers) {
    EXPECT_FALSE(w.file.empty());
    EXPECT_GT(w.line, 0);
    EXPECT_FALSE(w.reason.empty()) << w.file << ":" << w.line;
    if (w.tag == "pin-ok") ++pin_ok;
    if (w.tag == "relaxed-ok") ++relaxed_ok;
  }
  EXPECT_EQ(pin_ok, 1);
  EXPECT_EQ(relaxed_ok, 1);
}

TEST(TsssLintRules, ParsesLayersAndRejectsUnknownDeps) {
  std::string error;
  LayerRules rules;
  ASSERT_TRUE(ParseRulesText("[layer.common]\n"
                             "path = \"src/tsss/common\"\n"
                             "deps = []\n"
                             "[layer.geom]\n"
                             "path = \"src/tsss/geom\"\n"
                             "deps = [\"common\"]\n",
                             &rules, &error))
      << error;
  const Layer* geom = rules.LayerForPath("src/tsss/geom/vec.h");
  ASSERT_NE(geom, nullptr);
  EXPECT_EQ(geom->name, "geom");
  EXPECT_TRUE(rules.FindCycle().empty());

  LayerRules bad;
  EXPECT_FALSE(ParseRulesText("[layer.common]\n"
                              "path = \"src/tsss/common\"\n"
                              "deps = [\"ghost\"]\n",
                              &bad, &error));
  EXPECT_FALSE(error.empty());
}

TEST(TsssLintRules, ParsesRestrictTablesAndValidatesAllowedLayers) {
  std::string error;
  LayerRules rules;
  ASSERT_TRUE(ParseRulesText("[layer.obs]\n"
                             "path = \"src/tsss/obs\"\n"
                             "deps = []\n"
                             "[layer.service]\n"
                             "path = \"src/tsss/service\"\n"
                             "deps = [\"obs\"]\n"
                             "[restrict.debug_server]\n"
                             "header = \"src/tsss/obs/debug_server.h\"\n"
                             "allowed = [\"service\"]\n",
                             &rules, &error))
      << error;
  ASSERT_EQ(rules.restricts.size(), 1u);
  EXPECT_EQ(rules.restricts[0].name, "debug_server");
  EXPECT_EQ(rules.restricts[0].header, "src/tsss/obs/debug_server.h");
  ASSERT_EQ(rules.restricts[0].allowed.size(), 1u);
  EXPECT_EQ(rules.restricts[0].allowed[0], "service");

  // A restrict naming an undeclared layer is a rule-file error.
  LayerRules bad;
  EXPECT_FALSE(ParseRulesText("[layer.obs]\n"
                              "path = \"src/tsss/obs\"\n"
                              "deps = []\n"
                              "[restrict.x]\n"
                              "header = \"src/tsss/obs/x.h\"\n"
                              "allowed = [\"ghost\"]\n",
                              &bad, &error));
  EXPECT_NE(error.find("ghost"), std::string::npos);
  // So is a restrict with no header.
  LayerRules headerless;
  EXPECT_FALSE(ParseRulesText("[restrict.x]\n"
                              "allowed = []\n",
                              &headerless, &error));
  EXPECT_NE(error.find("no header"), std::string::npos);
}

}  // namespace
}  // namespace tsss_lint
