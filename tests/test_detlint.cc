/**
 * @file
 * Tests for the detlint determinism linter (tools/detlint/).
 *
 * Each rule has a fixture pair under tests/lint_fixtures/: a `bad.cc`
 * with seeded violations and a `clean.cc` counterpart. The tests run
 * the real binary (DETLINT_BIN, injected by CMake) and assert on exit
 * status, the rule ids named in the output, and the JSON report.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct LintRun {
    int exitCode = -1;
    std::string output; ///< stdout+stderr combined
};

LintRun runDetlint(const std::string& args)
{
    std::string cmd = std::string(DETLINT_BIN) + " " + args + " 2>&1";
    FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    LintRun run;
    char buf[4096];
    while (pipe != nullptr) {
        size_t n = fread(buf, 1, sizeof buf, pipe);
        if (n == 0)
            break;
        run.output.append(buf, n);
    }
    int status = pipe != nullptr ? pclose(pipe) : -1;
    run.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return run;
}

std::string fixture(const std::string& rel)
{
    return std::string(LINT_FIXTURE_DIR) + "/" + rel;
}

// A violation seeded into a scanned tree makes detlint exit 1 naming
// the rule; the clean counterpart passes.
void expectPair(const std::string& dir, const std::string& rule)
{
    LintRun bad = runDetlint(fixture(dir + "/src/sim/bad.cc"));
    EXPECT_EQ(bad.exitCode, 1) << bad.output;
    EXPECT_NE(bad.output.find("[" + rule + "]"), std::string::npos)
        << bad.output;

    LintRun clean = runDetlint(fixture(dir + "/src/sim/clean.cc"));
    EXPECT_EQ(clean.exitCode, 0) << clean.output;
    EXPECT_EQ(clean.output.find("[" + rule + "]"), std::string::npos)
        << clean.output;
}

TEST(Detlint, WallClock) { expectPair("wall_clock", "wall-clock"); }
TEST(Detlint, RawRand) { expectPair("raw_rand", "raw-rand"); }
TEST(Detlint, UnorderedIter)
{
    expectPair("unordered_iter", "unordered-iter");
}
TEST(Detlint, PointerCompare)
{
    expectPair("pointer_compare", "pointer-compare");
}
TEST(Detlint, UninitMember)
{
    expectPair("uninit_member", "uninit-member");
}
TEST(Detlint, StdoutPrint) { expectPair("stdout_print", "stdout-print"); }
TEST(Detlint, EagerCheckMessage)
{
    expectPair("eager_check_message", "eager-check-message");
    // One finding per concatenated message, the multi-line call
    // reported at the line naming the check.
    LintRun bad =
        runDetlint(fixture("eager_check_message/src/sim/bad.cc"));
    for (const char* at : {"bad.cc:9:", "bad.cc:10:", "bad.cc:12:"})
        EXPECT_NE(bad.output.find(at), std::string::npos) << bad.output;
}

TEST(Detlint, EagerCheckMessageOnlyAppliesToPerEventCode)
{
    // The rule covers src/{sim,sched,core}; configuration parsing
    // elsewhere may keep the one-line form.
    std::ifstream in(fixture("eager_check_message/src/sim/bad.cc"));
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string tmp = ::testing::TempDir() + "neutral_eager_check.cc";
    std::ofstream out(tmp);
    out << ss.str();
    out.close();
    LintRun run = runDetlint(tmp);
    EXPECT_EQ(run.exitCode, 0) << run.output;
    std::remove(tmp.c_str());
}

TEST(Detlint, WallClockOnlyAppliesToDeterministicPaths)
{
    // The same violating content outside src/{sim,sched,serve,chaos,
    // core} is out of scope for the wall-clock rule. Scanning the
    // file via a copy under a neutral path must stay silent.
    std::ifstream in(fixture("wall_clock/src/sim/bad.cc"));
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string tmp = ::testing::TempDir() + "neutral_wallclock.cc";
    std::ofstream out(tmp);
    out << ss.str();
    out.close();
    LintRun run = runDetlint(tmp);
    EXPECT_EQ(run.exitCode, 0) << run.output;
    std::remove(tmp.c_str());
}

TEST(Detlint, SuppressionsSilenceFindings)
{
    LintRun run = runDetlint(fixture("suppression/ok"));
    EXPECT_EQ(run.exitCode, 0) << run.output;
}

TEST(Detlint, SuppressionWithoutReasonIsAFindingAndDoesNotSuppress)
{
    LintRun run = runDetlint(fixture("suppression/noreason"));
    EXPECT_EQ(run.exitCode, 1) << run.output;
    EXPECT_NE(run.output.find("[bad-suppression]"), std::string::npos)
        << run.output;
    // The underlying violation survives a reasonless allow.
    EXPECT_NE(run.output.find("[unordered-iter]"), std::string::npos)
        << run.output;
}

TEST(Detlint, UnusedSuppressionIsAFinding)
{
    LintRun run = runDetlint(fixture("suppression/unused"));
    EXPECT_EQ(run.exitCode, 1) << run.output;
    EXPECT_NE(run.output.find("[unused-suppression]"), std::string::npos)
        << run.output;
}

TEST(Detlint, JsonReportListsFindings)
{
    std::string json = ::testing::TempDir() + "detlint_out.json";
    LintRun run = runDetlint(fixture("wall_clock") + " --out " + json);
    EXPECT_EQ(run.exitCode, 1) << run.output;

    std::ifstream in(json);
    ASSERT_TRUE(in.good()) << "missing " << json;
    std::stringstream ss;
    ss << in.rdbuf();
    std::string doc = ss.str();
    EXPECT_NE(doc.find("\"rule\": \"wall-clock\""), std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"unsuppressed\":"), std::string::npos) << doc;
    EXPECT_NE(doc.find("bad.cc\""), std::string::npos) << doc;
    std::remove(json.c_str());
}

TEST(Detlint, ListRulesNamesEveryRule)
{
    LintRun run = runDetlint("--list-rules");
    EXPECT_EQ(run.exitCode, 0);
    for (const char* rule :
         {"wall-clock", "raw-rand", "unordered-iter", "pointer-compare",
          "uninit-member", "stdout-print", "eager-check-message",
          "bad-suppression", "unused-suppression"}) {
        EXPECT_NE(run.output.find(rule), std::string::npos) << rule;
    }
}

TEST(Detlint, MissingPathIsAUsageError)
{
    LintRun run = runDetlint(fixture("no_such_dir_anywhere"));
    EXPECT_EQ(run.exitCode, 2) << run.output;
}

} // namespace
