/**
 * @file
 * Self-tests of the benchmark: the layer wrappers are transparent on
 * every workload, output checks reject corrupted results, the span
 * ledger's self-time arithmetic is right, the reference kernel does
 * the same work on every run, the driver honours its contract, and
 * the benchmark's own sources pass detlint.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/registry.hh"
#include "exp/sweep.hh"
#include "ledger.hh"
#include "reference.hh"
#include "suite.hh"
#include "traced.hh"
#include "util/json.hh"

using namespace perfbench;

namespace {

/** The workload's grid at a small size (seed replicas kept to one). */
dysta::ScenarioSpec
smallSpec(const std::string& name)
{
    dysta::ScenarioSpec spec =
        loadSpec(findWorkload(name), PERFBENCH_ROOT, -1);
    spec.requests = 300;
    spec.seeds = 1;
    dysta::validateScenario(spec);
    return spec;
}

std::vector<dysta::SweepCellResult>
runUntraced(const dysta::BenchContext& ctx,
            const std::vector<dysta::SweepCell>& cells)
{
    std::vector<dysta::SweepCellResult> out;
    for (const dysta::SweepCell& cell : cells)
        out.push_back(dysta::runSweepCell(ctx, cell));
    return out;
}

struct Command
{
    int status = -1;
    std::string out;
};

Command
runCommand(const std::string& cmd)
{
    Command c;
    FILE* pipe = popen((cmd + " 2>/dev/null").c_str(), "r");
    if (pipe == nullptr)
        return c;
    std::array<char, 4096> buf{};
    size_t n = 0;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        c.out.append(buf.data(), n);
    c.status = pclose(pipe);
    return c;
}

dysta::JsonValue
lastLine(const std::string& out)
{
    size_t end = out.find_last_not_of('\n');
    size_t begin = out.rfind('\n', end);
    return dysta::parseJson(out.substr(
        begin == std::string::npos ? 0 : begin + 1, end + 1));
}

std::set<std::string>
benchmarkNames(const std::string& section)
{
    dysta::JsonValue doc = dysta::parseJsonFile(
        std::string(PERFBENCH_ROOT) + "/BENCHMARK.json");
    std::set<std::string> names;
    for (const dysta::JsonValue& m : doc.find(section)->items)
        names.insert(m.find("name")->str);
    return names;
}

std::set<std::string>
resultNames(const dysta::JsonValue& result)
{
    std::set<std::string> names;
    for (const auto& [name, value] : result.find("metrics")->members)
        names.insert(name);
    return names;
}

/** Names in the driver's {"not_applicable": {...}} line. */
std::set<std::string>
notApplicable(const std::string& out)
{
    std::istringstream lines(out);
    std::string line;
    std::set<std::string> names;
    while (std::getline(lines, line)) {
        if (line.rfind("{\"not_applicable\"", 0) != 0)
            continue;
        dysta::JsonValue doc = dysta::parseJson(line);
        for (const auto& [name, reason] : doc.find("not_applicable")->members)
            names.insert(name);
    }
    return names;
}

/** The per_layer names of BENCHMARK.json that start with a prefix. */
std::set<std::string>
withPrefixes(const std::vector<std::string>& prefixes)
{
    std::set<std::string> names;
    for (const std::string& name : benchmarkNames("per_layer"))
        for (const std::string& prefix : prefixes)
            if (name.rfind(prefix, 0) == 0)
                names.insert(name);
    return names;
}

} // namespace

class Transparency : public ::testing::TestWithParam<std::string>
{
};

TEST_P(Transparency, TracedRunReproducesUntracedReport)
{
    dysta::ScenarioSpec spec = smallSpec(GetParam());
    auto ctx = dysta::makeBenchContext(dysta::scenarioSetup(spec));
    std::vector<dysta::SweepCell> cells = dysta::scenarioCells(spec);
    std::vector<dysta::SweepCellResult> plain = runUntraced(*ctx, cells);

    Tracer tracer;
    TracedPass traced = runTraced(*ctx, cells, tracer);
    EXPECT_EQ(reportDigest(cellReport(spec, cells, plain)),
              reportDigest(cellReport(spec, cells, traced.results)));
    for (size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(plain[i].eventsProcessed, traced.results[i].eventsProcessed);
        EXPECT_EQ(plain[i].decisions, traced.results[i].decisions);
    }
    EXPECT_EQ(tracer.ledger.openDepth(), 0u);
    EXPECT_GT(tracer.ledger.stats("sim").calls, 0u);
    EXPECT_TRUE(checkCells(cells, plain).empty());
}

INSTANTIATE_TEST_SUITE_P(Workloads, Transparency,
                         ::testing::Values("megascale", "tab05", "batching",
                                           "chaos"));

TEST(Transparency, SparsityBatcherReadsTheForwardedEstimator)
{
    dysta::ScenarioSpec spec = smallSpec("batching");
    auto ctx = dysta::makeBenchContext(dysta::scenarioSetup(spec));
    std::vector<dysta::SweepCell> cells;
    for (const dysta::SweepCell& cell : dysta::scenarioCells(spec))
        if (cell.cluster.batcher.find("compose=sparsity") != std::string::npos)
            cells.push_back(cell);
    ASSERT_EQ(cells.size(), 1u);

    Tracer tracer;
    TracedPass traced = runTraced(*ctx, cells, tracer);
    EXPECT_GT(tracer.ledger.stats("batch.est").calls, 0u);
    std::string digest = reportDigest(cellReport(spec, cells, traced.results));
    EXPECT_EQ(digest,
              reportDigest(cellReport(spec, cells, runUntraced(*ctx, cells))));

    // A wrapper that hides the estimator (the library's own
    // ForwardingScheduler does) makes composition fall back to queue
    // order, and the digest shows it.
    const dysta::SweepCell& cell = cells.front();
    dysta::ClusterConfig cfg;
    cfg.nodes = cell.cluster.nodes;
    cfg.batching = dysta::batchConfigFromSpec(cell.cluster.batcher);
    std::vector<std::unique_ptr<dysta::Scheduler>> owned;
    dysta::PolicyFactory hiding = [&](const dysta::NodeProfile&, int) {
        owned.push_back(dysta::makeSchedulerByName(
            cell.cluster.nodeScheduler, *ctx, cell.workload.kind));
        return std::make_unique<dysta::ForwardingScheduler>(*owned.back());
    };
    auto dispatcher =
        dysta::makeDispatcherByName(cell.cluster.dispatcher, *ctx);
    std::vector<dysta::Request> requests =
        dysta::generateWorkload(cell.workload, ctx->registry);
    dysta::ClusterResult hidden =
        dysta::ClusterEngine(cfg).run(requests, *dispatcher, hiding);
    dysta::SweepCell bare = cell;
    bare.probes.clear();
    dysta::SweepCellResult expected = dysta::runSweepCell(*ctx, bare);
    EXPECT_NE(hidden.metrics.batching.stragglerTaxSec,
              expected.metrics.batching.stragglerTaxSec);
}

TEST(Checks, CorruptedGoldenDigestIsAFailure)
{
    const Workload& w = findWorkload("chaos");
    dysta::ScenarioSpec spec = loadSpec(w, PERFBENCH_ROOT, -1);
    std::vector<Golden> goldens = {
        {"chaos", spec.seed, spec.requests, spec.seeds, "0123456789abcdef"}};
    EXPECT_EQ(checkGolden(goldens, w, spec, "0123456789abcdef"), "");
    EXPECT_NE(checkGolden(goldens, w, spec, "0123456789abcdee"), "");
    goldens[0].requests += 1;
    EXPECT_NE(checkGolden(goldens, w, spec, "0123456789abcdef"), "");
    EXPECT_NE(checkGolden({}, w, spec, "0123456789abcdef"), "");
    spec.seed += 1;
    EXPECT_EQ(checkGolden(goldens, w, spec, "ffffffffffffffff"), "");
}

TEST(Checks, ConservationViolationsAreReported)
{
    dysta::ScenarioSpec spec = smallSpec("chaos");
    auto ctx = dysta::makeBenchContext(dysta::scenarioSetup(spec));
    std::vector<dysta::SweepCell> cells = dysta::scenarioCells(spec);
    cells.resize(2);
    std::vector<dysta::SweepCellResult> results = runUntraced(*ctx, cells);
    ASSERT_TRUE(checkCells(cells, results).empty());
    results[0].metrics.completed -= 1;
    results[1].metrics.goodput = results[1].metrics.throughput * 2.0;
    results[1].eventsProcessed = 0;
    std::vector<CellProblem> problems = checkCells(cells, results);
    EXPECT_EQ(problems.size(), 3u);
    EXPECT_EQ(failedCells(problems), 2u);
}

TEST(Checks, DigestIgnoresMetaAndSpecOnly)
{
    std::string a = R"({"tool":"x","meta":{"jobs":1},"scenarios":[)"
                    R"({"name":"s","spec":"a","rows":[{"antt":1.5}]}]})";
    std::string b = R"({"tool":"x","meta":{"jobs":2},"scenarios":[)"
                    R"({"name":"s","spec":"b","rows":[{"antt":1.5}]}]})";
    std::string c = R"({"tool":"x","meta":{"jobs":1},"scenarios":[)"
                    R"({"name":"s","spec":"a","rows":[{"antt":1.25}]}]})";
    EXPECT_EQ(reportDigest(a), reportDigest(b));
    EXPECT_NE(reportDigest(a), reportDigest(c));
}

TEST(Ledger, SelfTimeSubtractsChildSpans)
{
    Ledger ledger(4, 100);
    int root = ledger.layer("sim");
    int child = ledger.layer("sched.pick");
    int leaf = ledger.layer("batch.est");
    ledger.openAt(root, -1, 0);
    ledger.openAt(child, 1, 10);
    ledger.closeAt(30);
    ledger.openAt(child, 2, 40);
    ledger.openAt(leaf, 2, 42);
    ledger.closeAt(45);
    ledger.closeAt(50);
    ledger.closeAt(100);

    EXPECT_EQ(ledger.stats(root).totalNs, 100);
    EXPECT_EQ(ledger.stats(root).selfNs, 70);
    EXPECT_EQ(ledger.stats(child).calls, 2u);
    EXPECT_EQ(ledger.stats(child).totalNs, 30);
    EXPECT_EQ(ledger.stats(child).selfNs, 27);
    EXPECT_EQ(ledger.stats(leaf).selfNs, 3);
    EXPECT_EQ(ledger.openDepth(), 0u);

    // Raw spans keep their parents; request 7 is past the prefix.
    ASSERT_EQ(ledger.rawSpans().size(), 4u);
    const RawSpan& leaf_span = ledger.rawSpans()[1];
    const RawSpan& parent_span = ledger.rawSpans()[2];
    EXPECT_EQ(leaf_span.parent, parent_span.id);
    EXPECT_EQ(ledger.rawSpans().back().parent, 0u);
    ledger.openAt(child, 7, 200);
    ledger.closeAt(210);
    EXPECT_EQ(ledger.rawSpans().size(), 5u); // a root, so kept
}

TEST(Ledger, HistogramQuantilesTrackTheSamples)
{
    Histogram h;
    for (int v = 1; v <= 10000; ++v)
        h.add(v);
    EXPECT_EQ(h.count(), 10000u);
    EXPECT_NEAR(h.quantile(0.5), 5000.0, 5000.0 * 0.02);
    EXPECT_NEAR(h.quantile(0.99), 9900.0, 9900.0 * 0.02);
    Histogram merged;
    merged.merge(h);
    merged.merge(h);
    EXPECT_EQ(merged.count(), 20000u);
    EXPECT_NEAR(merged.quantile(0.5), 5000.0, 5000.0 * 0.02);
}

TEST(Reference, KernelDoesTheSameWorkEveryRun)
{
    ReferenceRun first = runReferenceKernel();
    ReferenceRun second = runReferenceKernel();
    EXPECT_GT(first.seconds, 0.0);
    EXPECT_GT(second.seconds, 0.0);
    EXPECT_NE(first.checksum, 0u);
    EXPECT_EQ(first.checksum, second.checksum);
}

TEST(Driver, PrintsTheContractedMetricsAndChecksTheGolden)
{
    std::string driver = std::string(PERFBENCH_DRIVER) + " --seconds 0";
    std::string here = std::string(" --root ") + PERFBENCH_ROOT;
    Command e2e = runCommand(driver + here + " --workload megascale");
    EXPECT_EQ(e2e.status, 0);
    dysta::JsonValue result = lastLine(e2e.out);
    EXPECT_TRUE(result.find("correct")->boolean);
    EXPECT_EQ(result.find("failed")->number, 0.0);
    EXPECT_EQ(resultNames(result), benchmarkNames("end_to_end"));

    // The golden is recorded serially; a parallel grid must match it.
    // tab05 runs every layer but dispatch, admission, streaming,
    // batching and chaos.
    Command parallel = runCommand(driver + here +
                                  " --workload tab05 --jobs 2 --trace 1");
    EXPECT_EQ(parallel.status, 0);
    result = lastLine(parallel.out);
    EXPECT_TRUE(result.find("correct")->boolean);
    EXPECT_EQ(resultNames(result), benchmarkNames("per_layer"));
    EXPECT_EQ(notApplicable(parallel.out),
              withPrefixes({"dispatch.", "admit.", "workload.next_",
                            "workload.retire_", "batch.", "chaos."}));

    // A copy of the repository's scenarios with a corrupted megascale
    // golden digest: the run must fail and say so.
    namespace fs = std::filesystem;
    fs::path root = fs::path(PERFBENCH_BINARY_DIR) / "corrupt_golden_root";
    fs::remove_all(root);
    fs::create_directories(root / "perfbench");
    fs::copy(fs::path(PERFBENCH_ROOT) / "scenarios", root / "scenarios",
             fs::copy_options::recursive);
    dysta::JsonValue golden = dysta::parseJsonFile(
        std::string(PERFBENCH_ROOT) + "/perfbench/golden.json");
    {
        std::ofstream out(root / "perfbench" / "golden.json");
        const dysta::JsonValue& entry = *golden.find("megascale");
        std::string digest = entry.find("digest")->str;
        digest[0] = digest[0] == '0' ? '1' : '0';
        out << "{\"megascale\": {\"seed\": " << entry.find("seed")->number
            << ", \"requests\": " << entry.find("requests")->number
            << ", \"seeds\": " << entry.find("seeds")->number
            << ", \"digest\": \"" << digest << "\"}}\n";
    }
    Command traced = runCommand(driver + " --root " + root.string() +
                                " --workload megascale --trace 1");
    EXPECT_NE(traced.status, 0);
    result = lastLine(traced.out);
    EXPECT_FALSE(result.find("correct")->boolean);
    EXPECT_GT(result.find("failed")->number, 0.0);
    EXPECT_EQ(resultNames(result), benchmarkNames("per_layer"));
    // megascale streams, runs Dysta only, probes off.
    std::set<std::string> na = withPrefixes(
        {"workload.generate_", "batch.", "chaos.", "obs."});
    for (const char* policy : {"FCFS", "SJF", "SDRM3", "PREMA", "Planaria",
                               "Oracle", "Dysta-HW"})
        for (const char* q : {".pick_ns_p50", ".pick_ns_p99"})
            na.insert(std::string("sched.") + policy + q);
    EXPECT_EQ(notApplicable(traced.out), na);
    fs::remove_all(root);
}

TEST(Detlint, BenchmarkSourcesAreClean)
{
    Command lint = runCommand(std::string(DETLINT_BIN) + " " +
                              PERFBENCH_ROOT + "/perfbench");
    EXPECT_EQ(lint.status, 0) << lint.out;
}
