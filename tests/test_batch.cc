/**
 * @file
 * Tests of the dynamic-batching subsystem (src/batch/): spec-grammar
 * parsing, batch formation invariants on SimNode (size cap, fill-
 * window hold, batch-aware step latency, continuous joins at layer
 * boundaries only, a batch of one reproducing the unbatched
 * schedule), the composition policies (fifo / greedy /
 * sparsity-aware), per-node scheduler overrides in fleet specs, the
 * goodput metric, and the determinism contract: batching off keeps
 * every report inert, and the batching grid replays bit-identically
 * serial vs parallel.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/scenario.hh"
#include "batch/batch.hh"
#include "exp/sweep.hh"
#include "obs/telemetry.hh"
#include "sched/fcfs.hh"
#include "sched/sjf.hh"
#include "serve/dispatcher.hh"
#include "sim/core.hh"
#include "sim/node.hh"
#include "test_helpers.hh"
#include "workload/cluster_spec.hh"

using namespace dysta;

namespace {

/** Per-layer latencies chosen so the composition policies disagree
 *  (see CompositionPoliciesRankCandidatesDifferently). */
test::World&
world()
{
    static test::World* w = [] {
        auto* built = new test::World();
        built->addModel("a", {0.2}, {0.5});
        built->addModel("b", {0.3, 0.3}, {0.5, 0.5});
        built->addModel("c", {0.25, 0.25, 0.25, 0.25},
                        {0.5, 0.5, 0.5, 0.5});
        built->addModel("d", {0.8}, {0.5});
        built->addModel("one", {1.0}, {0.5});
        built->addModel("two", {1.0, 1.0}, {0.5, 0.5});
        return built;
    }();
    return *w;
}

/** Shared profiled context for cluster-level tests (AttNN only). */
BenchContext&
ctx()
{
    static std::unique_ptr<BenchContext> instance = [] {
        BenchSetup setup;
        setup.samplesPerModel = 30;
        setup.includeCnn = false;
        return makeBenchContext(setup);
    }();
    return *instance;
}

/** A batching cell over the profiled AttNN workload. */
SweepCell
batchCell(const std::string& batcher)
{
    SweepCell cell;
    cell.workload.kind = WorkloadKind::MultiAttNN;
    cell.workload.arrivalRate = 120.0;
    cell.workload.arrival.kind = ArrivalKind::Mmpp;
    cell.workload.numRequests = 150;
    cell.clusterMode = true;
    cell.cluster.nodes = fleetFromSpec("sanger:2");
    cell.cluster.dispatcher = "least-outstanding";
    cell.cluster.batcher = batcher;
    return cell;
}

/** An SJF run over a staggered multi-model queue, kept whole. */
struct SoloRun
{
    SimResult result;
    std::vector<double> finish;
};

SoloRun
runSolo(size_t fleet, size_t block, const std::string& batcher)
{
    // Arrivals outpace the fleet, so queues build and SJF preempts
    // long requests at block boundaries when shorter ones arrive.
    const char* models[] = {"c", "d", "b", "two", "a", "one"};
    std::vector<Request> reqs;
    reqs.reserve(48);
    for (int i = 0; i < 48; ++i)
        reqs.push_back(world().request(i, models[i % 6], 0.11 * i));

    SimConfig sim;
    NodeProfile profile = referenceNodeProfile();
    profile.layerBlockSize = block;
    profile.decisionOverheadSec = 1e-3;
    sim.nodes.assign(fleet, profile);
    sim.recordEvents = true;
    sim.batching = batchConfigFromSpec(batcher);
    LeastOutstandingDispatcher dispatcher;
    SoloRun run;
    run.result = runSimulation(sim, reqs, dispatcher,
                               [](const NodeProfile&, int) {
                                   return std::make_unique<SjfScheduler>(
                                       world().lut);
                               });
    for (const Request& r : reqs)
        run.finish.push_back(r.finishTime);
    return run;
}

} // namespace

// --- spec grammar -----------------------------------------------------------

TEST(BatchSpecs, EmptySpecDisablesAndFullSpecRoundTrips)
{
    BatchConfig off = batchConfigFromSpec("");
    EXPECT_FALSE(off.enabled);
    EXPECT_EQ(off.str(), "");

    BatchConfig cfg = batchConfigFromSpec(
        "batcher:size=8,delay=2ms,compose=sparsity,overhead=0.1");
    EXPECT_TRUE(cfg.enabled);
    EXPECT_EQ(cfg.maxSize, 8);
    EXPECT_DOUBLE_EQ(cfg.maxDelaySec, 0.002);
    EXPECT_EQ(cfg.compose, BatchCompose::Sparsity);
    EXPECT_DOUBLE_EQ(cfg.overhead, 0.1);
    // str() round-trips through the parser.
    BatchConfig again = batchConfigFromSpec(cfg.str());
    EXPECT_EQ(again.str(), cfg.str());
    EXPECT_EQ(again.maxSize, cfg.maxSize);
    EXPECT_DOUBLE_EQ(again.maxDelaySec, cfg.maxDelaySec);

    // Delay accepts seconds with or without a unit suffix.
    EXPECT_DOUBLE_EQ(
        batchConfigFromSpec("batcher:delay=0.5s").maxDelaySec, 0.5);
    EXPECT_DOUBLE_EQ(
        batchConfigFromSpec("batcher:delay=0.002").maxDelaySec,
        0.002);

    // Omitted knobs keep their defaults (form immediately, fifo).
    BatchConfig min = batchConfigFromSpec("batcher:size=4");
    EXPECT_EQ(min.maxSize, 4);
    EXPECT_DOUBLE_EQ(min.maxDelaySec, 0.0);
    EXPECT_EQ(min.compose, BatchCompose::Fifo);
    EXPECT_DOUBLE_EQ(min.overhead, 0.05);
}

TEST(BatchSpecs, MalformedSpecsAreFatal)
{
    EXPECT_DEATH(batchConfigFromSpec("batcher:size=0"),
                 "size must be >= 1");
    EXPECT_DEATH(batchConfigFromSpec("batcher:overhead=-1"),
                 "overhead must be >= 0");
    EXPECT_DEATH(batchConfigFromSpec("batcher:compose=best"),
                 "unknown policy");
    EXPECT_DEATH(batchConfigFromSpec("batcher:nope=1"),
                 "unknown parameter");
    EXPECT_DEATH(batchConfigFromSpec("batcher:delay=abc"),
                 "non-negative duration");
    EXPECT_DEATH(batchConfigFromSpec("scheduler:size=2"),
                 "expected batcher:");
}

// --- formation invariants ---------------------------------------------------

TEST(BatchFormation, SizeCapAndStepLatencyWithOverhead)
{
    SimNode node(0, referenceNodeProfile(),
                 std::make_unique<FcfsScheduler>());
    BatchConfig cfg = batchConfigFromSpec(
        "batcher:size=8,compose=fifo,overhead=0.05");
    node.setBatching(cfg);

    std::vector<Request> reqs;
    reqs.reserve(10);
    for (int i = 0; i < 10; ++i) {
        reqs.push_back(world().request(i, "one", 0.0));
        node.enqueue(&reqs.back(), 0.0);
    }

    double end = node.beginStep(0.0);
    // The batch fills to the cap, never past it.
    EXPECT_EQ(node.stepMembers().size(), 8u);
    // step = max member latency * (1 + overhead * (k - 1)).
    EXPECT_DOUBLE_EQ(node.stepLatency(), 1.0 * (1.0 + 0.05 * 7));
    EXPECT_DOUBLE_EQ(end, 1.35);

    std::vector<Request*> done = node.completeStep();
    // Every member advanced (and here finished) its own layer, and
    // executed time is the member's own latency, not the step's.
    ASSERT_EQ(done.size(), 8u);
    for (const Request* r : done) {
        EXPECT_EQ(r->nextLayer, 1u);
        EXPECT_DOUBLE_EQ(r->executedTime, 1.0);
    }
    EXPECT_EQ(node.outstanding(), 2u);
    EXPECT_EQ(node.batchCounters().formed, 1u);
    EXPECT_EQ(node.batchCounters().steps, 1u);
    EXPECT_EQ(node.batchCounters().memberSteps, 8u);
}

TEST(BatchFormation, HoldWaitsForTheFillWindowOrTheCap)
{
    SimNode node(0, referenceNodeProfile(),
                 std::make_unique<FcfsScheduler>());
    node.setBatching(batchConfigFromSpec("batcher:size=4,delay=10ms"));

    std::vector<Request> reqs;
    reqs.reserve(4);
    reqs.push_back(world().request(0, "one", 0.0));
    node.enqueue(&reqs.back(), 0.0);
    reqs.push_back(world().request(1, "one", 0.004));
    node.enqueue(&reqs.back(), 0.004);

    // Under-full and inside the window: hold until the *oldest*
    // waiter has aged out.
    double release = -1.0;
    EXPECT_TRUE(node.batchShouldHold(0.005, &release));
    EXPECT_DOUBLE_EQ(release, 0.010);
    // Window expired: form now.
    EXPECT_FALSE(node.batchShouldHold(0.010, &release));

    // A full batch never holds, regardless of age.
    reqs.push_back(world().request(2, "one", 0.005));
    node.enqueue(&reqs.back(), 0.005);
    reqs.push_back(world().request(3, "one", 0.005));
    node.enqueue(&reqs.back(), 0.005);
    EXPECT_FALSE(node.batchShouldHold(0.006, &release));
}

TEST(BatchFormation, ZeroDelayOrDisabledNeverHolds)
{
    SimNode node(0, referenceNodeProfile(),
                 std::make_unique<FcfsScheduler>());
    std::vector<Request> reqs;
    reqs.reserve(1);
    reqs.push_back(world().request(0, "one", 0.0));
    node.enqueue(&reqs.back(), 0.0);

    double release = -1.0;
    // Batching disabled: the hold rule is inert.
    EXPECT_FALSE(node.batchShouldHold(0.0, &release));
    // delay=0 forms immediately even under-full.
    node.setBatching(batchConfigFromSpec("batcher:size=8"));
    EXPECT_FALSE(node.batchShouldHold(0.0, &release));
}

TEST(BatchFormation, ContinuousJoinOnlyAtLayerBoundaries)
{
    NodeProfile profile = referenceNodeProfile();
    profile.layerBlockSize = 2;
    SimNode node(0, profile, std::make_unique<FcfsScheduler>());
    node.setBatching(
        batchConfigFromSpec("batcher:size=2,overhead=0"));

    std::vector<Request> reqs;
    reqs.reserve(2);
    reqs.push_back(world().request(0, "two", 0.0));
    Request* first = &reqs.back();
    node.enqueue(first, 0.0);

    double end = node.beginStep(0.0);
    EXPECT_EQ(node.stepMembers().size(), 1u);
    EXPECT_DOUBLE_EQ(end, 1.0);

    // A request arriving mid-step waits for the layer boundary; it
    // cannot enter the in-flight step.
    reqs.push_back(world().request(1, "two", 0.3));
    Request* late = &reqs.back();
    node.enqueue(late, 0.3);
    EXPECT_FALSE(node.inStep(late));

    EXPECT_TRUE(node.completeStep().empty());
    ASSERT_TRUE(node.blockContinues());
    end = node.continueStep(1.0);
    EXPECT_DOUBLE_EQ(end, 2.0);
    EXPECT_EQ(node.stepMembers().size(), 2u);
    EXPECT_TRUE(node.inStep(late));
    EXPECT_EQ(node.batchCounters().joins, 1u);

    // Each member advances its *own* next layer per step.
    std::vector<Request*> done = node.completeStep();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], first);
    EXPECT_EQ(first->nextLayer, 2u);
    EXPECT_EQ(late->nextLayer, 1u);
}

TEST(BatchFormation, BatchOfOneReproducesTheUnbatchedRun)
{
    // A batch step with a member cap of 1 is exactly one layer of the
    // anchor: the same schedule, bit for bit, as batching off.
    for (size_t fleet : {1u, 2u}) {
        for (size_t block : {1u, 3u}) {
            SCOPED_TRACE("nodes=" + std::to_string(fleet) +
                         " block=" + std::to_string(block));
            SoloRun off = runSolo(fleet, block, "");
            SoloRun one = runSolo(fleet, block, "batcher:size=1");
            EXPECT_EQ(off.finish, one.finish);
            EXPECT_EQ(off.result.decisions, one.result.decisions);
            EXPECT_EQ(off.result.preemptions, one.result.preemptions);
            EXPECT_EQ(off.result.eventsProcessed,
                      one.result.eventsProcessed);
            ASSERT_EQ(off.result.events.size(),
                      one.result.events.size());
            for (size_t i = 0; i < off.result.events.size(); ++i) {
                const ClusterEvent& a = off.result.events[i];
                const ClusterEvent& b = one.result.events[i];
                EXPECT_EQ(a.nodeId, b.nodeId) << i;
                EXPECT_EQ(a.requestId, b.requestId) << i;
                EXPECT_EQ(a.layer, b.layer) << i;
                EXPECT_EQ(a.start, b.start) << i;
                EXPECT_EQ(a.end, b.end) << i;
            }
            EXPECT_FALSE(off.result.metrics.batching.active);
            EXPECT_TRUE(one.result.metrics.batching.active);
            EXPECT_EQ(one.result.metrics.batching.meanOccupancy, 1.0);
            EXPECT_EQ(one.result.metrics.batching.joins, 0.0);
        }
    }
    // The comparison covers preemptive schedules, not just FIFO runs.
    EXPECT_GT(runSolo(1, 1, "").result.preemptions, 0u);
}

TEST(BatchFormation, CompositionPoliciesRankCandidatesDifferently)
{
    // Anchor "a" has per-layer time 0.2; the candidates "b" / "c" /
    // "d" are picked apart by policy: fifo takes queue order ("d"),
    // greedy the shortest remaining ("b", 0.6s), sparsity-aware the
    // closest per-layer time to the anchor ("c", 0.25 vs 0.2).
    struct Case
    {
        const char* compose;
        const char* pick;
    };
    for (const Case& c : {Case{"fifo", "d"}, Case{"greedy", "b"},
                          Case{"sparsity", "c"}}) {
        SimNode node(0, referenceNodeProfile(),
                     std::make_unique<SjfScheduler>(world().lut));
        node.setBatching(batchConfigFromSpec(
            std::string("batcher:size=2,compose=") + c.compose));

        std::vector<Request> reqs;
        reqs.reserve(4);
        int id = 0;
        for (const char* model : {"d", "c", "b", "a"}) {
            reqs.push_back(world().request(id++, model, 0.0));
            node.enqueue(&reqs.back(), 0.0);
        }

        node.beginStep(0.0);
        ASSERT_EQ(node.stepMembers().size(), 2u) << c.compose;
        // SJF anchors on the shortest job ("a") in every variant.
        EXPECT_EQ(node.stepMembers()[0]->modelName, "a")
            << c.compose;
        EXPECT_EQ(node.stepMembers()[1]->modelName, c.pick)
            << c.compose;
    }
}

TEST(BatchFormation, EstimatorLessPoliciesFallBackToQueueOrder)
{
    // FCFS has no estimator: greedy and sparsity degrade to fifo
    // instead of crashing or reordering on garbage.
    SimNode node(0, referenceNodeProfile(),
                 std::make_unique<FcfsScheduler>());
    node.setBatching(
        batchConfigFromSpec("batcher:size=3,compose=sparsity"));

    std::vector<Request> reqs;
    reqs.reserve(3);
    int id = 0;
    for (const char* model : {"d", "c", "b"}) {
        reqs.push_back(world().request(id++, model, 0.0));
        node.enqueue(&reqs.back(), 0.0);
    }
    node.beginStep(0.0);
    ASSERT_EQ(node.stepMembers().size(), 3u);
    EXPECT_EQ(node.stepMembers()[0]->modelName, "d");
    EXPECT_EQ(node.stepMembers()[1]->modelName, "c");
    EXPECT_EQ(node.stepMembers()[2]->modelName, "b");
}

// --- fleet grammar ----------------------------------------------------------

TEST(FleetSpecs, PerNodeSchedulerSuffixParses)
{
    std::vector<NodeProfile> fleet =
        fleetFromSpec("sanger:2=dysta,eyeriss-xl:1=sjf@rackB");
    ASSERT_EQ(fleet.size(), 3u);
    EXPECT_EQ(fleet[0].scheduler, "dysta");
    EXPECT_EQ(fleet[1].scheduler, "dysta");
    EXPECT_EQ(fleet[0].domain, "");
    EXPECT_EQ(fleet[2].scheduler, "sjf");
    EXPECT_EQ(fleet[2].domain, "rackB");
    // No suffix inherits the cluster-wide default.
    EXPECT_EQ(fleetFromSpec("sanger:2")[0].scheduler, "");

    EXPECT_DEATH(fleetFromSpec("sanger:2="), "empty scheduler");
}

TEST(FleetSpecs, PerNodeSchedulerOverridesTheClusterDefault)
{
    // Pinning fcfs on every node must reproduce the run whose
    // cluster-wide default is fcfs, bit for bit, whatever the
    // (overridden) default says.
    SweepCell pinned = batchCell("");
    pinned.cluster.nodes = fleetFromSpec("sanger:2=fcfs");
    pinned.cluster.nodeScheduler = "dysta";
    SweepCell uniform = batchCell("");
    uniform.cluster.nodeScheduler = "fcfs";

    SweepCellResult a = runSweepCell(ctx(), pinned);
    SweepCellResult b = runSweepCell(ctx(), uniform);
    EXPECT_TRUE(sameMetrics(a.metrics, b.metrics));
    EXPECT_EQ(a.decisions, b.decisions);
    EXPECT_EQ(a.preemptions, b.preemptions);

    // A mixed-policy fleet serves to completion.
    SweepCell mixed = batchCell("");
    mixed.cluster.nodes = fleetFromSpec("sanger:1=fcfs,sanger:1=sjf");
    SweepCellResult m = runSweepCell(ctx(), mixed);
    EXPECT_GT(m.metrics.completed, 0u);
}

// --- goodput ----------------------------------------------------------------

TEST(Goodput, TracksThroughputDiscountedByViolations)
{
    SweepCellResult r = runSweepCell(ctx(), batchCell(""));
    const Metrics& m = r.metrics;
    EXPECT_GT(m.goodput, 0.0);
    EXPECT_LE(m.goodput, m.throughput);
    // goodput = (completed - violations) / makespan, i.e. the
    // throughput with deadline-missing completions discounted.
    EXPECT_NEAR(m.goodput, m.throughput * (1.0 - m.violationRate),
                1e-9);
}

TEST(Goodput, AveragesAcrossSeedReplicasLikeEveryOtherMetric)
{
    Metrics a;
    a.goodput = 1.0;
    a.completed = 3;
    a.batching.active = true;
    a.batching.formed = 10.0;
    a.batching.meanOccupancy = 2.0;
    Metrics b;
    b.goodput = 3.0;
    b.completed = 4;
    b.batching.active = true;
    b.batching.formed = 20.0;
    b.batching.meanOccupancy = 4.0;
    Metrics avg = averageMetrics({a, b});
    EXPECT_DOUBLE_EQ(avg.goodput, 2.0);
    // Counts average to the truncated mean.
    EXPECT_EQ(avg.completed, 3u);
    EXPECT_TRUE(avg.batching.active);
    EXPECT_DOUBLE_EQ(avg.batching.formed, 15.0);
    EXPECT_DOUBLE_EQ(avg.batching.meanOccupancy, 3.0);
}

// --- scenario plumbing ------------------------------------------------------

TEST(BatchScenario, BatcherAxisValidatesAndRequiresAFleet)
{
    ScenarioSpec spec = builtinScenario("batching");
    ASSERT_EQ(spec.batchers.size(), 4u);
    EXPECT_EQ(spec.batchers[0], "none");
    validateScenario(spec); // must not fatal
    // parse -> serialize -> parse is the identity for the new key.
    ScenarioSpec reparsed = parseScenario(serializeScenario(spec));
    EXPECT_EQ(serializeScenario(reparsed), serializeScenario(spec));

    ScenarioSpec single = spec;
    single.fleets.clear();
    single.dispatchers.clear();
    EXPECT_DEATH(validateScenario(single),
                 "'batcher' requires a 'fleet'");

    ScenarioSpec bad = spec;
    bad.batchers = {"batcher:compose=best"};
    EXPECT_DEATH(validateScenario(bad), "unknown policy");
}

// --- determinism ------------------------------------------------------------

TEST(BatchDeterminism, SameSeedBatchRunsAreBitIdentical)
{
    SweepCell cell =
        batchCell("batcher:size=8,delay=2ms,compose=sparsity");
    SweepCellResult a = runSweepCell(ctx(), cell);
    SweepCellResult b = runSweepCell(ctx(), cell);
    EXPECT_TRUE(sameMetrics(a.metrics, b.metrics));
    EXPECT_EQ(a.decisions, b.decisions);
    // Batching actually bit: batches formed with real occupancy.
    EXPECT_TRUE(a.metrics.batching.active);
    EXPECT_GT(a.metrics.batching.formed, 0.0);
    EXPECT_GT(a.metrics.batching.meanOccupancy, 1.0);
}

TEST(BatchDeterminism, BatchingOffKeepsReportsInert)
{
    // No batcher spec: the stats must stay inactive and zero, so
    // batching-off reports are byte-identical to builds without the
    // subsystem (the sdysta --diff CI gate relies on this).
    SweepCellResult r = runSweepCell(ctx(), batchCell(""));
    EXPECT_FALSE(r.metrics.batching.active);
    EXPECT_EQ(r.metrics.batching.formed, 0.0);
    EXPECT_EQ(r.metrics.batching.joins, 0.0);
    EXPECT_EQ(r.metrics.batching.steps, 0.0);
    EXPECT_EQ(r.metrics.batching.meanOccupancy, 0.0);

    // Every unbatched block still begins as a (one-member) step; the
    // telemetry log must not see it as a formed batch.
    Telemetry telemetry;
    SweepCell traced = batchCell("");
    traced.telemetry = &telemetry;
    SweepCellResult t = runSweepCell(ctx(), traced);
    EXPECT_EQ(t.metrics.completed, r.metrics.completed);
    EXPECT_GT(telemetry.execStarts(), 0u);
    EXPECT_EQ(telemetry.batchesFormed(), 0u);
    EXPECT_EQ(telemetry.batchJoins(), 0u);
    for (const TelemetryEvent& ev : telemetry.orderedEvents()) {
        EXPECT_NE(ev.kind, TeleKind::BatchForm);
        EXPECT_NE(ev.kind, TeleKind::BatchJoin);
    }

    // The same sink does record them once batching is on.
    SweepCell batched = batchCell("batcher:size=8,compose=fifo");
    batched.telemetry = &telemetry;
    runSweepCell(ctx(), batched);
    EXPECT_GT(telemetry.batchesFormed(), 0u);
}

TEST(BatchDeterminism, BatchGridBitIdenticalAcrossJobs)
{
    // The batching.scn axis shape: an off slice plus the three
    // composition policies at matched knobs, serial vs 4 jobs.
    std::vector<SweepCell> cells;
    cells.push_back(batchCell(""));
    cells.push_back(batchCell("batcher:size=8,delay=2ms,compose=fifo"));
    cells.push_back(
        batchCell("batcher:size=8,delay=2ms,compose=greedy"));
    cells.push_back(
        batchCell("batcher:size=8,delay=2ms,compose=sparsity"));
    SweepRunner serial(ctx(), 1);
    SweepRunner parallel(ctx(), 4);
    std::vector<SweepCellResult> a = serial.run(cells);
    std::vector<SweepCellResult> b = parallel.run(cells);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(sameMetrics(a[i].metrics, b[i].metrics)) << i;
    }
    // The off slice reports no batching; the batched slices do.
    EXPECT_FALSE(a[0].metrics.batching.active);
    for (size_t i = 1; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].metrics.batching.active) << i;
        EXPECT_GT(a[i].metrics.batching.formed, 0.0) << i;
    }
}
