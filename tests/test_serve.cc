/**
 * @file
 * Tests for the multi-accelerator serving subsystem: per-node
 * execution semantics (equivalence with the single-accelerator
 * engine), dispatcher placement policies, SLO-aware admission
 * control, determinism, and cluster-level scaling behaviour.
 */

#include <gtest/gtest.h>

#include <memory>

#include "exp/experiments.hh"
#include "exp/sweep.hh"
#include "sched/engine.hh"
#include "sched/fcfs.hh"
#include "sched/sjf.hh"
#include "serve/cluster_engine.hh"
#include "serve/dispatcher.hh"
#include "test_helpers.hh"

using namespace dysta;

namespace {

PolicyFactory
fcfsNodes()
{
    return [](const NodeProfile&, int) {
        return std::make_unique<FcfsScheduler>();
    };
}

/** Shared profiled context for scenario-level tests (AttNN only). */
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

} // namespace

// --- node/engine semantics -------------------------------------------------

TEST(SimNode, SingleNodeClusterMatchesSchedulerEngine)
{
    test::World world;
    world.addModel("a", {0.2, 0.3}, {0.5, 0.5});
    world.addModel("b", {0.1, 0.1, 0.1}, {0.5, 0.5, 0.5});

    std::vector<Request> engine_reqs;
    for (int i = 0; i < 6; ++i) {
        engine_reqs.push_back(world.request(
            i, i % 2 == 0 ? "a" : "b", 0.15 * i));
    }
    std::vector<Request> cluster_reqs = engine_reqs;

    FcfsScheduler fcfs;
    EngineResult er = SchedulerEngine().run(engine_reqs, fcfs);

    RoundRobinDispatcher rr;
    ClusterEngine cluster(homogeneousCluster(1));
    ClusterResult cr = cluster.run(cluster_reqs, rr, fcfsNodes());

    ASSERT_EQ(engine_reqs.size(), cluster_reqs.size());
    for (size_t i = 0; i < engine_reqs.size(); ++i) {
        EXPECT_DOUBLE_EQ(engine_reqs[i].finishTime,
                         cluster_reqs[i].finishTime);
    }
    EXPECT_DOUBLE_EQ(er.metrics.antt, cr.metrics.antt);
    EXPECT_EQ(er.decisions, cr.decisions);
    EXPECT_EQ(er.preemptions, cr.preemptions);
}

TEST(SimNode, SimultaneousArrivalsMatchSchedulerEngine)
{
    // All requests arrive at t=0: the node's policy must see the
    // whole cohort before its first dispatch decision, exactly like
    // SchedulerEngine's admit-then-select loop. SJF makes the order
    // observable (shortest job first, not arrival order).
    test::World world;
    world.addModel("long", {1.0, 1.0}, {0.5, 0.5});
    world.addModel("short", {0.1}, {0.5});

    std::vector<Request> engine_reqs = {
        world.request(0, "long", 0.0),
        world.request(1, "short", 0.0),
        world.request(2, "short", 0.0),
    };
    std::vector<Request> cluster_reqs = engine_reqs;

    SjfScheduler sjf(world.lut);
    EngineResult er = SchedulerEngine().run(engine_reqs, sjf);

    RoundRobinDispatcher rr;
    ClusterResult cr = ClusterEngine(homogeneousCluster(1))
                           .run(cluster_reqs, rr,
                                [&](const NodeProfile&, int) {
                                    return std::make_unique<
                                        SjfScheduler>(world.lut);
                                });

    // Shorts overtake the long request in both engines.
    EXPECT_DOUBLE_EQ(cluster_reqs[1].finishTime, 0.1);
    EXPECT_DOUBLE_EQ(cluster_reqs[2].finishTime, 0.2);
    for (size_t i = 0; i < engine_reqs.size(); ++i) {
        EXPECT_DOUBLE_EQ(engine_reqs[i].finishTime,
                         cluster_reqs[i].finishTime);
    }
    EXPECT_DOUBLE_EQ(er.metrics.antt, cr.metrics.antt);
}

TEST(SimNode, SpeedFactorScalesExecution)
{
    test::World world;
    world.addModel("a", {1.0}, {0.5});
    std::vector<Request> reqs = {world.request(0, "a", 0.0)};

    ClusterConfig cfg;
    cfg.nodes = {scaledNodeProfile("fast", 4.0)};
    RoundRobinDispatcher rr;
    ClusterResult r = ClusterEngine(cfg).run(reqs, rr, fcfsNodes());
    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 0.25);
    EXPECT_EQ(r.metrics.completed, 1u);
}

TEST(SimNode, EventsCoverAllLayersOnAllNodes)
{
    test::World world;
    world.addModel("a", {0.1, 0.1}, {0.5, 0.5});
    std::vector<Request> reqs;
    for (int i = 0; i < 4; ++i)
        reqs.push_back(world.request(i, "a", 0.0));

    ClusterConfig cfg = homogeneousCluster(2);
    cfg.recordEvents = true;
    RoundRobinDispatcher rr;
    ClusterResult r = ClusterEngine(cfg).run(reqs, rr, fcfsNodes());

    EXPECT_EQ(r.events.size(), 8u); // 4 requests x 2 layers
    for (const auto& ev : r.events) {
        EXPECT_GE(ev.nodeId, 0);
        EXPECT_LT(ev.nodeId, 2);
        EXPECT_NEAR(ev.end - ev.start, 0.1, 1e-12);
    }
    EXPECT_EQ(r.perNodeCompleted.size(), 2u);
    EXPECT_EQ(r.perNodeCompleted[0] + r.perNodeCompleted[1], 4u);
}

// --- dispatchers -----------------------------------------------------------

TEST(Dispatcher, RoundRobinRotates)
{
    test::World world;
    world.addModel("a", {1.0}, {0.5});
    std::vector<Request> reqs;
    for (int i = 0; i < 6; ++i)
        reqs.push_back(world.request(i, "a", 0.0));

    RoundRobinDispatcher rr;
    ClusterResult r = ClusterEngine(homogeneousCluster(3))
                          .run(reqs, rr, fcfsNodes());
    for (size_t n = 0; n < 3; ++n)
        EXPECT_EQ(r.perNodeCompleted[n], 2u);
}

TEST(Dispatcher, LeastOutstandingAvoidsBusyNode)
{
    test::World world;
    world.addModel("long", {10.0}, {0.5});
    world.addModel("short", {0.1}, {0.5});

    // Request 0 occupies node 0; later short requests (spaced wider
    // than their 0.1 s runtime) must all land on the idle node 1
    // under least-outstanding.
    std::vector<Request> reqs = {world.request(0, "long", 0.0)};
    for (int i = 1; i <= 4; ++i)
        reqs.push_back(world.request(i, "short", 0.05 + 0.2 * (i - 1)));

    LeastOutstandingDispatcher lo;
    ClusterResult r = ClusterEngine(homogeneousCluster(2))
                          .run(reqs, lo, fcfsNodes());
    EXPECT_EQ(r.perNodeCompleted[0], 1u);
    EXPECT_EQ(r.perNodeCompleted[1], 4u);
}

TEST(Dispatcher, LeastBacklogWeighsWorkNotCount)
{
    test::World world;
    world.addModel("long", {10.0}, {0.5});
    world.addModel("short", {0.1}, {0.5});

    // Node 0 holds one *long* request; node 1 holds two *short* ones.
    // Count-based placement would pick node 0; work-based must pick
    // node 1 for the next short request.
    std::vector<Request> reqs = {
        world.request(0, "long", 0.0),  // -> node 0 (both empty)
        world.request(1, "short", 0.0), // -> node 1
        world.request(2, "short", 0.0), // -> node 1 (0.1 < 10)
        world.request(3, "short", 0.0), // -> node 1 still lighter
    };

    LeastBacklogDispatcher lb(world.lut);
    ClusterResult r = ClusterEngine(homogeneousCluster(2))
                          .run(reqs, lb, fcfsNodes());
    EXPECT_EQ(r.perNodeCompleted[0], 1u);
    EXPECT_EQ(r.perNodeCompleted[1], 3u);
}

TEST(Dispatcher, LeastBacklogPrefersFasterNode)
{
    test::World world;
    world.addModel("a", {1.0}, {0.5});
    std::vector<Request> reqs = {world.request(0, "a", 0.0)};

    ClusterConfig cfg;
    cfg.nodes = {scaledNodeProfile("slow", 1.0),
                 scaledNodeProfile("fast", 2.0)};
    LeastBacklogDispatcher lb(world.lut);
    ClusterResult r = ClusterEngine(cfg).run(reqs, lb, fcfsNodes());
    EXPECT_EQ(r.perNodeCompleted[0], 0u);
    EXPECT_EQ(r.perNodeCompleted[1], 1u);
    EXPECT_DOUBLE_EQ(reqs[0].finishTime, 0.5);
}

// --- admission control -----------------------------------------------------

TEST(Admission, ShedsHopelessRequestsUnderOverload)
{
    test::World world;
    world.addModel("a", {1.0}, {0.5});
    // Tight SLO (2x isolated): with 10 simultaneous arrivals on one
    // node, most of the queue cannot make its deadline.
    std::vector<Request> reqs;
    for (int i = 0; i < 10; ++i)
        reqs.push_back(world.request(i, "a", 0.0, /*slo=*/2.0));

    ClusterConfig cfg = homogeneousCluster(1);
    cfg.admission.enabled = true;
    cfg.lut = &world.lut;
    RoundRobinDispatcher rr;
    ClusterResult r = ClusterEngine(cfg).run(reqs, rr, fcfsNodes());

    EXPECT_GT(r.metrics.shed, 0u);
    EXPECT_EQ(r.metrics.completed + r.metrics.shed, 10u);
    // Admitted requests were admitted precisely because they fit.
    EXPECT_DOUBLE_EQ(r.metrics.violationRate, 0.0);
    for (const auto& req : reqs) {
        if (req.shed)
            EXPECT_LT(req.finishTime, 0.0);
        else
            EXPECT_GE(req.finishTime, 0.0);
    }
}

TEST(Admission, DisabledAdmitsEverything)
{
    test::World world;
    world.addModel("a", {1.0}, {0.5});
    std::vector<Request> reqs;
    for (int i = 0; i < 10; ++i)
        reqs.push_back(world.request(i, "a", 0.0, /*slo=*/2.0));

    RoundRobinDispatcher rr;
    ClusterResult r = ClusterEngine(homogeneousCluster(1))
                          .run(reqs, rr, fcfsNodes());
    EXPECT_EQ(r.metrics.shed, 0u);
    EXPECT_EQ(r.metrics.completed, 10u);
    EXPECT_GT(r.metrics.violationRate, 0.0);
}

TEST(Admission, FallsBackToServableNodeBeforeShedding)
{
    // Node 0 is so slow (speed 0.25 -> 4 s isolated) that it can
    // never meet the 3 s deadline; node 1 can. Round-robin keeps
    // proposing node 0, but admission must re-route to the fast node
    // instead of shedding — and must not livelock the rotation.
    test::World world;
    world.addModel("a", {1.0}, {0.5});
    std::vector<Request> reqs;
    for (int i = 0; i < 8; ++i)
        reqs.push_back(world.request(i, "a", 1.1 * i, /*slo=*/3.0));

    ClusterConfig cfg;
    cfg.nodes = {scaledNodeProfile("slow", 0.25),
                 scaledNodeProfile("fast", 1.0)};
    cfg.admission.enabled = true;
    cfg.lut = &world.lut;
    RoundRobinDispatcher rr;
    ClusterResult r = ClusterEngine(cfg).run(reqs, rr, fcfsNodes());

    // Arrivals are spaced wider than the fast node's service time,
    // so every request is servable there: nothing may be shed.
    EXPECT_EQ(r.metrics.shed, 0u);
    EXPECT_EQ(r.perNodeCompleted[0], 0u);
    EXPECT_EQ(r.perNodeCompleted[1], 8u);
    EXPECT_DOUBLE_EQ(r.metrics.violationRate, 0.0);
}

TEST(Admission, RequiresLut)
{
    ClusterConfig cfg = homogeneousCluster(1);
    cfg.admission.enabled = true;
    EXPECT_EXIT(ClusterEngine{cfg}, ::testing::ExitedWithCode(1),
                "requires a ModelInfoLut");
}

// --- scenario-level behaviour ----------------------------------------------

TEST(Cluster, DeterministicPerSeed)
{
    SweepCell cell;
    cell.workload.kind = WorkloadKind::MultiAttNN;
    cell.workload.arrivalRate = 100.0;
    cell.workload.arrival.kind = ArrivalKind::Mmpp;
    cell.workload.numRequests = 200;
    cell.workload.seed = 7;
    cell.clusterMode = true;
    cell.cluster.numNodes = 4;
    cell.cluster.dispatcher = "least-backlog";
    cell.cluster.nodeScheduler = "Dysta";

    SweepCellResult a = runSweepCell(ctx(), cell);
    SweepCellResult b = runSweepCell(ctx(), cell);
    EXPECT_TRUE(sameMetrics(a.metrics, b.metrics));
    EXPECT_EQ(a.perNodeCompleted, b.perNodeCompleted);
    EXPECT_EQ(a.decisions, b.decisions);

    cell.workload.seed = 8;
    SweepCellResult c = runSweepCell(ctx(), cell);
    EXPECT_FALSE(sameMetrics(a.metrics, c.metrics));
}

TEST(Cluster, ThroughputScalesMonotonicallyUnderSaturation)
{
    // Offered load far above one node's capacity (~32 req/s): every
    // added node must raise completed throughput.
    SweepCell cell;
    cell.workload.kind = WorkloadKind::MultiAttNN;
    cell.workload.arrivalRate = 150.0;
    cell.workload.numRequests = 300;
    cell.workload.seed = 42;
    cell.clusterMode = true;
    cell.cluster.dispatcher = "least-backlog";
    cell.cluster.nodeScheduler = "Dysta";

    double prev = 0.0;
    for (size_t n : {1u, 2u, 4u}) {
        cell.cluster.numNodes = n;
        SweepCellResult r = runSweepCell(ctx(), cell);
        EXPECT_GT(r.metrics.throughput, prev)
            << "throughput did not grow at " << n << " nodes";
        prev = r.metrics.throughput;
    }
}

TEST(Cluster, BacklogAwareBeatsRoundRobinOnBurstyTraffic)
{
    // The paper's sparsity signal lifted to cluster scope: under
    // bursty MMPP arrivals the sparsity-aware least-backlog front-end
    // must not lose to oblivious rotation on SLO violations. FCFS
    // per node isolates the placement decision (a reordering node
    // scheduler can mask front-end mistakes).
    SweepCell cell;
    cell.workload.kind = WorkloadKind::MultiAttNN;
    cell.workload.arrivalRate = 110.0;
    cell.workload.arrival.kind = ArrivalKind::Mmpp;
    cell.workload.numRequests = 400;
    cell.workload.seed = 42;
    cell.clusterMode = true;
    cell.cluster.numNodes = 4;
    cell.cluster.nodeScheduler = "FCFS";

    auto violations = [&](const std::string& disp) {
        cell.cluster.dispatcher = disp;
        return runSweepCell(ctx(), cell).metrics.violationRate;
    };

    EXPECT_LE(violations("least-backlog"), violations("round-robin"));
}
