/**
 * @file
 * Tests for the unified simulation core: event-calendar ordering,
 * the regression that SchedulerEngine, a 1-node ClusterEngine and a
 * single-accelerator sweep cell report identical schedules AND
 * identical preemption/decision counts for every policy (the
 * counting rules are defined once, in SimNode), and the new Metrics
 * percentile fields.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/dysta.hh"
#include "exp/experiments.hh"
#include "exp/sweep.hh"
#include "sched/engine.hh"
#include "sched/fcfs.hh"
#include "sched/oracle.hh"
#include "sched/prema.hh"
#include "sched/sjf.hh"
#include "serve/cluster_engine.hh"
#include "serve/dispatcher.hh"
#include "sim/core.hh"
#include "sim/event_queue.hh"
#include "test_helpers.hh"
#include "util/rng.hh"
#include "workload/source.hh"

using namespace dysta;
using dysta::test::World;

// --- EventQueue ------------------------------------------------------------

TEST(EventQueue, OrdersByTimeKindNodeSeq)
{
    EventQueue q;
    auto push = [&](double t, SimEventKind k, int node) {
        SimEvent ev;
        ev.time = t;
        ev.kind = k;
        ev.node = node;
        q.push(ev);
    };

    push(2.0, SimEventKind::Decision, -1);
    push(1.0, SimEventKind::LayerComplete, 3);
    push(1.0, SimEventKind::LayerComplete, 1);
    push(1.0, SimEventKind::Arrival, -1);
    push(1.0, SimEventKind::Decision, -1);
    push(0.5, SimEventKind::LayerComplete, 0);

    // time first
    EXPECT_EQ(q.pop().time, 0.5);
    // same time: arrivals, then completions by node id, then decision
    EXPECT_EQ(q.pop().kind, SimEventKind::Arrival);
    SimEvent c1 = q.pop();
    EXPECT_EQ(c1.kind, SimEventKind::LayerComplete);
    EXPECT_EQ(c1.node, 1);
    EXPECT_EQ(q.pop().node, 3);
    EXPECT_EQ(q.pop().kind, SimEventKind::Decision);
    EXPECT_EQ(q.pop().time, 2.0);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualEventsPopInPushOrder)
{
    EventQueue q;
    std::vector<Request> reqs(3);
    for (int i = 0; i < 3; ++i) {
        reqs[i].id = i;
        SimEvent ev;
        ev.time = 1.0;
        ev.kind = SimEventKind::Arrival;
        ev.req = &reqs[i];
        q.push(ev);
    }
    EXPECT_EQ(q.pop().req->id, 0);
    EXPECT_EQ(q.pop().req->id, 1);
    EXPECT_EQ(q.pop().req->id, 2);
}

// --- unified counting semantics --------------------------------------------

namespace {

World
countingWorld(Rng& rng)
{
    World w;
    int num_models = static_cast<int>(rng.uniformInt(2, 4));
    for (int m = 0; m < num_models; ++m) {
        std::vector<double> lat, sp;
        size_t layers = static_cast<size_t>(rng.uniformInt(1, 6));
        for (size_t l = 0; l < layers; ++l) {
            lat.push_back(rng.uniform(0.02, 0.3));
            sp.push_back(rng.uniform(0.2, 0.8));
        }
        w.addModel("m" + std::to_string(m), lat, sp);
    }
    return w;
}

/** Small shared Phase-1 context (profiled once per process). */
const BenchContext&
smallCtx()
{
    static std::unique_ptr<BenchContext> ctx = [] {
        BenchSetup setup;
        setup.samplesPerModel = 20;
        return makeBenchContext(setup);
    }();
    return *ctx;
}

std::unique_ptr<Scheduler>
policyByName(const std::string& name, const World& w)
{
    if (name == "FCFS")
        return std::make_unique<FcfsScheduler>();
    if (name == "SJF")
        return std::make_unique<SjfScheduler>(w.lut);
    if (name == "PREMA")
        return std::make_unique<PremaScheduler>(w.lut);
    if (name == "Oracle")
        return std::make_unique<OracleScheduler>();
    return std::make_unique<DystaScheduler>(w.lut);
}

} // namespace

TEST(UnifiedCounting, EngineAndOneNodeClusterReportIdentically)
{
    // Regression for the historical divergence risk: with two loop
    // implementations, preemption/decision counting rules could (and
    // did threaten to) drift. Both engines now delegate to SimNode,
    // and must report identical counts for every policy on random
    // workloads.
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed * 31337);
        World w = countingWorld(rng);

        std::vector<Request> base;
        double t = 0.0;
        for (int i = 0; i < 30; ++i) {
            t += rng.exponential(10.0);
            std::string model = "m" + std::to_string(rng.uniformInt(
                0, static_cast<int64_t>(w.sets.size()) - 1));
            base.push_back(w.request(i, model, t, 5.0));
        }

        for (const char* name :
             {"FCFS", "SJF", "PREMA", "Oracle", "Dysta"}) {
            std::vector<Request> engine_reqs = base;
            std::vector<Request> cluster_reqs = base;

            auto policy = policyByName(name, w);
            EngineResult er =
                SchedulerEngine().run(engine_reqs, *policy);

            RoundRobinDispatcher rr;
            ClusterResult cr =
                ClusterEngine(homogeneousCluster(1))
                    .run(cluster_reqs, rr,
                         [&](const NodeProfile&, int) {
                             return policyByName(name, w);
                         });

            EXPECT_EQ(er.decisions, cr.decisions)
                << name << " seed " << seed;
            EXPECT_EQ(er.preemptions, cr.preemptions)
                << name << " seed " << seed;
            EXPECT_DOUBLE_EQ(er.metrics.antt, cr.metrics.antt)
                << name << " seed " << seed;
            for (size_t i = 0; i < base.size(); ++i) {
                EXPECT_DOUBLE_EQ(engine_reqs[i].finishTime,
                                 cluster_reqs[i].finishTime)
                    << name << " seed " << seed << " req " << i;
            }
        }
    }

    // The sweep-cell path (runSweepCell, which every sweep runs
    // through) is the third side: every registered scheduler, block
    // sizes 1 and 2, materialized and streaming, on a generated
    // workload over a small profiled context.
    const BenchContext& ctx = smallCtx();
    for (const std::string& name : allSchedulers()) {
        for (size_t block : {size_t{1}, size_t{2}}) {
            for (bool streaming : {false, true}) {
                SweepCell cell;
                cell.workload.arrivalRate = 60.0;
                cell.workload.numRequests = 40;
                cell.scheduler = name;
                cell.layerBlockSize = block;
                cell.streaming = streaming;
                SweepCellResult sr = runSweepCell(ctx, cell);

                EngineConfig ecfg;
                ecfg.layerBlockSize = block;
                SchedulerEngine engine(ecfg);
                auto policy =
                    makeSchedulerByName(name, ctx, cell.workload.kind);

                NodeProfile profile = referenceNodeProfile("n0");
                profile.layerBlockSize = block;
                ClusterEngine cluster(clusterFromProfiles({profile}));
                RoundRobinDispatcher rr;
                PolicyFactory factory = [&](const NodeProfile&, int) {
                    return makeSchedulerByName(name, ctx,
                                               cell.workload.kind);
                };

                EngineResult er;
                ClusterResult cr;
                if (streaming) {
                    WorkloadArrivalSource engine_src(cell.workload,
                                                     ctx.registry);
                    WorkloadArrivalSource cluster_src(cell.workload,
                                                      ctx.registry);
                    er = engine.run(engine_src, *policy);
                    cr = cluster.run(cluster_src, rr, factory);
                } else {
                    std::vector<Request> engine_reqs =
                        generateWorkload(cell.workload, ctx.registry);
                    std::vector<Request> cluster_reqs = engine_reqs;
                    er = engine.run(engine_reqs, *policy);
                    cr = cluster.run(cluster_reqs, rr, factory);
                }

                std::string what = name + " block " +
                                   std::to_string(block) +
                                   (streaming ? " streaming"
                                              : " materialized");
                EXPECT_GT(sr.metrics.completed, 0u) << what;
                EXPECT_TRUE(sameMetrics(er.metrics, sr.metrics))
                    << what;
                EXPECT_TRUE(sameMetrics(cr.metrics, sr.metrics))
                    << what;
                EXPECT_EQ(er.decisions, sr.decisions) << what;
                EXPECT_EQ(cr.decisions, sr.decisions) << what;
                EXPECT_EQ(er.preemptions, sr.preemptions) << what;
                EXPECT_EQ(cr.preemptions, sr.preemptions) << what;
                EXPECT_EQ(er.eventsProcessed, sr.eventsProcessed)
                    << what;
                EXPECT_EQ(cr.eventsProcessed, sr.eventsProcessed)
                    << what;
                EXPECT_EQ(cr.perNodeCompleted, sr.perNodeCompleted)
                    << what;
            }
        }
    }
}

TEST(UnifiedCounting, BlockGranularityAndOverheadAgreeAcrossEngines)
{
    Rng rng(777);
    World w = countingWorld(rng);
    std::vector<Request> base;
    for (int i = 0; i < 12; ++i)
        base.push_back(w.request(i, "m0", 0.05 * i, 5.0));

    std::vector<Request> engine_reqs = base;
    std::vector<Request> cluster_reqs = base;

    EngineConfig ecfg;
    ecfg.layerBlockSize = 2;
    ecfg.decisionOverheadSec = 1e-3;
    SjfScheduler sjf(w.lut);
    EngineResult er = SchedulerEngine(ecfg).run(engine_reqs, sjf);

    ClusterConfig ccfg;
    NodeProfile profile = referenceNodeProfile("n0");
    profile.layerBlockSize = 2;
    profile.decisionOverheadSec = 1e-3;
    ccfg.nodes = {profile};
    RoundRobinDispatcher rr;
    ClusterResult cr = ClusterEngine(ccfg).run(
        cluster_reqs, rr, [&](const NodeProfile&, int) {
            return std::make_unique<SjfScheduler>(w.lut);
        });

    EXPECT_EQ(er.decisions, cr.decisions);
    EXPECT_EQ(er.preemptions, cr.preemptions);
    for (size_t i = 0; i < base.size(); ++i) {
        EXPECT_DOUBLE_EQ(engine_reqs[i].finishTime,
                         cluster_reqs[i].finishTime);
    }
}

TEST(RunSimulation, DirectUseMatchesClusterEngine)
{
    World w;
    w.addModel("a", {0.1, 0.2}, {0.5, 0.5});
    std::vector<Request> a, b;
    for (int i = 0; i < 8; ++i) {
        a.push_back(w.request(i, "a", 0.1 * i));
        b.push_back(w.request(i, "a", 0.1 * i));
    }

    SimConfig sim;
    sim.nodes = {referenceNodeProfile("n0"),
                 referenceNodeProfile("n1")};
    RoundRobinDispatcher rr1;
    SimResult sr = runSimulation(sim, a, rr1, [](const NodeProfile&,
                                                 int) {
        return std::make_unique<FcfsScheduler>();
    });

    RoundRobinDispatcher rr2;
    ClusterResult cr = ClusterEngine(homogeneousCluster(2))
                           .run(b, rr2, [](const NodeProfile&, int) {
                               return std::make_unique<FcfsScheduler>();
                           });
    EXPECT_DOUBLE_EQ(sr.metrics.antt, cr.metrics.antt);
    EXPECT_EQ(sr.decisions, cr.decisions);
    EXPECT_EQ(sr.perNodeCompleted, cr.perNodeCompleted);
}

// --- Metrics percentiles ---------------------------------------------------

TEST(MetricsPercentiles, HandComputedLatencyQuantiles)
{
    World w;
    w.addModel("a", {0.1}, {0.5});
    std::vector<Request> reqs;
    for (int i = 0; i < 5; ++i) {
        Request req = w.request(i, "a", 0.0);
        req.nextLayer = 1;
        req.finishTime = 0.1 * (i + 1); // latencies 0.1 .. 0.5
        reqs.push_back(req);
    }

    Metrics m = computeMetrics(reqs);
    EXPECT_DOUBLE_EQ(m.p50Latency, 0.3);
    EXPECT_NEAR(m.p95Latency, 0.48, 1e-12);
    EXPECT_NEAR(m.p99Latency, 0.496, 1e-12);
    // Normalized turnaround = latency / 0.1.
    EXPECT_DOUBLE_EQ(m.p50Turnaround, 3.0);
    EXPECT_NEAR(m.p95Turnaround, 4.8, 1e-12);
    EXPECT_NEAR(m.p99Turnaround, 4.96, 1e-12);
}

TEST(MetricsPercentiles, OrderedAndWithinRangeOnSimulation)
{
    Rng rng(4242);
    World w = countingWorld(rng);
    std::vector<Request> reqs;
    double t = 0.0;
    for (int i = 0; i < 50; ++i) {
        t += rng.exponential(20.0);
        std::string model = "m" + std::to_string(rng.uniformInt(
            0, static_cast<int64_t>(w.sets.size()) - 1));
        reqs.push_back(w.request(i, model, t, 8.0));
    }
    DystaScheduler dysta(w.lut);
    EngineResult r = SchedulerEngine().run(reqs, dysta);

    const Metrics& m = r.metrics;
    EXPECT_GT(m.p50Latency, 0.0);
    EXPECT_LE(m.p50Latency, m.p95Latency);
    EXPECT_LE(m.p95Latency, m.p99Latency);
    EXPECT_LE(m.p50Turnaround, m.p95Turnaround);
    EXPECT_LE(m.p95Turnaround, m.p99Turnaround);
    EXPECT_GE(m.p50Turnaround, 1.0); // turnaround can't beat isolated
    EXPECT_LE(m.p99Latency, m.makespan + 1e-12);
}
