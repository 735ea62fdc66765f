/**
 * @file
 * Unit tests for metric computation edge cases: empty and singleton
 * request sets, all-violated SLOs, zero-makespan guards, the
 * completed-subset variant used by cluster runs with load shedding,
 * and the metric-field table behind reports and sameMetrics().
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sched/metrics.hh"
#include "test_helpers.hh"

using namespace dysta;

namespace {

/** A finished request with the given timing. */
Request
finished(test::World& world, int id, double arrival, double finish,
         double slo_mult = 10.0)
{
    Request req = world.request(id, "m", arrival, slo_mult);
    req.finishTime = finish;
    return req;
}

test::World&
world()
{
    static test::World* w = [] {
        auto* built = new test::World();
        built->addModel("m", {0.5, 0.5}, {0.5, 0.5});
        return built;
    }();
    return *w;
}

} // namespace

TEST(Metrics, EmptyRequestSetYieldsZeroes)
{
    Metrics m = computeMetrics({});
    EXPECT_EQ(m.completed, 0u);
    EXPECT_EQ(m.shed, 0u);
    EXPECT_DOUBLE_EQ(m.antt, 0.0);
    EXPECT_DOUBLE_EQ(m.violationRate, 0.0);
    EXPECT_DOUBLE_EQ(m.throughput, 0.0);
    EXPECT_DOUBLE_EQ(m.p99Turnaround, 0.0);
}

TEST(Metrics, SingleRequest)
{
    // Isolated latency 1.0; arrival 0, finish 2 -> turnaround 2.
    std::vector<Request> reqs = {finished(world(), 0, 0.0, 2.0)};
    Metrics m = computeMetrics(reqs);
    EXPECT_EQ(m.completed, 1u);
    EXPECT_NEAR(m.antt, 2.0, 1e-12);
    // p99 over one sample is that sample.
    EXPECT_NEAR(m.p99Turnaround, 2.0, 1e-12);
    EXPECT_NEAR(m.makespan, 2.0, 1e-12);
    EXPECT_NEAR(m.throughput, 0.5, 1e-12);
    EXPECT_DOUBLE_EQ(m.violationRate, 0.0);
}

TEST(Metrics, ZeroMakespanDoesNotDivide)
{
    // Arrival and finish coincide: throughput must stay finite (0).
    std::vector<Request> reqs = {finished(world(), 0, 1.0, 1.0)};
    Metrics m = computeMetrics(reqs);
    EXPECT_DOUBLE_EQ(m.makespan, 0.0);
    EXPECT_DOUBLE_EQ(m.throughput, 0.0);
}

TEST(Metrics, AllViolatedSlos)
{
    // SLO multiplier 2 -> deadline = arrival + 2; finish far past it.
    std::vector<Request> reqs = {
        finished(world(), 0, 0.0, 10.0, 2.0),
        finished(world(), 1, 1.0, 12.0, 2.0),
        finished(world(), 2, 2.0, 14.0, 2.0),
    };
    Metrics m = computeMetrics(reqs);
    EXPECT_DOUBLE_EQ(m.violationRate, 1.0);
    EXPECT_EQ(m.completed, 3u);
}

TEST(Metrics, UnfinishedRequestPanics)
{
    std::vector<Request> reqs = {world().request(0, "m", 0.0)};
    ASSERT_LT(reqs[0].finishTime, 0.0);
    EXPECT_DEATH(computeMetrics(reqs), "unfinished request");
}

TEST(Metrics, CompletedVariantSkipsShedRequests)
{
    std::vector<Request> reqs = {
        finished(world(), 0, 0.0, 2.0),
        world().request(1, "m", 0.5),
        finished(world(), 2, 1.0, 3.0),
    };
    reqs[1].shed = true;
    Metrics m = computeMetricsCompleted(reqs);
    EXPECT_EQ(m.completed, 2u);
    EXPECT_EQ(m.shed, 1u);
    EXPECT_NEAR(m.antt, 2.0, 1e-12);
}

TEST(Metrics, ShedArrivalsDoNotStretchBusyInterval)
{
    // A shed request arriving long before any served one must not
    // deflate throughput: it never occupied the system.
    std::vector<Request> reqs = {
        world().request(0, "m", 0.0),
        finished(world(), 1, 100.0, 101.0),
    };
    reqs[0].shed = true;
    Metrics m = computeMetricsCompleted(reqs);
    EXPECT_NEAR(m.makespan, 1.0, 1e-12);
    EXPECT_NEAR(m.throughput, 1.0, 1e-12);
}

TEST(Metrics, CompletedVariantAllShed)
{
    std::vector<Request> reqs = {world().request(0, "m", 0.0),
                                 world().request(1, "m", 1.0)};
    reqs[0].shed = true;
    reqs[1].shed = true;
    Metrics m = computeMetricsCompleted(reqs);
    EXPECT_EQ(m.completed, 0u);
    EXPECT_EQ(m.shed, 2u);
    EXPECT_DOUBLE_EQ(m.antt, 0.0);
    EXPECT_DOUBLE_EQ(m.throughput, 0.0);
}

TEST(Metrics, SloMissRateCountsShedAsMisses)
{
    // Hand-built set: 4 completed (1 violated, SLO mult 2 ->
    // deadline = arrival + 2) and 2 shed. The regression this pins:
    // violationRate looks only at completed requests (1/4), so an
    // aggressive admission controller could shed its way to a
    // better-looking number; sloMissRate charges the sheds too:
    // (violations + shed) / (completed + shed) = (1 + 2) / (4 + 2).
    std::vector<Request> reqs = {
        finished(world(), 0, 0.0, 1.5, 2.0),  // meets SLO
        finished(world(), 1, 0.0, 1.0, 2.0),  // meets SLO
        finished(world(), 2, 0.0, 1.8, 2.0),  // meets SLO
        finished(world(), 3, 0.0, 9.0, 2.0),  // violated
        world().request(4, "m", 0.5, 2.0),
        world().request(5, "m", 0.6, 2.0),
    };
    reqs[4].shed = true;
    reqs[5].shed = true;
    Metrics m = computeMetricsCompleted(reqs);
    EXPECT_EQ(m.completed, 4u);
    EXPECT_EQ(m.shed, 2u);
    EXPECT_DOUBLE_EQ(m.violationRate, 1.0 / 4.0);
    EXPECT_DOUBLE_EQ(m.sloMissRate, 3.0 / 6.0);
    // The invariant the cluster benches rely on: with sheds present
    // the SLO-miss rate can never undercut the violation rate.
    EXPECT_GE(m.sloMissRate, m.violationRate);
}

TEST(Metrics, SloMissRateEqualsViolationRateWithoutSheds)
{
    std::vector<Request> reqs = {
        finished(world(), 0, 0.0, 1.0, 2.0),
        finished(world(), 1, 0.0, 9.0, 2.0),
    };
    Metrics m = computeMetrics(reqs);
    EXPECT_DOUBLE_EQ(m.violationRate, 0.5);
    EXPECT_DOUBLE_EQ(m.sloMissRate, m.violationRate);
}

TEST(Metrics, SloMissRateIsOneWhenEverythingShed)
{
    std::vector<Request> reqs = {world().request(0, "m", 0.0)};
    reqs[0].shed = true;
    Metrics m = computeMetricsCompleted(reqs);
    EXPECT_EQ(m.completed, 0u);
    EXPECT_DOUBLE_EQ(m.sloMissRate, 1.0);
}

TEST(Metrics, CompletedVariantStillPanicsOnUnfinished)
{
    // Unfinished but *not* shed is an engine bug, even here.
    std::vector<Request> reqs = {world().request(0, "m", 0.0)};
    EXPECT_DEATH(computeMetricsCompleted(reqs), "unfinished request");
}

// --- metric-field table ----------------------------------------------

TEST(MetricFields, KeysAndColumnsAreUnique)
{
    std::set<std::string> csv;
    std::set<std::pair<MetricGroup, std::string>> json;
    for (const MetricField& f : metricFields()) {
        EXPECT_TRUE(csv.insert(f.csv).second) << f.csv;
        EXPECT_TRUE(json.insert({f.group, f.json}).second) << f.json;
    }
}

TEST(MetricFields, SameMetricsSeesEveryField)
{
    Metrics a;
    a.resilience.active = true;
    a.resilience.tiers = {TierStats{}};
    a.batching.active = true;
    a.estimators = {EstimatorAccuracy{"lut"}};
    EXPECT_TRUE(sameMetrics(a, a));

    for (const MetricField& f : metricFields()) {
        Metrics b = a;
        f.set(b, f.get(a) + 1.0);
        EXPECT_FALSE(sameMetrics(a, b)) << f.json;
    }
    Metrics b = a;
    b.batching.active = false;
    EXPECT_FALSE(sameMetrics(a, b));
    b = a;
    b.estimators[0].isolatedRmse = 1.0;
    EXPECT_FALSE(sameMetrics(a, b));
    b = a;
    b.resilience.tiers[0].goodput = 1.0;
    EXPECT_FALSE(sameMetrics(a, b));
}
