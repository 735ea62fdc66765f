/**
 * @file
 * Allocation budget of the per-event path.
 *
 * This binary replaces the global operator new with a counting one, so
 * it must stay its own test executable. It pins three properties:
 *  - a passing panicIf/fatalIf with a literal message allocates
 *    nothing (the const char* overloads build the std::string only
 *    when the check fires);
 *  - the LastN predictor window holds what was observed, not lastN
 *    slots reserved up front;
 *  - a streaming megascale-shaped run, and every batcher slice of the
 *    batching scenario, allocates less than once per simulated event.
 *    The budget is measured as the growth between two request counts,
 *    so context, fleet and calendar set-up cancel out and only the
 *    per-event cost remains.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "api/scenario.hh"
#include "core/latency_predictor.hh"
#include "exp/experiments.hh"
#include "exp/sweep.hh"
#include "util/logging.hh"

namespace {

std::atomic<size_t> g_allocations{0};
std::atomic<size_t> g_bytes{0};

} // namespace

void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return operator new(size);
}

// std::stable_sort's temporary buffer comes from the nothrow form;
// replace it too, so every form pairs with the free() below (a
// sanitizer runtime would otherwise supply its own).
void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void*
operator new[](std::size_t size, const std::nothrow_t& tag) noexcept
{
    return operator new(size, tag);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

using namespace dysta;

namespace {

size_t
allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

size_t
bytesAllocated()
{
    return g_bytes.load(std::memory_order_relaxed);
}

// Read through a volatile so the checks cannot be folded away.
volatile bool g_false = false;

TEST(AllocBudget, PassingLiteralChecksAllocateNothing)
{
    constexpr int kChecks = 1000;
    size_t before = allocations();
    for (int i = 0; i < kChecks; ++i) {
        panicIf(g_false, "BucketCalendar: pop of empty calendar");
        fatalIf(g_false, "runSimulation: request without a trace");
    }
    EXPECT_EQ(allocations() - before, 0u);

    // The counter sees what the literal overloads avoid: a message
    // longer than the small-string buffer, built before the call.
    before = allocations();
    for (int i = 0; i < kChecks; ++i)
        panicIf(g_false,
                std::string("BucketCalendar: pop of empty calendar"));
    EXPECT_GE(allocations() - before, static_cast<size_t>(kChecks));
}

TEST(AllocBudget, FiringLiteralCheckKeepsItsMessage)
{
    bool prev = setFatalThrows(true);
    try {
        fatalIf(!g_false, "ModelInfoLut: no entry for bert/dense");
        ADD_FAILURE() << "fatalIf did not fire";
    } catch (const FatalError& err) {
        EXPECT_STREQ(err.what(), "ModelInfoLut: no entry for bert/dense");
    }
    setFatalThrows(prev);
}

TEST(AllocBudget, LastNWindowIsBoundedByTheObservations)
{
    // lastN is a scenario parameter with no upper bound; the window
    // must hold only what was observed, not lastN slots up front.
    ModelInfo info;
    info.model = "m";
    for (int l = 0; l < 8; ++l) {
        info.avgLayerLatency.push_back(0.01);
        info.avgLayerSparsity.push_back(0.5);
    }
    info.avgNetworkSparsity = 0.5;
    PredictorConfig cfg;
    cfg.strategy = PredictorStrategy::LastN;
    cfg.lastN = 1000000;
    size_t before = bytesAllocated();
    SparseLatencyPredictor pred(info, cfg);
    for (size_t l = 0; l < info.avgLayerSparsity.size(); ++l)
        pred.observe(l, 0.25);
    EXPECT_GT(pred.gamma(), 0.0);
    EXPECT_LT(bytesAllocated() - before, 1024u);
}

struct RunCost
{
    size_t allocations = 0;
    size_t events = 0;
};

/** Allocations and calendar events of one pass over the grid. */
RunCost
runGrid(const BenchContext& ctx, const std::vector<SweepCell>& cells)
{
    RunCost cost;
    size_t before = allocations();
    for (const SweepCell& cell : cells)
        cost.events += runSweepCell(ctx, cell).eventsProcessed;
    cost.allocations = allocations() - before;
    return cost;
}

TEST(AllocBudget, StreamingRunAllocatesLessThanOncePerEvent)
{
    // megascale.scn as shipped (streaming source, bucket calendar,
    // sketch metrics, admission, least-outstanding dispatch, Dysta
    // per node), at two small request counts on one shared context.
    ScenarioSpec spec =
        parseScenarioFile(std::string(DYSTA_SCENARIO_DIR) +
                          "/megascale.scn");
    spec.samples = 30;
    std::unique_ptr<BenchContext> ctx =
        makeBenchContext(scenarioSetup(spec));

    spec.requests = 1000;
    RunCost small = runGrid(*ctx, scenarioCells(spec));
    spec.requests = 3000;
    RunCost large = runGrid(*ctx, scenarioCells(spec));

    ASSERT_GT(large.events, small.events);
    size_t events = large.events - small.events;
    size_t allocs = large.allocations > small.allocations
                        ? large.allocations - small.allocations
                        : 0;
    EXPECT_LT(allocs, events)
        << allocs << " allocations over " << events
        << " additional simulated events";
}

TEST(AllocBudget, BatchedRunAllocatesLessThanOncePerEventPerSlice)
{
    // batching.scn as shipped (materialized source, two sanger nodes,
    // least-outstanding dispatch, Dysta per node, deep bursty
    // queues), one seed, each batcher slice measured on its own so a
    // cheap unbatched slice cannot hide a costly composition.
    ScenarioSpec spec =
        parseScenarioFile(std::string(DYSTA_SCENARIO_DIR) +
                          "/batching.scn");
    spec.samples = 30;
    spec.seeds = 1;
    std::unique_ptr<BenchContext> ctx =
        makeBenchContext(scenarioSetup(spec));

    auto perSlice = [&](int requests) {
        spec.requests = requests;
        std::vector<RunCost> costs;
        for (const SweepCell& cell : scenarioCells(spec))
            costs.push_back(runGrid(*ctx, {cell}));
        return costs;
    };
    std::vector<RunCost> small = perSlice(400);
    std::vector<RunCost> large = perSlice(1200);
    std::vector<SweepCell> cells = scenarioCells(spec);

    ASSERT_EQ(cells.size(), 4u);
    ASSERT_EQ(small.size(), cells.size());
    ASSERT_EQ(large.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        const std::string& slice = cells[i].cluster.batcher;
        ASSERT_GT(large[i].events, small[i].events) << slice;
        size_t events = large[i].events - small[i].events;
        size_t allocs = large[i].allocations > small[i].allocations
                            ? large[i].allocations - small[i].allocations
                            : 0;
        EXPECT_LT(allocs, events)
            << "batcher '" << slice << "': " << allocs
            << " allocations over " << events
            << " additional simulated events";
    }
}

} // namespace
