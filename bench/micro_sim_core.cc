/**
 * @file
 * Microbenchmark of the simulation core's decision hot path:
 * decisions/sec of each policy's engine-facing `pickNext` (heap peek
 * or dense cached scan) against the legacy linear-scan baseline (the
 * old engine's per-decision cost: build a candidate view, then
 * `selectNext` with per-candidate hash lookups, string-keyed LUT
 * fetches and predictor re-evaluations).
 *
 * Two modes per policy and queue depth:
 *  - steady: repeated decisions over an unchanged ready set — the
 *    block-boundary re-dispatch with no progress in between;
 *  - churn: each decision is followed by a layer completion of the
 *    picked request (onLayerComplete, wrapping at the trace end),
 *    exercising the lazy re-keying path.
 *
 * `--telemetry-check` instead gates the telemetry subsystem's
 * disabled-path cost: the same cluster run is timed with a null
 * telemetry sink and with an attached no-op sink (all channels off,
 * no probes), medians compared. The two runs must produce identical
 * metrics (the bit-identity guarantee) and the attached-sink median
 * must stay within `--check-bound` of the null-sink median; exit 1
 * otherwise (the CI guard against emission-point regressions).
 *
 * Usage: micro_sim_core [--queue N] [--iters N]
 *        micro_sim_core --telemetry-check [--check-reps K]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exp/experiments.hh"
#include "exp/sweep.hh"
#include "obs/telemetry.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace dysta;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** A policy with a queue of `depth` all-arrived requests. */
struct Harness
{
    std::unique_ptr<Scheduler> policy;
    std::vector<Request*> ready;
    std::vector<const Request*> view;

    Harness(const std::string& name, const BenchContext& ctx,
            std::vector<Request>& requests, size_t depth)
    {
        policy = makeSchedulerByName(name, ctx,
                                     WorkloadKind::MultiAttNN);
        policy->reset();
        for (size_t i = 0; i < depth; ++i) {
            Request& req = requests[i];
            req.nextLayer = 0;
            req.executedTime = 0.0;
            req.lastRunEnd = req.arrival;
            req.finishTime = -1.0;
            ready.push_back(&req);
            policy->onArrival(req, req.arrival);
        }
    }

    /**
     * Advance the picked request by one layer through the full
     * callback protocol; a finished request is retired and
     * re-admitted fresh, so the policy's queues stay exactly in
     * sync with request state and the queue depth stays constant.
     */
    void
    advance(Request* req, double now)
    {
        const LayerTrace& layer = req->trace->layers[req->nextLayer];
        ++req->nextLayer;
        req->executedTime += layer.latency;
        policy->onLayerComplete(*req, now, layer.monitoredSparsity);
        if (req->done()) {
            policy->onComplete(*req, now);
            req->nextLayer = 0;
            req->executedTime = 0.0;
            policy->onArrival(*req, now);
            // Mirror engine semantics: the re-admitted request joins
            // the back of the ready set, keeping view order equal to
            // admission order for both selection paths.
            ready.erase(std::find(ready.begin(), ready.end(), req));
            ready.push_back(req);
        }
    }
};

struct Rate
{
    double decisionsPerSec = 0.0;
};

/** Legacy baseline: view rebuild + linear-scan selectNext. */
Rate
runBaseline(Harness& h, double now, long iters, bool churn)
{
    auto t0 = std::chrono::steady_clock::now();
    for (long i = 0; i < iters; ++i) {
        h.view.assign(h.ready.begin(), h.ready.end());
        size_t pick = h.policy->selectNext(h.view, now);
        if (churn)
            h.advance(h.ready[pick], now);
    }
    double dt = secondsSince(t0);
    return {static_cast<double>(iters) / dt};
}

/** Engine path: pickNext (heap peek / dense cached scan). */
Rate
runFast(Harness& h, double now, long iters, bool churn)
{
    auto t0 = std::chrono::steady_clock::now();
    for (long i = 0; i < iters; ++i) {
        Request* pick = h.policy->pickNext(h.ready, now);
        if (churn)
            h.advance(pick, now);
    }
    double dt = secondsSince(t0);
    return {static_cast<double>(iters) / dt};
}

std::string
rateStr(double per_sec)
{
    if (per_sec >= 1e6)
        return AsciiTable::num(per_sec / 1e6, 2) + " M/s";
    return AsciiTable::num(per_sec / 1e3, 1) + " k/s";
}

/**
 * Gate the telemetry emission points: an attached no-op sink must
 * neither change the simulated results nor cost more than `bound`
 * times the null-sink run. @return process exit code.
 */
int
telemetryCheck(const BenchContext& ctx, int reps, double bound)
{
    SweepCell cell;
    cell.workload.kind = WorkloadKind::MultiAttNN;
    cell.workload.arrivalRate = 100.0;
    cell.workload.numRequests = 400;
    cell.clusterMode = true; // 4 reference nodes, Dysta per node

    auto timeOne = [&](Telemetry* sink, Metrics& metrics) {
        cell.telemetry = sink;
        auto t0 = std::chrono::steady_clock::now();
        SweepCellResult result = runSweepCell(ctx, cell);
        metrics = result.metrics;
        return secondsSince(t0);
    };
    auto median = [](std::vector<double> times) {
        std::sort(times.begin(), times.end());
        return times[times.size() / 2];
    };

    // Interleave the two configurations so clock/cache drift over
    // the measurement cannot bias one side.
    Telemetry noop(TelemetryConfig{/*recordEvents=*/false,
                                   /*recordSeries=*/false});
    Metrics off;
    Metrics on;
    std::vector<double> base_times;
    std::vector<double> noop_times;
    for (int rep = 0; rep < reps; ++rep) {
        base_times.push_back(timeOne(nullptr, off));
        noop_times.push_back(timeOne(&noop, on));
    }
    double base_sec = median(base_times);
    double noop_sec = median(noop_times);

    // Bit-identity first: a no-op sink must not perturb the run.
    fatalIf(off.antt != on.antt || off.makespan != on.makespan ||
                off.completed != on.completed || off.shed != on.shed,
            "telemetry-check: attached no-op telemetry changed the "
            "simulated results");

    double ratio = noop_sec / base_sec;
    std::printf("telemetry-check: median of %d cluster runs "
                "(%d requests, 4 nodes)\n"
                "  null sink:  %.4fs\n"
                "  no-op sink: %.4fs  (%.3fx, bound %.2fx)\n",
                reps, cell.workload.numRequests, base_sec, noop_sec, ratio,
                bound);
    if (ratio > bound) {
        std::printf("telemetry-check: FAIL — disabled-telemetry "
                    "overhead above bound\n");
        return 1;
    }
    std::printf("telemetry-check: OK\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args("micro_sim_core",
                   "Ready-queue microbenchmark: heap-backed pickNext "
                   "vs the legacy linear scan.");
    args.addInt("--queue", 64, "ready-set depth");
    args.addInt("--iters", 200000, "decisions per measurement");
    args.addSwitch("--telemetry-check",
                   "gate disabled-telemetry overhead on a cluster "
                   "run instead of benchmarking pickNext (exit 1 "
                   "when outside --check-bound)");
    args.addInt("--check-reps", 9,
                "cluster-run repetitions per median "
                "(--telemetry-check)");
    args.addDouble("--check-bound", 1.25,
                   "max allowed no-op/null median wall-time ratio "
                   "(--telemetry-check)");
    args.parse(argc, argv);
    size_t depth = static_cast<size_t>(args.getInt("--queue"));
    long iters = args.getInt("--iters");

    std::printf("Profiling AttNN models on Sanger...\n");
    BenchSetup setup;
    setup.includeCnn = false;
    setup.samplesPerModel = 60;
    auto ctx = makeBenchContext(setup);

    if (args.getBool("--telemetry-check"))
        return telemetryCheck(*ctx, args.getInt("--check-reps"),
                              args.getDouble("--check-bound"));

    WorkloadConfig wl;
    wl.kind = WorkloadKind::MultiAttNN;
    wl.arrivalRate = 30.0;
    wl.numRequests = static_cast<int>(depth);
    std::vector<Request> requests = generateWorkload(wl, ctx->registry);
    double now = requests.back().arrival + 1.0;

    for (bool churn : {false, true}) {
        AsciiTable t(std::string("Decision rate, ") +
                     std::to_string(depth) + "-request ready set, " +
                     (churn ? "churn" : "steady") +
                     " (pickNext vs legacy linear scan)");
        t.setHeader({"policy", "linear scan", "pickNext", "speedup"});
        for (const char* name : {"FCFS", "SJF", "PREMA", "Dysta"}) {
            // Churn mutates predictor state: fresh harnesses per
            // mode keep the two paths comparable.
            Harness base(name, *ctx, requests, depth);
            Rate slow = runBaseline(base, now, iters, churn);
            Harness fast(name, *ctx, requests, depth);
            Rate quick = runFast(fast, now, iters, churn);
            t.addRow({name, rateStr(slow.decisionsPerSec),
                      rateStr(quick.decisionsPerSec),
                      AsciiTable::num(quick.decisionsPerSec /
                                          slow.decisionsPerSec,
                                      1) +
                          "x"});
        }
        t.print();
    }
    std::printf(
        "Read: heap-backed FCFS/SJF answer block-boundary decisions "
        "in O(1)/O(log n); PREMA and dynamic Dysta keep densely "
        "cached score inputs, trading the per-candidate hash + LUT + "
        "predictor work of the legacy scan for plain arithmetic.\n");
    return 0;
}
