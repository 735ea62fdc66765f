#include "traced.hh"

#include "api/registry.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "workload/source.hh"

namespace perfbench {

using dysta::Request;

double
TracedEstimator::remaining(const Request& req) const
{
    Span span(*ledger, layerId, req.id);
    return inner->remaining(req);
}

double
TracedEstimator::isolated(const Request& req) const
{
    Span span(*ledger, layerId, req.id);
    return inner->isolated(req);
}

namespace {

std::unique_ptr<dysta::LatencyEstimator>
estimatorView(const dysta::Scheduler& inner, Ledger& ledger)
{
    const dysta::LatencyEstimator* est = inner.estimator();
    if (est == nullptr)
        return nullptr;
    return std::make_unique<TracedEstimator>(*est, ledger,
                                             ledger.layer("batch.est"));
}

} // namespace

TracedScheduler::TracedScheduler(std::unique_ptr<dysta::Scheduler> wrapped,
                                 Tracer& trace, const std::string& label)
    : Scheduler(estimatorView(*wrapped, trace.ledger)),
      policy(std::move(wrapped)), tracer(&trace),
      pickLayer(trace.ledger.layer("sched." + label + ".pick")),
      arrivalLayer(trace.ledger.layer("sched.arrival")),
      layerLayer(trace.ledger.layer("sched.layer_complete")),
      completeLayer(trace.ledger.layer("sched.complete")),
      dequeueLayer(trace.ledger.layer("sched.dequeue"))
{
}

void
TracedScheduler::onArrival(const Request& req, double now)
{
    Span span(tracer->ledger, arrivalLayer, req.id);
    policy->onArrival(req, now);
}

void
TracedScheduler::onLayerComplete(const Request& req, double now,
                                 double monitored_sparsity)
{
    Span span(tracer->ledger, layerLayer, req.id);
    policy->onLayerComplete(req, now, monitored_sparsity);
}

void
TracedScheduler::onComplete(const Request& req, double now)
{
    Span span(tracer->ledger, completeLayer, req.id);
    policy->onComplete(req, now);
}

void
TracedScheduler::onDequeue(const Request& req, double now)
{
    Span span(tracer->ledger, dequeueLayer, req.id);
    policy->onDequeue(req, now);
}

size_t
TracedScheduler::selectNext(const std::vector<const Request*>& ready,
                            double now)
{
    return policy->selectNext(ready, now);
}

Request*
TracedScheduler::pickNext(const std::vector<Request*>& ready, double now)
{
    uint64_t depth = ready.size();
    tracer->readyDepthSum += depth;
    if (depth > tracer->readyDepthMax)
        tracer->readyDepthMax = depth;
    Span span(tracer->ledger, pickLayer);
    Request* pick = policy->pickNext(ready, now);
    span.setRequest(pick == nullptr ? -1 : pick->id);
    return pick;
}

TracedDispatcher::TracedDispatcher(dysta::Dispatcher& wrapped,
                                   Ledger& spans)
    : inner(&wrapped), ledger(&spans),
      selectLayer(spans.layer("dispatch.select")),
      hookLayer(spans.layer("dispatch.hook"))
{
}

size_t
TracedDispatcher::selectNode(
    const Request& req,
    const std::vector<std::unique_ptr<dysta::SimNode>>& nodes, double now)
{
    Span span(*ledger, selectLayer, req.id);
    return inner->selectNode(req, nodes, now);
}

std::vector<dysta::Migration>
TracedDispatcher::rebalance(
    const std::vector<std::unique_ptr<dysta::SimNode>>& nodes, double now)
{
    Span span(*ledger, hookLayer);
    return inner->rebalance(nodes, now);
}

void
TracedDispatcher::onLayerComplete(const dysta::SimNode& node,
                                  const Request& req, double now,
                                  double monitored_sparsity)
{
    Span span(*ledger, hookLayer, req.id);
    inner->onLayerComplete(node, req, now, monitored_sparsity);
}

void
TracedDispatcher::onComplete(const dysta::SimNode& node, const Request& req,
                             double now)
{
    Span span(*ledger, hookLayer, req.id);
    inner->onComplete(node, req, now);
}

void
TracedDispatcher::onShed(const Request& req, double now)
{
    Span span(*ledger, hookLayer, req.id);
    inner->onShed(req, now);
}

void
TracedDispatcher::onCancel(const Request& req, double now)
{
    Span span(*ledger, hookLayer, req.id);
    inner->onCancel(req, now);
}

TracedSource::TracedSource(dysta::ArrivalSource& wrapped, Ledger& spans)
    : inner(&wrapped), ledger(&spans),
      nextLayer(spans.layer("workload.next")),
      retireLayer(spans.layer("workload.retire"))
{
}

Request*
TracedSource::next()
{
    Span span(*ledger, nextLayer);
    Request* req = inner->next();
    if (req != nullptr)
        span.setRequest(req->id);
    return req;
}

void
TracedSource::retire(Request* req, double now)
{
    Span span(*ledger, retireLayer, req->id);
    inner->retire(req, now);
}

TracedFailure::TracedFailure(dysta::FailureProcess& wrapped, Tracer& trace)
    : inner(&wrapped), tracer(&trace),
      nextLayer(trace.ledger.layer("chaos.fail_next"))
{
}

bool
TracedFailure::next(dysta::NodeEvent& out)
{
    Span span(tracer->ledger, nextLayer);
    bool emitted = inner->next(out);
    if (emitted)
        ++tracer->failEvents;
    return emitted;
}

namespace {

/** The cell's private probe sink, built as runSweepCell builds it. */
std::unique_ptr<dysta::Telemetry>
probeSink(const dysta::BenchContext& ctx, const dysta::SweepCell& cell)
{
    if (cell.probes.empty())
        return nullptr;
    dysta::TelemetryConfig tcfg;
    tcfg.recordEvents = false;
    tcfg.recordSeries = false;
    auto sink = std::make_unique<dysta::Telemetry>(tcfg);
    for (const std::string& spec : cell.probes)
        sink->addProbe(spec,
                       dysta::PolicyRegistry::global().makeEstimator(spec,
                                                                     ctx));
    return sink;
}

/** Workload generation, timed as its own root span. */
std::vector<Request>
generate(const dysta::BenchContext& ctx, const dysta::SweepCell& cell,
         Ledger& ledger)
{
    Span span(ledger, ledger.layer("workload.generate"));
    return dysta::generateWorkload(cell.workload, ctx.registry);
}

dysta::SweepCellResult
runSingle(const dysta::BenchContext& ctx, const dysta::SweepCell& cell,
          dysta::Telemetry* sink, Tracer& tracer)
{
    Ledger& ledger = tracer.ledger;
    TracedScheduler policy(
        dysta::makeSchedulerByName(cell.scheduler, ctx, cell.workload.kind),
        tracer, cell.scheduler);
    dysta::EngineConfig ecfg;
    ecfg.layerBlockSize = cell.layerBlockSize;
    ecfg.telemetry = sink;
    ecfg.calendar = cell.calendar;
    ecfg.metricsKind = cell.metricsKind;
    dysta::SchedulerEngine engine(ecfg);
    int sim = ledger.layer("sim");

    dysta::EngineResult r;
    if (cell.streaming) {
        dysta::WorkloadArrivalSource source(cell.workload, ctx.registry);
        TracedSource traced(source, ledger);
        Span span(ledger, sim);
        r = engine.run(traced, policy);
    } else {
        std::vector<Request> requests = generate(ctx, cell, ledger);
        Span span(ledger, sim);
        r = engine.run(requests, policy);
    }
    dysta::SweepCellResult out;
    out.metrics = r.metrics;
    out.decisions = r.decisions;
    out.preemptions = r.preemptions;
    out.eventsProcessed = r.eventsProcessed;
    return out;
}

dysta::SweepCellResult
runClusterCell(const dysta::BenchContext& ctx, const dysta::SweepCell& cell,
               dysta::Telemetry* sink, Tracer& tracer)
{
    const dysta::ClusterRunConfig& cluster = cell.cluster;
    const dysta::PolicyRegistry& registry = dysta::PolicyRegistry::global();
    Ledger& ledger = tracer.ledger;
    dysta::panicIf(cluster.nodes.empty(),
                   "perfbench: scenario cells carry explicit fleets");

    dysta::ClusterConfig cfg;
    cfg.nodes = cluster.nodes;
    cfg.admission = cluster.admission;
    cfg.lut = &ctx.lut;
    cfg.nodeEvents = cluster.nodeEvents;
    cfg.onFailure = cluster.onFailure;
    cfg.telemetry = sink;
    cfg.calendar = cell.calendar;
    cfg.metricsKind = cell.metricsKind;
    cfg.chaosSeed = cell.workload.seed;
    cfg.retry = dysta::retryConfigFromSpec(cluster.retry);
    cfg.hedge = dysta::hedgeConfigFromSpec(cluster.hedge);
    cfg.brownout = dysta::brownoutConfigFromSpec(cluster.brownout);
    cfg.tierWeights = dysta::tierWeightsFromSpec(cluster.tiers);
    cfg.batching = dysta::batchConfigFromSpec(cluster.batcher);

    std::unique_ptr<dysta::FailureProcess> chaos;
    std::unique_ptr<TracedFailure> traced_chaos;
    if (!cluster.chaos.empty()) {
        chaos = registry.makeFailureProcess(cluster.chaos);
        traced_chaos = std::make_unique<TracedFailure>(*chaos, tracer);
        cfg.chaos = traced_chaos.get();
    }

    // The engine's default admission estimator is a LutEstimator over
    // the context LUT (sim/core.cc); build the identical one so it
    // can be wrapped.
    std::unique_ptr<dysta::LatencyEstimator> admission;
    if (!cluster.admissionEstimator.empty())
        admission = registry.makeEstimator(cluster.admissionEstimator, ctx);
    else if (cluster.admission.enabled)
        admission = std::make_unique<dysta::LutEstimator>(ctx.lut);
    std::unique_ptr<TracedEstimator> traced_admission;
    if (admission) {
        traced_admission = std::make_unique<TracedEstimator>(
            *admission, ledger, ledger.layer("admit.est"));
        cfg.admissionEstimator = traced_admission.get();
    }

    auto dispatcher =
        dysta::makeDispatcherByName(cluster.dispatcher, ctx, cluster.stealing);
    TracedDispatcher traced_dispatcher(*dispatcher, ledger);
    dysta::PolicyFactory factory = [&](const dysta::NodeProfile& profile,
                                       int) {
        const std::string& spec = profile.scheduler.empty()
                                      ? cluster.nodeScheduler
                                      : profile.scheduler;
        return std::make_unique<TracedScheduler>(
            dysta::makeSchedulerByName(spec, ctx, cell.workload.kind),
            tracer, spec);
    };
    dysta::ClusterEngine engine(cfg);
    int sim = ledger.layer("sim");

    dysta::ClusterResult r;
    if (cell.streaming) {
        dysta::WorkloadArrivalSource source(cell.workload, ctx.registry);
        TracedSource traced(source, ledger);
        Span span(ledger, sim);
        r = engine.run(traced, traced_dispatcher, factory);
    } else {
        std::vector<Request> requests = generate(ctx, cell, ledger);
        Span span(ledger, sim);
        r = engine.run(requests, traced_dispatcher, factory);
    }
    dysta::SweepCellResult out;
    out.metrics = r.metrics;
    out.decisions = r.decisions;
    out.preemptions = r.preemptions;
    out.eventsProcessed = r.eventsProcessed;
    return out;
}

} // namespace

TracedPass
runTraced(const dysta::BenchContext& ctx,
          const std::vector<dysta::SweepCell>& cells, Tracer& tracer,
          bool probes)
{
    TracedPass pass;
    for (size_t i = 0; i < cells.size(); ++i) {
        const dysta::SweepCell& cell = cells[i];
        dysta::panicIf(cell.makePolicy != nullptr ||
                           cell.telemetry != nullptr,
                       "perfbench: scenario cells use named policies "
                       "and private probe sinks only");
        tracer.ledger.setCell(static_cast<int>(i));
        int64_t t0 = nowNs();
        std::unique_ptr<dysta::Telemetry> sink =
            probes ? probeSink(ctx, cell) : nullptr;
        pass.results.push_back(
            cell.clusterMode ? runClusterCell(ctx, cell, sink.get(), tracer)
                             : runSingle(ctx, cell, sink.get(), tracer));
        pass.cellSeconds.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    return pass;
}

} // namespace perfbench
