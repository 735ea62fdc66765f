#include "workload/source.hh"

#include "util/logging.hh"

namespace dysta {

WorkloadArrivalSource::WorkloadArrivalSource(
    const WorkloadConfig& workload, const TraceRegistry& traces)
    : config(workload),
      registry(&traces),
      rng(config.seed * 0x9E3779B97F4A7C15ULL + 0x123456789ULL),
      models(workloadModels(config.kind)),
      patterns(config.kind == WorkloadKind::MultiCNN
                   ? cnnPatterns()
                   : std::vector<SparsityPattern>{
                         SparsityPattern::Dense}),
      arrivals(makeArrivalProcess(config.arrival, config.arrivalRate))
{
    // makeArrivalProcess above already rejects a non-positive rate.
    fatalIf(config.numRequests <= 0,
            "WorkloadArrivalSource: need at least one request");
}

size_t
WorkloadArrivalSource::total() const
{
    return static_cast<size_t>(config.numRequests);
}

Request*
WorkloadArrivalSource::next()
{
    if (produced >= config.numRequests)
        return nullptr;

    lastArrival = arrivals->nextArrival(lastArrival, rng);
    const std::string& model =
        models[rng.uniformInt(0, models.size() - 1)];
    SparsityPattern pattern =
        patterns[rng.uniformInt(0, patterns.size() - 1)];
    const TraceSet& set = registry->get(model, pattern);
    const SampleTrace& trace =
        set.sample(rng.uniformInt(0, set.size() - 1));

    Request* slot = pool.acquire();
    *slot = makeRequest(produced, model, pattern, trace, lastArrival,
                        config.sloMultiplier, set.avgTotalLatency());
    ++produced;
    return slot;
}

void
WorkloadArrivalSource::retire(Request* req, double now)
{
    (void)now;
    pool.release(req);
}

} // namespace dysta
