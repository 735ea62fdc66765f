#include "sched/metrics.hh"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "util/logging.hh"
#include "util/stats.hh"

namespace dysta {

namespace {

/**
 * The fields every aggregation derives from its counts: violation
 * and SLO-miss rates, makespan, throughput and goodput. `m.completed`
 * and `m.shed` must be set. Returns false when nothing completed.
 */
bool
deriveRates(Metrics& m, size_t violations, double first_arrival,
            double last_finish)
{
    if (m.completed == 0) {
        // Everything was shed: every offered request missed its SLO.
        m.sloMissRate = m.shed > 0 ? 1.0 : 0.0;
        return false;
    }
    double n = static_cast<double>(m.completed);
    m.violationRate = static_cast<double>(violations) / n;
    // Shed requests are client-visible SLO misses: count them in
    // both numerator and denominator so shedding cannot deflate the
    // reported miss rate.
    m.sloMissRate =
        static_cast<double>(violations + m.shed) /
        static_cast<double>(m.completed + m.shed);
    m.makespan = last_finish - first_arrival;
    m.throughput = m.makespan > 0.0 ? n / m.makespan : 0.0;
    m.goodput =
        m.makespan > 0.0
            ? (n - static_cast<double>(violations)) / m.makespan
            : 0.0;
    return true;
}

/**
 * Exact aggregation of a materialized request set. When `allow_shed`
 * is set, shed requests are counted as shed; otherwise any
 * unfinished request panics.
 */
Metrics
aggregate(const std::vector<Request>& requests, bool allow_shed)
{
    StreamingMetrics sink(MetricsKind::Exact);
    for (const auto& req : requests) {
        if (allow_shed && req.shed) {
            sink.recordShed(req);
            continue;
        }
        panicIf(req.finishTime < 0.0,
                "computeMetrics: unfinished request in result set");
        sink.recordCompleted(req);
    }
    return sink.finalize();
}

/** Owner of a pointer-to-member type. */
template <typename>
struct MemberOf;

template <typename Owner, typename T>
struct MemberOf<T Owner::*>
{
    using owner = Owner;
    using type = T;
};

/** The part of `m` (Metrics itself or a sub-struct) of type Owner. */
template <typename Owner, typename M>
auto&
partOf(M& m)
{
    if constexpr (std::is_same_v<Owner, ResilienceStats>)
        return m.resilience;
    else if constexpr (std::is_same_v<Owner, BatchStats>)
        return m.batching;
    else
        return m;
}

/** A metricFields() entry for member `F`. */
template <auto F>
MetricField
field(const char* json, const char* csv, MetricColumn column = {})
{
    using Owner = typename MemberOf<decltype(F)>::owner;
    using T = typename MemberOf<decltype(F)>::type;
    MetricField f{};
    f.json = json;
    f.csv = csv;
    f.group = std::is_same_v<Owner, ResilienceStats>
                  ? MetricGroup::Resilience
                  : std::is_same_v<Owner, BatchStats>
                        ? MetricGroup::Batching
                        : MetricGroup::Core;
    f.kind = std::is_integral_v<T> ? MetricField::Kind::Count
                                   : MetricField::Kind::Real;
    f.get = [](const Metrics& m) {
        return static_cast<double>(partOf<Owner>(m).*F);
    };
    f.set = [](Metrics& m, double value) {
        partOf<Owner>(m).*F = static_cast<T>(value);
    };
    f.column = column;
    return f;
}

} // namespace

const std::vector<MetricField>&
metricFields()
{
    static const std::vector<MetricField> fields = {
        field<&Metrics::antt>("antt", "antt", {"ANTT", 1.0, 2}),
        field<&Metrics::violationRate>("violation_rate",
                                       "violation_rate",
                                       {"violation [%]", 100.0, 1}),
        field<&Metrics::sloMissRate>("slo_miss_rate", "slo_miss_rate",
                                     {"slo miss [%]", 100.0, 1}),
        field<&Metrics::throughput>("throughput", "throughput",
                                    {"throughput", 1.0, 2}),
        field<&Metrics::goodput>("goodput", "goodput",
                                 {"goodput", 1.0, 2}),
        field<&Metrics::stp>("stp", "stp"),
        field<&Metrics::p50Turnaround>("p50_turnaround",
                                       "p50_turnaround"),
        field<&Metrics::p95Turnaround>("p95_turnaround",
                                       "p95_turnaround"),
        field<&Metrics::p99Turnaround>("p99_turnaround",
                                       "p99_turnaround"),
        field<&Metrics::p50Latency>("p50_latency", "p50_latency"),
        field<&Metrics::p95Latency>("p95_latency", "p95_latency"),
        field<&Metrics::p99Latency>("p99_latency", "p99_latency",
                                    {"p99 lat [ms]", 1e3, 2}),
        field<&Metrics::completed>("completed", "completed"),
        field<&Metrics::shed>("shed", "shed",
                              {"shed", 1.0, 0, true}),
        field<&Metrics::makespan>("makespan", "makespan"),

        field<&ResilienceStats::availability>(
            "availability", "availability", {"avail [%]", 100.0, 2}),
        field<&ResilienceStats::mttr>("mttr", "mttr"),
        field<&ResilienceStats::failures>("failures", "failures"),
        field<&ResilienceStats::timeouts>("timeouts", "timeouts"),
        field<&ResilienceStats::retries>("retries", "retries",
                                         {"retries", 1.0, 0}),
        field<&ResilienceStats::retryAmplification>(
            "retry_amplification", "retry_amplification"),
        field<&ResilienceStats::hedges>("hedges", "hedges"),
        field<&ResilienceStats::hedgeWins>("hedge_wins", "hedge_wins"),
        field<&ResilienceStats::hedgeWinRate>(
            "hedge_win_rate", "hedge_win_rate",
            {"hedge win [%]", 100.0, 1}),
        field<&ResilienceStats::brownoutSheds>("brownout_sheds",
                                               "brownout_sheds"),

        field<&BatchStats::formed>("formed", "batch_formed"),
        field<&BatchStats::joins>("joins", "batch_joins"),
        field<&BatchStats::steps>("steps", "batch_steps"),
        field<&BatchStats::meanOccupancy>("mean_occupancy",
                                          "batch_occupancy",
                                          {"occupancy", 1.0, 2}),
        field<&BatchStats::meanFillWaitSec>(
            "mean_fill_wait", "batch_fill_wait",
            {"fill wait [ms]", 1e3, 2}),
        field<&BatchStats::stragglerTaxSec>(
            "straggler_tax", "batch_straggler_tax",
            {"straggler [s]", 1.0, 3}),
    };
    return fields;
}

bool
groupActive(const Metrics& m, MetricGroup group)
{
    switch (group) {
      case MetricGroup::Core: return true;
      case MetricGroup::Resilience: return m.resilience.active;
      case MetricGroup::Batching: return m.batching.active;
    }
    panic("groupActive: unknown MetricGroup");
}

bool
sameMetrics(const Metrics& a, const Metrics& b)
{
    if (a.resilience.active != b.resilience.active ||
        a.batching.active != b.batching.active ||
        a.estimators.size() != b.estimators.size() ||
        a.resilience.tiers.size() != b.resilience.tiers.size())
        return false;
    for (const MetricField& f : metricFields()) {
        if (f.get(a) != f.get(b))
            return false;
    }
    for (size_t i = 0; i < a.estimators.size(); ++i) {
        const EstimatorAccuracy& x = a.estimators[i];
        const EstimatorAccuracy& y = b.estimators[i];
        if (x.estimator != y.estimator || x.samples != y.samples ||
            x.bias != y.bias || x.rmse != y.rmse ||
            x.isolatedSamples != y.isolatedSamples ||
            x.isolatedBias != y.isolatedBias ||
            x.isolatedRmse != y.isolatedRmse)
            return false;
    }
    for (size_t t = 0; t < a.resilience.tiers.size(); ++t) {
        const TierStats& x = a.resilience.tiers[t];
        const TierStats& y = b.resilience.tiers[t];
        if (x.completed != y.completed || x.violations != y.violations ||
            x.shed != y.shed || x.goodput != y.goodput)
            return false;
    }
    return true;
}

std::string
toString(MetricsKind kind)
{
    switch (kind) {
      case MetricsKind::Exact: return "exact";
      case MetricsKind::Sketch: return "sketch";
    }
    panic("toString: unknown MetricsKind");
}

MetricsKind
metricsKindFromName(const std::string& name)
{
    if (name == "exact")
        return MetricsKind::Exact;
    if (name == "sketch")
        return MetricsKind::Sketch;
    fatal("metricsKindFromName: unknown metrics kind '" + name +
          "'; valid kinds: exact, sketch");
}

StreamingMetrics::StreamingMetrics(MetricsKind kind)
    : mode(kind),
      p50Turn(0.50), p95Turn(0.95), p99Turn(0.99),
      p50Lat(0.50), p95Lat(0.95), p99Lat(0.99)
{
}

void
StreamingMetrics::recordCompleted(const Request& req)
{
    panicIf(req.finishTime < 0.0,
            "StreamingMetrics: unfinished request retired as "
            "completed");
    double nt = req.normalizedTurnaround();
    if (mode == MetricsKind::Exact) {
        CompletedRecord rec;
        rec.id = req.id;
        rec.arrival = req.arrival;
        rec.finish = req.finishTime;
        rec.normalizedTurnaround = nt;
        rec.violated = req.violated();
        records.push_back(rec);
        return;
    }
    double latency = req.finishTime - req.arrival;
    if (completedCount == 0) {
        firstArrival = req.arrival;
        lastFinish = req.finishTime;
    } else {
        firstArrival = std::min(firstArrival, req.arrival);
        lastFinish = std::max(lastFinish, req.finishTime);
    }
    ++completedCount;
    if (req.violated())
        ++violationCount;
    turnaroundStats.add(nt);
    speedupStats.add(1.0 / nt);
    p50Turn.add(nt);
    p95Turn.add(nt);
    p99Turn.add(nt);
    p50Lat.add(latency);
    p95Lat.add(latency);
    p99Lat.add(latency);
}

void
StreamingMetrics::recordShed(const Request& req)
{
    panicIf(!req.shed,
            "StreamingMetrics: non-shed request retired as shed");
    ++shedCount;
}

size_t
StreamingMetrics::retired() const
{
    size_t completed =
        mode == MetricsKind::Exact ? records.size() : completedCount;
    return completed + shedCount;
}

Metrics
StreamingMetrics::finalizeExact() const
{
    // Records are summed in request-id order — the materialized
    // requests vector's iteration order, ties kept in retirement
    // order — so a streaming run and computeMetrics() over the same
    // requests accumulate in the same order and agree bit for bit.
    std::vector<const CompletedRecord*> ordered;
    ordered.reserve(records.size());
    for (const CompletedRecord& rec : records)
        ordered.push_back(&rec);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const CompletedRecord* a,
                        const CompletedRecord* b) {
                         return a->id < b->id;
                     });

    Metrics m;
    m.shed = shedCount;
    double first_arrival = std::numeric_limits<double>::infinity();
    double last_finish = 0.0;
    size_t violations = 0;
    std::vector<double> turnarounds;
    std::vector<double> latencies;
    turnarounds.reserve(ordered.size());
    latencies.reserve(ordered.size());
    for (const CompletedRecord* rec : ordered) {
        // Shed requests never occupied the system, so the busy
        // interval spans served arrivals only.
        first_arrival = std::min(first_arrival, rec->arrival);
        last_finish = std::max(last_finish, rec->finish);
        turnarounds.push_back(rec->normalizedTurnaround);
        latencies.push_back(rec->finish - rec->arrival);
        m.antt += rec->normalizedTurnaround;
        m.stp += 1.0 / rec->normalizedTurnaround;
        if (rec->violated)
            ++violations;
    }

    m.completed = turnarounds.size();
    if (!deriveRates(m, violations, first_arrival, last_finish))
        return m;
    m.antt /= static_cast<double>(m.completed);
    // One sort per series; each percentile read is then O(1).
    std::sort(turnarounds.begin(), turnarounds.end());
    std::sort(latencies.begin(), latencies.end());
    m.p50Turnaround = sortedPercentile(turnarounds, 50.0);
    m.p95Turnaround = sortedPercentile(turnarounds, 95.0);
    m.p99Turnaround = sortedPercentile(turnarounds, 99.0);
    m.p50Latency = sortedPercentile(latencies, 50.0);
    m.p95Latency = sortedPercentile(latencies, 95.0);
    m.p99Latency = sortedPercentile(latencies, 99.0);
    return m;
}

Metrics
StreamingMetrics::finalizeSketch() const
{
    Metrics m;
    m.shed = shedCount;
    m.completed = completedCount;
    if (!deriveRates(m, violationCount, firstArrival, lastFinish))
        return m;
    m.antt = turnaroundStats.mean();
    m.stp = speedupStats.sum();
    m.p50Turnaround = p50Turn.value();
    m.p95Turnaround = p95Turn.value();
    m.p99Turnaround = p99Turn.value();
    m.p50Latency = p50Lat.value();
    m.p95Latency = p95Lat.value();
    m.p99Latency = p99Lat.value();
    return m;
}

Metrics
StreamingMetrics::finalize() const
{
    return mode == MetricsKind::Exact ? finalizeExact()
                                      : finalizeSketch();
}

Metrics
computeMetrics(const std::vector<Request>& requests)
{
    return aggregate(requests, false);
}

Metrics
computeMetricsCompleted(const std::vector<Request>& requests)
{
    return aggregate(requests, true);
}

} // namespace dysta
