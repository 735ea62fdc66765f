/**
 * @file
 * Multi-DNN workload generation (Sec. 6.2).
 *
 * Requests sample a model from the scenario mix and a trace from that
 * model's Phase-1 pool; arrivals follow a Poisson process (MLPerf
 * server scenario) at a configurable rate; each request's SLO is
 * M_slo times its own isolated latency.
 */

#ifndef DYSTA_WORKLOAD_WORKLOAD_HH
#define DYSTA_WORKLOAD_WORKLOAD_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "core/model_info.hh"
#include "sched/request.hh"
#include "trace/trace.hh"
#include "workload/arrival.hh"

namespace dysta {

/** The two multi-tenant scenarios evaluated by the paper. */
enum class WorkloadKind
{
    MultiAttNN, ///< mobile personal assistant: BERT + GPT-2 + BART
    MultiCNN,   ///< visual perception + hand tracking + gestures
};

std::string toString(WorkloadKind kind);

/** Workload-generation parameters. */
struct WorkloadConfig
{
    WorkloadKind kind = WorkloadKind::MultiAttNN;
    /** Base arrival rate in requests/s. */
    double arrivalRate = 30.0;
    /** Arrival process shape (Poisson / bursty MMPP / diurnal). */
    ArrivalConfig arrival;
    /** Latency SLO multiplier M_slo. */
    double sloMultiplier = 10.0;
    /** Requests per workload (paper: 1000). */
    int numRequests = 1000;
    /** Workload seed (paper averages five seeds). */
    uint64_t seed = 42;
};

/** Pool of Phase-1 trace sets keyed by (model, pattern). */
class TraceRegistry
{
  public:
    void add(TraceSet traces);

    bool contains(const std::string& model,
                  SparsityPattern pattern) const;

    const TraceSet& get(const std::string& model,
                        SparsityPattern pattern) const;

    /** Build the static scheduler's LUT over all registered sets. */
    ModelInfoLut buildLut() const;

    size_t size() const { return sets.size(); }

    /** Keys of all registered trace sets (sorted). */
    std::vector<std::string> keys() const;

    /**
     * Persist every trace set as "<dir>/<model>_<pattern>.csv",
     * mirroring the paper's Phase-1 "save runtime information as
     * files" step. The directory is created if missing.
     */
    void saveAll(const std::string& dir) const;

    /** Load every "*.csv" trace file previously written by saveAll. */
    static TraceRegistry loadAll(const std::string& dir);

    /**
     * Pack every set into one flat binary file — the trace cache's
     * fast path. CSV text is the durable, inspectable format; the
     * packed blob exists because parsing ~10^6 decimal doubles costs
     * more than re-running the analytic Phase-1 profile.
     */
    void saveAllBinary(const std::string& path) const;

    /**
     * Load a saveAllBinary blob into `out`. Returns false (leaving
     * `out` unspecified) on a missing file or a magic/version
     * mismatch, so callers can fall back to the CSVs.
     */
    static bool loadAllBinary(const std::string& path,
                              TraceRegistry& out);

  private:
    std::unordered_map<std::string, TraceSet> sets;
};

/** Model mix of a scenario (names from the zoo). */
std::vector<std::string> workloadModels(WorkloadKind kind);

/**
 * Generate one workload: a WorkloadArrivalSource (workload/source.hh)
 * drained into a vector. Returned requests reference traces owned by
 * the registry, which must outlive them.
 */
std::vector<Request> generateWorkload(const WorkloadConfig& config,
                                      const TraceRegistry& registry);

} // namespace dysta

#endif // DYSTA_WORKLOAD_WORKLOAD_HH
