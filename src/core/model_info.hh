/**
 * @file
 * The model-information LUT populated by the static scheduler
 * (Sec. 4.1): per (model, sparsity pattern), the offline-profiled
 * average latency, per-layer average latency and per-layer average
 * monitored sparsity. Schedulers use it for every latency estimate;
 * only the Oracle bypasses it.
 */

#ifndef DYSTA_CORE_MODEL_INFO_HH
#define DYSTA_CORE_MODEL_INFO_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "sparsity/pattern.hh"
#include "trace/trace.hh"

namespace dysta {

struct Request;

/** One LUT entry: offline averages for a model-pattern pair. */
struct ModelInfo
{
    std::string model;
    SparsityPattern pattern = SparsityPattern::Dense;

    /** Average isolated latency (seconds). */
    double avgLatency = 0.0;
    /** Average latency of each layer. */
    std::vector<double> avgLayerLatency;
    /** Average monitored sparsity of each layer. */
    std::vector<double> avgLayerSparsity;
    /** Network-average monitored sparsity. */
    double avgNetworkSparsity = 0.0;
    /**
     * Suffix sums: remainingFrom[l] is the average latency of layers
     * l..end; remainingFrom[layerCount] == 0.
     */
    std::vector<double> remainingFrom;

    /** Average latency still ahead when the next layer is `layer`. */
    double estRemaining(size_t layer) const;
};

/** Registry of ModelInfo entries keyed by (model, pattern). */
class ModelInfoLut
{
  public:
    /** Build and insert an entry from a Phase-1 trace set. */
    void addFromTrace(const TraceSet& traces);

    bool contains(const std::string& model,
                  SparsityPattern pattern) const;

    /** Fetch an entry; fatal() when missing (unprofiled model). */
    const ModelInfo& lookup(const std::string& model,
                            SparsityPattern pattern) const;

    /**
     * The entry of `req`'s (model, pattern). The first query against
     * this table caches the entry in the request (Request::info), so
     * later queries hash no string key; a query against any other
     * table re-resolves.
     */
    const ModelInfo& entryFor(const Request& req) const;

    size_t size() const { return entries.size(); }

  private:
    std::unordered_map<std::string, ModelInfo> entries;
};

} // namespace dysta

#endif // DYSTA_CORE_MODEL_INFO_HH
