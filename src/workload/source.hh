/**
 * @file
 * Lazy workload generation: the one generator of a workload's
 * requests.
 *
 * A WorkloadArrivalSource draws each request of a WorkloadConfig on
 * demand — arrival time, model, sparsity pattern, trace sample, in
 * that order from one seeded RNG — into RequestArena slots that
 * retired requests return to. A streaming run therefore keeps only
 * the in-flight set alive, which is what makes >=10M-request
 * scenarios run at flat RSS (scenarios/megascale.scn,
 * bench/bench_megascale.cc). generateWorkload() is this source
 * drained into a vector, so a materialized run sees the very same
 * requests and produces the bit-identical schedule.
 */

#ifndef DYSTA_WORKLOAD_SOURCE_HH
#define DYSTA_WORKLOAD_SOURCE_HH

#include <memory>
#include <vector>

#include "sim/request_arena.hh"
#include "sim/source.hh"
#include "util/rng.hh"
#include "workload/workload.hh"

namespace dysta {

/**
 * Generates the requests of one WorkloadConfig lazily, recycling
 * retired requests. The registry must outlive the source and the
 * requests it hands out (they reference its traces).
 */
class WorkloadArrivalSource final : public ArrivalSource
{
  public:
    /** fatal() on a non-positive arrival rate or request count. */
    WorkloadArrivalSource(const WorkloadConfig& config,
                          const TraceRegistry& registry);

    size_t total() const override;
    Request* next() override;
    void retire(Request* req, double now) override;

    /** Pool introspection (peak live set, slot reuse counters). */
    const RequestArena& arena() const { return pool; }

  private:
    WorkloadConfig config;
    const TraceRegistry* registry;
    Rng rng;
    std::vector<std::string> models;
    std::vector<SparsityPattern> patterns;
    std::unique_ptr<ArrivalProcess> arrivals;
    RequestArena pool;
    int produced = 0;
    double lastArrival = 0.0;
};

} // namespace dysta

#endif // DYSTA_WORKLOAD_SOURCE_HH
