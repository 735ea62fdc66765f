/**
 * @file
 * Discrete-event multi-accelerator serving simulator — compatibility
 * facade over the unified simulation core (src/sim/core.hh).
 *
 * A ClusterEngine runs N accelerator nodes, each executing the
 * layer-granular per-node scheduling loop, fed by a front-end
 * `Dispatcher` that places every arriving request on one node.
 * Optional SLO-aware admission control sheds requests whose
 * estimated completion (through the LatencyEstimator layer) would
 * already miss their deadline at arrival; shed counts are reported
 * through `Metrics::shed`.
 *
 * The run itself is `runSimulation`: one global event calendar over
 * arrival / layer-complete / decision events with deterministic
 * tie-breaking, so a fixed workload seed always reproduces the same
 * schedule. A single-accelerator `SchedulerEngine` run is the same
 * core with one node — the two engines cannot drift apart.
 */

#ifndef DYSTA_SERVE_CLUSTER_ENGINE_HH
#define DYSTA_SERVE_CLUSTER_ENGINE_HH

#include <vector>

#include "serve/dispatcher.hh"
#include "sim/core.hh"
#include "sim/node.hh"

namespace dysta {

/** Cluster topology and simulation knobs: the core's own config. */
using ClusterConfig = SimConfig;

/** Homogeneous fleet of `n` reference-speed nodes. */
ClusterConfig homogeneousCluster(size_t n);

/** Fleet built from explicit (possibly heterogeneous) profiles. */
ClusterConfig clusterFromProfiles(std::vector<NodeProfile> profiles);

/** Result of one cluster run (the simulation core's result). */
using ClusterResult = SimResult;

/** Multi-accelerator, layer-granular serving simulator. */
class ClusterEngine
{
  public:
    explicit ClusterEngine(ClusterConfig config);

    /**
     * Serve all requests to completion (or shed them) under
     * `dispatcher`, with per-node policies from `make_policy`.
     * Requests are mutated in place (progress, finish times, shed
     * flags).
     * @pre every request has a trace with at least one layer
     */
    ClusterResult run(std::vector<Request>& requests,
                      Dispatcher& dispatcher,
                      const PolicyFactory& make_policy) const;

    /**
     * Streaming overload: requests are pulled lazily from `source`
     * and retired back to it, keeping memory bounded by the
     * in-flight set (see the ArrivalSource runSimulation overload).
     * Bit-identical schedule to the vector overload for the same
     * workload seed.
     */
    ClusterResult run(ArrivalSource& source, Dispatcher& dispatcher,
                      const PolicyFactory& make_policy) const;

  private:
    ClusterConfig cfg;
};

} // namespace dysta

#endif // DYSTA_SERVE_CLUSTER_ENGINE_HH
