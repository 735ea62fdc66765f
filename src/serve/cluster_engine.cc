// Compatibility shim: the cluster event loop that used to live here
// is now the unified simulation core (src/sim/core.cc); ClusterEngine
// validates its SimConfig and forwards it.

#include "serve/cluster_engine.hh"

#include "util/logging.hh"

namespace dysta {

ClusterConfig
homogeneousCluster(size_t n)
{
    ClusterConfig cfg;
    for (size_t i = 0; i < n; ++i) {
        cfg.nodes.push_back(
            referenceNodeProfile("node" + std::to_string(i)));
    }
    return cfg;
}

ClusterConfig
clusterFromProfiles(std::vector<NodeProfile> profiles)
{
    ClusterConfig cfg;
    cfg.nodes = std::move(profiles);
    return cfg;
}

ClusterEngine::ClusterEngine(ClusterConfig config)
    : cfg(std::move(config))
{
    fatalIf(cfg.nodes.empty(), "ClusterEngine: need at least one node");
    fatalIf(cfg.admission.enabled && cfg.lut == nullptr &&
                cfg.admissionEstimator == nullptr,
            "ClusterEngine: admission control requires a ModelInfoLut");
    fatalIf(cfg.admission.enabled && cfg.admission.margin <= 0.0,
            "ClusterEngine: admission margin must be positive");
}

ClusterResult
ClusterEngine::run(std::vector<Request>& requests,
                   Dispatcher& dispatcher,
                   const PolicyFactory& make_policy) const
{
    return runSimulation(cfg, requests, dispatcher, make_policy);
}

ClusterResult
ClusterEngine::run(ArrivalSource& source, Dispatcher& dispatcher,
                   const PolicyFactory& make_policy) const
{
    return runSimulation(cfg, source, dispatcher, make_policy);
}

} // namespace dysta
