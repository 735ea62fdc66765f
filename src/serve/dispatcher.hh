/**
 * @file
 * Cluster front-end placement policies.
 *
 * The abstract `Dispatcher` interface lives in the simulation core
 * (src/sim/dispatcher.hh); this file provides the concrete cluster
 * policies. Started requests never move (their activations live on
 * the node), but queued-but-not-started work may be migrated by the
 * work-stealing policy. All policies skip unavailable (draining or
 * failed) nodes and break ties by lowest node id. Five policies:
 *
 *  - round-robin: tenant-oblivious rotation;
 *  - least-outstanding: fewest queued-or-running requests;
 *  - least-backlog: smallest *estimated work* backlog, where each
 *    queued request's remaining latency comes from the shared
 *    `LatencyEstimator` layer — a sparsity-refined `DystaEstimator`
 *    (the Sparse-DySta signal of Alg. 3 lifted from the node
 *    scheduler to cluster scope) or a static `LutEstimator` for the
 *    sparsity-blind ablation. Backlogs are normalized by node
 *    speed, so the policy also handles heterogeneous fleets;
 *  - capability-aware: least *estimated completion* through the
 *    `NodeCapability` view, consulting one `ScaledEstimator` per
 *    hardware class (all sharing the sparsity-refined base), so the
 *    arriving request is charged its node-local isolated latency
 *    plus the node-local backlog ahead of it;
 *  - work-stealing: capability-aware placement plus migration — at
 *    decision points it re-dispatches queued-but-not-started
 *    requests from the most- to the least-loaded node whenever the
 *    backlog imbalance crosses a threshold.
 */

#ifndef DYSTA_SERVE_DISPATCHER_HH
#define DYSTA_SERVE_DISPATCHER_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/estimator.hh"
#include "core/model_info.hh"
#include "sim/dispatcher.hh"
#include "sim/node.hh"

namespace dysta {

/** Tenant-oblivious rotation over the available nodes. */
class RoundRobinDispatcher : public Dispatcher
{
  public:
    std::string name() const override { return "round-robin"; }
    void reset() override { next = 0; }

    size_t selectNode(
        const Request& req,
        const std::vector<std::unique_ptr<SimNode>>& nodes,
        double now) override;

  private:
    /**
     * Monotone counter (reduced mod fleet size at use). A shed
     * request still consumes its rotation slot: rolling the pointer
     * back would pin it to an overloaded node and livelock the
     * front door while the rest of the fleet idles.
     */
    uint64_t next = 0;
};

/**
 * Fewest outstanding (queued + running) requests among available
 * nodes; ties by node id.
 */
class LeastOutstandingDispatcher : public Dispatcher
{
  public:
    std::string name() const override { return "least-outstanding"; }

    size_t selectNode(
        const Request& req,
        const std::vector<std::unique_ptr<SimNode>>& nodes,
        double now) override;
};

/**
 * Shared base of the estimator-driven placement policies: owns the
 * estimator (sparsity-refined `DystaEstimator`, or the frozen
 * `LutEstimator` for the sparsity-blind ablation) and forwards the
 * request lifecycle to it — admit on selection, observe on layer
 * completion, release on completion or shed — so every derived
 * policy tracks requests identically.
 */
class EstimatorDispatcher : public Dispatcher
{
  public:
    void reset() override;

    void onLayerComplete(const SimNode& node, const Request& req,
                         double now,
                         double monitored_sparsity) override;

    void onComplete(const SimNode& node, const Request& req,
                    double now) override;

    void onShed(const Request& req, double now) override;

    void onCancel(const Request& req, double now) override;

    /** The estimator all placement decisions flow through. */
    const LatencyEstimator& estimator() const { return *est; }

  protected:
    EstimatorDispatcher(const ModelInfoLut& lut,
                        PredictorConfig predictor_cfg,
                        bool sparsity_aware);

    /** Estimator owned by this policy. */
    std::unique_ptr<LatencyEstimator> est;
};

/**
 * Estimated-backlog placement: the arriving request goes to the
 * available node whose speed-normalized backlog of estimated
 * remaining work is smallest. With `sparsity_aware` the estimates
 * are refined online by the monitored layer sparsity
 * (DystaEstimator); without, they are the frozen LUT averages
 * (LutEstimator) — the pure LUT-backlog ablation.
 */
class LeastBacklogDispatcher : public EstimatorDispatcher
{
  public:
    explicit LeastBacklogDispatcher(const ModelInfoLut& lut,
                                    PredictorConfig predictor_cfg = {},
                                    bool sparsity_aware = true);

    std::string name() const override;

    size_t selectNode(
        const Request& req,
        const std::vector<std::unique_ptr<SimNode>>& nodes,
        double now) override;

    /**
     * Estimated seconds of estimator-refined work queued on `node`,
     * normalized by its speed factor.
     */
    double backlogEstimate(const SimNode& node) const;

    /** Refined remaining-latency estimate for one in-flight request. */
    double estRemaining(const Request& req) const;

  private:
    bool sparsityAware;
};

/**
 * Capability-aware least-estimated-completion placement for
 * heterogeneous fleets: nodes are read through their
 * `NodeCapability` view, each hardware class is consulted through
 * its own `ScaledEstimator` over one shared sparsity-refined base,
 * and the arriving request goes to the available node minimizing
 *     backlog_node(queue) + isolated_node(request)
 * in node-local seconds. Ties break by lowest node id. On a
 * homogeneous fleet this reduces to least-backlog.
 */
class CapabilityAwareDispatcher : public EstimatorDispatcher
{
  public:
    explicit CapabilityAwareDispatcher(
        const ModelInfoLut& lut, PredictorConfig predictor_cfg = {},
        bool sparsity_aware = true);

    std::string name() const override { return "capability-aware"; }

    size_t selectNode(
        const Request& req,
        const std::vector<std::unique_ptr<SimNode>>& nodes,
        double now) override;

    /** The view of the base estimator for one node capability. */
    const ScaledEstimator& viewFor(const NodeCapability& cap);

    /** Shorthand: the view for this node's own capability. */
    const ScaledEstimator& nodeView(const SimNode& node);

    /**
     * Estimated node-local seconds of work queued on `node`
     * (including its running request's remainder).
     */
    double backlogOn(const SimNode& node);

  private:
    /** One ScaledEstimator per distinct speed factor (hw class). */
    std::unordered_map<double, std::unique_ptr<ScaledEstimator>> views;
};

/** Work-stealing thresholds. */
struct WorkStealingConfig
{
    /**
     * Steal when the most-loaded node's estimated backlog exceeds
     * `imbalanceRatio` times the least-loaded's.
     */
    double imbalanceRatio = 2.0;
    /**
     * ...and the absolute gap exceeds this many seconds (guards
     * against churning on negligible imbalance).
     */
    double minImbalanceSec = 0.0;
    /** Migration budget per rebalance opportunity. */
    size_t maxMovesPerCycle = 4;
};

/**
 * Migrating work-stealing dispatcher: capability-aware placement,
 * plus a `rebalance` hook that moves queued-but-not-started requests
 * from the most- to the least-loaded available node while the
 * backlog imbalance (in node-local estimated seconds) exceeds the
 * configured threshold. Victims are stolen LIFO (most recently
 * placed first) — the oldest queued work keeps its place in line.
 * All scans run in node-id order, so the policy is deterministic.
 */
class WorkStealingDispatcher : public CapabilityAwareDispatcher
{
  public:
    explicit WorkStealingDispatcher(const ModelInfoLut& lut,
                                    WorkStealingConfig steal_cfg = {},
                                    PredictorConfig predictor_cfg = {},
                                    bool sparsity_aware = true);

    std::string name() const override { return "work-stealing"; }

    bool wantsRebalance() const override { return true; }

    std::vector<Migration> rebalance(
        const std::vector<std::unique_ptr<SimNode>>& nodes,
        double now) override;

    const WorkStealingConfig& stealConfig() const { return cfg; }

  private:
    WorkStealingConfig cfg;
};

} // namespace dysta

#endif // DYSTA_SERVE_DISPATCHER_HH
