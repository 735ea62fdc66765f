/**
 * @file
 * The benchmark's traced run: grid cells executed through the public
 * SchedulerEngine / ClusterEngine entry points, with a timing wrapper
 * around each layer's public virtual interface — Scheduler,
 * Dispatcher, ArrivalSource, LatencyEstimator and FailureProcess.
 * The wrappers only forward and record spans, so a traced cell must
 * reproduce the untraced cell's report exactly.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <memory>
#include <string>
#include <vector>

#include "chaos/failure.hh"
#include "exp/sweep.hh"
#include "ledger.hh"

namespace perfbench {

/** The traced run's ledger plus the counts no span carries. */
struct Tracer
{
    Ledger ledger;
    /** Ready-set depth seen by pickNext, summed and maximal. */
    uint64_t readyDepthSum = 0;
    uint64_t readyDepthMax = 0;
    /** Transitions the wrapped failure processes emitted. */
    uint64_t failEvents = 0;
};

/**
 * Read-only estimator view that times remaining()/isolated() under
 * one ledger layer. The lifecycle hooks are not forwarded: the
 * owner of the wrapped estimator drives them.
 */
class TracedEstimator final : public dysta::LatencyEstimator
{
  public:
    TracedEstimator(const dysta::LatencyEstimator& wrapped, Ledger& spans,
                    int layer_id)
        : inner(&wrapped), ledger(&spans), layerId(layer_id)
    {
    }

    std::string name() const override { return inner->name(); }
    double remaining(const dysta::Request& req) const override;
    double isolated(const dysta::Request& req) const override;

  private:
    const dysta::LatencyEstimator* inner;
    Ledger* ledger;
    int layerId;
};

/**
 * Owning scheduler wrapper. estimator() exposes the inner policy's
 * estimator through a TracedEstimator ("batch.est"), or nullptr when
 * the inner policy has none, so batch composition ranks candidates
 * exactly as it would on the bare policy.
 */
class TracedScheduler final : public dysta::Scheduler
{
  public:
    /**
     * @param label policy label; picks record under the layer
     *        "sched.<label>.pick"
     */
    TracedScheduler(std::unique_ptr<dysta::Scheduler> wrapped,
                    Tracer& trace, const std::string& label);

    std::string name() const override { return policy->name(); }
    void reset() override { policy->reset(); }
    void onArrival(const dysta::Request& req, double now) override;
    void onLayerComplete(const dysta::Request& req, double now,
                         double monitored_sparsity) override;
    void onComplete(const dysta::Request& req, double now) override;
    void onDequeue(const dysta::Request& req, double now) override;
    size_t selectNext(const std::vector<const dysta::Request*>& ready,
                      double now) override;
    dysta::Request* pickNext(const std::vector<dysta::Request*>& ready,
                             double now) override;

  private:
    std::unique_ptr<dysta::Scheduler> policy;
    Tracer* tracer;
    int pickLayer, arrivalLayer, layerLayer, completeLayer, dequeueLayer;
};

/** Dispatcher wrapper: selectNode and every hook are timed. */
class TracedDispatcher final : public dysta::Dispatcher
{
  public:
    TracedDispatcher(dysta::Dispatcher& wrapped, Ledger& spans);

    std::string name() const override { return inner->name(); }
    void reset() override { inner->reset(); }
    size_t selectNode(const dysta::Request& req,
                      const std::vector<std::unique_ptr<dysta::SimNode>>&
                          nodes,
                      double now) override;
    bool wantsRebalance() const override
    {
        return inner->wantsRebalance();
    }
    std::vector<dysta::Migration>
    rebalance(const std::vector<std::unique_ptr<dysta::SimNode>>& nodes,
              double now) override;
    void onLayerComplete(const dysta::SimNode& node,
                         const dysta::Request& req, double now,
                         double monitored_sparsity) override;
    void onComplete(const dysta::SimNode& node, const dysta::Request& req,
                    double now) override;
    void onShed(const dysta::Request& req, double now) override;
    void onCancel(const dysta::Request& req, double now) override;

  private:
    dysta::Dispatcher* inner;
    Ledger* ledger;
    int selectLayer, hookLayer;
};

/** Arrival-source wrapper: next() and retire() are timed. */
class TracedSource final : public dysta::ArrivalSource
{
  public:
    TracedSource(dysta::ArrivalSource& wrapped, Ledger& spans);

    size_t total() const override { return inner->total(); }
    dysta::Request* next() override;
    void retire(dysta::Request* req, double now) override;

  private:
    dysta::ArrivalSource* inner;
    Ledger* ledger;
    int nextLayer, retireLayer;
};

/** Failure-process wrapper: next() is timed, emitted events counted. */
class TracedFailure final : public dysta::FailureProcess
{
  public:
    TracedFailure(dysta::FailureProcess& wrapped, Tracer& trace);

    std::string name() const override { return inner->name(); }
    void reset(const std::vector<dysta::NodeProfile>& nodes,
               uint64_t seed) override
    {
        inner->reset(nodes, seed);
    }
    bool next(dysta::NodeEvent& out) override;

  private:
    dysta::FailureProcess* inner;
    Tracer* tracer;
    int nextLayer;
};

/** Outcome of one traced pass over a grid. */
struct TracedPass
{
    std::vector<dysta::SweepCellResult> results;
    /** Host seconds per cell, in cell order. */
    std::vector<double> cellSeconds;
};

/**
 * Execute `cells` serially with every layer wrapped, recording into
 * `tracer`. Mirrors runSweepCell/runCluster through public APIs
 * only; `probes` false drops the cells' estimator probes (the
 * probe-cost comparison pass).
 */
TracedPass runTraced(const dysta::BenchContext& ctx,
                     const std::vector<dysta::SweepCell>& cells,
                     Tracer& tracer, bool probes = true);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
