#include "core/estimator.hh"

#include "util/logging.hh"

namespace dysta {

// --- LutEstimator -----------------------------------------------------------

double
LutEstimator::remaining(const Request& req) const
{
    return lut->entryFor(req).estRemaining(req.nextLayer);
}

double
LutEstimator::isolated(const Request& req) const
{
    return lut->entryFor(req).avgLatency;
}

// --- DystaEstimator ---------------------------------------------------------

DystaEstimator::DystaEstimator(const ModelInfoLut& table,
                               PredictorConfig predictor_cfg,
                               bool refine)
    : lut(&table), pcfg(predictor_cfg), refineEnabled(refine)
{
}

void
DystaEstimator::reset()
{
    predictors.clear();
}

void
DystaEstimator::admit(const Request& req)
{
    predictors.try_emplace(req.id,
                           SparseLatencyPredictor(lut->entryFor(req), pcfg));
}

void
DystaEstimator::observe(const Request& req, double monitored_sparsity)
{
    // Alg. 3 line 3: refine only when the monitor captured the layer.
    if (!refineEnabled || monitored_sparsity < 0.0)
        return;
    auto it = predictors.find(req.id);
    if (it != predictors.end() && req.nextLayer > 0)
        it->second.observe(req.nextLayer - 1, monitored_sparsity);
}

void
DystaEstimator::release(const Request& req)
{
    predictors.erase(req.id);
}

double
DystaEstimator::remaining(const Request& req) const
{
    auto it = predictors.find(req.id);
    if (it != predictors.end())
        return it->second.predictRemaining(req.nextLayer);
    return lut->entryFor(req).estRemaining(req.nextLayer);
}

double
DystaEstimator::isolated(const Request& req) const
{
    // SLOs are published against the profiled average, so the
    // isolated reference stays the LUT value even for refined
    // requests.
    return lut->entryFor(req).avgLatency;
}

double
DystaEstimator::gamma(int request_id) const
{
    auto it = predictors.find(request_id);
    return it != predictors.end() ? it->second.gamma() : 1.0;
}

ScaledEstimator::ScaledEstimator(const LatencyEstimator& base,
                                 double speed_factor)
    : inner(&base), speed(speed_factor)
{
    fatalIf(speed_factor <= 0.0,
            "ScaledEstimator: speed factor must be positive");
}

std::string
ScaledEstimator::name() const
{
    return inner->name() + "@x" + std::to_string(speed);
}

} // namespace dysta
