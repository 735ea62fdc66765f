#include "sim/node.hh"

#include <algorithm>
#include <cmath>

#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace dysta {

NodeHw
referenceNodeHw()
{
    return NodeHw{};
}

double
hwSpeedFactor(const NodeHw& hw)
{
    fatalIf(hw.peCount <= 0, "hwSpeedFactor: PE count must be positive");
    fatalIf(hw.clockHz <= 0.0, "hwSpeedFactor: clock must be positive");
    fatalIf(hw.derate <= 0.0, "hwSpeedFactor: derate must be positive");
    NodeHw ref = referenceNodeHw();
    return (static_cast<double>(hw.peCount) * hw.clockHz * hw.derate) /
           (static_cast<double>(ref.peCount) * ref.clockHz);
}

std::string
toString(NodeState state)
{
    switch (state) {
      case NodeState::Up:
        return "up";
      case NodeState::Draining:
        return "draining";
      case NodeState::Down:
        return "down";
    }
    return "?";
}

NodeProfile
referenceNodeProfile(const std::string& name)
{
    NodeProfile p;
    p.name = name;
    p.speedFactor = 1.0;
    return p;
}

NodeProfile
scaledNodeProfile(const std::string& name, double speed)
{
    fatalIf(speed <= 0.0,
            "scaledNodeProfile: speed factor must be positive");
    NodeProfile p;
    p.name = name;
    p.speedFactor = speed;
    return p;
}

NodeProfile
nodeProfileFromHw(const std::string& name, NodeHw hw)
{
    NodeProfile p;
    p.name = name;
    p.speedFactor = hwSpeedFactor(hw);
    p.hw = std::move(hw);
    return p;
}

SimNode::SimNode(int id, NodeProfile profile,
                 std::unique_ptr<Scheduler> policy)
    : nodeId(id), prof(std::move(profile)), sched(std::move(policy))
{
    panicIf(sched == nullptr, "SimNode: null scheduling policy");
    fatalIf(prof.speedFactor <= 0.0,
            "SimNode: speed factor must be positive");
}

double
SimNode::layerLatency(const LayerTrace& layer) const
{
    return layer.latency / prof.speedFactor;
}

NodeCapability
SimNode::capability() const
{
    NodeCapability cap;
    cap.id = nodeId;
    cap.state = nodeState;
    cap.available = available();
    cap.hwClass = prof.hw.hwClass;
    cap.speedFactor = prof.speedFactor;
    cap.outstanding = ready.size();
    return cap;
}

std::vector<Request*>
SimNode::fail(double now)
{
    if (nodeState == NodeState::Down)
        return {};
    nodeState = NodeState::Down;
    ++failEpoch;

    // The policy forgets every queued request (in queue order); the
    // caller decides their fate (re-dispatch, restart or shed).
    std::vector<Request*> displaced = std::move(ready);
    ready.clear();
    for (Request* req : displaced) {
        sched->onDequeue(*req, now);
        req->lastNode = -1;
    }

    running = nullptr;
    blockOwner = nullptr;
    blockExecuted = 0;
    lastRun = nullptr;
    members.clear();
    return displaced;
}

void
SimNode::drain()
{
    if (nodeState == NodeState::Up)
        nodeState = NodeState::Draining;
}

void
SimNode::recover()
{
    nodeState = NodeState::Up;
}

void
SimNode::enqueue(Request* req, double now)
{
    panicIf(req == nullptr || req->trace == nullptr ||
                req->trace->layers.empty(),
            "SimNode: request without a trace");
    panicIf(nodeState == NodeState::Down,
            "SimNode: enqueue on a failed node");
    req->nextLayer = 0;
    req->executedTime = 0.0;
    req->lastRunEnd = req->arrival;
    req->finishTime = -1.0;
    req->lastNode = nodeId;
    req->nodeEnqueueTime = now;
    ready.push_back(req);
    sched->onArrival(*req, now);
}

void
SimNode::removeQueued(Request* req, double now)
{
    panicIf(req == nullptr, "SimNode::removeQueued: null request");
    panicIf(req == running || req == blockOwner,
            "SimNode::removeQueued: request is in flight");
    panicIf(inStep(req),
            "SimNode::removeQueued: request is in a running step");
    panicIf(req->nextLayer != 0,
            "SimNode::removeQueued: request already started");
    auto it = std::find(ready.begin(), ready.end(), req);
    panicIf(it == ready.end(),
            "SimNode::removeQueued: request not queued here");
    ready.erase(it);
    sched->onDequeue(*req, now);
    req->lastNode = -1;
}

SimNode::CancelOutcome
SimNode::cancel(Request* req, double now)
{
    panicIf(req == nullptr, "SimNode::cancel: null request");
    auto it = std::find(ready.begin(), ready.end(), req);
    if (it == ready.end())
        return CancelOutcome::NotHere;
    ready.erase(it);
    sched->onDequeue(*req, now);
    req->lastNode = -1;

    if (req == running) {
        // Its layer is in flight: abandon it. The epoch bump stales
        // the pending layer-complete event, exactly like fail().
        // The anchor owns the step, so every member loses it (they
        // keep their progress in the ready queue).
        running = nullptr;
        blockOwner = nullptr;
        blockExecuted = 0;
        lastRun = nullptr;
        members.clear();
        ++failEpoch;
        return CancelOutcome::Running;
    }
    // A cancelled non-anchor member leaves its step; an in-flight
    // step keeps its already-committed wall time.
    auto mit = std::find(members.begin(), members.end(), req);
    if (mit != members.end())
        members.erase(mit);
    if (req == blockOwner) {
        // Between layers of its block (the caller cancels at layer
        // boundaries): release the block without touching the epoch.
        blockOwner = nullptr;
        blockExecuted = 0;
    }
    if (lastRun == req)
        lastRun = nullptr;
    return CancelOutcome::Queued;
}

void
SimNode::setBatching(const BatchConfig& cfg)
{
    batchCfg = cfg;
    stepCap = cfg.enabled ? static_cast<size_t>(cfg.maxSize) : 1;
}

bool
SimNode::inStep(const Request* req) const
{
    return running != nullptr &&
           std::find(members.begin(), members.end(), req) !=
               members.end();
}

bool
SimNode::holdUntil(double now, double* release_at) const
{
    if (ready.size() >= stepCap)
        return false;
    double oldest = ready.front()->nodeEnqueueTime;
    for (const Request* r : ready)
        oldest = std::min(oldest, r->nodeEnqueueTime);
    if (now >= oldest + batchCfg.maxDelaySec)
        return false;
    *release_at = oldest + batchCfg.maxDelaySec;
    return true;
}

/**
 * Fill the step from the ready queue up to the member cap, ordered
 * by the composition policy. Candidate ranking consults the
 * scheduler's own estimator (sparsity-refined under Dysta);
 * estimator-less policies (FCFS) fall back to queue order for every
 * composition. Each candidate's key is computed once, and ordering
 * (key, queue position) pairs reproduces a stable sort by key
 * without allocating. @pre members.size() < stepCap
 */
void
SimNode::composeBatch(double now, bool at_join)
{
    const LatencyEstimator* est = sched->estimator();
    bool by_key = est != nullptr && batchCfg.compose != BatchCompose::Fifo;
    size_t room = stepCap - members.size();
    ranked.clear();
    for (size_t i = 0; i < ready.size(); ++i) {
        // Queue order needs no more candidates than free slots.
        if (!by_key && ranked.size() == room)
            break;
        if (std::find(members.begin(), members.end(), ready[i]) ==
            members.end())
            ranked.emplace_back(0.0, i);
    }
    if (ranked.empty())
        return;

    size_t take = std::min(ranked.size(), room);
    if (by_key) {
        auto perLayer = [&](const Request* r) {
            size_t left = r->layerCount() - r->nextLayer;
            return est->remaining(*r) /
                   static_cast<double>(left == 0 ? 1 : left);
        };
        if (batchCfg.compose == BatchCompose::Greedy) {
            for (auto& [key, pos] : ranked)
                key = est->remaining(*ready[pos]);
        } else {
            // Group members of similar predicted density: per-layer
            // estimated time closest to the anchor's, so the step's
            // max tracks its mean instead of one dense straggler.
            double pivot = perLayer(blockOwner);
            for (auto& [key, pos] : ranked)
                key = std::abs(perLayer(ready[pos]) - pivot);
        }
        std::partial_sort(ranked.begin(),
                          ranked.begin() +
                              static_cast<std::ptrdiff_t>(take),
                          ranked.end());
    }

    for (size_t k = 0; k < take; ++k) {
        Request* r = ready[ranked[k].second];
        members.push_back(r);
        if (r->nextLayer == 0) {
            bstats.fillWaitSec += now - r->nodeEnqueueTime;
            ++bstats.fillWaitCount;
        }
        if (at_join) {
            ++bstats.joins;
            if (telemetry)
                telemetry->batchJoin(*r, nodeId, r->nextLayer, now);
        }
    }
}

double
SimNode::startStep(double start)
{
    auto own = [this](const Request* m) {
        return layerLatency(m->trace->layers[m->nextLayer]);
    };
    // The anchor seeds the max, so a lone member compares nothing.
    double base = own(members[0]);
    for (size_t i = 1; i < members.size(); ++i)
        base = std::max(base, own(members[i]));
    stepBase = base;
    // A lone member pays no marginal-member overhead; skipping the
    // multiply by exactly 1.0 changes no bit of the step time.
    stepLat = members.size() == 1
                  ? base
                  : base * (1.0 + batchCfg.overhead *
                                      static_cast<double>(
                                          members.size() - 1));
    running = blockOwner;
    layerEnd = start + stepLat;
    if (telemetry)
        telemetry->execStart(*blockOwner, nodeId,
                             blockOwner->nextLayer, start);
    return layerEnd;
}

double
SimNode::beginStep(double now)
{
    panicIf(busy(), "SimNode::beginStep while busy");
    panicIf(ready.empty(), "SimNode::beginStep with empty queue");
    panicIf(nodeState == NodeState::Down,
            "SimNode::beginStep on a failed node");

    Request* pick = sched->pickNext(ready, now);
    ++numDecisions;
    // Containment for buggy pickNext overrides (e.g. a user heap
    // that forgot to erase on completion): fail deterministically
    // instead of indexing a finished trace.
    panicIf(pick == nullptr || pick->done(),
            "SimNode: scheduler returned an invalid request");
    blockOwner = pick;
    blockExecuted = 0;

    if (lastRun != nullptr && blockOwner != lastRun &&
        lastRun->nextLayer > 0 && !lastRun->done()) {
        ++numPreemptions;
        if (telemetry)
            telemetry->preempt(*lastRun, nodeId, now);
    }

    members.clear();
    members.push_back(pick);
    if (pick->nextLayer == 0) {
        bstats.fillWaitSec += now - pick->nodeEnqueueTime;
        ++bstats.fillWaitCount;
    }
    if (members.size() < stepCap)
        composeBatch(now, false);
    ++bstats.formed;
    if (telemetry && batchCfg.enabled)
        telemetry->batchForm(*pick, nodeId, members.size(), now);
    return startStep(now + prof.decisionOverheadSec);
}

const std::vector<Request*>&
SimNode::completeStep()
{
    panicIf(!busy(), "SimNode::completeStep on idle node");
    running = nullptr;
    ++blockExecuted;
    ++bstats.steps;
    bstats.memberSteps += members.size();

    finished.clear();
    for (Request* m : members) {
        size_t layer_idx = m->nextLayer;
        const LayerTrace& layer = m->trace->layers[layer_idx];
        double own = layerLatency(layer);
        bstats.stragglerTaxSec += stepBase - own;
        m->executedTime += own;
        ++m->nextLayer;
        m->lastRunEnd = layerEnd;
        if (m == blockOwner)
            lastSparsity = layer.monitoredSparsity;
        sched->onLayerComplete(*m, layerEnd, layer.monitoredSparsity);
        if (telemetry)
            telemetry->layerComplete(*m, nodeId, layer_idx,
                                     layerEnd - stepLat, layerEnd,
                                     layer.monitoredSparsity);
        if (m->done())
            finished.push_back(m);
    }
    for (Request* m : finished) {
        m->finishTime = layerEnd;
        sched->onComplete(*m, layerEnd);
        ready.erase(std::find(ready.begin(), ready.end(), m));
        members.erase(std::find(members.begin(), members.end(), m));
        m->lastNode = -1;
        ++numCompleted;
        if (telemetry)
            telemetry->complete(*m, nodeId, ready.size(), layerEnd);
    }
    if (blockOwner->done()) {
        blockOwner = nullptr;
        lastRun = nullptr;
    } else {
        lastRun = blockOwner;
    }
    return finished;
}

bool
SimNode::blockContinues() const
{
    panicIf(busy(), "SimNode::blockContinues while busy");
    size_t block = std::max<size_t>(1, prof.layerBlockSize);
    return blockOwner != nullptr && !blockOwner->done() &&
           blockExecuted < block;
}

double
SimNode::continueStep(double now)
{
    panicIf(!blockContinues(), "SimNode::continueStep at boundary");
    // Continuous batching: queued work joins at this layer boundary;
    // the step itself starts back to back with the previous one.
    if (members.size() < stepCap)
        composeBatch(now, true);
    return startStep(layerEnd);
}

} // namespace dysta
