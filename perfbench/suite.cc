#include "suite.hh"

#include <cstdio>
#include <set>

#include "api/report.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace perfbench {

const std::vector<Workload>&
workloads()
{
    // Sizing: the request counts and replica counts below are what
    // keeps one run's host time and simulated averages steady across
    // workload seeds (README.md, "Sizing"); the scenarios are
    // otherwise run as checked in.
    static const std::vector<Workload> table = {
        {"megascale", "scenarios/megascale.scn", 20000, 1},
        {"tab05", "scenarios/tab05.scn", 1000, 10},
        {"batching", "scenarios/batching.scn", 200, 96},
        {"chaos", "scenarios/chaos.scn", 4000, 12},
    };
    return table;
}

const Workload&
findWorkload(const std::string& name)
{
    std::string valid;
    for (const Workload& w : workloads()) {
        if (w.name == name)
            return w;
        valid += (valid.empty() ? "" : ", ") + w.name;
    }
    dysta::fatal("perfbench: unknown workload '" + name +
                 "' (valid: " + valid + ")");
}

dysta::ScenarioSpec
loadSpec(const Workload& workload, const std::string& root, int64_t seed)
{
    dysta::ScenarioSpec spec =
        dysta::parseScenarioFile(root + "/" + workload.scenario);
    spec.requests = workload.requests;
    spec.seeds = workload.seeds;
    if (seed >= 0)
        spec.seed = static_cast<uint64_t>(seed);
    return spec;
}

const std::string&
cellScheduler(const dysta::SweepCell& cell)
{
    return cell.clusterMode ? cell.cluster.nodeScheduler : cell.scheduler;
}

std::string
cellReport(const dysta::ScenarioSpec& spec,
           const std::vector<dysta::SweepCell>& cells,
           const std::vector<dysta::SweepCellResult>& results)
{
    dysta::panicIf(cells.size() != results.size(),
                   "cellReport: cells and results differ in size");
    dysta::ScenarioResult run;
    run.spec = spec;
    for (size_t i = 0; i < cells.size(); ++i) {
        dysta::ScenarioRow row;
        dysta::WorkloadPanel panel;
        panel.kind = cells[i].workload.kind;
        panel.rate = cells[i].workload.arrivalRate;
        row.workload = panel.label();
        row.slo = cells[i].workload.sloMultiplier;
        row.chaos = cells[i].cluster.chaos;
        row.batcher = cells[i].cluster.batcher;
        row.scheduler = cellScheduler(cells[i]);
        row.metrics = results[i].metrics;
        row.decisions = static_cast<double>(results[i].decisions);
        row.preemptions = static_cast<double>(results[i].preemptions);
        run.rows.push_back(std::move(row));
    }
    dysta::Reporter reporter("perfbench");
    reporter.add(run);
    return reporter.json();
}

namespace {

struct Fnv
{
    uint64_t h = 1469598103934665603ULL;

    void
    add(const std::string& s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ULL;
        }
        add(static_cast<unsigned char>(0));
    }

    void
    add(unsigned char c)
    {
        h ^= c;
        h *= 1099511628211ULL;
    }
};

void
hashValue(const dysta::JsonValue& v, Fnv& fnv)
{
    fnv.add(static_cast<unsigned char>(v.kind));
    switch (v.kind) {
      case dysta::JsonValue::Kind::Null: break;
      case dysta::JsonValue::Kind::Bool:
        fnv.add(static_cast<unsigned char>(v.boolean));
        break;
      case dysta::JsonValue::Kind::Number:
        fnv.add(dysta::jsonNumber(v.number));
        break;
      case dysta::JsonValue::Kind::String: fnv.add(v.str); break;
      case dysta::JsonValue::Kind::Array:
        for (const dysta::JsonValue& item : v.items)
            hashValue(item, fnv);
        break;
      case dysta::JsonValue::Kind::Object:
        for (const auto& [key, member] : v.members) {
            fnv.add(key);
            hashValue(member, fnv);
        }
        break;
    }
}

} // namespace

std::string
reportDigest(const std::string& report_json)
{
    dysta::JsonValue doc = dysta::parseJson(report_json);
    Fnv fnv;
    for (const auto& [key, value] : doc.members) {
        if (key == "meta")
            continue;
        fnv.add(key);
        if (key != "scenarios") {
            hashValue(value, fnv);
            continue;
        }
        for (const dysta::JsonValue& scenario : value.items)
            for (const auto& [skey, svalue] : scenario.members) {
                if (skey == "spec")
                    continue;
                fnv.add(skey);
                hashValue(svalue, fnv);
            }
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv.h));
    return hex;
}

std::vector<CellProblem>
checkCells(const std::vector<dysta::SweepCell>& cells,
           const std::vector<dysta::SweepCellResult>& results)
{
    std::vector<CellProblem> problems;
    for (size_t i = 0; i < cells.size(); ++i) {
        const dysta::Metrics& m = results[i].metrics;
        size_t offered = static_cast<size_t>(cells[i].workload.numRequests);
        if (m.completed + m.shed != offered)
            problems.push_back(
                {i, "completed + shed = " +
                        std::to_string(m.completed + m.shed) + " of " +
                        std::to_string(offered) + " requests"});
        if (m.goodput > m.throughput)
            problems.push_back({i, "goodput " + dysta::jsonNumber(m.goodput) +
                                       " exceeds throughput " +
                                       dysta::jsonNumber(m.throughput)});
        if (results[i].eventsProcessed == 0)
            problems.push_back({i, "no calendar events processed"});
    }
    return problems;
}

size_t
failedCells(const std::vector<CellProblem>& problems)
{
    std::set<size_t> cells;
    for (const CellProblem& p : problems)
        cells.insert(p.cell);
    return cells.size();
}

std::vector<Golden>
loadGolden(const std::string& path)
{
    dysta::JsonValue doc = dysta::parseJsonFile(path);
    dysta::fatalIf(!doc.isObject(), "perfbench: " + path +
                                        " must hold a JSON object");
    std::vector<Golden> out;
    for (const auto& [name, entry] : doc.members) {
        const dysta::JsonValue* seed = entry.find("seed");
        const dysta::JsonValue* requests = entry.find("requests");
        const dysta::JsonValue* seeds = entry.find("seeds");
        const dysta::JsonValue* digest = entry.find("digest");
        dysta::fatalIf(seed == nullptr || requests == nullptr ||
                           seeds == nullptr || digest == nullptr,
                       "perfbench: golden entry '" + name +
                           "' needs seed, requests, seeds and digest");
        Golden g;
        g.workload = name;
        g.seed = static_cast<uint64_t>(seed->number);
        g.requests = static_cast<int>(requests->number);
        g.seeds = static_cast<int>(seeds->number);
        g.digest = digest->str;
        out.push_back(g);
    }
    return out;
}

std::string
checkGolden(const std::vector<Golden>& goldens, const Workload& workload,
            const dysta::ScenarioSpec& spec, const std::string& digest)
{
    for (const Golden& g : goldens) {
        if (g.workload != workload.name)
            continue;
        if (spec.seed != g.seed)
            return "";
        if (g.requests != spec.requests || g.seeds != spec.seeds)
            return "golden digest of " + workload.name +
                   " was recorded at another sizing; record it again";
        if (g.digest != digest)
            return "simulated report digest " + digest +
                   " differs from the golden " + g.digest;
        return "";
    }
    return "no golden digest for workload " + workload.name;
}

SimSummary
summarize(const std::vector<dysta::SweepCell>& cells,
          const std::vector<dysta::SweepCellResult>& results)
{
    SimSummary s;
    double dysta_cells = 0.0, offered = 0.0, missed = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
        const dysta::Metrics& m = results[i].metrics;
        double retired = static_cast<double>(m.completed + m.shed);
        s.retired += retired;
        s.events += static_cast<double>(results[i].eventsProcessed);
        if (cellScheduler(cells[i]) != "Dysta")
            continue;
        dysta_cells += 1.0;
        offered += retired;
        missed += m.sloMissRate * retired;
        s.antt += m.antt;
        s.goodputRps += m.goodput;
        s.p99LatencyMs += m.p99Latency * 1e3;
    }
    if (dysta_cells > 0.0) {
        s.antt /= dysta_cells;
        s.goodputRps /= dysta_cells;
        s.p99LatencyMs /= dysta_cells;
    }
    if (offered > 0.0)
        s.sloMissPct = 100.0 * missed / offered;
    return s;
}

} // namespace perfbench
