/**
 * @file
 * The benchmark's workloads and output checks.
 *
 * Each workload is a checked-in scenario file; the benchmark
 * overrides its request count, its seed-replica count and its
 * workload seed, nothing else. The simulated outcome of a grid is a
 * per-cell report — one Reporter row per cell, so every simulated
 * statistic the report format knows is covered — and its digest is
 * what the golden check and the traced-vs-untraced check compare.
 */

#ifndef PERFBENCH_SUITE_HH
#define PERFBENCH_SUITE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/scenario.hh"

namespace perfbench {

/** One benchmark workload. */
struct Workload
{
    std::string name;
    /** Scenario file, relative to the repository root. */
    std::string scenario;
    /** Requests per cell. */
    int requests = 0;
    /** Seed replicas per grid point. */
    int seeds = 0;
};

const std::vector<Workload>& workloads();

/** The workload called `name`; fatal() listing the valid names. */
const Workload& findWorkload(const std::string& name);

/**
 * Parse the workload's scenario under `root` and apply the
 * benchmark's overrides. `seed` < 0 keeps the scenario's own seed.
 */
dysta::ScenarioSpec loadSpec(const Workload& workload,
                             const std::string& root, int64_t seed);

/** The node scheduler a cell runs ("Dysta", "FCFS", ...). */
const std::string& cellScheduler(const dysta::SweepCell& cell);

/** Report JSON with one row per cell, in cell order. */
std::string cellReport(const dysta::ScenarioSpec& spec,
                       const std::vector<dysta::SweepCell>& cells,
                       const std::vector<dysta::SweepCellResult>& results);

/**
 * 64-bit FNV-1a digest (16 hex digits) of a report's simulated
 * part: everything outside "meta" and each scenario's "spec".
 */
std::string reportDigest(const std::string& report_json);

/** One failed output check. */
struct CellProblem
{
    size_t cell = 0;
    std::string what;
};

/**
 * Conservation checks on every cell: completed + shed equals the
 * requests generated, goodput <= throughput, events > 0.
 */
std::vector<CellProblem>
checkCells(const std::vector<dysta::SweepCell>& cells,
           const std::vector<dysta::SweepCellResult>& results);

/** Number of distinct cells named in `problems`. */
size_t failedCells(const std::vector<CellProblem>& problems);

/** A committed digest of one workload at one sizing and seed. */
struct Golden
{
    std::string workload;
    uint64_t seed = 0;
    int requests = 0;
    int seeds = 0;
    std::string digest;
};

/** Parse the golden file; fatal() on malformed content. */
std::vector<Golden> loadGolden(const std::string& path);

/**
 * Compare `digest` against the golden entry of `workload`. Applies
 * only when `spec.seed` is the entry's seed; returns "" when it
 * matches or does not apply, otherwise what is wrong (mismatch,
 * stale sizing or missing entry).
 */
std::string checkGolden(const std::vector<Golden>& goldens,
                        const Workload& workload,
                        const dysta::ScenarioSpec& spec,
                        const std::string& digest);

/** Simulated end-to-end figures over a grid's Dysta cells. */
struct SimSummary
{
    /** Requests retired (completed + shed) over all cells. */
    double retired = 0.0;
    /** Calendar events over all cells. */
    double events = 0.0;
    double antt = 0.0;
    double sloMissPct = 0.0;
    double goodputRps = 0.0;
    double p99LatencyMs = 0.0;
};

SimSummary summarize(const std::vector<dysta::SweepCell>& cells,
                     const std::vector<dysta::SweepCellResult>& results);

} // namespace perfbench

#endif // PERFBENCH_SUITE_HH
