/**
 * @file
 * The benchmark's reference kernel (see reference.hh).
 */

#include "reference.hh"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "ledger.hh"

namespace perfbench {

namespace {

/** Records the kernel reads at random: 8 MiB, past the private caches. */
constexpr uint64_t kRecords = uint64_t{1} << 18;
/** Events the calendar holds at once. */
constexpr int kPending = 1024;
/** Events popped per run. */
constexpr int kEvents = 300000;

uint64_t
splitmix64(uint64_t& state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
unit(uint64_t& state)
{
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

struct Record
{
    double remaining = 1.0;
    double served = 0.0;
    uint64_t visits = 0;
    uint64_t tag = 0;
};

/** Allocated once, so no run pays for page faults. */
std::vector<Record>&
records()
{
    static std::vector<Record> table(kRecords);
    return table;
}

} // namespace

ReferenceRun
runReferenceKernel()
{
    std::vector<Record>& table = records();
    int64_t t0 = nowNs();
    std::fill(table.begin(), table.end(), Record{});
    uint64_t rng = 42;
    using Event = std::pair<double, uint64_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> cal;
    for (int i = 0; i < kPending; ++i)
        cal.push({unit(rng), splitmix64(rng) % kRecords});
    uint64_t sum = 0;
    for (int i = 0; i < kEvents; ++i) {
        Event e = cal.top();
        cal.pop();
        Record& r = table[e.second];
        double step = 0.1 + unit(rng);
        if (r.remaining > step) {
            r.remaining -= step;
            r.served += step;
        } else {
            r.remaining = 1.0 + 4.0 * unit(rng);
            r.tag ^= splitmix64(rng);
        }
        ++r.visits;
        sum += r.visits + (r.tag & 7);
        cal.push({e.first + step * r.remaining,
                  (e.second * 2654435761ULL + r.tag) % kRecords});
    }
    return {static_cast<double>(nowNs() - t0) / 1e9, sum};
}

} // namespace perfbench
