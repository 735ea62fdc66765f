#include "ledger.hh"

#include <chrono>
#include <cstdio>

#include "util/json.hh"
#include "util/logging.hh"

namespace perfbench {

namespace {

constexpr int kSubBits = 6;
constexpr int64_t kSub = int64_t{1} << kSubBits;

/** Index of the highest set bit; v > 0. */
int
msb(uint64_t v)
{
    return 63 - __builtin_clzll(v);
}

size_t
bucketOf(int64_t value)
{
    if (value < kSub)
        return static_cast<size_t>(value < 0 ? 0 : value);
    int shift = msb(static_cast<uint64_t>(value)) - kSubBits;
    return static_cast<size_t>((shift + 1) * kSub +
                               ((value >> shift) - kSub));
}

/** [low, high) value range of bucket `index`. */
void
bucketRange(size_t index, double& low, double& high)
{
    int64_t i = static_cast<int64_t>(index);
    if (i < kSub) {
        low = static_cast<double>(i);
        high = low + 1.0;
        return;
    }
    int shift = static_cast<int>(i / kSub) - 1;
    int64_t mantissa = kSub + i % kSub;
    low = static_cast<double>(mantissa << shift);
    high = static_cast<double>((mantissa + 1) << shift);
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
Histogram::add(int64_t value)
{
    size_t b = bucketOf(value);
    if (b >= buckets.size())
        buckets.resize(b + 1, 0);
    ++buckets[b];
    ++samples;
}

void
Histogram::merge(const Histogram& other)
{
    if (other.buckets.size() > buckets.size())
        buckets.resize(other.buckets.size(), 0);
    for (size_t b = 0; b < other.buckets.size(); ++b)
        buckets[b] += other.buckets[b];
    samples += other.samples;
}

double
Histogram::quantile(double q) const
{
    if (samples == 0)
        return 0.0;
    double rank = q * static_cast<double>(samples - 1);
    double seen = 0.0;
    for (size_t b = 0; b < buckets.size(); ++b) {
        double n = static_cast<double>(buckets[b]);
        if (n == 0.0 || seen + n <= rank) {
            seen += n;
            continue;
        }
        double low = 0.0, high = 0.0;
        bucketRange(b, low, high);
        return low + (high - low) * (rank - seen + 0.5) / n;
    }
    double low = 0.0, high = 0.0;
    bucketRange(buckets.size() - 1, low, high);
    return high;
}

Ledger::Ledger(int raw_request_prefix, size_t raw_span_cap)
    : rawPrefix(raw_request_prefix), rawCap(raw_span_cap)
{
}

int
Ledger::layer(const std::string& name)
{
    for (size_t i = 0; i < table.size(); ++i)
        if (table[i].name == name)
            return static_cast<int>(i);
    table.push_back(LayerStats{});
    table.back().name = name;
    return static_cast<int>(table.size() - 1);
}

void
Ledger::openAt(int layer_id, int request, int64_t t)
{
    stack.push_back(Open{nextId++, layer_id, request, t, 0});
}

void
Ledger::setRequest(int request)
{
    dysta::panicIf(stack.empty(), "Ledger: no open span");
    stack.back().request = request;
}

void
Ledger::closeAt(int64_t t)
{
    dysta::panicIf(stack.empty(), "Ledger: close without open");
    Open span = stack.back();
    stack.pop_back();
    int64_t dur = t - span.start;
    LayerStats& s = table[static_cast<size_t>(span.layer)];
    ++s.calls;
    s.totalNs += dur;
    s.selfNs += dur - span.childNs;
    s.durations.add(dur);
    uint64_t parent = 0;
    if (!stack.empty()) {
        stack.back().childNs += dur;
        parent = stack.back().id;
    }
    bool keep = parent == 0 ||
                (span.request >= 0 && span.request < rawPrefix);
    if (keep && raw.size() < rawCap)
        raw.push_back(RawSpan{span.id, parent, span.layer,
                              span.request, currentCell, span.start,
                              t});
}

const LayerStats&
Ledger::stats(int layer_id) const
{
    return table.at(static_cast<size_t>(layer_id));
}

const LayerStats&
Ledger::stats(const std::string& name) const
{
    static const LayerStats empty;
    for (const LayerStats& s : table)
        if (s.name == name)
            return s;
    return empty;
}

bool
Ledger::writeChromeTrace(const std::string& path) const
{
    int64_t origin = raw.empty() ? 0 : raw.front().start;
    for (const RawSpan& s : raw)
        origin = s.start < origin ? s.start : origin;
    dysta::JsonWriter json;
    json.beginObject();
    json.beginArray("traceEvents");
    for (const RawSpan& s : raw) {
        json.beginObject();
        json.field("name", table[static_cast<size_t>(s.layer)].name);
        json.field("ph", "X");
        json.field("ts", static_cast<double>(s.start - origin) / 1e3);
        json.field("dur", static_cast<double>(s.end - s.start) / 1e3);
        json.field("pid", s.cell);
        json.field("tid", s.request);
        json.beginObject("args");
        json.field("id", static_cast<uint64_t>(s.id));
        json.field("parent", static_cast<uint64_t>(s.parent));
        json.field("request", s.request);
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.writeFile(path);
}

double
calibrateSpanCostNs(int iterations)
{
    Ledger scratch(0, 0);
    int layer = scratch.layer("calibration");
    int64_t t0 = nowNs();
    for (int i = 0; i < iterations; ++i) {
        scratch.open(layer, -1);
        scratch.close();
    }
    return static_cast<double>(nowNs() - t0) /
           static_cast<double>(iterations);
}

} // namespace perfbench
