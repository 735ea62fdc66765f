/**
 * @file
 * Span ledger of the benchmark's traced run.
 *
 * Every call the benchmark's layer wrappers intercept opens a span
 * (layer, request id, start, end, parent). The ledger keeps, per
 * layer, the call count, total and self time and a log-linear
 * duration histogram; raw spans are kept only for a bounded prefix
 * of request ids and written out as a Chrome trace when the run
 * ends. A span's self time is its duration minus the time its child
 * spans cover; spans nest strictly because the traced run is
 * single-threaded, so the children of one span never overlap.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Host nanoseconds on the monotonic clock. */
int64_t nowNs();

/**
 * Log-linear histogram of non-negative integer samples: exact below
 * 64, then 64 buckets per power of two (about 1.6% relative width).
 * Quantiles interpolate linearly inside the bucket that holds the
 * requested rank.
 */
class Histogram
{
  public:
    void add(int64_t value);
    /** Add every sample of `other`. */
    void merge(const Histogram& other);
    uint64_t count() const { return samples; }
    /** Quantile q in [0, 1]; 0 when empty. */
    double quantile(double q) const;

  private:
    std::vector<uint64_t> buckets;
    uint64_t samples = 0;
};

/** Aggregates of one layer. */
struct LayerStats
{
    std::string name;
    uint64_t calls = 0;
    int64_t totalNs = 0;
    int64_t selfNs = 0;
    Histogram durations;

    double meanNs() const
    {
        return calls == 0 ? 0.0
                          : static_cast<double>(totalNs) /
                                static_cast<double>(calls);
    }
};

/** One kept raw span. */
struct RawSpan
{
    uint64_t id = 0;
    /** Id of the enclosing span; 0 for a root. */
    uint64_t parent = 0;
    int layer = 0;
    /** Request id shared by all spans of one request; -1 for none. */
    int request = -1;
    /** Grid cell the span belongs to. */
    int cell = 0;
    int64_t start = 0;
    int64_t end = 0;
};

/** Per-layer span aggregation for one traced run. */
class Ledger
{
  public:
    /**
     * @param raw_request_prefix keep raw spans of request ids below
     *        this (and every root span)
     * @param raw_span_cap hard cap on kept raw spans
     */
    explicit Ledger(int raw_request_prefix = 16,
                    size_t raw_span_cap = 50000);

    /** Interned layer id of `name` (created on first use). */
    int layer(const std::string& name);

    /** Cell index stamped on spans opened from now on. */
    void setCell(int cell) { currentCell = cell; }

    void open(int layer_id, int request) { openAt(layer_id, request, nowNs()); }
    void close() { closeAt(nowNs()); }

    /** Open a span at an explicit time (tests, calibration). */
    void openAt(int layer_id, int request, int64_t t);
    /** Close the innermost open span at an explicit time. */
    void closeAt(int64_t t);
    /** Re-label the innermost open span's request id. */
    void setRequest(int request);

    const LayerStats& stats(int layer_id) const;
    /** Stats by name; an empty record when the layer never opened. */
    const LayerStats& stats(const std::string& name) const;
    const std::vector<LayerStats>& layers() const { return table; }
    const std::vector<RawSpan>& rawSpans() const { return raw; }
    size_t openDepth() const { return stack.size(); }

    /**
     * Write the kept raw spans as a Chrome trace (one process per
     * cell, one thread per request). Returns false on I/O errors.
     */
    bool writeChromeTrace(const std::string& path) const;

  private:
    struct Open
    {
        uint64_t id;
        int layer;
        int request;
        int64_t start;
        int64_t childNs;
    };

    std::vector<LayerStats> table;
    std::vector<Open> stack;
    std::vector<RawSpan> raw;
    uint64_t nextId = 1;
    int currentCell = 0;
    int rawPrefix;
    size_t rawCap;
};

/** RAII span; the request id may be filled in before it closes. */
class Span
{
  public:
    Span(Ledger& ledger, int layer_id, int request = -1)
        : owner(&ledger)
    {
        owner->open(layer_id, request);
    }
    ~Span() { owner->close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void setRequest(int request) { owner->setRequest(request); }

  private:
    Ledger* owner;
};

/** Mean host cost of one empty open/close pair, in ns. */
double calibrateSpanCostNs(int iterations = 200000);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
