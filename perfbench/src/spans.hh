/**
 * @file
 * In-memory spans for the benchmark's traced run.
 *
 * A span is one call from the benchmark into a library layer: a name
 * (the layer and the call, e.g. "sim.run"), its start and end on the
 * steady clock, and the span that caused it. Spans are kept in memory
 * and only summarised after the timed section, so the traced run costs
 * a clock read per boundary.
 *
 * Campaign jobs each fill a private SpanLog that the rep's log absorbs
 * in job order, which keeps the log independent of thread scheduling
 * except for the timestamps themselves.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (std::chrono::steady_clock). */
std::int64_t nowNs();

struct Span
{
    const char *name = ""; ///< static string: "<layer>.<call>"
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1; ///< index of the causing span in the same log

    double seconds() const { return (endNs - startNs) * 1e-9; }
};

class SpanLog
{
  public:
    /** Open a span under the innermost open one; returns its index. */
    int open(const char *name);

    /** Close span @p idx (must be the innermost open span). */
    void close(int idx);

    /** Append @p other's spans (a job-private log) with its root spans
     * parented to span @p parent of this log. */
    void absorb(const SpanLog &other, int parent);

    /** Total seconds of every span named @p name. */
    double total(const std::string &name) const;

    /** Total seconds of spans named @p name, minus the time their
     * direct children cover (the layer's self time). */
    double self(const std::string &name) const;

    /** Durations in seconds of every span named @p name, in log order. */
    std::vector<double> durations(const std::string &name) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/**
 * RAII span; a null log makes it a no-op, so one code path serves the
 * untraced and the traced run.
 */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const char *name)
        : log_(log), idx_(log ? log->open(name) : -1)
    {}
    ~SpanScope()
    {
        if (log_)
            log_->close(idx_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    int idx_;
};

/** Quantile @p q in [0, 1] of @p v by linear interpolation (0 when
 * empty). */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
