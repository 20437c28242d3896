/**
 * @file
 * Log2-bucketed latency histogram backed by StatSet counters.
 *
 * Bucket 0 holds zero-tick samples; bucket i (i >= 1) holds values in
 * [2^(i-1), 2^i - 1]; the last bucket absorbs everything at or above
 * 2^(kBuckets-2). Each bucket is mirrored into a StatSet slot
 * ("<prefix>.bucket_07": 64..127 ticks) together with ".count",
 * ".total" and a Kind::Max ".max", so histograms merge correctly across
 * campaign shards and appear in dumpJson like any other stat.
 *
 * StatSet handles are interned lazily on the first record(): a histogram
 * owned by a component with no trace sink attached never touches the
 * registry, keeping tracing-off stat output byte-identical.
 */

#ifndef WO_OBS_LATENCY_HISTOGRAM_HH
#define WO_OBS_LATENCY_HISTOGRAM_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/coverage.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace wo {

/** A power-of-two latency histogram (see file comment for bucketing). */
class LatencyHistogram
{
  public:
    /** Bucket 0 plus 32 log2 buckets plus one overflow bucket. */
    static constexpr int kBuckets = 34;

    LatencyHistogram(StatSet &stats, std::string prefix)
        : stats_(stats), prefix_(std::move(prefix))
    {
        counts_.fill(0);
    }

    /** Bucket for @p v: 0 for 0, floor(log2(v)) + 1 otherwise, capped.
     * Constant-time: this runs per latency sample when coverage is
     * enabled, where a shift loop is measurable. */
    static int
    bucketIndex(Tick v)
    {
        if (v == 0)
            return 0;
        int b = 64 - __builtin_clzll(static_cast<unsigned long long>(v));
        return b < kBuckets - 1 ? b : kBuckets - 1;
    }

    /** Smallest value bucket @p i holds. */
    static Tick
    bucketLow(int i)
    {
        return i == 0 ? 0 : Tick{1} << (i - 1);
    }

    /** Largest value bucket @p i holds (the overflow bucket is open). */
    static Tick
    bucketHigh(int i)
    {
        if (i == 0)
            return 0;
        if (i >= kBuckets - 1)
            return ~Tick{0};
        return (Tick{1} << i) - 1;
    }

    /** Record one sample (bumps local counts and the StatSet mirror,
     * plus the coverage bucket row when a CoverageMap is installed). */
    void record(Tick v);

    /**
     * Coverage-only sample: note @p v's bucket for the installed
     * CoverageMap without touching local counts or the StatSet (and
     * without interning any handles). The `if (sink_)` guards that
     * keep tracing-off reports byte-identical skip record() entirely;
     * their else-branches call this so bucket *occupancy* is still
     * observed when only coverage is enabled. No-op with no map
     * installed. Samples land in a private pending array and reach
     * the map when the installing CoverageScope closes — this is a
     * per-message/per-op path, and even a map id bump per sample
     * shows up in the trace_overhead coverage gate.
     */
    void
    coverOnly(Tick v)
    {
        if (activeCoverage() != nullptr)
            coverPending(bucketIndex(v));
    }

    /**
     * Zero the local counts for reuse. The StatSet mirror is NOT
     * touched here — the owner resets the whole StatSet alongside —
     * but already-interned handles stay valid for the next record().
     */
    void reset()
    {
        counts_.fill(0);
        count_ = 0;
        total_ = 0;
        max_ = 0;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t total() const { return total_; }
    Tick maxValue() const { return max_; }
    const std::array<std::uint64_t, kBuckets> &buckets() const
    {
        return counts_;
    }

    const std::string &prefix() const { return prefix_; }

    /** Aligned text rendering (non-empty buckets only). */
    void render(std::ostream &os, int indent = 0) const;

  private:
    void internHandles();

    /** Bump the pending delta for @p bucket, registering the deferred
     * flush on the first sample of a cycle. */
    void
    coverPending(int bucket)
    {
        ++cov_pending_[bucket];
        if (!cov_dirty_) {
            cov_dirty_ = true;
            registerCoverageFlush(this, &LatencyHistogram::flushCoverage);
        }
    }

    /** Deferred-flush callback: add pending deltas to @p cov (dropped
     * when null) and rearm. */
    static void flushCoverage(void *self, CoverageMap *cov);

    StatSet &stats_;
    std::string prefix_;
    bool interned_ = false;
    std::array<StatHandle, kBuckets> bucket_handles_;
    StatHandle count_handle_;
    StatHandle total_handle_;
    StatHandle max_handle_;

    /** Per-sample deltas awaiting a deferred flush (see coverOnly),
     * and the buckets' global coverage ids, resolved at the first
     * flush into a map. */
    std::array<std::uint64_t, kBuckets> cov_pending_{};
    bool cov_dirty_ = false;
    const std::array<std::uint32_t, kBuckets> *cov_ids_ = nullptr;

    std::array<std::uint64_t, kBuckets> counts_;
    std::uint64_t count_ = 0;
    std::uint64_t total_ = 0;
    Tick max_ = 0;
};

} // namespace wo

#endif // WO_OBS_LATENCY_HISTOGRAM_HH
