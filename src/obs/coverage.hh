/**
 * @file
 * Coverage observability: what has the whole campaign *exercised*?
 *
 * The PR-5 trace layer answers "what happened in this run"; a
 * CoverageMap answers the campaign-scale question by counting, across
 * every run that executed with a map installed:
 *
 *   - coherence-protocol transition hits, dense per
 *     (protocol, state, event) — instrumented at the single
 *     CoherenceProtocol::on() lookup site, so every L1, every MidCache
 *     probe translation and every protocol variant is covered by
 *     construction;
 *   - stall-reason activations per StallReasonFamily (and processor
 *     stall segments), keyed by instance-stripped stat names so the
 *     per-cache counters of one machine merge into one row;
 *   - latency-histogram bucket occupancy (which latency magnitudes the
 *     fleet has actually produced), recorded even when tracing is off;
 *   - policy x machine outcome coverage against the PR-7 axiomatic
 *     allowed sets (filled in by the litmus runner at aggregation).
 *
 * Overhead contract: with no map installed every instrumented site
 * costs one thread-local load and one branch (the same discipline as
 * the `if (sink_)` trace path). With one installed, a hit is an array
 * bump: named keys have process-wide dense ids (globalKeyId()) that
 * components resolve once, so no key is hashed per map or per run, and
 * merge() is an element-wise add. perfbench litmus_coverage, which
 * gives every job a fresh map, simulates at 95 host ns per tick against
 * 79 with coverage off (traced, 4-core Xeon); bench/trace_overhead
 * gates one shared map at <= 3% and reports the fresh-map-per-run
 * shape as coverage_per_run_map_overhead_pct. Per-sample sites
 * (latency buckets) accumulate into private pending arrays and flush
 * once per scope via registerCoverageFlush(). Recording never touches
 * StatSet or any simulator state, so reports stay byte-identical with
 * coverage on.
 *
 * Threading/merge model (mirrors per-job stats): each campaign job owns
 * a private CoverageMap, installed for the duration of System::run via
 * a thread-local pointer (CoverageScope); the runner merges job maps in
 * job-index order, so merged coverage is byte-identical for any thread
 * count. merge() is a per-key sum — associative and commutative
 * (tests/test_coverage.cc).
 *
 * Reset semantics: the map is owned by the campaign, not the System. A
 * pooled System reset between jobs keeps accumulating into whatever map
 * the new job installs (coverage survives System::reset); dropping the
 * pool drops nothing, because no coverage lives in the System at all.
 */

#ifndef WO_OBS_COVERAGE_HH
#define WO_OBS_COVERAGE_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "coherence/protocol.hh"

namespace wo {

/** Campaign-scale coverage counters (see file comment). */
class CoverageMap
{
  public:
    /** Named-key dimensions (the transition dimension is dense and
     * enum-indexed instead). */
    enum class Dim : std::uint8_t {
        Stall,   ///< "family/reason", instance-stripped stat names
        Bucket,  ///< "histogram/bucket_NN", instance-stripped
        Outcome, ///< "test<TAB>policy<TAB>machine<TAB>outcome key"
    };
    static constexpr int kNumDims = 3;

    // ------------------------------------------------------------------
    // Transition dimension (dense, hot).

    /** Count one legal (protocol, state, event) transition hit. */
    void
    hitTransition(ProtocolKind k, LineState s, LineEvent e) noexcept
    {
        ++trans_[static_cast<int>(k)][static_cast<int>(s)]
                [static_cast<int>(e)];
    }

    std::uint64_t
    transitionCount(ProtocolKind k, LineState s, LineEvent e) const
    {
        return trans_[static_cast<int>(k)][static_cast<int>(s)]
                     [static_cast<int>(e)];
    }

    // ------------------------------------------------------------------
    // Named-key dimensions.

    /**
     * The process-wide id of @p key in dimension @p d: dense, stable
     * for the life of the process and shared by every map and thread.
     * Takes a lock and hashes the key, so components call it when they
     * first resolve their ids, never per hit, map or run.
     */
    static std::uint32_t globalKeyId(Dim d, const std::string &key);

    /**
     * Mark @p key present in this map, returning its global id.
     * Interning alone seeds the key at count 0 — how allowed-but-
     * unobserved outcomes enter the report.
     */
    std::uint32_t
    internKey(Dim d, const std::string &key)
    {
        std::uint32_t id = globalKeyId(d, key);
        hit(d, id, 0);
        return id;
    }

    /** Mark every id of @p ids present (count 0 until hit): a stall
     * family or histogram seeds its whole key set on first use. */
    void
    seed(Dim d, std::span<const std::uint32_t> ids)
    {
        for (std::uint32_t id : ids)
            hit(d, id, 0);
    }

    /** Bump global id @p id by @p n (marking it present). */
    void
    hit(Dim d, std::uint32_t id, std::uint64_t n = 1)
    {
        std::vector<Slot> &slots = dims_[static_cast<int>(d)];
        if (id >= slots.size())
            slots.resize(id + 1);
        slots[id].count += n;
        slots[id].present = true;
    }

    /** Resolve-and-bump in one call (cold paths). */
    void
    hitKey(Dim d, const std::string &key, std::uint64_t n = 1)
    {
        hit(d, globalKeyId(d, key), n);
    }

    /** The present keys of dimension @p d with their counts, in id
     * order. */
    std::vector<std::pair<std::string, std::uint64_t>>
    entries(Dim d) const;

    // ------------------------------------------------------------------
    // Lifecycle.

    /** Accumulate @p other into this map (present keys union, counts
     * sum; zero-count seeded keys are carried over too). */
    void merge(const CoverageMap &other);

    /** Zero every counter and drop every key. Ids stay valid. */
    void clear();

    /** True when nothing has been recorded or seeded. */
    bool empty() const;

  private:
    /** Per-id state, indexed by global id. The arrays stay empty until
     * the first hit, so a map constructed with coverage off allocates
     * nothing. */
    struct Slot
    {
        std::uint64_t count = 0;
        bool present = false;
    };

    std::uint64_t trans_[kNumProtocolKinds][kNumLineStates]
                        [kNumLineEvents] = {};
    std::array<std::vector<Slot>, kNumDims> dims_;
};

namespace detail {
extern constinit thread_local CoverageMap *t_active_coverage;

/** Run (and clear) this thread's deferred coverage flushes against the
 * currently-active map. Called by CoverageScope around every map
 * switch, so pending deltas always land in the map that was installed
 * while they accumulated. */
void flushPendingCoverage();
} // namespace detail

/**
 * Defer a coverage flush to the end of the current scope: @p fn is
 * called once with @p obj and the active map (null if none — the
 * callee must drop its pending state either way) when the installing
 * CoverageScope closes or the active map changes. Hot recorders
 * (latency histograms) accumulate into private pending arrays and
 * register themselves on first use instead of touching the shared map
 * per sample; a callback registers at most once per flush cycle
 * (callers guard with their own dirty flag).
 */
void registerCoverageFlush(void *obj, void (*fn)(void *, CoverageMap *));

/** The map installed on this thread; null = coverage disabled. Every
 * instrumented site branches on this (the one-branch disabled path). */
inline CoverageMap *
activeCoverage() noexcept
{
    return detail::t_active_coverage;
}

/**
 * RAII installer for the thread-local active map. System::runStreaming
 * wraps execution in a scope built from SystemConfig::coverage, so a
 * System with no coverage configured never records into an ambient
 * map. Scopes nest; the destructor restores the previous map.
 */
class CoverageScope
{
  public:
    explicit CoverageScope(CoverageMap *map)
        : prev_(detail::t_active_coverage)
    {
        detail::flushPendingCoverage();
        detail::t_active_coverage = map;
    }
    ~CoverageScope()
    {
        detail::flushPendingCoverage();
        detail::t_active_coverage = prev_;
    }

    CoverageScope(const CoverageScope &) = delete;
    CoverageScope &operator=(const CoverageScope &) = delete;

  private:
    CoverageMap *prev_;
};

/**
 * Strip a stat name's leading component instance ("cache3.miss_stalls"
 * -> "miss_stalls") so per-instance counters of one machine land on one
 * coverage key. Names without a '.' are returned unchanged.
 */
std::string stripInstance(const std::string &stat_name);

} // namespace wo

#endif // WO_OBS_COVERAGE_HH
