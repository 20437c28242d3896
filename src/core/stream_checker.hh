/**
 * @file
 * Streaming DRF0 checking over a bounded trace window — the one DRF0
 * trace checker.
 *
 * Accesses are fed to one long-lived RaceDetector as they become final;
 * the detector's per-proc clocks and per-sync-location release clocks
 * carry happens-before state across window boundaries, and the trace
 * owner retires the consumed prefix with ExecutionTrace::popFront() so
 * resident memory stays O(window). checkTrace() is this checker with
 * nothing fed before finish(): one batch holding the whole trace.
 *
 * po is each processor's record (trace id) order, which every machine
 * keeps equal to program order (checkTrace() verifies it against
 * poIndex); so is each sync location's commit order.
 * Three feeding disciplines:
 *  - onAccess(): the caller guarantees it emits a linear extension of
 *    (po U so) — true for the replay engine and the idealized
 *    interpreter, whose execution order is such an extension by
 *    construction.
 *  - drainWindow(): for simulator traces, where trace order is issue
 *    order and synchronization operations may commit out of issue order.
 *    The drain admits only accesses that are final (commit and gp ticks
 *    patched) and safely below every still-pending commit, then feeds
 *    each batch in a topological order of its (po U so) edges. See the
 *    implementation notes for the admission horizon.
 *  - finish(): everything still unfed, as one batch.
 * A batch whose syncs commit in id order is already in (po U so) order
 * and is fed in id order without building the edge graph.
 */

#ifndef WO_CORE_STREAM_CHECKER_HH
#define WO_CORE_STREAM_CHECKER_HH

#include <cstdint>
#include <vector>

#include "core/race_detector.hh"
#include "core/trace.hh"
#include "sim/types.hh"

namespace wo {

class StreamingDrf0Checker
{
  public:
    /** @p mode FirstRace keeps per-address state to FastTrack epochs —
     * O(addrs * procs) memory regardless of trace length, the scale mode.
     * AllRaces reports every unordered conflicting pair (per-address
     * history grows with conflicting accesses; checkTrace() and
     * differential testing). */
    explicit StreamingDrf0Checker(
        int numProcs, RaceDetectMode mode = RaceDetectMode::FirstRace);

    /**
     * Feed the next access of a stream that is already a linear extension
     * of (po U so). Ids must arrive densely ascending from 0. Advances
     * the retirement frontier.
     */
    void onAccess(const Access &a);

    /**
     * Consume every resident access of @p trace that is safe to order
     * now, given that simulation has advanced to @p now and every
     * commit/gp tick at or beyond @p now is still unknown. Feeds the
     * admitted batch in a topological order of its (po U so) edges.
     * Returns the number of accesses fed.
     */
    int drainWindow(const ExecutionTrace &trace, Tick now);

    /** Number of oldest resident accesses of @p trace already consumed —
     * the prefix the owner may ExecutionTrace::popFront() right now. */
    int retireReady(const ExecutionTrace &trace) const;

    /**
     * Consume everything still resident and unfed (end of run: all ticks
     * final). Accesses that never committed sort after every committed
     * one (so orders each location's syncs by (commitTick, id), and
     * kNoTick is the largest tick). Sets hbCyclic()
     * instead of ordering if the leftover (po U so) edges are cyclic
     * (impossible for machine traces, constructible artificially).
     */
    void finish(const ExecutionTrace &trace);

    bool raceFree() const { return det_.races().empty(); }

    /** Races in detection order (pairs of stable trace ids). */
    const std::vector<Race> &races() const { return det_.races(); }

    /** Races sorted by id pair — the stable form for differential
     * comparison against checkTrace() (whose addr-major order needs
     * retired accesses to recompute). */
    std::vector<Race> sortedRaces() const;

    bool hbCyclic() const { return hb_cyclic_; }

    /** First trace id not yet consumed. */
    int frontier() const { return next_; }

    /** Accesses consumed since construction. */
    std::uint64_t consumed() const { return det_.accessesSeen(); }

  private:
    bool isFed(int id) const;
    /** Record @p batch (ascending, none fed before) as consumed. */
    void markFed(const std::vector<int> &batch);
    /** Feed @p batch (resident trace ids, ascending) in a topological
     * order of its internal (po U so) edges — id order when that already
     * is one. Returns false on a cycle. */
    bool feedTopo(const ExecutionTrace &trace, const std::vector<int> &batch);

    RaceDetector det_;
    int nprocs_ = 0;
    int next_ = 0;              ///< ids below this are all consumed
    std::vector<int> fedAhead_; ///< consumed ids >= next_, ascending
    bool hb_cyclic_ = false;
};

} // namespace wo

#endif // WO_CORE_STREAM_CHECKER_HH
