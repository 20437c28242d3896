/**
 * @file
 * Unit tests for the streaming vector-clock race detector and its
 * VectorClock/Epoch primitives.
 *
 * Traces here are fed in trace order, which the tests construct to be a
 * linear extension of (po U so) — the same contract checkTrace() grants
 * the detector for idealized-machine traces.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/drf0_checker.hh"
#include "core/idealized.hh"
#include "core/race_detector.hh"
#include "core/trace.hh"
#include "core/vector_clock.hh"
#include "cpu/program_builder.hh"
#include "oracle/happens_before.hh"

namespace wo {
namespace {

Access
mk(ProcId proc, int po, AccessKind kind, Addr addr, Tick commit)
{
    Access a;
    a.proc = proc;
    a.poIndex = po;
    a.kind = kind;
    a.addr = addr;
    a.commitTick = commit;
    a.gpTick = commit;
    return a;
}

/** Feed a trace to a fresh detector in trace order. */
RaceDetector
feed(const ExecutionTrace &t, RaceDetectMode mode)
{
    RaceDetector det(t.numProcs(), mode);
    for (const Access &a : t.accesses())
        det.onAccess(a);
    return det;
}

TEST(VectorClock, StartsAtZeroAndTicks)
{
    VectorClock vc;
    EXPECT_EQ(vc.get(0), 0u);
    EXPECT_EQ(vc.get(7), 0u); // unmaterialized entries read as zero
    EXPECT_EQ(vc.tick(2), 1u);
    EXPECT_EQ(vc.tick(2), 2u);
    EXPECT_EQ(vc.get(2), 2u);
    EXPECT_EQ(vc.get(1), 0u);
    EXPECT_GE(vc.size(), 3);
}

TEST(VectorClock, JoinTakesPointwiseMax)
{
    VectorClock a, b;
    a.tick(0);
    a.tick(0);
    b.tick(1);
    b.tick(2);
    b.tick(2);
    a.join(b);
    EXPECT_EQ(a.get(0), 2u);
    EXPECT_EQ(a.get(1), 1u);
    EXPECT_EQ(a.get(2), 2u);
    // Joining a shorter clock must not shrink the longer one.
    VectorClock c;
    c.tick(0);
    a.join(c);
    EXPECT_EQ(a.get(2), 2u);
}

TEST(VectorClock, CoversEpoch)
{
    VectorClock vc;
    vc.tick(1);
    vc.tick(1);
    Epoch e;
    e.clock = 2;
    e.proc = 1;
    EXPECT_TRUE(vc.covers(e));
    e.clock = 3;
    EXPECT_FALSE(vc.covers(e));
    e.proc = 5; // beyond materialized entries
    e.clock = 1;
    EXPECT_FALSE(vc.covers(e));
}

TEST(VectorClock, ClearKeepsZeroSemantics)
{
    VectorClock vc;
    vc.tick(3);
    vc.clear();
    EXPECT_EQ(vc.get(3), 0u);
    Epoch unset;
    EXPECT_FALSE(unset.some());
}

TEST(RaceDetector, UnorderedConflictingAccessesRace)
{
    ExecutionTrace t;
    int w = t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    int r = t.add(mk(1, 0, AccessKind::DataRead, 0, 1));
    RaceDetector det = feed(t, RaceDetectMode::FirstRace);
    EXPECT_TRUE(det.hasRace());
    ASSERT_EQ(det.races().size(), 1u);
    EXPECT_EQ(det.races()[0].first, w);
    EXPECT_EQ(det.races()[0].second, r);
}

TEST(RaceDetector, SyncChainOrdersConflict)
{
    // W(P0,x) po S(P0,s) so S(P1,s) po R(P1,x): race-free.
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(0, 1, AccessKind::SyncWrite, 1, 1));
    t.add(mk(1, 0, AccessKind::SyncRmw, 1, 2));
    t.add(mk(1, 1, AccessKind::DataRead, 0, 3));
    EXPECT_FALSE(feed(t, RaceDetectMode::AllRaces).hasRace());
}

TEST(RaceDetector, SyncOnOtherLocationDoesNotOrder)
{
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(0, 1, AccessKind::SyncWrite, 1, 1));
    t.add(mk(1, 0, AccessKind::SyncRmw, 2, 2)); // different sync location
    t.add(mk(1, 1, AccessKind::DataRead, 0, 3));
    EXPECT_TRUE(feed(t, RaceDetectMode::AllRaces).hasRace());
}

TEST(RaceDetector, ReadsDoNotRaceWithReads)
{
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataRead, 0, 0));
    t.add(mk(1, 0, AccessKind::DataRead, 0, 1));
    t.add(mk(2, 0, AccessKind::DataRead, 0, 2));
    EXPECT_FALSE(feed(t, RaceDetectMode::AllRaces).hasRace());
}

TEST(RaceDetector, SyncSyncSameLocationNeverRaces)
{
    // so totally orders sync ops on one location regardless of kind.
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::SyncWrite, 7, 0));
    t.add(mk(1, 0, AccessKind::SyncRmw, 7, 1));
    t.add(mk(2, 0, AccessKind::SyncRead, 7, 2));
    EXPECT_FALSE(feed(t, RaceDetectMode::AllRaces).hasRace());
}

TEST(RaceDetector, SyncDataConflictIsRace)
{
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 7, 0));
    t.add(mk(1, 0, AccessKind::SyncRmw, 7, 1));
    EXPECT_TRUE(feed(t, RaceDetectMode::AllRaces).hasRace());
}

TEST(RaceDetector, SharedReadsThenUnorderedWriteRacesWithEach)
{
    // Two concurrent readers, then an unordered writer: AllRaces must
    // report the write against BOTH reads (read-shared state).
    ExecutionTrace t;
    int r0 = t.add(mk(0, 0, AccessKind::DataRead, 5, 0));
    int r1 = t.add(mk(1, 0, AccessKind::DataRead, 5, 1));
    int w = t.add(mk(2, 0, AccessKind::DataWrite, 5, 2));
    RaceDetector det = feed(t, RaceDetectMode::AllRaces);
    ASSERT_EQ(det.races().size(), 2u);
    EXPECT_EQ(det.races()[0], (Race{r0, w}));
    EXPECT_EQ(det.races()[1], (Race{r1, w}));
}

TEST(RaceDetector, FirstRaceModeStopsAtFirst)
{
    // Three mutually racing writes: FirstRace keeps exactly one pair.
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(1, 0, AccessKind::DataWrite, 0, 1));
    t.add(mk(2, 0, AccessKind::DataWrite, 0, 2));
    RaceDetector first = feed(t, RaceDetectMode::FirstRace);
    RaceDetector all = feed(t, RaceDetectMode::AllRaces);
    EXPECT_EQ(first.races().size(), 1u);
    EXPECT_EQ(all.races().size(), 3u);
}

TEST(RaceDetector, ResetReusesCleanly)
{
    ExecutionTrace racy;
    racy.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    racy.add(mk(1, 0, AccessKind::DataRead, 0, 1));
    RaceDetector det(2, RaceDetectMode::FirstRace);
    for (const Access &a : racy.accesses())
        det.onAccess(a);
    ASSERT_TRUE(det.hasRace());
    det.reset(2);
    EXPECT_FALSE(det.hasRace());
    EXPECT_EQ(det.accessesSeen(), 0u);
    // The same location, now properly synchronized, must stay clean:
    // stale write epochs from before reset() may not leak through.
    ExecutionTrace clean;
    clean.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    clean.add(mk(0, 1, AccessKind::SyncWrite, 1, 1));
    clean.add(mk(1, 0, AccessKind::SyncRmw, 1, 2));
    clean.add(mk(1, 1, AccessKind::DataRead, 0, 3));
    for (const Access &a : clean.accesses())
        det.onAccess(a);
    EXPECT_FALSE(det.hasRace());
}

TEST(RaceDetector, ResetForgetsEveryLocation)
{
    // The racy trace leaves state behind on every kind of per-location
    // field: write epochs (0, 1), a widened concurrent-read vector (2)
    // and a release clock (9), with P0's clock far ahead.
    ExecutionTrace racy;
    int po0 = 0, po1 = 0;
    Tick t = 0;
    for (Addr x : {0u, 1u, 3u})
        racy.add(mk(0, po0++, AccessKind::DataWrite, x, t++));
    racy.add(mk(0, po0++, AccessKind::DataRead, 2, t++));
    racy.add(mk(0, po0++, AccessKind::SyncRmw, 9, t++));
    racy.add(mk(1, po1++, AccessKind::DataRead, 2, t++));
    racy.add(mk(1, po1++, AccessKind::DataWrite, 0, t++));
    racy.add(mk(1, po1++, AccessKind::DataWrite, 1, t++));

    // Race-free on the same addresses once reset: P1 touches each one
    // before P0 does anything, so any stale epoch of P0's would race.
    ExecutionTrace clean;
    t = 0;
    for (Addr x : {0u, 1u, 2u, 3u})
        clean.add(mk(1, static_cast<int>(x), AccessKind::DataWrite, x, t++));
    clean.add(mk(1, 4, AccessKind::DataRead, 2, t++));

    // Racy again, but only if the release clock at 9 was forgotten: a
    // stale clock would order P0's write before P1's.
    ExecutionTrace masked;
    t = 0;
    masked.add(mk(0, 0, AccessKind::DataWrite, 3, t++));
    masked.add(mk(1, 0, AccessKind::SyncRead, 9, t++));
    masked.add(mk(1, 1, AccessKind::DataWrite, 3, t++));

    for (RaceDetectMode mode :
         {RaceDetectMode::FirstRace, RaceDetectMode::AllRaces}) {
        RaceDetector det(2, mode);
        for (const Access &a : racy.accesses())
            det.onAccess(a);
        ASSERT_TRUE(det.hasRace());
        det.reset(2);
        EXPECT_FALSE(det.hasRace());
        EXPECT_EQ(det.accessesSeen(), 0u);
        for (const Access &a : clean.accesses())
            det.onAccess(a);
        EXPECT_FALSE(det.hasRace()) << "stale state survived reset()";

        for (const Access &a : racy.accesses())
            det.onAccess(a);
        det.reset(2);
        for (const Access &a : masked.accesses())
            det.onAccess(a);
        EXPECT_TRUE(det.hasRace()) << "stale release clock survived reset()";
    }
}

TEST(RaceDetector, GrowsWithUnseenProcessors)
{
    // Constructed for 1 processor but fed accesses from processor 3.
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(3, 0, AccessKind::DataWrite, 0, 1));
    RaceDetector det(1, RaceDetectMode::AllRaces);
    for (const Access &a : t.accesses())
        det.onAccess(a);
    EXPECT_TRUE(det.hasRace());
}

TEST(RaceDetector, InitializingWritesAreIgnored)
{
    // proc == kNoProc models the paper's hypothetical initializing
    // writes; they precede everything and must not race.
    Access init = mk(kNoProc, -1, AccessKind::DataWrite, 0, 0);
    init.id = 0;
    RaceDetector det(2, RaceDetectMode::AllRaces);
    det.onAccess(init);
    Access r = mk(0, 0, AccessKind::DataRead, 0, 1);
    r.id = 1;
    det.onAccess(r);
    EXPECT_FALSE(det.hasRace());
    EXPECT_EQ(det.accessesSeen(), 1u);
}

TEST(RaceDetector, OnlineAttachmentMatchesOfflineCheck)
{
    // Stream a whole idealized execution through an attached detector;
    // its verdict must match the offline trace check.
    MultiProgram mp("mp");
    ProgramBuilder p0, p1;
    p0.store(0, 1).unset(1, 1).halt();
    p1.test(0, 1).load(0, 0).halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());

    IdealizedMachine m(mp);
    RaceDetector det(mp.numProcs(), RaceDetectMode::AllRaces);
    m.attachRaceDetector(&det);
    while (!m.allHalted()) {
        for (ProcId p = 0; p < mp.numProcs(); ++p) {
            if (!m.halted(p))
                m.step(p);
        }
    }
    Drf0TraceReport offline = checkTrace(m.trace());
    EXPECT_EQ(det.hasRace(), !offline.raceFree);
}

TEST(Drf0Trace, CyclicHbIsRejected)
{
    // Artificial (po U so) cycle — no machine can produce one, so the
    // checker must refuse it rather than report a verdict over a partial
    // order: po gives sa->sb and ta->tb while commit ticks give the so
    // edges tb->sa (location 100) and sb->ta (location 101).
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::SyncWrite, 100, 10));
    t.add(mk(0, 1, AccessKind::SyncWrite, 101, 1));
    t.add(mk(1, 0, AccessKind::SyncWrite, 101, 5));
    t.add(mk(1, 1, AccessKind::SyncWrite, 100, 2));
    EXPECT_FALSE(HappensBefore(t).acyclic());
    EXPECT_THROW(checkTrace(t), std::invalid_argument);
}

TEST(Drf0Trace, RecordOrderAgainstPoIndexIsRejected)
{
    // P0's two records arrive opposite to their poIndex. By poIndex
    // (the oracle's po) P0 releases s and only then writes x, so the
    // write races with P1's read after acquiring s; by record order the
    // write precedes the release and nothing races. checkTrace takes po
    // from record order, so it must refuse the trace, not answer
    // differently from the oracle.
    ExecutionTrace t;
    t.add(mk(0, 1, AccessKind::DataWrite, 0, 1)); // P0 po 1: x = 1
    t.add(mk(0, 0, AccessKind::SyncWrite, 1, 2)); // P0 po 0: release s
    t.add(mk(1, 0, AccessKind::SyncRmw, 1, 3));   // P1: acquire s
    t.add(mk(1, 1, AccessKind::DataRead, 0, 4));  // P1: read x
    EXPECT_FALSE(checkTraceBitset(t).raceFree);
    EXPECT_THROW(checkTrace(t), std::invalid_argument);

    // The same accesses recorded in program order: both checkers agree.
    ExecutionTrace ordered;
    ordered.add(mk(0, 0, AccessKind::SyncWrite, 1, 2));
    ordered.add(mk(0, 1, AccessKind::DataWrite, 0, 1));
    ordered.add(mk(1, 0, AccessKind::SyncRmw, 1, 3));
    ordered.add(mk(1, 1, AccessKind::DataRead, 0, 4));
    Drf0TraceReport vc = checkTrace(ordered);
    Drf0TraceReport bitset = checkTraceBitset(ordered);
    EXPECT_FALSE(vc.raceFree);
    EXPECT_EQ(vc.races, bitset.races);
}

} // namespace
} // namespace wo
