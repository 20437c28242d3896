/**
 * @file
 * Unit tests for the DRF0 checker (Definition 3) on traces and programs.
 */

#include <gtest/gtest.h>

#include "core/drf0_checker.hh"
#include "cpu/program_builder.hh"
#include "oracle/interleavings.hh"

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

TEST(Drf0Trace, OrderedConflictIsRaceFree)
{
    // W(P0,x) -> S(P0,s) -> S(P1,s) -> R(P1,x): ordered by hb.
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(0, 1, AccessKind::SyncWrite, 1, 1));
    t.add(mk(1, 0, AccessKind::SyncRmw, 1, 2));
    t.add(mk(1, 1, AccessKind::DataRead, 0, 3));
    Drf0TraceReport r = checkTrace(t);
    EXPECT_TRUE(r.raceFree);
    EXPECT_TRUE(r.races.empty());
}

TEST(Drf0Trace, UnorderedConflictIsRace)
{
    ExecutionTrace t;
    int w = t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    int r = t.add(mk(1, 0, AccessKind::DataRead, 0, 1));
    Drf0TraceReport rep = checkTrace(t);
    EXPECT_FALSE(rep.raceFree);
    ASSERT_EQ(rep.races.size(), 1u);
    EXPECT_EQ(rep.races[0].first, w);
    EXPECT_EQ(rep.races[0].second, r);
}

TEST(Drf0Trace, ConcurrentReadsDoNotRace)
{
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataRead, 0, 0));
    t.add(mk(1, 0, AccessKind::DataRead, 0, 1));
    EXPECT_TRUE(checkTrace(t).raceFree);
}

TEST(Drf0Trace, ConcurrentSyncsSameLocationDoNotRace)
{
    // Syncs to the same location are always so-ordered.
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::SyncRmw, 7, 0));
    t.add(mk(1, 0, AccessKind::SyncRmw, 7, 1));
    EXPECT_TRUE(checkTrace(t).raceFree);
}

TEST(Drf0Trace, SyncOnOneLocationDoesNotOrderOtherLocation)
{
    // P0: W(x) S(a).  P1: S(b) R(x).  Different sync locations: race.
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(0, 1, AccessKind::SyncWrite, 1, 1));
    t.add(mk(1, 0, AccessKind::SyncRmw, 2, 2));
    t.add(mk(1, 1, AccessKind::DataRead, 0, 3));
    EXPECT_FALSE(checkTrace(t).raceFree);
}

TEST(Drf0Trace, WriteWriteConflictDetected)
{
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(1, 0, AccessKind::DataWrite, 0, 1));
    Drf0TraceReport rep = checkTrace(t);
    EXPECT_FALSE(rep.raceFree);
}

TEST(Drf0Trace, SyncDataConflictOnSameLocationIsRace)
{
    // A data access racing with a sync access to the same location is
    // still a race under DRF0 (so only orders sync-sync pairs).
    ExecutionTrace t;
    t.add(mk(0, 0, AccessKind::DataWrite, 7, 0));
    t.add(mk(1, 0, AccessKind::SyncRmw, 7, 1));
    EXPECT_FALSE(checkTrace(t).raceFree);
}

TEST(Drf0Program, ProperlyLockedProgramObeysDrf0)
{
    // Both processors try once to TAS-acquire a lock; only a holder
    // writes x. (Bounded retry keeps the interleaving space enumerable —
    // unbounded spins make exhaustive enumeration exponential.)
    MultiProgram mp("locked");
    const Addr X = 0, L = 1;
    for (int p = 0; p < 2; ++p) {
        ProgramBuilder b;
        b.tas(0, L)
            .bne(0, 0, "skip")
            .store(X, static_cast<Word>(p + 1))
            .unset(L)
            .label("skip")
            .halt();
        mp.addProgram(b.build());
    }
    Drf0ProgramReport r = checkProgram(mp);
    EXPECT_TRUE(r.obeysDrf0) << r.witnessReport.toString(r.witness);
    EXPECT_FALSE(r.bounded);
    EXPECT_GT(r.executions, 0u);
}

TEST(Drf0Program, SpinLockProgramSampledIsRaceFree)
{
    // The unbounded-spin version, checked over sampled schedules.
    MultiProgram mp("spinlocked");
    const Addr X = 0, L = 1;
    for (int p = 0; p < 2; ++p) {
        ProgramBuilder b;
        b.label("acq")
            .tas(0, L)
            .bne(0, 0, "acq")
            .store(X, static_cast<Word>(p + 1))
            .unset(L)
            .halt();
        mp.addProgram(b.build());
    }
    Drf0ProgramReport r = checkProgramSampled(mp, 200, 7);
    EXPECT_TRUE(r.obeysDrf0) << r.witnessReport.toString(r.witness);
    EXPECT_TRUE(r.bounded);
    EXPECT_EQ(r.executions, 200u);
}

TEST(Drf0Program, SampledCheckFindsObviousRace)
{
    MultiProgram mp("racy");
    ProgramBuilder p0, p1;
    p0.store(0, 1).halt();
    p1.load(0, 0).halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    Drf0ProgramReport r = checkProgramSampled(mp, 50, 3);
    EXPECT_FALSE(r.obeysDrf0);
}

TEST(Drf0Program, DekkerViolatesDrf0)
{
    MultiProgram mp("dekker");
    ProgramBuilder p1, p2;
    p1.store(0, 1).load(0, 1).halt();
    p2.store(1, 1).load(0, 0).halt();
    mp.addProgram(p1.build());
    mp.addProgram(p2.build());
    Drf0ProgramReport r = checkProgram(mp);
    EXPECT_FALSE(r.obeysDrf0);
    EXPECT_FALSE(r.witnessReport.raceFree);
    EXPECT_GT(r.witness.size(), 0);
}

TEST(Drf0Program, SingleProcessorAlwaysDrf0)
{
    MultiProgram mp("solo");
    ProgramBuilder b;
    b.store(0, 1).load(0, 0).store(0, 2).halt();
    mp.addProgram(b.build());
    Drf0ProgramReport r = checkProgram(mp);
    EXPECT_TRUE(r.obeysDrf0);
}

TEST(Drf0Program, FlagSpinWithDataReadIsRacy)
{
    // Spinning on an ordinary data read (the barrier-count example of
    // Section 6) is NOT allowed by DRF0.
    MultiProgram mp("flagspin");
    const Addr F = 0;
    ProgramBuilder p0, p1;
    p0.label("spin").load(0, F).beq(0, 0, "spin").halt();
    p1.store(F, 1).halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    Drf0CheckLimits lim;
    lim.maxStepsPerExecution = 40;
    Drf0ProgramReport r = checkProgram(mp, lim);
    EXPECT_FALSE(r.obeysDrf0);
}

TEST(Drf0Program, FlagSpinWithSyncOpsIsDrf0)
{
    // The same spin, but communicating through sync operations, is fine.
    MultiProgram mp("syncspin");
    const Addr F = 0;
    ProgramBuilder p0, p1;
    p0.label("spin").test(0, F).beq(0, 0, "spin").halt();
    p1.unset(F, 1).halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    Drf0CheckLimits lim;
    lim.maxStepsPerExecution = 40;
    Drf0ProgramReport r = checkProgram(mp, lim);
    // Executions are infinite (unfair schedules spin forever), so the
    // check is bounded, but no race exists in any explored prefix.
    EXPECT_TRUE(r.obeysDrf0);
}

} // namespace
} // namespace wo
