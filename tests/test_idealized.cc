/**
 * @file
 * Unit tests for the idealized (atomic, program-order) architecture and
 * the interleaving-enumeration oracle built on it.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/idealized.hh"
#include "cpu/program_builder.hh"
#include "oracle/interleavings.hh"
#include "sim/rng.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

MultiProgram
dekker()
{
    // Figure 1 of the paper: P1: X=1; r0=Y.  P2: Y=1; r0=X.
    MultiProgram mp("dekker");
    const Addr X = 0, Y = 1;
    ProgramBuilder p1, p2;
    p1.store(X, 1).load(0, Y).halt();
    p2.store(Y, 1).load(0, X).halt();
    mp.addProgram(p1.build());
    mp.addProgram(p2.build());
    return mp;
}

TEST(IdealizedMachine, SingleProcSequentialSemantics)
{
    MultiProgram mp("seq");
    ProgramBuilder b;
    b.movi(0, 5).addi(1, 0, 3).storeReg(10, 1).load(2, 10).halt();
    mp.addProgram(b.build());

    IdealizedMachine m(mp);
    while (!m.allHalted())
        m.step(0);
    EXPECT_EQ(m.reg(0, 0), 5u);
    EXPECT_EQ(m.reg(0, 1), 8u);
    EXPECT_EQ(m.reg(0, 2), 8u);
    EXPECT_EQ(m.memory(10), 8u);
}

TEST(IdealizedMachine, BranchesFollowRegisters)
{
    MultiProgram mp("br");
    ProgramBuilder b;
    b.movi(0, 1)
        .beq(0, 1, "taken")
        .movi(1, 111) // skipped
        .label("taken")
        .movi(2, 222)
        .halt();
    mp.addProgram(b.build());
    IdealizedMachine m(mp);
    while (!m.allHalted())
        m.step(0);
    EXPECT_EQ(m.reg(0, 1), 0u);
    EXPECT_EQ(m.reg(0, 2), 222u);
}

TEST(IdealizedMachine, TasIsAtomic)
{
    MultiProgram mp("tas");
    ProgramBuilder b;
    b.tas(0, 5).tas(1, 5).halt();
    mp.addProgram(b.build());
    IdealizedMachine m(mp);
    while (!m.allHalted())
        m.step(0);
    EXPECT_EQ(m.reg(0, 0), 0u); // first TAS sees initial 0
    EXPECT_EQ(m.reg(0, 1), 1u); // second sees the 1 the first wrote
    EXPECT_EQ(m.memory(5), 1u);
}

TEST(IdealizedMachine, RecordsTraceAccesses)
{
    MultiProgram mp = dekker();
    IdealizedMachine m(mp);
    while (!m.allHalted()) {
        for (ProcId p = 0; p < 2; ++p) {
            if (!m.halted(p))
                m.step(p);
        }
    }
    // 2 stores + 2 loads.
    EXPECT_EQ(m.trace().size(), 4);
}

TEST(IdealizedMachine, InitialValuesRespected)
{
    MultiProgram mp("init");
    ProgramBuilder b;
    b.load(0, 3).halt();
    mp.addProgram(b.build());
    mp.setInitial(3, 77);
    IdealizedMachine m(mp);
    while (!m.allHalted())
        m.step(0);
    EXPECT_EQ(m.reg(0, 0), 77u);
}

TEST(EnumerateOutcomes, DekkerHasThreeScOutcomes)
{
    // Under SC the outcome r0==0 on both processors is impossible; the
    // other three combinations are reachable.
    OutcomeSet set = enumerateOutcomes(dekker());
    EXPECT_FALSE(set.bounded);
    EXPECT_EQ(set.outcomes.size(), 3u);
    for (const auto &r : set.outcomes) {
        bool both_zero =
            r.registers[0][0] == 0 && r.registers[1][0] == 0;
        EXPECT_FALSE(both_zero) << r.toString();
    }
}

TEST(EnumerateOutcomes, SingleProcHasOneOutcome)
{
    MultiProgram mp("one");
    ProgramBuilder b;
    b.store(0, 1).load(0, 0).halt();
    mp.addProgram(b.build());
    OutcomeSet set = enumerateOutcomes(mp);
    EXPECT_EQ(set.outcomes.size(), 1u);
}

TEST(EnumerateOutcomes, SpinLoopTerminatesViaMemoization)
{
    // P0 spins until P1 sets the flag: infinitely many interleavings, but
    // finitely many states.
    MultiProgram mp("spin");
    const Addr F = 0;
    ProgramBuilder p0, p1;
    p0.label("spin").load(0, F).beq(0, 0, "spin").halt();
    p1.store(F, 1).halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());
    OutcomeSet set = enumerateOutcomes(mp);
    EXPECT_FALSE(set.bounded);
    // Exactly one halted outcome (P0 read 1, memory F==1); states where P0
    // spins forever are cycles, pruned by memoization.
    ASSERT_EQ(set.outcomes.size(), 1u);
    EXPECT_TRUE(set.outcomes.begin()->allHalted);
}

TEST(ForEachExecution, CountsDekkerInterleavings)
{
    // Two processors with 3 instructions each (store, load, halt):
    // C(6,3) = 20 interleavings.
    std::uint64_t n = 0;
    bool full = forEachExecution(
        dekker(), {},
        [&](const ExecutionTrace &, const RunResult &, bool complete) {
            EXPECT_TRUE(complete);
            ++n;
            return true;
        });
    EXPECT_TRUE(full);
    EXPECT_EQ(n, 20u);
}

TEST(ForEachExecution, EarlyStopWorks)
{
    std::uint64_t n = 0;
    bool full = forEachExecution(
        dekker(), {},
        [&](const ExecutionTrace &, const RunResult &, bool) {
            ++n;
            return n < 5;
        });
    EXPECT_FALSE(full);
    EXPECT_EQ(n, 5u);
}

TEST(RunWithSchedule, FollowsGivenOrder)
{
    MultiProgram mp = dekker();
    // All of P0 first, then P1: P0 reads Y==0, P1 reads X==1.
    ExecutionTrace t;
    RunResult r = runWithSchedule(mp, {0, 0, 0, 1, 1, 1}, &t);
    EXPECT_TRUE(r.allHalted);
    EXPECT_EQ(r.registers[0][0], 0u);
    EXPECT_EQ(r.registers[1][0], 1u);
    EXPECT_EQ(t.size(), 4);
}

TEST(RunWithSchedule, FinishesRoundRobinAfterSchedule)
{
    MultiProgram mp = dekker();
    RunResult r = runWithSchedule(mp, {0});
    EXPECT_TRUE(r.allHalted);
}

/** Field-by-field equality of two traces, with initial values. */
void
expectSameTrace(const ExecutionTrace &a, const ExecutionTrace &b,
                const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    EXPECT_EQ(a.numProcs(), b.numProcs()) << what;
    EXPECT_EQ(a.initials(), b.initials()) << what;
    for (int id = 0; id < a.size(); ++id) {
        const Access &x = a.at(id);
        const Access &y = b.at(id);
        EXPECT_EQ(x.id, y.id) << what;
        EXPECT_EQ(x.toString(), y.toString()) << what << " #" << id;
        EXPECT_EQ(x.poIndex, y.poIndex) << what << " #" << id;
        EXPECT_EQ(x.commitTick, y.commitTick) << what << " #" << id;
        EXPECT_EQ(x.gpTick, y.gpTick) << what << " #" << id;
    }
    for (ProcId p = 0; p < a.numProcs(); ++p)
        EXPECT_EQ(a.accessesOf(p), b.accessesOf(p)) << what;
}

/** Equality of everything observable about two machines: program
 * counters, halt flags, result() (registers and memory), memory() and
 * the trace. */
void
expectSameMachine(const IdealizedMachine &a, const IdealizedMachine &b,
                  const MultiProgram &mp, const std::string &what)
{
    for (ProcId p = 0; p < mp.numProcs(); ++p) {
        EXPECT_EQ(a.pc(p), b.pc(p)) << what << " P" << p;
        EXPECT_EQ(a.halted(p), b.halted(p)) << what << " P" << p;
    }
    EXPECT_EQ(a.steps(), b.steps()) << what;
    EXPECT_EQ(a.allHalted(), b.allHalted()) << what;
    EXPECT_EQ(a.result(), b.result()) << what;
    for (Addr addr : mp.touchedAddrs())
        EXPECT_EQ(a.memory(addr), b.memory(addr)) << what;
    expectSameTrace(a.trace(), b.trace(), what);
}

TEST(Idealized, ResetEqualsFreshMachine)
{
    // One machine reused across random schedules (reset between them,
    // sometimes mid-execution) must behave exactly like a machine built
    // for each schedule.
    RandomWorkloadConfig cfg;
    cfg.numProcs = 3;
    cfg.numLocks = 2;
    cfg.locsPerLock = 2;
    cfg.privateLocs = 2;
    cfg.sectionsPerProc = 3;
    cfg.opsPerSection = 3;
    cfg.privateOpsBetween = 1;
    cfg.spinAcquire = true;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        cfg.seed = seed;
        for (const MultiProgram &mp :
             {randomDrf0Program(cfg), randomRacyProgram(cfg, 2)}) {
            IdealizedMachine reused(mp);
            Rng rng(seed);
            for (int s = 0; s < 20; ++s) {
                const std::string what = mp.name() + " seed " +
                                         std::to_string(seed) +
                                         " schedule " + std::to_string(s);
                reused.reset();
                IdealizedMachine fresh(mp);
                expectSameMachine(reused, fresh, mp, what);
                // Cut some executions short so the next reset() starts
                // from a machine that never halted.
                const int cap = s % 3 == 0 ? 40 : 10000;
                for (int k = 0; k < cap && !fresh.allHalted(); ++k) {
                    ProcId p =
                        static_cast<ProcId>(rng.below(mp.numProcs()));
                    while (fresh.halted(p))
                        p = (p + 1) % mp.numProcs();
                    ASSERT_TRUE(reused.step(p)) << what;
                    fresh.step(p);
                }
                expectSameMachine(reused, fresh, mp, what);
            }
        }
    }
}

} // namespace
} // namespace wo
