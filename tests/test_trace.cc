/**
 * @file
 * Unit tests for ExecutionTrace, Access, RunResult and the contract
 * report plumbing.
 */

#include <gtest/gtest.h>

#include "core/contract.hh"
#include "core/idealized.hh"
#include "core/trace.hh"
#include "cpu/program_builder.hh"
#include "workload/litmus.hh"

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

TEST(AccessUnit, ConflictRules)
{
    Access r1 = mk(0, 0, AccessKind::DataRead, 5, 0);
    Access r2 = mk(1, 0, AccessKind::DataRead, 5, 1);
    Access w = mk(1, 0, AccessKind::DataWrite, 5, 1);
    Access w_other = mk(1, 0, AccessKind::DataWrite, 6, 1);
    Access rmw = mk(2, 0, AccessKind::SyncRmw, 5, 2);
    EXPECT_FALSE(conflict(r1, r2)); // both reads
    EXPECT_TRUE(conflict(r1, w));
    EXPECT_TRUE(conflict(w, w));
    EXPECT_FALSE(conflict(w, w_other)); // different locations
    EXPECT_TRUE(conflict(r1, rmw));     // rmw has a write component
    EXPECT_TRUE(conflict(rmw, rmw));
}

TEST(AccessUnit, ComponentPredicates)
{
    EXPECT_TRUE(mk(0, 0, AccessKind::SyncRmw, 0, 0).reads());
    EXPECT_TRUE(mk(0, 0, AccessKind::SyncRmw, 0, 0).writes());
    EXPECT_TRUE(mk(0, 0, AccessKind::SyncRmw, 0, 0).sync());
    EXPECT_FALSE(mk(0, 0, AccessKind::DataWrite, 0, 0).reads());
    EXPECT_FALSE(mk(0, 0, AccessKind::DataRead, 0, 0).sync());
}

TEST(AccessUnit, ToStringMentionsEverything)
{
    Access a = mk(2, 1, AccessKind::SyncRmw, 7, 33);
    a.valueRead = 4;
    a.valueWritten = 5;
    std::string s = a.toString();
    EXPECT_NE(s.find("P2"), std::string::npos);
    EXPECT_NE(s.find("[7]"), std::string::npos);
    EXPECT_NE(s.find("->4"), std::string::npos);
    EXPECT_NE(s.find("<-5"), std::string::npos);
}

TEST(TraceUnit, IdsAreSequential)
{
    ExecutionTrace t;
    EXPECT_EQ(t.add(mk(0, 0, AccessKind::DataRead, 0, 0)), 0);
    EXPECT_EQ(t.add(mk(0, 1, AccessKind::DataRead, 0, 1)), 1);
    EXPECT_EQ(t.size(), 2);
}

TEST(TraceUnit, AccessesOfSortsByProgramOrder)
{
    ExecutionTrace t;
    t.add(mk(0, 2, AccessKind::DataRead, 0, 9));
    t.add(mk(0, 0, AccessKind::DataRead, 0, 3));
    t.add(mk(1, 0, AccessKind::DataRead, 0, 1));
    t.add(mk(0, 1, AccessKind::DataRead, 0, 6));
    std::vector<int> ids = t.accessesOf(0);
    ASSERT_EQ(ids.size(), 3u);
    EXPECT_EQ(t.at(ids[0]).poIndex, 0);
    EXPECT_EQ(t.at(ids[1]).poIndex, 1);
    EXPECT_EQ(t.at(ids[2]).poIndex, 2);
}

TEST(TraceUnit, InitialsDefaultZero)
{
    ExecutionTrace t;
    EXPECT_EQ(t.initialValue(9), 0u);
    t.setInitial(9, 4);
    EXPECT_EQ(t.initialValue(9), 4u);
}

TEST(TraceUnit, NumProcsIgnoresInitWrites)
{
    ExecutionTrace t;
    t.add(mk(kNoProc, 0, AccessKind::DataWrite, 0, 0));
    t.add(mk(2, 0, AccessKind::DataWrite, 0, 1));
    EXPECT_EQ(t.numProcs(), 3);
}

TEST(RunResultUnit, EqualityAndOrdering)
{
    RunResult a, b;
    a.finalMemory[0] = 1;
    b.finalMemory[0] = 1;
    a.registers = {{1, 2}};
    b.registers = {{1, 2}};
    a.allHalted = b.allHalted = true;
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a < b);
    EXPECT_FALSE(b < a);
    b.registers[0][1] = 3;
    EXPECT_FALSE(a == b);
    EXPECT_TRUE(a < b || b < a);
}

TEST(RunResultUnit, ToStringIsReadable)
{
    RunResult r;
    r.finalMemory[3] = 7;
    r.registers = {{1}, {2}};
    r.allHalted = false;
    std::string s = r.toString();
    EXPECT_NE(s.find("[3]=7"), std::string::npos);
    EXPECT_NE(s.find("not halted"), std::string::npos);
}

TEST(ContractUnit, ReportToStringStates)
{
    ContractReport rep;
    rep.appearsSc = true;
    rep.scReport.verdict = ScVerdict::Sc;
    EXPECT_NE(rep.toString().find("appears SC"), std::string::npos);
    rep.appearsSc = false;
    rep.scReport.verdict = ScVerdict::NotSc;
    EXPECT_NE(rep.toString().find("VIOLATES"), std::string::npos);
    rep.outcomeChecked = true;
    rep.outcomeInScSet = false;
    EXPECT_NE(rep.toString().find("NOT in"), std::string::npos);
}

TEST(ContractUnit, ReportSaysWhichScPathDecided)
{
    ContractReport rep;
    rep.appearsSc = true;
    rep.scReport.verdict = ScVerdict::Sc;
    rep.scReport.witnessOrder = {0, 1};
    rep.scReport.decidedBy = ScPath::ObservedOrder;
    EXPECT_NE(rep.toString().find(
                  "[SC (observed order, witness of 2 accesses)]"),
              std::string::npos);
    rep.scReport.decidedBy = ScPath::Search;
    rep.scReport.statesExplored = 3;
    EXPECT_NE(rep.toString().find("[SC (witness of 2 accesses, 3 states)]"),
              std::string::npos);
}

TEST(ContractUnit, CheckExecutionWithoutOutcomeSet)
{
    MultiProgram mp("m");
    ProgramBuilder b;
    b.store(0, 1).load(0, 0).halt();
    mp.addProgram(b.build());
    ExecutionTrace t;
    Access w = mk(0, 0, AccessKind::DataWrite, 0, 0);
    w.valueWritten = 1;
    t.add(w);
    Access r = mk(0, 1, AccessKind::DataRead, 0, 1);
    r.valueRead = 1;
    t.add(r);
    ContractReport rep = checkExecution(mp, t);
    EXPECT_TRUE(rep.appearsSc);
    EXPECT_FALSE(rep.outcomeChecked);
}

TEST(ContractUnit, ForbiddenOutcomeIsNotInScSet)
{
    // Dekker with both loads reading 0: a store-buffering result that no
    // interleaving produces. Fabricate it from an SC run's result and the
    // matching trace (each store, then each load reading the initial 0).
    MultiProgram mp = dekkerLitmus();
    RunResult hw = runWithSchedule(mp, {});
    ASSERT_TRUE(hw.allHalted);
    hw.registers[0][0] = 0;
    hw.registers[1][0] = 0;
    ASSERT_TRUE(dekkerViolatesSc(hw));

    ExecutionTrace t;
    for (ProcId p = 0; p < 2; ++p) {
        Access w = mk(p, 0, AccessKind::DataWrite, litmus::kX + p, p);
        w.valueWritten = 1;
        t.add(w);
    }
    for (ProcId p = 0; p < 2; ++p)
        t.add(mk(p, 1, AccessKind::DataRead, litmus::kY - p, 2 + p));

    ContractReport rep = checkExecution(mp, t, &hw);
    EXPECT_FALSE(rep.appearsSc) << rep.toString();
    EXPECT_TRUE(rep.outcomeChecked);
    EXPECT_FALSE(rep.outcomeInScSet);
    EXPECT_FALSE(rep.outcomeSetBounded);
    EXPECT_NE(rep.toString().find("; outcome NOT in idealized outcome set"),
              std::string::npos)
        << rep.toString();
    EXPECT_EQ(rep.toString().find("(bounded)"), std::string::npos);
}

} // namespace
} // namespace wo
