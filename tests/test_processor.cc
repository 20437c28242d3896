/**
 * @file
 * Unit tests for the Processor: dependency handling, policy gating,
 * write-buffer semantics, and trace recording — against a synchronous
 * mock memory port.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "cpu/processor.hh"
#include "cpu/program_builder.hh"

namespace wo {
namespace {

/** A scriptable memory port with controllable response latency. */
class MockPort : public MemPort
{
  public:
    explicit MockPort(EventQueue &eq, Tick commit_lat = 5,
                      Tick gp_extra = 0)
        : eq_(eq), commit_lat_(commit_lat), gp_extra_(gp_extra)
    {}

    void setPortClient(CacheClient *c) override { client_ = c; }

    void
    request(const CacheOp &op) override
    {
        requests.push_back(op);
        Word old = mem.count(op.addr) ? mem[op.addr] : 0;
        if (writesMemory(op.kind))
            mem[op.addr] = op.writeValue;
        Word read_val = old;
        std::uint64_t id = op.id;
        eq_.scheduleAfter(commit_lat_, [this, id, read_val] {
            client_->opCommitted(id, read_val);
            if (gp_extra_ == 0) {
                client_->opGloballyPerformed(id);
            } else {
                eq_.scheduleAfter(gp_extra_, [this, id] {
                    client_->opGloballyPerformed(id);
                });
            }
        });
    }

    std::vector<CacheOp> requests;
    std::map<Addr, Word> mem;

  private:
    EventQueue &eq_;
    Tick commit_lat_;
    Tick gp_extra_;
    CacheClient *client_ = nullptr;
};

struct Harness
{
    Harness(Program prog, PolicyKind pol,
            ProcessorConfig pcfg = {}, Tick commit_lat = 5,
            Tick gp_extra = 0, bool write_buffer = false)
        : program(std::move(prog)), port(eq, commit_lat, gp_extra),
          proc(eq, stats, 0, program, port, pol, write_buffer, &trace, pcfg)
    {}

    bool
    run(Tick max = 100000)
    {
        proc.start();
        eq.run(max);
        return proc.halted() && proc.quiescent();
    }

    EventQueue eq;
    StatSet stats;
    ExecutionTrace trace;
    Program program;
    MockPort port;
    Processor proc;
};

TEST(Processor, ExecutesArithmeticAndBranches)
{
    ProgramBuilder b;
    b.movi(0, 3)
        .label("loop")
        .addi(1, 1, 2)
        .addi(0, 0, static_cast<Word>(-1))
        .bne(0, 0, "loop")
        .halt();
    PolicyKind pol = PolicyKind::Sc;
    Harness h(b.build(), pol);
    ASSERT_TRUE(h.run());
    EXPECT_EQ(h.proc.registers()[1], 6u);
}

TEST(Processor, LoadValueReachesRegisterAndDependents)
{
    ProgramBuilder b;
    b.load(0, 7).addi(1, 0, 1).storeReg(8, 1).halt();
    PolicyKind pol = PolicyKind::Sc;
    Harness h(b.build(), pol);
    h.port.mem[7] = 41;
    ASSERT_TRUE(h.run());
    EXPECT_EQ(h.proc.registers()[0], 41u);
    EXPECT_EQ(h.proc.registers()[1], 42u);
    EXPECT_EQ(h.port.mem[8], 42u);
}

TEST(Processor, ScSerializesMemoryOps)
{
    ProgramBuilder b;
    b.store(1, 1).store(2, 2).store(3, 3).halt();
    PolicyKind pol = PolicyKind::Sc;
    Harness h(b.build(), pol, {}, 5, 10); // GP lags commit by 10
    ASSERT_TRUE(h.run());
    // With SC, each store issues only after the previous is GP:
    // issue times must be >= 15 apart.
    ASSERT_EQ(h.port.requests.size(), 3u);
    // Trace commit ticks are the mock's commit times (issue + 5).
    Tick prev = 0;
    for (const auto &a : h.trace.accesses()) {
        if (prev != 0)
            EXPECT_GE(a.commitTick, prev + 15);
        prev = a.commitTick;
    }
}

TEST(Processor, RelaxedOverlapsMemoryOps)
{
    ProgramBuilder b;
    b.store(1, 1).store(2, 2).store(3, 3).halt();
    PolicyKind pol = PolicyKind::Relaxed;
    Harness h(b.build(), pol, {}, 5, 10);
    ASSERT_TRUE(h.run());
    // Back-to-back issue: commits land 1 cycle apart.
    const auto &acc = h.trace.accesses();
    ASSERT_EQ(acc.size(), 3u);
    EXPECT_LE(acc[2].commitTick, acc[0].commitTick + 2);
}

TEST(Processor, SameAddressAccessesStayOrdered)
{
    // Even relaxed processors preserve same-address order (condition 1).
    ProgramBuilder b;
    b.store(5, 1).load(0, 5).store(5, 2).halt();
    PolicyKind pol = PolicyKind::Relaxed;
    Harness h(b.build(), pol, {}, 5, 10);
    ASSERT_TRUE(h.run());
    EXPECT_EQ(h.proc.registers()[0], 1u);
    EXPECT_EQ(h.port.mem[5], 2u);
    ASSERT_EQ(h.port.requests.size(), 3u);
    EXPECT_EQ(h.port.requests[0].writeValue, 1u);
    EXPECT_EQ(h.port.requests[2].writeValue, 2u);
}

TEST(Processor, Def1StallsSyncUntilAllGp)
{
    ProgramBuilder b;
    b.store(1, 1).unset(9, 1).store(2, 2).halt();
    PolicyKind pol = PolicyKind::Def1;
    Harness h(b.build(), pol, {}, 5, 50);
    ASSERT_TRUE(h.run());
    const auto &acc = h.trace.accesses();
    ASSERT_EQ(acc.size(), 3u);
    // Sync (index 1) commits after the first store's GP (commit+50).
    EXPECT_GE(acc[1].commitTick, acc[0].commitTick + 50);
    // And the store after the sync waits for the sync's GP.
    EXPECT_GE(acc[2].commitTick, acc[1].commitTick + 50);
}

TEST(Processor, Def2WaitsOnlyForSyncCommit)
{
    ProgramBuilder b;
    b.store(1, 1).unset(9, 1).store(2, 2).halt();
    PolicyKind pol = PolicyKind::Def2Drf0;
    Harness h(b.build(), pol, {}, 5, 50);
    ASSERT_TRUE(h.run());
    const auto &acc = h.trace.accesses();
    ASSERT_EQ(acc.size(), 3u);
    // The sync issues immediately (condition 4 only gates on previous
    // syncs), and the store after it waits only for the sync COMMIT, not
    // its GP: everything commits well before the first store's GP+50.
    EXPECT_LE(acc[1].commitTick, acc[0].commitTick + 10);
    EXPECT_LE(acc[2].commitTick, acc[1].commitTick + 10);
}

TEST(Processor, WriteBufferForwardsToReads)
{
    ProgramBuilder b;
    b.store(5, 9).load(0, 5).halt();
    PolicyKind pol = PolicyKind::Relaxed;
    ProcessorConfig pcfg;
    pcfg.wbDrainDelay = 50;
    Harness h(b.build(), pol, pcfg, 5, 0, /*write_buffer=*/true);
    ASSERT_TRUE(h.run());
    EXPECT_EQ(h.proc.registers()[0], 9u);
    EXPECT_GT(h.stats.get("proc0.wb_forwards"), 0u);
}

TEST(Processor, WriteBufferLetsReadsPassWrites)
{
    ProgramBuilder b;
    b.store(5, 9).load(0, 6).halt();
    PolicyKind pol = PolicyKind::Relaxed;
    ProcessorConfig pcfg;
    pcfg.wbDrainDelay = 50;
    Harness h(b.build(), pol, pcfg, 5, 0, /*write_buffer=*/true);
    ASSERT_TRUE(h.run());
    // The read reached the port before the buffered write drained.
    ASSERT_EQ(h.port.requests.size(), 2u);
    EXPECT_EQ(h.port.requests[0].kind, AccessKind::DataRead);
    EXPECT_EQ(h.port.requests[1].kind, AccessKind::DataWrite);
}

TEST(Processor, SyncDrainsWriteBuffer)
{
    ProgramBuilder b;
    b.store(5, 9).unset(9, 1).halt();
    PolicyKind pol = PolicyKind::Relaxed;
    ProcessorConfig pcfg;
    pcfg.wbDrainDelay = 50;
    Harness h(b.build(), pol, pcfg, 5, 0, /*write_buffer=*/true);
    ASSERT_TRUE(h.run());
    ASSERT_EQ(h.port.requests.size(), 2u);
    // The sync reached the port only after the buffered write drained.
    EXPECT_EQ(h.port.requests[0].kind, AccessKind::DataWrite);
    EXPECT_EQ(h.port.requests[1].kind, AccessKind::SyncWrite);
}

TEST(Processor, TraceRecordsKindsAndValues)
{
    ProgramBuilder b;
    b.store(5, 9).load(0, 5).tas(1, 9).halt();
    PolicyKind pol = PolicyKind::Sc;
    Harness h(b.build(), pol);
    ASSERT_TRUE(h.run());
    const auto &acc = h.trace.accesses();
    ASSERT_EQ(acc.size(), 3u);
    EXPECT_EQ(acc[0].kind, AccessKind::DataWrite);
    EXPECT_EQ(acc[0].valueWritten, 9u);
    EXPECT_EQ(acc[1].kind, AccessKind::DataRead);
    EXPECT_EQ(acc[1].valueRead, 9u);
    EXPECT_EQ(acc[2].kind, AccessKind::SyncRmw);
    EXPECT_EQ(acc[2].valueWritten, 1u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(acc[i].poIndex, i);
        EXPECT_NE(acc[i].commitTick, kNoTick);
        EXPECT_NE(acc[i].gpTick, kNoTick);
    }
}

TEST(Processor, StallCyclesAccumulateUnderSc)
{
    ProgramBuilder b;
    b.store(1, 1).store(2, 2).halt();
    Harness slow(b.build(), PolicyKind::Sc, {}, 5, 100);
    Harness fast(b.build(), PolicyKind::Relaxed, {}, 5, 100);
    ASSERT_TRUE(slow.run());
    ASSERT_TRUE(fast.run());
    EXPECT_GT(slow.proc.stallCycles(), fast.proc.stallCycles() + 50);
}

TEST(Processor, EmptyProgramHaltsImmediately)
{
    Program p;
    PolicyKind pol = PolicyKind::Sc;
    Harness h(p, pol);
    h.proc.start();
    EXPECT_TRUE(h.proc.halted());
}

} // namespace
} // namespace wo
