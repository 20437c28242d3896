/**
 * @file
 * Protocol-level unit tests: caches + directory driven by scripted
 * clients (no processors), exercising each transaction flow of the
 * Section 5.2 protocol and the counter / reserve-bit mechanisms.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "coherence/cache.hh"
#include "coherence/directory.hh"
#include "mem/interconnect.hh"
#include "sim/event_queue.hh"

namespace wo {
namespace {

/** Records every callback with its time. */
class ScriptClient : public CacheClient
{
  public:
    struct Event
    {
        std::uint64_t id;
        Word value;
        Tick tick;
        bool gp;
    };

    void
    opCommitted(std::uint64_t id, Word v) override
    {
        events.push_back({id, v, now ? *now : 0, false});
        committed[id] = v;
    }

    void
    opGloballyPerformed(std::uint64_t id) override
    {
        events.push_back({id, 0, now ? *now : 0, true});
        gp[id] = true;
    }

    void counterReadsZero() override { ++counter_zeros; }

    bool isCommitted(std::uint64_t id) const { return committed.count(id); }
    bool isGp(std::uint64_t id) const { return gp.count(id); }
    Word value(std::uint64_t id) const { return committed.at(id); }

    std::vector<Event> events;
    std::map<std::uint64_t, Word> committed;
    std::map<std::uint64_t, bool> gp;
    int counter_zeros = 0;
    const Tick *now = nullptr;
};

/** A rig: N caches, one directory, a network, scripted clients. */
class Rig
{
  public:
    /** The default policy's row (sync reads as writes, reserve bits on)
     * is the DRF0 example implementation of Section 5. */
    explicit Rig(int ncaches, CacheConfig ccfg = {},
                 PolicyKind policy = PolicyKind::Def2Drf0)
    {
        GeneralNetwork::Config ncfg;
        ncfg.base = 3;
        ncfg.jitter = 0; // deterministic
        net = std::make_unique<GeneralNetwork>(eq, stats, ncfg);
        dir = std::make_unique<Directory>(eq, *net, stats, ncaches,
                                          ProtocolKind::Msi, "dir");
        for (int i = 0; i < ncaches; ++i) {
            caches.push_back(std::make_unique<Cache>(
                eq, *net, stats, i, ncaches, 1, ProtocolKind::Msi, policy,
                ccfg, "cache" + std::to_string(i)));
            clients.push_back(std::make_unique<ScriptClient>());
            caches[i]->setPortClient(clients[i].get());
        }
        now_cache = eq.now();
        for (auto &c : clients)
            c->now = &now_shadow;
    }

    /** Issue an op and drain all events. */
    void
    run()
    {
        // Track time through a shadow updated per step so clients can
        // timestamp callbacks.
        while (!eq.empty()) {
            eq.step();
            now_shadow = eq.now();
        }
    }

    CacheOp
    op(std::uint64_t id, AccessKind k, Addr a, Word v = 0)
    {
        CacheOp o;
        o.id = id;
        o.kind = k;
        o.addr = a;
        o.writeValue = v;
        return o;
    }

    EventQueue eq;
    StatSet stats;
    std::unique_ptr<GeneralNetwork> net;
    std::unique_ptr<Directory> dir;
    std::vector<std::unique_ptr<Cache>> caches;
    std::vector<std::unique_ptr<ScriptClient>> clients;
    Tick now_cache = 0;
    Tick now_shadow = 0;
};

TEST(Protocol, ReadMissFillsShared)
{
    Rig rig(1);
    rig.dir->poke(5, 99);
    rig.caches[0]->access(rig.op(1, AccessKind::DataRead, 5));
    EXPECT_EQ(rig.caches[0]->counter(), 1);
    rig.run();
    EXPECT_TRUE(rig.clients[0]->isCommitted(1));
    EXPECT_TRUE(rig.clients[0]->isGp(1));
    EXPECT_EQ(rig.clients[0]->value(1), 99u);
    EXPECT_EQ(rig.caches[0]->counter(), 0);
    LineState st;
    Word d;
    ASSERT_TRUE(rig.caches[0]->peekLine(5, &st, &d));
    EXPECT_EQ(st, LineState::Shared);
    EXPECT_EQ(d, 99u);
}

TEST(Protocol, WriteMissOnUncachedLineGpOnArrival)
{
    Rig rig(1);
    rig.caches[0]->access(rig.op(1, AccessKind::DataWrite, 5, 7));
    rig.run();
    EXPECT_TRUE(rig.clients[0]->isCommitted(1));
    EXPECT_TRUE(rig.clients[0]->isGp(1));
    LineState st;
    Word d;
    ASSERT_TRUE(rig.caches[0]->peekLine(5, &st, &d));
    EXPECT_EQ(st, LineState::Modified);
    EXPECT_EQ(d, 7u);
}

TEST(Protocol, WriteMissOnSharedLineCommitsBeforeGp)
{
    // Cache 1 holds the line shared; cache 0 writes. The line is
    // forwarded in parallel with the invalidation: commit precedes GP.
    Rig rig(2);
    rig.dir->poke(5, 1);
    rig.caches[0]->access(rig.op(1, AccessKind::DataRead, 5));
    rig.caches[1]->access(rig.op(2, AccessKind::DataRead, 5));
    rig.run();

    rig.caches[0]->access(rig.op(3, AccessKind::DataWrite, 5, 42));
    rig.run();
    EXPECT_TRUE(rig.clients[0]->isCommitted(3));
    EXPECT_TRUE(rig.clients[0]->isGp(3));
    // Commit and GP events both happened; commit strictly earlier.
    Tick commit_t = 0, gp_t = 0;
    for (const auto &e : rig.clients[0]->events) {
        if (e.id == 3 && !e.gp)
            commit_t = e.tick;
        if (e.id == 3 && e.gp)
            gp_t = e.tick;
    }
    EXPECT_LT(commit_t, gp_t);
    // Cache 1's copy is gone.
    EXPECT_FALSE(rig.caches[1]->peekLine(5, nullptr, nullptr));
    EXPECT_GT(rig.stats.get("cache1.invalidations"), 0u);
}

TEST(Protocol, UpgradeFromSharedGetsExclusive)
{
    Rig rig(2);
    rig.dir->poke(5, 1);
    rig.caches[0]->access(rig.op(1, AccessKind::DataRead, 5));
    rig.caches[1]->access(rig.op(2, AccessKind::DataRead, 5));
    rig.run();

    rig.caches[0]->access(rig.op(3, AccessKind::DataWrite, 5, 9));
    rig.run();
    LineState st;
    Word d;
    ASSERT_TRUE(rig.caches[0]->peekLine(5, &st, &d));
    EXPECT_EQ(st, LineState::Modified);
    EXPECT_EQ(d, 9u);
    EXPECT_FALSE(rig.caches[1]->peekLine(5, nullptr, nullptr));
}

TEST(Protocol, ConcurrentUpgradesOneWinsOtherConverts)
{
    Rig rig(2);
    rig.dir->poke(5, 1);
    rig.caches[0]->access(rig.op(1, AccessKind::DataRead, 5));
    rig.caches[1]->access(rig.op(2, AccessKind::DataRead, 5));
    rig.run();

    // Both upgrade "simultaneously".
    rig.caches[0]->access(rig.op(3, AccessKind::DataWrite, 5, 10));
    rig.caches[1]->access(rig.op(4, AccessKind::DataWrite, 5, 20));
    rig.run();
    EXPECT_TRUE(rig.clients[0]->isGp(3));
    EXPECT_TRUE(rig.clients[1]->isGp(4));
    // Exactly one exclusive owner at the end.
    int owners = 0;
    Word final_val = 0;
    for (int i = 0; i < 2; ++i) {
        LineState st;
        Word d;
        if (rig.caches[i]->peekLine(5, &st, &d) &&
            st == LineState::Modified) {
            ++owners;
            final_val = d;
        }
    }
    EXPECT_EQ(owners, 1);
    EXPECT_TRUE(final_val == 10 || final_val == 20);
}

TEST(Protocol, ReadOfExclusiveLineRecallsAndDowngrades)
{
    Rig rig(2);
    rig.caches[0]->access(rig.op(1, AccessKind::DataWrite, 5, 77));
    rig.run();

    rig.caches[1]->access(rig.op(2, AccessKind::DataRead, 5));
    rig.run();
    EXPECT_EQ(rig.clients[1]->value(2), 77u);
    LineState st0, st1;
    ASSERT_TRUE(rig.caches[0]->peekLine(5, &st0, nullptr));
    ASSERT_TRUE(rig.caches[1]->peekLine(5, &st1, nullptr));
    EXPECT_EQ(st0, LineState::Shared);
    EXPECT_EQ(st1, LineState::Shared);
}

TEST(Protocol, WriteOfExclusiveLineTransfersOwnership)
{
    Rig rig(2);
    rig.caches[0]->access(rig.op(1, AccessKind::DataWrite, 5, 77));
    rig.run();

    rig.caches[1]->access(rig.op(2, AccessKind::DataWrite, 5, 88));
    rig.run();
    EXPECT_TRUE(rig.clients[1]->isGp(2));
    EXPECT_FALSE(rig.caches[0]->peekLine(5, nullptr, nullptr));
    LineState st;
    Word d;
    ASSERT_TRUE(rig.caches[1]->peekLine(5, &st, &d));
    EXPECT_EQ(st, LineState::Modified);
    EXPECT_EQ(d, 88u);
}

TEST(Protocol, TasReturnsOldValueAtomically)
{
    Rig rig(2);
    rig.dir->poke(9, 0);
    rig.caches[0]->access(rig.op(1, AccessKind::SyncRmw, 9, 1));
    rig.run();
    EXPECT_EQ(rig.clients[0]->value(1), 0u);
    rig.caches[1]->access(rig.op(2, AccessKind::SyncRmw, 9, 1));
    rig.run();
    EXPECT_EQ(rig.clients[1]->value(2), 1u);
}

TEST(Protocol, ReserveBitBlocksRemoteSyncUntilWriteGp)
{
    // Condition 5 end to end: cache0 has a pending (not yet globally
    // performed) data write when its sync commits; cache1's sync on the
    // same location must not commit until the write's WriteAck.
    CacheConfig ccfg;
    ccfg.invApplyDelay = 100; // slow invalidation acks
    Rig rig(2, ccfg);
    rig.dir->poke(0, 0); // datum x
    rig.dir->poke(9, 0); // sync s

    // Warm: cache1 shares x so cache0's write needs an invalidation.
    rig.caches[1]->access(rig.op(1, AccessKind::DataRead, 0));
    rig.run();

    // Cache0: W(x) (slow GP), then sync on s.
    rig.caches[0]->access(rig.op(2, AccessKind::DataWrite, 0, 5));
    // Let the write commit but not globally perform.
    for (int i = 0; i < 40 && !rig.clients[0]->isCommitted(2); ++i) {
        rig.eq.step();
        rig.now_shadow = rig.eq.now();
    }
    ASSERT_TRUE(rig.clients[0]->isCommitted(2));
    ASSERT_FALSE(rig.clients[0]->isGp(2));

    rig.caches[0]->access(rig.op(3, AccessKind::SyncRmw, 9, 1));
    // Cache1 requests the same sync location.
    rig.caches[1]->access(rig.op(4, AccessKind::SyncRmw, 9, 1));
    rig.run();

    EXPECT_TRUE(rig.clients[1]->isCommitted(4));
    // Cache1's sync committed only after cache0's write was GP.
    Tick w_gp = 0, s1_commit = 0;
    for (const auto &e : rig.clients[0]->events) {
        if (e.id == 2 && e.gp)
            w_gp = e.tick;
    }
    for (const auto &e : rig.clients[1]->events) {
        if (e.id == 4 && !e.gp)
            s1_commit = e.tick;
    }
    EXPECT_GE(s1_commit, w_gp);
    EXPECT_GT(rig.stats.get("cache0.reserves"), 0u);
    EXPECT_GT(rig.stats.get("cache0.recalls_queued"), 0u);
}

TEST(Protocol, EpochReserveDoesNotWaitForLaterMisses)
{
    // Cache0: slow data write; sync A commits (reserved); then a miss to
    // an unrelated location B. The reserve on A must clear when the data
    // write performs, NOT wait for B.
    CacheConfig ccfg;
    ccfg.invApplyDelay = 50;
    Rig rig(2, ccfg);
    rig.caches[1]->access(rig.op(1, AccessKind::DataRead, 0));
    rig.run();

    rig.caches[0]->access(rig.op(2, AccessKind::DataWrite, 0, 5));
    for (int i = 0; i < 40 && !rig.clients[0]->isCommitted(2); ++i) {
        rig.eq.step();
        rig.now_shadow = rig.eq.now();
    }
    rig.caches[0]->access(rig.op(3, AccessKind::SyncRmw, 9, 1));
    for (int i = 0; i < 60 && !rig.clients[0]->isCommitted(3); ++i) {
        rig.eq.step();
        rig.now_shadow = rig.eq.now();
    }
    ASSERT_TRUE(rig.clients[0]->isCommitted(3));
    EXPECT_TRUE(rig.caches[0]->anyReserved());
    rig.run();
    // After the write (and the sync's own invalidations) perform, the
    // reserve is gone even if other misses were to come later.
    EXPECT_FALSE(rig.caches[0]->anyReserved());
}

TEST(Protocol, EvictionWritesBackExclusiveLine)
{
    CacheConfig ccfg;
    ccfg.numSets = 1;
    ccfg.ways = 1;
    Rig rig(1, ccfg);
    rig.caches[0]->access(rig.op(1, AccessKind::DataWrite, 5, 50));
    rig.run();
    rig.caches[0]->access(rig.op(2, AccessKind::DataWrite, 6, 60));
    rig.run();
    // Line 5 was written back to the directory.
    EXPECT_FALSE(rig.caches[0]->peekLine(5, nullptr, nullptr));
    EXPECT_EQ(rig.dir->peek(5), 50u);
    EXPECT_GT(rig.stats.get("cache0.writebacks"), 0u);
    // And can be read back.
    rig.caches[0]->access(rig.op(3, AccessKind::DataRead, 5));
    rig.run();
    EXPECT_EQ(rig.clients[0]->value(3), 50u);
}

TEST(Protocol, SilentDropOfSharedLineStaysCoherent)
{
    CacheConfig ccfg;
    ccfg.numSets = 1;
    ccfg.ways = 1;
    Rig rig(2, ccfg);
    rig.dir->poke(5, 11);
    rig.caches[0]->access(rig.op(1, AccessKind::DataRead, 5));
    rig.run();
    // Evict 5 silently by reading 6.
    rig.caches[0]->access(rig.op(2, AccessKind::DataRead, 6));
    rig.run();
    EXPECT_GT(rig.stats.get("cache0.silent_drops"), 0u);
    // Cache1 writes 5: the directory still lists cache0 as a sharer and
    // sends it a (stale) invalidation, which it must ack.
    rig.caches[1]->access(rig.op(3, AccessKind::DataWrite, 5, 12));
    rig.run();
    EXPECT_TRUE(rig.clients[1]->isGp(3));
    EXPECT_GT(rig.stats.get("cache0.stale_invalidations"), 0u);
}

TEST(Protocol, SyncReadAsWriteVsAsRead)
{
    // Under the DRF0 example implementation, a Test procures the line
    // exclusively; under the refinement (Def2-DRF1) it is a plain read.
    for (PolicyKind pol : {PolicyKind::Def2Drf0, PolicyKind::Def2Drf1}) {
        bool as_write = pol == PolicyKind::Def2Drf0;
        Rig rig(1, {}, pol);
        rig.dir->poke(9, 1);
        rig.caches[0]->access(rig.op(1, AccessKind::SyncRead, 9));
        rig.run();
        EXPECT_EQ(rig.clients[0]->value(1), 1u);
        LineState st;
        ASSERT_TRUE(rig.caches[0]->peekLine(9, &st, nullptr));
        EXPECT_EQ(st, as_write ? LineState::Modified : LineState::Shared);
    }
}

TEST(Protocol, CounterZeroCallbackFires)
{
    Rig rig(1);
    rig.caches[0]->access(rig.op(1, AccessKind::DataRead, 5));
    rig.run();
    EXPECT_GE(rig.clients[0]->counter_zeros, 1);
}

TEST(Protocol, DirectoryIdleAfterQuiescence)
{
    Rig rig(2);
    for (std::uint64_t i = 0; i < 6; ++i) {
        rig.caches[i % 2]->access(rig.op(
            i + 1,
            i % 2 ? AccessKind::DataWrite : AccessKind::DataRead,
            static_cast<Addr>(i % 3), i));
    }
    rig.run();
    EXPECT_TRUE(rig.dir->idle());
}

} // namespace
} // namespace wo
