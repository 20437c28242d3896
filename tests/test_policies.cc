/**
 * @file
 * Unit tests for the consistency-policy rule table: issue gates, cache
 * hints, names and the DRF0 contract each policy promises.
 */

#include <gtest/gtest.h>

#include "consistency/policy.hh"

namespace wo {
namespace {

ProcState
st(int not_gp, int sync_nc, int sync_ngp)
{
    ProcState s;
    s.notGloballyPerformed = not_gp;
    s.syncsNotCommitted = sync_nc;
    s.syncsNotGloballyPerformed = sync_ngp;
    return s;
}

TEST(Policies, NamesRoundTrip)
{
    const std::pair<const char *, PolicyKind> names[] = {
        {"sc", PolicyKind::Sc},
        {"def1", PolicyKind::Def1},
        {"def2drf0", PolicyKind::Def2Drf0},
        {"def2drf1", PolicyKind::Def2Drf1},
        {"relaxed", PolicyKind::Relaxed},
    };
    for (const auto &[name, kind] : names) {
        PolicyKind parsed = PolicyKind::Relaxed;
        ASSERT_TRUE(parsePolicyName(name, &parsed)) << name;
        EXPECT_EQ(parsed, kind) << name;
    }
    EXPECT_EQ(toString(PolicyKind::Sc), "SC");
    EXPECT_EQ(toString(PolicyKind::Def1), "WO-Def1");
    EXPECT_EQ(toString(PolicyKind::Def2Drf0), "WO-Def2-DRF0");
    EXPECT_EQ(toString(PolicyKind::Def2Drf1), "WO-Def2-DRF1");
    EXPECT_EQ(toString(PolicyKind::Relaxed), "Relaxed");

    for (const char *bad : {"SC", "def2", "", "WO-Def1", "sc "}) {
        PolicyKind untouched = PolicyKind::Def1;
        EXPECT_FALSE(parsePolicyName(bad, &untouched)) << '"' << bad << '"';
        EXPECT_EQ(untouched, PolicyKind::Def1);
    }
}

TEST(Policies, ScGatesOnAnythingOutstanding)
{
    PolicyKind p = PolicyKind::Sc;
    EXPECT_TRUE(mayIssue(p, AccessKind::DataRead, st(0, 0, 0)));
    EXPECT_FALSE(mayIssue(p, AccessKind::DataRead, st(1, 0, 0)));
    EXPECT_FALSE(mayIssue(p, AccessKind::SyncRmw, st(1, 0, 0)));
    EXPECT_FALSE(requiresCache(p));
    EXPECT_FALSE(allowWriteBuffer(p));
    EXPECT_EQ(refusalReason(p), StallReason::CounterNonzero);
}

TEST(Policies, Def1GatesSyncsOnAllGpAndDataOnSyncGp)
{
    PolicyKind p = PolicyKind::Def1;
    // Data ops overlap freely while only data is pending.
    EXPECT_TRUE(mayIssue(p, AccessKind::DataWrite, st(3, 0, 0)));
    // ... but not past a non-GP sync (condition 3).
    EXPECT_FALSE(mayIssue(p, AccessKind::DataWrite, st(1, 0, 1)));
    // Syncs wait for everything (condition 2).
    EXPECT_FALSE(mayIssue(p, AccessKind::SyncWrite, st(1, 0, 0)));
    EXPECT_TRUE(mayIssue(p, AccessKind::SyncWrite, st(0, 0, 0)));
    // A committed-but-not-GP sync still blocks both.
    EXPECT_FALSE(mayIssue(p, AccessKind::SyncRmw, st(1, 0, 1)));
    EXPECT_EQ(refusalReason(p), StallReason::CounterNonzero);
}

TEST(Policies, Def2GatesOnlyOnUncommittedSyncs)
{
    for (PolicyKind p : {PolicyKind::Def2Drf0, PolicyKind::Def2Drf1}) {
        // Pending data never blocks issue (condition 4 only).
        EXPECT_TRUE(mayIssue(p, AccessKind::DataWrite, st(5, 0, 0)));
        EXPECT_TRUE(mayIssue(p, AccessKind::SyncRmw, st(5, 0, 0)));
        // A non-GP but committed sync does not block...
        EXPECT_TRUE(mayIssue(p, AccessKind::DataRead, st(1, 0, 1)));
        // ... an uncommitted sync blocks everything.
        EXPECT_FALSE(mayIssue(p, AccessKind::DataRead, st(1, 1, 1)));
        EXPECT_FALSE(mayIssue(p, AccessKind::SyncWrite, st(1, 1, 1)));
        EXPECT_TRUE(requiresCache(p));
        EXPECT_TRUE(useReserveBits(p));
        EXPECT_EQ(refusalReason(p), StallReason::ReserveBit);
    }
}

TEST(Policies, Drf0AndDrf1DifferOnlyInSyncReadTreatment)
{
    EXPECT_TRUE(syncReadsAsWrites(PolicyKind::Def2Drf0));
    EXPECT_FALSE(syncReadsAsWrites(PolicyKind::Def2Drf1));
}

TEST(Policies, RelaxedGatesNothing)
{
    PolicyKind p = PolicyKind::Relaxed;
    EXPECT_TRUE(mayIssue(p, AccessKind::DataRead, st(9, 3, 3)));
    EXPECT_TRUE(mayIssue(p, AccessKind::SyncRmw, st(9, 3, 3)));
    EXPECT_TRUE(allowWriteBuffer(p));
    EXPECT_FALSE(useReserveBits(p));
}

TEST(Policies, PromisesScPerKind)
{
    // SC always; the weakly ordered implementations exactly for DRF0
    // programs; Relaxed never.
    const struct
    {
        PolicyKind kind;
        bool drf0;
        bool racy;
    } promises[] = {
        {PolicyKind::Sc, true, true},
        {PolicyKind::Def1, true, false},
        {PolicyKind::Def2Drf0, true, false},
        {PolicyKind::Def2Drf1, true, false},
        {PolicyKind::Relaxed, false, false},
    };
    for (const auto &p : promises) {
        EXPECT_EQ(promisesSc(p.kind, true), p.drf0) << toString(p.kind);
        EXPECT_EQ(promisesSc(p.kind, false), p.racy) << toString(p.kind);
    }
}

} // namespace
} // namespace wo
