/**
 * @file
 * Differential tests between the formal-core components: every trace the
 * idealized architecture produces must verify as sequentially consistent
 * (it IS an SC execution by construction), and corrupted traces must be
 * rejected.
 */

#include <gtest/gtest.h>

#include "core/idealized.hh"
#include "core/sc_verifier.hh"
#include "oracle/interleavings.hh"
#include "sim/rng.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

RandomWorkloadConfig
tinyCfg(std::uint64_t seed)
{
    RandomWorkloadConfig cfg;
    cfg.numProcs = 2;
    cfg.numLocks = 1;
    cfg.locsPerLock = 2;
    cfg.privateLocs = 1;
    cfg.sectionsPerProc = 1;
    cfg.opsPerSection = 2;
    cfg.privateOpsBetween = 1;
    cfg.spinAcquire = false;
    cfg.seed = seed;
    return cfg;
}

TEST(Differential, EveryIdealizedTraceVerifiesSc)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        MultiProgram mp = randomDrf0Program(tinyCfg(seed));
        int checked = 0;
        forEachExecution(
            mp, {},
            [&](const ExecutionTrace &t, const RunResult &, bool complete) {
                if (!complete)
                    return true;
                ScReport r = verifySc(t);
                EXPECT_EQ(r.verdict, ScVerdict::Sc)
                    << "seed " << seed << "\n" << t.toString();
                ++checked;
                // Checking every interleaving is overkill; sample 200.
                return checked < 200;
            });
        EXPECT_GT(checked, 0) << "seed " << seed;
    }
}

TEST(Differential, CorruptedReadValuesAreRejected)
{
    // Take a legal idealized trace and flip one read's value to
    // something never written to that location: must become NotSc.
    MultiProgram mp = randomDrf0Program(tinyCfg(3));
    ExecutionTrace trace;
    RunResult res = runWithSchedule(mp, {0, 1, 0, 1, 1, 0}, &trace);
    ASSERT_TRUE(res.allHalted);
    int corrupted = 0;
    for (int i = 0; i < trace.size(); ++i) {
        if (!trace.at(i).reads())
            continue;
        ExecutionTrace copy = trace;
        copy.mutableAt(i).valueRead = 0xdeadbeef;
        ScReport r = verifySc(copy);
        EXPECT_EQ(r.verdict, ScVerdict::NotSc)
            << "corrupting " << trace.at(i).toString();
        ++corrupted;
    }
    EXPECT_GT(corrupted, 0);
}

TEST(Differential, HardwareOutcomesAlwaysInIdealizedSet)
{
    // (A slice of Appendix B, differentially.) The outcome of each
    // schedule of the idealized machine must be in the enumerated set.
    MultiProgram mp = randomDrf0Program(tinyCfg(4));
    OutcomeSet set = enumerateOutcomes(mp);
    ASSERT_FALSE(set.bounded);
    Rng rng(99);
    for (int run = 0; run < 30; ++run) {
        std::vector<ProcId> sched;
        for (int i = 0; i < 40; ++i)
            sched.push_back(static_cast<ProcId>(rng.below(2)));
        RunResult r = runWithSchedule(mp, sched);
        if (r.allHalted) {
            EXPECT_EQ(set.outcomes.count(r), 1u) << r.toString();
        }
    }
}

TEST(Differential, OutcomeEnumerationMatchesPathEnumeration)
{
    // The memoized outcome set must equal the set of outcomes collected
    // by raw path enumeration.
    MultiProgram mp = randomDrf0Program(tinyCfg(5));
    OutcomeSet memo = enumerateOutcomes(mp);
    std::set<RunResult> paths;
    bool full = forEachExecution(
        mp, {},
        [&](const ExecutionTrace &, const RunResult &r, bool complete) {
            if (complete)
                paths.insert(r);
            return true;
        });
    ASSERT_TRUE(full);
    EXPECT_EQ(memo.outcomes, paths);
}

} // namespace
} // namespace wo
