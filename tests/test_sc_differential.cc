/**
 * @file
 * Differential tests pinning verifySc() (observed-order replay first,
 * search only when the replay gets stuck) to searchSc() (the memoized
 * search alone):
 *
 *  - on every finished simulator trace of the shipped litmus corpus and
 *    of 200 random DRF0 and 200 random racy programs, run on every
 *    registry machine under every policy it accepts, both verifiers
 *    give the same verdict wherever the search is not Unknown;
 *  - every Sc witness either path returns is replayed by an independent
 *    checker written here: a permutation of the trace ids, in program
 *    order per processor, each read seeing the latest write before it.
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sc_verifier.hh"
#include "litmus/compiler.hh"
#include "litmus/runner.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

/** Independent witness check: permutation, po, read-sees-latest-write. */
void
expectLegalWitness(const ExecutionTrace &trace,
                   const std::vector<int> &order, const std::string &what)
{
    ASSERT_EQ(order.size(), static_cast<std::size_t>(trace.size())) << what;
    std::vector<char> seen(order.size(), 0);
    std::map<ProcId, std::size_t> nextInPo;
    std::map<Addr, Word> mem;
    for (int id : order) {
        ASSERT_GE(id, 0) << what;
        ASSERT_LT(id, trace.size()) << what;
        ASSERT_FALSE(seen[static_cast<std::size_t>(id)])
            << what << ": id " << id << " placed twice";
        seen[static_cast<std::size_t>(id)] = 1;
        const Access &a = trace.at(id);
        const std::vector<int> &po = trace.accessesOf(a.proc);
        std::size_t &k = nextInPo[a.proc];
        ASSERT_LT(k, po.size()) << what;
        ASSERT_EQ(po[k], id) << what << ": #" << id
                             << " placed out of program order";
        ++k;
        auto it = mem.find(a.addr);
        Word cur = it == mem.end() ? trace.initialValue(a.addr) : it->second;
        if (a.reads()) {
            ASSERT_EQ(cur, a.valueRead)
                << what << ": #" << id << " reads a stale value";
        }
        if (a.writes())
            mem[a.addr] = a.valueWritten;
    }
}

/** Counts across one test's traces, so it can assert both paths ran. */
struct Tally
{
    int traces = 0;
    int observed = 0; ///< verifySc decided by the observed-order replay
    int searched = 0; ///< verifySc fell back to the search
    int notSc = 0;
};

void
expectAgree(const ExecutionTrace &trace, const std::string &what,
            Tally &tally)
{
    ScReport fast = verifySc(trace);
    ScReport slow = searchSc(trace);
    ++tally.traces;
    if (fast.decidedBy == ScPath::ObservedOrder) {
        ++tally.observed;
        EXPECT_EQ(fast.verdict, ScVerdict::Sc) << what;
        EXPECT_EQ(fast.statesExplored, 0u) << what;
    } else {
        ++tally.searched;
        // The fallback is the search itself, unchanged.
        EXPECT_EQ(fast.verdict, slow.verdict) << what;
        EXPECT_EQ(fast.statesExplored, slow.statesExplored) << what;
        EXPECT_EQ(fast.witnessOrder, slow.witnessOrder) << what;
    }
    EXPECT_NE(fast.verdict, ScVerdict::Unknown) << what;
    if (slow.verdict != ScVerdict::Unknown) {
        EXPECT_EQ(fast.verdict, slow.verdict) << what;
    }
    if (fast.verdict == ScVerdict::NotSc)
        ++tally.notSc;
    if (fast.sc())
        expectLegalWitness(trace, fast.witnessOrder, what + " (verifySc)");
    if (slow.sc())
        expectLegalWitness(trace, slow.witnessOrder, what + " (searchSc)");
}

const PolicyKind kPolicies[] = {PolicyKind::Sc, PolicyKind::Def1,
                                PolicyKind::Def2Drf0, PolicyKind::Def2Drf1,
                                PolicyKind::Relaxed};

/** Run @p program on every registry machine under every policy that
 * accepts it, and compare the verifiers on each finished trace. */
void
expectAgreeEverywhere(const MultiProgram &program, std::uint64_t seed,
                      const std::string &what, Tally &tally)
{
    for (const MachineSpec &m : machineRegistry()) {
        for (PolicyKind policy : kPolicies) {
            std::string where = what + " on " + m.name + "/" +
                                toString(policy);
            try {
                System sys(program, m.config(policy, seed));
                if (!sys.run())
                    continue;
                expectAgree(sys.trace(), where, tally);
            } catch (const std::invalid_argument &) {
                // This machine cannot run the policy.
            }
        }
    }
}

RandomWorkloadConfig
smallCfg(std::uint64_t seed)
{
    RandomWorkloadConfig cfg;
    cfg.numProcs = 2 + static_cast<int>(seed % 3);
    cfg.numLocks = 2;
    cfg.locsPerLock = 2;
    cfg.privateLocs = 2;
    cfg.sectionsPerProc = 2;
    cfg.opsPerSection = 2;
    cfg.privateOpsBetween = 1;
    cfg.spinAcquire = seed % 2 == 0;
    cfg.seed = seed;
    return cfg;
}

TEST(ScDifferential, LitmusCorpusOnEveryMachineAndPolicy)
{
    std::vector<std::string> files =
        litmus_dsl::findLitmusFiles({WO_LITMUS_DIR});
    ASSERT_EQ(files.size(), 19u);
    Tally tally;
    for (const std::string &f : files) {
        litmus_dsl::CompiledLitmus test = litmus_dsl::compileLitmusFile(f);
        for (std::uint64_t s = 1; s <= 3; ++s)
            expectAgreeEverywhere(test.program, s,
                                  f + " seed " + std::to_string(s), tally);
    }
    // The corpus exercises both paths and real violations.
    EXPECT_GT(tally.observed, 0);
    EXPECT_GT(tally.searched, 0);
    EXPECT_GT(tally.notSc, 0);
}

TEST(ScDifferential, RandomDrf0ProgramsOnEveryMachineAndPolicy)
{
    Tally tally;
    for (std::uint64_t seed = 1; seed <= 200; ++seed)
        expectAgreeEverywhere(randomDrf0Program(smallCfg(seed)), seed,
                              "drf0 seed " + std::to_string(seed), tally);
    EXPECT_GT(tally.traces, 200 * 17);
    EXPECT_GT(tally.observed, 0);
}

TEST(ScDifferential, RandomRacyProgramsOnEveryMachineAndPolicy)
{
    Tally tally;
    for (std::uint64_t seed = 1; seed <= 200; ++seed)
        expectAgreeEverywhere(randomRacyProgram(smallCfg(seed), 2), seed,
                              "racy seed " + std::to_string(seed), tally);
    EXPECT_GT(tally.traces, 200 * 17);
    EXPECT_GT(tally.observed, 0);
}

} // namespace
} // namespace wo
