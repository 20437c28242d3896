/**
 * @file
 * Differential tests pinning the axiomatic backend to the rest of the
 * stack:
 *
 *  - Golden oracle: the "sc" model's allowed-outcome set must equal the
 *    brute-force interleaving enumeration of the idealized machine,
 *    exactly, for the whole shipped corpus, the C++ litmus builders and
 *    a fleet of random generated programs (SC = "some interleaving
 *    produces it"). checkExecution() takes its outcome set from "sc".
 *  - Simulator containment: every outcome any simulated machine
 *    produces must be allowed by the model bounding its policy — the
 *    corpus via the litmus runner's built-in axiom stage, random
 *    programs via direct System runs against sc/wb sets.
 *  - Mode agreement: the naive baseline enumerator and the pruned
 *    production enumerator compute identical allowed sets.
 */

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "axiom/enumerate.hh"
#include "litmus/compiler.hh"
#include "litmus/runner.hh"
#include "oracle/interleavings.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/litmus.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

using litmus_dsl::CompiledLitmus;

std::vector<CompiledLitmus>
loadCorpus()
{
    std::vector<CompiledLitmus> tests;
    for (const std::string &f :
         litmus_dsl::findLitmusFiles({WO_LITMUS_DIR}))
        tests.push_back(litmus_dsl::compileLitmusFile(f));
    return tests;
}

/** Small branchy-but-enumerable generator shapes (spinAcquire off keeps
 * the interleaving space finite for the brute-force oracle). */
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

/** The random fleet: >= 200 programs, half lock-disciplined (DRF0 by
 * construction), half with deliberate unguarded races. */
std::vector<MultiProgram>
randomFleet()
{
    std::vector<MultiProgram> fleet;
    for (std::uint64_t seed = 1; seed <= 100; ++seed)
        fleet.push_back(randomDrf0Program(tinyCfg(seed)));
    for (std::uint64_t seed = 1; seed <= 100; ++seed)
        fleet.push_back(randomRacyProgram(tinyCfg(1000 + seed), 1));
    return fleet;
}

TEST(AxiomDifferential, CorpusScEqualsIdealizedEnumeration)
{
    for (const CompiledLitmus &t : loadCorpus()) {
        axiom::ModelContext ctx;
        axiom::AxiomResult ax =
            axiom::enumerateAllowed(t.program, axiom::axiomModels(), ctx);
        ASSERT_TRUE(ax.complete) << t.name;

        OutcomeSet oracle = enumerateOutcomes(t.program);
        ASSERT_FALSE(oracle.bounded) << t.name;
        EXPECT_EQ(ax.allowed.at("sc"), oracle.outcomes) << t.name;

        // wb is an envelope: it may only widen the interleaving set.
        const std::set<RunResult> &wb = ax.allowed.at("wb");
        for (const RunResult &r : oracle.outcomes)
            EXPECT_TRUE(wb.count(r)) << t.name;
    }
}

TEST(AxiomDifferential, BuilderProgramsScEqualsIdealizedEnumeration)
{
    // The C++ builders intern addresses differently from the corpus
    // files they mirror (test_litmus_roundtrip), and they are the
    // programs checkExecution() is called on in the tests.
    const std::vector<MultiProgram> builders = {
        dekkerLitmus(),           racyMessagePassing(0),
        racyMessagePassing(2),    syncMessagePassing(),
        figure3Scenario(3),       tttasLockCounter(2, 1),
        tasLockCounter(2, 1),     syncBarrier(2),
        iriwLitmus(),             petersonCounter(false, 1),
        petersonCounter(true, 1),
    };
    for (const MultiProgram &mp : builders) {
        axiom::AxiomResult ax = axiom::enumerateAllowed(
            mp, {axiom::findAxiomModel("sc")}, {});
        ASSERT_TRUE(ax.complete) << mp.name();

        OutcomeSet oracle = enumerateOutcomes(mp);
        ASSERT_FALSE(oracle.bounded) << mp.name();
        EXPECT_EQ(ax.allowed.at("sc"), oracle.outcomes) << mp.name();
    }
}

TEST(AxiomDifferential, CorpusRunnerObservationsAreAllowed)
{
    litmus_dsl::RunnerOptions options;
    options.seeds = 20;
    ASSERT_TRUE(options.axiomCheck); // differential stage is default-on
    litmus_dsl::CorpusReport report =
        litmus_dsl::runCorpus(loadCorpus(), options);
    EXPECT_TRUE(report.pass);
    for (const litmus_dsl::TestReport &tr : report.tests) {
        EXPECT_TRUE(tr.axiomChecked) << tr.name;
        EXPECT_TRUE(tr.axiomComplete) << tr.name;
        EXPECT_TRUE(tr.pass) << tr.name << ": "
                             << (tr.failures.empty() ? ""
                                                     : tr.failures[0]);
        for (const litmus_dsl::CellReport &cell : tr.cells) {
            EXPECT_TRUE(cell.axiomForbidden.empty())
                << tr.name << " " << toString(cell.policy) << "/"
                << cell.variant << " observed forbidden outcome "
                << (cell.axiomForbidden.empty()
                        ? ""
                        : cell.axiomForbidden[0]);
        }
    }
}

TEST(AxiomDifferential, RandomProgramsScEqualsIdealizedEnumeration)
{
    int checked = 0;
    for (const MultiProgram &mp : randomFleet()) {
        axiom::ModelContext ctx;
        axiom::AxiomResult ax =
            axiom::enumerateAllowed(mp, axiom::axiomModels(), ctx);
        ASSERT_TRUE(ax.complete) << "program seed-idx " << checked;

        OutcomeSet oracle = enumerateOutcomes(mp);
        ASSERT_FALSE(oracle.bounded) << "program seed-idx " << checked;
        ASSERT_EQ(ax.allowed.at("sc"), oracle.outcomes)
            << "program seed-idx " << checked << "\n"
            << mp.toString();
        ++checked;
    }
    EXPECT_GE(checked, 200);
}

TEST(AxiomDifferential, RandomProgramSimulatorOutcomesWithinAllowed)
{
    const MachineSpec &bus = machineOrThrow("bus");
    int checked = 0;
    for (const MultiProgram &mp : randomFleet()) {
        axiom::ModelContext ctx;
        axiom::AxiomResult ax =
            axiom::enumerateAllowed(mp, axiom::axiomModels(), ctx);
        ASSERT_TRUE(ax.complete) << "program seed-idx " << checked;

        // SC hardware must land inside the interleaving set...
        {
            System sys(mp, bus.config(PolicyKind::Sc));
            ASSERT_TRUE(sys.run()) << "program seed-idx " << checked;
            EXPECT_TRUE(ax.allowed.at("sc").count(sys.result()))
                << "SC outcome outside sc-allowed, seed-idx " << checked
                << "\n" << mp.toString();
        }
        // ...and the write-buffer machine inside the wb envelope.
        {
            System sys(mp, bus.config(PolicyKind::Relaxed));
            ASSERT_TRUE(sys.run()) << "program seed-idx " << checked;
            EXPECT_TRUE(ax.allowed.at("wb").count(sys.result()))
                << "Relaxed outcome outside wb-allowed, seed-idx "
                << checked << "\n" << mp.toString();
        }
        ++checked;
    }
    EXPECT_GE(checked, 200);
}

TEST(AxiomDifferential, NaiveAndPrunedModesAgreeOnRandomPrograms)
{
    // The naive mode is the bench baseline; it must compute the same
    // allowed sets wherever it completes. Keep to a slice of the fleet
    // — naive enumeration is exponentially more work by design.
    int compared = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        MultiProgram mp = randomDrf0Program(tinyCfg(seed));
        axiom::ModelContext ctx;
        axiom::AxiomLimits naive;
        naive.pruning = false;
        axiom::AxiomResult p =
            axiom::enumerateAllowed(mp, axiom::axiomModels(), ctx);
        axiom::AxiomResult n =
            axiom::enumerateAllowed(mp, axiom::axiomModels(), ctx, naive);
        if (!p.complete || !n.complete)
            continue;
        EXPECT_EQ(p.allowed, n.allowed) << "seed " << seed;
        ++compared;
    }
    EXPECT_GE(compared, 5);
}

} // namespace
} // namespace wo
