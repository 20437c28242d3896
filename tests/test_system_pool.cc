/**
 * @file
 * The System lifecycle contract behind the campaign pool: reset() +
 * loadProgram() must make a reused instance observably indistinguishable
 * from a freshly constructed one — same verdicts, same final state, same
 * stats, same reports — for every machine, policy, and workload shape.
 *
 * Structured as three layers:
 *  - lifecycle unit tests (replay identity, seed changes, program swaps,
 *    the guards that reject incompatible reuse);
 *  - pool behaviour (hit/miss accounting, incompatible configs rebuild);
 *  - corpus differentials (a fuzz sweep of random DRF0/racy programs
 *    replayed through one pooled instance against fresh construction,
 *    and the full litmus fan at 1 and 4 worker threads, whose jobs reuse
 *    different pooled Systems).
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "litmus/runner.hh"
#include "obs/coverage.hh"
#include "obs/trace_sink.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/campaign.hh"
#include "workload/random_gen.hh"

namespace wo {
namespace {

/** Everything a job's caller can observe, as one comparable string. */
std::string
snapshot(System &sys, bool finished)
{
    std::ostringstream oss;
    oss << "finished=" << finished << "\n";
    if (finished) {
        oss << "tick=" << sys.finishTick() << "\n"
            << "result=" << sys.result().toString() << "\n"
            << "trace=" << sys.trace().toString() << "\n";
    }
    sys.stats().dump(oss);
    return oss.str();
}

/** Construct fresh, run, snapshot. */
std::string
freshRun(const MultiProgram &prog, const SystemConfig &cfg)
{
    System sys(prog, cfg);
    bool finished = sys.run();
    return snapshot(sys, finished);
}

RandomWorkloadConfig
workload(std::uint64_t seed, int procs = 2)
{
    RandomWorkloadConfig cfg;
    cfg.numProcs = procs;
    cfg.sectionsPerProc = 2;
    cfg.opsPerSection = 2;
    cfg.seed = seed;
    return cfg;
}

TEST(SystemLifecycle, ResetReplaysBitIdentically)
{
    // reset() (no args) + run() must replay the same job: same finish
    // tick, registers, memory, trace and stats.
    for (const char *machine : {"bus", "net", "net-u"}) {
        const MachineSpec &m = machineOrThrow(machine);
        PolicyKind pk = m.cached ? PolicyKind::Def2Drf0 : PolicyKind::Sc;
        MultiProgram prog = randomDrf0Program(workload(7));
        SystemConfig cfg = m.config(pk, 11);

        System sys(prog, cfg);
        std::string first = snapshot(sys, sys.run());
        sys.reset();
        std::string replay = snapshot(sys, sys.run());
        EXPECT_EQ(first, replay) << "machine " << machine;
    }
}

TEST(SystemLifecycle, ResetWithNewSeedMatchesFreshConstruction)
{
    // Reuse across jobs of one cell: only net.seed changes. The reused
    // instance must be indistinguishable from a new System at that seed.
    const MachineSpec &m = machineOrThrow("net");
    MultiProgram prog = randomDrf0Program(workload(3));
    SystemConfig cfg1 = m.config(PolicyKind::Def1, 101);
    SystemConfig cfg2 = m.config(PolicyKind::Def1, 202);

    System sys(prog, cfg1);
    sys.run();
    sys.reset(cfg2);
    sys.loadProgram(prog);
    std::string reused = snapshot(sys, sys.run());
    EXPECT_EQ(reused, freshRun(prog, cfg2));

    // And back again: no residue from the second seed either.
    sys.reset(cfg1);
    sys.loadProgram(prog);
    std::string again = snapshot(sys, sys.run());
    EXPECT_EQ(again, freshRun(prog, cfg1));
}

TEST(SystemLifecycle, LoadProgramSwapMatchesFreshConstruction)
{
    // Same topology, different program — the pool's common case when a
    // worker moves to the next litmus test in the same machine/policy
    // cell.
    const MachineSpec &m = machineOrThrow("bus");
    SystemConfig cfg = m.config(PolicyKind::Sc, 1);
    MultiProgram a = randomDrf0Program(workload(1));
    MultiProgram b = randomDrf0Program(workload(2));

    System sys(a, cfg);
    sys.run();
    sys.reset(cfg);
    sys.loadProgram(b);
    EXPECT_EQ(snapshot(sys, sys.run()), freshRun(b, cfg));
}

TEST(SystemLifecycle, WarmCachesAreReplayedByLoadProgram)
{
    // The "net" machine pre-loads every touched line Shared; reset must
    // rebuild that steady state for the next program, not leak the old
    // program's lines.
    const MachineSpec &m = machineOrThrow("net");
    ASSERT_TRUE(m.config().warmCaches);
    SystemConfig cfg = m.config(PolicyKind::Def2Drf0, 5);
    MultiProgram a = randomDrf0Program(workload(10));
    MultiProgram b = randomDrf0Program(workload(30));

    System sys(a, cfg);
    sys.run();
    sys.reset(cfg);
    sys.loadProgram(b);
    EXPECT_EQ(snapshot(sys, sys.run()), freshRun(b, cfg));
}

TEST(SystemLifecycle, RunWithoutLoadProgramThrows)
{
    const MachineSpec &m = machineOrThrow("bus");
    SystemConfig cfg = m.config(PolicyKind::Sc, 1);
    MultiProgram prog = randomDrf0Program(workload(4));
    System sys(prog, cfg);
    sys.reset(cfg);
    EXPECT_THROW(sys.run(), std::logic_error);
    sys.loadProgram(prog);
    EXPECT_TRUE(sys.run());
}

TEST(SystemLifecycle, IncompatibleResetThrows)
{
    MultiProgram prog = randomDrf0Program(workload(4));
    SystemConfig bus = machineOrThrow("bus").config(PolicyKind::Sc, 1);
    SystemConfig net = machineOrThrow("net").config(PolicyKind::Sc, 1);
    System sys(prog, bus);
    EXPECT_THROW(sys.reset(net), std::invalid_argument);
    EXPECT_FALSE(sys.compatibleWith(prog, net));

    // Policy changes rebuild too (caches are built for one policy).
    SystemConfig bus2 = machineOrThrow("bus").config(PolicyKind::Def1, 1);
    EXPECT_THROW(sys.reset(bus2), std::invalid_argument);

    // But seed / tick-limit changes are the compatible kind.
    SystemConfig bus3 = bus;
    bus3.net.seed = 999;
    bus3.maxTicks = bus.maxTicks * 2;
    EXPECT_TRUE(sys.compatibleWith(prog, bus3));
    EXPECT_NO_THROW(sys.reset(bus3));
    sys.loadProgram(prog);
    EXPECT_TRUE(sys.run());
}

TEST(SystemLifecycle, EveryStructuralFieldBreaksCompatibility)
{
    using Flip = std::pair<const char *, std::function<void(SystemConfig &)>>;
    const std::vector<Flip> structural = {
        {"cached", [](SystemConfig &c) { c.cached = !c.cached; }},
        {"interconnect",
         [](SystemConfig &c) {
             c.interconnect = c.interconnect == InterconnectKind::Bus
                                  ? InterconnectKind::Network
                                  : InterconnectKind::Bus;
         }},
        {"policy", [](SystemConfig &c) { c.policy = PolicyKind::Def1; }},
        {"protocol", [](SystemConfig &c) { c.protocol = ProtocolKind::Mesi; }},
        {"cacheLevels", [](SystemConfig &c) { ++c.cacheLevels; }},
        {"writeBuffer",
         [](SystemConfig &c) { c.writeBuffer = !c.writeBuffer; }},
        {"numMemModules", [](SystemConfig &c) { ++c.numMemModules; }},
        {"numDirs", [](SystemConfig &c) { ++c.numDirs; }},
        {"bus.latency", [](SystemConfig &c) { ++c.bus.latency; }},
        {"bus.occupancy", [](SystemConfig &c) { ++c.bus.occupancy; }},
        {"net.base", [](SystemConfig &c) { ++c.net.base; }},
        {"net.jitter", [](SystemConfig &c) { ++c.net.jitter; }},
        {"cache.numSets", [](SystemConfig &c) { ++c.cache.numSets; }},
        {"cache.ways", [](SystemConfig &c) { ++c.cache.ways; }},
        {"cache.invApplyDelay",
         [](SystemConfig &c) { ++c.cache.invApplyDelay; }},
        {"cache.maxMissesWhileReserved",
         [](SystemConfig &c) { ++c.cache.maxMissesWhileReserved; }},
        {"cache.epochReserveClearing",
         [](SystemConfig &c) {
             c.cache.epochReserveClearing = !c.cache.epochReserveClearing;
         }},
        {"l2.numSets", [](SystemConfig &c) { ++c.l2.numSets; }},
        {"l2.ways", [](SystemConfig &c) { ++c.l2.ways; }},
        {"proc.wbDrainDelay", [](SystemConfig &c) { ++c.proc.wbDrainDelay; }},
        {"warmCaches", [](SystemConfig &c) { c.warmCaches = !c.warmCaches; }},
    };
    TraceBuffer sink;
    CoverageMap cov;
    const std::vector<Flip> runVarying = {
        {"net.seed", [](SystemConfig &c) { c.net.seed += 7; }},
        {"maxTicks", [](SystemConfig &c) { c.maxTicks *= 2; }},
        {"traceSink", [&](SystemConfig &c) { c.traceSink = &sink; }},
        {"coverage", [&](SystemConfig &c) { c.coverage = &cov; }},
    };

    MultiProgram prog = randomDrf0Program(workload(4));
    SystemConfig base = machineOrThrow("bus").config(PolicyKind::Sc, 1);
    // The enum flips below move Sc/Msi to another value.
    ASSERT_EQ(base.policy, PolicyKind::Sc);
    ASSERT_EQ(base.protocol, ProtocolKind::Msi);
    System sys(prog, base);
    ASSERT_TRUE(sys.compatibleWith(prog, base));
    for (const auto &[field, flip] : structural) {
        SystemConfig cfg = base;
        flip(cfg);
        EXPECT_FALSE(sys.compatibleWith(prog, cfg)) << field;
    }
    SystemConfig all = base;
    for (const auto &[field, flip] : runVarying) {
        SystemConfig cfg = base;
        flip(cfg);
        flip(all);
        EXPECT_TRUE(sys.compatibleWith(prog, cfg)) << field;
    }
    EXPECT_TRUE(sys.compatibleWith(prog, all));
}

TEST(SystemLifecycle, ProcessorCountMismatchThrows)
{
    MultiProgram two = randomDrf0Program(workload(4, 2));
    MultiProgram four = randomDrf0Program(workload(4, 4));
    SystemConfig cfg = machineOrThrow("bus").config(PolicyKind::Sc, 1);
    System sys(two, cfg);
    sys.reset(cfg);
    EXPECT_THROW(sys.loadProgram(four), std::invalid_argument);
    EXPECT_FALSE(sys.compatibleWith(four, cfg));
    // The failed load leaves the system unloaded, not half-loaded.
    EXPECT_THROW(sys.run(), std::logic_error);
    sys.loadProgram(two);
    EXPECT_TRUE(sys.run());
}

TEST(SystemPool, ReusesCompatibleAndRebuildsIncompatible)
{
    SystemPool pool;
    MultiProgram prog = randomDrf0Program(workload(4));
    SystemConfig sc = machineOrThrow("bus").config(PolicyKind::Sc, 1);
    SystemConfig def1 = machineOrThrow("bus").config(PolicyKind::Def1, 1);

    System &a = pool.acquire("bus/SC", prog, sc);
    EXPECT_TRUE(a.run());
    EXPECT_EQ(pool.builds(), 1u);
    EXPECT_EQ(pool.reuses(), 0u);

    // Same key, compatible config: the same instance comes back reset.
    sc.net.seed = 42;
    System &b = pool.acquire("bus/SC", prog, sc);
    EXPECT_EQ(&a, &b);
    EXPECT_TRUE(b.run());
    EXPECT_EQ(pool.reuses(), 1u);

    // Different cell key: a second instance.
    System &c = pool.acquire("bus/WO-Def1", prog, def1);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(pool.builds(), 2u);

    // Same key but incompatible config (policy changed under the key —
    // a caller bug, but the pool must still produce a correct System).
    System &d = pool.acquire("bus/SC", prog, def1);
    EXPECT_TRUE(d.run());
    EXPECT_EQ(pool.builds(), 3u);
    EXPECT_EQ(pool.reuses(), 1u);

    pool.clear();
    EXPECT_EQ(pool.builds(), 0u);
    EXPECT_EQ(pool.reuses(), 0u);
}

TEST(SystemPool, PooledRunsMatchFreshRunsAcrossManyRandomPrograms)
{
    // Fuzz the reuse path: >=100 random programs (DRF0-disciplined and
    // racy alternating) replayed through pooled instances, each checked
    // against a fresh construction.
    SystemPool pool;
    int checked = 0;
    for (const char *machine : {"bus", "net", "net-u"}) {
        const MachineSpec &m = machineOrThrow(machine);
        std::vector<PolicyKind> policies =
            m.cached ? std::vector<PolicyKind>{PolicyKind::Sc,
                                               PolicyKind::Def2Drf0}
                     : std::vector<PolicyKind>{PolicyKind::Sc,
                                               PolicyKind::Def1};
        for (PolicyKind pk : policies) {
            for (int i = 0; i < 18; ++i) {
                RandomWorkloadConfig w = workload(1000 + i, 2);
                MultiProgram prog = (i % 2 == 0)
                                        ? randomDrf0Program(w)
                                        : randomRacyProgram(w, 1);
                SystemConfig cfg =
                    m.config(pk, campaignJobSeed(99, i));
                System &sys = pool.acquire(
                    m.name + "/" + toString(pk), prog, cfg);
                std::string pooled = snapshot(sys, sys.run());
                ASSERT_EQ(pooled, freshRun(prog, cfg))
                    << machine << "/" << toString(pk) << " program " << i;
                ++checked;
            }
        }
    }
    EXPECT_GE(checked, 100);
    EXPECT_EQ(pool.builds(), 6u); // one per (machine, policy) cell
    EXPECT_EQ(pool.reuses(), static_cast<std::uint64_t>(checked - 6));
}

#ifdef WO_LITMUS_DIR

/** The corpus report (text + JSON + merged stats) as one string. */
std::string
corpusBytes(const std::vector<litmus_dsl::CompiledLitmus> &tests,
            const litmus_dsl::RunnerOptions &options)
{
    litmus_dsl::CorpusReport report = litmus_dsl::runCorpus(tests, options);
    std::ostringstream oss;
    litmus_dsl::printReport(oss, report);
    litmus_dsl::writeJsonReport(oss, report);
    report.stats.dump(oss);
    return oss.str();
}

TEST(SystemPool, CorpusReportsIdenticalAcrossThreadCounts)
{
    // The shipped litmus corpus through runCorpus, which serves every
    // job from its worker's SystemPool: at 1 and 4 workers each job
    // resets a System last used by a different job (or builds one), so
    // the report strings (verdicts, histograms, JSON, merged stats) are
    // byte-identical only if every reset replays like a fresh System.
    std::vector<litmus_dsl::CompiledLitmus> tests;
    for (const std::string &f :
         litmus_dsl::findLitmusFiles({WO_LITMUS_DIR}))
        tests.push_back(litmus_dsl::compileLitmusFile(f));
    ASSERT_GE(tests.size(), 15u);

    litmus_dsl::RunnerOptions options;
    options.seeds = 3; // keep the test-suite fast
    options.threads = 1;
    const std::string golden = corpusBytes(tests, options);
    options.threads = 4;
    EXPECT_EQ(corpusBytes(tests, options), golden);
}

#endif // WO_LITMUS_DIR

} // namespace
} // namespace wo
