/**
 * @file
 * Infrastructure ablation: cost of the formal machinery — the SC
 * verifier's backtracking search and brute-force enumeration of the
 * idealized architecture's interleavings (the tests/oracle/ oracle) —
 * as workloads grow, plus the parallel campaign engine fanning whole
 * verifications across hardware threads.
 *
 *   $ ./checker_scaling [--threads=N] [--machines=LIST] [--quick]
 *                       [--json=FILE]
 *
 * N defaults to WO_THREADS / hw. The "verifySc vs searchSc" table times
 * both SC entry points per job on the same executions; --json writes it
 * (medians and IQRs over the repetitions, with a provenance envelope) —
 * BENCH_checker_scaling.json is `--json=BENCH_checker_scaling.json
 * --benchmark_filter=NOMATCH` run from the repository root. --quick
 * shrinks that table's sizes, seeds and repetitions for CI smoke runs.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench_util.hh"
#include "core/sc_verifier.hh"
#include "cpu/program_builder.hh"
#include "oracle/interleavings.hh"
#include "system/system.hh"
#include "workload/campaign.hh"
#include "workload/random_gen.hh"

namespace {

using namespace wo;

wo::benchutil::BenchOptions g_opts; // resolved in main() from --threads/--seed

/** Machine the traced executions run on (first --machines entry). */
const MachineSpec *g_machine = nullptr;

ExecutionTrace
traceFor(int sections, std::uint64_t seed)
{
    RandomWorkloadConfig w;
    w.numProcs = 4;
    w.numLocks = 2;
    w.locsPerLock = 3;
    w.sectionsPerProc = sections;
    w.opsPerSection = 3;
    w.seed = seed;
    MultiProgram mp = randomDrf0Program(w);
    SystemConfig cfg = g_machine->config(PolicyKind::Def2Drf0, seed);
    System sys(mp, cfg);
    sys.run();
    return sys.trace();
}

/**
 * Campaign table: verify many executions concurrently (the common
 * "check a whole sweep" workload). The verdict/state columns come from
 * the serial per-job verifier, so they are identical at every thread
 * count; only the wall time changes.
 */
void
printCampaignTable()
{
    const int sizes = 6, seedsPer = 4;
    const int jobs = sizes * seedsPer;
    Campaign campaign({g_opts.threads, g_opts.baseSeed});
    benchutil::banner(
        "Verification campaign: " + std::to_string(jobs) +
        " executions (6 sizes x 4 seeds), " +
        std::to_string(campaign.numThreads()) + " thread(s)");

    struct JobResult
    {
        int accesses = 0;
        std::uint64_t states = 0;
        bool sc = false;
        bool certified = false; ///< decided by the observed-order replay
    };
    auto runJob = [&](const CampaignJob &job) {
        int sections = job.index / seedsPer + 1;
        std::uint64_t seed = 11 + job.index % seedsPer;
        ExecutionTrace t = traceFor(sections, seed);
        ScReport r = verifySc(t);
        JobResult res;
        res.accesses = t.size();
        res.states = r.statesExplored;
        res.sc = r.sc();
        res.certified = r.decidedBy == ScPath::ObservedOrder;
        return res;
    };

    auto t0 = std::chrono::steady_clock::now();
    std::vector<JobResult> results =
        campaign.map<JobResult>(jobs, runJob);
    auto t1 = std::chrono::steady_clock::now();

    benchutil::Table t({"sections/proc", "appear SC", "observed order",
                        "avg accesses", "total search states"});
    for (int s = 0; s < sizes; ++s) {
        int sc = 0, certified = 0, acc = 0;
        std::uint64_t states = 0;
        for (int k = 0; k < seedsPer; ++k) {
            const JobResult &r =
                results[static_cast<std::size_t>(s * seedsPer + k)];
            sc += r.sc ? 1 : 0;
            certified += r.certified ? 1 : 0;
            acc += r.accesses;
            states += r.states;
        }
        t.addRow({std::to_string(s + 1),
                  std::to_string(sc) + "/" + std::to_string(seedsPer),
                  std::to_string(certified) + "/" +
                      std::to_string(seedsPer),
                  std::to_string(acc / seedsPer),
                  std::to_string(states)});
    }
    t.print();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    std::cout << "\nCampaign wall time: " << ms << " ms ("
              << campaign.numThreads()
              << " threads; table bytes are thread-count independent)\n";
}

/**
 * verifySc (observed-order replay, search only when it gets stuck)
 * against searchSc (the search alone) on the same executions: random
 * DRF0 programs of 4 processors and 2 locks, run on every selected
 * machine (default: the whole registry) under the policies that promise
 * SC to DRF0 software (SC, Def1, Def2-DRF0) — the shape of the
 * perfbench contract_random workload. Each repetition times both
 * entry points over every trace of a size, alternating which goes
 * first; the table shows per-job medians over repetitions.
 */
/** Per-job spread of @p totalNs (one whole-set time per repetition over
 * @p jobs traces), recorded as KEY.median / KEY.iqr in ns. */
benchutil::Spread
perJobSpread(StatSet &stats, const std::string &key,
             std::vector<double> totalNs, std::size_t jobs)
{
    for (double &t : totalNs)
        t /= static_cast<double>(jobs);
    benchutil::Spread sp = benchutil::spreadOf(totalNs);
    stats.set(key + ".median", static_cast<std::uint64_t>(sp.median));
    stats.set(key + ".iqr", static_cast<std::uint64_t>(sp.iqr));
    return sp;
}

void
printReplayVsSearchTable(StatSet &stats, int reps)
{
    const std::vector<int> sizes =
        g_opts.quick ? std::vector<int>{2, 6}
                     : std::vector<int>{1, 2, 3, 4, 5, 6};
    const int seedsPer = g_opts.quick ? 1 : 4;
    std::vector<const MachineSpec *> machines = g_opts.machines;
    if (machines.empty()) {
        for (const MachineSpec &m : machineRegistry())
            machines.push_back(&m);
    }
    const PolicyKind policies[] = {PolicyKind::Sc, PolicyKind::Def1,
                                   PolicyKind::Def2Drf0};
    benchutil::banner("verifySc vs searchSc: per-job SC-check time, " +
                      std::to_string(machines.size()) +
                      " machines x SC/Def1/Def2-DRF0, " +
                      std::to_string(reps) + " reps");

    auto us = [](double ns) {
        std::ostringstream o;
        o << std::fixed << std::setprecision(1) << ns / 1000.0;
        return o.str();
    };
    benchutil::Table table({"sections/proc", "traces", "avg accesses",
                            "certified", "searched", "verifySc us/job",
                            "searchSc us/job", "speedup"});
    const std::size_t nreps = static_cast<std::size_t>(reps);
    std::vector<double> allVerifyNs(nreps, 0.0), allSearchNs(nreps, 0.0);
    for (int sections : sizes) {
        std::vector<ExecutionTrace> traces;
        for (int k = 0; k < seedsPer; ++k) {
            RandomWorkloadConfig w;
            w.numProcs = 4;
            w.numLocks = 2;
            w.locsPerLock = 3;
            w.sectionsPerProc = sections;
            w.opsPerSection = 3;
            w.seed = 11 + static_cast<std::uint64_t>(k);
            MultiProgram mp = randomDrf0Program(w);
            for (const MachineSpec *m : machines) {
                for (PolicyKind policy : policies) {
                    try {
                        System sys(mp, m->config(policy, w.seed));
                        if (sys.run())
                            traces.push_back(sys.trace());
                    } catch (const std::invalid_argument &) {
                        // This machine cannot run the policy.
                    }
                }
            }
        }
        const std::string key = "checker.s" + std::to_string(sections);
        std::uint64_t accesses = 0, certified = 0;
        for (const ExecutionTrace &t : traces) {
            accesses += static_cast<std::uint64_t>(t.size());
            ScReport v = verifySc(t);
            certified += v.decidedBy == ScPath::ObservedOrder ? 1 : 0;
            stats.inc(key + ".verify_states", v.statesExplored);
            stats.inc(key + ".search_states", searchSc(t).statesExplored);
        }

        // Whole-set time of one entry point, in ns.
        auto timeAll = [&](ScReport (*check)(const ExecutionTrace &,
                                             const ScVerifierLimits &)) {
            auto t0 = std::chrono::steady_clock::now();
            for (const ExecutionTrace &t : traces)
                benchmark::DoNotOptimize(check(t, {}).verdict);
            return std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - t0)
                .count();
        };
        std::vector<double> verifyNs(nreps), searchNs(nreps);
        for (std::size_t r = 0; r < nreps; ++r) {
            if (r % 2 == 0) {
                verifyNs[r] = timeAll(verifySc);
                searchNs[r] = timeAll(searchSc);
            } else {
                searchNs[r] = timeAll(searchSc);
                verifyNs[r] = timeAll(verifySc);
            }
            allVerifyNs[r] += verifyNs[r];
            allSearchNs[r] += searchNs[r];
        }
        benchutil::Spread v = perJobSpread(stats, key + ".verify_ns_per_job",
                                           verifyNs, traces.size());
        benchutil::Spread sr = perJobSpread(
            stats, key + ".search_ns_per_job", searchNs, traces.size());
        std::ostringstream speedup;
        speedup << std::fixed << std::setprecision(1)
                << sr.median / v.median << "x";
        table.addRow({std::to_string(sections),
                      std::to_string(traces.size()),
                      std::to_string(accesses / traces.size()),
                      std::to_string(certified),
                      std::to_string(traces.size() - certified),
                      us(v.median) + " (IQR " + us(v.iqr) + ")",
                      us(sr.median) + " (IQR " + us(sr.iqr) + ")",
                      speedup.str()});
        stats.set(key + ".traces", traces.size());
        stats.set(key + ".accesses", accesses);
        stats.set(key + ".certified", certified);
        stats.set(key + ".searched", traces.size() - certified);
        stats.inc("checker.all.traces", traces.size());
        stats.inc("checker.all.certified", certified);
        stats.inc("checker.all.searched", traces.size() - certified);
    }
    table.print();
    const std::size_t allTraces = stats.get("checker.all.traces");
    benchutil::Spread v = perJobSpread(
        stats, "checker.all.verify_ns_per_job", allVerifyNs, allTraces);
    benchutil::Spread sr = perJobSpread(
        stats, "checker.all.search_ns_per_job", allSearchNs, allTraces);
    std::cout << "\nAll sizes: verifySc " << us(v.median)
              << " us/job, searchSc " << us(sr.median)
              << " us/job (medians over " << reps << " reps); "
              << stats.get("checker.all.certified") << "/" << allTraces
              << " certified by the observed order\n";
}

void
BM_ScVerifier(benchmark::State &state)
{
    ExecutionTrace t = traceFor(static_cast<int>(state.range(0)), 11);
    std::uint64_t states = 0;
    for (auto _ : state) {
        ScReport r = verifySc(t);
        states = r.statesExplored;
        benchmark::DoNotOptimize(r.verdict);
    }
    state.counters["trace_accesses"] =
        benchmark::Counter(static_cast<double>(t.size()));
    state.counters["search_states"] =
        benchmark::Counter(static_cast<double>(states));
}
BENCHMARK(BM_ScVerifier)->DenseRange(1, 6);

void
BM_VerifyCampaign(benchmark::State &state)
{
    // Throughput of whole-verification fan-out: 8 medium traces per
    // iteration through the campaign engine.
    std::vector<ExecutionTrace> traces;
    for (std::uint64_t s = 11; s < 19; ++s)
        traces.push_back(traceFor(4, s));
    Campaign campaign({g_opts.threads, g_opts.baseSeed});
    for (auto _ : state) {
        std::vector<int> verdicts = campaign.map<int>(
            static_cast<int>(traces.size()),
            [&](const CampaignJob &job) {
                return static_cast<int>(
                    verifySc(traces[static_cast<std::size_t>(job.index)])
                        .verdict);
            });
        benchmark::DoNotOptimize(verdicts.data());
    }
    state.counters["traces"] = benchmark::Counter(
        static_cast<double>(traces.size()), benchmark::Counter::kIsRate);
    state.SetLabel(std::to_string(campaign.numThreads()) + " threads");
}
BENCHMARK(BM_VerifyCampaign);

MultiProgram
boundedWorkload(int procs, int sections)
{
    RandomWorkloadConfig w;
    w.numProcs = procs;
    w.numLocks = 1;
    w.locsPerLock = 2;
    w.sectionsPerProc = sections;
    w.opsPerSection = 1;
    w.privateOpsBetween = 1;
    w.spinAcquire = false;
    w.seed = 5;
    return randomDrf0Program(w);
}

void
BM_OutcomeEnumeration(benchmark::State &state)
{
    MultiProgram mp =
        boundedWorkload(static_cast<int>(state.range(0)), 1);
    std::uint64_t states = 0, outcomes = 0;
    for (auto _ : state) {
        OutcomeSet s = enumerateOutcomes(mp);
        states = s.statesVisited;
        outcomes = s.outcomes.size();
        benchmark::DoNotOptimize(s.bounded);
    }
    state.counters["states"] =
        benchmark::Counter(static_cast<double>(states));
    state.counters["outcomes"] =
        benchmark::Counter(static_cast<double>(outcomes));
}
BENCHMARK(BM_OutcomeEnumeration)->DenseRange(2, 4);

void
BM_ExhaustiveInterleavings(benchmark::State &state)
{
    // Straight-line Dekker-style programs: interleavings grow
    // combinatorially with length.
    int len = static_cast<int>(state.range(0));
    MultiProgram mp("scaling");
    for (int p = 0; p < 2; ++p) {
        ProgramBuilder b;
        for (int i = 0; i < len; ++i) {
            b.store(static_cast<Addr>(p * 100 + i), i);
        }
        b.halt();
        mp.addProgram(b.build());
    }
    std::uint64_t execs = 0;
    for (auto _ : state) {
        std::uint64_t n = 0;
        forEachExecution(mp, {},
                         [&](const ExecutionTrace &, const RunResult &,
                             bool) {
                             ++n;
                             return true;
                         });
        execs = n;
        benchmark::DoNotOptimize(n);
    }
    state.counters["interleavings"] =
        benchmark::Counter(static_cast<double>(execs));
}
BENCHMARK(BM_ExhaustiveInterleavings)->DenseRange(2, 7);

void
BM_SimulatorThroughput(benchmark::State &state)
{
    // Raw simulator speed: simulated ticks per second of host time.
    std::uint64_t seed = 1;
    std::uint64_t total = 0;
    for (auto _ : state) {
        RandomWorkloadConfig w;
        w.numProcs = 8;
        w.numLocks = 4;
        w.sectionsPerProc = 6;
        w.seed = seed;
        MultiProgram mp = randomDrf0Program(w);
        SystemConfig cfg =
            machineOrThrow("net-cold").config(PolicyKind::Def2Drf1, seed++);
        System sys(mp, cfg);
        sys.run();
        total += sys.eventQueue().executed();
    }
    state.counters["events"] = benchmark::Counter(
        static_cast<double>(total), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput);

} // namespace

int
main(int argc, char **argv)
{
    g_opts = wo::benchutil::consumeBenchFlags(argc, argv);
    g_machine = wo::benchutil::machinesOr(g_opts, "net-cold").front();
    printCampaignTable();
    StatSet stats;
    const int reps = g_opts.quick ? 3 : 11;
    printReplayVsSearchTable(stats, reps);
    if (!g_opts.jsonFile.empty())
        wo::benchutil::dumpEnvelopeJson(stats, g_opts.jsonFile,
                                        "checker_scaling", g_opts.quick,
                                        reps);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
