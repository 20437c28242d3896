/**
 * @file
 * Race-detection benchmark: the streaming vector-clock checker against
 * the historical dense-bitset happens-before closure.
 *
 *   $ race_detect [--quick] [--json=FILE] [--corpus=DIR] [--no-corpus]
 *
 * Three sections, each printed as a table and recorded in a StatSet that
 * is dumped as JSON (to --json=FILE, else BENCH_race_detect.json on a
 * full run):
 *
 *  1. per-trace checking on synthetic traces of 100..10k accesses,
 *     race-free and racy, the checkTraceBitset() oracle (tests/oracle)
 *     vs checkTrace() — the O(n^2/64) -> O(n*P) comparison;
 *  2. the sampled program check, online early-exit vs an offline
 *     reference that runs every schedule to completion and race-checks
 *     the full trace with the bitset oracle;
 *  3. checkProgramSampled() on the perfbench contract_random program
 *     shape (32 lock-disciplined programs of 4 processors, 6 spin-lock
 *     sections each, 200 schedules per program): executions, steps,
 *     accesses, and the cost per idealized-machine step;
 *  4. one pass of sampled DRF0 checks over the litmus corpus, through
 *     the runner's Drf0Memo vs checkProgramSampled() directly.
 *
 * All timings are best-of-N std::chrono::steady_clock measurements.
 * --quick shrinks repetitions and corpus seeds for CI smoke runs and
 * writes JSON only when given --json; the measured shape (and the JSON
 * schema) is identical. The JSON carries
 * the bench_util provenance envelope (commit, build type, machine,
 * quick, reps).
 */

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/drf0_checker.hh"
#include "core/idealized.hh"
#include "core/race_detector.hh"
#include "litmus/compiler.hh"
#include "litmus/runner.hh"
#include "oracle/happens_before.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "workload/campaign.hh"
#include "workload/random_gen.hh"

namespace {

using namespace wo;

/** Best-of-@p reps wall time of @p fn, in nanoseconds. */
template <class F>
std::uint64_t
bestNs(int reps, F &&fn)
{
    std::uint64_t best = ~std::uint64_t(0);
    for (int i = 0; i < reps; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t1 - t0)
                      .count();
        best = std::min(best, static_cast<std::uint64_t>(ns));
    }
    return best;
}

/** Same synthetic shape as fig2_drf0_check: 4th access is a sync RMW on
 * one global lock; data accesses go to shared locations (racy) or a
 * per-processor private one (race-free). */
ExecutionTrace
syntheticTrace(int procs, int per_proc, bool racy, std::uint64_t seed)
{
    Rng rng(seed);
    ExecutionTrace t;
    t.reserve(procs * per_proc);
    Tick now = 0;
    for (int p = 0; p < procs; ++p) {
        for (int i = 0; i < per_proc; ++i) {
            Access a;
            a.proc = p;
            a.poIndex = i;
            bool sync = (i % 4 == 3);
            if (sync) {
                a.kind = AccessKind::SyncRmw;
                a.addr = 1000;
            } else {
                a.kind = rng.chance(1, 2) ? AccessKind::DataWrite
                                          : AccessKind::DataRead;
                a.addr = racy ? static_cast<Addr>(rng.below(8))
                              : static_cast<Addr>(100 + p);
            }
            a.commitTick = now++;
            a.gpTick = a.commitTick;
            t.add(a);
        }
    }
    return t;
}

std::string
fmtNs(std::uint64_t ns)
{
    std::ostringstream oss;
    if (ns >= 10000000)
        oss << ns / 1000000 << " ms";
    else if (ns >= 10000)
        oss << ns / 1000 << " us";
    else
        oss << ns << " ns";
    return oss.str();
}

std::string
fmtSpeedup(std::uint64_t milli)
{
    std::ostringstream oss;
    oss << milli / 1000 << "." << (milli % 1000) / 100 << "x";
    return oss.str();
}

void
benchTraceChecks(StatSet &stats, bool quick)
{
    benchutil::banner(
        "Per-trace race check: bitset closure vs vector clocks");
    const int procs = 4;
    const int reps = quick ? 3 : 7;
    benchutil::Table table(
        {"accesses", "variant", "bitset", "vclock", "speedup"});
    for (int n : {100, 500, 1000, 2000, 5000, 10000}) {
        for (bool racy : {false, true}) {
            ExecutionTrace t =
                syntheticTrace(procs, n / procs, racy, 42);
            // Prime caches and sanity-check agreement outside timing.
            Drf0TraceReport vc = checkTrace(t);
            Drf0TraceReport bs = checkTraceBitset(t);
            if (vc.raceFree != bs.raceFree || vc.races != bs.races) {
                std::cerr << "BUG: checkers disagree at n=" << n << "\n";
                std::exit(1);
            }
            std::uint64_t bitset_ns = bestNs(reps, [&] {
                Drf0TraceReport r = checkTraceBitset(t);
                if (r.raceFree != bs.raceFree)
                    std::exit(1);
            });
            std::uint64_t vc_ns = bestNs(reps, [&] {
                Drf0TraceReport r = checkTrace(t);
                if (r.raceFree != bs.raceFree)
                    std::exit(1);
            });
            std::uint64_t speedup_milli =
                vc_ns ? bitset_ns * 1000 / vc_ns : 0;
            std::string key = std::string("trace.") +
                              (racy ? "racy" : "racefree") + ".n" +
                              std::to_string(n);
            stats.set(key + ".bitset_ns", bitset_ns);
            stats.set(key + ".vclock_ns", vc_ns);
            stats.set(key + ".speedup_milli", speedup_milli);
            table.addRow({std::to_string(n),
                          racy ? "racy" : "race-free", fmtNs(bitset_ns),
                          fmtNs(vc_ns), fmtSpeedup(speedup_milli)});
        }
    }
    table.print();
    std::cout << "\n(speedup = bitset / vclock wall time, best of "
              << reps << " runs; racy traces include race "
              << "enumeration in both checkers)\n";
}

/** The pre-vector-clock sampled check: same schedule stream, every
 * execution run to completion and bitset-checked offline. */
Drf0ProgramReport
offlineSampled(const MultiProgram &program, int num_schedules,
               std::uint64_t seed, int max_steps = 10000)
{
    Drf0ProgramReport report;
    report.bounded = true;
    Rng rng(seed);
    int nprocs = program.numProcs();
    for (int s = 0; s < num_schedules && report.obeysDrf0; ++s) {
        IdealizedMachine m(program);
        int steps = 0;
        while (!m.allHalted() && steps < max_steps) {
            ProcId p = static_cast<ProcId>(rng.below(nprocs));
            while (m.halted(p))
                p = (p + 1) % nprocs;
            m.step(p);
            ++steps;
        }
        ++report.executions;
        Drf0TraceReport tr = checkTraceBitset(m.trace());
        if (!tr.raceFree) {
            report.obeysDrf0 = false;
            report.witness = m.trace();
            report.witnessReport = tr;
        }
    }
    return report;
}

void
benchSampledCheck(StatSet &stats, bool quick)
{
    benchutil::banner(
        "Sampled program check: online early-exit vs offline");
    const int schedules = quick ? 60 : 200;
    const int reps = quick ? 2 : 5;
    RandomWorkloadConfig cfg;
    cfg.numProcs = 3;
    cfg.numLocks = 2;
    cfg.locsPerLock = 3;
    cfg.privateLocs = 2;
    cfg.sectionsPerProc = 3;
    cfg.opsPerSection = 3;
    cfg.privateOpsBetween = 2;
    cfg.spinAcquire = true;
    cfg.seed = 11;

    benchutil::Table table(
        {"program", "schedules", "offline", "online", "speedup"});
    struct Case
    {
        const char *label;
        MultiProgram program;
    };
    std::vector<Case> cases;
    cases.push_back({"drf0-spinlock", randomDrf0Program(cfg)});
    cases.push_back({"racy-unguarded", randomRacyProgram(cfg, 2)});
    for (Case &c : cases) {
        Drf0ProgramReport on = checkProgramSampled(c.program, schedules, 9);
        Drf0ProgramReport off = offlineSampled(c.program, schedules, 9);
        if (on.obeysDrf0 != off.obeysDrf0 ||
            on.executions != off.executions) {
            std::cerr << "BUG: sampled checkers disagree on " << c.label
                      << "\n";
            std::exit(1);
        }
        std::uint64_t off_ns = bestNs(reps, [&] {
            Drf0ProgramReport r = offlineSampled(c.program, schedules, 9);
            if (r.obeysDrf0 != off.obeysDrf0)
                std::exit(1);
        });
        std::uint64_t on_ns = bestNs(reps, [&] {
            Drf0ProgramReport r =
                checkProgramSampled(c.program, schedules, 9);
            if (r.obeysDrf0 != off.obeysDrf0)
                std::exit(1);
        });
        std::uint64_t speedup_milli = on_ns ? off_ns * 1000 / on_ns : 0;
        std::string key = std::string("sampled.") + c.label;
        stats.set(key + ".offline_ns", off_ns);
        stats.set(key + ".online_ns", on_ns);
        stats.set(key + ".speedup_milli", speedup_milli);
        stats.set(key + ".executions", on.executions);
        table.addRow({c.label, std::to_string(schedules), fmtNs(off_ns),
                      fmtNs(on_ns), fmtSpeedup(speedup_milli)});
    }
    table.print();
    std::cout << "\n(verdicts, execution counts and witnesses are "
                 "checked identical before timing)\n";
}

void
benchContractShape(StatSet &stats, bool quick)
{
    benchutil::banner("Sampled DRF0 on the contract_random program shape");
    const int programs = 32;
    const int schedules = 200;
    const std::uint64_t seed = 1;
    const int reps = quick ? 1 : 5;
    std::vector<MultiProgram> progs;
    for (int i = 0; i < programs; ++i) {
        RandomWorkloadConfig cfg;
        cfg.numProcs = 4;
        cfg.numLocks = 2;
        cfg.locsPerLock = 3;
        cfg.privateLocs = 2;
        cfg.sectionsPerProc = 6;
        cfg.opsPerSection = 3;
        cfg.privateOpsBetween = 2;
        cfg.spinAcquire = true;
        cfg.seed = campaignJobSeed(1, i);
        progs.push_back(randomDrf0Program(cfg));
    }

    // Count the work outside timing: the programs obey DRF0, so every
    // schedule runs to completion, and replaying checkProgramSampled's
    // processor draws reproduces its executions step for step.
    std::uint64_t executions = 0, steps = 0, accesses = 0;
    for (const MultiProgram &mp : progs) {
        Drf0ProgramReport r = checkProgramSampled(mp, schedules, seed);
        if (!r.obeysDrf0 || r.executions != schedules) {
            std::cerr << "BUG: contract-shape program " << mp.name()
                      << " did not sample " << schedules
                      << " race-free executions\n";
            std::exit(1);
        }
        executions += r.executions;
        Rng rng(seed);
        IdealizedMachine m(mp);
        const int nprocs = mp.numProcs();
        for (int s = 0; s < schedules; ++s) {
            m.reset();
            for (int k = 0; !m.allHalted() && k < 10000; ++k) {
                ProcId p = static_cast<ProcId>(rng.below(nprocs));
                while (m.halted(p))
                    p = (p + 1) % nprocs;
                m.step(p);
            }
            steps += m.steps();
            accesses += static_cast<std::uint64_t>(m.trace().size());
        }
    }

    std::uint64_t ns = bestNs(reps, [&] {
        for (const MultiProgram &mp : progs) {
            if (!checkProgramSampled(mp, schedules, seed).obeysDrf0)
                std::exit(1);
        }
    });
    const std::uint64_t ps_per_step = steps ? ns * 1000 / steps : 0;
    stats.set("contract.programs", static_cast<std::uint64_t>(programs));
    stats.set("contract.schedules", static_cast<std::uint64_t>(schedules));
    stats.set("contract.executions", executions);
    stats.set("contract.steps", steps);
    stats.set("contract.accesses", accesses);
    stats.set("contract.sampled_ns", ns);
    stats.set("contract.ps_per_step", ps_per_step);
    benchutil::Table table({"programs", "executions", "steps", "accesses",
                            "wall", "ns/step"});
    std::ostringstream per_step;
    per_step << ps_per_step / 1000 << "." << (ps_per_step % 1000) / 100;
    table.addRow({std::to_string(programs), std::to_string(executions),
                  std::to_string(steps), std::to_string(accesses),
                  fmtNs(ns), per_step.str()});
    table.print();
    std::cout << "\n(" << programs << " programs x " << schedules
              << " schedules, seed " << seed << ", best of " << reps
              << " passes; every execution checked race-free first)\n";
}

void
benchCorpus(StatSet &stats, const std::string &dir, bool quick)
{
    benchutil::banner(
        "Corpus sampled DRF0 check: Drf0Memo vs direct (one pass)");
    std::vector<litmus_dsl::CompiledLitmus> tests;
    for (const std::string &f : litmus_dsl::findLitmusFiles({dir}))
        tests.push_back(litmus_dsl::compileLitmusFile(f));
    const int schedules = quick ? 50 : 200;
    const int reps = quick ? 2 : 5;

    // One pass over the corpus the way runCorpus checks it: a fresh memo
    // per pass, so only duplicate program bodies within the corpus hit.
    auto memoPass = [&] {
        Drf0Memo memo;
        std::size_t drf0 = 0;
        for (const litmus_dsl::CompiledLitmus &t : tests)
            drf0 += memo.check(t.program, schedules, 1).obeysDrf0;
        return drf0;
    };
    auto directPass = [&] {
        std::size_t drf0 = 0;
        for (const litmus_dsl::CompiledLitmus &t : tests)
            drf0 += checkProgramSampled(t.program, schedules, 1).obeysDrf0;
        return drf0;
    };
    if (memoPass() != directPass()) {
        std::cerr << "BUG: memoized and direct corpus verdicts differ\n";
        std::exit(1);
    }
    std::uint64_t memo_ns = bestNs(reps, [&] { memoPass(); });
    std::uint64_t nomemo_ns = bestNs(reps, [&] { directPass(); });
    stats.set("corpus.tests", tests.size());
    stats.set("corpus.schedules", static_cast<std::uint64_t>(schedules));
    stats.set("corpus.memo_ns", memo_ns);
    stats.set("corpus.nomemo_ns", nomemo_ns);
    benchutil::Table table({"config", "wall"});
    table.addRow({"Drf0Memo::check", fmtNs(memo_ns)});
    table.addRow({"checkProgramSampled", fmtNs(nomemo_ns)});
    table.print();
    std::cout << "\n(" << tests.size() << " tests, " << schedules
              << " schedules each, best of " << reps
              << " passes; verdicts checked identical first)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool corpus = true;
    std::string json_file;
    std::string corpus_dir = "tests/litmus";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_file = arg.substr(7);
        } else if (arg.rfind("--corpus=", 0) == 0) {
            corpus_dir = arg.substr(9);
        } else if (arg == "--no-corpus") {
            corpus = false;
        } else {
            std::cerr << "usage: race_detect [--quick] [--json=FILE] "
                         "[--corpus=DIR] [--no-corpus]\n";
            return 2;
        }
    }

    StatSet stats;
    benchTraceChecks(stats, quick);
    benchSampledCheck(stats, quick);
    benchContractShape(stats, quick);
    if (corpus && std::filesystem::is_directory(corpus_dir)) {
        benchCorpus(stats, corpus_dir, quick);
    } else if (corpus) {
        std::cout << "\n(corpus section skipped: no directory "
                  << corpus_dir << ")\n";
    }

    json_file = benchutil::recordFile(json_file, "race_detect", quick);
    if (json_file.empty())
        return 0;
    // reps: the per-trace section's best-of count; the other sections
    // print their own.
    return benchutil::dumpEnvelopeJson(stats, json_file, "race_detect",
                                       quick, quick ? 3 : 7)
               ? 0
               : 2;
}
