/**
 * @file
 * Axiomatic-enumeration benchmark: pruned candidate generation vs the
 * naive writes-per-address x co-permutation baseline.
 *
 *   $ axiom_enum [--quick] [--json=FILE] [--corpus=DIR]
 *
 * For every corpus test this measures the full allowed-set computation
 * (all three models) in the default pruned mode — value-matched rf
 * sources, po/atomicity-respecting co placement, per-address coherence
 * pruning, outcome memoization — and in the naive mode, which assigns
 * rf value-blind and permutes co freely, validating only complete
 * candidates. The naive mode is capped; its considered-candidate count
 * is then a lower bound, so the reported pruning ratio is conservative.
 *
 * JSON (to --json=FILE, else BENCH_axiom_enum.json on a full run and
 * nothing on a --quick run):
 *   per test:  axiom.<test>.pruned_ns / pruned_considered /
 *              naive_ns / naive_considered / naive_capped
 *   corpus:    axiom.corpus_ns (pruned, all tests, best-of-N),
 *              axiom.candidates_per_sec,
 *              axiom.pruning_ratio_x100 (naive/pruned considered),
 *              axiom.time_ratio_x100 (naive/pruned wall)
 *
 * All timings are best-of-N std::chrono::steady_clock measurements;
 * --quick shrinks repetitions and the naive cap for CI smoke runs.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "axiom/enumerate.hh"
#include "bench_util.hh"
#include "litmus/compiler.hh"
#include "litmus/runner.hh"
#include "sim/stats.hh"

namespace {

using namespace wo;
using namespace wo::litmus_dsl;

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

std::string
fmtNs(std::uint64_t ns)
{
    char buf[32];
    if (ns >= 1000000000ull)
        std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
    else if (ns >= 1000000ull)
        std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
    else
        std::snprintf(buf, sizeof(buf), "%.1f us", ns / 1e3);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
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
        } else {
            std::cerr << "usage: axiom_enum [--quick] [--json=FILE] "
                         "[--corpus=DIR]\n";
            return 2;
        }
    }
    if (!std::filesystem::is_directory(corpus_dir)) {
        std::cerr << "axiom_enum: no corpus directory " << corpus_dir
                  << "\n";
        return 2;
    }

    std::vector<CompiledLitmus> tests;
    for (const std::string &f : findLitmusFiles({corpus_dir}))
        tests.push_back(compileLitmusFile(f));

    const int reps = quick ? 2 : 5;
    axiom::AxiomLimits pruned;
    axiom::AxiomLimits naive;
    naive.pruning = false;
    naive.maxCandidates = quick ? 200000 : 1000000;

    // The DRF0 fact only selects which relation graph drf0sc checks;
    // enumeration cost is what we measure, so a fixed value keeps the
    // bench independent of the sampled detector.
    axiom::ModelContext ctx;
    ctx.programDrf0 = false;

    StatSet stats;
    stats.set("quick", quick ? 1 : 0);
    stats.set("axiom.tests", tests.size());

    benchutil::Table table({"test", "pruned", "considered", "naive",
                            "considered", "ratio"});
    std::uint64_t pruned_total_considered = 0;
    std::uint64_t naive_total_considered = 0;
    std::uint64_t pruned_total_ns = 0;
    std::uint64_t naive_total_ns = 0;

    for (const CompiledLitmus &t : tests) {
        axiom::AxiomResult pr;
        std::uint64_t pruned_ns = bestNs(reps, [&] {
            pr = axiom::enumerateAllowed(t.program, axiom::axiomModels(),
                                         ctx, pruned);
        });
        axiom::AxiomResult nr;
        std::uint64_t naive_ns = bestNs(reps, [&] {
            nr = axiom::enumerateAllowed(t.program, axiom::axiomModels(),
                                         ctx, naive);
        });
        pruned_total_considered += pr.stats.candidatesConsidered;
        naive_total_considered += nr.stats.candidatesConsidered;
        pruned_total_ns += pruned_ns;
        naive_total_ns += naive_ns;

        double ratio =
            pr.stats.candidatesConsidered
                ? static_cast<double>(nr.stats.candidatesConsidered) /
                      static_cast<double>(pr.stats.candidatesConsidered)
                : 0.0;
        char rbuf[32];
        std::snprintf(rbuf, sizeof(rbuf), "%.1fx%s", ratio,
                      nr.complete ? "" : "+");
        table.addRow({t.name, fmtNs(pruned_ns),
                      std::to_string(pr.stats.candidatesConsidered),
                      fmtNs(naive_ns),
                      std::to_string(nr.stats.candidatesConsidered),
                      rbuf});

        std::string pre = "axiom." + t.name + ".";
        stats.set(pre + "pruned_ns", pruned_ns);
        stats.set(pre + "pruned_considered",
                  pr.stats.candidatesConsidered);
        stats.set(pre + "naive_ns", naive_ns);
        stats.set(pre + "naive_considered",
                  nr.stats.candidatesConsidered);
        stats.set(pre + "naive_capped", nr.complete ? 0 : 1);

        // The two modes must agree wherever the naive cap was not hit
        // — a cheap differential ride-along on every bench run.
        if (nr.complete && nr.allowed != pr.allowed) {
            std::cerr << "axiom_enum: MODE MISMATCH on " << t.name
                      << " (naive and pruned allowed sets differ)\n";
            return 1;
        }
    }
    table.print();
    std::cout << "\n(naive mode capped at " << naive.maxCandidates
              << " considered candidates per test; '+' marks capped "
                 "rows, where the true ratio is higher)\n";

    // Whole-corpus pruned wall time: the <1s acceptance number.
    std::uint64_t corpus_ns = bestNs(reps, [&] {
        for (const CompiledLitmus &t : tests)
            axiom::enumerateAllowed(t.program, axiom::axiomModels(), ctx,
                                    pruned);
    });
    double per_sec =
        corpus_ns ? pruned_total_considered * 1e9 /
                        static_cast<double>(corpus_ns)
                  : 0.0;
    double ratio =
        pruned_total_considered
            ? static_cast<double>(naive_total_considered) /
                  static_cast<double>(pruned_total_considered)
            : 0.0;
    double time_ratio =
        pruned_total_ns ? static_cast<double>(naive_total_ns) /
                              static_cast<double>(pruned_total_ns)
                        : 0.0;
    stats.set("axiom.corpus_ns", corpus_ns);
    stats.set("axiom.candidates_per_sec",
              static_cast<std::uint64_t>(per_sec));
    stats.set("axiom.pruning_ratio_x100",
              static_cast<std::uint64_t>(ratio * 100));
    stats.set("axiom.time_ratio_x100",
              static_cast<std::uint64_t>(time_ratio * 100));

    std::cout << "\nfull corpus (pruned, all models): " << fmtNs(corpus_ns)
              << "  |  " << static_cast<std::uint64_t>(per_sec)
              << " candidates/s  |  pruning " << std::fixed
              << std::setprecision(1) << ratio << "x fewer candidates, "
              << time_ratio << "x faster (naive capped)\n";

    json_file = benchutil::recordFile(json_file, "axiom_enum", quick);
    if (json_file.empty())
        return 0;
    std::ofstream out(json_file);
    if (!out) {
        std::cerr << "axiom_enum: cannot write " << json_file << "\n";
        return 2;
    }
    stats.dumpJson(out);
    out << "\n";
    std::cout << "json written to " << json_file << "\n";
    return 0;
}
