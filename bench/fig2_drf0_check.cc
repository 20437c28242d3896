/**
 * @file
 * Figure 2 reproduction: the DRF0 example and counter-example executions,
 * classified by the happens-before race checker, plus checker timings on
 * synthetic traces of growing size.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "core/drf0_checker.hh"
#include "oracle/happens_before.hh"
#include "sim/rng.hh"
#include "workload/figures.hh"

namespace {

using namespace wo;

void
printFig2Report()
{
    benchutil::banner("Figure 2: DRF0 example and counter-example");

    ExecutionTrace a = figure2aTrace();
    Drf0TraceReport ra = checkTrace(a);
    std::cout << "(a) " << a.size() << " accesses, 6 processors: "
              << (ra.raceFree ? "obeys DRF0 (race-free)"
                              : "VIOLATES DRF0")
              << "\n";

    ExecutionTrace b = figure2bTrace();
    Drf0TraceReport rb = checkTrace(b);
    std::cout << "(b) " << b.size() << " accesses, 5 processors: "
              << (rb.raceFree ? "obeys DRF0 (race-free)"
                              : "violates DRF0")
              << "\n";
    std::cout << "    " << rb.toString(b);
    std::cout << "\nExpected shape: (a) race-free, (b) reports the "
                 "P0/P1 conflict on x and the\nP2-or-P3 vs P4 conflicts "
                 "on y, exactly as the figure's caption describes.\n";
}

/** A synthetic trace: p processors, each n accesses, lock-ordered. */
ExecutionTrace
syntheticTrace(int procs, int per_proc, bool racy, std::uint64_t seed)
{
    Rng rng(seed);
    ExecutionTrace t;
    Tick now = 0;
    for (int p = 0; p < procs; ++p) {
        for (int i = 0; i < per_proc; ++i) {
            Access a;
            a.proc = p;
            a.poIndex = i;
            bool sync = (i % 4 == 3);
            if (sync) {
                a.kind = AccessKind::SyncRmw;
                a.addr = 1000; // one global lock
            } else if (racy) {
                a.kind = rng.chance(1, 2) ? AccessKind::DataWrite
                                          : AccessKind::DataRead;
                a.addr = static_cast<Addr>(rng.below(8));
            } else {
                a.kind = rng.chance(1, 2) ? AccessKind::DataWrite
                                          : AccessKind::DataRead;
                a.addr = static_cast<Addr>(100 + p); // private
            }
            a.commitTick = now++;
            a.gpTick = a.commitTick;
            t.add(a);
        }
    }
    return t;
}

void
BM_CheckTrace(benchmark::State &state)
{
    ExecutionTrace t = syntheticTrace(4, static_cast<int>(state.range(0)),
                                      false, 42);
    for (auto _ : state) {
        Drf0TraceReport r = checkTrace(t);
        benchmark::DoNotOptimize(r.raceFree);
    }
    state.SetComplexityN(state.range(0) * 4);
}
BENCHMARK(BM_CheckTrace)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void
BM_CheckTraceRacy(benchmark::State &state)
{
    ExecutionTrace t = syntheticTrace(4, static_cast<int>(state.range(0)),
                                      true, 42);
    for (auto _ : state) {
        Drf0TraceReport r = checkTrace(t);
        benchmark::DoNotOptimize(r.races.size());
    }
}
BENCHMARK(BM_CheckTraceRacy)->RangeMultiplier(4)->Range(16, 256);

void
BM_HappensBeforeBuild(benchmark::State &state)
{
    ExecutionTrace t = syntheticTrace(8, static_cast<int>(state.range(0)),
                                      false, 7);
    for (auto _ : state) {
        HappensBefore hb(t);
        benchmark::DoNotOptimize(hb.acyclic());
    }
}
BENCHMARK(BM_HappensBeforeBuild)->RangeMultiplier(2)->Range(16, 512);

} // namespace

int
main(int argc, char **argv)
{
    printFig2Report();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
