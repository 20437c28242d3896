/**
 * @file
 * Tracing-overhead micro-harness: measures simulator throughput with
 * tracing disabled (no sink attached — the shipping default) against
 * tracing fully enabled (a TraceBuffer with the all-components mask)
 * and against coverage recording (a CoverageMap installed, no sink),
 * over the same deterministic lock-contention workloads. Coverage is
 * measured in two shapes: one map shared by every run, and a fresh map
 * per run merged into a campaign map (the litmus runner's per-job
 * shape, which also pays for per-job maps and merges).
 *
 *   $ trace_overhead [--quick] [--json=FILE] [--gate=PCT]
 *
 * The disabled-path number is the one that matters: every component
 * guards its instrumentation behind a single `if (sink_)` test, so an
 * untraced run must stay within noise of a build that never had the
 * observability layer. The enabled-path number quantifies what a traced
 * debugging run costs (event construction + buffer append + histogram
 * updates). The shared-map coverage number gates the campaign-coverage
 * path (dense transition counters + id bumps): --gate=PCT exits
 * nonzero when that overhead exceeds PCT (the CI gate is 3). The
 * per-run-map number (coverage_per_run_map_overhead_pct) is reported,
 * not gated.
 *
 * The measurement loop matches the PR-4 event-kernel gate: 600 runs
 * (240 with --quick) of tasLockCounter(4,4) + tttasLockCounter(4,4) on
 * net-cold under Def2Drf0, seeds 1..runs, accumulating executed-event
 * counts. Each of fifteen rounds runs an off pass followed by both
 * coverage passes; each reported coverage cost is the median over the
 * rounds of the coverage pass's overhead against its round's off pass,
 * which cancels external load that varies on the timescale of a whole
 * pass. The table rows show each mode's fastest pass. Results print as
 * a table and dump as JSON (default file: BENCH_trace_overhead.json)
 * with the commit, build type, host and round count; --quick shrinks
 * the run count for CI smoke runs with an identical JSON schema. Run
 * from the repository root so the commit resolves.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "obs/coverage.hh"
#include "obs/trace_sink.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/litmus.hh"

namespace {

using namespace wo;

struct Sample
{
    std::uint64_t events = 0;
    double seconds = 0.0;

    double
    eventsPerSec() const
    {
        return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
    }
};

/**
 * One full measurement pass: @p runs iterations of both lock workloads,
 * recording into @p sink and/or @p cov when non-null. With
 * @p map_per_run each run records into a fresh map that is then merged
 * into @p cov, as the litmus runner does per job.
 */
Sample
measure(int runs, TraceSink *sink, CoverageMap *cov = nullptr,
        bool map_per_run = false)
{
    MultiProgram tas = tasLockCounter(4, 4);
    MultiProgram tttas = tttasLockCounter(4, 4);

    // Warm caches / allocator before timing.
    for (int i = 0; i < 5; ++i) {
        SystemConfig cfg =
            machineOrThrow("net-cold").config(PolicyKind::Def2Drf0, 1 + i);
        System sys(tttas, cfg);
        sys.run();
    }

    Sample s;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < runs; ++i) {
        for (const MultiProgram *mp : {&tas, &tttas}) {
            SystemConfig cfg = machineOrThrow("net-cold").config(
                PolicyKind::Def2Drf0, 1 + i);
            cfg.traceSink = sink;
            CoverageMap job;
            cfg.coverage = map_per_run ? &job : cov;
            System sys(*mp, cfg);
            sys.run();
            s.events += sys.eventQueue().executed();
            if (map_per_run)
                cov->merge(job);
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    s.seconds = std::chrono::duration<double>(t1 - t0).count();
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    int runs = 600;
    bool quick = false;
    std::string json_file = "BENCH_trace_overhead.json";
    double gate_pct = -1.0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
            runs = 240;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_file = arg.substr(7);
        } else if (arg.rfind("--gate=", 0) == 0) {
            gate_pct = std::atof(arg.c_str() + 7);
        } else {
            std::cerr << "usage: trace_overhead [--quick] [--json=FILE] "
                         "[--gate=PCT]\n";
            return 2;
        }
    }

    // Interleave off/coverage passes and gate on the MEDIAN pairwise
    // overhead: a single pass is short enough that scheduler noise on
    // a loaded host swings any one ratio by tens of percent in either
    // direction (an off-vs-off control shows the same swings), but the
    // noise is symmetric per back-to-back pair, so the median over
    // many pairs centers on the true cost — outliers in both
    // directions are trimmed, and a real regression (e.g. a string
    // hash on the stall path) shifts every pair. The gated coverage
    // pass installs one map for every run; the per-run pass gives
    // every run a fresh map merged into a campaign map, as runCorpus
    // does per job.
    const int reps = 15;
    Sample off, cov, per_run;
    CoverageMap cov_map, campaign_map;
    std::vector<double> pair_pct, per_run_pct;
    auto overheadPct = [](const Sample &o, const Sample &c) {
        return (o.eventsPerSec() / c.eventsPerSec() - 1.0) * 100.0;
    };
    for (int r = 0; r < reps; ++r) {
        Sample o = measure(runs, nullptr);
        Sample c = measure(runs, nullptr, &cov_map);
        Sample p = measure(runs, nullptr, &campaign_map, true);
        if (o.eventsPerSec() > off.eventsPerSec())
            off = o;
        if (c.eventsPerSec() > cov.eventsPerSec())
            cov = c;
        if (p.eventsPerSec() > per_run.eventsPerSec())
            per_run = p;
        if (c.eventsPerSec() > 0)
            pair_pct.push_back(overheadPct(o, c));
        if (p.eventsPerSec() > 0)
            per_run_pct.push_back(overheadPct(o, p));
    }
    auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v.empty() ? 0.0 : v[v.size() / 2];
    };
    double coverage_pct = median(pair_pct);
    double per_run_map_pct = median(per_run_pct);

    // The traced pass uses a fresh buffer per run so memory stays
    // bounded and each run pays the realistic append cost from empty.
    MultiProgram tas = tasLockCounter(4, 4);
    MultiProgram tttas = tttasLockCounter(4, 4);
    Sample on;
    for (int r = 0; r < 3; ++r) {
        Sample pass;
        for (int i = 0; i < 5; ++i) {
            SystemConfig cfg = machineOrThrow("net-cold").config(
                PolicyKind::Def2Drf0, 1 + i);
            System sys(tttas, cfg);
            sys.run();
        }
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < runs; ++i) {
            for (const MultiProgram *mp : {&tas, &tttas}) {
                TraceBuffer buf;
                SystemConfig cfg = machineOrThrow("net-cold").config(
                    PolicyKind::Def2Drf0, 1 + i);
                cfg.traceSink = &buf;
                System sys(*mp, cfg);
                sys.run();
                pass.events += sys.eventQueue().executed();
            }
        }
        auto t1 = std::chrono::steady_clock::now();
        pass.seconds = std::chrono::duration<double>(t1 - t0).count();
        if (pass.eventsPerSec() > on.eventsPerSec())
            on = pass;
    }

    double overhead_pct =
        on.eventsPerSec() > 0
            ? (off.eventsPerSec() / on.eventsPerSec() - 1.0) * 100.0
            : 0.0;

    std::printf("trace_overhead (%d runs x 2 workloads, net-cold, "
                "def2drf0)\n",
                runs);
    std::printf("  %-14s %12s %10s %16s\n", "mode", "events", "sec",
                "events/sec");
    std::printf("  %-14s %12llu %10.4f %16.0f\n", "tracing off",
                (unsigned long long)off.events, off.seconds,
                off.eventsPerSec());
    std::printf("  %-14s %12llu %10.4f %16.0f\n", "coverage on",
                (unsigned long long)cov.events, cov.seconds,
                cov.eventsPerSec());
    std::printf("  %-14s %12llu %10.4f %16.0f\n", "cov, map/run",
                (unsigned long long)per_run.events, per_run.seconds,
                per_run.eventsPerSec());
    std::printf("  %-14s %12llu %10.4f %16.0f\n", "tracing on",
                (unsigned long long)on.events, on.seconds,
                on.eventsPerSec());
    std::printf("  enabled-path cost: %.1f%%\n", overhead_pct);
    std::printf("  coverage cost:     %.1f%%\n", coverage_pct);
    std::printf("  per-run-map cost:  %.1f%%\n", per_run_map_pct);

    std::ofstream out(json_file);
    if (!out) {
        std::cerr << "trace_overhead: cannot write " << json_file << "\n";
        return 2;
    }
    auto pct = [](double v) {
        return static_cast<std::int64_t>(v * 10) / 10.0;
    };
    auto sample = [](const Sample &x) {
        return "{\"events\": " + std::to_string(x.events) +
               ", \"events_per_sec\": " +
               std::to_string(static_cast<std::uint64_t>(x.eventsPerSec())) +
               "}";
    };
    benchutil::writeEnvelopeHead(out, "trace_overhead", quick, reps);
    out << "  \"runs\": " << runs << ",\n"
        << "  \"off\": " << sample(off) << ",\n"
        << "  \"coverage\": " << sample(cov) << ",\n"
        << "  \"coverage_per_run_map\": " << sample(per_run) << ",\n"
        << "  \"on\": " << sample(on) << ",\n"
        << "  \"enabled_overhead_pct\": " << pct(overhead_pct) << ",\n"
        << "  \"coverage_overhead_pct\": " << pct(coverage_pct) << ",\n"
        << "  \"coverage_per_run_map_overhead_pct\": "
        << pct(per_run_map_pct) << "\n"
        << "}\n";
    std::printf("json written to %s\n", json_file.c_str());

    if (gate_pct >= 0 && coverage_pct > gate_pct) {
        std::fprintf(stderr,
                     "trace_overhead: coverage overhead %.1f%% exceeds "
                     "gate %.1f%%\n",
                     coverage_pct, gate_pct);
        return 1;
    }
    return 0;
}
