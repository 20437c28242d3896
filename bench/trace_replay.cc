/**
 * @file
 * Trace-replay pipeline benchmark: streaming verification throughput and
 * bounded-memory evidence.
 *
 *   $ trace_replay [--quick] [--json=FILE]
 *
 * Three sections, each printed as a table and recorded in a StatSet that
 * is dumped as JSON (to --json=FILE, else BENCH_trace_replay.json on a
 * full run):
 *
 *  1. windowed-vs-whole-trace differential at small sizes: the streaming
 *     checker's verdict and race set against the resident bitset oracle
 *     (any mismatch aborts the bench — throughput numbers for a wrong
 *     checker are worthless);
 *  2. flat-memory scaling: the same workload replayed at 10x growing
 *     trace sizes under one fixed window — the resident high-water mark
 *     and the process peak RSS must stay flat while the trace grows;
 *  3. sustained streaming throughput: generated lock/barrier/hand-off
 *     traces at 1M+ records, replayed with online FirstRace checking;
 *     reports accesses/second.
 *
 * Timings are std::chrono::steady_clock wall time of the replay phase
 * only (trace generation writes to a temp file beforehand). --quick
 * shrinks trace sizes for CI smoke runs and writes JSON only when given
 * --json; the JSON schema is identical.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/drf0_checker.hh"
#include "oracle/happens_before.hh"
#include "replay/replay_engine.hh"
#include "replay/system_replay.hh"
#include "replay/trace_format.hh"
#include "replay/trace_gen.hh"
#include "sim/stats.hh"

namespace {

using namespace wo;

/** /proc/self/status field in kB (Linux); 0 where unavailable. */
std::uint64_t
procStatusKb(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(field, 0) == 0) {
            std::istringstream iss(line.substr(std::strlen(field) + 1));
            std::uint64_t kb = 0;
            iss >> kb;
            return kb;
        }
    }
    return 0;
}

std::string
tmpTracePath(const std::string &tag)
{
    return (std::filesystem::temp_directory_path() /
            ("wo_bench_" + tag + ".wotrace"))
        .string();
}

/** Spinlock rounds that produce ~@p records records (6 per round per
 * thread: acquire + data ops + release). */
int
roundsFor(std::uint64_t records, int threads, int opsPerRound)
{
    return static_cast<int>(
        records / (static_cast<std::uint64_t>(threads) *
                   static_cast<std::uint64_t>(opsPerRound + 2)));
}

std::string
fmtCount(std::uint64_t n)
{
    std::ostringstream oss;
    if (n >= 1000000)
        oss << n / 1000000 << "." << (n % 1000000) / 100000 << "M";
    else if (n >= 1000)
        oss << n / 1000 << "k";
    else
        oss << n;
    return oss.str();
}

struct ReplayTiming
{
    ReplayResult result;
    std::uint64_t wallNs = 0;
    std::uint64_t accPerSec = 0;
    std::uint64_t vmHwmKb = 0;
    std::uint64_t vmRssKb = 0;
};

ReplayTiming
timeReplay(const std::string &path, const ReplayOptions &opt)
{
    ReplayTraceReader reader;
    if (!reader.open(path)) {
        std::cerr << "trace_replay: cannot read " << path << "\n";
        std::exit(2);
    }
    ReplayEngine engine(reader, opt);
    auto t0 = std::chrono::steady_clock::now();
    ReplayTiming t;
    t.result = engine.run();
    auto t1 = std::chrono::steady_clock::now();
    if (!t.result.ok) {
        std::cerr << "trace_replay: replay failed: " << t.result.error
                  << "\n";
        std::exit(2);
    }
    t.wallNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    t.accPerSec = t.wallNs ? t.result.accesses * 1000000000ull / t.wallNs
                           : 0;
    t.vmHwmKb = procStatusKb("VmHWM");
    t.vmRssKb = procStatusKb("VmRSS");
    return t;
}

void
benchDifferential(StatSet &stats, bool quick)
{
    benchutil::banner(
        "Windowed streaming verdicts vs whole-trace bitset oracle");
    benchutil::Table table(
        {"workload", "variant", "accesses", "races", "windows checked"});
    const int rounds = quick ? 20 : 60;
    for (const char *wl : {"spinlock", "barrier", "prodcons"}) {
        for (bool racy : {false, true}) {
            TraceGenConfig cfg;
            cfg.threads = 4;
            cfg.rounds = rounds;
            cfg.injectRace = racy;
            std::string path = tmpTracePath("diff");
            if (!writeWorkloadTrace(wl, path, cfg))
                std::exit(2);

            ReplayOptions full;
            full.window = 0;
            full.mode = RaceDetectMode::AllRaces;
            ReplayTraceReader r0;
            if (!r0.open(path))
                std::exit(2);
            ReplayEngine oracleEngine(r0, full);
            ReplayResult fullRes = oracleEngine.run();
            Drf0TraceReport oracle =
                checkTraceBitset(oracleEngine.trace());
            std::vector<Race> oracleRaces = oracle.races;
            std::sort(oracleRaces.begin(), oracleRaces.end());

            int windows = 0;
            for (int window : {64, 1024, 16384}) {
                ReplayOptions opt = full;
                opt.window = window;
                ReplayTiming t = timeReplay(path, opt);
                if (t.result.raceFree != oracle.raceFree ||
                    t.result.races != oracleRaces) {
                    std::cerr << "BUG: windowed verdict diverges from "
                                 "oracle ("
                              << wl << ", racy=" << racy
                              << ", window=" << window << ")\n";
                    std::exit(1);
                }
                ++windows;
            }
            std::string key = std::string("diff.") + wl + "." +
                              (racy ? "racy" : "racefree");
            stats.set(key + ".accesses", fullRes.accesses);
            stats.set(key + ".races", oracleRaces.size());
            stats.set(key + ".windows_identical",
                      static_cast<std::uint64_t>(windows));
            table.addRow({wl, racy ? "racy" : "race-free",
                          std::to_string(fullRes.accesses),
                          std::to_string(oracleRaces.size()),
                          std::to_string(windows)});
            std::remove(path.c_str());
        }
    }
    table.print();
    std::cout << "\n(every windowed run's verdict and sorted race set "
                 "matched the bitset oracle)\n";
}

void
benchFlatMemory(StatSet &stats, bool quick)
{
    benchutil::banner(
        "Bounded retention: 10x trace growth under one fixed window");
    // The window must sit below the smaller trace size or the first run
    // never retires and the comparison shows growth, not flatness.
    const int window = quick ? 1 << 12 : 1 << 16;
    const std::uint64_t base = quick ? 100000 : 1000000;
    benchutil::Table table({"records", "accesses", "high-water",
                            "resident peak", "VmHWM", "retired"});
    std::uint64_t firstHw = 0, lastHw = 0;
    std::uint64_t firstHwmKb = 0, lastHwmKb = 0;
    for (std::uint64_t target : {base / 10, base}) {
        TraceGenConfig cfg;
        cfg.threads = 4;
        cfg.rounds = roundsFor(target, cfg.threads, cfg.opsPerRound);
        std::string path = tmpTracePath("scale");
        if (!writeSpinlockTrace(path, cfg))
            std::exit(2);
        ReplayOptions opt;
        opt.window = window;
        ReplayTiming t = timeReplay(path, opt);
        std::remove(path.c_str());

        std::uint64_t hw =
            static_cast<std::uint64_t>(t.result.windowHighWater);
        std::uint64_t residentPeak = hw * sizeof(Access);
        std::string key = "scale.n" + std::to_string(target);
        stats.set(key + ".accesses", t.result.accesses);
        stats.set(key + ".window_high_water", hw);
        stats.set(key + ".resident_peak_bytes", residentPeak);
        stats.set(key + ".events_retired",
                  static_cast<std::uint64_t>(t.result.eventsRetired));
        stats.set(key + ".vm_hwm_kb", t.vmHwmKb);
        stats.set(key + ".vm_rss_kb", t.vmRssKb);
        table.addRow({fmtCount(target), fmtCount(t.result.accesses),
                      std::to_string(hw),
                      std::to_string(residentPeak / 1024) + " KiB",
                      std::to_string(t.vmHwmKb) + " kB",
                      fmtCount(static_cast<std::uint64_t>(
                          t.result.eventsRetired))});
        if (firstHw == 0) {
            firstHw = hw;
            firstHwmKb = t.vmHwmKb;
        }
        lastHw = hw;
        lastHwmKb = t.vmHwmKb;
    }
    table.print();
    // Flatness in parts-per-thousand: 1000 = perfectly flat.
    std::uint64_t hwRatio = firstHw ? lastHw * 1000 / firstHw : 0;
    std::uint64_t rssRatio =
        firstHwmKb ? lastHwmKb * 1000 / firstHwmKb : 0;
    stats.set("scale.high_water_ratio_milli", hwRatio);
    stats.set("scale.vm_hwm_ratio_milli", rssRatio);
    std::cout << "\n(trace grew 10x; resident high-water ratio "
              << hwRatio << "/1000, peak-RSS ratio " << rssRatio
              << "/1000 — both ~1000 means O(window) memory)\n";
}

void
benchThroughput(StatSet &stats, bool quick)
{
    benchutil::banner(
        "Streaming verification throughput (FirstRace, window 64k)");
    const std::uint64_t target = quick ? 100000 : 1000000;
    benchutil::Table table(
        {"workload", "records", "accesses", "wall", "accesses/sec"});
    for (const char *wl : {"spinlock", "barrier", "prodcons"}) {
        TraceGenConfig cfg;
        cfg.threads = 4;
        cfg.rounds = roundsFor(target, cfg.threads, cfg.opsPerRound);
        std::string path = tmpTracePath(std::string("tp_") + wl);
        if (!writeWorkloadTrace(wl, path, cfg))
            std::exit(2);
        ReplayOptions opt;
        opt.window = 1 << 16;
        ReplayTiming t = timeReplay(path, opt);
        std::remove(path.c_str());

        std::string key = std::string("throughput.") + wl;
        stats.set(key + ".records", t.result.recordsReplayed);
        stats.set(key + ".accesses", t.result.accesses);
        stats.set(key + ".wall_ns", t.wallNs);
        stats.set(key + ".accesses_per_sec", t.accPerSec);
        stats.set(key + ".window_high_water",
                  static_cast<std::uint64_t>(t.result.windowHighWater));
        std::ostringstream wall;
        wall << t.wallNs / 1000000 << " ms";
        table.addRow({wl, fmtCount(t.result.recordsReplayed),
                      fmtCount(t.result.accesses), wall.str(),
                      fmtCount(t.accPerSec)});
    }
    table.print();
    std::cout << "\n(replay + online DRF0 verification, single thread; "
                 "trace generation and file I/O setup excluded)\n";
}

void
benchSystemReplay(StatSet &stats, bool quick)
{
    benchutil::banner("Simulator-accurate replay (bus, def2drf0)");
    TraceGenConfig cfg;
    cfg.threads = 2;
    cfg.rounds = quick ? 20 : 60;
    std::string path = tmpTracePath("sys");
    if (!writeSpinlockTrace(path, cfg))
        std::exit(2);
    ReplayTraceReader reader;
    if (!reader.open(path))
        std::exit(2);
    SystemReplayOptions opt;
    opt.window = 1 << 10;
    opt.chunkTicks = 2048;
    auto t0 = std::chrono::steady_clock::now();
    SystemReplayResult res = replayOnSystem(reader, opt);
    auto t1 = std::chrono::steady_clock::now();
    std::remove(path.c_str());
    if (!res.ok) {
        std::cerr << "trace_replay: system replay failed: " << res.error
                  << "\n";
        std::exit(2);
    }
    std::uint64_t ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    stats.set("system.accesses", res.accesses);
    stats.set("system.wall_ns", ns);
    stats.set("system.accesses_per_sec",
              ns ? res.accesses * 1000000000ull / ns : 0);
    stats.set("system.finish_tick",
              static_cast<std::uint64_t>(res.finishTick));
    benchutil::Table table({"machine", "accesses", "ticks", "wall"});
    std::ostringstream wall;
    wall << ns / 1000000 << " ms";
    table.addRow({"bus", std::to_string(res.accesses),
                  std::to_string(res.finishTick), wall.str()});
    table.print();
    std::cout << "\n(full cache/interconnect simulation driven from the "
                 "recorded trace; the logical engine above is the scale "
                 "path)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string json_file;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_file = arg.substr(7);
        } else {
            std::cerr
                << "usage: trace_replay [--quick] [--json=FILE]\n";
            return 2;
        }
    }

    StatSet stats;
    stats.set("quick", quick ? 1 : 0);
    benchDifferential(stats, quick);
    benchFlatMemory(stats, quick);
    benchThroughput(stats, quick);
    benchSystemReplay(stats, quick);

    json_file = benchutil::recordFile(json_file, "trace_replay", quick);
    if (json_file.empty())
        return 0;
    std::ofstream out(json_file);
    if (!out) {
        std::cerr << "trace_replay: cannot write " << json_file << "\n";
        return 2;
    }
    stats.dumpJson(out);
    out << "\n";
    std::cout << "\njson written to " << json_file << "\n";
    return 0;
}
