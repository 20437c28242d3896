/**
 * @file
 * perfbench: the repository benchmark harness.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--scratch DIR] [--fingerprint FILE] [--plant-wrong-count]
 *
 * Sets the workload up from the seed, runs one reference repetition
 * through the public entry points and one re-driven call by call, and
 * requires their counts and simulated statistics to be equal. It then
 * repeats the workload until S seconds are spent, setting it up again
 * several times after each repetition (setup_s is the median of every
 * set-up, so set-up and repetitions sample the same host state). With
 * --trace 0 it times entry-point repetitions and prints the end-to-end
 * metrics; with --trace 1 it alternates the re-drive without and with
 * spans and prints the per-layer metrics, whose times come from spans
 * around each library call, plus the with/without-spans wall ratio.
 *
 * Every repetition's verdict counts must equal the reference's; any
 * failed check makes the result "correct": false and the exit status 1.
 * The last stdout line is the result object; the line before it is
 * {"meta": ...} with the run's provenance and raw samples.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "spans.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},         {"wall_s", "s"},
    {"jobs_per_s", "1/s"},    {"accesses_per_s", "1/s"},
    {"peak_rss_mb", "MB"},    {"success_frac", "ratio"},
};

const std::vector<MetricDef> kPerLayer = {
    {"litmus.compile_s", "s"},
    {"litmus.report_s", "s"},
    {"litmus.report_bytes", "bytes"},
    {"workload.busy_s", "s"},
    {"workload.parallel_eff", "ratio"},
    {"workload.job_us_p50", "us"},
    {"workload.job_us_p99", "us"},
    {"system.acquire_s", "s"},
    {"system.pool_builds", "count"},
    {"system.pool_reuses", "count"},
    {"sim.run_s", "s"},
    {"sim.runs", "count"},
    {"sim.unfinished", "count"},
    {"sim.ticks", "ticks"},
    {"sim.host_ns_per_tick", "ns/tick"},
    {"cpu.instructions", "count"},
    {"cpu.policy_stalls", "count"},
    {"coherence.hits", "count"},
    {"coherence.misses", "count"},
    {"coherence.invalidations", "count"},
    {"mem.msgs", "count"},
    {"core.sc_verify_s", "s"},
    {"core.sc_calls", "count"},
    {"core.sc_states", "count"},
    {"core.sc_states_per_access", "ratio"},
    {"core.sc_not_sc", "count"},
    {"core.sc_unknown", "count"},
    {"core.drf0_sampled_s", "s"},
    {"core.drf0_calls", "count"},
    {"core.drf0_executions", "count"},
    {"core.drf0_memo_hits", "count"},
    {"axiom.enum_s", "s"},
    {"axiom.calls", "count"},
    {"axiom.candidates", "count"},
    {"axiom.truncated", "count"},
    {"obs.coverage_merge_s", "s"},
    {"obs.coverage_report_s", "s"},
    {"obs.coverage_keys", "count"},
    {"replay.build_s", "s"},
    {"replay.records", "count"},
    {"core.stream_check_s", "s"},
    {"core.stream_accesses", "count"},
    {"core.stream_retired", "count"},
    {"core.stream_window_high_water", "count"},
    {"bench.trace_overhead_frac", "ratio"},
};

/**
 * Campaign worker threads; the calling thread runs jobs too. Two job
 * threads spread per-run medians far less than four on a shared 4-vCPU
 * host (2.5% against 25% IQR over 5 seeds of litmus_campaign).
 */
constexpr int kCampaignThreads = 1;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string scratch = ".bench_build/perfbench-tmp";
    std::string fingerprint;
    bool plantWrongCount = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR] "
                 "[--fingerprint FILE] [--plant-wrong-count]"
                 "\nworkloads:";
    for (const std::string &w : workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string val;
        const std::size_t eq = arg.find('=');
        if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            val = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        } else if (arg != "--plant-wrong-count") {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            val = argv[++i];
        }
        try {
            if (arg == "--workload")
                a.workload = val;
            else if (arg == "--seed")
                a.seed = std::stoull(val);
            else if (arg == "--seconds")
                a.seconds = std::stod(val);
            else if (arg == "--trace")
                a.trace = std::stoi(val);
            else if (arg == "--scratch")
                a.scratch = val;
            else if (arg == "--fingerprint")
                a.fingerprint = val;
            else if (arg == "--plant-wrong-count")
                a.plantWrongCount = true;
            else
                usage("unknown argument " + arg);
        } catch (const std::logic_error &) {
            usage("bad value for " + arg + ": " + val);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace must be 0 or 1");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
            continue;
        }
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonList(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(v[i]);
    return out + "]";
}

std::string
jsonCounts(const Counts &c)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : c) {
        out += (first ? "" : ", ") + jsonString(k) + ": " +
               std::to_string(v);
        first = false;
    }
    return out + "}";
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Per-layer metrics of one traced repetition. */
std::map<std::string, double>
layerMetrics(const RepResult &t, const SpanLog &log, int jobThreads)
{
    std::map<std::string, double> m = t.layers;
    m["system.acquire_s"] = log.total("system.acquire");
    m["sim.run_s"] = log.self("sim.run");
    m["core.sc_verify_s"] = log.total("core.sc_verify");
    m["core.drf0_sampled_s"] = log.total("core.drf0_sampled");
    m["axiom.enum_s"] = log.total("axiom.enum");
    m["obs.coverage_merge_s"] = log.total("obs.coverage_merge");
    m["obs.coverage_report_s"] = log.total("obs.coverage_report");
    m["litmus.report_s"] = log.total("litmus.report");
    m["replay.build_s"] = log.total("replay.build");
    m["core.stream_check_s"] = log.total("core.stream_check");

    const std::vector<double> jobs = log.durations("workload.job");
    const double busy = log.total("workload.job");
    const double mapWall = log.total("workload.map");
    m["workload.busy_s"] = busy;
    m["workload.parallel_eff"] =
        mapWall > 0 ? busy / (jobThreads * mapWall) : 0;
    m["workload.job_us_p50"] = quantile(jobs, 0.50) * 1e6;
    m["workload.job_us_p99"] = quantile(jobs, 0.99) * 1e6;

    m["sim.host_ns_per_tick"] =
        m["sim.ticks"] > 0 ? m["sim.run_s"] * 1e9 / m["sim.ticks"] : 0;
    m["core.sc_states_per_access"] =
        m["core.sc_accesses"] > 0
            ? m["core.sc_states"] / m["core.sc_accesses"]
            : 0;
    m.erase("core.sc_accesses");
    for (const auto &[name, v] : simCounters(t.simStats))
        m[name] = static_cast<double>(v);
    return m;
}

/** Bump one verdict count, so the harness's checks can be shown to
 * catch a wrong count (--plant-wrong-count, used by the tests). */
void
plantWrongCount(RepResult &r)
{
    auto endsWith = [](const std::string &s, const std::string &suf) {
        return s.size() >= suf.size() &&
               s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
    };
    for (auto &[k, v] : r.summary) {
        if (endsWith(k, ".sc_ok") || endsWith(k, ".sc") || k == "races") {
            v += 1;
            return;
        }
    }
    r.summary["jobs"] += 1;
}

/** Compare @p got against the reference counts; record mismatches. */
bool
sameCounts(const RepResult &ref, const RepResult &got,
           const std::string &what, std::vector<std::string> &errors)
{
    std::vector<std::string> d = diffCounts(ref.summary, got.summary);
    if (!ref.simStats.empty() && !got.simStats.empty()) {
        for (const std::string &s : diffCounts(ref.simStats, got.simStats))
            d.push_back("stat " + s);
    }
    for (std::size_t i = 0; i < d.size() && i < 5; ++i)
        errors.push_back(what + ": " + d[i]);
    return d.empty();
}

int
runBenchmark(const Args &args)
{
    std::filesystem::create_directories(args.scratch);
    std::unique_ptr<Workload> w =
        makeWorkload(args.workload, kCampaignThreads, args.scratch);
    if (!w)
        usage("unknown workload " + args.workload);

    // Set-ups run in batches: one before the reference repetition and
    // one after every measured repetition, so that setup_s samples the
    // host across the whole run, as wall_s does. A batch is at least
    // kBatchMin set-ups and more until kBatchSeconds are spent, so that
    // sub-millisecond set-ups still give a steady median.
    constexpr std::size_t kBatchMin = 3, kBatchMax = 200;
    constexpr double kBatchSeconds = 0.05;
    std::vector<double> setupTimes, compileTimes;
    auto setupBatch = [&] {
        const std::int64_t start = nowNs();
        for (std::size_t n = 0;
             n < kBatchMin ||
             (n < kBatchMax &&
              static_cast<double>(nowNs() - start) * 1e-9 < kBatchSeconds);
             ++n) {
            SpanLog log;
            const std::int64_t t0 = nowNs();
            w->setup(args.seed, &log);
            setupTimes.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
            compileTimes.push_back(log.total("litmus.compile"));
        }
    };
    setupBatch();

    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(w->inputDigest()));

    std::vector<std::string> errors;
    std::uint64_t attempted = 0, failed = 0;
    auto account = [&](const RepResult &r, bool countsOk) {
        attempted += r.ops;
        failed += countsOk ? r.failed : r.ops;
        for (std::size_t i = 0; i < r.errors.size() && i < 5; ++i)
            errors.push_back(r.errors[i]);
    };

    // Reference repetition, and the same repetition re-driven call by
    // call: the per-layer numbers are only meaningful if they agree.
    const RepResult ref = w->run();
    const RepResult drive = w->runTraced(nullptr);
    account(ref, true);
    account(drive, sameCounts(ref, drive, "re-drive vs entry point",
                              errors));
    const Counts fingerprint = drive.simStats;
    std::cout << "{\"plan\": {\"ops_per_rep\": " << ref.ops << "}}"
              << std::endl;

    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
    const std::size_t minReps = args.trace ? 2 : 3;
    std::vector<double> walls, tracedWalls;
    std::vector<std::map<std::string, double>> layerSamples;
    while (walls.size() < minReps || nowNs() < deadline) {
        const bool last = nowNs() >= deadline && walls.size() + 1 >= minReps;
        if (!args.trace) {
            RepResult u = w->run();
            if (args.plantWrongCount && last)
                plantWrongCount(u);
            walls.push_back(u.wallS);
            account(u, sameCounts(ref, u, "repetition vs reference",
                                  errors));
        } else {
            // The re-drive without spans against the same re-drive with
            // them, so that the wall ratio isolates the cost of tracing.
            // Which of the pair runs first alternates.
            auto plain = [&] {
                RepResult u = w->runTraced(nullptr);
                walls.push_back(u.wallS);
                account(u, sameCounts(ref, u, "re-drive vs entry point",
                                      errors));
            };
            const bool plainFirst = walls.size() % 2 == 0;
            if (plainFirst)
                plain();
            SpanLog log;
            RepResult t = w->runTraced(&log);
            if (args.plantWrongCount && last)
                plantWrongCount(t);
            tracedWalls.push_back(t.wallS);
            account(t, sameCounts(ref, t, "traced vs entry point", errors));
            layerSamples.push_back(layerMetrics(t, log, kCampaignThreads + 1));
            if (!plainFirst)
                plain();
        }
        setupBatch();
    }

    std::map<std::string, double> metrics;
    std::vector<MetricDef> defs;
    if (!args.trace) {
        defs = kEndToEnd;
        const double wall = median(walls);
        metrics["setup_s"] = median(setupTimes);
        metrics["wall_s"] = wall;
        metrics["jobs_per_s"] = static_cast<double>(ref.ops) / wall;
        metrics["accesses_per_s"] =
            static_cast<double>(drive.accesses) / wall;
        metrics["peak_rss_mb"] = peakRssMb();
        metrics["success_frac"] =
            attempted ? 1.0 - static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                      : 0.0;
    } else {
        defs = kPerLayer;
        for (const MetricDef &d : kPerLayer) {
            std::vector<double> v;
            for (const auto &s : layerSamples) {
                auto it = s.find(d.name);
                v.push_back(it == s.end() ? 0.0 : it->second);
            }
            metrics[d.name] = median(v);
        }
        metrics["litmus.compile_s"] = median(compileTimes);
        metrics["bench.trace_overhead_frac"] =
            median(tracedWalls) / median(walls);
    }

    if (!args.fingerprint.empty()) {
        std::ofstream f(args.fingerprint);
        f << "{\"workload\": " << jsonString(args.workload)
          << ", \"seed\": " << args.seed
          << ", \"run_length\": " << jsonString(w->runLength())
          << ",\n \"counters\": " << jsonCounts(simCounters(fingerprint))
          << ",\n \"stats\": " << jsonCounts(fingerprint) << "}\n";
        if (!f)
            errors.push_back("cannot write " + args.fingerprint);
    }

    for (const MetricDef &d : defs)
        std::cout << d.name << " = " << jsonNumber(metrics[d.name]) << " "
                  << d.unit << "\n";
    for (const std::string &e : errors)
        std::cout << "CHECK FAILED: " << e << "\n";

    std::ostringstream meta;
    meta << "{\"meta\": {\"workload\": " << jsonString(args.workload)
         << ", \"seed\": " << args.seed
         << ", \"seconds\": " << jsonNumber(args.seconds)
         << ", \"trace\": " << args.trace
         << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
         << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"campaign_threads\": " << kCampaignThreads
         << ", \"job_threads\": " << kCampaignThreads + 1
         << ", \"run_length\": " << jsonString(w->runLength())
         << ", \"input_digest\": " << jsonString(digest)
         << ", \"ops_per_rep\": " << ref.ops
         << ", \"accesses_per_rep\": " << drive.accesses
         << ", \"setup_reps\": " << setupTimes.size()
         << ", \"reps\": " << walls.size()
         << ", \"traced_reps\": " << tracedWalls.size()
         << ", \"setup_s\": " << jsonList(setupTimes)
         << ", \"wall_s\": " << jsonList(walls)
         << ", \"traced_wall_s\": " << jsonList(tracedWalls)
         << ", \"sim_counters\": " << jsonCounts(simCounters(fingerprint))
         << "}}";
    std::cout << meta.str() << "\n";

    std::cout << "{\"correct\": " << (errors.empty() ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        std::cout << (i ? ", " : "") << jsonString(defs[i].name)
                  << ": {\"value\": " << jsonNumber(metrics[defs[i].name])
                  << ", \"unit\": " << jsonString(defs[i].unit) << "}";
    }
    std::cout << "}}" << std::endl;
    return errors.empty() ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args args = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::runBenchmark(args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
