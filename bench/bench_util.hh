/**
 * @file
 * Shared helpers for the benchmark/reproduction binaries: aligned table
 * printing for the paper-style reports each bench emits before its
 * google-benchmark timings, and common command-line flag handling.
 */

#ifndef WO_BENCH_BENCH_UTIL_HH
#define WO_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/stats.hh"
#include "system/machine_spec.hh"
#include "workload/campaign.hh"

namespace wo::benchutil {

/** Flags shared by every bench binary. */
struct BenchOptions
{
    int threads = 0;            ///< campaign workers; 0 = WO_THREADS/auto
    std::uint64_t baseSeed = 1; ///< campaign seed-stream base

    /** Machines selected with --machines=<list>; empty = bench default. */
    std::vector<const MachineSpec *> machines;

    /** --quick: shrink sweeps/repetitions for CI smoke runs. */
    bool quick = false;

    /** --json=FILE: where to dump the bench StatSet; empty = no dump
     * (benches with a committed record default it through
     * recordFile). */
    std::string jsonFile;
};

/**
 * The file a bench with a committed record writes its JSON to:
 * --json=FILE when given; otherwise BENCH_<bench>.json for a full run
 * and none (empty) for a --quick run, so a smoke run from the
 * repository root never overwrites the committed full-run record.
 */
inline std::string
recordFile(const std::string &json_file, const std::string &bench,
           bool quick)
{
    if (!json_file.empty())
        return json_file;
    return quick ? std::string() : "BENCH_" + bench + ".json";
}

/**
 * Strip the flags every bench understands (--threads=N / --threads N,
 * honouring WO_THREADS, --seed=S / --seed S, --machines=LIST of
 * machine-registry names, --quick, and --json=FILE) from argv before it
 * is handed to google-benchmark, which rejects flags it does not know.
 * Exits with status 2 on an unknown machine name or a malformed number.
 */
inline BenchOptions
consumeBenchFlags(int &argc, char **argv)
{
    BenchOptions opts;
    try {
        opts.threads = consumeThreadsFlag(argc, argv);
        campaignThreads(opts.threads); // vets WO_THREADS up front
        opts.baseSeed = consumeSeedFlag(argc, argv);
    } catch (const std::invalid_argument &e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        std::exit(2);
    }
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--machines=", 0) == 0) {
            try {
                opts.machines = parseMachineList(arg.substr(11));
            } catch (const std::exception &e) {
                std::cerr << argv[0] << ": " << e.what() << "\n";
                std::exit(2);
            }
        } else if (arg == "--quick") {
            opts.quick = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            opts.jsonFile = arg.substr(7);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return opts;
}

/** Dump @p stats as JSON to @p file; complains but does not abort on
 * I/O failure (a bench's tables already printed). */
inline void
dumpJsonFile(const StatSet &stats, const std::string &file)
{
    std::ofstream out(file);
    if (!out) {
        std::cerr << "cannot write " << file << "\n";
        return;
    }
    stats.dumpJson(out);
    out << "\n";
    std::cout << "\njson written to " << file << "\n";
}

/** Median and inter-quartile range of a sample. */
struct Spread
{
    double median = 0;
    double iqr = 0;
};

/** Spread of @p v; quantiles interpolate linearly between order
 * statistics (position q * (n - 1)). */
inline Spread
spreadOf(std::vector<double> v)
{
    if (v.empty())
        return {};
    std::sort(v.begin(), v.end());
    auto q = [&](double f) {
        double pos = f * static_cast<double>(v.size() - 1);
        std::size_t lo = static_cast<std::size_t>(pos);
        std::size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
    };
    return {q(0.5), q(0.75) - q(0.25)};
}

/** `git describe --always --dirty` of the working directory, or
 * "unknown" outside a git checkout. */
inline std::string
gitDescribe()
{
    std::string out;
    if (FILE *f = popen("git describe --always --dirty 2>/dev/null", "r")) {
        char buf[256];
        if (std::fgets(buf, sizeof buf, f))
            out = buf;
        pclose(f);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out.empty() ? "unknown" : out;
}

/** The host CPU's model name (Linux), or "unknown". */
inline std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** JSON string literal of @p s (quotes and backslashes escaped). */
inline std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/**
 * Open a bench JSON object with its provenance envelope: the bench
 * name, the commit it was built from (`git describe --always --dirty`,
 * run in the working directory), the build type, the host CPU and
 * thread count, --quick, and the repetition count behind every
 * median/IQR that follows. Leaves the object open after `"reps": N,`
 * for the caller's fields. Run from the repository root so the commit
 * resolves.
 */
inline void
writeEnvelopeHead(std::ostream &out, const std::string &bench, bool quick,
                  int reps)
{
#ifdef WO_BUILD_TYPE
    const std::string build_type = WO_BUILD_TYPE;
#else
    const std::string build_type = "unknown";
#endif
    out << "{\n  \"bench\": " << jsonString(bench)
        << ",\n  \"commit\": " << jsonString(gitDescribe())
        << ",\n  \"build_type\": " << jsonString(build_type)
        << ",\n  \"machine\": {\"cpu\": " << jsonString(cpuModel())
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << "},\n  \"quick\": " << (quick ? "true" : "false")
        << ",\n  \"reps\": " << reps << ",\n";
}

/** Dump @p stats inside a provenance envelope (writeEnvelopeHead).
 * Returns false (after saying why) when @p file cannot be written. */
inline bool
dumpEnvelopeJson(const StatSet &stats, const std::string &file,
                 const std::string &bench, bool quick, int reps)
{
    std::ofstream out(file);
    if (!out) {
        std::cerr << "cannot write " << file << "\n";
        return false;
    }
    writeEnvelopeHead(out, bench, quick, reps);
    out << "  \"stats\": ";
    stats.dumpJson(out, "", 2);
    out << "\n}\n";
    std::cout << "\njson written to " << file << "\n";
    return true;
}

/**
 * The machine list a bench sweeps over: the --machines selection, or
 * the bench's default machine. Table banners should name the machine
 * when the selection was explicit (opts.machines non-empty), so the
 * default output stays byte-identical.
 */
inline std::vector<const MachineSpec *>
machinesOr(const BenchOptions &opts, const std::string &default_name)
{
    if (!opts.machines.empty())
        return opts.machines;
    return {&machineOrThrow(default_name)};
}

/** Prints an aligned table: header row then data rows. */
class Table
{
  public:
    explicit Table(std::vector<std::string> header)
        : header_(std::move(header))
    {}

    void
    addRow(std::vector<std::string> row)
    {
        rows_.push_back(std::move(row));
    }

    void
    print(std::ostream &os = std::cout) const
    {
        std::vector<std::size_t> width(header_.size(), 0);
        auto widen = [&](const std::vector<std::string> &row) {
            for (std::size_t i = 0; i < row.size() && i < width.size();
                 ++i) {
                width[i] = std::max(width[i], row[i].size());
            }
        };
        widen(header_);
        for (const auto &r : rows_)
            widen(r);
        auto emit = [&](const std::vector<std::string> &row) {
            for (std::size_t i = 0; i < row.size(); ++i) {
                os << std::left
                   << std::setw(static_cast<int>(width[i]) + 2) << row[i];
            }
            os << '\n';
        };
        emit(header_);
        for (std::size_t i = 0; i < width.size(); ++i)
            os << std::string(width[i], '-') << "  ";
        os << '\n';
        for (const auto &r : rows_)
            emit(r);
    }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Section banner. */
inline void
banner(const std::string &title)
{
    std::cout << "\n=== " << title << " ===\n\n";
}

} // namespace wo::benchutil

#endif // WO_BENCH_BENCH_UTIL_HH
