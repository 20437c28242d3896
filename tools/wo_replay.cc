/**
 * @file
 * wo-replay: record/replay front-end for the streaming trace pipeline.
 *
 *   $ wo-replay gen    [options] <file>    generate a workload trace
 *   $ wo-replay info   <file>              print header + per-thread sizes
 *   $ wo-replay verify [options] <file>    logical replay + streaming DRF0
 *   $ wo-replay sim    [options] <file>    simulator-accurate replay on a
 *                                          System from the machine registry
 *
 * gen options:
 *   --workload=NAME   spinlock | barrier | prodcons          [spinlock]
 *   --threads=N       worker threads in the trace            [4]
 *   --rounds=N        rounds per thread / items per producer [100]
 *   --ops=N           data accesses per critical section     [4]
 *   --seed=S          generator seed                         [1]
 *   --inject-race     plant one unsynchronized write pair
 *
 * verify options:
 *   --window=N        resident-trace window; 0 = whole trace [65536]
 *   --all-races       full race enumeration (oracle mode) instead of the
 *                     O(addrs) first-race scale mode
 *   --seed=S          interleaving seed                      [1]
 *   --json[=FILE]     machine-readable result (stdout or FILE)
 *
 * sim options:
 *   --machine=NAME    machine-registry entry                 [bus]
 *   --policy=NAME     sc|def1|def2drf0|def2drf1|relaxed      [def2drf0]
 *   --window=N        resident-trace window; 0 = whole trace [16384]
 *   --chunk=N         simulated ticks between checker drains [4096]
 *   --max-ticks=N     livelock tick limit           [machine default]
 *   --all-races       oracle-mode race enumeration
 *   --seed=S          network seed                           [1]
 *   --json[=FILE]     machine-readable result
 *
 * Numeric flags take a plain decimal: a sign, trailing text or a value
 * out of the flag's range is bad usage.
 *
 * Exit status: 0 race-free (or gen/info success), 1 races found or replay
 * failed, 2 bad usage / unreadable or malformed trace (truncated, thread
 * table out of range, unknown op byte).
 */

#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "replay/replay_engine.hh"
#include "replay/system_replay.hh"
#include "replay/trace_format.hh"
#include "replay/trace_gen.hh"
#include "sim/cli_parse.hh"
#include "system/machine_spec.hh"

namespace {

using namespace wo;

int
usage(std::ostream &os)
{
    os << "usage: wo-replay gen [--workload=spinlock|barrier|prodcons]\n"
          "                     [--threads=N] [--rounds=N] [--ops=N]\n"
          "                     [--seed=S] [--inject-race] <file>\n"
          "       wo-replay info <file>\n"
          "       wo-replay verify [--window=N] [--all-races] [--seed=S]\n"
          "                     [--json[=FILE]] <file>\n"
          "       wo-replay sim [--machine=NAME] [--policy=NAME]\n"
          "                     [--window=N] [--chunk=N] [--max-ticks=N]\n"
          "                     [--all-races] [--seed=S] [--json[=FILE]]\n"
          "                     <file>\n";
    return 2;
}

/**
 * Store the value of numeric flag @p arg ("--window=64") in @p out: a
 * plain decimal in [@p lo, max of T]. Anything else — empty, a sign,
 * trailing text, out of range — prints why and returns false (the
 * caller exits 2).
 */
template <typename T>
bool
numericFlag(const std::string &arg, T &out, T lo = 0)
{
    const std::size_t eq = arg.find('=');
    if (!parseDecimal(std::string_view(arg).substr(eq + 1), out, lo)) {
        std::cerr << "wo-replay: bad " << arg.substr(0, eq) << " '"
                  << arg.substr(eq + 1) << "': want an integer in [" << lo
                  << ", " << std::numeric_limits<T>::max() << "]\n";
        return false;
    }
    return true;
}

void
printRaces(std::ostream &os, const std::vector<Race> &races)
{
    std::size_t shown = std::min<std::size_t>(races.size(), 10);
    for (std::size_t i = 0; i < shown; ++i)
        os << "  race: access #" << races[i].first << " vs #"
           << races[i].second << "\n";
    if (races.size() > shown)
        os << "  ... " << races.size() - shown << " more\n";
}

/** Shared result-JSON shape for `verify` and `sim`. */
void
writeResultJson(std::ostream &os, const std::string &mode, bool ok,
                bool raceFree, const std::vector<Race> &races,
                std::uint64_t accesses, std::int64_t retired,
                int highWater)
{
    os << "{\n"
       << "  \"mode\": \"" << mode << "\",\n"
       << "  \"ok\": " << (ok ? "true" : "false") << ",\n"
       << "  \"race_free\": " << (raceFree ? "true" : "false") << ",\n"
       << "  \"races\": " << races.size() << ",\n"
       << "  \"accesses\": " << accesses << ",\n"
       << "  \"trace_events_retired\": " << retired << ",\n"
       << "  \"window_high_water\": " << highWater << "\n"
       << "}\n";
}

int
emitJson(const std::string &json_file, const std::string &mode, bool ok,
         bool raceFree, const std::vector<Race> &races,
         std::uint64_t accesses, std::int64_t retired, int highWater)
{
    if (json_file == "-") {
        writeResultJson(std::cout, mode, ok, raceFree, races, accesses,
                        retired, highWater);
        return 0;
    }
    std::ofstream out(json_file);
    if (!out) {
        std::cerr << "wo-replay: cannot write " << json_file << "\n";
        return 2;
    }
    writeResultJson(out, mode, ok, raceFree, races, accesses, retired,
                    highWater);
    std::cout << "json written to " << json_file << "\n";
    return 0;
}

int
cmdGen(const std::vector<std::string> &args)
{
    TraceGenConfig cfg;
    std::string workload = "spinlock";
    std::string file;
    for (const std::string &arg : args) {
        if (arg.rfind("--workload=", 0) == 0)
            workload = arg.substr(11);
        else if (arg.rfind("--threads=", 0) == 0) {
            if (!numericFlag(arg, cfg.threads, 1))
                return 2;
        } else if (arg.rfind("--rounds=", 0) == 0) {
            if (!numericFlag(arg, cfg.rounds, 1))
                return 2;
        } else if (arg.rfind("--ops=", 0) == 0) {
            if (!numericFlag(arg, cfg.opsPerRound, 1))
                return 2;
        } else if (arg.rfind("--seed=", 0) == 0) {
            if (!numericFlag(arg, cfg.seed))
                return 2;
        } else if (arg == "--inject-race")
            cfg.injectRace = true;
        else if (!arg.empty() && arg[0] == '-')
            return usage(std::cerr);
        else if (file.empty())
            file = arg;
        else
            return usage(std::cerr);
    }
    if (file.empty())
        return usage(std::cerr);
    if (!writeWorkloadTrace(workload, file, cfg)) {
        std::cerr << "wo-replay: cannot generate '" << workload
                  << "' trace at " << file << "\n";
        return 2;
    }
    ReplayTraceReader reader;
    if (!reader.open(file)) {
        std::cerr << "wo-replay: generated trace unreadable?\n";
        return 2;
    }
    std::cout << workload << " trace: " << reader.numThreads()
              << " threads, " << reader.totalRecords() << " records -> "
              << file << "\n";
    return 0;
}

int
cmdInfo(const std::vector<std::string> &args)
{
    if (args.size() != 1 || args[0].empty() || args[0][0] == '-')
        return usage(std::cerr);
    ReplayTraceReader reader;
    if (!reader.open(args[0])) {
        std::cerr << "wo-replay: cannot read trace " << args[0] << ": "
                  << reader.error() << "\n";
        return 2;
    }
    // Read every record once, so a damaged record body fails here too.
    ReplayRecord r;
    for (int t = 0; t < reader.numThreads(); ++t) {
        while (reader.next(t, r)) {
        }
    }
    if (!reader.ok()) {
        std::cerr << "wo-replay: malformed trace " << args[0] << ": "
                  << reader.error() << "\n";
        return 2;
    }
    reader.rewind();
    std::cout << args[0] << ": " << reader.numThreads() << " threads, "
              << reader.totalRecords() << " records, "
              << reader.initials().size() << " initial values\n";
    for (int t = 0; t < reader.numThreads(); ++t)
        std::cout << "  thread " << t << ": " << reader.remaining(t)
                  << " records\n";
    return 0;
}

int
cmdVerify(const std::vector<std::string> &args)
{
    ReplayOptions opt;
    std::string file;
    std::string json_file;
    bool json = false;
    for (const std::string &arg : args) {
        if (arg.rfind("--window=", 0) == 0) {
            if (!numericFlag(arg, opt.window))
                return 2;
        } else if (arg == "--all-races")
            opt.mode = RaceDetectMode::AllRaces;
        else if (arg.rfind("--seed=", 0) == 0) {
            if (!numericFlag(arg, opt.seed))
                return 2;
        } else if (arg == "--json")
            json = true;
        else if (arg.rfind("--json=", 0) == 0) {
            json = true;
            json_file = arg.substr(7);
        } else if (!arg.empty() && arg[0] == '-')
            return usage(std::cerr);
        else if (file.empty())
            file = arg;
        else
            return usage(std::cerr);
    }
    if (file.empty())
        return usage(std::cerr);

    ReplayTraceReader reader;
    if (!reader.open(file)) {
        std::cerr << "wo-replay: cannot read trace " << file << ": "
                  << reader.error() << "\n";
        return 2;
    }
    ReplayEngine engine(reader, opt);
    ReplayResult res = engine.run();
    if (!reader.ok()) {
        std::cerr << "wo-replay: " << res.error << "\n";
        return 2;
    }
    if (!res.ok) {
        std::cerr << "wo-replay: " << res.error << "\n";
        return 1;
    }
    std::cout << file << ": " << res.accesses << " accesses, "
              << (res.raceFree ? "race-free under DRF0"
                               : "DATA RACES FOUND")
              << " (window high-water " << res.windowHighWater << ", "
              << res.eventsRetired << " retired)\n";
    printRaces(std::cout, res.races);
    if (json) {
        int rc = emitJson(json_file.empty() ? "-" : json_file, "verify",
                          res.ok, res.raceFree, res.races, res.accesses,
                          res.eventsRetired, res.windowHighWater);
        if (rc)
            return rc;
    }
    return res.raceFree ? 0 : 1;
}

int
cmdSim(const std::vector<std::string> &args)
{
    SystemReplayOptions opt;
    std::string file;
    std::string json_file;
    bool json = false;
    for (const std::string &arg : args) {
        if (arg.rfind("--machine=", 0) == 0)
            opt.machine = arg.substr(10);
        else if (arg.rfind("--policy=", 0) == 0) {
            if (!parsePolicyName(arg.substr(9), &opt.policy)) {
                std::cerr << "wo-replay: bad --policy '" << arg.substr(9)
                          << "'\n";
                return 2;
            }
        } else if (arg.rfind("--window=", 0) == 0) {
            if (!numericFlag(arg, opt.window))
                return 2;
        } else if (arg.rfind("--chunk=", 0) == 0) {
            if (!numericFlag(arg, opt.chunkTicks, Tick{1}))
                return 2;
        } else if (arg.rfind("--max-ticks=", 0) == 0) {
            if (!numericFlag(arg, opt.maxTicks, Tick{1}))
                return 2;
        } else if (arg == "--all-races")
            opt.mode = RaceDetectMode::AllRaces;
        else if (arg.rfind("--seed=", 0) == 0) {
            if (!numericFlag(arg, opt.netSeed))
                return 2;
        } else if (arg == "--json")
            json = true;
        else if (arg.rfind("--json=", 0) == 0) {
            json = true;
            json_file = arg.substr(7);
        } else if (!arg.empty() && arg[0] == '-')
            return usage(std::cerr);
        else if (file.empty())
            file = arg;
        else
            return usage(std::cerr);
    }
    if (file.empty())
        return usage(std::cerr);

    ReplayTraceReader reader;
    if (!reader.open(file)) {
        std::cerr << "wo-replay: cannot read trace " << file << ": "
                  << reader.error() << "\n";
        return 2;
    }
    SystemReplayResult res;
    try {
        res = replayOnSystem(reader, opt);
    } catch (const std::exception &e) {
        std::cerr << "wo-replay: " << e.what() << "\n";
        return 2;
    }
    if (!res.ok) {
        std::cerr << "wo-replay: " << res.error << "\n";
        return 1;
    }
    std::cout << file << " on " << opt.machine << ": " << res.accesses
              << " accesses in " << res.finishTick << " ticks, "
              << (res.raceFree ? "race-free under DRF0"
                               : "DATA RACES FOUND")
              << " (window high-water " << res.windowHighWater << ", "
              << res.eventsRetired << " retired)\n";
    printRaces(std::cout, res.races);
    if (json) {
        int rc = emitJson(json_file.empty() ? "-" : json_file, "sim",
                          res.ok, res.raceFree, res.races, res.accesses,
                          res.eventsRetired, res.windowHighWater);
        if (rc)
            return rc;
    }
    return res.raceFree ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr);
    std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (cmd == "--help" || cmd == "-h") {
        usage(std::cout);
        return 0;
    }
    if (cmd == "gen")
        return cmdGen(args);
    if (cmd == "info")
        return cmdInfo(args);
    if (cmd == "verify")
        return cmdVerify(args);
    if (cmd == "sim")
        return cmdSim(args);
    std::cerr << "wo-replay: unknown command '" << cmd << "'\n";
    return usage(std::cerr);
}
