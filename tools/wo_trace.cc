/**
 * @file
 * wo-trace: replay one litmus test on one machine under one policy with
 * structured tracing enabled, and emit a timeline plus a latency /
 * stall-attribution report.
 *
 *   $ wo-trace [options] <test.litmus>
 *
 * Options:
 *   --machine=NAME       machine-registry entry to run on     [net]
 *   --policy=NAME        sc,def1,def2drf0,def2drf1,relaxed    [def2drf0]
 *   --seed=S             network-jitter seed                  [1]
 *   --out=FILE           Chrome-trace JSON output  [<test>.trace.json]
 *   --trace-filter=LIST  components to trace: proc,cache,dir,net,mem,
 *                        port or "all"                        [all]
 *   --text               also print the compact text timeline
 *
 * The JSON file loads in chrome://tracing or https://ui.perfetto.dev:
 * per-processor stall slices (named by reason), issue->globally-
 * performed spans per access, reserve-bit spans per cache line, and the
 * outstanding-access counter track.
 *
 * Exit status: 0 run completed, 1 run did not complete (tick-limit or
 * protocol stall — the trace is still written), 2 usage/parse errors.
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "obs/trace_export.hh"
#include "obs/trace_sink.hh"
#include "sim/cli_parse.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"

namespace {

using namespace wo;
using namespace wo::litmus_dsl;

int
usage(std::ostream &os)
{
    os << "usage: wo-trace [--machine=NAME] [--policy=NAME] [--seed=S]\n"
          "                [--out=FILE] [--trace-filter=LIST] [--text]\n"
          "                <test.litmus>\n";
    return 2;
}

/** "dekker.litmus" -> "dekker" (directories stripped). */
std::string
stemOf(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    std::size_t dot = base.find_last_of('.');
    return dot == std::string::npos ? base : base.substr(0, dot);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string machine = "net";
    PolicyKind policy = PolicyKind::Def2Drf0;
    std::uint64_t seed = 1;
    std::string out_file;
    std::uint32_t mask = kAllTraceComps;
    bool text = false;
    std::string test_file;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--machine=", 0) == 0) {
            machine = arg.substr(10);
        } else if (arg.rfind("--policy=", 0) == 0) {
            if (!parsePolicyName(arg.substr(9), &policy)) {
                std::cerr << "wo-trace: unknown policy '" << arg.substr(9)
                          << "'\n";
                return 2;
            }
        } else if (arg.rfind("--seed=", 0) == 0) {
            if (!parseDecimal(std::string_view(arg).substr(7), seed)) {
                std::cerr << "wo-trace: bad --seed '" << arg.substr(7)
                          << "': want a non-negative integer\n";
                return 2;
            }
        } else if (arg.rfind("--out=", 0) == 0) {
            out_file = arg.substr(6);
        } else if (arg.rfind("--trace-filter=", 0) == 0) {
            try {
                mask = parseTraceFilter(arg.substr(15));
            } catch (const std::exception &e) {
                std::cerr << "wo-trace: " << e.what() << "\n";
                return 2;
            }
        } else if (arg == "--text") {
            text = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "wo-trace: unknown option '" << arg << "'\n";
            return usage(std::cerr);
        } else if (test_file.empty()) {
            test_file = arg;
        } else {
            std::cerr << "wo-trace: exactly one test file expected\n";
            return usage(std::cerr);
        }
    }
    if (test_file.empty())
        return usage(std::cerr);
    if (out_file.empty())
        out_file = stemOf(test_file) + ".trace.json";

    CompiledLitmus test;
    SystemConfig cfg;
    try {
        test = compileLitmusFile(test_file);
        cfg = machineOrThrow(machine).config(policy, seed);
    } catch (const std::exception &e) {
        std::cerr << "wo-trace: " << e.what() << "\n";
        return 2;
    }

    TraceBuffer buf(mask);
    cfg.traceSink = &buf;

    bool finished = false;
    try {
        System sys(test.program, cfg);
        finished = sys.run();

        std::cout << "test    : " << test.name << "  (" << test.file
                  << ")\n";
        std::cout << "machine : " << machine << "   policy: "
                  << toString(policy) << "   seed: " << seed << "\n";
        std::cout << "clause  : " << toString(test.clause) << "\n";
        std::cout << "run     : "
                  << (finished ? "completed" : "DID NOT COMPLETE")
                  << " at tick " << sys.finishTick() << ", "
                  << buf.events().size() << " events recorded\n";

        if (finished) {
            RunResult r = sys.result();
            for (const auto &[loc, addr] : test.addrOf) {
                if (!r.finalMemory.count(addr))
                    r.finalMemory[addr] = test.program.initialValue(addr);
            }
            bool hit = evalCond(test.clause.cond, r, test.addrOf);
            std::cout << "clause condition "
                      << (hit ? "OBSERVED" : "not observed")
                      << " in this run\n";
        }

        // Stall attribution: per-reason cycles always sum to the total.
        std::cout << "\nstall attribution (cycles):\n";
        std::cout << "  " << std::left << std::setw(8) << "proc"
                  << std::right << std::setw(10) << "total";
        for (int r = 0; r < kNumStallReasons; ++r) {
            std::cout << std::setw(17)
                      << toString(static_cast<StallReason>(r));
        }
        std::cout << "\n";
        for (ProcId p = 0; p < test.program.numProcs(); ++p) {
            const Processor &proc = sys.processor(p);
            std::cout << "  " << std::left << std::setw(8)
                      << ("proc" + std::to_string(p)) << std::right
                      << std::setw(10) << proc.stallCycles();
            for (int r = 0; r < kNumStallReasons; ++r) {
                StallReason reason = static_cast<StallReason>(r);
                std::cout << std::setw(17) << proc.stallCyclesFor(reason);
            }
            std::cout << "\n";
        }

        std::cout << "\nissue -> globally-performed latency:\n";
        for (ProcId p = 0; p < test.program.numProcs(); ++p) {
            const LatencyHistogram &h = sys.processor(p).issueGpHistogram();
            std::cout << "  proc" << p << ":\n";
            h.render(std::cout, 4);
        }
        std::cout << "\nnetwork message latency:\n";
        sys.interconnect().msgLatencyHistogram().render(std::cout, 2);

        if (text) {
            std::cout << "\ntimeline:\n";
            renderTraceText(std::cout, buf.events());
        }
    } catch (const std::exception &e) {
        std::cerr << "wo-trace: " << e.what() << "\n";
        return 2;
    }

    std::ofstream out(out_file);
    if (!out) {
        std::cerr << "wo-trace: cannot write " << out_file << "\n";
        return 2;
    }
    writeChromeTrace(out, buf.events());
    std::cout << "\nchrome trace written to " << out_file
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
    return finished ? 0 : 1;
}
