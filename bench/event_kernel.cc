/**
 * @file
 * Event-kernel benchmark: the pooled EventQueue against the historical
 * std::priority_queue<std::function> kernel it replaced
 * (sim/legacy_event_queue.hh).
 *
 *   $ event_kernel [--quick] [--json=FILE]
 *
 * Three workloads, each a schedule/dispatch loop driven by the same
 * deterministic Rng stream on both kernels (the fired (tick, order)
 * sequence is checksummed and must agree before anything is timed):
 *
 *  1. steady-churn — a rolling window of small-capture callbacks, the
 *     simulator's steady state (every event fits the in-record storage
 *     and recycles through the free list);
 *  2. msg-capture — callbacks capturing a Msg-sized payload by value,
 *     the interconnect delivery shape;
 *  3. large-capture — callbacks whose captures exceed the in-record
 *     storage and take the heap-spill path (the pooled kernel's worst
 *     case; expected near parity).
 *
 * All timings are best-of-N std::chrono::steady_clock measurements;
 * results are printed as a table and dumped as JSON (to --json=FILE,
 * else BENCH_event_kernel.json on a full run). --quick shrinks the event
 * counts and repetitions for CI smoke runs and writes JSON only when
 * given --json; the JSON schema is identical.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.hh"
#include "sim/event_queue.hh"
#include "oracle/legacy_event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

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

/** Order-sensitive checksum mixed in each callback: catches any firing
 * order divergence between the kernels, not just a count mismatch. */
inline void
mix(std::uint64_t &h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

/** Msg-sized payload (the interconnect delivery capture shape). */
struct MsgPayload
{
    std::uint64_t words[6] = {1, 2, 3, 4, 5, 6};
};

/** Payload deliberately larger than the in-record callable storage, to
 * force the pooled kernel onto its heap-spill path. */
struct BigPayload
{
    std::uint64_t words[16] = {};
};

/**
 * The dispatch loop: keep @p window events pending, firing and
 * rescheduling until @p events have executed. @p make_cb builds the
 * callback for one slot given (checksum-ref, queue-ref, slot seq).
 */
template <class Q, class MakeCb>
std::uint64_t
churn(std::uint64_t events, int window, std::uint64_t seed,
      MakeCb &&make_cb)
{
    Q q;
    Rng rng(seed);
    std::uint64_t h = 0;
    std::uint64_t scheduled = 0;
    auto arm = [&] {
        q.scheduleAfter(static_cast<Tick>(rng.below(64)) + 1,
                        make_cb(h, q, scheduled));
        ++scheduled;
    };
    for (int i = 0; i < window && scheduled < events; ++i)
        arm();
    while (q.executed() < events) {
        q.step();
        if (scheduled < events)
            arm();
    }
    return h;
}

struct Workload
{
    const char *label;
    const char *key;
    /** Run the workload on kernel Q; returns the firing checksum. */
    std::uint64_t (*legacy)(std::uint64_t, int, std::uint64_t);
    std::uint64_t (*pooled)(std::uint64_t, int, std::uint64_t);
};

template <class Q>
std::uint64_t
runSmall(std::uint64_t events, int window, std::uint64_t seed)
{
    return churn<Q>(events, window, seed,
                    [](std::uint64_t &h, Q &q, std::uint64_t seq) {
                        return [&h, &q, seq] { mix(h, q.now() + seq); };
                    });
}

template <class Q>
std::uint64_t
runMsg(std::uint64_t events, int window, std::uint64_t seed)
{
    return churn<Q>(events, window, seed,
                    [](std::uint64_t &h, Q &q, std::uint64_t seq) {
                        MsgPayload m;
                        m.words[0] = seq;
                        return [&h, &q, m] {
                            mix(h, q.now() + m.words[0]);
                        };
                    });
}

template <class Q>
std::uint64_t
runBig(std::uint64_t events, int window, std::uint64_t seed)
{
    return churn<Q>(events, window, seed,
                    [](std::uint64_t &h, Q &q, std::uint64_t seq) {
                        BigPayload b;
                        b.words[0] = seq;
                        return [&h, &q, b] {
                            mix(h, q.now() + b.words[0]);
                        };
                    });
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
            std::cerr << "usage: event_kernel [--quick] [--json=FILE]\n";
            return 2;
        }
    }

    const std::uint64_t events = quick ? 100000 : 1000000;
    const int window = 64;
    const int reps = quick ? 3 : 7;
    const std::uint64_t seed = 42;

    const Workload workloads[] = {
        {"steady-churn (inline capture)", "steady_churn",
         &runSmall<LegacyEventQueue>, &runSmall<EventQueue>},
        {"msg-capture (48B by value)", "msg_capture",
         &runMsg<LegacyEventQueue>, &runMsg<EventQueue>},
        {"large-capture (heap spill)", "large_capture",
         &runBig<LegacyEventQueue>, &runBig<EventQueue>},
    };

    StatSet stats;
    stats.set("quick", quick ? 1 : 0);
    stats.set("events", events);

    benchutil::banner(
        "Event kernel: pooled records vs priority_queue<function> (" +
        std::to_string(events) + " events, best of " +
        std::to_string(reps) + ")");
    benchutil::Table table(
        {"workload", "legacy", "pooled", "speedup", "Mev/s"});
    bool all_ok = true;
    for (const Workload &w : workloads) {
        // The two kernels must fire the identical (tick, order) stream
        // before their dispatch rates are worth comparing.
        std::uint64_t legacy_sum = w.legacy(events, window, seed);
        std::uint64_t pooled_sum = w.pooled(events, window, seed);
        if (legacy_sum != pooled_sum) {
            std::cerr << "BUG: kernels fired different sequences on "
                      << w.label << "\n";
            return 1;
        }
        std::uint64_t legacy_ns = bestNs(reps, [&] {
            if (w.legacy(events, window, seed) != legacy_sum)
                std::exit(1);
        });
        std::uint64_t pooled_ns = bestNs(reps, [&] {
            if (w.pooled(events, window, seed) != legacy_sum)
                std::exit(1);
        });
        std::uint64_t speedup_milli =
            pooled_ns ? legacy_ns * 1000 / pooled_ns : 0;
        std::uint64_t mev_s_milli =
            pooled_ns ? events * 1000000 / pooled_ns : 0;
        std::string key = std::string("event_kernel.") + w.key;
        stats.set(key + ".legacy_ns", legacy_ns);
        stats.set(key + ".pooled_ns", pooled_ns);
        stats.set(key + ".speedup_milli", speedup_milli);
        table.addRow({w.label, fmtNs(legacy_ns), fmtNs(pooled_ns),
                      fmtSpeedup(speedup_milli),
                      std::to_string(mev_s_milli / 1000) + "." +
                          std::to_string(mev_s_milli % 1000 / 100)});
        if (std::string(w.key) == "steady_churn" &&
            speedup_milli < 1500) {
            all_ok = false;
        }
    }
    table.print();
    std::cout << "\n(identical fired-event checksums verified before "
                 "timing; speedup = legacy / pooled wall time)\n";

    json_file = benchutil::recordFile(json_file, "event_kernel", quick);
    if (!json_file.empty()) {
        std::ofstream out(json_file);
        if (!out) {
            std::cerr << "event_kernel: cannot write " << json_file
                      << "\n";
            return 2;
        }
        stats.dumpJson(out);
        out << "\n";
        std::cout << "\njson written to " << json_file << "\n";
    }
    if (!all_ok) {
        std::cerr << "event_kernel: steady-churn speedup below the 1.5x "
                     "target\n";
    }
    return 0;
}
