/**
 * @file
 * The benchmark's four workloads, each runnable two ways:
 *
 *  - run(): one repetition through the library's public entry points
 *    (litmus_dsl::runCorpus + printReport, replayOnSystem, or for
 *    contract_random the campaign the benchmark composes itself). This
 *    is what the end-to-end metrics time.
 *  - runTraced(): the same repetition re-driven call by call from public
 *    functions (SystemPool::acquire, System::run / runStreaming,
 *    verifySc, checkProgramSampled, axiom::enumerateAllowed,
 *    CoverageMap::merge, printReport ...) with a span around each call.
 *    Its counts must equal run()'s, which the harness checks, so the
 *    per-layer numbers describe the same program the end-to-end numbers
 *    do.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench {

/** Named exact counts: verdict summaries and simulated statistics. */
using Counts = std::map<std::string, std::uint64_t>;

/** Names whose value differs between @p a and @p b (or that only one
 * side has), each rendered "name: a -> b". */
std::vector<std::string> diffCounts(const Counts &a, const Counts &b);

/** What one repetition produced. */
struct RepResult
{
    double wallS = 0;

    std::uint64_t ops = 0;      ///< operations attempted in this rep
    std::uint64_t failed = 0;   ///< of which failed
    std::uint64_t accesses = 0; ///< trace accesses produced and checked

    /** Failed correctness checks (empty = correct). */
    std::vector<std::string> errors;

    /** Verdict counts; equal across reps of one seed and between run()
     * and runTraced(). */
    Counts summary;

    /** Every simulated statistic (System::stats()) summed over the rep's
     * runs; empty when the entry point does not expose it. */
    Counts simStats;

    /** Per-layer counters (runTraced only; times come from the log). */
    std::map<std::string, double> layers;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate or parse the inputs for @p seed. Spans in @p log. */
    virtual void setup(std::uint64_t seed, SpanLog *log) = 0;

    /** One repetition through the public entry points. */
    virtual RepResult run() = 0;

    /** One repetition re-driven call by call, with spans in @p log
     * (null: no spans). */
    virtual RepResult runTraced(SpanLog *log) = 0;

    /** Size of one repetition, e.g. "19 tests x 17 machines x ...". */
    virtual std::string runLength() const = 0;

    /** Digest of the generated inputs (differs between seeds). */
    virtual std::uint64_t inputDigest() const = 0;
};

/** The workload names, in benchmark order. */
const std::vector<std::string> &workloadNames();

/** Construct workload @p name with @p threads campaign workers; null
 * for an unknown name. @p scratchDir receives temporary files. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       int threads,
                                       const std::string &scratchDir);

/** cpu.* / coherence.* / mem.* totals of a System::stats() sum. */
Counts simCounters(const Counts &stats);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
