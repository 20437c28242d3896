#include "core/drf0_checker.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/idealized.hh"
#include "core/stream_checker.hh"
#include "sim/rng.hh"

namespace wo {

namespace {

/** Sort races the way the historical bitset checker enumerated them:
 * addresses ascending, then pair ids ascending (both members of a pair
 * share an address, so keying on the first suffices). */
void
normalizeRaces(const ExecutionTrace &trace, std::vector<Race> &races)
{
    std::sort(races.begin(), races.end(),
              [&trace](const Race &a, const Race &b) {
                  Addr aa = trace.at(a.first).addr;
                  Addr ab = trace.at(b.first).addr;
                  if (aa != ab)
                      return aa < ab;
                  return a < b;
              });
}

} // namespace

Drf0TraceReport
checkTrace(const ExecutionTrace &trace)
{
    Drf0TraceReport report;
    if (trace.size() == 0)
        return report;

    // The streaming checker takes po from record order; a trace whose
    // poIndex disagrees would be checked against the wrong po.
    for (ProcId p = 0; p < trace.numProcs(); ++p) {
        const std::vector<int> &ids = trace.accessesOf(p);
        if (!std::is_sorted(ids.begin(), ids.end()))
            throw std::invalid_argument(
                "checkTrace: P" + std::to_string(p) +
                "'s accesses are not recorded in program order");
    }
    StreamingDrf0Checker checker(trace.numProcs(), RaceDetectMode::AllRaces);
    checker.finish(trace);
    if (checker.hbCyclic())
        throw std::invalid_argument(
            "checkTrace: (po U so) is cyclic; no execution has this trace");
    report.races = checker.races();
    report.raceFree = report.races.empty();
    normalizeRaces(trace, report.races);
    return report;
}

Drf0ProgramReport
checkProgramSampled(const MultiProgram &program, int num_schedules,
                    std::uint64_t seed, int max_steps_per_execution)
{
    Drf0ProgramReport report;
    report.bounded = true;
    Rng rng(seed);
    int nprocs = program.numProcs();
    // One machine and one detector serve every schedule: a reset costs
    // only what the previous execution touched.
    IdealizedMachine m(program);
    RaceDetector det(nprocs, RaceDetectMode::FirstRace);
    m.attachRaceDetector(&det);
    auto run = [&](Rng &draws, bool stopAtRace) {
        int steps = 0;
        while (!m.allHalted() && steps < max_steps_per_execution) {
            // Pick a random non-halted processor.
            ProcId p = static_cast<ProcId>(draws.below(nprocs));
            while (m.halted(p))
                p = p + 1 == nprocs ? 0 : p + 1;
            m.step(p);
            ++steps;
            if (stopAtRace && det.hasRace())
                break; // online early exit: first race decides
        }
    };
    for (int s = 0; s < num_schedules && report.obeysDrf0; ++s) {
        // Snapshot the RNG so a racy schedule can be replayed in full
        // for the witness (the stream itself is shared across schedules,
        // exactly as the offline checker consumed it).
        Rng sched_rng = rng;
        m.reset();
        det.reset(nprocs);
        run(rng, true);
        ++report.executions;
        if (det.hasRace()) {
            report.obeysDrf0 = false;
            // Rebuild the full-trace witness the offline checker would
            // have reported: replay this schedule to completion.
            m.attachRaceDetector(nullptr);
            m.reset();
            run(sched_rng, false);
            report.witness = m.trace();
            report.witnessReport = checkTrace(report.witness);
        }
    }
    return report;
}

std::string
Drf0TraceReport::toString(const ExecutionTrace &trace) const
{
    std::ostringstream oss;
    if (raceFree) {
        oss << "race-free (DRF0)";
        return oss.str();
    }
    oss << races.size() << " race(s):\n";
    for (const auto &r : races) {
        oss << "  " << trace.at(r.first).toString() << "  ||  "
            << trace.at(r.second).toString() << '\n';
    }
    return oss.str();
}

} // namespace wo
