/**
 * @file
 * DRF0 (Data-Race-Free-0) checking — Definition 3 of the paper.
 *
 * A program obeys DRF0 iff (1) all synchronization operations are
 * hardware-recognizable and access exactly one location (guaranteed by our
 * ISA), and (2) for ANY execution on the idealized architecture (atomic,
 * program-order), all conflicting accesses are ordered by the
 * happens-before relation of that execution.
 *
 * Two entry points are provided:
 *  - checkTrace(): classify one concrete execution (used for the Figure 2
 *    example and counter-example, and for dynamic race reporting);
 *  - checkProgramSampled(): classify seeded random idealized executions
 *    of a program. A race found decides the program racy; a clean run is
 *    evidence for the Definition 3 quantifier, not proof. (Exhaustive
 *    interleaving enumeration, the literal quantifier, is a test oracle
 *    in tests/oracle/interleavings.hh.)
 *
 * Race detection runs on the vector-clock engine (core/race_detector.hh),
 * O(n * P) per trace: checkTrace() is the streaming checker
 * (core/stream_checker.hh) run over the whole trace in one batch, and the
 * sampled program check attaches a detector to the interpreter so it can
 * abort an execution at its first race.
 */

#ifndef WO_CORE_DRF0_CHECKER_HH
#define WO_CORE_DRF0_CHECKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/race_detector.hh"
#include "core/trace.hh"
#include "cpu/program.hh"

namespace wo {

/** Outcome of checking one execution trace. */
struct Drf0TraceReport
{
    bool raceFree = true;

    /** Unordered conflicting pairs, by address then id pair. */
    std::vector<Race> races;

    /** Render races against @p trace for human consumption. */
    std::string toString(const ExecutionTrace &trace) const;
};

/** Outcome of checking a program over idealized executions. */
struct Drf0ProgramReport
{
    /** True iff every explored idealized execution was race-free. */
    bool obeysDrf0 = true;

    /** True if the explored executions may not be all of them, so the
     * verdict is only a bounded guarantee. */
    bool bounded = false;

    /** Number of idealized executions explored. */
    std::uint64_t executions = 0;

    /** A witness racy execution, when one was found. */
    ExecutionTrace witness;
    Drf0TraceReport witnessReport;
};

/** Classify one execution: find every conflicting pair not ordered by the
 * happens-before relation of the trace. Each processor's accesses must be
 * recorded in program order (poIndex ascending with trace id), as every
 * machine records them.
 *
 * @throws std::invalid_argument if (po U so) is cyclic or a processor's
 * record order disagrees with its poIndex order — neither can come from
 * an execution, only from a hand-built trace. */
Drf0TraceReport checkTrace(const ExecutionTrace &trace);

/**
 * Bounded DRF0 check over randomly scheduled idealized executions.
 *
 * Run @p num_schedules seeded random interleavings and race-check each
 * trace; this scales to programs with unbounded spin loops, whose
 * interleavings cannot be enumerated. A race found proves the
 * program violates DRF0; a clean run is evidence, not proof (the report
 * is always marked bounded).
 *
 * Races are detected online by a vector-clock detector attached to the
 * interpreter, so a racy schedule is abandoned at its first race; the
 * witness is then rebuilt by replaying that schedule to completion, which
 * keeps the report identical to the offline full-trace check.
 */
Drf0ProgramReport checkProgramSampled(const MultiProgram &program,
                                      int num_schedules,
                                      std::uint64_t seed = 1,
                                      int max_steps_per_execution = 10000);

} // namespace wo

#endif // WO_CORE_DRF0_CHECKER_HH
