/**
 * @file
 * Differential oracle for the idealized machine's outcome set: brute-force
 * enumeration of every interleaving of a program on the paper's idealized
 * architecture (core/idealized.hh).
 *
 *  - enumerateOutcomes(): the set of outcomes some interleaving produces,
 *    memoized over machine states;
 *  - forEachExecution(): every interleaving with its trace, unmemoized;
 *  - checkProgram(): Definition 3 read literally, every interleaving
 *    race-checked with the library's checkTrace().
 *
 * The library answers the outcome-set question with the axiomatic "sc"
 * model (axiom::enumerateAllowed) and the DRF0 question by sampling
 * (checkProgramSampled); tests and benches compare those against these.
 *
 * The searches copy the machine at each branch point (the interpreter
 * keeps no undo log), moving it into the last runnable branch; the memo
 * key is built from the machine's public state (program counters, halt
 * flags and result()).
 */

#ifndef WO_ORACLE_INTERLEAVINGS_HH
#define WO_ORACLE_INTERLEAVINGS_HH

#include <cstdint>
#include <functional>
#include <set>

#include "core/drf0_checker.hh"
#include "core/trace.hh"
#include "cpu/program.hh"

namespace wo {

/** Limits on exhaustive enumeration. */
struct EnumLimits
{
    /** Max instructions along any single interleaving. */
    int maxStepsPerExecution = 10000;

    /** Max complete interleavings (unmemoized enumeration). */
    std::uint64_t maxExecutions = 2000000;

    /** Max distinct states (memoized outcome enumeration). */
    std::uint64_t maxStates = 5000000;
};

/** Result of outcome enumeration. */
struct OutcomeSet
{
    /** Every outcome reachable by some idealized execution. */
    std::set<RunResult> outcomes;

    /** True if a cap was hit, making the set a lower bound. */
    bool bounded = false;

    /** Distinct machine states visited. */
    std::uint64_t statesVisited = 0;
};

/**
 * Enumerate the full set of sequentially consistent outcomes of
 * @p program.
 */
OutcomeSet enumerateOutcomes(const MultiProgram &program,
                             const EnumLimits &limits = {});

/**
 * Visit every idealized execution of @p program (every interleaving).
 *
 * The callback receives the trace and outcome; @c complete is false when
 * the interleaving was cut off by the per-execution step cap. Return false
 * from the callback to stop the enumeration early.
 *
 * @return true if the enumeration covered everything (no caps hit and not
 *         stopped early).
 */
bool forEachExecution(
    const MultiProgram &program, const EnumLimits &limits,
    const std::function<bool(const ExecutionTrace &, const RunResult &,
                             bool complete)> &visit);

/** Limits for exhaustive program checking. */
struct Drf0CheckLimits
{
    /** Max instructions executed along one interleaving. */
    int maxStepsPerExecution = 300;

    /** Max interleavings explored (complete or capped). Programs with
     * unbounded spin loops hit this cap and get a bounded verdict. */
    std::uint64_t maxExecutions = 50000;
};

/** Exhaustively check a program over idealized executions
 * (Definition 3); stops at the first racy execution, its witness. */
Drf0ProgramReport checkProgram(const MultiProgram &program,
                               const Drf0CheckLimits &limits = {});

} // namespace wo

#endif // WO_ORACLE_INTERLEAVINGS_HH
