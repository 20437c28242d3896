/**
 * @file
 * Per-processor control-flow path enumeration for the axiomatic
 * backend.
 *
 * A candidate execution needs each processor's dynamic event sequence,
 * but the litmus programs have value-dependent branches and spin
 * loops, so the event sequence is not static. The enumerator runs each
 * processor's program *locally*: register state is concrete, every
 * read branches over the values the location could possibly hold, and
 * each complete run to Halt yields one LocalPath (its event sequence
 * plus final registers).
 *
 * Possible read values are computed by a fixpoint: V(a) starts at the
 * initial value of a, each round enumerates all paths under the
 * current V and folds every written value back in, until nothing new
 * appears. The fixpoint is *grounded*: a value enters V only if some
 * chain of writes derives it from initial values, which is exactly the
 * justification a reads-from assignment must provide later — so no
 * out-of-thin-air values are ever enumerated. A round bound of
 * (total write events) + 1 suffices for completeness: in any single
 * candidate a value's derivation chain passes through distinct write
 * events, so its depth is bounded by the candidate's write count.
 *
 * Spin loops are cut by *stutter pruning*: a path that returns to a
 * previously visited (pc, registers) state has merely replayed reads
 * of unchanged values (or rewritten identical immediates), so every
 * outcome reachable by continuing is already reachable from the first
 * visit; the revisit is pruned. The pruning is suppressed — and the
 * hard event cap relied on instead — when the cycle contains a
 * register-sourced write, whose repetition could place fresh values in
 * memory.
 */

#ifndef WO_AXIOM_PATHS_HH
#define WO_AXIOM_PATHS_HH

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "axiom/event.hh"

namespace wo {
namespace axiom {

/** One complete (halting) local execution of one processor. */
struct LocalPath
{
    /** Events in program order; proc/poIndex filled in, id unset. */
    std::vector<AxEvent> events;

    /** Register state at Halt. */
    std::vector<Word> finalRegs;

    /** Write events on this path (fixpoint round accounting). */
    int writes = 0;
};

/** Result of enumerating every processor's paths. */
struct PathSet
{
    std::vector<std::vector<LocalPath>> perProc;

    /** Possible-value sets per address at the fixpoint. */
    std::map<Addr, std::set<Word>> values;

    /** False when a cap cut the enumeration: the path set (and hence
     * any allowed-outcome set built on it) is a lower bound only. */
    bool complete = true;

    int valueRounds = 0;
    std::uint64_t pathsEmitted = 0;
    std::uint64_t stutterPruned = 0;
};

/** Enumerate every processor's stutter-free halting paths. */
PathSet enumeratePaths(const MultiProgram &program);

} // namespace axiom
} // namespace wo

#endif // WO_AXIOM_PATHS_HH
