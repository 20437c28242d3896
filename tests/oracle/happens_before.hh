/**
 * @file
 * Differential oracle for the DRF0 trace check: the paper's
 * happens-before relation, the irreflexive transitive closure of program
 * order (po) and synchronization order (so), materialized as a dense
 * bitset, plus the all-pairs race scan over it.
 *
 * Given an execution trace:
 *  - op1 po op2  iff both are by the same processor and op1 precedes op2 in
 *    program order;
 *  - op1 so op2  iff both are synchronization operations on the same
 *    location and op1 completes (commits) before op2;
 *  - hb = (po U so)+.
 *
 * The library's checkTrace() answers the same question with the streaming
 * vector-clock checker; tests and benches compare it against this one.
 */

#ifndef WO_ORACLE_HAPPENS_BEFORE_HH
#define WO_ORACLE_HAPPENS_BEFORE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "core/drf0_checker.hh"
#include "core/trace.hh"

namespace wo {

/**
 * The paper's so order: the resident synchronization accesses of
 * @p trace, per location, sorted by commit tick (ties by trace id).
 */
std::map<Addr, std::vector<int>> syncOrder(const ExecutionTrace &trace);

/**
 * Reachability structure for the happens-before relation of one execution.
 *
 * Construction is O(V * E / 64) via bitset propagation over a topological
 * order of the (po U so) edge DAG. If the edge relation is cyclic (which
 * cannot happen for executions of the idealized architecture, but can be
 * constructed artificially), the relation is flagged and queries fall back
 * to "everything on a cycle is unordered".
 */
class HappensBefore
{
  public:
    /** Build the relation for @p trace. */
    explicit HappensBefore(const ExecutionTrace &trace);

    /** True iff access @p a happens-before access @p b (trace ids). */
    bool ordered(int a, int b) const;

    /** True iff a hb b or b hb a. */
    bool orderedEither(int a, int b) const
    {
        return ordered(a, b) || ordered(b, a);
    }

    /** True if po U so was acyclic (a well-formed execution). */
    bool acyclic() const { return acyclic_; }

    /** Number of accesses covered. */
    int size() const { return n_; }

    /** The direct (po U so) edges used, as (from, to) pairs. */
    const std::vector<std::pair<int, int>> &edges() const { return edges_; }

  private:
    using BitRow = std::vector<std::uint64_t>;

    bool bit(const BitRow &row, int i) const
    {
        return (row[i >> 6] >> (i & 63)) & 1;
    }

    void setBit(BitRow &row, int i) { row[i >> 6] |= 1ull << (i & 63); }

    int n_ = 0;
    int words_ = 0;
    bool acyclic_ = true;
    std::vector<BitRow> reach_; ///< reach_[a] = set of b with a hb b
    std::vector<std::pair<int, int>> edges_;
};

/** Every conflicting pair the closure leaves unordered: a dense
 * O(n^2/64) closure plus an all-pairs conflict scan. Reports the same
 * races, in the same order, as checkTrace() on every acyclic trace; on a
 * cyclic one it leaves cycle members unordered instead of throwing. */
Drf0TraceReport checkTraceBitset(const ExecutionTrace &trace);

} // namespace wo

#endif // WO_ORACLE_HAPPENS_BEFORE_HH
