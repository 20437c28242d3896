/**
 * @file
 * ExecutionTrace: the record of one execution's dynamic memory accesses,
 * plus RunResult: the paper's notion of the "result" of an execution.
 */

#ifndef WO_CORE_TRACE_HH
#define WO_CORE_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/access.hh"
#include "sim/types.hh"

namespace wo {

/**
 * All dynamic memory accesses of one execution.
 *
 * Accesses are stored in the order they were recorded (commit order for the
 * hardware simulator, execution order for the idealized architecture).
 * Initializing writes are modelled implicitly: every location starts at an
 * initial value, ordered before all program accesses — exactly the paper's
 * hypothetical initializing write + synchronization preamble.
 *
 * The per-processor id index is maintained incrementally by
 * add()/popFront(), so accessesOf() returns a cached const
 * reference instead of scanning and copying the trace on every call.
 *
 * Windowed retention: popFront() retires the oldest accesses so only a
 * sliding window stays resident. Trace ids are stable — they keep naming
 * the same access after retirement — but at()/mutableAt() may only be
 * called for ids in [firstId(), size()). The invariant
 * retired() + resident() == size() holds at all times, and
 * windowHighWater() records the largest resident population ever reached,
 * so bounded-retention behaviour is observable.
 */
class ExecutionTrace
{
  public:
    ExecutionTrace() = default;

    /** Append an access; assigns and returns its trace id. Inline: it
     * is the recording hot path of every machine. */
    int
    add(const Access &a)
    {
        const int id = base_ + static_cast<int>(accesses_.size());
        if (a.proc >= 0)
            indexAccess(a.proc, id);
        accesses_.push_back(a);
        accesses_.back().id = id;
        if (static_cast<int>(accesses_.size()) > high_water_)
            high_water_ = static_cast<int>(accesses_.size());
        return id;
    }

    /** Pre-size storage for @p n accesses (hot recording loops). */
    void reserve(int n);

    /** One past the largest trace id ever assigned. Equals the number of
     * accesses when nothing has been retired (the common, whole-trace
     * case), so full-trace callers iterate ids in [0, size()) unchanged. */
    int size() const { return base_ + static_cast<int>(accesses_.size()); }

    /** Smallest trace id still resident (0 until popFront is used). */
    int firstId() const { return base_; }

    /** Number of accesses currently resident in the window. */
    int resident() const { return static_cast<int>(accesses_.size()); }

    /** Number of accesses retired by popFront() since the last clear(). */
    std::int64_t retired() const { return base_; }

    /** Largest resident population ever reached since the last clear(). */
    int windowHighWater() const { return high_water_; }

    /** Access by trace id (must be >= firstId()). */
    const Access &at(int id) const
    {
        return accesses_.at(static_cast<std::size_t>(id - base_));
    }

    /** Mutable access (the simulator patches gp times in later). The id
     * must still be resident: the replay drain only retires accesses whose
     * commit/gp ticks are final. */
    Access &mutableAt(int id)
    {
        return accesses_.at(static_cast<std::size_t>(id - base_));
    }

    /** All resident accesses, oldest first. */
    const std::vector<Access> &accesses() const { return accesses_; }

    /** Retire the @p n oldest resident accesses. Their ids remain
     * assigned (size() does not shrink) but they can no longer be
     * inspected; the per-proc index caches are pruned and invalidated. */
    void popFront(int n);

    /** Drop every access, index, initial value and retention counter,
     * keeping allocated capacity where the containers allow (System
     * reuse). */
    void clear();

    /** clear(), but keep the initial values: restart recording the same
     * program's next execution (idealized-machine reset). */
    void clearAccesses();

    /** Number of processors appearing in the trace. */
    int numProcs() const { return nprocs_; }

    /** Trace ids of @p proc's resident accesses, sorted by program order.
     * The reference is valid until the next add()/popFront(). */
    const std::vector<int> &accessesOf(ProcId proc) const;

    /** Distinct addresses appearing in the resident window. */
    std::vector<Addr> addrs() const;

    /** Set the initial value of a location. */
    void setInitial(Addr addr, Word value);

    /** Initial value of @p addr (default 0). */
    Word initialValue(Addr addr) const;

    /** All explicitly-set initial values. */
    const std::map<Addr, Word> &initials() const { return initials_; }

    /** Multi-line dump for debugging and reports (resident window only). */
    std::string toString() const;

  private:
    /** Append @p id to processor @p p's id list. */
    void
    indexAccess(ProcId p, int id)
    {
        if (p >= nprocs_) {
            nprocs_ = p + 1;
            if (byProc_.size() < static_cast<std::size_t>(nprocs_))
                byProc_.resize(static_cast<std::size_t>(nprocs_));
        }
        IndexList &pi = byProc_[static_cast<std::size_t>(p)];
        pi.ids.push_back(id);
        pi.dirty = true;
    }

    /** Incrementally maintained id list plus its lazily sorted view. */
    struct IndexList
    {
        std::vector<int> ids; ///< append order
        mutable std::vector<int> sorted;
        mutable bool dirty = true;
    };

    std::vector<Access> accesses_;
    std::map<Addr, Word> initials_;
    std::vector<IndexList> byProc_; ///< may hold empty lists past nprocs_
    int nprocs_ = 0;                ///< highest recorded proc + 1
    int base_ = 0;       ///< first resident id == number retired
    int high_water_ = 0; ///< max resident() ever reached
};

/**
 * The observable outcome of an execution: the values returned by reads are
 * summarized by the final architectural state (registers), together with
 * the final state of memory — the two components of the paper's "result".
 */
struct RunResult
{
    /** Final memory values over the touched addresses. */
    std::map<Addr, Word> finalMemory;

    /** Final register values, one vector per processor. */
    std::vector<std::vector<Word>> registers;

    /** True if every processor reached Halt. */
    bool allHalted = false;

    bool operator==(const RunResult &o) const
    {
        return finalMemory == o.finalMemory && registers == o.registers &&
               allHalted == o.allHalted;
    }

    bool operator<(const RunResult &o) const
    {
        if (finalMemory != o.finalMemory)
            return finalMemory < o.finalMemory;
        if (registers != o.registers)
            return registers < o.registers;
        return allHalted < o.allHalted;
    }

    /** One-line description. */
    std::string toString() const;
};

} // namespace wo

#endif // WO_CORE_TRACE_HH
