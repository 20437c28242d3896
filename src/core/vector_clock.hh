/**
 * @file
 * Vector clocks and FastTrack-style epochs for the happens-before
 * relation (po U so)+.
 *
 * A vector clock VC maps each processor p to the number of p's accesses
 * known to happen-before the clock's owner. An access a by processor p is
 * summarized by its epoch c@p (c = p's clock value when a executed);
 * a happens-before b iff c <= VC_b[p], an O(1) test against b's clock.
 * Epochs are the key compression: most per-address state never needs a
 * full vector (cf. FastTrack), so race checks on the DRF0 hot path cost
 * O(1) instead of O(P) or O(n).
 */

#ifndef WO_CORE_VECTOR_CLOCK_HH
#define WO_CORE_VECTOR_CLOCK_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace wo {

/**
 * An epoch c@p: the compressed signature of one access — processor p's
 * clock value c at the time the access executed. The default-constructed
 * epoch (proc == kNoProc) means "no access recorded".
 */
struct Epoch
{
    std::uint32_t clock = 0;
    ProcId proc = kNoProc;

    /** True once an access has been recorded. */
    bool some() const { return proc != kNoProc; }

    bool operator==(const Epoch &o) const
    {
        return clock == o.clock && proc == o.proc;
    }
};

/**
 * A growable vector clock. Entries for processors never touched read as
 * zero, so clocks for 2-processor traces stay 2 entries long regardless
 * of the detector's capacity.
 */
class VectorClock
{
  public:
    VectorClock() = default;
    explicit VectorClock(int nprocs)
        : c_(static_cast<std::size_t>(nprocs), 0)
    {}

    /** Clock of processor @p p (0 if never ticked or joined). */
    std::uint32_t
    get(ProcId p) const
    {
        return static_cast<std::size_t>(p) < c_.size()
                   ? c_[static_cast<std::size_t>(p)]
                   : 0;
    }

    /** Advance processor @p p's component; returns the new value. */
    std::uint32_t
    tick(ProcId p)
    {
        grow(p);
        return ++c_[static_cast<std::size_t>(p)];
    }

    /** Pointwise maximum with @p o (the join of the two clocks). */
    void
    join(const VectorClock &o)
    {
        if (o.c_.size() > c_.size())
            c_.resize(o.c_.size(), 0);
        for (std::size_t i = 0; i < o.c_.size(); ++i)
            c_[i] = std::max(c_[i], o.c_[i]);
    }

    /** True iff epoch @p e's access happens-before this clock's owner. */
    bool
    covers(const Epoch &e) const
    {
        return e.clock <= get(e.proc);
    }

    /** Reset every component to zero, keeping capacity. */
    void
    clear()
    {
        std::fill(c_.begin(), c_.end(), 0);
    }

    /** The components, indexed by processor. */
    const std::vector<std::uint32_t> &components() const { return c_; }

    /** Number of allocated components. */
    int size() const { return static_cast<int>(c_.size()); }

    /** "<c0,c1,...>" for diagnostics. */
    std::string toString() const;

  private:
    void
    grow(ProcId p)
    {
        if (static_cast<std::size_t>(p) >= c_.size())
            c_.resize(static_cast<std::size_t>(p) + 1, 0);
    }

    std::vector<std::uint32_t> c_;
};

} // namespace wo

#endif // WO_CORE_VECTOR_CLOCK_HH
