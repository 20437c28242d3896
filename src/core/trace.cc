#include "core/trace.hh"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>

namespace wo {

namespace {
const std::vector<int> kNoIds;

/** Erase every id below @p firstLive from an ascending id list. Returns
 * true if anything was removed. */
bool
prunePrefix(std::vector<int> &ids, int firstLive)
{
    auto cut = std::lower_bound(ids.begin(), ids.end(), firstLive);
    if (cut == ids.begin())
        return false;
    ids.erase(ids.begin(), cut);
    return true;
}
} // namespace

void
ExecutionTrace::reserve(int n)
{
    accesses_.reserve(static_cast<std::size_t>(n));
}

void
ExecutionTrace::popFront(int n)
{
    assert(n >= 0 && n <= static_cast<int>(accesses_.size()));
    if (n == 0)
        return;
    base_ += n;
    accesses_.erase(accesses_.begin(), accesses_.begin() + n);
    // The append-order id lists are ascending, so retirement is a prefix
    // erase; the sorted views are rebuilt lazily on next query.
    for (IndexList &pi : byProc_) {
        if (prunePrefix(pi.ids, base_))
            pi.dirty = true;
    }
}

void
ExecutionTrace::clear()
{
    clearAccesses();
    initials_.clear();
}

void
ExecutionTrace::clearAccesses()
{
    accesses_.clear();
    for (IndexList &pi : byProc_) {
        pi.ids.clear();
        pi.dirty = true;
    }
    nprocs_ = 0;
    base_ = 0;
    high_water_ = 0;
}

const std::vector<int> &
ExecutionTrace::accessesOf(ProcId proc) const
{
    if (proc < 0 || proc >= nprocs_)
        return kNoIds;
    const IndexList &pi = byProc_[static_cast<std::size_t>(proc)];
    if (pi.dirty) {
        pi.sorted = pi.ids;
        auto lt = [this](int x, int y) {
            const Access &ax = accesses_[static_cast<std::size_t>(x - base_)];
            const Access &ay = accesses_[static_cast<std::size_t>(y - base_)];
            if (ax.poIndex != ay.poIndex)
                return ax.poIndex < ay.poIndex;
            return x < y;
        };
        if (!std::is_sorted(pi.sorted.begin(), pi.sorted.end(), lt))
            std::sort(pi.sorted.begin(), pi.sorted.end(), lt);
        pi.dirty = false;
    }
    return pi.sorted;
}

std::vector<Addr>
ExecutionTrace::addrs() const
{
    std::set<Addr> s;
    for (const auto &a : accesses_)
        s.insert(a.addr);
    return {s.begin(), s.end()};
}

void
ExecutionTrace::setInitial(Addr addr, Word value)
{
    initials_[addr] = value;
}

Word
ExecutionTrace::initialValue(Addr addr) const
{
    auto it = initials_.find(addr);
    return it == initials_.end() ? 0 : it->second;
}

std::string
ExecutionTrace::toString() const
{
    std::ostringstream oss;
    for (const auto &a : accesses_)
        oss << "  #" << a.id << " " << a.toString() << '\n';
    return oss.str();
}

std::string
RunResult::toString() const
{
    std::ostringstream oss;
    oss << "mem{";
    bool first = true;
    for (const auto &[a, v] : finalMemory) {
        if (!first)
            oss << ",";
        first = false;
        oss << "[" << a << "]=" << v;
    }
    oss << "} regs{";
    for (std::size_t p = 0; p < registers.size(); ++p) {
        if (p)
            oss << ";";
        oss << "P" << p << ":";
        for (std::size_t r = 0; r < registers[p].size(); ++r) {
            if (r)
                oss << ",";
            oss << registers[p][r];
        }
    }
    oss << "}" << (allHalted ? "" : " (not halted)");
    return oss.str();
}

} // namespace wo
