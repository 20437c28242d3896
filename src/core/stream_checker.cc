#include "core/stream_checker.hh"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <queue>
#include <unordered_map>

namespace wo {

namespace {

bool
isFinal(const Access &a)
{
    return a.commitTick != kNoTick && a.gpTick != kNoTick;
}

} // namespace

StreamingDrf0Checker::StreamingDrf0Checker(int numProcs, RaceDetectMode mode)
    : det_(numProcs, mode), nprocs_(numProcs)
{
}

bool
StreamingDrf0Checker::isFed(int id) const
{
    if (id < next_)
        return true;
    return std::binary_search(fedAhead_.begin(), fedAhead_.end(), id);
}

void
StreamingDrf0Checker::markFed(const std::vector<int> &batch)
{
    if (fedAhead_.empty() && batch.front() == next_ &&
        batch.back() - next_ + 1 == static_cast<int>(batch.size())) {
        next_ = batch.back() + 1; // one contiguous run from the frontier
        return;
    }
    // Merge the batch (ascending, none fed yet) into the ids fed ahead
    // of the frontier, then advance the frontier over the contiguous run.
    std::vector<int> fed;
    fed.reserve(fedAhead_.size() + batch.size());
    std::merge(fedAhead_.begin(), fedAhead_.end(), batch.begin(),
               batch.end(), std::back_inserter(fed));
    auto it = fed.begin();
    while (it != fed.end() && *it == next_) {
        ++next_;
        ++it;
    }
    fedAhead_.assign(it, fed.end());
}

void
StreamingDrf0Checker::onAccess(const Access &a)
{
    assert(a.id == next_ && fedAhead_.empty());
    det_.onAccess(a);
    ++next_;
}

bool
StreamingDrf0Checker::feedTopo(const ExecutionTrace &trace,
                               const std::vector<int> &batch)
{
    const int n = static_cast<int>(batch.size());
    if (n == 0)
        return true;
    // po is per-proc id order (every machine records a processor's
    // accesses in program order); so is each sync location's
    // (commitTick, id) order. If the batch's syncs commit in id order,
    // id order itself linearizes (po U so) and the batch is fed as is —
    // always the case for idealized-machine traces.
    Tick lastCommit = 0;
    bool idOrder = true;
    for (int id : batch) {
        const Access &a = trace.at(id);
        if (a.sync()) {
            idOrder = idOrder && a.commitTick >= lastCommit;
            lastCommit = a.commitTick;
        }
    }
    if (idOrder) {
        for (int id : batch)
            det_.onAccess(trace.at(id));
        markFed(batch);
        return true;
    }

    // Local indices 0..n-1 over batch (which is ascending in id).
    auto localOf = [&](int id) {
        auto it = std::lower_bound(batch.begin(), batch.end(), id);
        return static_cast<int>(it - batch.begin());
    };
    std::vector<std::vector<int>> succ(static_cast<std::size_t>(n));
    std::vector<int> indeg(static_cast<std::size_t>(n), 0);
    auto addEdge = [&](int u, int v) {
        succ[static_cast<std::size_t>(u)].push_back(v);
        ++indeg[static_cast<std::size_t>(v)];
    };
    // po: consecutive same-proc members.
    std::vector<int> lastOfProc(static_cast<std::size_t>(nprocs_), -1);
    // so: members that are syncs, per address in (commitTick, id) order.
    std::unordered_map<Addr, std::vector<int>> syncsByAddr;
    for (int k = 0; k < n; ++k) {
        const Access &a = trace.at(batch[static_cast<std::size_t>(k)]);
        if (a.proc >= 0) {
            if (lastOfProc[static_cast<std::size_t>(a.proc)] >= 0)
                addEdge(lastOfProc[static_cast<std::size_t>(a.proc)], k);
            lastOfProc[static_cast<std::size_t>(a.proc)] = k;
        }
        if (a.sync())
            syncsByAddr[a.addr].push_back(a.id);
    }
    for (auto &[addr, ids] : syncsByAddr) {
        std::sort(ids.begin(), ids.end(), [&](int x, int y) {
            const Access &ax = trace.at(x);
            const Access &ay = trace.at(y);
            if (ax.commitTick != ay.commitTick)
                return ax.commitTick < ay.commitTick;
            return x < y;
        });
        for (std::size_t k = 1; k < ids.size(); ++k)
            addEdge(localOf(ids[k - 1]), localOf(ids[k]));
    }
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(n));
    std::queue<int> ready;
    for (int k = 0; k < n; ++k) {
        if (indeg[static_cast<std::size_t>(k)] == 0)
            ready.push(k);
    }
    while (!ready.empty()) {
        int u = ready.front();
        ready.pop();
        order.push_back(u);
        for (int v : succ[static_cast<std::size_t>(u)]) {
            if (--indeg[static_cast<std::size_t>(v)] == 0)
                ready.push(v);
        }
    }
    if (static_cast<int>(order.size()) != n)
        return false;
    for (int k : order)
        det_.onAccess(trace.at(batch[static_cast<std::size_t>(k)]));
    markFed(batch);
    return true;
}

int
StreamingDrf0Checker::drainWindow(const ExecutionTrace &trace, Tick now)
{
    // Admission horizon H: an access may be ordered now only if its
    // commit tick is strictly below every commit tick we do not yet
    // know. Unknown commits are (a) accesses not yet committed — they
    // will commit at or after `now` — and (b) committed-but-not-gp
    // accesses, whose trace record is still being patched.
    Tick h = now;
    for (const Access &a : trace.accesses()) {
        if (isFed(a.id) || isFinal(a))
            continue;
        if (a.commitTick != kNoTick && a.commitTick < h)
            h = a.commitTick;
    }

    // An admissible access whose program-order predecessor is not
    // admissible cannot be fed (po would be violated); if such an access
    // exists, its commit tick is itself an unknown-order point for the
    // synchronization order, so it lowers the horizon. Iterate to a
    // fixpoint — H only shrinks, so this terminates.
    std::vector<char> blocked(static_cast<std::size_t>(
                                  std::max(nprocs_, trace.numProcs())),
                              0);
    bool again = true;
    while (again) {
        again = false;
        std::fill(blocked.begin(), blocked.end(), 0);
        for (const Access &a : trace.accesses()) {
            if (isFed(a.id))
                continue;
            const bool admissible = isFinal(a) && a.commitTick < h;
            std::size_t p = static_cast<std::size_t>(a.proc);
            if (!admissible) {
                blocked[p] = 1;
                continue;
            }
            if (blocked[p] && a.commitTick < h) {
                h = a.commitTick;
                again = true;
                break;
            }
        }
    }

    std::vector<int> batch;
    std::fill(blocked.begin(), blocked.end(), 0);
    for (const Access &a : trace.accesses()) {
        if (isFed(a.id))
            continue;
        std::size_t p = static_cast<std::size_t>(a.proc);
        if (!(isFinal(a) && a.commitTick < h) || blocked[p]) {
            blocked[p] = 1;
            continue;
        }
        batch.push_back(a.id);
    }
    if (batch.empty())
        return 0;
    bool ok = feedTopo(trace, batch);
    // A mid-run batch draws only from finalized accesses of an acyclic
    // machine execution; its (po U so) restriction is acyclic.
    assert(ok);
    (void)ok;
    return static_cast<int>(batch.size());
}

int
StreamingDrf0Checker::retireReady(const ExecutionTrace &trace) const
{
    int n = next_ - trace.firstId();
    if (n < 0)
        n = 0;
    if (n > trace.resident())
        n = trace.resident();
    return n;
}

void
StreamingDrf0Checker::finish(const ExecutionTrace &trace)
{
    std::vector<int> batch;
    batch.reserve(static_cast<std::size_t>(trace.resident()));
    for (const Access &a : trace.accesses()) {
        if (!isFed(a.id))
            batch.push_back(a.id);
    }
    if (batch.empty())
        return;
    if (!feedTopo(trace, batch)) {
        // Cyclic leftover (po U so): mark the verdict degenerate and
        // consume in id order so counters still balance. checkTrace()
        // turns this into an error.
        hb_cyclic_ = true;
        for (int id : batch)
            det_.onAccess(trace.at(id));
        markFed(batch);
    }
}

std::vector<Race>
StreamingDrf0Checker::sortedRaces() const
{
    std::vector<Race> out = det_.races();
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace wo
