#include "oracle/happens_before.hh"

#include <algorithm>
#include <map>
#include <queue>

namespace wo {

std::map<Addr, std::vector<int>>
syncOrder(const ExecutionTrace &trace)
{
    std::map<Addr, std::vector<int>> order;
    for (const Access &a : trace.accesses()) {
        if (a.sync())
            order[a.addr].push_back(a.id);
    }
    for (auto &[addr, ids] : order) {
        std::stable_sort(ids.begin(), ids.end(), [&](int x, int y) {
            return trace.at(x).commitTick < trace.at(y).commitTick;
        });
    }
    return order;
}

HappensBefore::HappensBefore(const ExecutionTrace &trace)
{
    n_ = trace.size();
    words_ = (n_ + 63) / 64;
    reach_.assign(n_, BitRow(words_, 0));

    // Direct po edges: consecutive accesses of each processor. The
    // transitive closure below recovers the full program order.
    int nprocs = trace.numProcs();
    for (ProcId p = 0; p < nprocs; ++p) {
        const std::vector<int> &ids = trace.accessesOf(p);
        for (std::size_t k = 1; k < ids.size(); ++k)
            edges_.emplace_back(ids[k - 1], ids[k]);
    }

    // Direct so edges: consecutive synchronization operations per location
    // in commit order.
    for (const auto &[addr, ids] : syncOrder(trace)) {
        for (std::size_t k = 1; k < ids.size(); ++k)
            edges_.emplace_back(ids[k - 1], ids[k]);
    }

    // Kahn topological sort over the direct edges.
    std::vector<std::vector<int>> succ(n_);
    std::vector<int> indeg(n_, 0);
    for (const auto &[u, v] : edges_) {
        succ[u].push_back(v);
        ++indeg[v];
    }
    std::vector<int> topo;
    topo.reserve(n_);
    std::queue<int> ready;
    for (int i = 0; i < n_; ++i) {
        if (indeg[i] == 0)
            ready.push(i);
    }
    while (!ready.empty()) {
        int u = ready.front();
        ready.pop();
        topo.push_back(u);
        for (int v : succ[u]) {
            if (--indeg[v] == 0)
                ready.push(v);
        }
    }
    if (static_cast<int>(topo.size()) != n_) {
        // Cyclic: leave every pair on the cycle unordered. Nodes never
        // popped keep empty reach rows; nodes popped get closure over the
        // acyclic part only.
        acyclic_ = false;
    }

    // Closure: process in reverse topological order; reach[u] = union over
    // successors v of ({v} U reach[v]).
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        int u = *it;
        for (int v : succ[u]) {
            setBit(reach_[u], v);
            for (int w = 0; w < words_; ++w)
                reach_[u][w] |= reach_[v][w];
        }
    }
}

bool
HappensBefore::ordered(int a, int b) const
{
    if (a < 0 || b < 0 || a >= n_ || b >= n_ || a == b)
        return false;
    return bit(reach_[a], b);
}

Drf0TraceReport
checkTraceBitset(const ExecutionTrace &trace)
{
    Drf0TraceReport report;
    HappensBefore hb(trace);

    // Group accesses by address; only same-address pairs can conflict.
    std::map<Addr, std::vector<int>> by_addr;
    for (const auto &a : trace.accesses())
        by_addr[a.addr].push_back(a.id);

    for (const auto &[addr, ids] : by_addr) {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            for (std::size_t j = i + 1; j < ids.size(); ++j) {
                const Access &x = trace.at(ids[i]);
                const Access &y = trace.at(ids[j]);
                if (!conflict(x, y))
                    continue;
                if (!hb.orderedEither(x.id, y.id)) {
                    report.raceFree = false;
                    report.races.push_back({x.id, y.id});
                }
            }
        }
    }
    return report;
}

} // namespace wo
