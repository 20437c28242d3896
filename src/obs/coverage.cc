#include "obs/coverage.hh"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <unordered_map>

namespace wo {

namespace {

struct FlushEntry
{
    void *obj;
    void (*fn)(void *, CoverageMap *);
};

/** This thread's deferred flushes, in registration (first-hit) order —
 * a deterministic order, so flushed counts merge identically for any
 * thread count. */
thread_local std::vector<FlushEntry> t_pending_flushes;

} // namespace

namespace detail {
constinit thread_local CoverageMap *t_active_coverage = nullptr;

void
flushPendingCoverage()
{
    if (t_pending_flushes.empty())
        return;
    for (const FlushEntry &entry : t_pending_flushes)
        entry.fn(entry.obj, t_active_coverage);
    t_pending_flushes.clear();
}

} // namespace detail

void
registerCoverageFlush(void *obj, void (*fn)(void *, CoverageMap *))
{
    t_pending_flushes.push_back({obj, fn});
}

namespace {

/** One dimension's append-only key table. Ids index names; the map's
 * nodes keep the key strings names points at alive. */
struct KeyRegistry
{
    std::mutex mu;
    std::unordered_map<std::string, std::uint32_t> ids;
    std::vector<const std::string *> names;
};

KeyRegistry &
registry(CoverageMap::Dim d)
{
    static std::array<KeyRegistry, CoverageMap::kNumDims> regs;
    return regs[static_cast<int>(d)];
}

} // namespace

std::uint32_t
CoverageMap::globalKeyId(Dim d, const std::string &key)
{
    KeyRegistry &reg = registry(d);
    std::lock_guard<std::mutex> lock(reg.mu);
    auto [it, fresh] = reg.ids.try_emplace(
        key, static_cast<std::uint32_t>(reg.names.size()));
    if (fresh)
        reg.names.push_back(&it->first);
    return it->second;
}

std::vector<std::pair<std::string, std::uint64_t>>
CoverageMap::entries(Dim d) const
{
    const std::vector<Slot> &slots = dims_[static_cast<int>(d)];
    std::vector<std::pair<std::string, std::uint64_t>> out;
    KeyRegistry &reg = registry(d);
    std::lock_guard<std::mutex> lock(reg.mu);
    for (std::size_t id = 0; id < slots.size(); ++id)
        if (slots[id].present)
            out.emplace_back(*reg.names[id], slots[id].count);
    return out;
}

void
CoverageMap::merge(const CoverageMap &other)
{
    for (int k = 0; k < kNumProtocolKinds; ++k)
        for (int s = 0; s < kNumLineStates; ++s)
            for (int e = 0; e < kNumLineEvents; ++e)
                trans_[k][s][e] += other.trans_[k][s][e];
    for (int d = 0; d < kNumDims; ++d) {
        const std::vector<Slot> &src = other.dims_[d];
        std::vector<Slot> &dst = dims_[d];
        if (src.size() > dst.size())
            dst.resize(src.size());
        for (std::size_t id = 0; id < src.size(); ++id) {
            dst[id].count += src[id].count;
            dst[id].present |= src[id].present;
        }
    }
}

void
CoverageMap::clear()
{
    std::memset(trans_, 0, sizeof(trans_));
    for (std::vector<Slot> &slots : dims_)
        std::fill(slots.begin(), slots.end(), Slot{});
}

bool
CoverageMap::empty() const
{
    for (int k = 0; k < kNumProtocolKinds; ++k)
        for (int s = 0; s < kNumLineStates; ++s)
            for (int e = 0; e < kNumLineEvents; ++e)
                if (trans_[k][s][e])
                    return false;
    for (const std::vector<Slot> &slots : dims_)
        for (const Slot &slot : slots)
            if (slot.present)
                return false;
    return true;
}

std::string
stripInstance(const std::string &stat_name)
{
    std::size_t dot = stat_name.find('.');
    if (dot == std::string::npos)
        return stat_name;
    return stat_name.substr(dot + 1);
}

} // namespace wo
