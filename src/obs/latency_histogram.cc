#include "obs/latency_histogram.hh"

#include <iomanip>
#include <mutex>
#include <ostream>
#include <sstream>
#include <unordered_map>

namespace wo {

void
LatencyHistogram::internHandles()
{
    for (int i = 0; i < kBuckets; ++i) {
        std::string name = prefix_ + ".bucket_";
        if (i < 10)
            name += '0';
        name += std::to_string(i);
        bucket_handles_[i] = stats_.handle(name);
    }
    count_handle_ = stats_.handle(prefix_ + ".count");
    total_handle_ = stats_.handle(prefix_ + ".total");
    max_handle_ = stats_.handle(prefix_ + ".max", StatSet::Kind::Max);
    interned_ = true;
}

namespace {

/**
 * The bucket ids of histogram family @p family ("lat_msg"), resolved
 * once per process: Systems built per run construct fresh histograms,
 * and resolving 34 keys per histogram per run shows up in the
 * trace_overhead coverage gate.
 */
const std::array<std::uint32_t, LatencyHistogram::kBuckets> &
bucketIds(const std::string &family)
{
    static std::mutex mu;
    static std::unordered_map<
        std::string, std::array<std::uint32_t, LatencyHistogram::kBuckets>>
        table;
    std::lock_guard<std::mutex> lock(mu);
    auto [it, fresh] = table.try_emplace(family);
    if (fresh) {
        for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
            it->second[i] = CoverageMap::globalKeyId(
                CoverageMap::Dim::Bucket, family + "/bucket_" +
                                              (i < 10 ? "0" : "") +
                                              std::to_string(i));
        }
    }
    return it->second;
}

} // namespace

void
LatencyHistogram::flushCoverage(void *self, CoverageMap *cov)
{
    auto *h = static_cast<LatencyHistogram *>(self);
    if (cov != nullptr) {
        if (h->cov_ids_ == nullptr)
            h->cov_ids_ = &bucketIds(stripInstance(h->prefix_));
        const auto &ids = *h->cov_ids_;
        cov->seed(CoverageMap::Dim::Bucket, ids);
        for (int i = 0; i < kBuckets; ++i) {
            if (h->cov_pending_[i] != 0) {
                cov->hit(CoverageMap::Dim::Bucket, ids[i],
                         h->cov_pending_[i]);
            }
        }
    }
    h->cov_pending_.fill(0);
    h->cov_dirty_ = false;
}

void
LatencyHistogram::record(Tick v)
{
    if (!interned_)
        internHandles();
    int b = bucketIndex(v);
    ++counts_[b];
    ++count_;
    total_ += v;
    if (v > max_)
        max_ = v;
    stats_.inc(bucket_handles_[b]);
    stats_.inc(count_handle_);
    stats_.inc(total_handle_, v);
    stats_.maxOf(max_handle_, v);
    if (activeCoverage() != nullptr)
        coverPending(b);
}

void
LatencyHistogram::render(std::ostream &os, int indent) const
{
    std::string pad(indent, ' ');
    os << pad << prefix_ << ": " << count_ << " samples";
    if (count_ > 0) {
        os << ", mean " << total_ / count_ << ", max " << max_;
    }
    os << "\n";
    if (count_ == 0)
        return;
    std::uint64_t peak = 0;
    for (std::uint64_t c : counts_)
        peak = std::max(peak, c);
    for (int i = 0; i < kBuckets; ++i) {
        if (counts_[i] == 0)
            continue;
        std::ostringstream range_oss;
        if (i >= kBuckets - 1)
            range_oss << ">=" << bucketLow(i);
        else if (bucketLow(i) == bucketHigh(i))
            range_oss << bucketLow(i);
        else
            range_oss << bucketLow(i) << ".." << bucketHigh(i);
        int bar = peak ? static_cast<int>(counts_[i] * 40 / peak) : 0;
        os << pad << "  " << std::setw(22) << range_oss.str() << " "
           << std::setw(8) << counts_[i] << " " << std::string(bar, '#')
           << "\n";
    }
}

} // namespace wo
