/**
 * @file
 * Stall-reason stat families: a set of per-reason counters plus a total
 * that sums them BY CONSTRUCTION.
 *
 * Cache-level miss stalls used to be three unrelated counters
 * (stalled_by_reserve_bound / _eviction / _mshr_conflict) with no total;
 * any analysis summing them had to know the full reason list, and a new
 * protocol adding a stall reason silently broke the sum. A
 * StallReasonFamily routes every bump through one site that increments
 * both the reason and the family total, so
 *
 *     <prefix>_total == sum of every reason counter
 *
 * is an invariant of the bump path, not a reporting convention
 * (tests/test_protocols.cc asserts it after every run).
 *
 * Stat names are chosen by the component (legacy names are kept), and
 * like all StatSet handles the counters stay invisible until first
 * bumped — attaching a family to a component changes no report.
 */

#ifndef WO_OBS_STALL_STATS_HH
#define WO_OBS_STALL_STATS_HH

#include <string>
#include <vector>

#include "obs/coverage.hh"
#include "sim/stats.hh"

namespace wo {

/** A total counter and the reason counters that feed it. */
class StallReasonFamily
{
  public:
    /** Opaque reason identity: stat handle plus the global id of the
     * reason's coverage key. */
    struct Token
    {
        StatHandle handle;
        std::uint32_t covId = 0;
    };

    StallReasonFamily() = default;

    /** @p total_name is the family's sum stat (e.g.
     * "cache0.miss_stalls_total"). */
    StallReasonFamily(StatSet &stats, const std::string &total_name)
        : stats_(&stats), total_(stats.handle(total_name)),
          family_key_(stripInstance(total_name))
    {
    }

    /** Register a reason counter under its full stat name. */
    Token
    addReason(const std::string &name)
    {
        // Coverage keys strip the owning instance ("cache3.") so every
        // cache of a machine lands on one "family/reason" row.
        Token t{stats_->handle(name),
                CoverageMap::globalKeyId(CoverageMap::Dim::Stall,
                                         family_key_ + "/" +
                                             stripInstance(name))};
        cov_ids_.push_back(t.covId);
        return t;
    }

    /** Count one stall: bumps the reason and the total together (and,
     * when a CoverageMap is installed, the coverage row, seeding every
     * reason of the family at 0). */
    void
    bump(Token reason)
    {
        stats_->inc(reason.handle);
        stats_->inc(total_);
        if (CoverageMap *cov = activeCoverage()) {
            cov->seed(CoverageMap::Dim::Stall, cov_ids_);
            cov->hit(CoverageMap::Dim::Stall, reason.covId);
        }
    }

  private:
    StatSet *stats_ = nullptr;
    StatHandle total_;
    std::string family_key_;
    std::vector<std::uint32_t> cov_ids_;
};

} // namespace wo

#endif // WO_OBS_STALL_STATS_HH
