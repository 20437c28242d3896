#include "consistency/policy.hh"

#include <iterator>

namespace wo {

namespace {

/** How a policy's hardware answers the DRF0 contract. */
enum class ScPromise : std::uint8_t { Always, IfDrf0, Never };

/** One model of the paper: its names and its cache-side mechanisms. */
struct PolicyRules
{
    PolicyKind kind;
    const char *reportName;
    const char *cliName;
    bool requiresCache;
    bool syncReadsAsWrites;
    bool useReserveBits;
    bool allowWriteBuffer;
    StallReason refusal;
    ScPromise promise;
};

using enum StallReason;
using enum ScPromise;

/**
 * The rule table, in PolicyKind order. Definition 2's implementations
 * need the cache (reserve bits live there). Definition 2 with respect
 * to DRF1 is the Section 6 refinement: read-only synchronization (Test)
 * is a read at the coherence level and sets no reserve bit, so spinning
 * stops ping-ponging the line between spinners — at the price that a
 * read-only sync cannot order the processor's previous accesses against
 * other processors' later syncs.
 */
constexpr PolicyRules kRules[] = {
    // kind, reportName, cliName,
    //   requiresCache, syncReadsAsWrites, useReserveBits, allowWriteBuffer,
    //   refusal, promise
    {PolicyKind::Sc, "SC", "sc",
     false, true, false, false, CounterNonzero, Always},
    {PolicyKind::Def1, "WO-Def1", "def1",
     false, true, false, false, CounterNonzero, IfDrf0},
    {PolicyKind::Def2Drf0, "WO-Def2-DRF0", "def2drf0",
     true, true, true, false, ReserveBit, IfDrf0},
    {PolicyKind::Def2Drf1, "WO-Def2-DRF1", "def2drf1",
     true, false, true, false, ReserveBit, IfDrf0},
    {PolicyKind::Relaxed, "Relaxed", "relaxed",
     false, true, false, true, CounterNonzero, Never},
};

constexpr bool
inKindOrder()
{
    for (int i = 0; i < static_cast<int>(std::size(kRules)); ++i) {
        if (static_cast<int>(kRules[i].kind) != i)
            return false;
    }
    return true;
}
static_assert(inKindOrder(), "kRules rows must follow PolicyKind order");

const PolicyRules &
rules(PolicyKind kind)
{
    return kRules[static_cast<int>(kind)];
}

} // namespace

const char *
toString(StallReason r)
{
    switch (r) {
      case StallReason::CounterNonzero: return "counter_nonzero";
      case StallReason::ReserveBit: return "reserve_bit";
      case StallReason::BufferFull: return "buffer_full";
      case StallReason::Fence: return "fence";
      case StallReason::Dependency: return "dependency";
      case StallReason::SameAddr: return "same_addr";
    }
    return "?";
}

std::string
toString(PolicyKind k)
{
    return rules(k).reportName;
}

bool
parsePolicyName(const std::string &name, PolicyKind *out)
{
    for (const PolicyRules &r : kRules) {
        if (name == r.cliName) {
            *out = r.kind;
            return true;
        }
    }
    return false;
}

StallReason
refusalReason(PolicyKind kind)
{
    return rules(kind).refusal;
}

bool
requiresCache(PolicyKind kind)
{
    return rules(kind).requiresCache;
}

bool
syncReadsAsWrites(PolicyKind kind)
{
    return rules(kind).syncReadsAsWrites;
}

bool
useReserveBits(PolicyKind kind)
{
    return rules(kind).useReserveBits;
}

bool
allowWriteBuffer(PolicyKind kind)
{
    return rules(kind).allowWriteBuffer;
}

bool
promisesSc(PolicyKind kind, bool programDrf0)
{
    switch (rules(kind).promise) {
      case ScPromise::Always: return true;
      case ScPromise::IfDrf0: return programDrf0;
      case ScPromise::Never: return false;
    }
    return false;
}

} // namespace wo
