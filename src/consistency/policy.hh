/**
 * @file
 * Consistency policies: the processor-side issue disciplines that
 * distinguish the memory models compared in the paper.
 *
 * Each model is one row of a rule table keyed by PolicyKind. A policy
 * decides, per candidate instruction, whether the processor may
 * *generate* the access given what is still outstanding — the knob that
 * separates sequential consistency, Definition 1 weak ordering, and the
 * two Definition 2 / data-race-free implementations. The matching
 * cache-side mechanisms (reserve bits, the coherence-level treatment of
 * read-only synchronization) are columns of the same row.
 */

#ifndef WO_CONSISTENCY_POLICY_HH
#define WO_CONSISTENCY_POLICY_HH

#include <cstdint>
#include <string>

#include "cpu/isa.hh"

namespace wo {

/** Snapshot of a processor's outstanding-access bookkeeping. */
struct ProcState
{
    /** Issued memory ops not yet globally performed. */
    int notGloballyPerformed = 0;

    /** Synchronization ops issued but not yet committed. */
    int syncsNotCommitted = 0;

    /** Synchronization ops issued but not yet globally performed. */
    int syncsNotGloballyPerformed = 0;
};

/**
 * Why a processor cannot dispatch right now. Every stalled cycle is
 * attributed to exactly one reason, giving Figure 3's qualitative stall
 * argument a quantitative per-run breakdown:
 *
 *  - CounterNonzero: the issue discipline is waiting for previous
 *    accesses to be globally performed — the Section 5 counter is
 *    nonzero (SC's one-at-a-time rule; Definition 1's stalls around
 *    synchronization, conditions 2 and 3).
 *  - ReserveBit: the Definition 2 disciplines' only processor-side wait
 *    (condition 4: a previous synchronization is uncommitted). The
 *    length of this wait is governed by the reserve-bit hardware — a
 *    remote reserve queues the sync's recall until the remote counter
 *    clears.
 *  - BufferFull: structural back-pressure — the outstanding-op limit is
 *    reached, or a synchronization waits for the write buffer to drain.
 *  - Fence: an explicit fence instruction is waiting.
 *  - Dependency: a register operand is still busy (scoreboard).
 *  - SameAddr: an earlier access to the same address is uncommitted
 *    (condition 1's same-address ordering).
 */
enum class StallReason : std::uint8_t {
    CounterNonzero,
    ReserveBit,
    BufferFull,
    Fence,
    Dependency,
    SameAddr,
};

inline constexpr int kNumStallReasons = 6;

/** Snake-case reason name ("counter_nonzero", ...). */
const char *toString(StallReason r);

/** Identifiers for the built-in policies. */
enum class PolicyKind {
    Sc,       ///< sequential consistency (Scheurich/Dubois condition)
    Def1,     ///< old weak ordering (Dubois/Scheurich/Briggs Definition 1)
    Def2Drf0, ///< the paper's Section 5 implementation w.r.t. DRF0
    Def2Drf1, ///< the Section 6 refinement (read-only syncs relaxed)
    Relaxed,  ///< no ordering constraints (exhibits Figure 1 violations)
};

/** Report name of a policy kind ("SC", "WO-Def1", ...). */
std::string toString(PolicyKind k);

/**
 * Command-line name ("sc", "def1", "def2drf0", "def2drf1", "relaxed")
 * to kind. Returns false, leaving @p out alone, for any other text.
 */
bool parsePolicyName(const std::string &name, PolicyKind *out);

/**
 * May an access of kind @p access be generated given @p st? Inline: the
 * processor asks on every dispatch attempt.
 */
inline bool
mayIssue(PolicyKind kind, AccessKind access, const ProcState &st)
{
    switch (kind) {
      case PolicyKind::Sc:
        // Scheurich/Dubois sufficient condition: no access is issued
        // until all the processor's previous accesses are globally
        // performed.
        return st.notGloballyPerformed == 0;
      case PolicyKind::Def1:
        // Dubois, Scheurich and Briggs. Condition 1 (syncs strongly
        // ordered) is the directory's, which serializes them as writes.
        // Data accesses overlap freely between synchronization points;
        // the processor stalls *itself* around synchronization — the
        // global manifestation Definition 2's implementation avoids.
        if (isSync(access)) {
            // Condition 2: every previous access globally performed.
            return st.notGloballyPerformed == 0;
        }
        // Condition 3: every previous sync globally performed.
        return st.syncsNotGloballyPerformed == 0;
      case PolicyKind::Def2Drf0:
      case PolicyKind::Def2Drf1:
        // Section 5.1 condition 4: a new access is not generated until
        // all previous synchronization operations are *committed*, not
        // globally performed. The issuing processor never waits for its
        // pending data at a synchronization point; the cache-side
        // reserve bits (condition 5) instead stall the *next* processor
        // that synchronizes on the same location until this one's
        // previous reads have committed and writes are globally
        // performed.
        return st.syncsNotCommitted == 0;
      case PolicyKind::Relaxed:
        // No ordering beyond intra-processor dependencies. With a write
        // buffer, reads pass buffered writes — the uniprocessor
        // optimizations whose multiprocessor consequences Figure 1
        // illustrates.
        return true;
    }
    return true;
}

/**
 * Stall attribution: the reason behind a mayIssue() refusal (only
 * meaningful when mayIssue just returned false). CounterNonzero for the
 * globally-performed waits of SC and Definition 1; ReserveBit for the
 * Definition 2 implementations, whose only wait is condition 4 and whose
 * duration the reserve-bit hardware at remote caches governs.
 */
StallReason refusalReason(PolicyKind kind);

/** The policy's mechanisms need a coherent cache (Definition 2
 * implementations do: reserve bits live in the cache). */
bool requiresCache(PolicyKind kind);

/** Cache hint: treat read-only syncs (Test) as writes (Section 5
 * example implementation) or as reads (Section 6 refinement). */
bool syncReadsAsWrites(PolicyKind kind);

/** Cache hint: enable the reserve-bit machinery (condition 5). */
bool useReserveBits(PolicyKind kind);

/** Whether a write buffer (reads bypassing pending writes) is legal
 * under this policy. */
bool allowWriteBuffer(PolicyKind kind);

/**
 * Does hardware under @p kind promise sequentially consistent results
 * for a program that is (@p programDrf0) or is not data-race-free? SC
 * always does; the weakly ordered implementations do exactly for DRF0
 * software (Definition 2's contract; Definition 1 is strictly stronger);
 * Relaxed never does.
 */
bool promisesSc(PolicyKind kind, bool programDrf0);

} // namespace wo

#endif // WO_CONSISTENCY_POLICY_HH
