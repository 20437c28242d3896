/**
 * @file
 * Data-driven coherence-protocol descriptions: MSI, MESI, MOESI, MESIF.
 *
 * A CoherenceProtocol is a (state x event) -> {next state, action}
 * transition table over the universal line-state alphabet below. Cache
 * and MidCache consult the table instead of hard-coding one protocol;
 * the Directory derives its grant policy from which states the protocol
 * uses (grantsExclusiveClean / usesOwned / usesForward).
 *
 * Naming note: the original two-state protocol called its dirty-writable
 * state "Exclusive". That was MSI's M under another name — here Modified
 * is the dirty state and Exclusive is MESI's clean-exclusive state
 * (readable, silently upgradable, never written back). MSI built from
 * these tables reproduces the original protocol decision-for-decision;
 * tests/test_msi_degenerate.cc pins that equivalence.
 *
 * Transitions not in a protocol's table are protocol violations: on()
 * THROWS std::logic_error rather than silently no-oping, so a
 * miswired controller fails loudly (tests/test_protocol_table.cc walks
 * every pair of every protocol).
 */

#ifndef WO_COHERENCE_PROTOCOL_HH
#define WO_COHERENCE_PROTOCOL_HH

#include <cstdint>
#include <string>

namespace wo {

/**
 * Universal cache-line state alphabet (each protocol uses a subset).
 *
 *  Invalid   not present (the implicit state of an absent line)
 *  Shared    clean, read-only, other copies may exist
 *  Exclusive clean, sole copy (MESI/MOESI/MESIF); a store upgrades to
 *            Modified silently (no traffic)
 *  Modified  dirty, sole copy, read/write locally
 *  Owned     dirty, other Shared copies exist; this cache supplies data
 *            and writes back on eviction (MOESI)
 *  Forward   clean, other Shared copies may exist; designated responder
 *            for the next read request (MESIF)
 */
enum class LineState : std::uint8_t {
    Invalid,
    Shared,
    Exclusive,
    Modified,
    Owned,
    Forward,
};
inline constexpr int kNumLineStates = 6;

/** Single-letter name ("I", "S", "E", "M", "O", "F"). */
const char *toString(LineState s);

/** Static "M->S"-style label for a state change (trace-event detail;
 * static storage, valid forever). */
const char *transitionLabel(LineState from, LineState to);

/** The implemented protocols. */
enum class ProtocolKind : std::uint8_t { Msi, Mesi, Moesi, Mesif };
inline constexpr int kNumProtocolKinds = 4;

const char *toString(ProtocolKind k);

/**
 * Name as toString prints it ("msi", "mesi", "moesi", "mesif") to kind.
 * Returns false, leaving @p out alone, for any other text.
 */
bool parseProtocolName(const std::string &name, ProtocolKind *out);

/**
 * Events applied to a line's protocol state.
 *
 * Processor side: Load/Store classify hits, misses and upgrades (applied
 * to Invalid for an absent line); Evict is a replacement decision.
 * Fill side: Fill* install a response (always applied to Invalid —
 * FillShared = Data, FillExclusive = DataE, FillModified = Data/DataEx
 * for a write); UpgradeOwnership is an UpgradeAck.
 * Remote side: Invalidate is an Inv from the directory; FwdGetS /
 * FwdGetX are Recall / RecallInv (a remote read / write wants the line).
 */
enum class LineEvent : std::uint8_t {
    Load,
    Store,
    Evict,
    FillShared,
    FillExclusive,
    FillModified,
    UpgradeOwnership,
    Invalidate,
    FwdGetS,
    FwdGetX,
};
inline constexpr int kNumLineEvents = 10;

const char *toString(LineEvent e);

/** What the controller must do alongside a state change. */
enum class LineAction : std::uint8_t {
    None,             ///< state change only (fills, upgrade acks)
    Hit,              ///< satisfy the access locally
    SilentUpgrade,    ///< store on a clean-exclusive line: write locally,
                      ///< no traffic (Exclusive -> Modified)
    IssueGetS,        ///< read miss: request a shared copy
    IssueGetX,        ///< write miss: request an exclusive copy
    IssueUpgrade,     ///< write on a shared-family line: request ownership
    WritebackData,    ///< evict dirty: PutX with data
    RelinquishClean,  ///< evict clean-exclusive/forward: PutE notify (no
                      ///< data; keeps directory owner/forwarder exact)
    DropSilent,       ///< evict shared: no message
    RespondData,      ///< FwdGetS: send data, demote to next state
    RespondDataOwned, ///< FwdGetS: send data, retain ownership (-> Owned)
    RespondDataInv,   ///< FwdGetX: send data, invalidate
    AckInvalidate,    ///< Invalidate: drop the copy and ack
};

const char *toString(LineAction a);

/** One table entry. */
struct LineTransition
{
    LineState next = LineState::Invalid;
    LineAction action = LineAction::None;
};

/** One protocol's immutable transition table. */
class CoherenceProtocol
{
  public:
    /** The singleton table for @p kind. */
    static const CoherenceProtocol &get(ProtocolKind kind);

    ProtocolKind kind() const { return kind_; }
    const char *name() const { return name_; }

    /** True if @p s is part of this protocol's state set. */
    bool
    hasState(LineState s) const
    {
        return (state_mask_ >> static_cast<int>(s)) & 1;
    }

    /** True if (state, event) has a transition. */
    bool
    legal(LineState s, LineEvent e) const
    {
        return table_[static_cast<int>(s)][static_cast<int>(e)].legal;
    }

    /** Look up the transition for (state, event); throws
     * std::logic_error on a pair outside the protocol. */
    const LineTransition &on(LineState s, LineEvent e) const;

    // Directory grant policy, derived from the state set.

    /** Grant a clean-exclusive copy (DataE) on a read miss to an
     * uncached line. */
    bool grantsExclusiveClean() const
    {
        return hasState(LineState::Exclusive);
    }

    /** A recalled dirty line may stay owned (RecallDataOwned). */
    bool usesOwned() const { return hasState(LineState::Owned); }

    /** Track a designated forwarder among sharers and recall it to
     * service reads. */
    bool usesForward() const { return hasState(LineState::Forward); }

  private:
    struct Slot
    {
        LineTransition t;
        bool legal = false;
    };

    CoherenceProtocol(ProtocolKind kind, const char *name);

    void allow(LineState s);
    void add(LineState s, LineEvent e, LineState next, LineAction action);

    ProtocolKind kind_;
    const char *name_;
    std::uint8_t state_mask_ = 0;
    Slot table_[kNumLineStates][kNumLineEvents];
};

} // namespace wo

#endif // WO_COHERENCE_PROTOCOL_HH
