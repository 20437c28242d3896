#include "coherence/protocol.hh"

#include "obs/coverage.hh"

#include <cassert>
#include <stdexcept>

namespace wo {

const char *
toString(LineState s)
{
    switch (s) {
      case LineState::Invalid: return "I";
      case LineState::Shared: return "S";
      case LineState::Exclusive: return "E";
      case LineState::Modified: return "M";
      case LineState::Owned: return "O";
      case LineState::Forward: return "F";
    }
    return "?";
}

const char *
transitionLabel(LineState from, LineState to)
{
    // Static storage: trace-event detail strings must outlive the sink.
    static const char *const labels[kNumLineStates][kNumLineStates] = {
        {"I->I", "I->S", "I->E", "I->M", "I->O", "I->F"},
        {"S->I", "S->S", "S->E", "S->M", "S->O", "S->F"},
        {"E->I", "E->S", "E->E", "E->M", "E->O", "E->F"},
        {"M->I", "M->S", "M->E", "M->M", "M->O", "M->F"},
        {"O->I", "O->S", "O->E", "O->M", "O->O", "O->F"},
        {"F->I", "F->S", "F->E", "F->M", "F->O", "F->F"},
    };
    return labels[static_cast<int>(from)][static_cast<int>(to)];
}

const char *
toString(ProtocolKind k)
{
    switch (k) {
      case ProtocolKind::Msi: return "msi";
      case ProtocolKind::Mesi: return "mesi";
      case ProtocolKind::Moesi: return "moesi";
      case ProtocolKind::Mesif: return "mesif";
    }
    return "?";
}

bool
parseProtocolName(const std::string &name, ProtocolKind *out)
{
    for (int k = 0; k < kNumProtocolKinds; ++k) {
        ProtocolKind kind = static_cast<ProtocolKind>(k);
        if (name == toString(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

const char *
toString(LineEvent e)
{
    switch (e) {
      case LineEvent::Load: return "Load";
      case LineEvent::Store: return "Store";
      case LineEvent::Evict: return "Evict";
      case LineEvent::FillShared: return "FillShared";
      case LineEvent::FillExclusive: return "FillExclusive";
      case LineEvent::FillModified: return "FillModified";
      case LineEvent::UpgradeOwnership: return "UpgradeOwnership";
      case LineEvent::Invalidate: return "Invalidate";
      case LineEvent::FwdGetS: return "FwdGetS";
      case LineEvent::FwdGetX: return "FwdGetX";
    }
    return "?";
}

const char *
toString(LineAction a)
{
    switch (a) {
      case LineAction::None: return "None";
      case LineAction::Hit: return "Hit";
      case LineAction::SilentUpgrade: return "SilentUpgrade";
      case LineAction::IssueGetS: return "IssueGetS";
      case LineAction::IssueGetX: return "IssueGetX";
      case LineAction::IssueUpgrade: return "IssueUpgrade";
      case LineAction::WritebackData: return "WritebackData";
      case LineAction::RelinquishClean: return "RelinquishClean";
      case LineAction::DropSilent: return "DropSilent";
      case LineAction::RespondData: return "RespondData";
      case LineAction::RespondDataOwned: return "RespondDataOwned";
      case LineAction::RespondDataInv: return "RespondDataInv";
      case LineAction::AckInvalidate: return "AckInvalidate";
    }
    return "?";
}

CoherenceProtocol::CoherenceProtocol(ProtocolKind kind, const char *name)
    : kind_(kind), name_(name)
{
}

void
CoherenceProtocol::allow(LineState s)
{
    state_mask_ |= std::uint8_t{1} << static_cast<int>(s);
}

void
CoherenceProtocol::add(LineState s, LineEvent e, LineState next,
                       LineAction action)
{
    assert(hasState(s) && hasState(next) && "transition outside state set");
    Slot &slot = table_[static_cast<int>(s)][static_cast<int>(e)];
    assert(!slot.legal && "duplicate transition");
    slot.t.next = next;
    slot.t.action = action;
    slot.legal = true;
}

const LineTransition &
CoherenceProtocol::on(LineState s, LineEvent e) const
{
    const Slot &slot = table_[static_cast<int>(s)][static_cast<int>(e)];
    if (!slot.legal) {
        throw std::logic_error(std::string("protocol ") + name_ +
                               ": illegal transition (" + toString(s) +
                               ", " + toString(e) + ")");
    }
    // The single lookup site every cache level and protocol variant
    // funnels through: transition coverage for the whole hierarchy
    // (L1s, MidCache probe translations) costs one thread-local load
    // and a branch here.
    if (CoverageMap *cov = activeCoverage())
        cov->hitTransition(kind_, s, e);
    return slot.t;
}

namespace {

using St = LineState;
using Ev = LineEvent;
using Ac = LineAction;

} // namespace

const CoherenceProtocol &
CoherenceProtocol::get(ProtocolKind kind)
{
    // Each table is built once; the builder lambdas keep the protocol
    // differences adjacent and auditable.
    static const CoherenceProtocol msi = [] {
        CoherenceProtocol p(ProtocolKind::Msi, "MSI");
        p.allow(St::Invalid);
        p.allow(St::Shared);
        p.allow(St::Modified);
        // I: misses and fills.
        p.add(St::Invalid, Ev::Load, St::Invalid, Ac::IssueGetS);
        p.add(St::Invalid, Ev::Store, St::Invalid, Ac::IssueGetX);
        p.add(St::Invalid, Ev::FillShared, St::Shared, Ac::None);
        p.add(St::Invalid, Ev::FillModified, St::Modified, Ac::None);
        // S: read hits; stores upgrade; clean drop; remote writes Inv us.
        p.add(St::Shared, Ev::Load, St::Shared, Ac::Hit);
        p.add(St::Shared, Ev::Store, St::Shared, Ac::IssueUpgrade);
        p.add(St::Shared, Ev::Evict, St::Invalid, Ac::DropSilent);
        p.add(St::Shared, Ev::UpgradeOwnership, St::Modified, Ac::None);
        p.add(St::Shared, Ev::Invalidate, St::Invalid, Ac::AckInvalidate);
        // M: local hits; dirty writeback; recalls demote or invalidate.
        p.add(St::Modified, Ev::Load, St::Modified, Ac::Hit);
        p.add(St::Modified, Ev::Store, St::Modified, Ac::Hit);
        p.add(St::Modified, Ev::Evict, St::Invalid, Ac::WritebackData);
        p.add(St::Modified, Ev::FwdGetS, St::Shared, Ac::RespondData);
        p.add(St::Modified, Ev::FwdGetX, St::Invalid, Ac::RespondDataInv);
        return p;
    }();

    static const CoherenceProtocol mesi = [] {
        CoherenceProtocol p = msi;
        p.kind_ = ProtocolKind::Mesi;
        p.name_ = "MESI";
        p.allow(St::Exclusive);
        // E: clean sole copy — silent upgrade, clean relinquish.
        p.add(St::Invalid, Ev::FillExclusive, St::Exclusive, Ac::None);
        p.add(St::Exclusive, Ev::Load, St::Exclusive, Ac::Hit);
        p.add(St::Exclusive, Ev::Store, St::Modified, Ac::SilentUpgrade);
        p.add(St::Exclusive, Ev::Evict, St::Invalid, Ac::RelinquishClean);
        p.add(St::Exclusive, Ev::FwdGetS, St::Shared, Ac::RespondData);
        p.add(St::Exclusive, Ev::FwdGetX, St::Invalid, Ac::RespondDataInv);
        return p;
    }();

    static const CoherenceProtocol moesi = [] {
        CoherenceProtocol p = mesi;
        p.kind_ = ProtocolKind::Moesi;
        p.name_ = "MOESI";
        p.allow(St::Owned);
        // A recalled dirty line stays owned: the cache keeps supplying
        // data and the dirty value is written back on eviction.
        p.table_[static_cast<int>(St::Modified)]
                [static_cast<int>(Ev::FwdGetS)] = {
            {St::Owned, Ac::RespondDataOwned}, true};
        p.add(St::Owned, Ev::Load, St::Owned, Ac::Hit);
        p.add(St::Owned, Ev::Store, St::Owned, Ac::IssueUpgrade);
        p.add(St::Owned, Ev::Evict, St::Invalid, Ac::WritebackData);
        p.add(St::Owned, Ev::UpgradeOwnership, St::Modified, Ac::None);
        p.add(St::Owned, Ev::FwdGetS, St::Owned, Ac::RespondDataOwned);
        p.add(St::Owned, Ev::FwdGetX, St::Invalid, Ac::RespondDataInv);
        return p;
    }();

    static const CoherenceProtocol mesif = [] {
        CoherenceProtocol p = mesi;
        p.kind_ = ProtocolKind::Mesif;
        p.name_ = "MESIF";
        p.allow(St::Forward);
        // The most recent requester holds the line in Forward and
        // services the next read (FwdGetS demotes it to plain Shared);
        // it relinquishes with PutE so the directory's forwarder
        // pointer stays exact.
        p.table_[static_cast<int>(St::Invalid)]
                [static_cast<int>(Ev::FillShared)] = {
            {St::Forward, Ac::None}, true};
        p.add(St::Forward, Ev::Load, St::Forward, Ac::Hit);
        p.add(St::Forward, Ev::Store, St::Forward, Ac::IssueUpgrade);
        p.add(St::Forward, Ev::Evict, St::Invalid, Ac::RelinquishClean);
        p.add(St::Forward, Ev::UpgradeOwnership, St::Modified, Ac::None);
        p.add(St::Forward, Ev::Invalidate, St::Invalid, Ac::AckInvalidate);
        p.add(St::Forward, Ev::FwdGetS, St::Shared, Ac::RespondData);
        return p;
    }();

    switch (kind) {
      case ProtocolKind::Msi: return msi;
      case ProtocolKind::Mesi: return mesi;
      case ProtocolKind::Moesi: return moesi;
      case ProtocolKind::Mesif: return mesif;
    }
    return msi;
}

} // namespace wo
