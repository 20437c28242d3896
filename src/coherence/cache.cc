#include "coherence/cache.hh"

#include <algorithm>
#include <cassert>

#include "obs/trace_sink.hh"

namespace wo {

/** Latency of a cache hit (commit delay). */
constexpr Tick kHitLatency = 1;

Cache::Cache(EventQueue &eq, Interconnect &net, StatSet &stats, NodeId node,
             NodeId dir_base, int num_dirs, ProtocolKind protocol,
             PolicyKind policy, const CacheConfig &cfg, std::string name)
    : eq_(eq), net_(net), stats_(stats), node_(node), dir_base_(dir_base),
      num_dirs_(num_dirs), cfg_(cfg),
      proto_(&CoherenceProtocol::get(protocol)),
      sync_reads_as_writes_(syncReadsAsWrites(policy)),
      use_reserve_bits_(useReserveBits(policy)), name_(std::move(name))
{
    stat_.hits = stats_.handle(name_ + ".hits");
    stat_.misses = stats_.handle(name_ + ".misses");
    stat_.writebacks = stats_.handle(name_ + ".writebacks");
    stat_.silentDrops = stats_.handle(name_ + ".silent_drops");
    stat_.silentUpgrades = stats_.handle(name_ + ".silent_upgrades");
    stat_.cleanRelinquishes =
        stats_.handle(name_ + ".clean_relinquishes");
    stat_.reserves = stats_.handle(name_ + ".reserves");
    stalls_ = StallReasonFamily(stats_, name_ + ".miss_stalls_total");
    stat_.stalledByReserveBound =
        stalls_.addReason(name_ + ".stalled_by_reserve_bound");
    stat_.stalledByEviction =
        stalls_.addReason(name_ + ".stalled_by_eviction");
    stat_.stalledByMshrConflict =
        stalls_.addReason(name_ + ".stalled_by_mshr_conflict");
    stat_.counterMax =
        stats_.handle(name_ + ".counter_max", StatSet::Kind::Max);
    stat_.putacks = stats_.handle(name_ + ".putacks");
    stat_.invalidations = stats_.handle(name_ + ".invalidations");
    stat_.staleInvalidations =
        stats_.handle(name_ + ".stale_invalidations");
    stat_.recallNacks = stats_.handle(name_ + ".recall_nacks");
    stat_.recallsQueued = stats_.handle(name_ + ".recalls_queued");
    stat_.recallsServiced = stats_.handle(name_ + ".recalls_serviced");
    net_.attach(node_, [this](const Msg &m) { handle(m); });
}

void
Cache::emitEvent(TraceKind kind, Addr addr, std::int64_t aux,
                 const char *detail)
{
    TraceEvent ev;
    ev.tick = eq_.now();
    ev.comp = TraceComp::Cache;
    ev.kind = kind;
    ev.compId = node_;
    ev.proc = node_;
    ev.addr = addr;
    ev.aux = aux;
    ev.detail = detail;
    sink_->record(ev);
}

void
Cache::traceState(Addr addr, LineState from, LineState to)
{
    if (sink_ && from != to)
        emitEvent(TraceKind::StateChange, addr, 0,
                  transitionLabel(from, to));
}

bool
Cache::treatedAsWrite(AccessKind k) const
{
    switch (k) {
      case AccessKind::DataWrite:
      case AccessKind::SyncWrite:
      case AccessKind::SyncRmw:
        return true;
      case AccessKind::SyncRead:
        return sync_reads_as_writes_;
      case AccessKind::DataRead:
        return false;
    }
    return false;
}

bool
Cache::ordersViaReserve(AccessKind k) const
{
    if (!isSync(k))
        return false;
    // Under the Section 6 refinement, a read-only synchronization cannot
    // be used to order a processor's previous accesses, so it does not
    // reserve the line.
    if (k == AccessKind::SyncRead)
        return sync_reads_as_writes_;
    return true;
}

int
Cache::setOf(Addr addr) const
{
    return cfg_.numSets > 0 ? static_cast<int>(addr) % cfg_.numSets : 0;
}

NodeId
Cache::dirFor(Addr addr) const
{
    return dir_base_ + static_cast<NodeId>(addr) % num_dirs_;
}

Cache::Line *
Cache::findLine(Addr addr)
{
    auto it = lines_.find(addr);
    return it == lines_.end() ? nullptr : &it->second;
}

void
Cache::pokeLine(Addr addr, LineState state, Word data)
{
    Line l;
    l.state = state;
    l.data = data;
    lines_[addr] = l;
}

bool
Cache::peekLine(Addr addr, LineState *state, Word *data) const
{
    auto it = lines_.find(addr);
    if (it == lines_.end())
        return false;
    if (state)
        *state = it->second.state;
    if (data)
        *data = it->second.data;
    return true;
}

void
Cache::sendToDir(MsgType type, Addr addr, Word value, bool for_sync)
{
    Msg m;
    m.type = type;
    m.src = node_;
    m.dst = dirFor(addr);
    m.addr = addr;
    m.value = value;
    m.forSync = for_sync;
    net_.send(m);
}

bool
Cache::makeRoomFor(Addr addr)
{
    if (cfg_.numSets <= 0)
        return true;
    int set = setOf(addr);
    std::vector<Addr> in_set;
    for (const auto &[a, l] : lines_) {
        if (setOf(a) == set)
            in_set.push_back(a);
    }
    if (static_cast<int>(in_set.size()) + inflight_fills_[set] < cfg_.ways) {
        ++inflight_fills_[set];
        return true;
    }
    // Pick the least-recently-used evictable victim. Reserved lines are
    // never flushed (condition 5); lines with a pending globally-perform
    // or an open miss are transaction-locked.
    Addr victim = 0;
    bool found = false;
    Tick best = 0;
    for (Addr a : in_set) {
        Line &l = lines_[a];
        if (l.reserved || l.pendingGp || mshrs_.count(a))
            continue;
        if (!found || l.lastUse < best) {
            victim = a;
            best = l.lastUse;
            found = true;
        }
    }
    if (!found)
        return false;
    Line &v = lines_[victim];
    switch (proto_->on(v.state, LineEvent::Evict).action) {
      case LineAction::WritebackData:
        sendToDir(MsgType::PutX, victim, v.data, false);
        stats_.inc(stat_.writebacks);
        break;
      case LineAction::RelinquishClean:
        sendToDir(MsgType::PutE, victim, 0, false);
        stats_.inc(stat_.cleanRelinquishes);
        break;
      case LineAction::DropSilent:
        stats_.inc(stat_.silentDrops);
        break;
      default:
        assert(false && "unexpected eviction action");
    }
    traceState(victim, v.state, LineState::Invalid);
    lines_.erase(victim);
    ++inflight_fills_[set];
    return true;
}

void
Cache::commitOnLine(const CacheOp &op, Line &line, bool gp_now, Tick delay)
{
    // The commit happens NOW (the value becomes dispatchable / the local
    // copy is modified); @p delay only models how long the notification
    // takes to reach the processor.
    Word read_value = line.data;
    if (writesMemory(op.kind))
        line.data = op.writeValue;
    if (use_reserve_bits_ && ordersViaReserve(op.kind) && counter_ > 0) {
        // The reserve covers exactly the accesses outstanding at this
        // synchronization's commit: misses numbered below next_miss_seq_.
        if (!line.reserved) {
            line.reserved = true;
            ++reserved_count_;
            stats_.inc(stat_.reserves);
            if (sink_)
                emitEvent(TraceKind::ReserveSet, op.addr, counter_);
        }
        line.reservedUpTo = next_miss_seq_;
    }
    assert(client_);
    std::uint64_t id = op.id;
    if (!gp_now)
        line.gpWaiters.push_back(id);
    if (delay == 0) {
        client_->opCommitted(id, read_value);
        if (gp_now)
            client_->opGloballyPerformed(id);
    } else {
        eq_.scheduleAfter(delay, [this, id, read_value, gp_now] {
            client_->opCommitted(id, read_value);
            if (gp_now)
                client_->opGloballyPerformed(id);
        });
    }
}

void
Cache::access(const CacheOp &op)
{
    Line *l = findLine(op.addr);
    if (l)
        l->lastUse = eq_.now();
    bool as_write = treatedAsWrite(op.kind);

    // Classify against the protocol table: an absent line is Invalid.
    const LineTransition &t =
        proto_->on(l ? l->state : LineState::Invalid,
                   as_write ? LineEvent::Store : LineEvent::Load);

    // Hits. Reads commit and are globally performed when the value is
    // bound; a write landing on a line that still awaits a write-ack for
    // an earlier write becomes globally performed with that ack. A store
    // on a clean-exclusive line upgrades silently — a hit with no
    // coherence traffic (MESI-family E payoff).
    if (t.action == LineAction::Hit ||
        t.action == LineAction::SilentUpgrade) {
        stats_.inc(stat_.hits);
        if (t.action == LineAction::SilentUpgrade) {
            stats_.inc(stat_.silentUpgrades);
            traceState(op.addr, l->state, t.next);
            l->state = t.next;
        }
        if (sink_)
            emitEvent(TraceKind::Hit, op.addr);
        bool gp_now = as_write ? !l->pendingGp : true;
        commitOnLine(op, *l, gp_now, kHitLatency);
        return;
    }

    // Misses (including upgrades). Processors order same-address
    // accesses (condition 1), so a second miss to a line with an MSHR
    // outstanding should not happen; if one slips through anyway, stall
    // it until the fill rather than clobbering the live MSHR.
    if (mshrs_.find(op.addr) != mshrs_.end()) {
        assert(false && "processor must order same-address accesses");
        stalled_ops_.push_back(op);
        stalls_.bump(stat_.stalledByMshrConflict);
        if (sink_)
            emitEvent(TraceKind::MissStalled, op.addr, 0, "mshr_conflict");
        return;
    }

    // Section 5.3: bound the misses sent while a line is reserved, so a
    // stalled remote synchronization is serviced after a bounded number
    // of counter increments.
    if (cfg_.maxMissesWhileReserved >= 0 && anyReserved() &&
        misses_while_reserved_ >= cfg_.maxMissesWhileReserved) {
        stalled_ops_.push_back(op);
        stalls_.bump(stat_.stalledByReserveBound);
        if (sink_)
            emitEvent(TraceKind::MissStalled, op.addr, 0, "reserve_bound");
        return;
    }

    bool upgrade = t.action == LineAction::IssueUpgrade;
    if (!upgrade) {
        if (!makeRoomFor(op.addr)) {
            stalled_ops_.push_back(op);
            stalls_.bump(stat_.stalledByEviction);
            if (sink_)
                emitEvent(TraceKind::MissStalled, op.addr, 0, "eviction");
            return;
        }
    }

    ++counter_;
    if (sink_) {
        emitEvent(TraceKind::Miss, op.addr, 0,
                  upgrade ? "upgrade" : (as_write ? "write" : "read"));
        emitEvent(TraceKind::CounterInc, op.addr, counter_);
    }
    stats_.maxOf(stat_.counterMax, static_cast<std::uint64_t>(counter_));
    if (anyReserved())
        ++misses_while_reserved_;
    stats_.inc(stat_.misses);

    Mshr m;
    m.seq = next_miss_seq_++;
    outstanding_miss_seqs_.insert(m.seq);
    m.op = op;
    switch (t.action) {
      case LineAction::IssueUpgrade:
        m.sent = MsgType::Upgrade;
        break;
      case LineAction::IssueGetX:
        m.sent = MsgType::GetX;
        break;
      case LineAction::IssueGetS:
        m.sent = MsgType::GetS;
        break;
      default:
        assert(false && "access classified neither hit nor miss");
    }
    mshrs_[op.addr] = m;
    sendToDir(m.sent, op.addr, 0, isSync(op.kind));
}

void
Cache::handle(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::Data:
      case MsgType::DataE:
      case MsgType::DataEx:
      case MsgType::UpgradeAck:
        handleFill(msg);
        break;
      case MsgType::Inv:
        handleInv(msg);
        break;
      case MsgType::Recall:
      case MsgType::RecallInv:
        handleRecall(msg);
        break;
      case MsgType::WriteAck:
        handleWriteAck(msg);
        break;
      case MsgType::PutAck:
        stats_.inc(stat_.putacks);
        break;
      default:
        assert(false && "unexpected message at cache");
    }
}

void
Cache::handleFill(const Msg &msg)
{
    auto it = mshrs_.find(msg.addr);
    assert(it != mshrs_.end() && "fill without MSHR");
    Mshr m = it->second;
    mshrs_.erase(it);

    if (m.sent != MsgType::Upgrade) {
        int set = setOf(msg.addr);
        if (cfg_.numSets > 0 && inflight_fills_[set] > 0)
            --inflight_fills_[set];
    }

    switch (msg.type) {
      case MsgType::Data: {
        if (m.sent == MsgType::GetS) {
            // Read miss completes: line arrives shared (Forward under
            // MESIF — the most recent requester is the designated
            // responder).
            Line l;
            l.state =
                proto_->on(LineState::Invalid, LineEvent::FillShared).next;
            l.data = msg.value;
            l.lastUse = eq_.now();
            lines_[msg.addr] = l;
            traceState(msg.addr, LineState::Invalid, l.state);
            commitOnLine(m.op, lines_[msg.addr], true);
            decrementCounter(m.seq);
        } else {
            // Write/sync miss on a previously-shared line: the directory
            // forwarded the line in parallel with invalidations. Commit
            // now; globally performed at the WriteAck.
            Line l;
            l.state = proto_->on(LineState::Invalid, LineEvent::FillModified)
                          .next;
            l.data = msg.value;
            l.pendingGp = true;
            l.pendingGpMissSeq = m.seq;
            l.lastUse = eq_.now();
            lines_[msg.addr] = l;
            traceState(msg.addr, LineState::Invalid, l.state);
            commitOnLine(m.op, lines_[msg.addr], false);
            // Counter decremented by the WriteAck.
        }
        break;
      }
      case MsgType::DataE: {
        // Clean-exclusive fill (read miss, no other copies): globally
        // performed immediately; a later store upgrades silently.
        Line l;
        l.state =
            proto_->on(LineState::Invalid, LineEvent::FillExclusive).next;
        l.data = msg.value;
        l.lastUse = eq_.now();
        lines_[msg.addr] = l;
        traceState(msg.addr, LineState::Invalid, l.state);
        commitOnLine(m.op, lines_[msg.addr], true);
        decrementCounter(m.seq);
        break;
      }
      case MsgType::DataEx: {
        // Exclusive data, no invalidations outstanding: commit and
        // globally performed together.
        Line l;
        l.state =
            proto_->on(LineState::Invalid, LineEvent::FillModified).next;
        l.data = msg.value;
        l.lastUse = eq_.now();
        lines_[msg.addr] = l;
        traceState(msg.addr, LineState::Invalid, l.state);
        commitOnLine(m.op, lines_[msg.addr], true);
        decrementCounter(m.seq);
        break;
      }
      case MsgType::UpgradeAck: {
        Line *l = findLine(msg.addr);
        assert(l && "upgrade ack without a line");
        // Throws if the line is not in a shared-family state.
        LineState next =
            proto_->on(l->state, LineEvent::UpgradeOwnership).next;
        traceState(msg.addr, l->state, next);
        l->state = next;
        l->lastUse = eq_.now();
        if (msg.ackCount > 0) {
            l->pendingGp = true;
            l->pendingGpMissSeq = m.seq;
            commitOnLine(m.op, *l, false);
        } else {
            commitOnLine(m.op, *l, true);
            decrementCounter(m.seq);
        }
        break;
      }
      default:
        assert(false);
    }
    retryStalled();
}

void
Cache::handleInv(const Msg &msg)
{
    Line *l = findLine(msg.addr);
    if (l) {
        // Throws if an owner state gets an Inv (the directory recalls
        // owners; only shared-family copies are invalidated).
        const LineTransition &t =
            proto_->on(l->state, LineEvent::Invalidate);
        assert(t.action == LineAction::AckInvalidate);
        assert(!l->reserved && "shared lines are never reserved");
        traceState(msg.addr, l->state, t.next);
        lines_.erase(msg.addr);
        stats_.inc(stat_.invalidations);
        if (sink_)
            emitEvent(TraceKind::InvApplied, msg.addr);
    } else {
        stats_.inc(stat_.staleInvalidations);
        if (sink_)
            emitEvent(TraceKind::InvApplied, msg.addr, 0, "stale");
    }
    Msg ack;
    ack.type = MsgType::InvAck;
    ack.src = node_;
    ack.dst = msg.src;
    ack.addr = msg.addr;
    if (cfg_.invApplyDelay > 0) {
        eq_.scheduleAfter(cfg_.invApplyDelay, [this, ack] {
            if (sink_)
                emitEvent(TraceKind::InvAcked, ack.addr);
            net_.send(ack);
        });
    } else {
        if (sink_)
            emitEvent(TraceKind::InvAcked, ack.addr);
        net_.send(ack);
    }
}

void
Cache::handleRecall(const Msg &msg)
{
    LineEvent ev = msg.type == MsgType::Recall ? LineEvent::FwdGetS
                                               : LineEvent::FwdGetX;
    Line *l = findLine(msg.addr);
    if (!l || !proto_->legal(l->state, ev)) {
        // The line was written back; the PutX is ahead of this response
        // on the FIFO channel to the directory.
        Msg nack;
        nack.type = MsgType::RecallNack;
        nack.src = node_;
        nack.dst = msg.src;
        nack.addr = msg.addr;
        net_.send(nack);
        stats_.inc(stat_.recallNacks);
        return;
    }
    if (l->reserved) {
        // Condition 5: a synchronization (or any) request routed to a
        // reserved line is stalled until the counter reads zero.
        stalled_recalls_.push_back(msg);
        stats_.inc(stat_.recallsQueued);
        if (sink_)
            emitEvent(TraceKind::RecallQueued, msg.addr);
        return;
    }
    serviceRecall(msg);
}

void
Cache::serviceRecall(const Msg &msg)
{
    LineEvent ev = msg.type == MsgType::Recall ? LineEvent::FwdGetS
                                               : LineEvent::FwdGetX;
    Line *l = findLine(msg.addr);
    if (!l || !proto_->legal(l->state, ev)) {
        Msg nack;
        nack.type = MsgType::RecallNack;
        nack.src = node_;
        nack.dst = msg.src;
        nack.addr = msg.addr;
        net_.send(nack);
        return;
    }
    assert(!l->pendingGp &&
           "directory serialization forbids recalling a non-GP line");
    const LineTransition &t = proto_->on(l->state, ev);
    Msg resp;
    resp.src = node_;
    resp.dst = msg.src;
    resp.addr = msg.addr;
    resp.value = l->data;
    switch (t.action) {
      case LineAction::RespondData:
        traceState(msg.addr, l->state, t.next);
        l->state = t.next;
        resp.type = MsgType::RecallData;
        break;
      case LineAction::RespondDataOwned:
        // MOESI: the dirty line stays owned; sharers read the
        // forwarded copy and this cache still writes back on eviction.
        traceState(msg.addr, l->state, t.next);
        l->state = t.next;
        resp.type = MsgType::RecallDataOwned;
        break;
      case LineAction::RespondDataInv:
        traceState(msg.addr, l->state, LineState::Invalid);
        lines_.erase(msg.addr);
        resp.type = MsgType::RecallInvData;
        break;
      default:
        assert(false && "unexpected recall action");
    }
    stats_.inc(stat_.recallsServiced);
    if (sink_)
        emitEvent(TraceKind::RecallServiced, msg.addr);
    net_.send(resp);
}

void
Cache::handleWriteAck(const Msg &msg)
{
    Line *l = findLine(msg.addr);
    assert(l && l->pendingGp && "write ack without a pending write");
    l->pendingGp = false;
    std::vector<std::uint64_t> waiters;
    waiters.swap(l->gpWaiters);
    for (std::uint64_t id : waiters)
        client_->opGloballyPerformed(id);
    decrementCounter(l->pendingGpMissSeq);
}

void
Cache::decrementCounter(std::uint64_t miss_seq)
{
    assert(counter_ > 0);
    --counter_;
    if (sink_)
        emitEvent(TraceKind::CounterDec, kNoTraceAddr, counter_);
    outstanding_miss_seqs_.erase(miss_seq);
    updateReservations();
    if (counter_ == 0)
        onCounterZero();
}

void
Cache::updateReservations()
{
    if (reserved_count_ == 0)
        return;
    // A reserve clears once every miss generated before its
    // synchronization committed has completed; later misses (e.g. a sync
    // miss to another lock) do not hold it — this is what makes the
    // scheme deadlock-free across multiple synchronization variables.
    std::uint64_t min_outstanding =
        outstanding_miss_seqs_.empty() ? ~std::uint64_t{0}
                                       : *outstanding_miss_seqs_.begin();
    if (!cfg_.epochReserveClearing && !outstanding_miss_seqs_.empty()) {
        // Naive mode: reserves persist until the counter reads zero.
        return;
    }
    std::vector<Addr> released;
    for (auto &[a, l] : lines_) {
        if (l.reserved && l.reservedUpTo <= min_outstanding) {
            l.reserved = false;
            --reserved_count_;
            released.push_back(a);
            if (sink_)
                emitEvent(TraceKind::ReserveClear, a, counter_);
        }
    }
    if (reserved_count_ == 0)
        misses_while_reserved_ = 0;
    if (released.empty())
        return;
    // Service recalls that were queued on the released lines.
    std::deque<Msg> keep;
    std::deque<Msg> recalls;
    recalls.swap(stalled_recalls_);
    for (const Msg &m : recalls) {
        bool freed = false;
        for (Addr a : released) {
            if (m.addr == a)
                freed = true;
        }
        if (freed)
            serviceRecall(m);
        else
            keep.push_back(m);
    }
    stalled_recalls_ = std::move(keep);
}

void
Cache::onCounterZero()
{
    misses_while_reserved_ = 0;
    assert(reserved_count_ == 0 &&
           "updateReservations must have cleared every reserve");
    // Any recall still queued would belong to a reserved line.
    assert(stalled_recalls_.empty());
    retryStalled();
    if (client_)
        client_->counterReadsZero();
}

void
Cache::retryStalled()
{
    if (stalled_ops_.empty())
        return;
    std::deque<CacheOp> ops;
    ops.swap(stalled_ops_);
    for (const CacheOp &op : ops)
        access(op);
}

} // namespace wo
