#include "cpu/processor.hh"

#include <cassert>

#include "obs/trace_sink.hh"
#include "sim/logging.hh"

namespace wo {

namespace {

/** Static access-kind tags for TraceEvent::detail. */
const char *
accessKindTag(AccessKind k)
{
    switch (k) {
      case AccessKind::DataRead: return "data_read";
      case AccessKind::DataWrite: return "data_write";
      case AccessKind::SyncRead: return "sync_read";
      case AccessKind::SyncWrite: return "sync_write";
      case AccessKind::SyncRmw: return "sync_rmw";
    }
    return "?";
}

} // namespace

Processor::Processor(EventQueue &eq, StatSet &stats, ProcId id,
                     const Program &program, MemPort &port,
                     const ConsistencyPolicy &policy, ExecutionTrace *trace,
                     const ProcessorConfig &cfg)
    : eq_(eq), stats_(stats), id_(id), program_(&program), port_(port),
      policy_(policy), trace_(trace), cfg_(cfg),
      name_("proc" + std::to_string(id)),
      lat_gp_(stats, "proc" + std::to_string(id) + ".lat_issue_gp")
{
    stat_.instructions = stats_.handle(name_ + ".instructions");
    stat_.wbInserts = stats_.handle(name_ + ".wb_inserts");
    stat_.wbForwards = stats_.handle(name_ + ".wb_forwards");
    stat_.policyStalls = stats_.handle(name_ + ".policy_stalls");
    stat_.memOps = stats_.handle(name_ + ".mem_ops");
    int nregs = std::max(program.maxRegister() + 1, 1);
    regs_.assign(nregs, 0);
    reg_busy_.assign(nregs, false);
    assert((!cfg_.useWriteBuffer || policy_.allowWriteBuffer()) &&
           "write buffer is illegal under this consistency policy");
    port_.setPortClient(this);
}

void
Processor::reset(const Program &program)
{
    program_ = &program;
    pc_ = 0;
    int nregs = std::max(program.maxRegister() + 1, 1);
    regs_.assign(nregs, 0);
    reg_busy_.assign(nregs, false);
    halted_ = false;
    halt_tick_ = kNoTick;
    ops_.clear();
    addr_blocked_.clear();
    write_buffer_.clear();
    wb_drain_in_flight_ = false;
    outstanding_ = 0;
    not_gp_ = 0;
    syncs_not_committed_ = 0;
    syncs_not_gp_ = 0;
    last_id_ = 0;
    mem_op_index_ = 0;
    // Safe only because the owner reset the event queue first: any
    // pending dispatch lambda was destroyed with it.
    advance_scheduled_ = false;
    stall_since_ = kNoTick;
    stall_cycles_ = 0;
    instructions_ = 0;
    stall_reason_ = StallReason::CounterNonzero;
    stall_by_reason_.fill(0);
    lat_gp_.reset();
}

void
Processor::start()
{
    if (program_->size() == 0) {
        halted_ = true;
        halt_tick_ = eq_.now();
        return;
    }
    scheduleAdvance(0);
}

bool
Processor::quiescent() const
{
    return ops_.empty() && write_buffer_.empty() && !wb_drain_in_flight_;
}

void
Processor::scheduleAdvance(Tick delay)
{
    if (advance_scheduled_ || halted_)
        return;
    advance_scheduled_ = true;
    eq_.scheduleAfter(delay, [this] {
        advance_scheduled_ = false;
        tryAdvance();
    });
}

void
Processor::closeStallSegment(Tick now)
{
    Tick d = now - stall_since_;
    stall_cycles_ += d;
    stall_by_reason_[static_cast<std::size_t>(stall_reason_)] += d;
}

namespace {

/** One coverage row per stall reason, keyed like the per-proc stats
 * but instance-stripped ("proc_stall/fence"): a stall *activation* is
 * a segment opening with that reason, matching StallBegin events. */
void
coverStallSegment(StallReason why)
{
    CoverageMap *cov = activeCoverage();
    if (!cov)
        return;
    // Resolved once per process; any stall seeds every reason at 0.
    static const std::array<std::uint32_t, kNumStallReasons> ids = [] {
        std::array<std::uint32_t, kNumStallReasons> k;
        for (int i = 0; i < kNumStallReasons; ++i) {
            k[i] = CoverageMap::globalKeyId(
                CoverageMap::Dim::Stall,
                std::string("proc_stall/") +
                    toString(static_cast<StallReason>(i)));
        }
        return k;
    }();
    cov->seed(CoverageMap::Dim::Stall, ids);
    cov->hit(CoverageMap::Dim::Stall,
             ids[static_cast<std::size_t>(why)]);
}

} // namespace

void
Processor::noteStall(StallReason why)
{
    if (stall_since_ == kNoTick) {
        stall_since_ = eq_.now();
        stall_reason_ = why;
        coverStallSegment(why);
        if (sink_) {
            TraceEvent ev;
            ev.tick = eq_.now();
            ev.comp = TraceComp::Proc;
            ev.kind = TraceKind::StallBegin;
            ev.compId = id_;
            ev.proc = id_;
            ev.detail = toString(why);
            sink_->record(ev);
        }
    } else if (why != stall_reason_) {
        // Attribute the elapsed segment to the old reason, then open a
        // new segment; total and per-reason cycles stay in lockstep.
        closeStallSegment(eq_.now());
        stall_since_ = eq_.now();
        coverStallSegment(why);
        if (sink_) {
            TraceEvent ev;
            ev.tick = eq_.now();
            ev.comp = TraceComp::Proc;
            ev.kind = TraceKind::StallEnd;
            ev.compId = id_;
            ev.proc = id_;
            ev.detail = toString(stall_reason_);
            sink_->record(ev);
            ev.kind = TraceKind::StallBegin;
            ev.detail = toString(why);
            sink_->record(ev);
        }
        stall_reason_ = why;
    }
}

void
Processor::noteProgress()
{
    if (stall_since_ != kNoTick) {
        closeStallSegment(eq_.now());
        stall_since_ = kNoTick;
        if (sink_) {
            TraceEvent ev;
            ev.tick = eq_.now();
            ev.comp = TraceComp::Proc;
            ev.kind = TraceKind::StallEnd;
            ev.compId = id_;
            ev.proc = id_;
            ev.detail = toString(stall_reason_);
            sink_->record(ev);
        }
    }
}

void
Processor::emitOpEvent(TraceKind kind, const OpRecord &rec,
                       std::uint64_t id)
{
    TraceEvent ev;
    ev.tick = eq_.now();
    ev.comp = TraceComp::Proc;
    ev.kind = kind;
    ev.compId = id_;
    ev.proc = id_;
    ev.addr = rec.addr;
    ev.opId = id;
    ev.detail = accessKindTag(rec.kind);
    if (trace_ && rec.traceId >= 0 && rec.traceId >= trace_->firstId()) {
        // Carry the access values so sinks can reconstruct replayable
        // traces: `value` is the written value (known from issue),
        // `aux` the read value (bound at commit, 0 before).
        const Access &a = trace_->at(rec.traceId);
        ev.value = a.valueWritten;
        ev.aux = static_cast<std::int64_t>(a.valueRead);
    }
    sink_->record(ev);
}

void
Processor::finalizeObs()
{
    if (!sink_)
        return;
    stats_.set(name_ + ".stall_cycles_total", stall_cycles_);
    for (int r = 0; r < kNumStallReasons; ++r) {
        StallReason reason = static_cast<StallReason>(r);
        stats_.set(name_ + ".stall." + toString(reason),
                   stall_by_reason_[static_cast<std::size_t>(r)]);
    }
}

ProcState
Processor::snapshot() const
{
    ProcState st;
    st.outstanding = outstanding_;
    st.notGloballyPerformed = not_gp_;
    st.syncsNotCommitted = syncs_not_committed_;
    st.syncsNotGloballyPerformed = syncs_not_gp_;
    st.writeBufferDepth = static_cast<int>(write_buffer_.size());
    return st;
}

int
Processor::recordTraceAccess(AccessKind kind, Addr addr, Word write_value)
{
    if (!trace_)
        return -1;
    Access a;
    a.proc = id_;
    a.poIndex = mem_op_index_++;
    a.kind = kind;
    a.addr = addr;
    a.valueWritten = write_value;
    return trace_->add(a);
}

void
Processor::tryAdvance()
{
    if (halted_)
        return;
    if (pc_ >= program_->size()) {
        halted_ = true;
        halt_tick_ = eq_.now();
        return;
    }
    const Instruction &insn = program_->at(pc_);
    switch (insn.op) {
      case Opcode::Movi:
        if (regBusy(insn.dst)) {
            noteStall(StallReason::Dependency);
            return;
        }
        regs_[insn.dst] = insn.imm;
        break;
      case Opcode::Addi:
        if (regBusy(insn.src) || regBusy(insn.dst)) {
            noteStall(StallReason::Dependency);
            return;
        }
        regs_[insn.dst] = regs_[insn.src] + insn.imm;
        break;
      case Opcode::Nop:
        break;
      case Opcode::Beq:
      case Opcode::Bne:
        if (regBusy(insn.src)) {
            noteStall(StallReason::Dependency);
            return;
        }
        break;
      case Opcode::Fence:
        // RP3-style fence: wait for every previous access (including
        // buffered writes) to be globally performed.
        if (not_gp_ > 0 || !write_buffer_.empty() ||
            wb_drain_in_flight_) {
            noteStall(StallReason::Fence);
            return;
        }
        break;
      case Opcode::Halt:
        noteProgress();
        halted_ = true;
        halt_tick_ = eq_.now();
        ++instructions_;
        return;
      default: { // memory operations
        StallReason why = StallReason::CounterNonzero;
        if (!issueMemOp(insn, &why)) {
            noteStall(why);
            return;
        }
        break;
      }
    }
    noteProgress();
    ++instructions_;
    stats_.inc(stat_.instructions);

    // Advance the pc.
    if (insn.op == Opcode::Beq && regs_[insn.src] == insn.imm) {
        pc_ = insn.target;
    } else if (insn.op == Opcode::Bne && regs_[insn.src] != insn.imm) {
        pc_ = insn.target;
    } else {
        ++pc_;
    }
    scheduleAdvance(cfg_.cycle);
}

bool
Processor::issueMemOp(const Instruction &insn, StallReason *why)
{
    AccessKind kind = insn.accessKind();
    bool is_write_like = writesMemory(kind);
    bool needs_src =
        (insn.op == Opcode::Store || insn.op == Opcode::SyncWrite) &&
        insn.src >= 0;
    if (needs_src && regBusy(insn.src)) {
        *why = StallReason::Dependency;
        return false;
    }
    if (readsMemory(kind) && regBusy(insn.dst)) {
        *why = StallReason::Dependency;
        return false;
    }

    Word write_value = 0;
    if (is_write_like) {
        if (insn.op == Opcode::TestAndSet)
            write_value = insn.imm;
        else
            write_value = insn.src >= 0 ? regs_[insn.src] : insn.imm;
    }

    // Write-buffer fast paths (Relaxed policy only).
    if (cfg_.useWriteBuffer) {
        if (kind == AccessKind::DataWrite) {
            std::uint64_t id = nextId();
            OpRecord rec;
            rec.kind = kind;
            rec.addr = insn.addr;
            rec.committed = true; // architecturally complete at insert
            rec.fromWriteBuffer = true;
            rec.issueTick = eq_.now();
            rec.traceId = recordTraceAccess(kind, insn.addr, write_value);
            if (trace_ && rec.traceId >= 0)
                trace_->mutableAt(rec.traceId).commitTick = eq_.now();
            ops_[id] = rec;
            ++not_gp_;
            write_buffer_.push_back({id, insn.addr, write_value,
                                     eq_.now()});
            stats_.inc(stat_.wbInserts);
            if (sink_)
                emitOpEvent(TraceKind::WbInsert, rec, id);
            drainWriteBuffer();
            return true;
        }
        if (kind == AccessKind::DataRead) {
            // Forward the youngest buffered write to the same address.
            for (auto it = write_buffer_.rbegin();
                 it != write_buffer_.rend(); ++it) {
                if (it->addr == insn.addr) {
                    regs_[insn.dst] = it->value;
                    int tid = recordTraceAccess(kind, insn.addr, 0);
                    if (trace_ && tid >= 0) {
                        Access &a = trace_->mutableAt(tid);
                        a.valueRead = it->value;
                        a.commitTick = eq_.now();
                        a.gpTick = eq_.now();
                    }
                    stats_.inc(stat_.wbForwards);
                    if (sink_) {
                        TraceEvent ev;
                        ev.tick = eq_.now();
                        ev.comp = TraceComp::Proc;
                        ev.kind = TraceKind::WbForward;
                        ev.compId = id_;
                        ev.proc = id_;
                        ev.addr = insn.addr;
                        ev.value = it->value;
                        sink_->record(ev);
                    }
                    return true;
                }
            }
            // No match: the read bypasses all buffered writes and issues.
        }
        if (isSync(kind) &&
            (!write_buffer_.empty() || wb_drain_in_flight_)) {
            *why = StallReason::BufferFull;
            return false; // synchronization drains the buffer first
        }
    }

    // Ordinary issue.
    if (addr_blocked_.count(insn.addr)) {
        *why = StallReason::SameAddr;
        return false; // same-address ordering (condition 1)
    }
    if (outstanding_ >= cfg_.maxOutstanding) {
        *why = StallReason::BufferFull;
        return false;
    }
    if (!policy_.mayIssue(kind, snapshot())) {
        stats_.inc(stat_.policyStalls);
        *why = policy_.refusalReason(kind, snapshot());
        return false;
    }

    std::uint64_t id = nextId();
    OpRecord rec;
    rec.kind = kind;
    rec.addr = insn.addr;
    rec.destReg = readsMemory(kind) ? insn.dst : -1;
    rec.issueTick = eq_.now();
    rec.traceId = recordTraceAccess(kind, insn.addr, write_value);
    ops_[id] = rec;

    ++outstanding_;
    ++not_gp_;
    if (isSync(kind)) {
        ++syncs_not_committed_;
        ++syncs_not_gp_;
    }
    addr_blocked_.insert(insn.addr);
    if (rec.destReg >= 0)
        reg_busy_[rec.destReg] = true;

    stats_.inc(stat_.memOps);
    if (sink_)
        emitOpEvent(TraceKind::Issue, rec, id);
    CacheOp op;
    op.id = id;
    op.kind = kind;
    op.addr = insn.addr;
    op.writeValue = write_value;
    port_.request(op);
    return true;
}

void
Processor::drainWriteBuffer()
{
    if (wb_drain_in_flight_ || write_buffer_.empty())
        return;
    const WbEntry &head = write_buffer_.front();
    // Same-address ordering (condition 1) binds the drain too: the cache
    // holds one miss per address, so the head must wait while an
    // ordinary access to its line is outstanding. opCommitted clears the
    // block and re-invokes the drain.
    if (addr_blocked_.count(head.addr))
        return;
    Tick ready = head.insertTick + cfg_.wbDrainDelay;
    Tick delay = ready > eq_.now() ? ready - eq_.now() : 0;
    if (delay > 0) {
        // Re-decide at ready time; the address block may change. A
        // duplicate wakeup is harmless — the re-check is idempotent.
        eq_.scheduleAfter(delay, [this] { drainWriteBuffer(); });
        return;
    }
    wb_drain_in_flight_ = true;
    CacheOp op;
    op.id = head.id;
    op.kind = AccessKind::DataWrite;
    op.addr = head.addr;
    op.writeValue = head.value;
    port_.request(op);
}

void
Processor::opCommitted(std::uint64_t id, Word read_value)
{
    auto it = ops_.find(id);
    assert(it != ops_.end() && "commit for unknown op");
    OpRecord &rec = it->second;

    if (rec.fromWriteBuffer) {
        // The head drain reached the cache; release the buffer slot.
        assert(!write_buffer_.empty() && write_buffer_.front().id == id);
        write_buffer_.pop_front();
        wb_drain_in_flight_ = false;
        drainWriteBuffer();
        if (rec.gp) // GP raced ahead of the commit notification
            ops_.erase(it);
        scheduleAdvance(0);
        return;
    }

    assert(!rec.committed);
    rec.committed = true;
    --outstanding_;
    if (isSync(rec.kind))
        --syncs_not_committed_;
    addr_blocked_.erase(rec.addr);
    drainWriteBuffer(); // a buffered write to rec.addr may be waiting
    if (rec.destReg >= 0) {
        regs_[rec.destReg] = read_value;
        reg_busy_[rec.destReg] = false;
    }
    if (trace_ && rec.traceId >= 0) {
        Access &a = trace_->mutableAt(rec.traceId);
        a.commitTick = eq_.now();
        if (readsMemory(rec.kind))
            a.valueRead = read_value;
    }
    if (sink_)
        emitOpEvent(TraceKind::Commit, rec, id);
    if (rec.gp)
        ops_.erase(it);
    scheduleAdvance(0);
}

void
Processor::opGloballyPerformed(std::uint64_t id)
{
    auto it = ops_.find(id);
    assert(it != ops_.end() && "gp for unknown op");
    OpRecord &rec = it->second;
    assert(!rec.gp);
    rec.gp = true;
    --not_gp_;
    if (isSync(rec.kind))
        --syncs_not_gp_;
    if (trace_ && rec.traceId >= 0)
        trace_->mutableAt(rec.traceId).gpTick = eq_.now();
    if (sink_) {
        emitOpEvent(TraceKind::GloballyPerformed, rec, id);
        lat_gp_.record(eq_.now() - rec.issueTick);
    } else {
        // Tracing off: keep the latency *buckets* observable to an
        // installed CoverageMap without interning any stats.
        lat_gp_.coverOnly(eq_.now() - rec.issueTick);
    }
    // A buffered write counts as committed from insert, but the commit
    // of its drain may still be on its way: while the write heads the
    // buffer, opCommitted needs the record and erases it.
    bool done = rec.committed &&
                !(rec.fromWriteBuffer && !write_buffer_.empty() &&
                  write_buffer_.front().id == id);
    if (done)
        ops_.erase(it);
    scheduleAdvance(0);
}

void
Processor::counterReadsZero()
{
    scheduleAdvance(0);
}

} // namespace wo
