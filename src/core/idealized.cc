#include "core/idealized.hh"

#include <algorithm>

#include "core/race_detector.hh"

namespace wo {

IdealizedMachine::IdealizedMachine(const MultiProgram &program)
    : nregs_(static_cast<std::size_t>(program.numRegisters())),
      addrs_(program.touchedAddrs())
{
    const int n = program.numProcs();
    initial_.reserve(addrs_.size());
    for (Addr a : addrs_) {
        Word init = program.initialValue(a);
        initial_.push_back(init);
        trace_.setInitial(a, init);
    }
    code_.resize(static_cast<std::size_t>(n));
    int static_insns = 0;
    for (ProcId p = 0; p < n; ++p) {
        const std::vector<Instruction> &insns = program.program(p).code();
        static_insns += static_cast<int>(insns.size());
        std::vector<Op> &code = code_[static_cast<std::size_t>(p)];
        code.reserve(insns.size());
        for (const Instruction &insn : insns) {
            Op op;
            op.insn = insn;
            if (insn.isMemOp()) {
                op.kind = insn.accessKind();
                op.slot = static_cast<int>(
                    std::lower_bound(addrs_.begin(), addrs_.end(),
                                     insn.addr) -
                    addrs_.begin());
            }
            code.push_back(op);
        }
    }
    // Static instruction count is a sound lower bound on the dynamic
    // access count; reserving it up front keeps straight-line recording
    // free of reallocation (loops still grow geometrically).
    trace_.reserve(std::min(static_insns, 4096));
    pcs_.resize(static_cast<std::size_t>(n));
    regs_.resize(static_cast<std::size_t>(n) * nregs_);
    halted_.resize(static_cast<std::size_t>(n));
    poIndex_.resize(static_cast<std::size_t>(n));
    reset();
}

void
IdealizedMachine::attachRaceDetector(RaceDetector *det)
{
    detector_ = det;
    detSlot_.clear();
    if (det) {
        for (Addr a : addrs_)
            detSlot_.push_back(det->slotOf(a));
    }
}

void
IdealizedMachine::reset()
{
    std::fill(pcs_.begin(), pcs_.end(), 0);
    std::fill(regs_.begin(), regs_.end(), 0);
    std::fill(poIndex_.begin(), poIndex_.end(), 0);
    // A processor with an empty program is immediately halted.
    running_ = 0;
    for (std::size_t p = 0; p < code_.size(); ++p) {
        halted_[p] = code_[p].empty();
        running_ += !halted_[p];
    }
    memory_ = initial_;
    trace_.clearAccesses();
    steps_ = 0;
}

Word
IdealizedMachine::memory(Addr a) const
{
    auto it = std::lower_bound(addrs_.begin(), addrs_.end(), a);
    if (it == addrs_.end() || *it != a)
        return 0;
    return memory_[static_cast<std::size_t>(it - addrs_.begin())];
}

void
IdealizedMachine::record(ProcId p, const Op &op, Word read, Word written)
{
    Access a;
    a.proc = p;
    a.poIndex = poIndex_[p]++;
    a.kind = op.kind;
    a.addr = op.insn.addr;
    a.valueRead = read;
    a.valueWritten = written;
    a.commitTick = steps_;
    a.gpTick = steps_;
    trace_.add(a);
    if (detector_)
        detector_->onAccess(trace_.accesses().back(),
                            detSlot_[static_cast<std::size_t>(op.slot)]);
}

bool
IdealizedMachine::step(ProcId p)
{
    if (halted_[p])
        return false;
    const std::vector<Op> &code = code_[static_cast<std::size_t>(p)];
    const Op &op = code[static_cast<std::size_t>(pcs_[p])];
    const Instruction &insn = op.insn;
    Word *regs = &regs_[regIndex(p, 0)];

    int next_pc = pcs_[p] + 1;
    bool halts = false;
    switch (insn.op) {
      case Opcode::Load:
      case Opcode::SyncRead: {
        Word v = memory_[static_cast<std::size_t>(op.slot)];
        regs[insn.dst] = v;
        record(p, op, v, 0);
        break;
      }
      case Opcode::Store:
      case Opcode::SyncWrite: {
        Word v = insn.src >= 0 ? regs[insn.src] : insn.imm;
        memory_[static_cast<std::size_t>(op.slot)] = v;
        record(p, op, 0, v);
        break;
      }
      case Opcode::TestAndSet: {
        Word &mem = memory_[static_cast<std::size_t>(op.slot)];
        Word old = mem;
        regs[insn.dst] = old;
        mem = insn.imm;
        record(p, op, old, insn.imm);
        break;
      }
      case Opcode::Movi:
        regs[insn.dst] = insn.imm;
        break;
      case Opcode::Addi:
        regs[insn.dst] = regs[insn.src] + insn.imm;
        break;
      case Opcode::Beq:
        if (regs[insn.src] == insn.imm)
            next_pc = insn.target;
        break;
      case Opcode::Bne:
        if (regs[insn.src] != insn.imm)
            next_pc = insn.target;
        break;
      case Opcode::Fence: // atomic machine: already fully ordered
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        halts = true;
        break;
    }
    // Falling off the end is an implicit halt.
    if (halts || next_pc >= static_cast<int>(code.size())) {
        halted_[p] = 1;
        --running_;
    } else {
        pcs_[p] = next_pc;
    }
    ++steps_;
    return true;
}

RunResult
IdealizedMachine::result() const
{
    RunResult r;
    for (std::size_t i = 0; i < addrs_.size(); ++i)
        r.finalMemory.emplace_hint(r.finalMemory.end(), addrs_[i],
                                   memory_[i]);
    r.registers.reserve(code_.size());
    for (std::size_t p = 0; p < code_.size(); ++p) {
        auto first = regs_.begin() + static_cast<std::ptrdiff_t>(p * nregs_);
        r.registers.emplace_back(first,
                                 first + static_cast<std::ptrdiff_t>(nregs_));
    }
    r.allHalted = allHalted();
    return r;
}

RunResult
runWithSchedule(const MultiProgram &program,
                const std::vector<ProcId> &schedule,
                ExecutionTrace *trace_out)
{
    // Bounds a schedule that never lets a spinning processor halt.
    constexpr int kMaxSteps = 10000;
    IdealizedMachine m(program);
    int steps = 0;
    for (ProcId p : schedule) {
        if (steps >= kMaxSteps)
            break;
        if (p >= 0 && p < program.numProcs() && !m.halted(p)) {
            m.step(p);
            ++steps;
        }
    }
    // Round-robin to completion.
    while (!m.allHalted() && steps < kMaxSteps) {
        bool progressed = false;
        for (ProcId p = 0; p < program.numProcs(); ++p) {
            if (!m.halted(p)) {
                m.step(p);
                ++steps;
                progressed = true;
            }
        }
        if (!progressed)
            break;
    }
    if (trace_out)
        *trace_out = m.trace();
    return m.result();
}

} // namespace wo
