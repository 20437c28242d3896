/**
 * @file
 * The paper's idealized architecture: all memory accesses execute
 * atomically and in program order. Definition 3 quantifies over executions
 * of this machine; Definition 2 compares hardware results against its
 * outcome set.
 *
 * The library interprets single executions of it: IdealizedMachine steps
 * one processor at a time (the sampled DRF0 check drives it with random
 * schedules), and runWithSchedule() replays one given interleaving. The
 * set of outcomes over all interleavings is the axiomatic "sc" model's
 * allowed set (axiom/enumerate.hh); the brute-force interleaving
 * enumerators that the tests pin it against live in tests/oracle/.
 */

#ifndef WO_CORE_IDEALIZED_HH
#define WO_CORE_IDEALIZED_HH

#include <cstdint>
#include <vector>

#include "core/trace.hh"
#include "cpu/program.hh"

namespace wo {

class RaceDetector;

/**
 * Interpreter state for one idealized (atomic, in-program-order)
 * execution.
 *
 * The program's touched addresses are interned once, at construction,
 * into dense slots kept in address order, and every memory instruction
 * has its slot resolved up front: a step indexes a vector instead of
 * searching a map, and reset() restarts the machine without giving back
 * any allocation, so sampling many executions of one program costs only
 * the steps taken.
 */
class IdealizedMachine
{
  public:
    explicit IdealizedMachine(const MultiProgram &program);

    /**
     * Attach an online race detector (nullptr detaches): every memory
     * access is streamed into it as it executes (trace order is a linear
     * extension of the happens-before relation on this machine), so
     * callers can poll RaceDetector::hasRace() after each step() and
     * abandon the execution at its first race. Only accesses recorded
     * after attachment are observed.
     */
    void attachRaceDetector(RaceDetector *det);

    /** Return to the initial state (no steps taken, empty trace),
     * keeping every allocation and the attached detector. */
    void reset();

    /** True when processor @p p reached Halt. */
    bool halted(ProcId p) const { return halted_[p] != 0; }

    /** True when every processor halted. */
    bool allHalted() const { return running_ == 0; }

    /** Number of instructions executed so far. */
    std::uint64_t steps() const { return steps_; }

    /**
     * Execute one instruction of processor @p p atomically.
     *
     * If the instruction is a memory access, it is appended to the
     * recorded trace. Returns false (and does nothing) if @p p already
     * halted.
     */
    bool step(ProcId p);

    /** Current value of a memory location (0 if the program never
     * touches it). */
    Word memory(Addr a) const;

    /** Current register value. */
    Word reg(ProcId p, int r) const { return regs_[regIndex(p, r)]; }

    /** Program counter of processor @p p. */
    int pc(ProcId p) const { return pcs_[p]; }

    /** The trace recorded so far (accesses of executed memory ops). */
    const ExecutionTrace &trace() const { return trace_; }

    /** Snapshot the observable outcome of the current state. */
    RunResult result() const;

  private:
    /** One instruction with its memory slot resolved. */
    struct Op
    {
        Instruction insn;
        AccessKind kind = AccessKind::DataRead; ///< memory ops only
        int slot = -1;                          ///< memory ops only
    };

    std::size_t
    regIndex(ProcId p, int r) const
    {
        return static_cast<std::size_t>(p) * nregs_ +
               static_cast<std::size_t>(r);
    }

    /** Append processor @p p's access by @p op to the trace and stream
     * it to the attached detector. */
    void record(ProcId p, const Op &op, Word read, Word written);

    RaceDetector *detector_ = nullptr;
    std::size_t nregs_ = 0;
    std::vector<Addr> addrs_;   ///< slot -> address, ascending
    std::vector<Word> initial_; ///< slot -> initial value
    std::vector<int> detSlot_;  ///< slot -> the detector's slot
    std::vector<std::vector<Op>> code_;
    std::vector<int> pcs_;
    std::vector<Word> regs_; ///< [proc * nregs_ + reg]
    std::vector<char> halted_;
    int running_ = 0; ///< processors not yet halted
    std::vector<int> poIndex_;
    std::vector<Word> memory_; ///< slot -> current value
    ExecutionTrace trace_;
    std::uint64_t steps_ = 0;
};

/**
 * Replay a specific interleaving: entries of @p schedule name the
 * processor to step next (entries for halted processors are skipped);
 * after the schedule is exhausted, execution continues round-robin until
 * all processors halt or 10,000 instructions have run in total.
 */
RunResult runWithSchedule(const MultiProgram &program,
                          const std::vector<ProcId> &schedule,
                          ExecutionTrace *trace_out = nullptr);

} // namespace wo

#endif // WO_CORE_IDEALIZED_HH
