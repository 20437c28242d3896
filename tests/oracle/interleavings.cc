#include "oracle/interleavings.hh"

#include <memory>
#include <vector>

#include "core/idealized.hh"

namespace wo {

namespace {

/** Memo key of @p m's state: halt flags, program counters, registers
 * and memory, all read through the public interface. */
std::vector<std::uint64_t>
stateKey(const IdealizedMachine &m, int nprocs)
{
    RunResult r = m.result();
    std::vector<std::uint64_t> key;
    for (ProcId p = 0; p < nprocs; ++p) {
        key.push_back(m.halted(p));
        key.push_back(static_cast<std::uint64_t>(m.pc(p)));
        const std::vector<Word> &regs =
            r.registers[static_cast<std::size_t>(p)];
        key.insert(key.end(), regs.begin(), regs.end());
    }
    for (const auto &[addr, value] : r.finalMemory)
        key.push_back(value);
    return key;
}

/**
 * Call @p explore with @p m stepped by each runnable processor, in
 * processor order, until it returns false. Every branch but the last
 * steps a copy; the last steps @p m itself, which the caller no longer
 * needs. @p m must not be all-halted.
 */
template <class F>
void
forEachSuccessor(IdealizedMachine &m, int nprocs, F &&explore)
{
    ProcId last = nprocs - 1;
    while (m.halted(last))
        --last;
    for (ProcId p = 0; p < last; ++p) {
        if (m.halted(p))
            continue;
        // On the heap, so a deep search keeps its stack frames small.
        auto next = std::make_unique<IdealizedMachine>(m);
        next->step(p);
        if (!explore(*next))
            return;
    }
    m.step(last);
    explore(m);
}

struct OutcomeSearch
{
    const EnumLimits &limits;
    int nprocs;
    OutcomeSet out;
    std::set<std::vector<std::uint64_t>> visited;

    void
    dfs(IdealizedMachine &m, int depth)
    {
        if (out.bounded && visited.size() >= limits.maxStates)
            return;
        if (!visited.insert(stateKey(m, nprocs)).second)
            return;
        ++out.statesVisited;
        if (visited.size() >= limits.maxStates) {
            out.bounded = true;
            return;
        }
        if (m.allHalted()) {
            out.outcomes.insert(m.result());
            return;
        }
        if (depth >= limits.maxStepsPerExecution) {
            out.bounded = true;
            return;
        }
        forEachSuccessor(m, nprocs, [&](IdealizedMachine &next) {
            dfs(next, depth + 1);
            return true;
        });
    }
};

struct ExecutionSearch
{
    const EnumLimits &limits;
    int nprocs;
    const std::function<bool(const ExecutionTrace &, const RunResult &,
                             bool)> &visit;
    std::uint64_t execs = 0;
    bool capped = false;
    bool stopped = false;

    void
    leaf(const IdealizedMachine &m, bool complete)
    {
        ++execs;
        if (!visit(m.trace(), m.result(), complete))
            stopped = true;
        if (execs >= limits.maxExecutions) {
            capped = true;
            stopped = true;
        }
    }

    void
    dfs(IdealizedMachine &m, int depth)
    {
        if (stopped)
            return;
        if (m.allHalted()) {
            leaf(m, true);
            return;
        }
        if (depth >= limits.maxStepsPerExecution) {
            capped = true;
            leaf(m, false);
            return;
        }
        forEachSuccessor(m, nprocs, [&](IdealizedMachine &next) {
            dfs(next, depth + 1);
            return !stopped;
        });
    }
};

} // namespace

OutcomeSet
enumerateOutcomes(const MultiProgram &program, const EnumLimits &limits)
{
    IdealizedMachine m(program);
    OutcomeSearch search{limits, program.numProcs(), {}, {}};
    search.dfs(m, 0);
    return search.out;
}

bool
forEachExecution(
    const MultiProgram &program, const EnumLimits &limits,
    const std::function<bool(const ExecutionTrace &, const RunResult &,
                             bool complete)> &visit)
{
    IdealizedMachine m(program);
    ExecutionSearch search{limits, program.numProcs(), visit};
    search.dfs(m, 0);
    return !search.capped && !search.stopped;
}

Drf0ProgramReport
checkProgram(const MultiProgram &program, const Drf0CheckLimits &limits)
{
    Drf0ProgramReport report;
    EnumLimits el;
    el.maxStepsPerExecution = limits.maxStepsPerExecution;
    el.maxExecutions = limits.maxExecutions;

    bool exhaustive = forEachExecution(
        program, el,
        [&](const ExecutionTrace &trace, const RunResult &, bool) {
            ++report.executions;
            Drf0TraceReport tr = checkTrace(trace);
            if (!tr.raceFree) {
                report.obeysDrf0 = false;
                report.witness = trace;
                report.witnessReport = tr;
                return false; // one racy witness is enough
            }
            return true;
        });
    if (!exhaustive && report.obeysDrf0)
        report.bounded = true;
    return report;
}

} // namespace wo
