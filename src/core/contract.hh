/**
 * @file
 * The weak-ordering contract of Definition 2, made executable.
 *
 * Definition 2: hardware is weakly ordered with respect to a
 * synchronization model iff it appears sequentially consistent to all
 * software that obeys the model.
 *
 * checkExecution() checks the hardware side for one execution: does the
 * recorded trace have a sequentially consistent explanation (Lemma 1),
 * and does its observable result fall inside the set of results the
 * idealized architecture can produce? That set is the axiomatic "sc"
 * model's allowed set (acyclic po U rf U co U fr). The software side,
 * whether the program obeys DRF0 (Definition 3), is
 * core/drf0_checker.hh.
 */

#ifndef WO_CORE_CONTRACT_HH
#define WO_CORE_CONTRACT_HH

#include <string>

#include "core/sc_verifier.hh"
#include "core/trace.hh"
#include "cpu/program.hh"

namespace wo {

/** Everything learned about one hardware execution vs. the contract. */
struct ContractReport
{
    /** The headline: the execution appears sequentially consistent. */
    bool appearsSc = false;

    /** Trace-level SC verification (Lemma 1). */
    ScReport scReport;

    /** Whether the observable result was also checked against the
     * idealized outcome set. */
    bool outcomeChecked = false;

    /** Result membership in the idealized outcome set (valid when
     * outcomeChecked). */
    bool outcomeInScSet = false;

    /** The outcome set's enumeration hit a cap, so it is a lower bound. */
    bool outcomeSetBounded = false;

    std::string toString() const;
};

/**
 * Check one hardware execution against the SC-appearance contract.
 *
 * @param program   the workload that was run
 * @param trace     the hardware execution's dynamic accesses
 * @param hw_result the hardware run's observable result; when given, it
 *                  is also checked for membership in the idealized
 *                  outcome set (enumerated per call)
 */
ContractReport checkExecution(const MultiProgram &program,
                              const ExecutionTrace &trace,
                              const RunResult *hw_result = nullptr);

} // namespace wo

#endif // WO_CORE_CONTRACT_HH
