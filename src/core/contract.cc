#include "core/contract.hh"

#include <sstream>

#include "axiom/enumerate.hh"

namespace wo {

ContractReport
checkExecution(const MultiProgram &program, const ExecutionTrace &trace,
               const RunResult *hw_result)
{
    ContractReport report;
    report.scReport = verifySc(trace);
    report.appearsSc = report.scReport.sc();

    if (hw_result != nullptr) {
        report.outcomeChecked = true;
        axiom::AxiomResult sc = axiom::enumerateAllowed(
            program, {axiom::findAxiomModel("sc")}, {});
        report.outcomeSetBounded = !sc.complete;
        report.outcomeInScSet = sc.allowed.at("sc").count(*hw_result) > 0;
    }
    return report;
}

std::string
ContractReport::toString() const
{
    std::ostringstream oss;
    oss << (appearsSc ? "appears SC" : "VIOLATES SC appearance") << " ["
        << scReport.toString() << "]";
    if (outcomeChecked) {
        oss << "; outcome "
            << (outcomeInScSet ? "in" : "NOT in")
            << " idealized outcome set"
            << (outcomeSetBounded ? " (bounded)" : "");
    }
    return oss.str();
}

} // namespace wo
