/**
 * @file
 * Render an execution trace in the paper's Figure 2 layout: one column
 * per processor, time flowing downward, each access placed at the row of
 * its commit time.
 */

#ifndef WO_CORE_TRACE_RENDER_HH
#define WO_CORE_TRACE_RENDER_HH

#include <string>

#include "core/trace.hh"

namespace wo {

/**
 * Render @p trace as per-processor columns over time (commit order),
 * like the paper's Figure 2, each row annotated with its commit tick.
 */
std::string renderColumns(const ExecutionTrace &trace);

} // namespace wo

#endif // WO_CORE_TRACE_RENDER_HH
