#include "core/trace_render.hh"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>
#include <vector>

namespace wo {

namespace {

/** Collapse empty time gaps longer than this many rows. */
constexpr int kMaxGap = 2;

/** Column width per processor. */
constexpr int kColumnWidth = 14;

/** Compact cell text for one access, e.g. "W(x3)=5" or "S(rw)(x9)". */
std::string
cell(const Access &a)
{
    std::ostringstream oss;
    switch (a.kind) {
      case AccessKind::DataRead:
        oss << "R(x" << a.addr << ")=" << a.valueRead;
        break;
      case AccessKind::DataWrite:
        oss << "W(x" << a.addr << ")=" << a.valueWritten;
        break;
      case AccessKind::SyncRead:
        oss << "S.r(x" << a.addr << ")=" << a.valueRead;
        break;
      case AccessKind::SyncWrite:
        oss << "S.w(x" << a.addr << ")=" << a.valueWritten;
        break;
      case AccessKind::SyncRmw:
        oss << "S.rw(x" << a.addr << ")" << a.valueRead << ">"
            << a.valueWritten;
        break;
    }
    return oss.str();
}

} // namespace

std::string
renderColumns(const ExecutionTrace &trace)
{
    std::ostringstream out;
    int nprocs = trace.numProcs();
    if (nprocs == 0 || trace.size() == 0)
        return "(empty trace)\n";

    // Bucket accesses by commit tick.
    std::map<Tick, std::vector<const Access *>> rows;
    for (const auto &a : trace.accesses())
        rows[a.commitTick].push_back(&a);

    const int w = kColumnWidth;
    // Header.
    out << std::setw(8) << "tick" << "  ";
    for (int p = 0; p < nprocs; ++p)
        out << std::left << std::setw(w) << ("P" + std::to_string(p));
    out << '\n';
    out << std::string(8, '-') << "  ";
    for (int p = 0; p < nprocs; ++p)
        out << std::string(w - 2, '-') << "  ";
    out << '\n';

    Tick prev = kNoTick;
    for (const auto &[tick, accs] : rows) {
        if (prev != kNoTick && tick > prev + 1 &&
            static_cast<int>(tick - prev) > kMaxGap) {
            out << std::setw(8) << "..." << "  " << '\n';
        }
        prev = tick;
        // Several accesses can share a tick (even per processor);
        // emit one line per layered access.
        std::map<int, std::vector<const Access *>> per_proc;
        std::size_t depth = 0;
        for (const Access *a : accs) {
            per_proc[a->proc].push_back(a);
            depth = std::max(depth, per_proc[a->proc].size());
        }
        for (std::size_t layer = 0; layer < depth; ++layer) {
            out << std::setw(8) << (layer == 0 ? std::to_string(tick) : "")
                << "  ";
            for (int p = 0; p < nprocs; ++p) {
                std::string text;
                auto it = per_proc.find(p);
                if (it != per_proc.end() && layer < it->second.size())
                    text = cell(*it->second[layer]);
                if (static_cast<int>(text.size()) > w - 1)
                    text = text.substr(0, w - 1);
                out << std::left << std::setw(w) << text;
            }
            out << '\n';
        }
    }
    return out.str();
}

} // namespace wo
