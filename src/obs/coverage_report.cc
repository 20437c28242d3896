#include "obs/coverage_report.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace wo {

namespace {

/** Keys are tab-separated fields; tabs/newlines in one would corrupt
 * the document, so sanitize defensively at write time. */
std::string
fieldSafe(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        if (c == '\t' || c == '\n' || c == '\r')
            c = ' ';
    return out;
}

std::vector<std::string>
splitTabs(const std::string &line)
{
    std::vector<std::string> fields;
    std::size_t pos = 0;
    while (true) {
        std::size_t tab = line.find('\t', pos);
        if (tab == std::string::npos) {
            fields.push_back(line.substr(pos));
            return fields;
        }
        fields.push_back(line.substr(pos, tab - pos));
        pos = tab + 1;
    }
}

std::uint64_t
parseCount(const std::string &s, int lineno)
{
    try {
        std::size_t end = 0;
        std::uint64_t v = std::stoull(s, &end);
        if (end == s.size() && !s.empty())
            return v;
    } catch (const std::exception &) {
    }
    throw std::runtime_error("wocover: line " + std::to_string(lineno) +
                             ": bad count '" + s + "'");
}

[[noreturn]] void
badLine(int lineno, const std::string &why)
{
    throw std::runtime_error("wocover: line " + std::to_string(lineno) +
                             ": " + why);
}

/** Short column labels for the heatmap grid, LineEvent order. */
const char *const kEventShort[kNumLineEvents] = {
    "Load", "Store", "Evict", "FillS", "FillE",
    "FillM", "UpgOwn", "Inv", "FwdGetS", "FwdGetX",
};

} // namespace

void
StandingCoverage::addCoverage(const CoverageMap &map)
{
    for (int k = 0; k < kNumProtocolKinds; ++k) {
        for (int s = 0; s < kNumLineStates; ++s) {
            for (int e = 0; e < kNumLineEvents; ++e) {
                ProtocolKind pk = static_cast<ProtocolKind>(k);
                LineState ls = static_cast<LineState>(s);
                LineEvent le = static_cast<LineEvent>(e);
                std::uint64_t n = map.transitionCount(pk, ls, le);
                if (n)
                    transitions[{toString(pk), toString(ls),
                                 toString(le)}] += n;
            }
        }
    }
    using Dim = CoverageMap::Dim;
    for (const auto &[k, n] : map.entries(Dim::Stall))
        stalls[k] += n;
    for (const auto &[k, n] : map.entries(Dim::Bucket))
        buckets[k] += n;
    for (const auto &[k, n] : map.entries(Dim::Outcome)) {
        std::vector<std::string> f = splitTabs(k);
        if (f.size() != 4) {
            // A malformed composite key would silently vanish from the
            // report; fail loudly instead (runner bug).
            throw std::runtime_error(
                "coverage outcome key is not test\\tpolicy\\tmachine"
                "\\tkey: '" + k + "'");
        }
        outcomes[{f[0], f[1], f[2], f[3]}] += n;
    }
}

void
StandingCoverage::addMachine(const std::string &name,
                             const std::string &protocol, int cacheLevels)
{
    MachineMeta &m = machines[name];
    m.protocol = protocol;
    m.cacheLevels = cacheLevels;
}

void
StandingCoverage::mergeFrom(const StandingCoverage &other)
{
    runs += other.runs;
    meta.insert(other.meta.begin(), other.meta.end());
    for (const auto &[name, mm] : other.machines)
        machines[name] = mm;
    for (const auto &[k, n] : other.transitions)
        transitions[k] += n;
    for (const auto &[k, n] : other.stalls)
        stalls[k] += n;
    for (const auto &[k, n] : other.buckets)
        buckets[k] += n;
    for (const auto &[k, n] : other.outcomes)
        outcomes[k] += n;
}

void
StandingCoverage::write(std::ostream &os) const
{
    os << "wocover\t" << kVersion << "\n";
    os << "meta\truns\t" << runs << "\n";
    for (const auto &[k, v] : meta)
        os << "meta\t" << fieldSafe(k) << "\t" << fieldSafe(v) << "\n";
    for (const auto &[name, mm] : machines) {
        os << "machine\t" << fieldSafe(name) << "\t"
           << fieldSafe(mm.protocol) << "\t" << mm.cacheLevels << "\n";
    }
    for (const auto &[k, n] : transitions) {
        os << "trans\t" << k[0] << "\t" << k[1] << "\t" << k[2] << "\t"
           << n << "\n";
    }
    for (const auto &[k, n] : stalls)
        os << "stall\t" << fieldSafe(k) << "\t" << n << "\n";
    for (const auto &[k, n] : buckets)
        os << "bucket\t" << fieldSafe(k) << "\t" << n << "\n";
    for (const auto &[k, n] : outcomes) {
        os << "outcome\t" << fieldSafe(k[0]) << "\t" << fieldSafe(k[1])
           << "\t" << fieldSafe(k[2]) << "\t" << fieldSafe(k[3]) << "\t"
           << n << "\n";
    }
}

StandingCoverage
StandingCoverage::read(std::istream &is)
{
    StandingCoverage rep;
    std::string line;
    int lineno = 0;
    bool sawHeader = false;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::vector<std::string> f = splitTabs(line);
        if (!sawHeader) {
            if (f.size() != 2 || f[0] != "wocover")
                badLine(lineno, "missing 'wocover <version>' header");
            if (f[1] != std::to_string(kVersion))
                badLine(lineno, "unsupported wocover version '" + f[1] +
                                    "'");
            sawHeader = true;
            continue;
        }
        const std::string &tag = f[0];
        if (tag == "meta") {
            if (f.size() != 3)
                badLine(lineno, "meta needs 2 fields");
            if (f[1] == "runs")
                rep.runs += parseCount(f[2], lineno);
            else
                rep.meta.insert({f[1], f[2]});
        } else if (tag == "machine") {
            if (f.size() != 4)
                badLine(lineno, "machine needs 3 fields");
            rep.addMachine(f[1], f[2],
                           static_cast<int>(parseCount(f[3], lineno)));
        } else if (tag == "trans") {
            if (f.size() != 5)
                badLine(lineno, "trans needs 4 fields");
            rep.transitions[{f[1], f[2], f[3]}] +=
                parseCount(f[4], lineno);
        } else if (tag == "stall") {
            if (f.size() != 3)
                badLine(lineno, "stall needs 2 fields");
            rep.stalls[f[1]] += parseCount(f[2], lineno);
        } else if (tag == "bucket") {
            if (f.size() != 3)
                badLine(lineno, "bucket needs 2 fields");
            rep.buckets[f[1]] += parseCount(f[2], lineno);
        } else if (tag == "outcome") {
            if (f.size() != 6)
                badLine(lineno, "outcome needs 5 fields");
            rep.outcomes[{f[1], f[2], f[3], f[4]}] +=
                parseCount(f[5], lineno);
        } else {
            badLine(lineno, "unknown section '" + tag + "'");
        }
    }
    if (!sawHeader)
        throw std::runtime_error("wocover: empty document");
    return rep;
}

StandingCoverage
StandingCoverage::readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("wocover: cannot open " + path);
    return read(in);
}

void
renderHeatmap(std::ostream &os, const StandingCoverage &rep)
{
    std::set<std::string> unknown;
    for (const auto &[k, n] : rep.transitions) {
        ProtocolKind pk;
        if (!parseProtocolName(k[0], &pk))
            unknown.insert(k[0]);
    }

    for (int ki = 0; ki < kNumProtocolKinds; ++ki) {
        ProtocolKind kind = static_cast<ProtocolKind>(ki);
        const CoherenceProtocol &proto = CoherenceProtocol::get(kind);

        auto count = [&](LineState s, LineEvent e) -> std::uint64_t {
            auto it = rep.transitions.find(
                {toString(kind), toString(s), toString(e)});
            return it == rep.transitions.end() ? 0 : it->second;
        };

        int legal = 0, hit = 0;
        std::uint64_t touched = 0;
        for (int s = 0; s < kNumLineStates; ++s) {
            for (int e = 0; e < kNumLineEvents; ++e) {
                LineState ls = static_cast<LineState>(s);
                LineEvent le = static_cast<LineEvent>(e);
                if (!proto.legal(ls, le))
                    continue;
                ++legal;
                std::uint64_t n = count(ls, le);
                touched += n;
                if (n)
                    ++hit;
            }
        }

        os << proto.name() << ": " << hit << "/" << legal
           << " legal transitions hit";
        if (touched == 0) {
            // Never exercised at all: a 0/14 grid would read as 14
            // gaps when the report simply has no runs of this
            // protocol. Say so and skip the grid.
            os << " (not exercised by this report)\n\n";
            continue;
        }
        os << "\n";

        os << std::setw(4) << "";
        for (int e = 0; e < kNumLineEvents; ++e)
            os << std::setw(9) << kEventShort[e];
        os << "\n";
        for (int s = 0; s < kNumLineStates; ++s) {
            LineState ls = static_cast<LineState>(s);
            if (!proto.hasState(ls))
                continue;
            os << std::setw(4) << toString(ls);
            for (int e = 0; e < kNumLineEvents; ++e) {
                LineEvent le = static_cast<LineEvent>(e);
                std::ostringstream cell;
                if (!proto.legal(ls, le))
                    cell << "-";
                else
                    cell << count(ls, le);
                os << std::setw(9) << cell.str();
            }
            os << "\n";
        }
        os << "\n";
    }

    for (const std::string &name : unknown) {
        os << name << ": unknown protocol, raw counts\n";
        for (const auto &[k, n] : rep.transitions) {
            if (k[0] == name) {
                os << "  " << k[1] << " x " << k[2] << ": " << n
                   << "\n";
            }
        }
        os << "\n";
    }
}

CoverageGaps
findGaps(const StandingCoverage &rep)
{
    CoverageGaps gaps;
    for (int ki = 0; ki < kNumProtocolKinds; ++ki) {
        ProtocolKind kind = static_cast<ProtocolKind>(ki);
        const CoherenceProtocol &proto = CoherenceProtocol::get(kind);
        bool touched = false;
        for (const auto &[k, n] : rep.transitions)
            if (k[0] == toString(kind) && n)
                touched = true;
        if (!touched)
            continue;
        for (int s = 0; s < kNumLineStates; ++s) {
            for (int e = 0; e < kNumLineEvents; ++e) {
                LineState ls = static_cast<LineState>(s);
                LineEvent le = static_cast<LineEvent>(e);
                if (!proto.legal(ls, le))
                    continue;
                auto it = rep.transitions.find(
                    {toString(kind), toString(ls), toString(le)});
                if (it != rep.transitions.end() && it->second)
                    continue;
                const LineTransition &t = proto.on(ls, le);
                gaps.unhitTransitions.push_back(
                    std::string(proto.name()) + ": " + toString(ls) +
                    " x " + toString(le) + " (" + toString(t.action) +
                    " -> " + toString(t.next) + ")");
            }
        }
    }
    for (const auto &[k, n] : rep.outcomes) {
        if (n == 0) {
            gaps.unobservedOutcomes.push_back(k[0] + " / " + k[1] +
                                              " / " + k[2] + ": {" +
                                              k[3] + "}");
        }
    }
    return gaps;
}

void
renderGaps(std::ostream &os, const StandingCoverage &rep)
{
    CoverageGaps gaps = findGaps(rep);
    if (gaps.empty()) {
        os << "no gaps: every exercised protocol table is fully hit "
              "and every allowed outcome was observed\n";
        return;
    }
    if (!gaps.unhitTransitions.empty()) {
        os << "unhit legal transitions ("
           << gaps.unhitTransitions.size() << "):\n";
        for (const std::string &g : gaps.unhitTransitions)
            os << "  " << g << "\n";
    }
    if (!gaps.unobservedOutcomes.empty()) {
        os << "allowed-but-unobserved outcomes ("
           << gaps.unobservedOutcomes.size() << "):\n";
        for (const std::string &g : gaps.unobservedOutcomes)
            os << "  " << g << "\n";
    }
}

namespace {

/** Generic covered->uncovered / uncovered->covered comparison. */
template <typename Map, typename Render>
void
diffDim(const Map &oldMap, const Map &newMap, const char *what,
        std::vector<std::string> &losses, std::vector<std::string> &gains,
        Render render)
{
    for (const auto &[k, n] : oldMap) {
        if (n == 0)
            continue;
        auto it = newMap.find(k);
        if (it == newMap.end()) {
            losses.push_back(std::string(what) + " " + render(k) +
                             ": covered (" + std::to_string(n) +
                             ") -> absent");
        } else if (it->second == 0) {
            losses.push_back(std::string(what) + " " + render(k) +
                             ": covered (" + std::to_string(n) +
                             ") -> 0");
        }
    }
    for (const auto &[k, n] : newMap) {
        if (n == 0)
            continue;
        auto it = oldMap.find(k);
        if (it == oldMap.end() || it->second == 0)
            gains.push_back(std::string(what) + " " + render(k));
    }
}

} // namespace

CoverageDiff
diffStanding(const StandingCoverage &oldRep, const StandingCoverage &newRep)
{
    CoverageDiff diff;
    auto trans3 = [](const std::array<std::string, 3> &k) {
        return k[0] + " " + k[1] + " x " + k[2];
    };
    auto plain = [](const std::string &k) { return k; };
    auto outcome4 = [](const std::array<std::string, 4> &k) {
        return k[0] + " / " + k[1] + " / " + k[2] + " {" + k[3] + "}";
    };
    diffDim(oldRep.transitions, newRep.transitions, "transition",
            diff.regressions, diff.gains, trans3);
    diffDim(oldRep.stalls, newRep.stalls, "stall", diff.regressions,
            diff.gains, plain);
    diffDim(oldRep.outcomes, newRep.outcomes, "outcome",
            diff.regressions, diff.gains, outcome4);
    diffDim(oldRep.buckets, newRep.buckets, "bucket", diff.bucketLosses,
            diff.gains, plain);
    return diff;
}

void
renderDiff(std::ostream &os, const CoverageDiff &diff)
{
    if (!diff.regressions.empty()) {
        os << "coverage regressions (" << diff.regressions.size()
           << "):\n";
        for (const std::string &r : diff.regressions)
            os << "  " << r << "\n";
    }
    if (!diff.bucketLosses.empty()) {
        os << "latency-bucket losses (informational, "
           << diff.bucketLosses.size() << "):\n";
        for (const std::string &r : diff.bucketLosses)
            os << "  " << r << "\n";
    }
    if (!diff.gains.empty())
        os << "newly covered: " << diff.gains.size() << " cells\n";
    if (diff.regressions.empty())
        os << "no coverage regressions\n";
}

} // namespace wo
