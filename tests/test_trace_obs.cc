/**
 * @file
 * Tests for the structured tracing + metrics layer (src/obs/):
 *
 *  - disabled path: a run without a sink records nothing, registers no
 *    extra stats, and produces the identical result to an untraced run;
 *  - exporter: Chrome-trace output is valid JSON, byte-identical across
 *    duplicate runs at a fixed seed, and contains issue /
 *    globally-performed / stall events for every processor;
 *  - latency histogram: bucket boundaries and StatSet mirroring;
 *  - stall attribution: per-reason cycles sum to each processor's total
 *    stall cycles, both via accessors and the finalizeObs() stats;
 *  - trace filters.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <sstream>

#include "obs/latency_histogram.hh"
#include "obs/trace_export.hh"
#include "obs/trace_sink.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/litmus.hh"

namespace wo {
namespace {

/**
 * Minimal JSON validity checker (objects, arrays, strings, numbers,
 * true/false/null). Returns true iff the whole input is one valid value.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= s_.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(s_[pos_])))
                            return false;
                    }
                } else if (!strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            } else if (static_cast<unsigned char>(s_[pos_]) < 0x20) {
                return false; // raw control char
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *lit)
    {
        std::size_t n = std::strlen(lit);
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

SystemConfig
tracedConfig(PolicyKind policy, TraceSink *sink)
{
    SystemConfig cfg = machineOrThrow("net-cold").config(policy, 1);
    cfg.traceSink = sink;
    return cfg;
}

// ---------------------------------------------------------------------
// Disabled path.

TEST(TraceObs, DisabledPathRecordsNothingAndChangesNothing)
{
    MultiProgram prog = dekkerLitmus();

    // Reference run: obs never touched.
    System plain(prog, machineOrThrow("net-cold").config(PolicyKind::Sc, 1));
    ASSERT_TRUE(plain.run());

    // Second run, still without a sink: results and the whole stats map
    // must be identical — registering trace machinery may not perturb
    // reports.
    System again(prog,
                 machineOrThrow("net-cold").config(PolicyKind::Sc, 1));
    ASSERT_TRUE(again.run());
    EXPECT_EQ(plain.result().registers, again.result().registers);
    EXPECT_EQ(plain.stats().all(), again.stats().all());

    // No per-reason stall stats and no histogram stats appear when
    // tracing is off.
    for (const auto &[name, value] : plain.stats().all()) {
        EXPECT_EQ(name.find(".stall."), std::string::npos) << name;
        EXPECT_EQ(name.find(".lat_"), std::string::npos) << name;
        EXPECT_EQ(name.find("stall_cycles_total"), std::string::npos)
            << name;
    }

    // Histograms exist but hold no samples.
    EXPECT_EQ(plain.processor(0).issueGpHistogram().count(), 0u);
    EXPECT_EQ(plain.interconnect().msgLatencyHistogram().count(), 0u);
}

TEST(TraceObs, TracedRunResultMatchesUntracedRun)
{
    MultiProgram prog = dekkerLitmus();

    System plain(prog, machineOrThrow("net-cold").config(PolicyKind::Sc, 1));
    ASSERT_TRUE(plain.run());

    TraceBuffer buf;
    System traced(prog, tracedConfig(PolicyKind::Sc, &buf));
    ASSERT_TRUE(traced.run());

    // Tracing observes; it must not perturb the simulation.
    EXPECT_EQ(plain.result().registers, traced.result().registers);
    EXPECT_EQ(plain.result().finalMemory, traced.result().finalMemory);
    EXPECT_EQ(plain.finishTick(), traced.finishTick());
    EXPECT_GT(buf.events().size(), 0u);
}

// ---------------------------------------------------------------------
// Exporter.

TEST(TraceObs, ChromeTraceIsValidJson)
{
    TraceBuffer buf;
    System sys(dekkerLitmus(), tracedConfig(PolicyKind::Sc, &buf));
    ASSERT_TRUE(sys.run());

    std::ostringstream os;
    writeChromeTrace(os, buf.events());
    std::string json = os.str();
    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceObs, DuplicateRunsProduceByteIdenticalTraces)
{
    std::string first;
    for (int i = 0; i < 2; ++i) {
        TraceBuffer buf;
        System sys(dekkerLitmus(),
                   tracedConfig(PolicyKind::Def2Drf0, &buf));
        ASSERT_TRUE(sys.run());
        std::ostringstream os;
        writeChromeTrace(os, buf.events());
        if (i == 0)
            first = os.str();
        else
            EXPECT_EQ(first, os.str());
    }
}

TEST(TraceObs, EveryProcessorHasIssueGpAndStallEvents)
{
    TraceBuffer buf;
    MultiProgram prog = tasLockCounter(2, 4);
    System sys(prog, tracedConfig(PolicyKind::Sc, &buf));
    ASSERT_TRUE(sys.run());

    int nprocs = prog.numProcs();
    std::vector<int> issues(nprocs, 0), gps(nprocs, 0), stalls(nprocs, 0);
    int invs = 0;
    for (const TraceEvent &ev : buf.events()) {
        if (ev.comp == TraceComp::Proc && ev.proc >= 0 &&
            ev.proc < nprocs) {
            if (ev.kind == TraceKind::Issue)
                ++issues[ev.proc];
            else if (ev.kind == TraceKind::GloballyPerformed)
                ++gps[ev.proc];
            else if (ev.kind == TraceKind::StallBegin)
                ++stalls[ev.proc];
        }
        if (ev.kind == TraceKind::InvSent ||
            ev.kind == TraceKind::InvApplied)
            ++invs;
    }
    for (int p = 0; p < nprocs; ++p) {
        EXPECT_GT(issues[p], 0) << "proc" << p;
        EXPECT_GT(gps[p], 0) << "proc" << p;
        EXPECT_GT(stalls[p], 0) << "proc" << p;
    }
    EXPECT_GT(invs, 0) << "lock contention must invalidate lines";
}

TEST(TraceObs, TextRenderingMentionsEveryKindPresent)
{
    TraceBuffer buf;
    System sys(dekkerLitmus(), tracedConfig(PolicyKind::Sc, &buf));
    ASSERT_TRUE(sys.run());
    std::ostringstream os;
    renderTraceText(os, buf.events());
    std::string text = os.str();
    EXPECT_NE(text.find("issue"), std::string::npos);
    EXPECT_NE(text.find("globally_performed"), std::string::npos);
}

// ---------------------------------------------------------------------
// Latency histogram.

TEST(LatencyHistogram, BucketBoundaries)
{
    EXPECT_EQ(LatencyHistogram::bucketIndex(0), 0);
    EXPECT_EQ(LatencyHistogram::bucketIndex(1), 1);
    EXPECT_EQ(LatencyHistogram::bucketIndex(2), 2);
    EXPECT_EQ(LatencyHistogram::bucketIndex(3), 2);
    EXPECT_EQ(LatencyHistogram::bucketIndex(4), 3);
    EXPECT_EQ(LatencyHistogram::bucketIndex(7), 3);
    EXPECT_EQ(LatencyHistogram::bucketIndex(8), 4);
    EXPECT_EQ(LatencyHistogram::bucketIndex(1023), 10);
    EXPECT_EQ(LatencyHistogram::bucketIndex(1024), 11);
    EXPECT_EQ(LatencyHistogram::bucketIndex(Tick{1} << 32),
              LatencyHistogram::kBuckets - 1);
    EXPECT_EQ(LatencyHistogram::bucketIndex(~Tick{0}),
              LatencyHistogram::kBuckets - 1);

    EXPECT_EQ(LatencyHistogram::bucketLow(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketHigh(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketLow(4), 8u);
    EXPECT_EQ(LatencyHistogram::bucketHigh(4), 15u);
}

TEST(LatencyHistogram, RecordsMirrorIntoStatSet)
{
    StatSet stats;
    LatencyHistogram h(stats, "h");

    // Handles intern lazily: an unused histogram adds no stats.
    EXPECT_TRUE(stats.all().empty());

    h.record(0);
    h.record(5);
    h.record(5);
    h.record(100);

    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.total(), 110u);
    EXPECT_EQ(h.maxValue(), 100u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[3], 2u);  // 5 is in [4,7]
    EXPECT_EQ(h.buckets()[7], 1u);  // 100 is in [64,127]

    EXPECT_EQ(stats.get("h.count"), 4u);
    EXPECT_EQ(stats.get("h.total"), 110u);
    EXPECT_EQ(stats.get("h.max"), 100u);
    EXPECT_EQ(stats.get("h.bucket_00"), 1u);
    EXPECT_EQ(stats.get("h.bucket_03"), 2u);
    EXPECT_EQ(stats.get("h.bucket_07"), 1u);
}

// ---------------------------------------------------------------------
// Stall attribution.

TEST(TraceObs, StallReasonCyclesSumToTotal)
{
    for (PolicyKind policy : {PolicyKind::Sc, PolicyKind::Def2Drf0}) {
        TraceBuffer buf;
        MultiProgram prog = tasLockCounter(2, 4);
        System sys(prog, tracedConfig(policy, &buf));
        ASSERT_TRUE(sys.run()) << toString(policy);

        for (ProcId p = 0; p < prog.numProcs(); ++p) {
            const Processor &proc = sys.processor(p);
            Tick sum = 0;
            for (int r = 0; r < kNumStallReasons; ++r)
                sum += proc.stallCyclesFor(static_cast<StallReason>(r));
            EXPECT_EQ(sum, proc.stallCycles())
                << toString(policy) << " proc" << p;

            // finalizeObs (run by System::run) mirrors the same
            // invariant into the stats.
            std::string base = "proc" + std::to_string(p);
            Tick stat_sum = 0;
            for (int r = 0; r < kNumStallReasons; ++r) {
                stat_sum += sys.stats().get(
                    base + ".stall." +
                    toString(static_cast<StallReason>(r)));
            }
            EXPECT_EQ(stat_sum,
                      sys.stats().get(base + ".stall_cycles_total"))
                << toString(policy) << " proc" << p;
        }
    }
}

TEST(TraceObs, StallEventsBalanceAndCarryReasons)
{
    TraceBuffer buf;
    MultiProgram prog = tasLockCounter(2, 4);
    System sys(prog, tracedConfig(PolicyKind::Sc, &buf));
    ASSERT_TRUE(sys.run());

    int begins = 0, ends = 0;
    for (const TraceEvent &ev : buf.events()) {
        if (ev.kind == TraceKind::StallBegin) {
            ++begins;
            ASSERT_NE(ev.detail, nullptr);
        } else if (ev.kind == TraceKind::StallEnd) {
            ++ends;
        }
    }
    EXPECT_GT(begins, 0);
    // Every stall that ended produced a matched end; at most one per
    // processor may still be open at the end of the run.
    EXPECT_LE(begins - ends, prog.numProcs());
    EXPECT_GE(begins, ends);
}

// ---------------------------------------------------------------------
// Filters.

TEST(TraceObs, ParseTraceFilter)
{
    EXPECT_EQ(parseTraceFilter("all"), kAllTraceComps);
    EXPECT_EQ(parseTraceFilter("proc"), traceCompBit(TraceComp::Proc));
    EXPECT_EQ(parseTraceFilter("proc,cache"),
              traceCompBit(TraceComp::Proc) |
                  traceCompBit(TraceComp::Cache));
    EXPECT_EQ(parseTraceFilter("net,mem,port,dir"),
              traceCompBit(TraceComp::Net) | traceCompBit(TraceComp::Mem) |
                  traceCompBit(TraceComp::Port) |
                  traceCompBit(TraceComp::Dir));
    EXPECT_THROW(parseTraceFilter("bogus"), std::runtime_error);
    EXPECT_THROW(parseTraceFilter("log"), std::runtime_error);
    EXPECT_THROW(parseTraceFilter(""), std::runtime_error);
    // An empty item is an error wherever it sits.
    EXPECT_THROW(parseTraceFilter("proc,"), std::runtime_error);
    EXPECT_THROW(parseTraceFilter(",proc"), std::runtime_error);
    EXPECT_THROW(parseTraceFilter("proc,,cache"), std::runtime_error);
}

TEST(TraceObs, BufferMaskFiltersComponents)
{
    TraceBuffer buf(traceCompBit(TraceComp::Proc));
    System sys(dekkerLitmus(), tracedConfig(PolicyKind::Sc, &buf));
    ASSERT_TRUE(sys.run());
    EXPECT_GT(buf.events().size(), 0u);
    for (const TraceEvent &ev : buf.events())
        EXPECT_EQ(ev.comp, TraceComp::Proc);
}

} // namespace
} // namespace wo
