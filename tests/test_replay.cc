/**
 * @file
 * The trace-replay pipeline: on-disk format round-trips, workload
 * generator determinism, the logical replay engine (windowed vs
 * whole-trace differential, race injection), the obs-layer capture sink,
 * and simulator-accurate replay on pooled Systems.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "core/drf0_checker.hh"
#include "cpu/program_builder.hh"
#include "oracle/happens_before.hh"
#include "replay/capture.hh"
#include "replay/replay_engine.hh"
#include "replay/system_replay.hh"
#include "replay/trace_format.hh"
#include "replay/trace_gen.hh"
#include "sim/stats.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"

namespace {

using namespace wo;

/** Unique path under the gtest temp dir, removed on destruction. */
class TempTrace
{
  public:
    explicit TempTrace(const std::string &tag)
        : path_(::testing::TempDir() + "wo_replay_" + tag + "_" +
                std::to_string(::getpid()) + ".wotrace")
    {
    }
    ~TempTrace() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

TEST(ReplayFormat, RoundTrip)
{
    ReplayTraceData data;
    data.initials = {{7, 42}, {9, 1}};
    data.threads.resize(3);
    data.threads[0] = {{ReplayOp::LockAcquire, 100, 0},
                       {ReplayOp::Write, 7, 5},
                       {ReplayOp::LockRelease, 100, 0}};
    data.threads[1] = {{ReplayOp::SyncRead, 9, 1},
                       {ReplayOp::Read, 7, 0},
                       {ReplayOp::BarrierWait, 200, 0},
                       {ReplayOp::Rmw, 100, 1}};
    // thread 2 deliberately empty

    TempTrace f("roundtrip");
    ASSERT_TRUE(saveReplayTrace(data, f.path()));

    ReplayTraceData back;
    ASSERT_TRUE(loadReplayTrace(f.path(), back));
    EXPECT_EQ(back.initials, data.initials);
    ASSERT_EQ(back.numThreads(), 3);
    EXPECT_EQ(back.threads[0], data.threads[0]);
    EXPECT_EQ(back.threads[1], data.threads[1]);
    EXPECT_TRUE(back.threads[2].empty());
    EXPECT_EQ(back.totalRecords(), 7u);
}

TEST(ReplayFormat, StreamingReaderSemantics)
{
    ReplayTraceData data;
    data.threads.resize(2);
    for (int i = 0; i < 5; ++i)
        data.threads[0].push_back(
            {ReplayOp::Write, static_cast<Addr>(i), static_cast<Word>(i)});
    data.threads[1].push_back({ReplayOp::Read, 3, 0});

    TempTrace f("stream");
    ASSERT_TRUE(saveReplayTrace(data, f.path()));

    ReplayTraceReader r;
    ASSERT_TRUE(r.open(f.path()));
    EXPECT_EQ(r.numThreads(), 2);
    EXPECT_EQ(r.totalRecords(), 6u);
    EXPECT_EQ(r.remaining(0), 5u);

    ReplayRecord rec;
    ASSERT_TRUE(r.peek(0, rec));
    EXPECT_EQ(rec.addr, 0u);
    EXPECT_EQ(r.remaining(0), 5u); // peek does not consume
    ASSERT_TRUE(r.next(0, rec));
    ASSERT_TRUE(r.next(0, rec));
    EXPECT_EQ(rec.addr, 1u);
    EXPECT_EQ(r.remaining(0), 3u);

    ASSERT_TRUE(r.next(1, rec));
    EXPECT_EQ(rec.op, ReplayOp::Read);
    EXPECT_FALSE(r.next(1, rec)); // exhausted
    EXPECT_FALSE(r.peek(1, rec));

    r.rewind();
    EXPECT_EQ(r.remaining(0), 5u);
    EXPECT_EQ(r.remaining(1), 1u);
    ASSERT_TRUE(r.next(0, rec));
    EXPECT_EQ(rec.addr, 0u);
}

TEST(ReplayFormat, ReaderRefillsAcrossBufferBoundary)
{
    // One thread longer than the reader's refill buffer forces at least
    // two refills; records are checked against their defining formula.
    const std::uint64_t n = ReplayTraceReader::kBufRecords * 2 + 37;
    TempTrace f("refill");
    {
        ReplayTraceWriter w(f.path(), 1);
        w.beginThread(0);
        for (std::uint64_t i = 0; i < n; ++i)
            w.append({ReplayOp::Write, static_cast<Addr>(i & 0xffff),
                      static_cast<Word>(i * 3)});
        ASSERT_TRUE(w.close());
    }
    ReplayTraceReader r;
    ASSERT_TRUE(r.open(f.path()));
    EXPECT_EQ(r.totalRecords(), n);
    ReplayRecord rec;
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(r.next(0, rec)) << "at record " << i;
        ASSERT_EQ(rec.addr, static_cast<Addr>(i & 0xffff));
        ASSERT_EQ(rec.value, static_cast<Word>(i * 3));
    }
    EXPECT_FALSE(r.next(0, rec));
}

/** Overwrite @p path with @p bytes. */
void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Little-endian u64 at @p off of @p bytes. */
std::uint64_t
u64At(const std::string &bytes, std::size_t off)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                 bytes[off + static_cast<std::size_t>(i)]))
             << (8 * i);
    return v;
}

/** A 4-thread spinlock trace's bytes, and the file offset of its thread
 * table (after magic, counts and initials). */
std::string
spinlockBytes(const std::string &path, std::size_t &tableOff)
{
    TraceGenConfig cfg;
    cfg.rounds = 50;
    EXPECT_TRUE(writeWorkloadTrace("spinlock", path, cfg));
    std::string bytes = slurp(path);
    const std::uint64_t ninitial = u64At(bytes, 8) >> 32;
    tableOff = 16 + static_cast<std::size_t>(ninitial) * 12;
    return bytes;
}

TEST(ReplayFormat, TruncatedTracesAreRejected)
{
    // Cutting a trace anywhere — inside the header, the thread table or
    // the record arrays — must fail open(), not read as a shorter trace.
    TempTrace src("trunc_src"), cut("trunc_cut");
    std::size_t tableOff = 0;
    const std::string bytes = spinlockBytes(src.path(), tableOff);
    ReplayTraceReader whole;
    ASSERT_TRUE(whole.open(src.path()));
    for (std::size_t keep :
         {std::size_t{4}, std::size_t{12}, tableOff + 20, tableOff + 64,
          bytes.size() / 2, bytes.size() - 13, bytes.size() - 1}) {
        spit(cut.path(), bytes.substr(0, keep));
        ReplayTraceReader r;
        EXPECT_FALSE(r.open(cut.path()))
            << "kept " << keep << " of " << bytes.size() << " bytes";
        ReplayTraceData data;
        EXPECT_FALSE(loadReplayTrace(cut.path(), data)) << keep;
    }
}

TEST(ReplayFormat, ThreadTableIntoHeaderIsRejected)
{
    TempTrace src("table_src");
    std::size_t tableOff = 0;
    std::string bytes = spinlockBytes(src.path(), tableOff);
    // Thread 0's records "start" inside the thread table itself.
    bytes[tableOff] = static_cast<char>(tableOff & 0xff);
    for (int i = 1; i < 8; ++i)
        bytes[tableOff + static_cast<std::size_t>(i)] = 0;
    spit(src.path(), bytes);
    ReplayTraceReader r;
    EXPECT_FALSE(r.open(src.path()));
}

TEST(ReplayFormat, UnknownOpByteIsRejected)
{
    TempTrace src("opbyte_src");
    std::size_t tableOff = 0;
    std::string bytes = spinlockBytes(src.path(), tableOff);
    // Thread 1's first record gets an op byte past the last ReplayOp.
    const std::uint64_t base1 = u64At(bytes, tableOff + 16);
    bytes[static_cast<std::size_t>(base1)] = static_cast<char>(0x2a);
    spit(src.path(), bytes);

    ReplayTraceReader r;
    ASSERT_TRUE(r.open(src.path())); // the header itself is sound
    ReplayEngine engine(r, {});
    ReplayResult res = engine.run();
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("unknown op byte 42"), std::string::npos)
        << r.error();
    EXPECT_NE(res.error.find("unknown op byte"), std::string::npos)
        << res.error;

    ReplayTraceReader again;
    ASSERT_TRUE(again.open(src.path()));
    EXPECT_THROW(buildReplayProgram(again, "bad"), std::invalid_argument);
    ReplayTraceData data;
    EXPECT_FALSE(loadReplayTrace(src.path(), data));
}

#ifdef WO_REPLAY_BIN
/** Exit status of the wo-replay binary run with @p args. */
int
exitOf(const std::string &args)
{
    std::string cmd = std::string(WO_REPLAY_BIN) + " " + args +
                      " > /dev/null 2> /dev/null";
    int rc = std::system(cmd.c_str());
    EXPECT_TRUE(WIFEXITED(rc)) << cmd;
    return WEXITSTATUS(rc);
}

TEST(WoReplayTool, MalformedTracesExitTwo)
{
    TempTrace src("tool_src"), cut("tool_cut"), bad("tool_bad");
    std::size_t tableOff = 0;
    std::string bytes = spinlockBytes(src.path(), tableOff);
    spit(cut.path(), bytes.substr(0, bytes.size() / 2));
    bytes[static_cast<std::size_t>(u64At(bytes, tableOff))] =
        static_cast<char>(0xff);
    spit(bad.path(), bytes);
    EXPECT_EQ(exitOf("info " + src.path()), 0);
    for (const std::string *f : {&cut.path(), &bad.path()}) {
        EXPECT_EQ(exitOf("info " + *f), 2) << *f;
        EXPECT_EQ(exitOf("verify " + *f), 2) << *f;
        EXPECT_EQ(exitOf("sim " + *f), 2) << *f;
    }
}

TEST(WoReplayTool, BadNumericFlagsExitTwo)
{
    TempTrace src("flags_src"), out("flags_out");
    std::size_t tableOff = 0;
    spinlockBytes(src.path(), tableOff);
    const std::string f = " " + src.path();
    EXPECT_EQ(exitOf("verify --window=32" + f), 0);
    // Non-numeric, negative, signed, empty, trailing text, out of range.
    for (const char *bad :
         {"verify --window=abc", "verify --window=-1", "verify --window=",
          "verify --window=+8", "verify --window=8k",
          "verify --window=2147483648", "verify --seed=x",
          "verify --seed=18446744073709551616", "sim --chunk=-1",
          "sim --chunk=0", "sim --window=abc", "sim --seed=-3",
          "sim --max-ticks=0", "sim --max-ticks=lots"}) {
        EXPECT_EQ(exitOf(bad + f), 2) << bad;
    }
    for (const char *bad : {"gen --threads=x", "gen --threads=0",
                            "gen --rounds=-5", "gen --ops=1.5",
                            "gen --seed=-1"}) {
        EXPECT_EQ(exitOf(std::string(bad) + " " + out.path()), 2) << bad;
    }
}

TEST(WoReplayTool, MaxTicksSetsTheTickLimit)
{
    TempTrace src("ticks_src");
    std::size_t tableOff = 0;
    spinlockBytes(src.path(), tableOff);
    // Too low a limit stops the replay short (exit 1); a raised one
    // lets it finish.
    EXPECT_EQ(exitOf("sim --max-ticks=100 " + src.path()), 1);
    EXPECT_EQ(exitOf("sim --max-ticks=50000000 " + src.path()), 0);
}
#endif // WO_REPLAY_BIN

TEST(ReplayGen, DeterministicAndDistinct)
{
    TraceGenConfig cfg;
    cfg.threads = 3;
    cfg.rounds = 20;
    cfg.seed = 5;
    TempTrace a("gen_a"), b("gen_b"), c("gen_c");
    for (const char *wl : {"spinlock", "barrier", "prodcons"}) {
        ASSERT_TRUE(writeWorkloadTrace(wl, a.path(), cfg));
        ASSERT_TRUE(writeWorkloadTrace(wl, b.path(), cfg));
        EXPECT_EQ(slurp(a.path()), slurp(b.path())) << wl;
        TraceGenConfig other = cfg;
        other.seed = 6;
        ASSERT_TRUE(writeWorkloadTrace(wl, c.path(), other));
        if (std::string(wl) == "spinlock") { // seed drives the pattern
            EXPECT_NE(slurp(a.path()), slurp(c.path()));
        }
    }
    EXPECT_FALSE(writeWorkloadTrace("nonsense", a.path(), cfg));
}

TEST(ReplayEngineTest, GeneratedWorkloadsAreRaceFree)
{
    TraceGenConfig cfg;
    cfg.threads = 4;
    cfg.rounds = 30;
    for (const char *wl : {"spinlock", "barrier", "prodcons"}) {
        TempTrace f(std::string("rf_") + wl);
        ASSERT_TRUE(writeWorkloadTrace(wl, f.path(), cfg));
        ReplayTraceReader r;
        ASSERT_TRUE(r.open(f.path()));
        ReplayOptions opt;
        opt.window = 128;
        ReplayEngine engine(r, opt);
        ReplayResult res = engine.run();
        ASSERT_TRUE(res.ok) << wl << ": " << res.error;
        EXPECT_TRUE(res.raceFree) << wl;
        EXPECT_EQ(res.recordsReplayed, r.totalRecords()) << wl;
        // Satellite invariant: everything appended was either retired
        // or is still resident in the window.
        EXPECT_EQ(res.eventsRetired + engine.trace().resident(),
                  static_cast<std::int64_t>(engine.trace().size()))
            << wl;
        EXPECT_GT(res.eventsRetired, 0) << wl;
        EXPECT_LE(res.windowHighWater, 128 * 2) << wl;
    }
}

TEST(ReplayEngineTest, InjectedRaceIsDetected)
{
    TraceGenConfig cfg;
    cfg.threads = 3;
    cfg.rounds = 10;
    cfg.injectRace = true;
    for (const char *wl : {"spinlock", "barrier", "prodcons"}) {
        TempTrace f(std::string("racy_") + wl);
        ASSERT_TRUE(writeWorkloadTrace(wl, f.path(), cfg));
        ReplayTraceReader r;
        ASSERT_TRUE(r.open(f.path()));
        ReplayOptions opt;
        opt.window = 64;
        opt.mode = RaceDetectMode::AllRaces;
        ReplayEngine engine(r, opt);
        ReplayResult res = engine.run();
        ASSERT_TRUE(res.ok) << wl << ": " << res.error;
        EXPECT_FALSE(res.raceFree) << wl;
        EXPECT_FALSE(res.races.empty()) << wl;
    }
}

TEST(ReplayEngineTest, WindowedMatchesWholeTraceOracle)
{
    // The tentpole differential: a windowed O(window)-memory run must
    // produce the verdict and race set of the resident whole-trace
    // bitset oracle.
    for (bool racy : {false, true}) {
        TraceGenConfig cfg;
        cfg.threads = 3;
        cfg.rounds = 40;
        cfg.injectRace = racy;
        TempTrace f(racy ? "diff_racy" : "diff_rf");
        ASSERT_TRUE(writeWorkloadTrace("spinlock", f.path(), cfg));

        // Whole-trace run: window 0 keeps every access resident.
        ReplayTraceReader r0;
        ASSERT_TRUE(r0.open(f.path()));
        ReplayOptions full;
        full.window = 0;
        full.mode = RaceDetectMode::AllRaces;
        ReplayEngine oracleEngine(r0, full);
        ReplayResult fullRes = oracleEngine.run();
        ASSERT_TRUE(fullRes.ok) << fullRes.error;
        EXPECT_EQ(fullRes.eventsRetired, 0);

        Drf0TraceReport oracle = checkTraceBitset(oracleEngine.trace());
        std::vector<Race> oracleRaces = oracle.races;
        std::sort(oracleRaces.begin(), oracleRaces.end());
        EXPECT_EQ(fullRes.raceFree, oracle.raceFree);
        EXPECT_EQ(fullRes.races, oracleRaces);

        for (int window : {32, 256}) {
            ReplayTraceReader r1;
            ASSERT_TRUE(r1.open(f.path()));
            ReplayOptions opt = full;
            opt.window = window;
            ReplayEngine engine(r1, opt);
            ReplayResult res = engine.run();
            ASSERT_TRUE(res.ok) << res.error;
            EXPECT_EQ(res.raceFree, oracle.raceFree) << window;
            EXPECT_EQ(res.races, oracleRaces) << window;
            EXPECT_EQ(res.accesses, fullRes.accesses) << window;
            EXPECT_EQ(res.finalMemory, fullRes.finalMemory) << window;
            EXPECT_LT(res.windowHighWater, fullRes.windowHighWater)
                << window;
        }
    }
}

TEST(ReplayEngineTest, StatsExportCountsRetention)
{
    StatSet stats;
    exportReplayStats(stats, "replay", 1234, 99);
    exportReplayStats(stats, "replay", 66, 120);
    std::ostringstream oss;
    stats.dumpJson(oss);
    EXPECT_NE(oss.str().find("\"replay.trace_events_retired\": 1300"),
              std::string::npos)
        << oss.str();
    EXPECT_NE(oss.str().find("\"replay.window_high_water\": 120"),
              std::string::npos)
        << oss.str();
}

TEST(ReplayCapture, LiveSystemCaptureReplays)
{
    // Record a two-thread spinlock increment off the obs layer, then
    // replay the capture through the logical engine: the recorded
    // hand-off must reproduce the final counter value, race-free.
    constexpr Addr kLock = 100, kCounter = 200;
    MultiProgram program("capture-spinlock");
    for (int t = 0; t < 2; ++t) {
        ProgramBuilder b;
        b.label("acq")
            .test(0, kLock)
            .bne(0, 0, "acq")
            .tas(0, kLock, 1)
            .bne(0, 0, "acq");
        b.load(1, kCounter).addi(1, 1, 1).storeReg(kCounter, 1);
        b.unset(kLock, 0);
        b.halt();
        program.addProgram(b.build());
    }

    ReplayCaptureSink sink(program.numProcs());
    SystemConfig cfg = machineOrThrow("bus").config(PolicyKind::Def2Drf0, 1);
    cfg.traceSink = &sink;
    System sys(program, cfg);
    ASSERT_TRUE(sys.run());
    for (const auto &[addr, value] : program.initials())
        sink.data().initials.push_back({addr, value});

    TempTrace f("capture");
    ASSERT_TRUE(saveReplayTrace(sink.data(), f.path()));
    ReplayTraceReader r;
    ASSERT_TRUE(r.open(f.path()));
    ReplayOptions opt;
    opt.window = 0;
    opt.mode = RaceDetectMode::AllRaces;
    ReplayEngine engine(r, opt);
    ReplayResult res = engine.run();
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.raceFree);
    // Replay enforces the lock protocol, not the recorded acquisition
    // order, and writes replay their recorded values — so the counter
    // lands on whichever thread's recorded increment replays last.
    Word counter = res.finalMemory.at(kCounter);
    EXPECT_TRUE(counter == 1 || counter == 2) << counter;
    EXPECT_EQ(res.finalMemory.at(kLock), 0u);
    EXPECT_TRUE(checkTraceBitset(engine.trace()).raceFree);
}

TEST(ReplayCapture, OfflineTraceCapture)
{
    // Hand-built hand-off: t0 publishes then releases a flag, t1
    // acquires the flag and reads — capture must preserve the recorded
    // flag value so the replayed SyncRead gates on it.
    ExecutionTrace t;
    auto add = [&](ProcId p, int po, AccessKind k, Addr a, Word vr,
                   Word vw, Tick c) {
        Access acc;
        acc.proc = p;
        acc.poIndex = po;
        acc.kind = k;
        acc.addr = a;
        acc.valueRead = vr;
        acc.valueWritten = vw;
        acc.commitTick = c;
        acc.gpTick = c;
        t.add(acc);
    };
    add(0, 0, AccessKind::DataWrite, 5, 0, 7, 0);
    add(0, 1, AccessKind::SyncWrite, 9, 0, 1, 1);
    add(1, 0, AccessKind::SyncRead, 9, 1, 0, 2);
    add(1, 1, AccessKind::DataRead, 5, 7, 0, 3);
    t.setInitial(5, 0);

    ReplayTraceData data = captureReplayTrace(t);
    ASSERT_EQ(data.numThreads(), 2);
    ASSERT_EQ(data.threads[0].size(), 2u);
    ASSERT_EQ(data.threads[1].size(), 2u);
    EXPECT_EQ(data.threads[1][0],
              (ReplayRecord{ReplayOp::SyncRead, 9, 1}));

    TempTrace f("offline");
    ASSERT_TRUE(saveReplayTrace(data, f.path()));
    ReplayTraceReader r;
    ASSERT_TRUE(r.open(f.path()));
    ReplayEngine engine(r, {});
    ReplayResult res = engine.run();
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.raceFree);
    EXPECT_EQ(res.finalMemory.at(5), 7u);
}

TEST(SystemReplayTest, SpinlockOnBusAndNet)
{
    TraceGenConfig cfg;
    cfg.threads = 2;
    cfg.rounds = 8;
    TempTrace f("sysspin");
    ASSERT_TRUE(writeWorkloadTrace("spinlock", f.path(), cfg));
    ReplayTraceReader r;
    ASSERT_TRUE(r.open(f.path()));

    for (const char *machine : {"bus", "net"}) {
        SystemReplayOptions opt;
        opt.machine = machine;
        opt.window = 64;
        opt.chunkTicks = 512;
        SystemReplayResult res = replayOnSystem(r, opt);
        ASSERT_TRUE(res.ok) << machine << ": " << res.error;
        EXPECT_TRUE(res.raceFree) << machine;
        EXPECT_FALSE(res.hbCyclic) << machine;
        EXPECT_GT(res.accesses, 0u) << machine;
        EXPECT_GT(res.eventsRetired, 0) << machine;
    }
}

TEST(SystemReplayTest, WindowedVerdictMatchesUnwindowed)
{
    // Same trace, same machine/seed: the windowed System replay must
    // reach the verdict of the whole-trace run (the simulation itself
    // is deterministic, so the verdicts compare exactly).
    for (bool racy : {false, true}) {
        TraceGenConfig cfg;
        cfg.threads = 2;
        cfg.rounds = 30;
        cfg.injectRace = racy;
        TempTrace f(racy ? "sysdiff_r" : "sysdiff");
        ASSERT_TRUE(writeWorkloadTrace("spinlock", f.path(), cfg));
        ReplayTraceReader r;
        ASSERT_TRUE(r.open(f.path()));

        SystemReplayOptions full;
        full.window = 0;
        full.mode = RaceDetectMode::AllRaces;
        SystemReplayResult a = replayOnSystem(r, full);
        ASSERT_TRUE(a.ok) << a.error;

        SystemReplayOptions windowed = full;
        windowed.window = 64;
        windowed.chunkTicks = 256;
        SystemReplayResult b = replayOnSystem(r, windowed);
        ASSERT_TRUE(b.ok) << b.error;

        EXPECT_EQ(a.raceFree, b.raceFree) << "racy=" << racy;
        EXPECT_EQ(a.races, b.races) << "racy=" << racy;
        EXPECT_EQ(a.accesses, b.accesses) << "racy=" << racy;
        EXPECT_EQ(a.finishTick, b.finishTick) << "racy=" << racy;
        EXPECT_EQ(a.raceFree, !racy) << "racy=" << racy;
        if (racy) {
            EXPECT_FALSE(b.races.empty());
        }
        EXPECT_EQ(a.eventsRetired, 0);
        EXPECT_GT(b.eventsRetired, 0);
        EXPECT_LT(b.windowHighWater, a.windowHighWater);
    }
}

TEST(SystemReplayTest, BarrierTraceCompletes)
{
    TraceGenConfig cfg;
    cfg.threads = 3;
    cfg.rounds = 4;
    TempTrace f("sysbar");
    ASSERT_TRUE(writeWorkloadTrace("barrier", f.path(), cfg));
    ReplayTraceReader r;
    ASSERT_TRUE(r.open(f.path()));
    SystemReplayOptions opt;
    opt.window = 0;
    opt.mode = RaceDetectMode::AllRaces;
    SystemReplayResult res = replayOnSystem(r, opt);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.raceFree);
}

TEST(SystemReplayTest, TickLimitFailureIsDiagnosed)
{
    // A replay that runs out of ticks must say so with numbers: the
    // limit, the tick reached and the accesses checked before it.
    TraceGenConfig cfg;
    cfg.threads = 2;
    cfg.rounds = 30;
    TempTrace f("systicks");
    ASSERT_TRUE(writeWorkloadTrace("spinlock", f.path(), cfg));
    ReplayTraceReader r;
    ASSERT_TRUE(r.open(f.path()));
    SystemReplayOptions opt;
    opt.maxTicks = 300;
    opt.chunkTicks = 64;
    SystemReplayResult res = replayOnSystem(r, opt);
    ASSERT_FALSE(res.ok);
    EXPECT_GT(res.accesses, 0u);
    EXPECT_NE(res.error.find("hit the tick limit of 300 ticks (reached tick "),
              std::string::npos)
        << res.error;
    EXPECT_NE(res.error.find("; " + std::to_string(res.accesses) +
                             " accesses checked"),
              std::string::npos)
        << res.error;

    // The same trace completes under the machine's default limit.
    opt.maxTicks = 0;
    SystemReplayResult whole = replayOnSystem(r, opt);
    ASSERT_TRUE(whole.ok) << whole.error;
    EXPECT_TRUE(whole.error.empty());
    EXPECT_GT(whole.accesses, res.accesses);
}

TEST(SystemReplayTest, SystemStreamingExportsRetentionStats)
{
    // The System-level satellite counters appear exactly when retirement
    // happened (whole-trace runs keep their reports byte-identical).
    TraceGenConfig cfg;
    cfg.threads = 2;
    cfg.rounds = 8;
    TempTrace f("sysstats");
    ASSERT_TRUE(writeWorkloadTrace("spinlock", f.path(), cfg));
    ReplayTraceReader r;
    ASSERT_TRUE(r.open(f.path()));
    MultiProgram program = buildReplayProgram(r, "stats-replay");

    SystemConfig cfg2 = machineOrThrow("bus").config(PolicyKind::Def2Drf0, 1);
    System sys(program, cfg2);
    StreamingDrf0Checker chk(program.numProcs());
    ASSERT_TRUE(sys.runStreaming(256, [&](System &s) {
        chk.drainWindow(s.trace(), s.eventQueue().now());
        int excess = s.trace().resident() - 64;
        if (excess > 0)
            s.mutableTrace().popFront(
                std::min(chk.retireReady(s.trace()), excess));
    }));
    chk.finish(sys.trace());
    EXPECT_TRUE(chk.raceFree());

    std::ostringstream oss;
    sys.stats().dumpJson(oss);
    EXPECT_NE(oss.str().find("system.trace_events_retired"),
              std::string::npos);
    EXPECT_NE(oss.str().find("system.window_high_water"),
              std::string::npos);

    // Retirement never happened -> no counters in the report.
    System plain(program, machineOrThrow("bus").config(
                              PolicyKind::Def2Drf0, 1));
    ASSERT_TRUE(plain.run());
    std::ostringstream oss2;
    plain.stats().dumpJson(oss2);
    EXPECT_EQ(oss2.str().find("system.trace_events_retired"),
              std::string::npos);
}

#ifdef WO_REPLAY_TRACE_DIR
TEST(ReplayFormat, BundledTracesStayReplayable)
{
    // The committed traces under tests/replay/ pin the WOTRACE1 on-disk
    // layout: any loader or format change that silently breaks already-
    // recorded files fails here (and in the CI regression job that
    // replays the same files) rather than in the field.
    struct Bundled
    {
        const char *file;
        int threads;
    };
    const Bundled bundled[] = {
        {"/spinlock_small.wotrace", 2},
        {"/barrier_small.wotrace", 3},
    };
    for (const Bundled &b : bundled) {
        const std::string path =
            std::string(WO_REPLAY_TRACE_DIR) + b.file;
        ReplayTraceData data;
        ASSERT_TRUE(loadReplayTrace(path, data)) << path;
        EXPECT_EQ(data.numThreads(), b.threads) << path;
        EXPECT_GT(data.totalRecords(), 0u) << path;

        ReplayTraceReader reader;
        ASSERT_TRUE(reader.open(path)) << path;
        ReplayOptions opt;
        opt.window = 32;
        opt.mode = RaceDetectMode::AllRaces;
        ReplayEngine engine(reader, opt);
        ReplayResult res = engine.run();
        ASSERT_TRUE(res.ok) << path << ": " << res.error;
        EXPECT_TRUE(res.raceFree) << path;
        EXPECT_EQ(res.recordsReplayed, data.totalRecords()) << path;
    }
}
#endif // WO_REPLAY_TRACE_DIR

} // namespace
