#include "workloads.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "axiom/enumerate.hh"
#include "core/drf0_checker.hh"
#include "core/sc_verifier.hh"
#include "core/stream_checker.hh"
#include "litmus/compiler.hh"
#include "litmus/expect.hh"
#include "litmus/runner.hh"
#include "obs/coverage.hh"
#include "obs/coverage_report.hh"
#include "replay/system_replay.hh"
#include "replay/trace_format.hh"
#include "replay/trace_gen.hh"
#include "system/machine_spec.hh"
#include "workload/campaign.hh"
#include "workload/random_gen.hh"

namespace perfbench {

using namespace wo;

namespace {

// Run lengths. They fix how much work one repetition does; the harness
// repeats a repetition until --seconds is spent and reports medians.

/** Litmus corpus, relative to the checkout root. */
const char *const kCorpusDir = "tests/litmus";
/** Seeds per (test, policy, machine) cell of the litmus fan. */
constexpr int kLitmusSeeds = 20;

/** Random DRF0 programs per contract_random repetition, from fixed
 * generator seeds. When the workload seed picked the programs, the
 * verifySc states of a repetition swung by 18% (IQR over 10 seeds) and
 * peak memory by 48%, following the largest single search. */
constexpr int kContractPrograms = 32;
constexpr std::uint64_t kContractProgramBase = 1;
/** Critical sections per processor: ~330 accesses per execution. */
constexpr int kContractSections = 6;
/** Schedules of the sampled DRF0 check (the litmus runner's default). */
constexpr int kContractDrf0Schedules = 200;

/** Barrier trace: threads x rounds; the seed adds 0..15 rounds. */
constexpr int kReplayThreads = 4;
constexpr int kReplayRounds = 3992;
const char *const kReplayMachine = "bus";

/** FNV-1a step over the bytes of @p v. */
template <class T>
std::uint64_t
mixDigest(std::uint64_t h, const T &v)
{
    const auto *p = reinterpret_cast<const unsigned char *>(&v);
    for (std::size_t i = 0; i < sizeof v; ++i)
        h = (h ^ p[i]) * 1099511628211ull;
    return h;
}

constexpr std::uint64_t kDigestBasis = 14695981039346656037ull;

double
seconds(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

std::vector<const MachineSpec *>
allMachines(bool cachedOnly)
{
    std::vector<const MachineSpec *> out;
    for (const MachineSpec &m : machineRegistry()) {
        if (m.cached || !cachedOnly)
            out.push_back(&m);
    }
    return out;
}

/** One campaign job as the traced re-drives record it. */
struct JobOut
{
    bool ran = false;
    bool finished = false;
    bool built = false; ///< the pool constructed instead of resetting
    bool hit = false;
    int scStatus = -1;  ///< -1 unverified, 0 Sc, 1 NotSc, 2 Unknown
    std::uint64_t scStates = 0;
    std::uint64_t accesses = 0;
    std::uint64_t ticks = 0;
    std::string key;
    StatSet stats;
    CoverageMap cov;
    SpanLog log;
};

int
scCode(ScVerdict v)
{
    return v == ScVerdict::Sc ? 0 : v == ScVerdict::NotSc ? 1 : 2;
}

/** Simulate one job on the calling worker's pooled System and verify
 * its trace, with spans around the acquire, run and verify calls. */
void
simulateAndVerify(JobOut &out, const CampaignJob &job, const MultiProgram &prog,
                  const MachineSpec &machine, PolicyKind policy,
                  std::uint64_t maxStates, bool coverage, SpanLog *log,
                  const std::function<void(System &, JobOut &)> &onFinish)
{
    SystemConfig cfg = machine.config(policy, job.seed);
    if (coverage)
        cfg.coverage = &out.cov;
    SystemPool &pool = workerSystemPool();
    try {
        const std::uint64_t builds = pool.builds();
        System *sys = nullptr;
        {
            SpanScope s(log, "system.acquire");
            sys = &pool.acquire(machine.name + "/" + toString(policy), prog,
                                cfg);
        }
        out.built = pool.builds() != builds;
        out.ran = true;
        {
            SpanScope s(log, "sim.run");
            out.finished = sys->run();
        }
        out.ticks = sys->eventQueue().now();
        if (out.finished) {
            if (onFinish)
                onFinish(*sys, out);
            ScReport sc;
            {
                SpanScope s(log, "core.sc_verify");
                sc = verifySc(sys->trace(), {maxStates});
            }
            out.scStatus = scCode(sc.verdict);
            out.scStates = sc.statesExplored;
            out.accesses = static_cast<std::uint64_t>(sys->trace().size());
        }
        out.stats = sys->stats();
        if (coverage)
            sys->setCoverage(nullptr);
    } catch (const std::invalid_argument &) {
        out.ran = false; // the policy cannot run on this machine
    }
}

/** Fold one job's counters into the rep's per-layer counters. */
void
countJob(const JobOut &o, std::map<std::string, double> &L)
{
    if (!o.ran)
        return;
    L["sim.runs"] += 1;
    L["sim.ticks"] += static_cast<double>(o.ticks);
    if (!o.finished)
        L["sim.unfinished"] += 1;
    L[o.built ? "system.pool_builds" : "system.pool_reuses"] += 1;
    if (o.scStatus >= 0) {
        L["core.sc_calls"] += 1;
        L["core.sc_states"] += static_cast<double>(o.scStates);
        L["core.sc_accesses"] += static_cast<double>(o.accesses);
        if (o.scStatus == 1)
            L["core.sc_not_sc"] += 1;
        if (o.scStatus == 2)
            L["core.sc_unknown"] += 1;
    }
}

/** The litmus corpus fan: litmus_campaign and litmus_coverage. */
class LitmusWorkload : public Workload
{
  public:
    LitmusWorkload(bool coverage, int threads)
        : coverage_(coverage), threads_(threads)
    {}

    void
    setup(std::uint64_t seed, SpanLog *log) override
    {
        SpanScope s(log, "litmus.compile");
        tests_.clear();
        for (const std::string &f :
             litmus_dsl::findLitmusFiles({kCorpusDir}))
            tests_.push_back(litmus_dsl::compileLitmusFile(f));
        opts_ = {};
        opts_.seeds = kLitmusSeeds;
        opts_.threads = threads_;
        opts_.baseSeed = seed;
        opts_.coverage = coverage_;
        machines_ = allMachines(false);
    }

    RepResult
    run() override
    {
        RepResult r;
        const std::int64_t t0 = nowNs();
        report_ = litmus_dsl::runCorpus(tests_, opts_, machines_);
        std::ostringstream os;
        litmus_dsl::printReport(os, report_, true, coverage_);
        if (coverage_)
            litmus_dsl::writeCoverageReport(os, report_);
        r.wallS = seconds(t0);

        for (const litmus_dsl::TestReport &tr : report_.tests) {
            const std::string t = tr.name;
            r.summary[t + ".drf0"] = tr.drf0;
            std::uint64_t runs = 0, bad = 0;
            for (const litmus_dsl::CellReport &c : tr.cells) {
                const std::string k =
                    t + "/" + toString(c.policy) + "/" + c.variant;
                r.summary[k + ".runs"] = c.runs;
                r.summary[k + ".finished"] = c.finished;
                r.summary[k + ".hits"] = c.hits;
                r.summary[k + ".sc_ok"] = c.scOk;
                r.summary[k + ".sc_not_sc"] = c.scViolations;
                r.summary[k + ".sc_unknown"] = c.scUnknown;
                for (const auto &[key, n] : c.histogram)
                    r.summary[k + ".out{" + key + "}"] = n;
                runs += c.runs;
                bad += c.runs - c.finished + c.scUnknown;
            }
            r.ops += runs;
            r.failed += tr.pass ? bad : runs;
            if (!tr.pass)
                r.errors.push_back("litmus " + tr.name + ": FAIL");
        }
        r.summary["jobs"] = r.ops;
        if (report_.tests.size() != tests_.size() || tests_.empty())
            r.errors.push_back("litmus: report covers " +
                               std::to_string(report_.tests.size()) +
                               " of " + std::to_string(tests_.size()) +
                               " tests");
        for (const auto &[name, v] : report_.stats.all())
            r.simStats[name] = v;
        return r;
    }

    RepResult
    runTraced(SpanLog *log) override
    {
        if (report_.tests.empty())
            throw std::logic_error("litmus runTraced before run");
        RepResult r;
        std::map<std::string, double> &L = r.layers;
        const std::int64_t t0 = nowNs();
        Campaign campaign({opts_.threads, opts_.baseSeed});
        Drf0Memo memo;
        CoverageMap merged;
        StatSet stats;

        for (const litmus_dsl::CompiledLitmus &test : tests_) {
            Drf0ProgramReport drf0;
            {
                SpanScope s(log, "core.drf0_sampled");
                const std::uint64_t hits = memo.hits();
                drf0 = memo.check(test.program, opts_.drf0Schedules,
                                  opts_.baseSeed);
                if (memo.hits() != hits)
                    L["core.drf0_memo_hits"] += 1;
                else
                    L["core.drf0_executions"] +=
                        static_cast<double>(drf0.executions);
            }
            L["core.drf0_calls"] += 1;
            r.summary[test.name + ".drf0"] = drf0.obeysDrf0;

            const std::vector<litmus_dsl::ObservedVar> vars =
                litmus_dsl::observedVars(test.clause.cond);
            std::vector<std::pair<PolicyKind, const MachineSpec *>> cells;
            for (PolicyKind pk : opts_.policies)
                for (const MachineSpec *m : machines_)
                    cells.push_back({pk, m});
            const int per_cell = opts_.seeds;
            const int num_jobs = static_cast<int>(cells.size()) * per_cell;

            // Same job fan, seeds, pool keys and result projection as
            // litmus_dsl::runCorpus.
            auto finish = [&](System &sys, JobOut &out) {
                RunResult res = sys.result();
                for (const auto &[loc, addr] : test.addrOf) {
                    if (!res.finalMemory.count(addr))
                        res.finalMemory[addr] =
                            test.program.initialValue(addr);
                }
                out.hit = litmus_dsl::evalCond(test.clause.cond, res,
                                               test.addrOf);
                out.key = litmus_dsl::outcomeKey(vars, res, test.addrOf);
            };
            const int map_span = log ? log->open("workload.map") : -1;
            std::vector<JobOut> outs = campaign.map<JobOut>(
                num_jobs, [&](const CampaignJob &job) {
                    JobOut out;
                    {
                        SpanLog *jl = log ? &out.log : nullptr;
                        SpanScope js(jl, "workload.job");
                        const auto &[policy, machine] =
                            cells[static_cast<std::size_t>(job.index /
                                                           per_cell)];
                        simulateAndVerify(out, job, test.program, *machine,
                                          policy, opts_.maxVerifyStates,
                                          opts_.coverage, jl, finish);
                    }
                    return out;
                });
            if (log) {
                log->close(map_span);
                for (const JobOut &o : outs)
                    log->absorb(o.log, map_span);
            }

            for (std::size_t ci = 0; ci < cells.size(); ++ci) {
                const std::string k = test.name + "/" +
                                      toString(cells[ci].first) + "/" +
                                      cells[ci].second->name;
                Counts cell;
                for (const char *f : {".runs", ".finished", ".hits",
                                      ".sc_ok", ".sc_not_sc",
                                      ".sc_unknown"})
                    cell[k + f] = 0;
                for (int s = 0; s < per_cell; ++s) {
                    const JobOut &o =
                        outs[ci * static_cast<std::size_t>(per_cell) +
                             static_cast<std::size_t>(s)];
                    if (opts_.coverage) {
                        SpanScope sp(log, "obs.coverage_merge");
                        merged.merge(o.cov);
                    }
                    countJob(o, L);
                    if (!o.ran)
                        continue;
                    ++cell[k + ".runs"];
                    r.ops += 1;
                    if (!o.finished)
                        continue;
                    ++cell[k + ".finished"];
                    cell[k + ".hits"] += o.hit ? 1 : 0;
                    cell[k + (o.scStatus == 0   ? ".sc_ok"
                              : o.scStatus == 1 ? ".sc_not_sc"
                                                : ".sc_unknown")] += 1;
                    ++cell[k + ".out{" + o.key + "}"];
                    r.accesses += o.accesses;
                    stats.merge(o.stats);
                }
                r.summary.insert(cell.begin(), cell.end());
            }

            {
                SpanScope s(log, "axiom.enum");
                axiom::ModelContext mctx;
                mctx.programDrf0 = drf0.obeysDrf0;
                axiom::AxiomResult ax = axiom::enumerateAllowed(
                    test.program, axiom::axiomModels(), mctx,
                    opts_.axiomLimits);
                L["axiom.calls"] += 1;
                L["axiom.candidates"] +=
                    static_cast<double>(ax.stats.candidates);
                L["axiom.truncated"] += ax.complete ? 0 : 1;
            }
        }
        r.summary["jobs"] = r.ops;

        // The report stage renders the corpus report run() produced for
        // the same inputs (the re-drive above does not build one).
        {
            SpanScope s(log, "litmus.report");
            std::ostringstream os;
            litmus_dsl::printReport(os, report_, true, coverage_);
            L["litmus.report_bytes"] = static_cast<double>(os.str().size());
        }
        if (coverage_) {
            SpanScope s(log, "obs.coverage_report");
            std::ostringstream os;
            litmus_dsl::writeCoverageReport(os, report_);
        }
        r.wallS = seconds(t0);

        if (coverage_) {
            StandingCoverage st = litmus_dsl::standingCoverage(report_);
            L["obs.coverage_keys"] = static_cast<double>(
                st.transitions.size() + st.stalls.size() +
                st.buckets.size() + st.outcomes.size());
        }
        for (const auto &[name, v] : stats.all())
            r.simStats[name] = v;
        return r;
    }

    std::string
    runLength() const override
    {
        return std::to_string(tests_.size()) + " tests x " +
               std::to_string(machines_.size()) + " machines x " +
               std::to_string(opts_.policies.size()) + " policies x " +
               std::to_string(kLitmusSeeds) + " seeds";
    }

    std::uint64_t
    inputDigest() const override
    {
        std::uint64_t h = mixDigest(kDigestBasis, opts_.baseSeed);
        for (const litmus_dsl::CompiledLitmus &t : tests_)
            h = mixDigest(h, t.program.contentHash());
        return h;
    }

  private:
    bool coverage_;
    int threads_;
    std::vector<litmus_dsl::CompiledLitmus> tests_;
    litmus_dsl::RunnerOptions opts_;
    std::vector<const MachineSpec *> machines_;
    litmus_dsl::CorpusReport report_;
};

/** Random DRF0 programs checked against Definition 2 on every cached
 * machine under the policies that promise SC to DRF0 software. */
class ContractWorkload : public Workload
{
  public:
    explicit ContractWorkload(int threads) : threads_(threads) {}

    void
    setup(std::uint64_t seed, SpanLog *) override
    {
        seed_ = seed;
        programs_.clear();
        for (int i = 0; i < kContractPrograms; ++i) {
            RandomWorkloadConfig cfg;
            cfg.numProcs = 4;
            cfg.numLocks = 2;
            cfg.locsPerLock = 3;
            cfg.privateLocs = 2;
            cfg.sectionsPerProc = kContractSections;
            cfg.opsPerSection = 3;
            cfg.privateOpsBetween = 2;
            cfg.seed = campaignJobSeed(kContractProgramBase, i);
            programs_.push_back(randomDrf0Program(cfg));
        }
        machines_ = allMachines(true);
    }

    RepResult run() override { return drive(nullptr); }
    RepResult runTraced(SpanLog *log) override { return drive(log); }

    std::string
    runLength() const override
    {
        return std::to_string(programs_.size()) + " programs (" +
               std::to_string(kContractSections) +
               " sections/proc) x " + std::to_string(machines_.size()) +
               " machines x " + std::to_string(kPolicies.size()) +
               " policies";
    }

    std::uint64_t
    inputDigest() const override
    {
        std::uint64_t h = mixDigest(kDigestBasis, seed_);
        for (const MultiProgram &p : programs_)
            h = mixDigest(h, p.contentHash());
        return h;
    }

  private:
    const std::vector<PolicyKind> kPolicies = {
        PolicyKind::Sc, PolicyKind::Def1, PolicyKind::Def2Drf0};

    RepResult
    drive(SpanLog *log)
    {
        RepResult r;
        std::map<std::string, double> &L = r.layers;
        const std::int64_t t0 = nowNs();
        Campaign campaign({threads_, seed_});
        StatSet stats;
        const int npol = static_cast<int>(kPolicies.size());
        const int per_prog = static_cast<int>(machines_.size()) * npol;

        for (std::size_t p = 0; p < programs_.size(); ++p) {
            const MultiProgram &prog = programs_[p];
            const std::string pk = "prog" + std::to_string(p);
            Drf0ProgramReport drf0;
            {
                SpanScope s(log, "core.drf0_sampled");
                drf0 = checkProgramSampled(prog, kContractDrf0Schedules,
                                           seed_);
            }
            L["core.drf0_calls"] += 1;
            L["core.drf0_executions"] += static_cast<double>(drf0.executions);
            r.summary[pk + ".drf0"] = drf0.obeysDrf0;
            if (!drf0.obeysDrf0)
                r.errors.push_back(pk + ": DRF0-by-construction program "
                                        "has a sampled race");

            const int map_span = log ? log->open("workload.map") : -1;
            std::vector<JobOut> outs = campaign.map<JobOut>(
                per_prog, [&](const CampaignJob &job) {
                    JobOut out;
                    {
                        SpanLog *jl = log ? &out.log : nullptr;
                        SpanScope js(jl, "workload.job");
                        simulateAndVerify(
                            out, job, prog,
                            *machines_[static_cast<std::size_t>(
                                job.index / npol)],
                            kPolicies[static_cast<std::size_t>(
                                job.index % npol)],
                            ScVerifierLimits{}.maxStates, false, jl,
                            nullptr);
                    }
                    return out;
                });
            if (log) {
                log->close(map_span);
                for (const JobOut &o : outs)
                    log->absorb(o.log, map_span);
            }

            for (int j = 0; j < per_prog; ++j) {
                const JobOut &o = outs[static_cast<std::size_t>(j)];
                const std::string k =
                    pk + "/" + machines_[static_cast<std::size_t>(j / npol)]
                                   ->name +
                    "/" + toString(kPolicies[static_cast<std::size_t>(
                              j % npol)]);
                countJob(o, L);
                r.ops += 1;
                r.summary[k + ".ran"] = o.ran;
                r.summary[k + ".finished"] = o.finished;
                r.summary[k + ".sc"] = static_cast<std::uint64_t>(
                    o.scStatus + 1);
                r.summary[k + ".accesses"] = o.accesses;
                r.summary[k + ".ticks"] = o.ticks;
                const bool ok =
                    o.ran && o.finished && o.scStatus == 0 && drf0.obeysDrf0;
                if (!ok) {
                    r.failed += 1;
                    if (drf0.obeysDrf0)
                        r.errors.push_back(
                            k + ": " +
                            (!o.ran        ? "did not run"
                             : !o.finished ? "did not finish"
                             : o.scStatus == 1
                                 ? "DRF0 program, execution not SC"
                                 : "SC verification gave up"));
                }
                r.accesses += o.accesses;
                if (o.finished)
                    stats.merge(o.stats);
            }
        }
        r.summary["jobs"] = r.ops;
        r.wallS = seconds(t0);
        for (const auto &[name, v] : stats.all())
            r.simStats[name] = v;
        return r;
    }

    int threads_;
    std::uint64_t seed_ = 1;
    std::vector<MultiProgram> programs_;
    std::vector<const MachineSpec *> machines_;
};

/** One long streaming replay of a generated barrier trace. */
class ReplayWorkload : public Workload
{
  public:
    explicit ReplayWorkload(const std::string &scratchDir)
        : path_(scratchDir + "/replay-barrier.wotrace")
    {}

    ~ReplayWorkload() override
    {
        reader_.reset();
        std::remove(path_.c_str());
    }

    void
    setup(std::uint64_t seed, SpanLog *) override
    {
        TraceGenConfig g;
        g.threads = kReplayThreads;
        g.rounds = kReplayRounds + static_cast<int>(seed % 16);
        g.seed = seed;
        reader_.reset();
        if (!writeBarrierTrace(path_, g))
            throw std::runtime_error("cannot write " + path_);
        reader_ = std::make_unique<ReplayTraceReader>();
        if (!reader_->open(path_))
            throw std::runtime_error("cannot open " + path_);
        rounds_ = g.rounds;
    }

    RepResult
    run() override
    {
        RepResult r;
        reader_->rewind();
        SystemReplayOptions opt = options();
        const std::int64_t t0 = nowNs();
        SystemReplayResult res = replayOnSystem(*reader_, opt);
        r.wallS = seconds(t0);
        record(r, res.ok, res.raceFree, res.hbCyclic, res.races.size(),
               res.accesses, res.finishTick);
        return r;
    }

    RepResult
    runTraced(SpanLog *log) override
    {
        RepResult r;
        std::map<std::string, double> &L = r.layers;
        const SystemReplayOptions opt = options();
        const std::int64_t t0 = nowNs();

        // The steps of replayOnSystem, one public call at a time.
        MultiProgram program;
        {
            SpanScope s(log, "replay.build");
            program = buildReplayProgram(*reader_, "replay");
        }
        SystemConfig cfg =
            machineOrThrow(opt.machine).config(opt.policy, opt.netSeed);
        StreamingDrf0Checker checker(program.numProcs(), opt.mode);
        auto drain = [&](System &sys) {
            SpanScope s(log, "core.stream_check");
            checker.drainWindow(sys.trace(), sys.eventQueue().now());
            ExecutionTrace &tr = sys.mutableTrace();
            const int excess = tr.resident() - opt.window;
            if (excess > 0)
                tr.popFront(std::min(checker.retireReady(tr), excess));
        };
        SystemPool &pool = workerSystemPool();
        const std::uint64_t builds = pool.builds();
        System *sys = nullptr;
        {
            SpanScope s(log, "system.acquire");
            sys = &pool.acquire("replay/" + opt.machine + "/" +
                                    std::to_string(
                                        static_cast<int>(opt.policy)),
                                program, cfg);
        }
        bool completed = false;
        {
            SpanScope s(log, "sim.run");
            completed = sys->runStreaming(opt.chunkTicks, drain);
        }
        {
            SpanScope s(log, "core.stream_check");
            checker.finish(sys->trace());
        }
        r.wallS = seconds(t0);

        record(r, completed, checker.raceFree(), checker.hbCyclic(),
               checker.races().size(), checker.consumed(),
               sys->finishTick());
        L["replay.records"] = static_cast<double>(reader_->totalRecords());
        L["sim.runs"] = 1;
        L["sim.unfinished"] = completed ? 0 : 1;
        L["sim.ticks"] = static_cast<double>(sys->eventQueue().now());
        L[pool.builds() != builds ? "system.pool_builds"
                                  : "system.pool_reuses"] = 1;
        L["core.stream_accesses"] = static_cast<double>(checker.consumed());
        L["core.stream_retired"] =
            static_cast<double>(sys->trace().retired());
        L["core.stream_window_high_water"] =
            static_cast<double>(sys->trace().windowHighWater());
        for (const auto &[name, v] : sys->stats().all())
            r.simStats[name] = v;
        return r;
    }

    std::string
    runLength() const override
    {
        return "barrier trace " + std::to_string(kReplayThreads) +
               " threads x " + std::to_string(rounds_) + " rounds on " +
               kReplayMachine + " under def2-drf0";
    }

    std::uint64_t
    inputDigest() const override
    {
        std::ifstream in(path_, std::ios::binary);
        std::uint64_t h = kDigestBasis;
        for (char c; in.get(c);)
            h = mixDigest(h, c);
        return h;
    }

  private:
    static SystemReplayOptions
    options()
    {
        SystemReplayOptions opt;
        opt.machine = kReplayMachine;
        opt.policy = PolicyKind::Def2Drf0;
        return opt;
    }

    static void
    record(RepResult &r, bool ok, bool raceFree, bool hbCyclic,
           std::size_t races, std::uint64_t accesses, Tick finish)
    {
        r.ops = 1;
        r.accesses = accesses;
        r.summary["ok"] = ok;
        r.summary["race_free"] = raceFree;
        r.summary["hb_cyclic"] = hbCyclic;
        r.summary["races"] = races;
        r.summary["accesses"] = accesses;
        r.summary["finish_tick"] = finish;
        if (!ok)
            r.errors.push_back("replay did not complete");
        if (!raceFree || hbCyclic)
            r.errors.push_back("race reported on a race-free trace");
        if (accesses == 0)
            r.errors.push_back("replay checked no accesses");
        r.failed = r.errors.empty() ? 0 : 1;
    }

    std::string path_;
    std::unique_ptr<ReplayTraceReader> reader_;
    int rounds_ = 0;
};

} // namespace

std::vector<std::string>
diffCounts(const Counts &a, const Counts &b)
{
    std::vector<std::string> out;
    auto show = [](const Counts &c, const std::string &k) {
        auto it = c.find(k);
        return it == c.end() ? std::string("(absent)")
                             : std::to_string(it->second);
    };
    Counts all = a;
    all.insert(b.begin(), b.end());
    for (const auto &[k, v] : all) {
        auto ia = a.find(k);
        auto ib = b.find(k);
        if (ia == a.end() || ib == b.end() || ia->second != ib->second)
            out.push_back(k + ": " + show(a, k) + " -> " + show(b, k));
    }
    return out;
}

Counts
simCounters(const Counts &stats)
{
    Counts c = {{"cpu.instructions", 0},        {"cpu.policy_stalls", 0},
                {"coherence.hits", 0},          {"coherence.misses", 0},
                {"coherence.invalidations", 0}, {"mem.msgs", 0}};
    for (const auto &[name, v] : stats) {
        const std::size_t dot = name.rfind('.');
        if (dot == std::string::npos)
            continue;
        const std::string comp = name.substr(0, dot);
        const std::string stat = name.substr(dot + 1);
        const bool proc = comp.rfind("proc", 0) == 0;
        const bool cache = comp.rfind("cache", 0) == 0 ||
                           comp.rfind("l2cache", 0) == 0;
        if (proc && stat == "instructions")
            c["cpu.instructions"] += v;
        else if (proc && stat == "policy_stalls")
            c["cpu.policy_stalls"] += v;
        else if (cache && stat == "hits")
            c["coherence.hits"] += v;
        else if (cache && stat == "misses")
            c["coherence.misses"] += v;
        else if (comp.rfind("dir", 0) == 0 && stat == "invalidations")
            c["coherence.invalidations"] += v;
        else if (stat == "msgs")
            c["mem.msgs"] += v;
    }
    return c;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "litmus_campaign", "litmus_coverage", "contract_random",
        "replay_sim"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, int threads,
             const std::string &scratchDir)
{
    if (name == "litmus_campaign")
        return std::make_unique<LitmusWorkload>(false, threads);
    if (name == "litmus_coverage")
        return std::make_unique<LitmusWorkload>(true, threads);
    if (name == "contract_random")
        return std::make_unique<ContractWorkload>(threads);
    if (name == "replay_sim")
        return std::make_unique<ReplayWorkload>(scratchDir);
    return nullptr;
}

} // namespace perfbench
