/**
 * @file
 * Coverage-map lifecycle tests: recording, merge algebra, the
 * thread-local CoverageScope, heatmap/gap completeness against the
 * protocol transition tables, standing-report round-trips and diffs,
 * and the runner-level invariants (pool on == off, threads 1 == 4,
 * coverage survives a pooled System::reset).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <sstream>
#include <string>

#include "coherence/protocol.hh"
#include "cpu/program_builder.hh"
#include "litmus/compiler.hh"
#include "litmus/parser.hh"
#include "litmus/runner.hh"
#include "obs/coverage.hh"
#include "obs/coverage_report.hh"
#include "obs/latency_histogram.hh"
#include "obs/stall_stats.hh"
#include "system/machine_spec.hh"
#include "system/system.hh"
#include "workload/litmus.hh"

namespace wo {
namespace {

const ProtocolKind kProtocols[] = {
    ProtocolKind::Msi,
    ProtocolKind::Mesi,
    ProtocolKind::Moesi,
    ProtocolKind::Mesif,
};

/** Canonical rendering of a map (outcome keys must be the runner's
 * 4-field composites for addCoverage to accept them). */
std::string
render(const CoverageMap &map)
{
    StandingCoverage st;
    st.addCoverage(map);
    std::ostringstream os;
    st.write(os);
    return os.str();
}

/** Hit every legal transition of @p k exactly once. */
void
hitAllLegal(CoverageMap &map, ProtocolKind k)
{
    const CoherenceProtocol &proto = CoherenceProtocol::get(k);
    for (int s = 0; s < kNumLineStates; ++s) {
        for (int e = 0; e < kNumLineEvents; ++e) {
            if (proto.legal(static_cast<LineState>(s),
                            static_cast<LineEvent>(e))) {
                map.hitTransition(k, static_cast<LineState>(s),
                                  static_cast<LineEvent>(e));
            }
        }
    }
}

/** Count of @p key in dimension @p d, or nullopt when not present. */
std::optional<std::uint64_t>
countOf(const CoverageMap &map, CoverageMap::Dim d, const std::string &key)
{
    for (const auto &[k, n] : map.entries(d))
        if (k == key)
            return n;
    return std::nullopt;
}

int
legalCount(ProtocolKind k)
{
    const CoherenceProtocol &proto = CoherenceProtocol::get(k);
    int n = 0;
    for (int s = 0; s < kNumLineStates; ++s) {
        for (int e = 0; e < kNumLineEvents; ++e) {
            n += proto.legal(static_cast<LineState>(s),
                             static_cast<LineEvent>(e))
                     ? 1
                     : 0;
        }
    }
    return n;
}

TEST(CoverageMap, RecordsTransitionsAndNamedKeys)
{
    CoverageMap map;
    EXPECT_TRUE(map.empty());

    map.hitTransition(ProtocolKind::Msi, LineState::Shared,
                      LineEvent::Load);
    map.hitTransition(ProtocolKind::Msi, LineState::Shared,
                      LineEvent::Load);
    EXPECT_EQ(map.transitionCount(ProtocolKind::Msi, LineState::Shared,
                                  LineEvent::Load),
              2u);
    EXPECT_EQ(map.transitionCount(ProtocolKind::Mesi, LineState::Shared,
                                  LineEvent::Load),
              0u);

    map.hitKey(CoverageMap::Dim::Stall, "proc_stall/fence", 3);
    using Entries = std::vector<std::pair<std::string, std::uint64_t>>;
    EXPECT_EQ(map.entries(CoverageMap::Dim::Stall),
              (Entries{{"proc_stall/fence", 3}}));
    EXPECT_FALSE(map.empty());
}

TEST(CoverageMap, InternAloneSeedsKeyAtZero)
{
    CoverageMap map;
    std::uint32_t id =
        map.internKey(CoverageMap::Dim::Bucket, "lat_x/bucket_03");
    EXPECT_EQ(countOf(map, CoverageMap::Dim::Bucket, "lat_x/bucket_03"),
              0u);
    EXPECT_FALSE(map.empty());
    // Re-interning returns the same id.
    EXPECT_EQ(map.internKey(CoverageMap::Dim::Bucket, "lat_x/bucket_03"),
              id);
    map.hit(CoverageMap::Dim::Bucket, id);
    EXPECT_EQ(countOf(map, CoverageMap::Dim::Bucket, "lat_x/bucket_03"),
              1u);
}

TEST(CoverageMap, MergeIsAssociativeAndCommutative)
{
    auto mk = [](int variant) {
        CoverageMap m;
        if (variant == 0) {
            m.hitTransition(ProtocolKind::Msi, LineState::Invalid,
                            LineEvent::Store);
            m.hitKey(CoverageMap::Dim::Stall, "proc_stall/fence");
            m.internKey(CoverageMap::Dim::Outcome,
                        "t\tSC\tbus\tP0:r0=0"); // seeded, count 0
        } else if (variant == 1) {
            m.hitTransition(ProtocolKind::Msi, LineState::Invalid,
                            LineEvent::Store);
            m.hitTransition(ProtocolKind::Mesif, LineState::Forward,
                            LineEvent::Load);
            m.hitKey(CoverageMap::Dim::Stall, "proc_stall/dependency", 2);
        } else {
            m.hitKey(CoverageMap::Dim::Stall, "proc_stall/fence", 4);
            m.hitKey(CoverageMap::Dim::Outcome, "t\tSC\tbus\tP0:r0=0");
            m.hitKey(CoverageMap::Dim::Bucket, "lat_msg/bucket_01");
        }
        return m;
    };

    // (a + b) + c == a + (b + c)
    CoverageMap left = mk(0);
    left.merge(mk(1));
    left.merge(mk(2));
    CoverageMap bc = mk(1);
    bc.merge(mk(2));
    CoverageMap right = mk(0);
    right.merge(bc);
    EXPECT_EQ(render(left), render(right));

    // a + b == b + a
    CoverageMap ab = mk(0);
    ab.merge(mk(2));
    CoverageMap ba = mk(2);
    ba.merge(mk(0));
    EXPECT_EQ(render(ab), render(ba));

    // Zero-count seeded keys survive the merge.
    EXPECT_NE(render(left).find("outcome\tt\tSC\tbus\tP0:r0=0\t1"),
              std::string::npos);
}

TEST(CoverageMap, ClearEmptiesAndIdsStayValid)
{
    CoverageMap map;
    map.hitTransition(ProtocolKind::Msi, LineState::Shared,
                      LineEvent::Load);
    std::uint32_t id = map.internKey(CoverageMap::Dim::Stall, "k");
    map.hit(CoverageMap::Dim::Stall, id, 2);
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.transitionCount(ProtocolKind::Msi, LineState::Shared,
                                  LineEvent::Load),
              0u);
    EXPECT_TRUE(map.entries(CoverageMap::Dim::Stall).empty());

    // The id outlives clear() and is shared by every map.
    map.hit(CoverageMap::Dim::Stall, id);
    EXPECT_EQ(countOf(map, CoverageMap::Dim::Stall, "k"), 1u);
    CoverageMap other;
    EXPECT_EQ(other.internKey(CoverageMap::Dim::Stall, "k"), id);
    EXPECT_EQ(CoverageMap::globalKeyId(CoverageMap::Dim::Stall, "k"), id);
    other.hit(CoverageMap::Dim::Stall, id, 4);
    map.merge(other);
    EXPECT_EQ(countOf(map, CoverageMap::Dim::Stall, "k"), 5u);
    // Dimensions number their keys independently.
    EXPECT_EQ(countOf(other, CoverageMap::Dim::Bucket, "k"), std::nullopt);
}

TEST(CoverageMap, StallHitSeedsFamilySiblingsAtZero)
{
    StatSet stats;
    StallReasonFamily fam(stats, "cache7.seed_test_total");
    fam.addReason("cache7.seed_a");
    StallReasonFamily::Token b = fam.addReason("cache7.seed_b");
    fam.addReason("cache7.seed_c");

    CoverageMap map;
    {
        CoverageScope scope(&map);
        fam.bump(b);
    }
    EXPECT_EQ(countOf(map, CoverageMap::Dim::Stall, "seed_test_total/seed_a"),
              0u);
    EXPECT_EQ(countOf(map, CoverageMap::Dim::Stall, "seed_test_total/seed_b"),
              1u);
    EXPECT_EQ(countOf(map, CoverageMap::Dim::Stall, "seed_test_total/seed_c"),
              0u);
    EXPECT_EQ(map.entries(CoverageMap::Dim::Stall).size(), 3u);
}

TEST(CoverageMap, LatencySampleSeedsAllBuckets)
{
    StatSet stats;
    LatencyHistogram h(stats, "proc9.lat_seed_test");
    CoverageMap map;
    {
        CoverageScope scope(&map);
        h.coverOnly(5); // bucket 3: 4..7 ticks
    }
    const auto entries = map.entries(CoverageMap::Dim::Bucket);
    ASSERT_EQ(entries.size(),
              static_cast<std::size_t>(LatencyHistogram::kBuckets));
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
        std::string key = std::string("lat_seed_test/bucket_") +
                          (i < 10 ? "0" : "") + std::to_string(i);
        EXPECT_EQ(countOf(map, CoverageMap::Dim::Bucket, key),
                  i == 3 ? 1u : 0u)
            << key;
    }
    // Coverage-only samples never reach the histogram or its stats.
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(stats.all().empty());
}

TEST(CoverageMap, PerRunMapsMergeToOneSharedMap)
{
    const MultiProgram progs[] = {tttasLockCounter(3, 2),
                                  tasLockCounter(2, 2)};
    for (const char *machine : {"bus-mesi", "net-l2"}) {
        CoverageMap shared, campaign;
        for (const MultiProgram &mp : progs) {
            for (PolicyKind pk : {PolicyKind::Sc, PolicyKind::Def2Drf0}) {
                for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                    SystemConfig cfg =
                        machineOrThrow(machine).config(pk, seed);
                    cfg.coverage = &shared;
                    System(mp, cfg).run();
                    CoverageMap job;
                    cfg.coverage = &job;
                    System(mp, cfg).run();
                    campaign.merge(job);
                }
            }
        }
        for (CoverageMap::Dim d :
             {CoverageMap::Dim::Stall, CoverageMap::Dim::Bucket,
              CoverageMap::Dim::Outcome}) {
            EXPECT_EQ(campaign.entries(d), shared.entries(d)) << machine;
        }
        EXPECT_FALSE(shared.entries(CoverageMap::Dim::Bucket).empty());
        // Any processor stall seeds every proc_stall reason.
        int proc_stall_keys = 0;
        for (const auto &[k, n] : shared.entries(CoverageMap::Dim::Stall))
            proc_stall_keys += k.rfind("proc_stall/", 0) == 0 ? 1 : 0;
        EXPECT_EQ(proc_stall_keys, kNumStallReasons) << machine;
        EXPECT_EQ(render(campaign), render(shared)) << machine;
    }
}

TEST(CoverageMap, StripInstanceDropsLeadingComponent)
{
    EXPECT_EQ(stripInstance("cache3.miss_stalls_total"),
              "miss_stalls_total");
    EXPECT_EQ(stripInstance("proc_stall"), "proc_stall");
    EXPECT_EQ(stripInstance("a.b.c"), "b.c");
}

TEST(CoverageScope, InstallsAndRestoresNested)
{
    EXPECT_EQ(activeCoverage(), nullptr);
    CoverageMap outer, inner;
    {
        CoverageScope s1(&outer);
        EXPECT_EQ(activeCoverage(), &outer);
        {
            CoverageScope s2(&inner);
            EXPECT_EQ(activeCoverage(), &inner);
            // A null scope disables coverage for its extent.
            CoverageScope s3(nullptr);
            EXPECT_EQ(activeCoverage(), nullptr);
        }
        EXPECT_EQ(activeCoverage(), &outer);
    }
    EXPECT_EQ(activeCoverage(), nullptr);
}

TEST(CoverageScope, ProtocolLookupRecordsOnlyWhenInstalled)
{
    const CoherenceProtocol &msi =
        CoherenceProtocol::get(ProtocolKind::Msi);
    CoverageMap map;
    msi.on(LineState::Shared, LineEvent::Load); // no scope: not counted
    {
        CoverageScope scope(&map);
        msi.on(LineState::Shared, LineEvent::Load);
        msi.on(LineState::Modified, LineEvent::Store);
    }
    msi.on(LineState::Shared, LineEvent::Load); // after scope: no count
    EXPECT_EQ(map.transitionCount(ProtocolKind::Msi, LineState::Shared,
                                  LineEvent::Load),
              1u);
    EXPECT_EQ(map.transitionCount(ProtocolKind::Msi, LineState::Modified,
                                  LineEvent::Store),
              1u);
}

TEST(CoverageHeatmap, FullSyntheticMapHasNoGaps)
{
    CoverageMap map;
    for (ProtocolKind k : kProtocols)
        hitAllLegal(map, k);
    StandingCoverage st;
    st.addCoverage(map);
    CoverageGaps gaps = findGaps(st);
    EXPECT_TRUE(gaps.unhitTransitions.empty())
        << gaps.unhitTransitions.front();

    std::ostringstream os;
    renderHeatmap(os, st);
    // Every protocol reports full coverage against its own table's
    // legal-pair count (the same enumeration test_protocol_table pins).
    for (ProtocolKind k : kProtocols) {
        std::string name = toString(k);
        for (char &c : name)
            c = static_cast<char>(std::toupper(c));
        std::string want = name + ": " + std::to_string(legalCount(k)) +
                           "/" + std::to_string(legalCount(k)) +
                           " legal transitions hit";
        EXPECT_NE(os.str().find(want), std::string::npos) << want;
    }
}

TEST(CoverageHeatmap, TouchedProtocolReportsItsUnhitTransitions)
{
    CoverageMap map;
    map.hitTransition(ProtocolKind::Mesif, LineState::Invalid,
                      LineEvent::Load);
    StandingCoverage st;
    st.addCoverage(map);
    CoverageGaps gaps = findGaps(st);
    // Only MESIF contributes gaps (the untouched protocols are "not
    // exercised", not 72 missing transitions).
    EXPECT_EQ(gaps.unhitTransitions.size(),
              static_cast<std::size_t>(legalCount(ProtocolKind::Mesif)) -
                  1u);
    for (const std::string &g : gaps.unhitTransitions)
        EXPECT_EQ(g.rfind("MESIF:", 0), 0u) << g;
}

TEST(StandingCoverage, WriteReadRoundTripsByteIdentical)
{
    CoverageMap map;
    map.hitTransition(ProtocolKind::Moesi, LineState::Owned,
                      LineEvent::FwdGetS);
    map.hitKey(CoverageMap::Dim::Stall,
               "miss_stalls_total/stalled_by_eviction", 7);
    map.hitKey(CoverageMap::Dim::Bucket, "lat_issue_gp/bucket_04");
    map.hitKey(CoverageMap::Dim::Outcome,
               "sb\tRelaxed\tbus\tP0:r0=0 P1:r0=0", 5);
    map.internKey(CoverageMap::Dim::Outcome, "sb\tSC\tbus\tP0:r0=0");

    StandingCoverage st;
    st.runs = 1;
    st.meta.insert({"seeds", "5"});
    st.addMachine("bus", "msi", 1);
    st.addMachine("net-u", "none", 0);
    st.addCoverage(map);

    std::ostringstream os1;
    st.write(os1);
    std::istringstream in(os1.str());
    StandingCoverage back = StandingCoverage::read(in);
    std::ostringstream os2;
    back.write(os2);
    EXPECT_EQ(os1.str(), os2.str());
    EXPECT_EQ(back.runs, 1u);
    EXPECT_EQ(back.machines.at("bus").protocol, "msi");
    EXPECT_EQ(back.machines.at("net-u").cacheLevels, 0);
    EXPECT_EQ(back.outcomes.at({"sb", "SC", "bus", "P0:r0=0"}), 0u);
}

TEST(StandingCoverage, ReadRejectsMalformedDocuments)
{
    auto parse = [](const std::string &doc) {
        std::istringstream in(doc);
        return StandingCoverage::read(in);
    };
    EXPECT_THROW(parse("not a report\n"), std::runtime_error);
    EXPECT_THROW(parse("wocover\t2\n"), std::runtime_error);
    EXPECT_THROW(parse("wocover\t1\ntrans\tmsi\tS\n"),
                 std::runtime_error);
    EXPECT_THROW(parse("wocover\t1\nstall\tk\tnot-a-number\n"),
                 std::runtime_error);
}

TEST(StandingCoverage, MergeSumsCountsAndRuns)
{
    CoverageMap a, b;
    a.hitTransition(ProtocolKind::Msi, LineState::Shared,
                    LineEvent::Load);
    b.hitTransition(ProtocolKind::Msi, LineState::Shared,
                    LineEvent::Load);
    b.hitKey(CoverageMap::Dim::Stall, "proc_stall/fence", 2);

    StandingCoverage s1, s2;
    s1.runs = 1;
    s1.addCoverage(a);
    s2.runs = 1;
    s2.addCoverage(b);
    s1.mergeFrom(s2);
    EXPECT_EQ(s1.runs, 2u);
    EXPECT_EQ(s1.transitions.at({"msi", "S", "Load"}), 2u);
    EXPECT_EQ(s1.stalls.at("proc_stall/fence"), 2u);
}

TEST(CoverageDiff, GatesRegressionsButNotBucketLosses)
{
    StandingCoverage oldRep, newRep;
    oldRep.transitions[{"msi", "S", "Evict"}] = 5;   // -> absent
    oldRep.stalls["proc_stall/fence"] = 3;           // -> 0
    oldRep.buckets["lat_msg/bucket_02"] = 9;         // -> 0 (info only)
    oldRep.outcomes[{"sb", "SC", "bus", "P0:r0=1"}] = 1; // unchanged
    newRep.stalls["proc_stall/fence"] = 0;
    newRep.buckets["lat_msg/bucket_02"] = 0;
    newRep.outcomes[{"sb", "SC", "bus", "P0:r0=1"}] = 4;
    newRep.outcomes[{"sb", "SC", "bus", "P0:r0=0"}] = 2; // gain

    CoverageDiff d = diffStanding(oldRep, newRep);
    EXPECT_TRUE(d.hasRegressions());
    EXPECT_EQ(d.regressions.size(), 2u);
    EXPECT_EQ(d.bucketLosses.size(), 1u);
    EXPECT_EQ(d.gains.size(), 1u);

    // Identical reports: clean diff.
    CoverageDiff self = diffStanding(oldRep, oldRep);
    EXPECT_FALSE(self.hasRegressions());
    EXPECT_TRUE(self.bucketLosses.empty());
    EXPECT_TRUE(self.gains.empty());
}

TEST(CoverageSystem, MapSurvivesPooledStyleResetAndDoubles)
{
    MultiProgram mp("dekker");
    ProgramBuilder p0, p1;
    p0.store(0, 1).load(0, 1).halt();
    p1.store(1, 1).load(0, 0).halt();
    mp.addProgram(p0.build());
    mp.addProgram(p1.build());

    SystemConfig cfg;
    cfg.policy = PolicyKind::Sc;
    CoverageMap map;
    cfg.coverage = &map;

    System sys(mp, cfg);
    ASSERT_TRUE(sys.run());
    std::string once = render(map);
    ASSERT_FALSE(map.empty());

    // A pooled-style reset replays the job bit-identically and keeps
    // recording into the same campaign-owned map: exactly doubled.
    sys.reset();
    ASSERT_TRUE(sys.run());

    // Doubling the single-run report must reproduce the two-run map.
    std::istringstream in(once);
    StandingCoverage st1 = StandingCoverage::read(in);
    StandingCoverage sum = st1;
    sum.mergeFrom(st1);
    std::ostringstream expect;
    sum.write(expect);
    EXPECT_EQ(render(map), expect.str());
}

TEST(CoverageRunner, PoolAndThreadCountDoNotChangeCoverage)
{
    using namespace litmus_dsl;
    std::vector<CompiledLitmus> corpus;
    corpus.push_back(compileLitmus(parseLitmus(
        "name sb\ninit { x = 0; y = 0; }\n"
        "P0 | P1 ;\n"
        "store x, 1 | store y, 1 ;\n"
        "load r0, y | load r0, x ;\n"
        "halt | halt ;\n"
        "exists (P0:r0 == 0 && P1:r0 == 0)\n",
        "sb.litmus")));

    RunnerOptions opt;
    opt.seeds = 2;
    opt.drf0Schedules = 40;
    opt.coverage = true;
    opt.policies = {PolicyKind::Sc, PolicyKind::Relaxed};

    std::vector<std::string> docs;
    for (int threads : {1, 2, 4}) {
        opt.threads = threads;
        CorpusReport rep = runCorpus(corpus, opt);
        std::ostringstream os;
        writeCoverageReport(os, rep);
        docs.push_back(os.str());
    }
    EXPECT_EQ(docs[0], docs[1]);
    EXPECT_EQ(docs[0], docs[2]);
    EXPECT_NE(docs[0].find("trans\tmsi\t"), std::string::npos);
    EXPECT_NE(docs[0].find("outcome\tsb\t"), std::string::npos);
}

} // namespace
} // namespace wo
