/**
 * @file
 * Unit tests for the named machine registry: lookup and list parsing
 * diagnostics (with the shared comma-list splitter), and the
 * MachineSpec -> SystemConfig field mapping every tool, bench and
 * example now routes through.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/cli_parse.hh"
#include "system/machine_spec.hh"

namespace wo {
namespace {

TEST(MachineRegistry, ContainsDocumentedMachinesInListingOrder)
{
    const std::vector<MachineSpec> &reg = machineRegistry();
    std::vector<std::string> names;
    for (const MachineSpec &m : reg)
        names.push_back(m.name);
    EXPECT_EQ(names,
              (std::vector<std::string>{
                  "bus", "bus-cap", "bus-u", "bus-slow", "net",
                  "net-cold", "net-u",
                  "net-banked", "bus-mesi", "bus-moesi", "bus-mesif",
                  "net-mesi", "net-moesi", "net-mesif", "bus-l2",
                  "net-l2", "net-l2-moesi"}));
    for (const MachineSpec &m : reg)
        EXPECT_FALSE(m.summary.empty()) << m.name;
}

TEST(MachineRegistry, FindMachineReturnsNullOnUnknown)
{
    EXPECT_NE(findMachine("bus"), nullptr);
    EXPECT_EQ(findMachine("bus")->name, "bus");
    EXPECT_EQ(findMachine("warp-drive"), nullptr);
    EXPECT_EQ(findMachine(""), nullptr);
}

TEST(MachineRegistry, MachineOrThrowNamesTheKnownMachines)
{
    EXPECT_EQ(&machineOrThrow("net"), findMachine("net"));
    try {
        machineOrThrow("warp-drive");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("warp-drive"), std::string::npos) << what;
        // The diagnostic lists every registered machine.
        for (const MachineSpec &m : machineRegistry())
            EXPECT_NE(what.find(m.name), std::string::npos) << what;
    }
}

TEST(MachineRegistry, ParseMachineListResolvesNames)
{
    auto machines = parseMachineList("bus,net-u,net");
    ASSERT_EQ(machines.size(), 3u);
    EXPECT_EQ(machines[0]->name, "bus");
    EXPECT_EQ(machines[1]->name, "net-u");
    EXPECT_EQ(machines[2]->name, "net");
}

TEST(MachineRegistry, ParseMachineListRejectsEmptyAndUnknown)
{
    EXPECT_THROW(parseMachineList(""), std::runtime_error);
    EXPECT_THROW(parseMachineList(","), std::runtime_error);
    EXPECT_THROW(parseMachineList("bus,nope"), std::runtime_error);
    // An empty item is an error wherever it sits.
    EXPECT_THROW(parseMachineList("bus,"), std::runtime_error);
    EXPECT_THROW(parseMachineList(",bus"), std::runtime_error);
    EXPECT_THROW(parseMachineList("bus,,net"), std::runtime_error);
}

TEST(CommaList, SplitsItemsAndRejectsEmptyOnes)
{
    std::vector<std::string> items{"kept"};
    ASSERT_TRUE(splitCommaList("bus", items));
    EXPECT_EQ(items, std::vector<std::string>{"bus"});
    ASSERT_TRUE(splitCommaList("bus,net-*,a b", items));
    EXPECT_EQ(items, (std::vector<std::string>{"bus", "net-*", "a b"}));
    for (const char *bad : {"", ",", "bus,", ",bus", "bus,,net", ",,"}) {
        EXPECT_FALSE(splitCommaList(bad, items)) << bad;
        // A rejected list leaves the output untouched.
        EXPECT_EQ(items, (std::vector<std::string>{"bus", "net-*", "a b"}))
            << bad;
    }
}

TEST(MachineRegistry, ParseMachineListExpandsGlobPatterns)
{
    // `bus-*` expands in registry order; the literal `bus` is excluded
    // (the pattern requires the dash).
    auto machines = parseMachineList("bus-*");
    ASSERT_GE(machines.size(), 5u);
    for (const MachineSpec *m : machines) {
        EXPECT_EQ(m->name.rfind("bus-", 0), 0u) << m->name;
    }

    // Duplicates collapse: the literal, then a pattern covering both it
    // ("net-mes?" with zero extra chars is not a match) and net-mesif.
    auto deduped = parseMachineList("net-mesi,net-mesi*");
    ASSERT_EQ(deduped.size(), 2u);
    EXPECT_EQ(deduped[0]->name, "net-mesi");
    EXPECT_EQ(deduped[1]->name, "net-mesif");

    // `*` alone is the whole registry.
    EXPECT_EQ(parseMachineList("*").size(), machineRegistry().size());

    // A pattern matching nothing is an error, like an unknown name.
    EXPECT_THROW(parseMachineList("warp-*"), std::runtime_error);
}

TEST(MachineSpec, ProtocolVariantsMapProtocolAndLevels)
{
    EXPECT_EQ(machineOrThrow("bus").config().protocol,
              ProtocolKind::Msi);
    EXPECT_EQ(machineOrThrow("bus").config().cacheLevels, 1);
    EXPECT_EQ(machineOrThrow("bus-mesi").config().protocol,
              ProtocolKind::Mesi);
    EXPECT_EQ(machineOrThrow("net-moesi").config().protocol,
              ProtocolKind::Moesi);
    EXPECT_EQ(machineOrThrow("net-mesif").config().protocol,
              ProtocolKind::Mesif);
    EXPECT_EQ(machineOrThrow("bus-l2").config().cacheLevels, 2);
    EXPECT_EQ(machineOrThrow("bus-l2").config().protocol,
              ProtocolKind::Msi);
    EXPECT_EQ(machineOrThrow("net-l2").config().protocol,
              ProtocolKind::Mesi);
    EXPECT_EQ(machineOrThrow("net-l2-moesi").config().cacheLevels, 2);

    // Protocol variants change nothing else about the base machine.
    SystemConfig base = machineOrThrow("bus").config();
    SystemConfig mesi = machineOrThrow("bus-mesi").config();
    EXPECT_EQ(mesi.interconnect, base.interconnect);
    EXPECT_EQ(mesi.bus.latency, base.bus.latency);
    EXPECT_EQ(mesi.warmCaches, base.warmCaches);
}

TEST(MachineRegistry, PrintMachineListShowsEveryEntry)
{
    std::ostringstream oss;
    printMachineList(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("machine"), std::string::npos);
    EXPECT_NE(out.find("network"), std::string::npos);
    EXPECT_NE(out.find("cached"), std::string::npos);
    EXPECT_NE(out.find("jitter"), std::string::npos);
    for (const MachineSpec &m : machineRegistry()) {
        EXPECT_NE(out.find(m.name), std::string::npos) << m.name;
        EXPECT_NE(out.find(m.summary), std::string::npos) << m.name;
    }
}

TEST(MachineSpec, BusConfigMapsFields)
{
    SystemConfig cfg = machineOrThrow("bus").config(PolicyKind::Sc);
    EXPECT_EQ(cfg.interconnect, InterconnectKind::Bus);
    EXPECT_TRUE(cfg.cached);
    EXPECT_EQ(cfg.policy, PolicyKind::Sc);
    EXPECT_EQ(cfg.bus.latency, 4u);
    EXPECT_EQ(cfg.bus.occupancy, 1u);
    // Write buffers only materialize under Relaxed.
    EXPECT_FALSE(cfg.writeBuffer);
    EXPECT_TRUE(
        machineOrThrow("bus").config(PolicyKind::Relaxed).writeBuffer);
}

TEST(MachineSpec, BusSlowIsContended)
{
    SystemConfig cfg = machineOrThrow("bus-slow").config();
    EXPECT_EQ(cfg.interconnect, InterconnectKind::Bus);
    EXPECT_EQ(cfg.bus.latency, 12u);
    EXPECT_EQ(cfg.bus.occupancy, 4u);
}

TEST(MachineSpec, NetworkMachinesMapFields)
{
    SystemConfig net = machineOrThrow("net").config();
    EXPECT_EQ(net.interconnect, InterconnectKind::Network);
    EXPECT_TRUE(net.cached);
    EXPECT_TRUE(net.warmCaches);

    SystemConfig cold = machineOrThrow("net-cold").config();
    EXPECT_FALSE(cold.warmCaches);
    EXPECT_EQ(cold.net.base, 6u);
    EXPECT_EQ(cold.net.jitter, 8u);

    SystemConfig uncached = machineOrThrow("net-u").config();
    EXPECT_FALSE(uncached.cached);
    EXPECT_EQ(uncached.net.jitter, 30u);

    SystemConfig banked = machineOrThrow("net-banked").config();
    EXPECT_EQ(banked.numDirs, 2);
    EXPECT_EQ(banked.numMemModules, 4);
}

TEST(MachineSpec, NetSeedThreadsThroughToTheJitterStream)
{
    SystemConfig a = machineOrThrow("net-cold").config(
        PolicyKind::Def2Drf0, 123);
    EXPECT_EQ(a.net.seed, 123u);
    // Default matches a default-constructed GeneralNetwork::Config, so
    // registry-built configs are drop-in for historical literals.
    SystemConfig b = machineOrThrow("net-cold").config();
    EXPECT_EQ(b.net.seed, GeneralNetwork::Config{}.seed);
}

TEST(MachineSpec, WriteBuffersNeverEnabledWhereUnsupported)
{
    // No registered machine may emit a config combination System()
    // rejects: write buffers are a Relaxed-only feature.
    for (const MachineSpec &m : machineRegistry()) {
        for (PolicyKind pk :
             {PolicyKind::Sc, PolicyKind::Def1, PolicyKind::Def2Drf0,
              PolicyKind::Def2Drf1}) {
            EXPECT_FALSE(m.config(pk).writeBuffer) << m.name;
        }
    }
}

} // namespace
} // namespace wo
