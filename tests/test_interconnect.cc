/**
 * @file
 * Unit tests for the interconnect models and memory modules.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/interconnect.hh"
#include "mem/memory_module.hh"
#include "sim/event_queue.hh"

namespace wo {
namespace {

Msg
mk(NodeId src, NodeId dst, Addr addr = 0, Word v = 0)
{
    Msg m;
    m.type = MsgType::MemReadReq;
    m.src = src;
    m.dst = dst;
    m.addr = addr;
    m.value = v;
    return m;
}

TEST(Bus, DeliversWithFixedLatency)
{
    EventQueue eq;
    StatSet stats;
    Bus::Config cfg;
    cfg.latency = 4;
    Bus bus(eq, stats, cfg);
    Tick delivered = 0;
    bus.attach(1, [&](const Msg &) { delivered = eq.now(); });
    bus.send(mk(0, 1));
    eq.run();
    EXPECT_EQ(delivered, 4u);
}

TEST(Bus, SerializesGlobalOrder)
{
    EventQueue eq;
    StatSet stats;
    Bus::Config cfg;
    cfg.latency = 4;
    cfg.occupancy = 2;
    Bus bus(eq, stats, cfg);
    std::vector<Word> order;
    bus.attach(1, [&](const Msg &m) { order.push_back(m.value); });
    bus.attach(2, [&](const Msg &m) { order.push_back(m.value); });
    // Three messages injected at the same tick from different sources:
    // the bus carries them one at a time, in injection order.
    bus.send(mk(0, 1, 0, 1));
    bus.send(mk(3, 2, 0, 2));
    bus.send(mk(4, 1, 0, 3));
    eq.run();
    EXPECT_EQ(order, (std::vector<Word>{1, 2, 3}));
    EXPECT_EQ(stats.get("bus.msgs"), 3u);
}

TEST(Network, PointToPointFifoHolds)
{
    EventQueue eq;
    StatSet stats;
    GeneralNetwork::Config cfg;
    cfg.base = 2;
    cfg.jitter = 20;
    cfg.seed = 123;
    GeneralNetwork net(eq, stats, cfg);
    std::vector<Word> order;
    net.attach(1, [&](const Msg &m) { order.push_back(m.value); });
    for (Word i = 0; i < 50; ++i)
        net.send(mk(0, 1, 0, i));
    eq.run();
    ASSERT_EQ(order.size(), 50u);
    for (Word i = 0; i < 50; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Network, CrossPairMessagesCanReorder)
{
    EventQueue eq;
    StatSet stats;
    GeneralNetwork::Config cfg;
    cfg.base = 2;
    cfg.jitter = 20;
    cfg.seed = 7;
    GeneralNetwork net(eq, stats, cfg);
    std::vector<Word> order;
    net.attach(1, [&](const Msg &m) { order.push_back(m.value); });
    net.attach(2, [&](const Msg &m) { order.push_back(m.value); });
    bool reordered = false;
    // Send pairs (to node 1 first, then node 2); if any pair arrives
    // reversed, cross-pair reordering happened.
    for (Word i = 0; i < 20; ++i) {
        order.clear();
        net.send(mk(0, 1, 0, 1));
        net.send(mk(0, 2, 0, 2));
        eq.run();
        if (order == std::vector<Word>{2, 1})
            reordered = true;
    }
    EXPECT_TRUE(reordered);
}

TEST(Network, DeterministicForSeed)
{
    auto run_once = [](std::uint64_t seed) {
        EventQueue eq;
        StatSet stats;
        GeneralNetwork::Config cfg;
        cfg.seed = seed;
        GeneralNetwork net(eq, stats, cfg);
        std::vector<Tick> times;
        net.attach(1, [&](const Msg &) { times.push_back(eq.now()); });
        for (int i = 0; i < 10; ++i)
            net.send(mk(0, 1));
        eq.run();
        return times;
    };
    EXPECT_EQ(run_once(5), run_once(5));
    EXPECT_NE(run_once(5), run_once(6));
}

TEST(MemoryModule, ServicesReadsWritesRmw)
{
    EventQueue eq;
    StatSet stats;
    GeneralNetwork::Config ncfg;
    ncfg.jitter = 0;
    GeneralNetwork net(eq, stats, ncfg);
    MemoryModule mem(eq, net, stats, 1);
    std::vector<Msg> responses;
    net.attach(0, [&](const Msg &m) { responses.push_back(m); });

    Msg w = mk(0, 1, 5, 42);
    w.type = MsgType::MemWriteReq;
    w.reqId = 1;
    net.send(w);

    Msg r = mk(0, 1, 5);
    r.type = MsgType::MemReadReq;
    r.reqId = 2;
    net.send(r);

    Msg x = mk(0, 1, 5, 7);
    x.type = MsgType::MemRmwReq;
    x.reqId = 3;
    net.send(x);
    eq.run();

    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0].type, MsgType::MemWriteResp);
    EXPECT_EQ(responses[1].type, MsgType::MemReadResp);
    EXPECT_EQ(responses[1].value, 42u);
    EXPECT_EQ(responses[2].type, MsgType::MemRmwResp);
    EXPECT_EQ(responses[2].value, 42u); // old value returned
    EXPECT_EQ(mem.peek(5), 7u);
}

TEST(MemoryModule, SerializesServiceTime)
{
    EventQueue eq;
    StatSet stats;
    GeneralNetwork::Config ncfg;
    ncfg.base = 1;
    ncfg.jitter = 0;
    GeneralNetwork net(eq, stats, ncfg);
    MemoryModule mem(eq, net, stats, 1); // 10-tick service latency
    std::vector<Tick> resp_times;
    net.attach(0, [&](const Msg &) { resp_times.push_back(eq.now()); });
    for (int i = 0; i < 3; ++i) {
        Msg r = mk(0, 1, 5);
        r.type = MsgType::MemReadReq;
        net.send(r);
    }
    eq.run();
    ASSERT_EQ(resp_times.size(), 3u);
    // Service completions 10 apart (plus the return hop).
    EXPECT_GE(resp_times[1], resp_times[0] + 10);
    EXPECT_GE(resp_times[2], resp_times[1] + 10);
}

} // namespace
} // namespace wo
