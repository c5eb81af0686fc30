/**
 * @file
 * Tests of the Interconnect seam: the flat fabric behind the interface
 * must be indistinguishable from the pre-seam implementation (golden
 * RunResult identity across every organization), and the hierarchical
 * crossbar-of-clusters fabric must degenerate correctly at both ends
 * of its cluster-size range (whole-chip cluster = pure crossbar,
 * 1x1 clusters = the flat mesh) and route around dead inter-cluster
 * links. Messages build their continuation once, recycle through the
 * fabric's pool and are released cleanly when a fabric or system is
 * torn down mid-flight.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/hier_fabric.hh"
#include "core/interconnect.hh"
#include "core/nocstar_org.hh"
#include "cpu/system.hh"
#include "sim/fault.hh"
#include "sim/random.hh"

using namespace nocstar;
using namespace nocstar::core;

namespace
{

struct InterconnectHarness
{
    EventQueue queue;
    stats::StatGroup root{"root"};
    noc::GridTopology topo;
    std::unique_ptr<Interconnect> fabricPtr;
    Interconnect &fabric;

    explicit InterconnectHarness(unsigned cores = 16,
                                 FabricConfig cfg = {})
        : topo(noc::GridTopology::forCores(cores)),
          fabricPtr(makeInterconnect("fabric", queue, topo, cfg, &root)),
          fabric(*fabricPtr)
    {}

    HierFabric &
    hier()
    {
        return dynamic_cast<HierFabric &>(fabric);
    }
};

FabricConfig
hierConfig(unsigned cw, unsigned ch)
{
    FabricConfig cfg;
    cfg.kind = FabricKind::Hierarchical;
    cfg.clusterWidth = cw;
    cfg.clusterHeight = ch;
    return cfg;
}

/** NOCSTAR system config mirroring bench::makeConfig. */
cpu::SystemConfig
paperConfig(core::OrgKind kind, unsigned cores)
{
    cpu::SystemConfig config;
    config.org.kind = kind;
    config.org.numCores = cores;
    config.org.banks = cores >= 64 ? 8 : 4;
    cpu::AppConfig app;
    app.spec = workload::paperWorkloads()[0];
    app.threads = cores;
    config.apps.push_back(std::move(app));
    config.superpages = true;
    config.seed = 12345;
    return config;
}

} // namespace

// ---------------------------------------------------------------------
// Flat fabric behind the seam: golden identity.
// ---------------------------------------------------------------------

/**
 * The seam refactor must not perturb a single cycle: these RunResult
 * values were captured from the pre-Interconnect tree (seed commit)
 * with makeConfig(kind, 16, paperWorkloads()[0]) and run(2000). The
 * monolithic-mesh, distributed and ideal-shared rows were re-baselined
 * when L1 hits began running ahead of the clock: those organizations
 * serve same-cycle requests in arrival order, and a few same-cycle
 * ties resolve the other way (DESIGN.md, "Per-thread run-ahead").
 */
TEST(InterconnectSeam, FlatRunResultsMatchPreSeamGoldens)
{
    struct Golden
    {
        core::OrgKind kind;
        std::uint64_t cycles;
        double meanCycles;
        std::uint64_t l2Hits;
        std::uint64_t l2Misses;
        std::uint64_t walks;
    };
    const Golden goldens[] = {
        {core::OrgKind::Private, 19104u, 14951.875, 3533u, 597u, 597u},
        {core::OrgKind::MonolithicMesh, 26387u, 15528.8125, 4016u, 114u,
         114u},
        {core::OrgKind::MonolithicSmart, 22043u, 14212.375, 4017u, 113u,
         113u},
        {core::OrgKind::Distributed, 21510u, 13970.6875, 4001u, 129u,
         129u},
        {core::OrgKind::IdealShared, 14960u, 11330.625, 4001u, 129u,
         129u},
        {core::OrgKind::Nocstar, 16363u, 12241.1875, 3976u, 154u, 154u},
        {core::OrgKind::NocstarIdeal, 16371u, 12231.6875, 3976u, 154u,
         154u},
    };
    for (const Golden &g : goldens) {
        cpu::System system(paperConfig(g.kind, 16));
        cpu::RunResult r = system.run(2000);
        EXPECT_EQ(r.cycles, g.cycles) << orgKindName(g.kind);
        EXPECT_DOUBLE_EQ(r.meanCycles, g.meanCycles)
            << orgKindName(g.kind);
        EXPECT_EQ(r.l2Hits, g.l2Hits) << orgKindName(g.kind);
        EXPECT_EQ(r.l2Misses, g.l2Misses) << orgKindName(g.kind);
        EXPECT_EQ(r.walks, g.walks) << orgKindName(g.kind);
    }
}

TEST(InterconnectSeam, OnDemandPathsMatchTopologyPastTableCap)
{
    // Past kPathTableMaxTiles the flat fabric stops precomputing the
    // dense pair table and walks GridTopology on demand; the paths it
    // serves must stay identical.
    InterconnectHarness h(1024);
    Random rng(7);
    for (unsigned i = 0; i < 200; ++i) {
        CoreId src = static_cast<CoreId>(rng.below(1024));
        CoreId dst = static_cast<CoreId>(rng.below(1024));
        auto expected = h.topo.xyPath(src, dst);
        std::vector<std::uint32_t> got;
        h.fabric.pathLinksInto(src, dst, got);
        ASSERT_EQ(got.size(), expected.size()) << src << " -> " << dst;
        for (std::size_t k = 0; k < expected.size(); ++k)
            EXPECT_EQ(got[k], expected[k].flatten())
                << src << " -> " << dst << " link " << k;
        EXPECT_EQ(h.fabric.pathHops(src, dst), h.topo.hops(src, dst));
    }
    // And messages still flow through the on-demand path machinery.
    Cycle delivered = invalidCycle;
    h.fabric.send(0, 1023, 10, [&](Cycle at) { delivered = at; });
    h.queue.run();
    EXPECT_NE(delivered, invalidCycle);
}

TEST(InterconnectSeam, RequestRingGrowsAcrossWrapInFifoOrder)
{
    // One source's queue is a ring that grows by doubling. Advance its
    // head off slot 0 first, so the batch below wraps around the ring
    // and grows while the head is not 0.
    InterconnectHarness h(16);
    const CoreId src = 0;
    const CoreId dst = 15;
    const Cycle trav = h.fabric.traversal(src, dst);
    std::vector<std::pair<unsigned, Cycle>> log;
    auto batch = [&](Cycle at, unsigned first, unsigned count) {
        for (unsigned i = 0; i < count; ++i)
            h.fabric.send(src, dst, at,
                          [&log, id = first + i](Cycle arrival) {
                              log.emplace_back(id, arrival);
                          });
        h.queue.run();
    };
    // Uncontended FIFO: the single setup port grants message k of a
    // batch posted at cycle t in cycle t + k.
    auto expectFifo = [&](Cycle at, unsigned first, unsigned count) {
        ASSERT_EQ(log.size(), first + count);
        for (unsigned k = 0; k < count; ++k) {
            EXPECT_EQ(log[first + k].first, first + k);
            EXPECT_EQ(log[first + k].second, at + k + trav)
                << "message " << first + k;
        }
    };

    batch(10, 0, 2);
    expectFifo(10, 0, 2);

    const auto deep = static_cast<unsigned>(
        3 * Interconnect::ringInitialCapacity + 1);
    batch(100, 2, deep);
    expectFifo(100, 2, deep);
    const std::size_t bytes = h.fabric.memoryBytes();

    // An equal second batch reuses the grown ring: no new memory.
    batch(200, 2 + deep, deep);
    expectFifo(200, 2 + deep, deep);
    EXPECT_EQ(h.fabric.memoryBytes(), bytes);
    EXPECT_EQ(h.fabric.setupFailures.value(), 0.0);
}

TEST(InterconnectSeam, GrantWaitHistogramsAreOptIn)
{
    InterconnectHarness off(16);
    EXPECT_EQ(off.fabric.grantWaitOf(0), nullptr);

    FabricConfig cfg;
    cfg.recordGrantWait = true;
    InterconnectHarness on(16, cfg);
    // Two requests collide on the East link out of tile 1: the winner
    // waits 0 cycles, the loser 1.
    on.fabric.send(0, 3, 5, [](Cycle) {});
    on.fabric.send(1, 2, 5, [](Cycle) {});
    on.queue.run();
    const sim::LatencyHistogram *w0 = on.fabric.grantWaitOf(0);
    const sim::LatencyHistogram *w1 = on.fabric.grantWaitOf(1);
    ASSERT_NE(w0, nullptr);
    ASSERT_NE(w1, nullptr);
    EXPECT_EQ(w0->numSamples(), 1u);
    EXPECT_EQ(w0->maxValue(), 0u);
    EXPECT_EQ(w1->numSamples(), 1u);
    EXPECT_EQ(w1->maxValue(), 1u);
}

// ---------------------------------------------------------------------
// Hierarchical fabric: degeneracies.
// ---------------------------------------------------------------------

TEST(HierFabric, WholeChipClusterDegeneratesToCrossbar)
{
    // One 4x4 cluster covering the whole 16-tile chip: every remote
    // pair is one crossbar hop regardless of Manhattan distance, even
    // with HPCmax 1 (which would make the far corner 6 mesh cycles).
    FabricConfig cfg = hierConfig(4, 4);
    cfg.hpcMax = 1;
    InterconnectHarness h(16, cfg);
    EXPECT_EQ(h.hier().numClusters(), 1u);
    for (CoreId src = 0; src < 16; ++src)
        for (CoreId dst = 0; dst < 16; ++dst) {
            EXPECT_EQ(h.fabric.traversal(src, dst),
                      src == dst ? 0u : 1u);
            EXPECT_EQ(h.fabric.pathHops(src, dst),
                      src == dst ? 0u : 1u);
        }
    Cycle delivered = invalidCycle;
    h.fabric.send(0, 15, 10, [&](Cycle at) { delivered = at; });
    h.queue.run();
    EXPECT_EQ(delivered, 11u); // setup at 10, one crossbar cycle
    EXPECT_EQ(h.hier().clusterLocalMessages.value(), 1.0);
    EXPECT_EQ(h.hier().interClusterMessages.value(), 0.0);
}

TEST(HierFabric, CrossbarOutputPortIsTheContendedResource)
{
    InterconnectHarness h(16, hierConfig(4, 4));
    std::map<int, Cycle> log;
    // Two same-cycle messages into tile 0: one crossbar output port,
    // so the lower-priority source retries.
    h.fabric.send(1, 0, 5, [&](Cycle at) { log[1] = at; });
    h.fabric.send(2, 0, 5, [&](Cycle at) { log[2] = at; });
    h.queue.run();
    EXPECT_EQ(log[1], 6u);
    EXPECT_EQ(log[2], 7u);
    EXPECT_EQ(h.fabric.setupFailures.value(), 1.0);
    EXPECT_EQ(h.hier().xbarDenies.value(), 1.0);
    // Disjoint destinations do not contend.
    std::vector<Cycle> arrivals;
    h.fabric.send(4, 8, 100, [&](Cycle at) { arrivals.push_back(at); });
    h.fabric.send(5, 9, 100, [&](Cycle at) { arrivals.push_back(at); });
    h.queue.run();
    EXPECT_EQ(arrivals, (std::vector<Cycle>{101, 101}));
}

TEST(HierFabric, UnitClustersMatchFlatCycleForCycle)
{
    // clusterSize == 1 collapses the hierarchy onto the plain mesh:
    // same link ids, same grant order, same timing, same stats.
    InterconnectHarness flat(16);
    InterconnectHarness unit(16, hierConfig(1, 1));
    EXPECT_EQ(unit.hier().numClusters(), 16u);

    auto drive = [](InterconnectHarness &h) {
        std::vector<Cycle> arrivals;
        Random rng(99);
        for (Cycle t = 0; t < 2000; ++t) {
            for (CoreId src = 0; src < 16; ++src) {
                if (rng.uniform() >= 0.15)
                    continue;
                CoreId dst = static_cast<CoreId>(rng.below(16));
                if (dst == src)
                    continue;
                h.fabric.send(src, dst, t, [&arrivals](Cycle at) {
                    arrivals.push_back(at);
                });
            }
        }
        h.queue.run();
        return arrivals;
    };
    std::vector<Cycle> flatArrivals = drive(flat);
    std::vector<Cycle> unitArrivals = drive(unit);
    EXPECT_EQ(flatArrivals, unitArrivals);
    EXPECT_DOUBLE_EQ(flat.fabric.messagesSent.value(),
                     unit.fabric.messagesSent.value());
    EXPECT_DOUBLE_EQ(flat.fabric.setupAttempts.value(),
                     unit.fabric.setupAttempts.value());
    EXPECT_DOUBLE_EQ(flat.fabric.setupFailures.value(),
                     unit.fabric.setupFailures.value());
    EXPECT_DOUBLE_EQ(flat.fabric.totalNetworkLatency.value(),
                     unit.fabric.totalNetworkLatency.value());
    ASSERT_EQ(flat.fabric.linkGrants.size(),
              unit.fabric.linkGrants.size());
    for (std::uint32_t l = 0; l < flat.fabric.linkGrants.size(); ++l) {
        EXPECT_DOUBLE_EQ(flat.fabric.linkGrants[l],
                         unit.fabric.linkGrants[l])
            << "link " << l;
        EXPECT_DOUBLE_EQ(flat.fabric.linkHoldCycles[l],
                         unit.fabric.linkHoldCycles[l])
            << "link " << l;
    }
    EXPECT_EQ(unit.hier().clusterLocalMessages.value(), 0.0);
}

TEST(HierFabric, InterClusterTraversalClimbsGateways)
{
    // 8x8 mesh in 4x4 clusters -> 2x2 cluster grid. Gateways are the
    // top-left tiles of each cluster: 0, 4, 32, 36.
    InterconnectHarness h(64, hierConfig(4, 4));
    HierFabric &hf = h.hier();
    EXPECT_EQ(hf.numClusters(), 4u);
    EXPECT_EQ(hf.gatewayOf(0), 0u);
    EXPECT_EQ(hf.gatewayOf(1), 4u);
    EXPECT_EQ(hf.gatewayOf(2), 32u);
    EXPECT_EQ(hf.gatewayOf(3), 36u);
    EXPECT_EQ(hf.clusterOf(9), 0u);  // (1,1)
    EXPECT_EQ(hf.clusterOf(13), 1u); // (5,1)

    // Same cluster: one crossbar hop.
    EXPECT_EQ(h.fabric.traversal(9, 0), 1u);
    // Non-gateway -> non-gateway across adjacent clusters: climb (1)
    // + 1 cluster-mesh hop (HPCmax covers it) + descend (1).
    EXPECT_EQ(h.fabric.pathHops(9, 13), 3u);
    EXPECT_EQ(h.fabric.traversal(9, 13), 3u);
    // Gateway -> gateway skips both crossbar legs.
    EXPECT_EQ(h.fabric.traversal(0, 4), 1u);
    // The mesh segment only occupies the inter-cluster link.
    std::vector<std::uint32_t> links;
    h.fabric.pathLinksInto(9, 13, links);
    ASSERT_EQ(links.size(), 1u);
    EXPECT_EQ(links[0],
              0u * 4 + static_cast<std::uint32_t>(
                           noc::Direction::East)); // gateway 0, East
}

// ---------------------------------------------------------------------
// Hierarchical fabric: faults.
// ---------------------------------------------------------------------

TEST(HierFabric, RoutesAroundDeadInterClusterLink)
{
    // Kill the East link out of gateway 0 (link id 0) permanently:
    // cluster 0 -> cluster 1 traffic must re-route over clusters
    // 2 and 3 without ever being degraded onto the fallback mesh.
    sim::FaultPlan plan;
    plan.linkFaults.push_back({0u, 0, 0});
    FabricConfig cfg = hierConfig(2, 2); // 4x4 mesh -> 2x2 clusters
    cfg.faults = &plan;
    InterconnectHarness h(16, cfg);

    Cycle delivered = invalidCycle;
    h.fabric.send(0, 2, 10, [&](Cycle at) { delivered = at; });
    h.queue.run();
    EXPECT_NE(delivered, invalidCycle);
    EXPECT_EQ(h.fabric.degradedMessages.value(), 0.0);
    EXPECT_EQ(h.fabric.linkGrants[0], 0.0); // dead link never granted
    // The detour holds three cluster-mesh links.
    std::vector<std::uint32_t> links;
    h.fabric.pathLinksInto(0, 2, links);
    EXPECT_EQ(links.size(), 3u);
    for (std::uint32_t l : links)
        EXPECT_NE(l, 0u);
}

// ---------------------------------------------------------------------
// Hierarchical fabric: whole-system invariances.
// ---------------------------------------------------------------------

TEST(HierFabric, ClusterLocalSliceMappingRunsAndStaysInCluster)
{
    cpu::SystemConfig config = paperConfig(core::OrgKind::Nocstar, 64);
    config.org.fabricKind = core::FabricKind::Hierarchical;
    config.org.sliceMapping = core::SliceMapping::ClusterLocal;
    EXPECT_TRUE(config.validate().empty());
    cpu::System system(config);
    cpu::RunResult r = system.run(500);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.l2Hits + r.l2Misses, r.l2Accesses);
}

TEST(HierFabric, GrantWaitPercentilesReachRunResult)
{
    cpu::SystemConfig config = paperConfig(core::OrgKind::Nocstar, 16);
    config.org.recordGrantWait = true;
    cpu::System system(config);
    cpu::RunResult r = system.run(1000);
    EXPECT_GT(r.fabricSetupAttempts, 0u);
    EXPECT_GE(r.fabricGrantWaitP99Max, 0.0);
    EXPECT_GE(r.fabricGrantWaitP99Max, r.fabricGrantWaitP99Mean);
}

// ---------------------------------------------------------------------
// Message lifecycle: one continuation build per message, pooled
// messages, teardown with messages in flight.
// ---------------------------------------------------------------------

namespace
{

/** What a MoveCounted continuation saw. */
struct MoveProbe
{
    int moves = 0;
    int movesAtDelivery = -1;
    Cycle arrival = invalidCycle;
    bool degraded = false;
};

/** A continuation that counts its own relocations. */
struct MoveCounted
{
    MoveProbe *probe;
    const Interconnect *fabric;

    MoveCounted(MoveProbe *p, const Interconnect *f) : probe(p), fabric(f)
    {}
    MoveCounted(MoveCounted &&other) noexcept
        : probe(other.probe), fabric(other.fabric)
    {
        ++probe->moves;
    }

    void
    operator()(Cycle at)
    {
        probe->movesAtDelivery = probe->moves;
        probe->arrival = at;
        probe->degraded = fabric->deliveredDegraded();
    }
};

/** Send one MoveCounted message, then check it moved at most once,
 * into its message, and never after send() returned. */
void
expectBuiltOnce(InterconnectHarness &h, std::vector<MoveProbe> &probes,
                const std::vector<std::pair<CoreId, CoreId>> &pairs,
                Cycle at)
{
    probes.assign(pairs.size(), MoveProbe{});
    std::vector<int> after(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        h.fabric.send(pairs[i].first, pairs[i].second, at,
                      MoveCounted{&probes[i], &h.fabric});
        after[i] = probes[i].moves;
    }
    h.queue.run();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_LE(after[i], 1) << "message " << i;
        EXPECT_EQ(probes[i].moves, after[i]) << "message " << i;
        EXPECT_EQ(probes[i].movesAtDelivery, after[i]) << "message " << i;
        EXPECT_NE(probes[i].arrival, invalidCycle) << "message " << i;
    }
}

} // namespace

TEST(FabricMessages, GrantedContinuationIsBuiltOnceInItsMessage)
{
    InterconnectHarness h(16);
    std::vector<MoveProbe> probes;
    expectBuiltOnce(h, probes, {{0, 15}}, 5);
    EXPECT_EQ(h.fabric.setupFailures.value(), 0.0);
    EXPECT_FALSE(probes[0].degraded);
    // Deliveries run on the fabric's own pooled messages, never on
    // the queue's lambda pool.
    EXPECT_EQ(h.queue.allocatedLambdaEvents(), 0u);
    EXPECT_EQ(h.fabric.allocatedMessages(), 1u);
    EXPECT_EQ(h.fabric.freeMessages(), 1u);
}

TEST(FabricMessages, DeniedThenGrantedContinuationStaysPut)
{
    // 0 -> 3 and 1 -> 2 share tile 1's East link: one is denied and
    // waits in its ring, then retries and wins.
    InterconnectHarness h(16);
    std::vector<MoveProbe> probes;
    expectBuiltOnce(h, probes, {{0, 3}, {1, 2}}, 5);
    EXPECT_EQ(h.fabric.setupFailures.value(), 1.0);
    EXPECT_EQ(h.queue.allocatedLambdaEvents(), 0u);
}

TEST(FabricMessages, DegradedContinuationStaysPutAndSeesTheFlag)
{
    // Every output of tile 5 is dead, so 5 -> 6 takes the mesh.
    sim::FaultPlan plan;
    for (auto dir : {noc::Direction::East, noc::Direction::West,
                     noc::Direction::North, noc::Direction::South})
        plan.linkFaults.push_back({noc::LinkId{5, dir}.flatten(), 0, 0});
    FabricConfig cfg;
    cfg.faults = &plan;
    InterconnectHarness h(16, cfg);
    std::vector<MoveProbe> probes;
    expectBuiltOnce(h, probes, {{5, 6}}, 10);
    EXPECT_EQ(h.fabric.degradedMessages.value(), 1.0);
    EXPECT_TRUE(probes[0].degraded);
    EXPECT_FALSE(h.fabric.deliveredDegraded());

    // The recycled message carries no stale degraded mark.
    expectBuiltOnce(h, probes, {{0, 1}}, h.queue.curCycle());
    EXPECT_FALSE(probes[0].degraded);
    EXPECT_EQ(h.fabric.allocatedMessages(), 1u);
}

TEST(FabricMessages, SendFromInsideADeliveryReusesThePool)
{
    // Each delivery sends the next message, as a remote hit's
    // response does: the running message stays allocated until its
    // continuation returns, so a chain needs exactly two.
    InterconnectHarness h(16);
    struct Bounce
    {
        Interconnect *fabric;
        unsigned *legs;
        void
        operator()(Cycle at)
        {
            if (++*legs < 100)
                fabric->send(*legs % 2 ? 5 : 10, *legs % 2 ? 10 : 5, at,
                             Bounce{*this});
        }
    };
    unsigned legs = 0;
    h.fabric.send(10, 5, 0, Bounce{&h.fabric, &legs});
    h.queue.run();
    EXPECT_EQ(legs, 100u);
    EXPECT_EQ(h.fabric.messagesSent.value(), 100.0);
    EXPECT_EQ(h.fabric.allocatedMessages(), 2u);
    EXPECT_EQ(h.fabric.freeMessages(), 2u);
    EXPECT_EQ(h.queue.allocatedLambdaEvents(), 0u);
}

TEST(FabricMessages, DestroyingAFabricReleasesQueuedAndScheduledMessages)
{
    for (const FabricConfig &cfg : {FabricConfig{}, hierConfig(4, 4)}) {
        EventQueue queue;
        stats::StatGroup root{"root"};
        noc::GridTopology topo = noc::GridTopology::forCores(64);
        std::unique_ptr<Interconnect> fabric =
            makeInterconnect("fabric", queue, topo, cfg, &root);
        auto token = std::make_shared<int>(0);
        int delivered = 0;
        for (int i = 0; i < 4; ++i)
            fabric->send(0, 63, 5,
                         [token, &delivered](Cycle) { ++delivered; });
        // One setup port: the first grant in cycle 5 is on the wheel,
        // the other three requests wait in the ring.
        queue.run(5);
        EXPECT_EQ(delivered, 0);
        EXPECT_EQ(fabric->messagesSent.value(), 1.0);
        EXPECT_EQ(fabric->allocatedMessages(), 4u);
        EXPECT_EQ(fabric->freeMessages(), 0u);
        EXPECT_EQ(token.use_count(), 5);

        fabric.reset();
        EXPECT_EQ(token.use_count(), 1);
        EXPECT_TRUE(queue.empty());
    }
}

TEST(FabricMessages, DestroyingASystemMidFlightReleasesItsMessages)
{
    cpu::SystemConfig config = paperConfig(core::OrgKind::Nocstar, 16);
    auto system = std::make_unique<cpu::System>(config);
    auto &org = dynamic_cast<core::NocstarOrg &>(system->organization());
    const Interconnect &fabric = org.fabric();

    // Fifteen cores ask slice 5 at once: a few setups win (on the
    // wheel), the rest are denied and wait in their rings.
    const Addr vaddr = Addr{5} << pageShift(PageSize::FourKB);
    ASSERT_EQ(org.sliceOf(vaddr), 5u);
    auto token = std::make_shared<int>(0);
    for (CoreId core = 0; core < 16; ++core)
        if (core != 5)
            org.translate(core, 0, vaddr, 0,
                          [token](const core::TranslationResult &) {});
    system->queue().run(config.org.initiateLatency);
    EXPECT_GT(fabric.messagesSent.value(), 0.0);
    EXPECT_GT(fabric.setupFailures.value(), 0.0);
    EXPECT_EQ(fabric.freeMessages(), 0u);
    EXPECT_EQ(token.use_count(), 16);

    system.reset();
    EXPECT_EQ(token.use_count(), 1);
}
