/**
 * @file
 * Sharded-engine tests: deterministic mailbox merging, the exact
 * first-busy-cycle probe, the window crew, and the headline guarantee
 * -- the window engine's results are byte-identical at every shard
 * count, on every organization, with faults, storms, SMT and epoch
 * snapshots in play.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cpu/system.hh"
#include "sim/fault.hh"
#include "sim/parallel.hh"
#include "sim/shard.hh"

using namespace nocstar;
using namespace nocstar::cpu;

// --------------------------------------------------------------------
// ShardMailboxes: deterministic merge order.

namespace
{

struct Rec
{
    Cycle cycle;
    unsigned thread;
    int payload;
};

} // namespace

TEST(ShardMailboxes, MergesByKeyThenShardThenSeq)
{
    sim::ShardMailboxes<Rec> boxes(3);
    EXPECT_TRUE(boxes.empty());

    // Lane 2 first, lane 0 last: arrival order across lanes must not
    // matter, only (key, shard, seq).
    boxes.post(2, Rec{5, 7, 1});
    boxes.post(2, Rec{5, 7, 2}); // same key, same lane: seq breaks tie
    boxes.post(1, Rec{5, 7, 3}); // same key, smaller lane: wins both
    boxes.post(0, Rec{9, 0, 4});
    boxes.post(1, Rec{2, 9, 5}); // earliest cycle: first overall
    EXPECT_FALSE(boxes.empty());

    std::vector<Rec> merged = boxes.drain([](const Rec &r) {
        return std::make_tuple(r.cycle, r.thread);
    });
    ASSERT_EQ(merged.size(), 5u);
    EXPECT_EQ(merged[0].payload, 5);
    EXPECT_EQ(merged[1].payload, 3);
    EXPECT_EQ(merged[2].payload, 1);
    EXPECT_EQ(merged[3].payload, 2);
    EXPECT_EQ(merged[4].payload, 4);
    EXPECT_TRUE(boxes.empty()); // drain clears the lanes
}

TEST(ShardMailboxes, KeyOrderIsIndependentOfLanePlacement)
{
    // The same records, partitioned across lanes two different ways,
    // drain in the same key order -- the property the engine's replay
    // determinism rests on (lane assignment changes with the shard
    // count; the canonical (cycle, thread) key does not).
    auto key = [](const Rec &r) {
        return std::make_tuple(r.cycle, r.thread);
    };
    std::vector<Rec> records = {{4, 1, 10}, {4, 2, 11}, {3, 9, 12},
                                {8, 0, 13}, {3, 4, 14}, {6, 6, 15}};

    sim::ShardMailboxes<Rec> two(2);
    for (std::size_t i = 0; i < records.size(); ++i)
        two.post(i % 2, records[i]);
    sim::ShardMailboxes<Rec> four(4);
    for (std::size_t i = 0; i < records.size(); ++i)
        four.post(i % 4, records[i]);

    std::vector<Rec> a = two.drain(key);
    std::vector<Rec> b = four.drain(key);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cycle, b[i].cycle) << "at " << i;
        EXPECT_EQ(a[i].thread, b[i].thread) << "at " << i;
        EXPECT_EQ(a[i].payload, b[i].payload) << "at " << i;
    }
}

// --------------------------------------------------------------------
// EventQueue::firstBusyCycle: the exact quiescence probe.

namespace
{

class NopEvent : public Event
{
  public:
    using Event::Event;
    void process() override {}
};

} // namespace

TEST(FirstBusyCycle, QuietWindowReportsInvalid)
{
    EventQueue queue;
    EXPECT_EQ(queue.firstBusyCycle(1000), invalidCycle);

    NopEvent ev;
    queue.schedule(&ev, 500);
    // The event sits past the probed window: still quiet.
    EXPECT_EQ(queue.firstBusyCycle(499), invalidCycle);
    queue.deschedule(&ev);
}

TEST(FirstBusyCycle, ReportsTheCycleThatBrokeQuiescence)
{
    EventQueue queue;
    NopEvent ev;
    queue.schedule(&ev, 321);
    EXPECT_EQ(queue.firstBusyCycle(321), 321u);
    EXPECT_EQ(queue.firstBusyCycle(100000), 321u);
    queue.deschedule(&ev);
}

TEST(FirstBusyCycle, StaleRecordsStillCount)
{
    // A descheduled event leaves a stale wheel record; the probe must
    // report it (conservative for the shard-local hit streaks, exact
    // for the wheel's occupancy).
    EventQueue queue;
    NopEvent ev;
    queue.schedule(&ev, 77);
    queue.deschedule(&ev);
    EXPECT_EQ(queue.firstBusyCycle(200), 77u);
}

TEST(FirstBusyCycle, ExactBeyondTheWheelHorizon)
{
    // Windows leaving the 4096-cycle wheel horizon stay exact because
    // the overflow heap's head bounds everything beyond the wheel.
    EventQueue queue;
    NopEvent far;
    queue.schedule(&far, 100000); // overflow heap
    EXPECT_EQ(queue.firstBusyCycle(50000), invalidCycle);
    EXPECT_EQ(queue.firstBusyCycle(100000), 100000u);
    queue.deschedule(&far);
}

// --------------------------------------------------------------------
// ShardCrew: every shard runs exactly once per window, and writes made
// inside a window are visible to the caller after it.

namespace
{

void
exerciseCrew(bool parallel)
{
    constexpr unsigned shards = 4;
    constexpr unsigned windows = 200;
    sim::ShardCrew crew(shards, parallel);
    ASSERT_EQ(crew.shards(), shards);

    std::vector<std::uint64_t> perShard(shards, 0);
    std::uint64_t expected = 0;
    for (unsigned w = 0; w < windows; ++w) {
        crew.runWindow([&](unsigned shard) {
            perShard[shard] += shard + 1; // shard-owned slot, no races
        });
        // Between windows only this thread runs; the barrier published
        // the workers' writes.
        expected += 1;
        for (unsigned s = 0; s < shards; ++s)
            ASSERT_EQ(perShard[s], expected * (s + 1))
                << "window " << w << " shard " << s;
    }
}

} // namespace

TEST(ShardCrew, SerialModeRunsEveryShardOnTheCaller)
{
    exerciseCrew(false);
}

TEST(ShardCrew, ParallelModeBarriersEveryWindow)
{
    exerciseCrew(true);
}

TEST(ShardCrew, ParkHookReportsBalancedParkWakePairs)
{
    // The observability hook fires on the worker thread at every
    // condvar park and wake; after the crew is destroyed, every park
    // must have a matching wake (the destructor wakes sleepers before
    // joining), and only worker shards (never shard 0) report.
    std::mutex mutex;
    std::vector<std::pair<unsigned, bool>> events;
    {
        sim::ShardCrew crew(
            2, /*parallel=*/true, [&](unsigned shard, bool parked) {
                std::lock_guard<std::mutex> lock(mutex);
                events.emplace_back(shard, parked);
            });
        std::atomic<unsigned> hits{0};
        crew.runWindow([&](unsigned) { hits.fetch_add(1); });
        EXPECT_EQ(hits.load(), 2u);
        // Idle long enough for the worker to fall through its
        // spin-then-yield phases onto the condvar.
        for (int i = 0; i < 5000; ++i) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (!events.empty() && events.back().second)
                    break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        // The next window must wake it again.
        crew.runWindow([&](unsigned) {});
    }
    ASSERT_FALSE(events.empty()) << "worker never parked";
    bool parked = false; // per-shard state; only shard 1 reports here
    for (const auto &[shard, park] : events) {
        EXPECT_EQ(shard, 1u);
        EXPECT_NE(park, parked) << "park/wake must alternate";
        parked = park;
    }
    EXPECT_FALSE(parked) << "crew destroyed with a worker parked";
}

// --------------------------------------------------------------------
// The headline guarantee: byte-identical results at every shard count.

namespace
{

SystemConfig
smallConfig(core::OrgKind kind, unsigned cores = 8)
{
    SystemConfig config;
    config.org.kind = kind;
    config.org.numCores = cores;
    AppConfig app;
    app.spec = workload::testWorkload();
    app.threads = cores;
    config.apps.push_back(std::move(app));
    config.seed = 7;
    return config;
}

void
expectIdentical(const RunResult &a, const RunResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_DOUBLE_EQ(a.meanCycles, b.meanCycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.appCycles, b.appCycles) << what;
    EXPECT_EQ(a.appIpc, b.appIpc) << what;
    EXPECT_EQ(a.l1Accesses, b.l1Accesses) << what;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << what;
    EXPECT_EQ(a.l2Accesses, b.l2Accesses) << what;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << what;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << what;
    EXPECT_EQ(a.walks, b.walks) << what;
    EXPECT_DOUBLE_EQ(a.avgL2AccessLatency, b.avgL2AccessLatency)
        << what;
    EXPECT_DOUBLE_EQ(a.avgWalkLatency, b.avgWalkLatency) << what;
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj) << what;
    EXPECT_DOUBLE_EQ(a.beyondL2Fraction, b.beyondL2Fraction) << what;
    EXPECT_DOUBLE_EQ(a.fabricAvgLatency, b.fabricAvgLatency) << what;
    EXPECT_EQ(a.faultsInjected, b.faultsInjected) << what;
    EXPECT_EQ(a.degradedMessages, b.degradedMessages) << what;
    EXPECT_EQ(a.eccRewalks, b.eccRewalks) << what;
    EXPECT_EQ(a.shootdowns, b.shootdowns) << what;
    EXPECT_DOUBLE_EQ(a.avgShootdownLatency, b.avgShootdownLatency)
        << what;
    EXPECT_EQ(a.concurrencyBuckets, b.concurrencyBuckets) << what;
    EXPECT_EQ(a.sliceConcurrencyBuckets, b.sliceConcurrencyBuckets)
        << what;
}

void
expectShardCountInvariant(const SystemConfig &base,
                          std::uint64_t accesses,
                          const std::string &what)
{
    SystemConfig one = base;
    one.shards = 1;
    RunResult baseline = System(one).run(accesses);
    for (unsigned shards : {2u, 4u}) {
        SystemConfig cfg = base;
        cfg.shards = shards;
        RunResult r = System(cfg).run(accesses);
        expectIdentical(baseline, r,
                        what + " shards=" + std::to_string(shards));
    }
}

} // namespace

class ShardIdentityTest : public ::testing::TestWithParam<core::OrgKind>
{};

TEST_P(ShardIdentityTest, RunResultInvariantAcrossShardCounts)
{
    expectShardCountInvariant(smallConfig(GetParam()), 2000,
                              core::orgKindName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllOrgs, ShardIdentityTest,
    ::testing::Values(core::OrgKind::Private,
                      core::OrgKind::MonolithicMesh,
                      core::OrgKind::MonolithicSmart,
                      core::OrgKind::Distributed,
                      core::OrgKind::IdealShared,
                      core::OrgKind::Nocstar,
                      core::OrgKind::NocstarIdeal));

TEST(ShardIdentity, WithFaultPlanStormAndContextSwitches)
{
    // Every cross-shard interaction at once: fabric outages + ECC
    // rewalks (uncore fault machinery), storm shootdowns and context
    // switches (chip-wide flushes poking every shard's L1 state).
    SystemConfig config = smallConfig(core::OrgKind::Nocstar, 16);
    std::istringstream plan("link 5 E 0 permanent\n"
                            "grant-loss 0.01\n"
                            "slice-ecc 0.002\n"
                            "walk-ecc 0.002\n"
                            "seed 7\n");
    config.org.faults = sim::FaultPlan::parse(plan, "test");
    config.contextSwitchInterval = 20000;
    config.stormRemapInterval = 3000;
    expectShardCountInvariant(config, 2500, "faults+storm");
}

TEST(ShardIdentity, WithSmtThreadsSharingCores)
{
    // SMT threads of one core must land in one shard (their same-cycle
    // ordering is a per-queue property); 3 shards over 8 cores also
    // exercises uneven contiguous partitions.
    SystemConfig config = smallConfig(core::OrgKind::Distributed);
    config.smtPerCore = 2;
    config.apps[0].threads = 16;
    SystemConfig one = config;
    one.shards = 1;
    RunResult baseline = System(one).run(1500);
    for (unsigned shards : {3u, 8u}) {
        SystemConfig cfg = config;
        cfg.shards = shards;
        RunResult r = System(cfg).run(1500);
        expectIdentical(baseline, r,
                        "smt shards=" + std::to_string(shards));
    }
}

TEST(ShardIdentity, EpochStatsJsonIsByteIdentical)
{
    // The whole machine-readable stats document -- every epoch
    // snapshot and the final tree -- must match byte for byte, which
    // pins down every Scalar in the tree, not just the RunResult
    // aggregates.
    auto document = [](unsigned shards) {
        SystemConfig config;
        config.org.kind = core::OrgKind::Nocstar;
        config.org.numCores = 8;
        AppConfig app;
        app.spec = workload::testWorkload();
        app.threads = 8;
        config.apps.push_back(std::move(app));
        config.seed = 7;
        config.shards = shards;
        config.statsEpochInterval = 5000;
        System system(config);
        system.run(2000);
        std::ostringstream os;
        system.dumpStatsJson(os);
        return os.str();
    };
    std::string one = document(1);
    EXPECT_EQ(one, document(2));
    EXPECT_EQ(one, document(4));
    EXPECT_NE(one.find("\"epochs\":[{"), std::string::npos)
        << "epoch snapshots were expected in the document";
}

TEST(ShardIdentity, LatencyHistogramsAreByteIdenticalAcrossShards)
{
    // The latency histograms record through two different paths under
    // the window engine (miss classes at replay, hit zeros folded per
    // window from lane counters), so pin the full stats document --
    // which embeds every histogram's buckets and percentiles -- across
    // shard counts, per-context split included.
    auto document = [](unsigned shards) {
        SystemConfig config = smallConfig(core::OrgKind::Nocstar);
        config.shards = shards;
        config.latencyStats = true;
        config.latencyPerContext = true;
        System system(config);
        system.run(2000);
        std::ostringstream os;
        system.dumpStatsJson(os);
        return os.str();
    };
    std::string one = document(1);
    EXPECT_EQ(one, document(2));
    EXPECT_EQ(one, document(4));
    EXPECT_NE(one.find("\"latency\":{"), std::string::npos)
        << "latency histograms were expected in the document";
    EXPECT_NE(one.find("\"ctx\":{"), std::string::npos)
        << "per-context histograms were expected in the document";
}

TEST(ShardIdentity, LatencyStatsOffLeavesDocumentUnchanged)
{
    // With the knob off, the stats document must be byte-identical to
    // one from a system that never had the feature: the latency group
    // is created lazily, so its absence is the whole guarantee.
    auto document = [](bool lat) {
        SystemConfig config = smallConfig(core::OrgKind::Nocstar);
        config.latencyStats = lat;
        System system(config);
        system.run(1000);
        std::ostringstream os;
        system.dumpStatsJson(os);
        return os.str();
    };
    std::string off = document(false);
    EXPECT_EQ(off.find("\"latency\""), std::string::npos);
    EXPECT_NE(off, document(true));
}

TEST(ShardConfig, ValidationRejectsBadShardCounts)
{
    SystemConfig config = smallConfig(core::OrgKind::Private, 4);
    config.shards = 5; // > tile count
    EXPECT_FALSE(config.validate().empty());

    config.shards = 4;
    EXPECT_TRUE(config.validate().empty());

    // Trace capture consumes addresses inside parallel windows: only
    // the legacy engine may capture.
    config.captureTracePath = "/tmp/capture.trace";
    EXPECT_FALSE(config.validate().empty());
    config.shards = 0;
    EXPECT_TRUE(config.validate().empty());
}

// --------------------------------------------------------------------
// Uncore sharding (the parallel pre-probe phase): the deferred-miss
// drain order, eligibility gating, and identity on workloads where the
// uncore dominates.

namespace
{

/**
 * A workload whose hot set blows out the 64-entry L1 arrays: most
 * accesses defer to the window boundary and replay through the
 * organization, so the parallel pre-probe phase carries real load.
 */
workload::WorkloadSpec
missHeavySpec()
{
    workload::WorkloadSpec spec = workload::testWorkload();
    spec.hotPages = 2048;
    spec.warmFraction = 0.2;
    spec.coldFraction = 0.01;
    return spec;
}

} // namespace

TEST(ShardMailboxes, DrainsByCycleSourceSeq)
{
    // The uncore drain order the engine relies on: primary key the
    // record's cycle, then the posting shard (the "source"), then the
    // intra-lane sequence. Same-cycle records from different shards
    // must interleave by shard index, not arrival time.
    sim::ShardMailboxes<Rec> boxes(3);
    boxes.post(2, Rec{7, 0, 1}); // cycle 7 from shard 2, posted first
    boxes.post(0, Rec{7, 0, 2}); // cycle 7 from shard 0: drains first
    boxes.post(1, Rec{7, 0, 3});
    boxes.post(1, Rec{7, 0, 4}); // same shard: seq order preserved
    boxes.post(0, Rec{6, 0, 5}); // earlier cycle beats every shard

    std::vector<Rec> merged =
        boxes.drain([](const Rec &r) { return r.cycle; });
    ASSERT_EQ(merged.size(), 5u);
    EXPECT_EQ(merged[0].payload, 5);
    EXPECT_EQ(merged[1].payload, 2);
    EXPECT_EQ(merged[2].payload, 3);
    EXPECT_EQ(merged[3].payload, 4);
    EXPECT_EQ(merged[4].payload, 1);
}

TEST(ShardIdentity, MissHeavyInvariantAcrossOrgsAndShardCounts)
{
    // The headline bar for uncore sharding: on a workload where nearly
    // every access replays through the organization (so the pre-probe
    // phase handles the bulk of the home-array lookups), every shard
    // count must produce the same bytes.
    for (core::OrgKind kind :
         {core::OrgKind::Private, core::OrgKind::MonolithicMesh,
          core::OrgKind::Distributed, core::OrgKind::Nocstar}) {
        SystemConfig config = smallConfig(kind);
        config.apps[0].spec = missHeavySpec();
        expectShardCountInvariant(
            config, 1500,
            std::string(core::orgKindName(kind)) + " miss-heavy");
    }
}

TEST(ShardIdentity, PrivateOrgMatchesLegacyEngine)
{
    // Where the window engine provably agrees with the legacy
    // single-queue engine: organizations with no same-cycle
    // cross-thread contention point. Private L2s have per-core arrays,
    // ports and walkers, so the engines' different same-cycle service
    // orders (legacy: event insertion order; windowed: canonical
    // (cycle, thread)) act on disjoint state and the results coincide
    // -- even miss-heavy. Shared-structure organizations diverge from
    // legacy by design (bank-port and fabric-arbitration service
    // order); see DESIGN.md "canonical service order vs the legacy
    // engine".
    SystemConfig config = smallConfig(core::OrgKind::Private);
    config.apps[0].spec = missHeavySpec();
    SystemConfig legacy = config;
    legacy.shards = 0;
    RunResult baseline = System(legacy).run(1500);
    for (unsigned shards : {1u, 2u, 4u}) {
        SystemConfig cfg = config;
        cfg.shards = shards;
        RunResult r = System(cfg).run(1500);
        expectIdentical(baseline, r,
                        "private legacy vs shards=" +
                            std::to_string(shards));
    }
}

TEST(ShardIdentity, SliceEccPlanDisablesPreProbeButStaysInvariant)
{
    // A slice-ECC probability makes hit outcomes depend on a global
    // draw stream consumed in probe order, so the engine must fall
    // back to live replay-time probes -- and still be shard-count
    // invariant.
    SystemConfig config = smallConfig(core::OrgKind::Nocstar);
    config.apps[0].spec = missHeavySpec();
    std::istringstream plan("slice-ecc 0.01\nseed 11\n");
    config.org.faults = sim::FaultPlan::parse(plan, "test");
    expectShardCountInvariant(config, 1500, "slice-ecc fallback");
}

TEST(ShardIdentity, MissHeavyWithStormAndSmt)
{
    // Storm shootdowns + context switches mutate home arrays from
    // main-queue events while SMT threads share cores: the pre-probe
    // eligibility rules (window-interior, already-probed misses only)
    // must hold the identity gate under all of it.
    SystemConfig config = smallConfig(core::OrgKind::Distributed);
    config.apps[0].spec = missHeavySpec();
    config.smtPerCore = 2;
    config.apps[0].threads = 16;
    config.contextSwitchInterval = 20000;
    config.stormRemapInterval = 3000;
    SystemConfig one = config;
    one.shards = 1;
    RunResult baseline = System(one).run(1200);
    for (unsigned shards : {3u, 4u}) {
        SystemConfig cfg = config;
        cfg.shards = shards;
        RunResult r = System(cfg).run(1200);
        expectIdentical(baseline, r,
                        "storm+smt shards=1 vs shards=" +
                            std::to_string(shards));
    }
}

TEST(ShardTiming, WindowLoopCountersAccumulate)
{
    SystemConfig config = smallConfig(core::OrgKind::Nocstar);
    config.apps[0].spec = missHeavySpec();
    config.shards = 4;
    System system(config);
    system.run(1500);
    const System::ShardTiming &t = system.shardTiming();
    EXPECT_GT(t.windows, 0u);
    EXPECT_GT(t.deferredMisses, 0u);
    // Miss-heavy without a fault plan: most deferred misses are
    // eligible for the parallel pre-probe.
    EXPECT_GT(t.preProbes, 0u);
    EXPECT_LE(t.preProbes, t.deferredMisses);
    EXPECT_GT(t.uncoreNanos, 0u);
}

TEST(ShardTiming, EccPlanDisablesPreProbes)
{
    SystemConfig config = smallConfig(core::OrgKind::Nocstar);
    config.apps[0].spec = missHeavySpec();
    config.shards = 2;
    std::istringstream plan("slice-ecc 0.01\nseed 11\n");
    config.org.faults = sim::FaultPlan::parse(plan, "test");
    System system(config);
    system.run(1000);
    EXPECT_EQ(system.shardTiming().preProbes, 0u);
    EXPECT_GT(system.shardTiming().deferredMisses, 0u);
}

TEST(ShardCrew, ParksIdleWorkersAndWakesForTheNextWindow)
{
    // Long gaps between windows must not wedge the crew: workers fall
    // back from spinning to a condvar park, and the next runWindow()
    // (and the destructor) must wake them reliably.
    sim::ShardCrew crew(3, true);
    std::vector<std::uint64_t> ran(3, 0);
    auto window = [&](unsigned shard) { ++ran[shard]; };
    crew.runWindow(window);
    // Far beyond the spin + yield budget: workers are parked by now.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    crew.runWindow(window);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    crew.runWindow(window);
    for (unsigned s = 0; s < 3; ++s)
        EXPECT_EQ(ran[s], 3u) << "shard " << s;
}

TEST(AutoShards, DeterministicFromTilesAndBudget)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    // Never exceeds the tile count or the per-job hardware budget,
    // never below 1.
    EXPECT_EQ(sim::autoShards(1), 1u);
    EXPECT_LE(sim::autoShards(64), std::max(1u, hw));
    EXPECT_LE(sim::autoShards(64, 2), std::max(1u, hw / 2));
    EXPECT_GE(sim::autoShards(64, 1000000), 1u);
    EXPECT_EQ(sim::autoShards(1000000), std::max(1u, hw));
    // Deterministic on a fixed host.
    EXPECT_EQ(sim::autoShards(64, 2), sim::autoShards(64, 2));
}
