/**
 * @file
 * Full-system tests: smoke runs of every organization, determinism,
 * SMT and multiprogramming, microbenchmark drivers, and the paper
 * bucketing helper.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cpu/system.hh"

using namespace nocstar;
using namespace nocstar::cpu;

namespace
{

SystemConfig
smallConfig(core::OrgKind kind, unsigned cores = 8)
{
    SystemConfig config;
    config.org.kind = kind;
    config.org.numCores = cores;
    {
        cpu::AppConfig app_config;
        app_config.spec = workload::testWorkload();
        app_config.threads = cores;
        config.apps.push_back(std::move(app_config));
    }
    config.seed = 7;
    return config;
}

} // namespace

class SystemSmokeTest
    : public ::testing::TestWithParam<core::OrgKind>
{};

TEST_P(SystemSmokeTest, RunsToCompletionWithSaneStats)
{
    System system(smallConfig(GetParam()));
    RunResult result = system.run(2000);

    EXPECT_GT(result.cycles, 0u);
    EXPECT_GE(static_cast<double>(result.cycles), result.meanCycles);
    EXPECT_EQ(result.l1Accesses, 8u * 2000u);
    EXPECT_EQ(result.l2Accesses, result.l1Misses);
    EXPECT_EQ(result.l2Hits + result.l2Misses, result.l2Accesses);
    EXPECT_EQ(result.walks, result.l2Misses);
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_GT(result.energyPj, 0.0);
    EXPECT_GE(result.avgL2AccessLatency, 9.0);
    // Bucket fractions sum to ~1.
    double sum = 0;
    for (double b : result.concurrencyBuckets)
        sum += b;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrgs, SystemSmokeTest,
    ::testing::Values(core::OrgKind::Private,
                      core::OrgKind::MonolithicMesh,
                      core::OrgKind::MonolithicSmart,
                      core::OrgKind::Distributed,
                      core::OrgKind::IdealShared,
                      core::OrgKind::Nocstar,
                      core::OrgKind::NocstarIdeal));

TEST(System, DeterministicAcrossRuns)
{
    RunResult a = System(smallConfig(core::OrgKind::Nocstar)).run(3000);
    RunResult b = System(smallConfig(core::OrgKind::Nocstar)).run(3000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
}

namespace
{

/** The setups of RunAheadMatchesOneEventPerAccess. */
SystemConfig
exactSetup(const std::string &setup, core::OrgKind kind)
{
    SystemConfig c = smallConfig(kind);
    if (setup == "switch_storm") {
        c.contextSwitchInterval = 5000;
        c.stormRemapInterval = 2000;
        c.stormMessagesPerOp = 4;
    } else if (setup == "epochs") {
        // Resetting snapshots make the RunResult counters cover the
        // last interval only, so an access counted on the wrong side
        // of a snapshot would show.
        c.statsEpochInterval = 1500;
        c.statsEpochReset = true;
    } else if (setup == "smt2") {
        c = smallConfig(kind, 4);
        c.apps[0].threads = 8;
        c.smtPerCore = 2;
    } else if (setup == "sampled") {
        c.sampling.windows = 4;
        c.sampling.detailAccesses = 600;
        c.sampling.ffAccesses = 1500;
        c.sampling.warmupAccesses = 500;
    }
    return c;
}

} // namespace

TEST(System, RunAheadMatchesOneEventPerAccess)
{
    // Goldens from the engine that dispatched one step event per
    // access (run(3000) of each setup), so running L1 hits ahead of
    // the clock must reproduce every cycle of it. The energy column
    // was captured with L1 probe energy already counted as an integer
    // (TranslationEnergyModel::addL1Lookup), so it is exact too.
    // fabricAvgLatency and concurrencyBuckets are the NOCSTAR outputs
    // a wrong same-cycle order on the fabric would move first.
    struct Golden
    {
        const char *setup;
        core::OrgKind kind;
        std::uint64_t cycles;
        double meanCycles;
        std::uint64_t instructions;
        double ipc;
        std::vector<Cycle> appCycles;
        std::uint64_t l1Accesses;
        std::uint64_t l1Misses;
        std::uint64_t l2Accesses;
        std::uint64_t l2Hits;
        std::uint64_t l2Misses;
        std::uint64_t walks;
        double avgL2AccessLatency;
        double avgWalkLatency;
        double energyPj;
        double fabricAvgLatency;
        std::uint64_t shootdowns;
        std::vector<double> concurrencyBuckets;
        double sampledIpcMean;
    };
    const Golden goldens[] = {
        {"plain", core::OrgKind::Private, 20408u, 18257.375, 72000u,
         3.5280282242257939, {20408u}, 24000u, 336u, 336u,
         104u, 232u, 232u, 163.22321428571428, 221.9094827586207,
         3856368.3162500043, 0, 0u,
         {0.053571428571428568, 0.73511904761904767,
          0.21130952380952381, 0, 0, 0, 0, 0, 0},
         0},
        {"plain", core::OrgKind::Nocstar, 17881u, 15502.875, 72000u,
         4.0266204350987085, {17881u}, 24000u, 336u, 336u,
         258u, 78u, 78u, 97.639880952380949, 365.65384615384613,
         2441517.8621223797, 2.0630630630630629, 0u,
         {0.17857142857142858, 0.75595238095238093,
          0.065476190476190479, 0, 0, 0, 0, 0, 0},
         0},
        {"switch_storm", core::OrgKind::Private, 29811u, 25057, 72000u,
         2.4152158599174802, {29811u}, 24000u, 1453u, 1453u,
         111u, 1342u, 1342u, 73.200275292498276, 68.427719821162441,
         5807222.0576563543, 0, 20u,
         {0.028905712319339298, 0.48520302821748107,
          0.48589125946317963, 0, 0, 0, 0, 0, 0},
         0},
        {"switch_storm", core::OrgKind::Nocstar, 30098u, 24531.75, 72000u,
         2.3921855272775598, {30098u}, 24000u, 1441u, 1441u,
         197u, 1244u, 1244u, 70.935461485079799, 67.143086816720256,
         5307609.5289587099, 2.3469441517386724, 24u,
         {0.034698126301179737, 0.45593337959750174,
          0.50936849410131857, 0, 0, 0, 0, 0, 0},
         0},
        {"epochs", core::OrgKind::Private, 20408u, 18257.375, 72000u,
         3.5280282242257939, {20408u}, 89u, 5u, 5u,
         2u, 3u, 3u, 113.8, 173,
         3856368.3162500043, 0, 0u,
         {1, 0, 0, 0, 0, 0, 0, 0, 0},
         0},
        {"epochs", core::OrgKind::Nocstar, 17881u, 15502.875, 72000u,
         4.0266204350987085, {17881u}, 313u, 9u, 9u,
         6u, 3u, 3u, 99.666666666666671, 172.66666666666666,
         2441517.8621223797, 2, 0u,
         {0.88888888888888884, 0.1111111111111111, 0, 0, 0, 0, 0, 0, 0},
         0},
        {"smt2", core::OrgKind::Private, 28387u, 21793.375, 72000u,
         2.5363722830873288, {28387u}, 24000u, 1876u, 1876u,
         1662u, 214u, 214u, 44.312899786780385, 233.13084112149534,
         3558341.6850781646, 0, 0u,
         {0.094882729211087424, 0.57089552238805974,
          0.33422174840085289, 0, 0, 0, 0, 0, 0},
         0},
        {"smt2", core::OrgKind::Nocstar, 27988u, 19499.25, 72000u,
         2.5725310847506075, {27988u}, 24000u, 1822u, 1822u,
         1704u, 118u, 118u, 35.553238199780459, 298.59322033898303,
         2714138.399296225, 2.1559945504087192, 0u,
         {0.14270032930845225, 0.67618002195389681,
          0.18111964873765093, 0, 0, 0, 0, 0, 0},
         0},
        {"sampled", core::OrgKind::Private, 37562u, 37086.375, 57600u,
         1.5334646717427187, {37562u}, 19200u, 248u, 248u,
         84u, 164u, 164u, 156.02822580645162, 220.82317073170731,
         3844818.0796874869, 0, 0u,
         {0.084677419354838704, 0.77016129032258063,
          0.14516129032258066, 0, 0, 0, 0, 0, 0},
         3.3813830554999802},
        {"sampled", core::OrgKind::Nocstar, 35983u, 35492.375, 57600u,
         1.6007559125142428, {35983u}, 19200u, 248u, 248u,
         183u, 65u, 65u, 97.048387096774192, 322.23076923076923,
         2791437.640327679, 2.0331950207468878, 0u,
         {0.27822580645161288, 0.67338709677419351,
          0.048387096774193547, 0, 0, 0, 0, 0, 0},
         3.7290815883670803},
    };
    for (const Golden &g : goldens) {
        RunResult r = System(exactSetup(g.setup, g.kind)).run(3000);
        std::string what = std::string(g.setup) + " " +
                           core::orgKindName(g.kind);
        EXPECT_EQ(r.cycles, g.cycles) << what;
        EXPECT_DOUBLE_EQ(r.meanCycles, g.meanCycles) << what;
        EXPECT_EQ(r.instructions, g.instructions) << what;
        EXPECT_DOUBLE_EQ(r.ipc, g.ipc) << what;
        EXPECT_EQ(r.appCycles, g.appCycles) << what;
        EXPECT_EQ(r.l1Accesses, g.l1Accesses) << what;
        EXPECT_EQ(r.l1Misses, g.l1Misses) << what;
        EXPECT_EQ(r.l2Accesses, g.l2Accesses) << what;
        EXPECT_EQ(r.l2Hits, g.l2Hits) << what;
        EXPECT_EQ(r.l2Misses, g.l2Misses) << what;
        EXPECT_EQ(r.walks, g.walks) << what;
        EXPECT_DOUBLE_EQ(r.avgL2AccessLatency, g.avgL2AccessLatency)
            << what;
        EXPECT_DOUBLE_EQ(r.avgWalkLatency, g.avgWalkLatency) << what;
        EXPECT_DOUBLE_EQ(r.energyPj, g.energyPj) << what;
        EXPECT_DOUBLE_EQ(r.fabricAvgLatency, g.fabricAvgLatency) << what;
        EXPECT_EQ(r.shootdowns, g.shootdowns) << what;
        ASSERT_EQ(r.concurrencyBuckets.size(),
                  g.concurrencyBuckets.size()) << what;
        for (std::size_t i = 0; i < g.concurrencyBuckets.size(); ++i)
            EXPECT_DOUBLE_EQ(r.concurrencyBuckets[i],
                             g.concurrencyBuckets[i]) << what << " " << i;
        EXPECT_DOUBLE_EQ(r.sampledIpcMean, g.sampledIpcMean) << what;
    }
}

TEST(System, RunAheadDispatchesOneEventPerMiss)
{
    // The work counter CI gates: every dispatched step samples
    // bypass_streak_length once. A dispatch issues a miss, runs hits
    // ahead up to the next one, or retires its thread; so dispatches
    // stay within two per L1 miss plus two per thread.
    SystemConfig config = smallConfig(core::OrgKind::Private);
    System system(config);
    RunResult r = system.run(3000);
    const std::uint64_t dispatches = system.bypassStreaks().numSamples();
    EXPECT_LE(dispatches, 2 * r.l1Misses + 2 * 8);
    EXPECT_LT(dispatches, r.l1Accesses / 10);
}

TEST(System, SeedChangesStreams)
{
    SystemConfig config = smallConfig(core::OrgKind::Private);
    RunResult a = System(config).run(3000);
    config.seed = 8;
    RunResult b = System(config).run(3000);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(System, SharedOrgEliminatesMisses)
{
    RunResult priv =
        System(smallConfig(core::OrgKind::Private)).run(6000);
    RunResult nocstar =
        System(smallConfig(core::OrgKind::Nocstar)).run(6000);
    EXPECT_EQ(priv.l1Misses, nocstar.l1Misses);
    EXPECT_LT(nocstar.l2Misses, priv.l2Misses);
}

TEST(System, IdealSharedBeatsDistributed)
{
    RunResult dist =
        System(smallConfig(core::OrgKind::Distributed)).run(6000);
    RunResult ideal =
        System(smallConfig(core::OrgKind::IdealShared)).run(6000);
    EXPECT_LT(ideal.meanCycles, dist.meanCycles);
}

TEST(System, NocstarReportsFabricStats)
{
    RunResult r = System(smallConfig(core::OrgKind::Nocstar)).run(4000);
    EXPECT_GT(r.fabricAvgLatency, 1.0);
    EXPECT_LT(r.fabricAvgLatency, 6.0);
    EXPECT_GT(r.fabricNoContention, 0.5);
    RunResult p = System(smallConfig(core::OrgKind::Private)).run(1000);
    EXPECT_EQ(p.fabricAvgLatency, 0.0);
}

TEST(System, SmtMultipliesThreads)
{
    SystemConfig config = smallConfig(core::OrgKind::Private, 4);
    config.apps[0].threads = 8; // 2 threads per core
    config.smtPerCore = 2;
    System system(config);
    RunResult r = system.run(1000);
    EXPECT_EQ(r.l1Accesses, 8000u);
}

TEST(System, TooManyThreadsIsFatal)
{
    SystemConfig config = smallConfig(core::OrgKind::Private, 4);
    config.apps[0].threads = 8;
    config.smtPerCore = 1;
    EXPECT_THROW(System system(config), FatalError);
}

TEST(System, MultiprogrammedAppsTrackSeparateIpc)
{
    SystemConfig config;
    config.org.kind = core::OrgKind::Nocstar;
    config.org.numCores = 8;
    {
        cpu::AppConfig app_config;
        app_config.spec = workload::testWorkload();
        app_config.threads = 4;
        config.apps.push_back(std::move(app_config));
    }
    auto second = workload::testWorkload();
    second.warmFraction = 0.3;
    {
        cpu::AppConfig app_config;
        app_config.spec = second;
        app_config.threads = 4;
        config.apps.push_back(std::move(app_config));
    }
    config.seed = 3;
    System system(config);
    RunResult r = system.run(2000);
    ASSERT_EQ(r.appCycles.size(), 2u);
    ASSERT_EQ(r.appIpc.size(), 2u);
    EXPECT_GT(r.appIpc[0], 0.0);
    EXPECT_GT(r.appIpc[1], 0.0);
}

TEST(System, HotspotSliceConcentratesTraffic)
{
    SystemConfig config = smallConfig(core::OrgKind::Nocstar);
    config.hotspotSlice = 3;
    System system(config);
    RunResult r = system.run(2000);
    // Per-slice concurrency must pile up relative to the spread case.
    RunResult spread =
        System(smallConfig(core::OrgKind::Nocstar)).run(2000);
    EXPECT_GT(r.sliceConcurrencyBuckets.back() +
                  r.sliceConcurrencyBuckets[1],
              spread.sliceConcurrencyBuckets.back() +
                  spread.sliceConcurrencyBuckets[1] - 1e-9);
    EXPECT_GT(r.meanCycles, spread.meanCycles);
}

TEST(System, ContextSwitchFlushCausesMisses)
{
    SystemConfig base = smallConfig(core::OrgKind::Nocstar);
    RunResult quiet = System(base).run(4000);
    base.contextSwitchInterval = 3000;
    RunResult flushed = System(base).run(4000);
    EXPECT_GT(flushed.l2Misses, quiet.l2Misses);
    EXPECT_GT(flushed.meanCycles, quiet.meanCycles);
}

TEST(System, StormDriverIssuesShootdowns)
{
    SystemConfig config = smallConfig(core::OrgKind::Nocstar);
    config.stormRemapInterval = 2000;
    config.stormMessagesPerOp = 4;
    System system(config);
    RunResult r = system.run(4000);
    EXPECT_GT(r.shootdowns, 0u);
    EXPECT_GT(r.avgShootdownLatency, 0.0);
}

TEST(System, PaperBucketsBinning)
{
    stats::StatGroup g("g");
    stats::Distribution d(&g, "d", "conc", 1, 513, 1);
    d.sample(1, 40); // bucket "1"
    d.sample(3, 30); // bucket "2-4"
    d.sample(7, 20); // bucket "5-8"
    d.sample(29, 5); // bucket "29+"
    d.sample(600, 5); // overflow -> "29+"
    auto bins = System::paperBuckets(d);
    ASSERT_EQ(bins.size(), 9u);
    EXPECT_NEAR(bins[0], 0.40, 1e-9);
    EXPECT_NEAR(bins[1], 0.30, 1e-9);
    EXPECT_NEAR(bins[2], 0.20, 1e-9);
    EXPECT_NEAR(bins[8], 0.10, 1e-9);
}

TEST(System, NoAppsIsFatal)
{
    SystemConfig config;
    config.org.numCores = 4;
    EXPECT_THROW(System system(config), FatalError);
}

TEST(System, SuperpagesReduceL1Misses)
{
    SystemConfig on = smallConfig(core::OrgKind::Private);
    SystemConfig off = smallConfig(core::OrgKind::Private);
    off.superpages = false;
    RunResult with_sp = System(on).run(4000);
    RunResult without_sp = System(off).run(4000);
    EXPECT_LT(with_sp.l1Misses, without_sp.l1Misses);
}

TEST(System, LatencyStatsOffLeavesDocumentUnchanged)
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
