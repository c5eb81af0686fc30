/**
 * @file
 * Shard-scaling benchmark: wall-clock speedup of the window engine
 * (SystemConfig::shards) on one large simulation, plus a built-in
 * identity check.
 *
 * Two 64-tile configurations bracket the engine's regimes:
 *
 *  - hit-heavy (private org): nearly every access is an inline L1 hit
 *    inside a shard's window, so phase A -- parallel per-shard step
 *    execution -- dominates. Run at 1, 2 and 4 shards.
 *  - miss-heavy (NOCSTAR org): the hot set blows out the L1 arrays, so
 *    most accesses defer to the window boundary and the run is
 *    dominated by the uncore. This is the regime the parallel
 *    pre-probe phase (phase B1, see DESIGN.md "sharding the uncore")
 *    targets. Run at 1 and 4 shards.
 *
 * stdout is a deterministic table of simulation results per shard
 * count, so diffing it across hosts or shard counts proves exactness;
 * the process exits non-zero if any field differs. Wall-clock numbers
 * and the phase split (phase A / pre-probe / barrier / drain / serial
 * uncore, from System::shardTiming()) go to stderr and to the
 * machine-readable BENCH_shard.json used by the CI perf gate, making
 * the remaining Amdahl headroom visible run-over-run.
 *
 * The speedup is a hardware property: with fewer free CPUs than
 * shards the crew falls back to serial windows (same results, no
 * speedup), so BENCH_shard.json records host_cores and the CI gate
 * conditions its speedup assertions on it.
 *
 * Usage: bench_shard_scaling [ACCESSES] [--tiles N]
 *        [--baseline-json FILE]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/build_info.hh"

#include "bench_common.hh"
#include "sim/program_main.hh"

using namespace nocstar;
using namespace nocstar::bench;

namespace
{

/**
 * Hit-heavy variant of the test workload: the hot set stays resident
 * in the 64-entry L1 arrays and bursts are short, so nearly every
 * access is an inline L1 hit inside a shard's window.
 */
workload::WorkloadSpec
hitHeavySpec()
{
    workload::WorkloadSpec spec = workload::testWorkload();
    spec.name = "hit-heavy";
    spec.hotPages = 40;
    spec.warmFraction = 0.02;
    spec.coldFraction = 0.0005;
    spec.instructionsPerAccess = 1.0;
    spec.baseCpi = 0.5;
    spec.dataStallPerAccess = 0.5;
    return spec;
}

/**
 * Miss-heavy variant: a hot set far beyond the L1 arrays (but mostly
 * L2-resident) plus a cold tail that walks, so the bulk of every
 * window's work is deferred misses replayed through the uncore.
 */
workload::WorkloadSpec
missHeavySpec()
{
    workload::WorkloadSpec spec = workload::testWorkload();
    spec.name = "miss-heavy";
    spec.hotPages = 4096;
    spec.warmFraction = 0.2;
    spec.coldFraction = 0.01;
    spec.instructionsPerAccess = 1.0;
    spec.baseCpi = 0.5;
    spec.dataStallPerAccess = 0.5;
    return spec;
}

struct Measurement
{
    unsigned shards;
    cpu::RunResult result;
    double wallSeconds = 0;
    cpu::System::ShardTiming timing;
};

Measurement
measure(core::OrgKind kind, const workload::WorkloadSpec &spec,
        unsigned shards, unsigned tiles, std::uint64_t accesses)
{
    cpu::SystemConfig config = makeConfig(kind, tiles, spec);
    config.shards = shards;
    if (std::vector<std::string> errors = config.validate();
        !errors.empty()) {
        for (const std::string &e : errors)
            std::fprintf(stderr, "invalid config: %s\n", e.c_str());
        std::exit(2);
    }

    // Untimed warmup absorbs first-touch page-table allocation and
    // allocator/branch warmup.
    cpu::System(config).run(accesses / 4);

    cpu::System system(config);
    auto start = std::chrono::steady_clock::now();
    Measurement m{shards, system.run(accesses), 0, {}};
    m.wallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    m.timing = system.shardTiming();
    return m;
}

bool
identical(const cpu::RunResult &a, const cpu::RunResult &b)
{
    return a.cycles == b.cycles && a.meanCycles == b.meanCycles &&
           a.instructions == b.instructions &&
           a.l1Accesses == b.l1Accesses && a.l1Misses == b.l1Misses &&
           a.l2Accesses == b.l2Accesses && a.l2Hits == b.l2Hits &&
           a.l2Misses == b.l2Misses && a.walks == b.walks &&
           a.avgL2AccessLatency == b.avgL2AccessLatency &&
           a.avgWalkLatency == b.avgWalkLatency &&
           a.energyPj == b.energyPj &&
           a.shootdowns == b.shootdowns &&
           a.concurrencyBuckets == b.concurrencyBuckets;
}

void
printRow(const Measurement &m)
{
    std::printf("%-8u %12llu %12llu %12llu %10llu %16.3f\n", m.shards,
                static_cast<unsigned long long>(m.result.cycles),
                static_cast<unsigned long long>(m.result.l1Misses),
                static_cast<unsigned long long>(m.result.l2Misses),
                static_cast<unsigned long long>(m.result.walks),
                m.result.energyPj);
}

void
printPhaseSplit(const char *what, const Measurement &m)
{
    const cpu::System::ShardTiming &t = m.timing;
    std::fprintf(stderr,
                 "[shard] %s phase split (%u shards): %llu windows, "
                 "%llu deferred misses (%llu pre-probed); wall ms: "
                 "phase A %.1f, pre-probe %.1f, drain %.1f, uncore "
                 "%.1f, barrier wait %.1f\n",
                 what, m.shards,
                 static_cast<unsigned long long>(t.windows),
                 static_cast<unsigned long long>(t.deferredMisses),
                 static_cast<unsigned long long>(t.preProbes),
                 t.stepWallNanos / 1e6, t.probeWallNanos / 1e6,
                 t.drainNanos / 1e6, t.uncoreNanos / 1e6,
                 t.barrierNanos / 1e6);
}

double
loadBaselineSpeedup4(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read baseline json '%s'\n",
                     path.c_str());
        return 0;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    const std::string tag = "\"speedup_4\":";
    std::size_t at = text.find(tag);
    if (at == std::string::npos) {
        std::fprintf(stderr, "no speedup_4 in '%s'\n", path.c_str());
        return 0;
    }
    return std::strtod(text.c_str() + at + tag.size(), nullptr);
}

} // namespace

int
programMain(int argc, char **argv)
{
    BenchArgs args{50000, 0};
    unsigned tiles = 64;
    std::string baseline_path;
    ArgParser parser = makeBenchParser(
        argc, argv,
        "window-engine shard scaling: wall-clock speedup and "
        "byte-identity on hit-heavy (phase A bound) and miss-heavy "
        "(uncore bound) 64-tile runs",
        args);
    parser.option("tiles", &tiles, "tile count (default 64)");
    parser.option("baseline-json", &baseline_path,
                  "prior BENCH_shard.json to print the speedup-ratio "
                  "against");
    finalizeBenchArgs(parser, argc, argv, args);

    // The miss-heavy run replays most accesses through the serial-ish
    // uncore, so it gets a shorter quota for comparable wall time.
    std::uint64_t miss_accesses =
        std::max<std::uint64_t>(2000, args.accesses / 5);

    std::printf("Shard scaling identity "
                "(private org, %u tiles, hit-heavy workload)\n",
                tiles);
    std::printf("%-8s %12s %12s %12s %10s %16s\n", "shards", "cycles",
                "l1_misses", "l2_misses", "walks", "energy_pj");

    std::vector<Measurement> hit_runs;
    for (unsigned shards : {1u, 2u, 4u})
        hit_runs.push_back(measure(core::OrgKind::Private,
                                   hitHeavySpec(), shards, tiles,
                                   args.accesses));

    bool hit_identical = true;
    for (const Measurement &m : hit_runs) {
        printRow(m);
        hit_identical =
            hit_identical && identical(hit_runs[0].result, m.result);
    }

    std::printf("Shard scaling identity "
                "(nocstar org, %u tiles, miss-heavy workload)\n",
                tiles);
    std::printf("%-8s %12s %12s %12s %10s %16s\n", "shards", "cycles",
                "l1_misses", "l2_misses", "walks", "energy_pj");

    std::vector<Measurement> miss_runs;
    for (unsigned shards : {1u, 4u})
        miss_runs.push_back(measure(core::OrgKind::Nocstar,
                                    missHeavySpec(), shards, tiles,
                                    miss_accesses));

    bool miss_identical = true;
    for (const Measurement &m : miss_runs) {
        printRow(m);
        miss_identical =
            miss_identical && identical(miss_runs[0].result, m.result);
    }

    bool all_identical = hit_identical && miss_identical;
    std::printf("identical: %s\n", all_identical ? "yes" : "NO");

    unsigned host_cores = std::thread::hardware_concurrency();
    double speedup_2 = hit_runs[1].wallSeconds > 0
        ? hit_runs[0].wallSeconds / hit_runs[1].wallSeconds : 0;
    double speedup_4 = hit_runs[2].wallSeconds > 0
        ? hit_runs[0].wallSeconds / hit_runs[2].wallSeconds : 0;
    double speedup_miss_4 = miss_runs[1].wallSeconds > 0
        ? miss_runs[0].wallSeconds / miss_runs[1].wallSeconds : 0;
    std::fprintf(stderr,
                 "[shard] host_cores=%u hit-heavy wall 1/2/4 shards: "
                 "%.3fs / %.3fs / %.3fs -> speedup %.2fx / %.2fx\n",
                 host_cores, hit_runs[0].wallSeconds,
                 hit_runs[1].wallSeconds, hit_runs[2].wallSeconds,
                 speedup_2, speedup_4);
    std::fprintf(stderr,
                 "[shard] miss-heavy wall 1/4 shards: %.3fs / %.3fs "
                 "-> speedup %.2fx\n",
                 miss_runs[0].wallSeconds, miss_runs[1].wallSeconds,
                 speedup_miss_4);
    printPhaseSplit("hit-heavy", hit_runs[2]);
    printPhaseSplit("miss-heavy", miss_runs[1]);
    if (host_cores < 4)
        std::fprintf(stderr,
                     "[shard] note: %u hardware threads < 4 shards -- "
                     "the crew ran serial windows, speedups are not "
                     "meaningful on this host\n",
                     host_cores);

    if (!baseline_path.empty()) {
        double base = loadBaselineSpeedup4(baseline_path);
        if (base > 0)
            std::fprintf(stderr,
                         "[shard] baseline speedup_4 %.2fx -> ratio "
                         "%.2fx\n",
                         base, speedup_4 / base);
    }

    const cpu::System::ShardTiming &mt = miss_runs[1].timing;
    if (std::FILE *f = std::fopen("BENCH_shard.json", "w")) {
        std::fprintf(f,
                     "{\"bench\": \"shard\", \"tiles\": %u, "
                     "\"accesses_per_thread\": %llu, "
                     "\"miss_accesses_per_thread\": %llu, "
                     "\"identical\": %s, "
                     "\"host_cores\": %u, "
                     "\"wall_seconds_1\": %.6f, "
                     "\"wall_seconds_2\": %.6f, "
                     "\"wall_seconds_4\": %.6f, "
                     "\"speedup_2\": %.3f, "
                     "\"speedup_4\": %.3f, "
                     "\"wall_seconds_miss_1\": %.6f, "
                     "\"wall_seconds_miss_4\": %.6f, "
                     "\"speedup_miss_4\": %.3f, "
                     "\"miss_windows_4\": %llu, "
                     "\"miss_deferred_4\": %llu, "
                     "\"miss_pre_probes_4\": %llu, "
                     "\"miss_phase_a_wall_ns_4\": %llu, "
                     "\"miss_phase_a_busy_ns_4\": %llu, "
                     "\"miss_pre_probe_wall_ns_4\": %llu, "
                     "\"miss_pre_probe_busy_ns_4\": %llu, "
                     "\"miss_barrier_ns_4\": %llu, "
                     "\"miss_drain_ns_4\": %llu, "
                     "\"miss_uncore_ns_4\": %llu, "
                     "\"git_sha\": \"%s\", "
                     "\"compiler\": \"%s %s\", "
                     "\"build_type\": \"%s\"}\n",
                     tiles,
                     static_cast<unsigned long long>(args.accesses),
                     static_cast<unsigned long long>(miss_accesses),
                     all_identical ? "true" : "false", host_cores,
                     hit_runs[0].wallSeconds, hit_runs[1].wallSeconds,
                     hit_runs[2].wallSeconds, speedup_2, speedup_4,
                     miss_runs[0].wallSeconds, miss_runs[1].wallSeconds,
                     speedup_miss_4,
                     static_cast<unsigned long long>(mt.windows),
                     static_cast<unsigned long long>(mt.deferredMisses),
                     static_cast<unsigned long long>(mt.preProbes),
                     static_cast<unsigned long long>(mt.stepWallNanos),
                     static_cast<unsigned long long>(mt.stepBusyNanos),
                     static_cast<unsigned long long>(mt.probeWallNanos),
                     static_cast<unsigned long long>(mt.probeBusyNanos),
                     static_cast<unsigned long long>(mt.barrierNanos),
                     static_cast<unsigned long long>(mt.drainNanos),
                     static_cast<unsigned long long>(mt.uncoreNanos),
                     build::kGitSha, build::kCompilerId,
                     build::kCompilerVersion, build::kBuildType);
        std::fclose(f);
    } else {
        std::fprintf(stderr, "cannot write BENCH_shard.json\n");
    }

    return all_identical ? 0 : 1;
}
