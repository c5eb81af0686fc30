/**
 * @file
 * Fig 16: (left) NOCSTAR link acquisition modes -- one round-trip
 * acquisition versus two one-way acquisitions -- across core counts;
 * (right) TLB invalidation relay policies (leader groups of 4 / 8 /
 * all cores) versus each core sending its own invalidation, under a
 * shootdown-heavy run.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "sim/program_main.hh"

using namespace nocstar;

namespace
{

const char *focusWorkloads[] = {"canneal", "graph500", "gups",
                                "xsbench"};

} // namespace

int
programMain(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 8000,
        "Fig 16: path-setup frequency and invalidation overheads");
    std::uint64_t base_accesses = args.accesses;

    std::printf("Fig 16 (left): speedup vs private; 1x two-way vs 2x "
                "one-way link acquisition\n");
    std::printf("%8s %-12s %10s %10s\n", "cores", "workload",
                "2x1-way", "1x2-way");
    for (unsigned cores : {16u, 32u, 64u}) {
        std::uint64_t accesses = base_accesses * 16 / cores + 2000;
        for (const char *name : focusWorkloads) {
            const auto &spec = workload::findWorkload(name);
            auto priv = bench::runOnce(
                bench::makeConfig(core::OrgKind::Private, cores, spec),
                accesses);
            auto one_way = bench::runOnce(
                bench::makeConfig(core::OrgKind::Nocstar, cores, spec),
                accesses);
            auto round_trip_config =
                bench::makeConfig(core::OrgKind::Nocstar, cores, spec);
            round_trip_config.org.pathAcquire =
                core::PathAcquire::RoundTrip;
            auto round_trip = bench::runOnce(round_trip_config,
                                             accesses);
            std::printf("%8u %-12s %10.3f %10.3f\n", cores, name,
                        bench::speedupVsPrivate(priv, one_way),
                        bench::speedupVsPrivate(priv, round_trip));
        }
    }

    std::printf("\nFig 16 (right): speedup vs private under shootdown "
                "load, invalidation policies\n");
    std::printf("%8s %-12s %10s %10s %10s %10s\n", "cores", "workload",
                "direct", "per-4", "per-8", "per-N");
    for (unsigned cores : {16u, 32u, 64u}) {
        std::uint64_t accesses = base_accesses * 16 / cores + 2000;
        for (const char *name : focusWorkloads) {
            const auto &spec = workload::findWorkload(name);
            auto storm = [&](core::OrgKind kind, unsigned group) {
                auto config = bench::makeConfig(kind, cores, spec);
                config.org.invalLeaderGroup = group;
                config.stormRemapInterval = 4000;
                config.stormMessagesPerOp = 8;
                return bench::runOnce(config, accesses);
            };
            auto priv = storm(core::OrgKind::Private, 0);
            std::printf("%8u %-12s", cores, name);
            for (unsigned group : {0u, 4u, 8u, cores}) {
                auto result = storm(core::OrgKind::Nocstar, group);
                std::printf("%10.3f",
                            bench::speedupVsPrivate(priv, result));
            }
            std::printf("\n");
        }
    }
    return 0;
}
