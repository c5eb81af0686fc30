/**
 * @file
 * Fig 17: page-table walks performed at the requesting core versus at
 * the remote core that owns the missing slice, for 16/32/64-core
 * NOCSTAR systems (speedups vs private L2 TLBs).
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "sim/program_main.hh"

using namespace nocstar;

int
programMain(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 8000,
        "Fig 17: page-table-walker placement (local vs remote walk)");
    std::uint64_t base_accesses = args.accesses;

    const char *focus[] = {"canneal", "graph500", "gups", "xsbench"};

    std::printf("Fig 17: page walk placement, speedup vs private\n");
    std::printf("%8s %-12s %10s %10s\n", "cores", "workload",
                "request", "remote");
    for (unsigned cores : {16u, 32u, 64u}) {
        std::uint64_t accesses = base_accesses * 16 / cores + 2000;
        double avg[2] = {0, 0};
        for (const char *name : focus) {
            const auto &spec = workload::findWorkload(name);
            auto priv = bench::runOnce(
                bench::makeConfig(core::OrgKind::Private, cores, spec),
                accesses);
            double speedups[2];
            int i = 0;
            for (auto placement : {core::PtwPlacement::Requester,
                                   core::PtwPlacement::Remote}) {
                auto config = bench::makeConfig(core::OrgKind::Nocstar,
                                                cores, spec);
                config.org.ptwPlacement = placement;
                auto result = bench::runOnce(config, accesses);
                speedups[i] = bench::speedupVsPrivate(priv, result);
                avg[i] += speedups[i] / 4.0;
                ++i;
            }
            std::printf("%8u %-12s %10.3f %10.3f\n", cores, name,
                        speedups[0], speedups[1]);
        }
        std::printf("%8u %-12s %10.3f %10.3f\n", cores, "average",
                    avg[0], avg[1]);
    }
    return 0;
}
