/**
 * @file
 * Fig 2: percentage of private L2 TLB misses eliminated by replacing
 * private L2 TLBs with a shared L2 TLB, for 16/32/64-core systems.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "sim/program_main.hh"

using namespace nocstar;

int
programMain(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 12000,
        "Fig 2: private L2 TLB misses eliminated by a shared L2");
    std::uint64_t base_accesses = args.accesses;

    std::printf("Fig 2: %% of private L2 TLB misses eliminated by a "
                "shared L2 TLB\n");
    bench::printHeader("workload", {"16-core", "32-core", "64-core"});

    std::vector<double> averages(3, 0.0);
    for (const auto &spec : workload::paperWorkloads()) {
        std::vector<double> row;
        int i = 0;
        for (unsigned cores : {16u, 32u, 64u}) {
            std::uint64_t accesses = base_accesses * 16 / cores;
            auto priv = bench::runOnce(
                bench::makeConfig(core::OrgKind::Private, cores, spec),
                accesses);
            auto shared = bench::runOnce(
                bench::makeConfig(core::OrgKind::Distributed, cores,
                                  spec),
                accesses);
            double elim = priv.l2Misses
                ? 100.0 * (1.0 -
                           static_cast<double>(shared.l2Misses) /
                               static_cast<double>(priv.l2Misses))
                : 0.0;
            row.push_back(elim);
            averages[i++] += elim / 11.0;
        }
        bench::printRow(spec.name, row, "%10.1f");
    }
    bench::printRow("Avg", averages, "%10.1f");
    return 0;
}
