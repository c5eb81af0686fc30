/**
 * @file
 * Ablation (§III-B3): NOCSTAR's sensitivity to the maximum hops
 * traversed per cycle (HPCmax). At high clock frequencies or large
 * dies, pipeline latches cap HPCmax; this sweep shows how much of the
 * benefit survives.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "sim/program_main.hh"

using namespace nocstar;

int
programMain(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 5000,
        "NOCSTAR speedup vs private as HPCmax varies (64 cores)");
    std::uint64_t accesses = args.accesses;

    std::printf("Ablation: NOCSTAR speedup vs private as HPCmax "
                "varies (64 cores)\n");
    bench::printHeader("workload",
                       {"hpc1", "hpc2", "hpc4", "hpc8", "hpc16"});

    const unsigned hpcs[] = {1, 2, 4, 8, 16};
    std::vector<double> averages(5, 0.0);
    for (const auto &spec : workload::paperWorkloads()) {
        auto priv = bench::runOnce(
            bench::makeConfig(core::OrgKind::Private, 64, spec),
            accesses);
        std::vector<double> row;
        for (std::size_t i = 0; i < 5; ++i) {
            auto config =
                bench::makeConfig(core::OrgKind::Nocstar, 64, spec);
            config.org.hpcMax = hpcs[i];
            auto result = bench::runOnce(config, accesses);
            double s = bench::speedupVsPrivate(priv, result);
            row.push_back(s);
            averages[i] += s / 11.0;
        }
        bench::printRow(spec.name, row);
    }
    bench::printRow("average", averages);
    return 0;
}
