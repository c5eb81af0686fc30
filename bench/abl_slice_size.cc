/**
 * @file
 * Ablation (Table II): the NOCSTAR slice capacity. The paper
 * conservatively shrinks slices from 1024 to 920 entries to pay for
 * the interconnect; this sweep quantifies how sensitive the speedup
 * actually is to slice capacity.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "sim/program_main.hh"

using namespace nocstar;

int
programMain(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 6000,
        "NOCSTAR slice-entries ablation (32 cores)");
    std::uint64_t accesses = args.accesses;

    std::printf("Ablation: NOCSTAR slice entries (32 cores, average "
                "across workloads)\n");
    std::printf("%10s %12s %12s\n", "entries", "speedup",
                "l2 missrate");

    for (std::uint32_t entries : {512u, 768u, 920u, 1024u, 1536u,
                                  2048u}) {
        double avg_speedup = 0, avg_missrate = 0;
        for (const auto &spec : workload::paperWorkloads()) {
            auto priv = bench::runOnce(
                bench::makeConfig(core::OrgKind::Private, 32, spec),
                accesses);
            auto config =
                bench::makeConfig(core::OrgKind::Nocstar, 32, spec);
            config.org.nocstarSliceEntries = entries;
            auto result = bench::runOnce(config, accesses);
            avg_speedup += bench::speedupVsPrivate(priv, result) / 11.0;
            avg_missrate += result.l2MissRate / 11.0;
        }
        std::printf("%10u %12.3f %12.3f\n", entries, avg_speedup,
                    avg_missrate);
    }
    return 0;
}
