/**
 * @file
 * Fig 6 (left): concurrency distribution averaged across workloads as
 * the L1 TLB size scales (0.5x / baseline / 1.5x) and as the core
 * count grows (64-512). (Right): per-slice concurrency for a
 * distributed shared L2 TLB with one slice per core, 32-512 slices.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "sim/program_main.hh"

using namespace nocstar;

namespace
{

constexpr const char *bucketNames[] = {"1", "2-4", "5-8", "9-12",
                                       "13-16", "17-20", "21-24",
                                       "25-28", "29+"};

std::vector<double>
averageBuckets(unsigned cores, double l1_scale, std::uint64_t accesses,
               bool per_slice)
{
    std::vector<double> avg(9, 0.0);
    for (const auto &spec : workload::paperWorkloads()) {
        auto config = bench::makeConfig(core::OrgKind::Distributed,
                                        cores, spec);
        config.l1.scale = l1_scale;
        auto result = bench::runOnce(config, accesses);
        const auto &buckets = per_slice
            ? result.sliceConcurrencyBuckets
            : result.concurrencyBuckets;
        for (std::size_t i = 0; i < 9; ++i)
            avg[i] += buckets[i] / 11.0;
    }
    return avg;
}

void
printBuckets(const char *label, const std::vector<double> &buckets)
{
    std::printf("%-12s", label);
    for (double b : buckets)
        std::printf("%8.3f", b);
    std::printf("\n");
}

} // namespace

int
programMain(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 4000,
        "Fig 6: chip-wide / per-slice concurrency vs core count");
    std::uint64_t base = args.accesses;

    std::printf("Fig 6 (left): chip-wide concurrency, averaged across "
                "workloads\n");
    std::printf("%-12s", "config");
    for (const char *b : bucketNames)
        std::printf("%8s", b);
    std::printf("\n");

    printBuckets("baseline", averageBuckets(32, 1.0, base, false));
    printBuckets("0.5x-L1", averageBuckets(32, 0.5, base, false));
    printBuckets("1.5x-L1", averageBuckets(32, 1.5, base, false));
    for (unsigned cores : {64u, 128u, 256u, 512u}) {
        std::uint64_t accesses = base * 32 / cores + 500;
        char label[32];
        std::snprintf(label, sizeof(label), "%u-cores", cores);
        printBuckets(label, averageBuckets(cores, 1.0, accesses,
                                           false));
    }

    std::printf("\nFig 6 (right): per-slice concurrency, distributed "
                "shared L2 TLB\n");
    std::printf("%-12s", "slices");
    for (const char *b : bucketNames)
        std::printf("%8s", b);
    std::printf("\n");
    for (unsigned cores : {32u, 64u, 128u, 256u, 512u}) {
        std::uint64_t accesses = base * 32 / cores + 500;
        char label[32];
        std::snprintf(label, sizeof(label), "%u", cores);
        printBuckets(label, averageBuckets(cores, 1.0, accesses, true));
    }
    return 0;
}
