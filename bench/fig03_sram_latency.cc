/**
 * @file
 * Fig 3: access latency of an SRAM TLB array versus entry count,
 * relative to the 1536-entry Skylake-class private L2 TLB (post-
 * synthesis 28 nm TSMC shape).
 */

#include <cstdio>
#include <initializer_list>

#include "bench/arg_parser.hh"
#include "energy/sram_model.hh"
#include "sim/program_main.hh"

using namespace nocstar;
using energy::SramModel;

int
programMain(int argc, char **argv)
{
    nocstar::bench::ArgParser parser(
        "fig03_sram_latency",
        "Fig 3: SRAM TLB access latency vs size (analytic model)");
    parser.ignoredJobs();
    parser.parseOrExit(argc, argv);
    std::printf("Fig 3: SRAM TLB access latency vs size "
                "(1x = %llu entries)\n",
                static_cast<unsigned long long>(SramModel::refEntries));
    std::printf("%8s %10s %8s\n", "size", "entries", "cycles");
    for (double scale : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
        auto entries = static_cast<std::uint64_t>(
            scale * static_cast<double>(SramModel::refEntries));
        std::printf("%7.1fx %10llu %8llu\n", scale,
                    static_cast<unsigned long long>(entries),
                    static_cast<unsigned long long>(
                        SramModel::accessLatency(entries)));
    }
    return 0;
}
