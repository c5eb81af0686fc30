/**
 * @file
 * Fig 11(a): one-way message latency (SRAM lookup + network) through
 * the TLB interconnect versus hop count, for the monolithic and
 * distributed designs over a multi-cycle mesh and for NOCSTAR at
 * HPCmax 4 / 8 / 16.
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
        "fig11a_latency_vs_hops",
        "Fig 11a: translation latency vs hop count per organization");
    parser.ignoredJobs();
    parser.parseOrExit(argc, argv);
    // 32-core equivalents: the monolithic array is 32x1536 entries,
    // slices are ~1K entries.
    const Cycle mono_lookup = SramModel::accessLatency(32 * 1536);
    const Cycle slice_lookup = SramModel::accessLatency(1024);

    std::printf("Fig 11a: message latency (cycles) = lookup + network "
                "vs hops\n");
    std::printf("%6s %14s %14s %12s %12s %12s\n", "hops",
                "monolithic", "distributed", "nstar-hpc4",
                "nstar-hpc8", "nstar-hpc16");
    for (unsigned hops : {0u, 1u, 2u, 4u, 6u, 8u, 10u, 12u}) {
        auto mesh = static_cast<Cycle>(2 * hops); // tr + tw per hop
        auto nocstar = [&](unsigned hpc) {
            if (hops == 0)
                return slice_lookup;
            // 1 setup cycle + pipelined traversal.
            return slice_lookup + 1 + (hops + hpc - 1) / hpc;
        };
        std::printf("%6u %14llu %14llu %12llu %12llu %12llu\n", hops,
                    static_cast<unsigned long long>(mono_lookup + mesh),
                    static_cast<unsigned long long>(slice_lookup +
                                                    mesh),
                    static_cast<unsigned long long>(nocstar(4)),
                    static_cast<unsigned long long>(nocstar(8)),
                    static_cast<unsigned long long>(nocstar(16)));
    }
    return 0;
}
