/**
 * @file
 * Fig 11(b): energy per message (pJ) through the TLB interconnect vs
 * hop count, split into link / switch / control / SRAM components for
 * (M)onolithic, (D)istributed and (N)OCSTAR.
 */

#include <cstdio>
#include <initializer_list>

#include "bench/arg_parser.hh"
#include "energy/noc_energy.hh"
#include "sim/program_main.hh"

using namespace nocstar;
using namespace nocstar::energy;

int
programMain(int argc, char **argv)
{
    nocstar::bench::ArgParser parser(
        "fig11b_energy_vs_hops",
        "Fig 11b: energy per message vs hop count");
    parser.ignoredJobs();
    parser.parseOrExit(argc, argv);
    std::printf("Fig 11b: energy per message (pJ): link/switch/control/"
                "sram = total\n");
    std::printf("%6s  %-34s %-34s %-34s\n", "hops", "monolithic",
                "distributed", "nocstar");
    for (unsigned hops : {0u, 1u, 2u, 4u, 6u, 8u, 10u, 12u}) {
        auto mono = NocEnergyModel::message(NocStyle::MonolithicMesh,
                                            hops, 32 * 1536);
        auto dist = NocEnergyModel::message(NocStyle::DistributedMesh,
                                            hops, 1024);
        auto nstar = NocEnergyModel::message(NocStyle::Nocstar, hops,
                                             920);
        auto cell = [](const MessageEnergy &e) {
            static thread_local char buffer[64];
            std::snprintf(buffer, sizeof(buffer),
                          "%5.1f/%5.1f/%5.1f/%5.1f =%6.1f", e.link,
                          e.switching, e.control, e.sram, e.total());
            return buffer;
        };
        std::printf("%6u  %-34s", hops, cell(mono));
        std::printf(" %-34s", cell(dist));
        std::printf(" %-34s\n", cell(nstar));
    }
    return 0;
}
