/**
 * @file
 * Table II: the simulated last-level TLB configurations -- entry
 * counts, physical organization and interconnect -- as instantiated by
 * this library for a given core count.
 */

#include <cstdio>
#include <initializer_list>

#include "bench/arg_parser.hh"
#include "core/config.hh"
#include "energy/area.hh"
#include "energy/sram_model.hh"
#include "sim/program_main.hh"

using namespace nocstar;
using namespace nocstar::core;

int
programMain(int argc, char **argv)
{
    unsigned cores = 32;
    bench::ArgParser parser(
        "tab2_configurations",
        "Table II: simulated last-level TLB configurations");
    parser.positional("CORES", &cores, "core count (default 32)");
    parser.ignoredJobs();
    parser.parseOrExit(argc, argv);
    unsigned banks = cores >= 64 ? 8 : 4;

    std::printf("Table II: simulated TLB configurations (%u cores)\n",
                cores);
    std::printf("%-14s %16s %18s %-22s %8s\n", "config",
                "L2 entries", "physical org", "interconnect",
                "lookup");

    OrgConfig config;
    config.numCores = cores;
    config.banks = banks;

    auto lookup = [](std::uint64_t entries) {
        return static_cast<unsigned long long>(
            energy::SramModel::accessLatency(entries));
    };

    std::printf("%-14s %16u %18s %-22s %8llu\n", "private", 1024u,
                "1 TLB per core", "-", lookup(1024));
    std::uint64_t total = 1024ull * cores;
    std::printf("%-14s %12llux%-3u %18s %-22s %8llu\n", "monolithic",
                1024ull, cores, "banked monolithic",
                "mesh (multi-hop), SMART", lookup(total / banks));
    std::printf("%-14s %12llux%-3u %18s %-22s %8llu\n", "distributed",
                1024ull, cores, "1 slice per core", "mesh (multi-hop)",
                lookup(1024));
    std::uint64_t slice =
        energy::TileAreaReport::areaEquivalentSliceEntries(1024);
    std::printf("%-14s %12llux%-3u %18s %-22s %8llu\n", "NOCSTAR",
                static_cast<unsigned long long>(slice), cores,
                "1 slice per core", "NOCSTAR fabric", lookup(slice));
    std::printf("\nmonolithic banks: %u; NOCSTAR slice is "
                "area-equivalent (interconnect area deducted)\n",
                banks);
    return 0;
}
