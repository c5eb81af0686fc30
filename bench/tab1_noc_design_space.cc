/**
 * @file
 * Table I: TLB interconnect design choices. Quantitative figures of
 * merit (average unloaded latency, saturation throughput, area and
 * power proxies) for Bus / Mesh / FBFly-wide / FBFly-narrow / SMART /
 * NOCSTAR on a 64-tile chip, plus the good/bad ratings matching the
 * paper's check-mark matrix.
 */

#include <cstdio>
#include <initializer_list>

#include "bench/arg_parser.hh"
#include "noc/design_space.hh"
#include "sim/program_main.hh"

using namespace nocstar;
using namespace nocstar::noc;

int
programMain(int argc, char **argv)
{
    unsigned cores = 64;
    bench::ArgParser parser(
        "tab1_noc_design_space",
        "Table I: TLB interconnect design choices (analytic model)");
    parser.positional("CORES", &cores, "tile count (default 64)");
    parser.ignoredJobs();
    parser.parseOrExit(argc, argv);

    DesignSpace space(cores, 16);
    std::printf("Table I: TLB interconnect design choices (%u tiles)\n",
                cores);
    std::printf("%-14s %9s %9s %12s %12s | %-8s %-8s %-8s %-8s\n",
                "NOC", "lat(cyc)", "sat(thr)", "area(norm)",
                "power(norm)", "Latency", "Bandwdth", "Area",
                "Power");

    auto figures = space.evaluate();
    // Normalize proxies to the mesh row for readability.
    double mesh_area = figures[1].areaProxy;
    double mesh_power = figures[1].powerProxy;
    for (const auto &f : figures) {
        std::printf("%-14s %9.2f %9.4f %12.2f %12.2f | %-8s %-8s %-8s "
                    "%-8s\n",
                    f.name.c_str(), f.avgLatency,
                    f.saturationThroughput, f.areaProxy / mesh_area,
                    f.powerProxy / mesh_power,
                    DesignSpace::ratingString(f.latencyRating),
                    DesignSpace::ratingString(f.bandwidthRating),
                    DesignSpace::ratingString(f.areaRating),
                    DesignSpace::ratingString(f.powerRating));
    }
    return 0;
}
