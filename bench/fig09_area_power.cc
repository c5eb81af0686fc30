/**
 * @file
 * Fig 9: per-tile power and area of the NOCSTAR interconnect
 * components versus the co-located L2 TLB SRAM slice (28 nm TSMC,
 * 0.5 ns target clock), plus the Table II area-normalization this
 * budget implies.
 */

#include <cstdio>
#include <initializer_list>

#include "bench/arg_parser.hh"
#include "energy/area.hh"
#include "sim/program_main.hh"

using namespace nocstar;
using energy::TileAreaReport;

int
programMain(int argc, char **argv)
{
    nocstar::bench::ArgParser parser(
        "fig09_area_power",
        "Fig 9: place-and-routed NOCSTAR tile area/power budget");
    parser.ignoredJobs();
    parser.parseOrExit(argc, argv);
    std::printf("Fig 9: place-and-routed NOCSTAR tile budget (28 nm, "
                "2 GHz)\n");
    std::printf("%-14s %14s %12s\n", "component", "power (mW)",
                "area (mm^2)");
    for (const auto &c :
         {TileAreaReport::tileSwitch, TileAreaReport::arbiters,
          TileAreaReport::sramTlb}) {
        std::printf("%-14s %14.2f %12.4f\n", c.name, c.powerMw,
                    c.areaMm2);
    }
    std::printf("\ninterconnect area / tile TLB SRAM area: %.2f %%\n",
                100.0 * TileAreaReport::interconnectAreaFraction());
    std::printf("area-equivalent slice for a 1024-entry private L2 "
                "TLB: %llu entries (Table II)\n",
                static_cast<unsigned long long>(
                    TileAreaReport::areaEquivalentSliceEntries(1024)));
    return 0;
}
