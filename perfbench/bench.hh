/**
 * @file
 * Shared declarations of the benchmark program: the workload table, the
 * metric record every mode fills in, and the entry points of the
 * untraced measurement (measure.cc) and the traced replay (replay.cc).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cpu/system.hh"

namespace perfbench
{

using namespace nocstar;

/** One benchmark workload: a paper configuration plus its run sizes. */
struct Workload
{
    const char *name;
    /** Build the configuration for workload seed @p seed. */
    cpu::SystemConfig (*make)(std::uint64_t seed);
    /** Accesses per thread of one measured repetition. */
    std::uint64_t quota;
    /** Accesses per thread the traced replay streams through layers. */
    std::uint64_t replayAccesses;
};

/** The workload named @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** One reported number and its unit. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** What a mode hands back to main() for printing. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Output-check violations, one message each. */
    std::vector<std::string> violations;
    std::map<std::string, Metric> metrics;
    /** Extra facts for the provenance/detail record (not metrics). */
    std::map<std::string, std::string> detail;
};

/**
 * The end-to-end measurement: build and run the workload again and
 * again for @p seconds (at least once), checking every run's outputs.
 */
Outcome measureEndToEnd(const Workload &w, std::uint64_t seed,
                        double seconds);

/** Result of one checked, untraced run (the per-layer counts). */
struct CountedRun
{
    std::map<std::string, Metric> counts;
    std::vector<std::string> violations;
    std::string digest;
    /** Host ns per simulated access of System::run. */
    double nsPerAccess = 0;
    /** Detailed accesses and simulated cycles of the run. */
    std::uint64_t accesses = 0;
    Cycle cycles = 0;
    /** Calls per simulated access of each timed layer (for the
     * unattributed share), keyed by the layer's ns metric name. */
    std::map<std::string, double> callsPerAccess;
};

/** Run the workload once untraced and derive its per-layer counts. */
CountedRun countedRun(const cpu::SystemConfig &config, std::uint64_t quota);

/**
 * The traced run: a fresh System warmed by run(1) -- prewarm plus one
 * access per thread, so the replay starts where the untraced run did --
 * then each thread's address stream replayed through the System's own
 * layer objects with every call timed from here. Adds the ns metrics
 * to @p out; spans of a sample of accesses go to @p spans_path unless
 * it is empty.
 */
void tracedReplay(const Workload &w, const cpu::SystemConfig &config,
                  const CountedRun &untraced, const std::string &spans_path,
                  Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
