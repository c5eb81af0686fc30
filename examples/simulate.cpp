/**
 * @file
 * General-purpose simulation driver: every organization and policy
 * knob behind command-line flags, for design exploration without
 * writing code.
 *
 *   ./examples/simulate --org nocstar --cores 32 --workload gups \
 *       --accesses 20000 --smt 2 --prefetch 2 --ptw remote \
 *       --no-superpages --capture trace.txt --stats \
 *       --fault-plan outage.plan
 *
 * Run with --help for the full flag list. Both `--flag value` and
 * `--flag=value` spellings work.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/arg_parser.hh"
#include "bench/bench_common.hh"
#include "cpu/system.hh"
#include "sim/fault.hh"
#include "sim/trace_recorder.hh"
#include "sim/program_main.hh"

using namespace nocstar;

namespace
{

bool
parseOrg(const std::string &name, core::OrgKind &out)
{
    if (name == "private")
        out = core::OrgKind::Private;
    else if (name == "monolithic")
        out = core::OrgKind::MonolithicMesh;
    else if (name == "monolithic-smart")
        out = core::OrgKind::MonolithicSmart;
    else if (name == "distributed")
        out = core::OrgKind::Distributed;
    else if (name == "ideal")
        out = core::OrgKind::IdealShared;
    else if (name == "nocstar")
        out = core::OrgKind::Nocstar;
    else if (name == "nocstar-ideal")
        out = core::OrgKind::NocstarIdeal;
    else
        return false;
    return true;
}

} // namespace

/** Parse the flags, run one simulation and print its summary. */
int
programMain(int argc, char **argv)
{
    cpu::SystemConfig config;
    config.org.kind = core::OrgKind::Nocstar;
    config.org.numCores = 16;
    std::string workload_name = "graph500";
    std::string trace_file;
    std::uint64_t accesses = 20000;
    unsigned threads = 0;
    bool no_superpages = false;
    bool storm = false;
    bool dump_stats = false;
    bool do_trace = false;
    std::string trace_out = "simulate_trace.json";

    bench::ArgParser parser(
        "simulate",
        "single-run simulation driver: every organization and policy "
        "knob behind a flag");
    parser.option(
        "org",
        [&config](const std::string &value) {
            return parseOrg(value, config.org.kind);
        },
        "private | monolithic | monolithic-smart | distributed | "
        "ideal | nocstar | nocstar-ideal (default nocstar)",
        "KIND");
    parser.option("cores", &config.org.numCores,
                  "core count (default 16)");
    parser.option("workload", &workload_name,
                  "one of the 11 paper workloads (default graph500)",
                  "NAME");
    parser.option("accesses", &accesses,
                  "accesses per thread (default 20000)");
    parser.option("threads", &threads, "app threads (default = cores)");
    parser.option("smt", &config.smtPerCore,
                  "SMT slots per core (default 1)");
    parser.option("prefetch", &config.org.prefetchDistance,
                  "TLB prefetch distance 0..3 (default 0)");
    parser.option(
        "ptw",
        [&config](const std::string &value) {
            if (value != "requester" && value != "remote")
                return false;
            config.org.ptwPlacement = value == "remote"
                ? core::PtwPlacement::Remote
                : core::PtwPlacement::Requester;
            return true;
        },
        "requester | remote (default requester)", "WHERE");
    parser.option(
        "acquire",
        [&config](const std::string &value) {
            if (value != "oneway" && value != "roundtrip")
                return false;
            config.org.pathAcquire = value == "roundtrip"
                ? core::PathAcquire::RoundTrip
                : core::PathAcquire::OneWay;
            return true;
        },
        "oneway | roundtrip (default oneway)", "MODE");
    parser.option("hpcmax", &config.org.hpcMax,
                  "fabric hops per cycle (default 16)");
    parser.option(
        "fabric",
        [&config](const std::string &value) {
            if (std::string err =
                    core::parseFabricSpec(value, config.org);
                !err.empty()) {
                std::fprintf(stderr, "simulate: --fabric: %s\n",
                             err.c_str());
                return false;
            }
            return true;
        },
        "flat (default), hier, or hier:WxH cluster geometry "
        "(NOCSTAR orgs only)",
        "KIND");
    parser.option(
        "slice-map",
        [&config](const std::string &value) {
            if (value != "row-major" && value != "cluster-local")
                return false;
            config.org.sliceMapping = value == "cluster-local"
                ? core::SliceMapping::ClusterLocal
                : core::SliceMapping::RowMajor;
            return true;
        },
        "row-major | cluster-local slice placement (default "
        "row-major; cluster-local needs --fabric hier)",
        "MAP");
    parser.option("leaders", &config.org.invalLeaderGroup,
                  "invalidation leader group (default 0)");
    parser.option("fixed-ptw", &config.walker.fixedLatency,
                  "fixed walk latency in cycles (default variable)");
    parser.option("seed", &config.seed, "random seed (default 1)");
    parser.option(
        "hotspot",
        [&config](const std::string &value) {
            std::uint64_t slice;
            if (!bench::parseUnsigned(value, slice))
                return false;
            config.hotspotSlice = static_cast<int>(slice);
            return true;
        },
        "warp a fraction of all traffic onto one slice", "SLICE");
    parser.option("replay", &trace_file, "replay a captured trace",
                  "FILE");
    parser.option("capture", &config.captureTracePath,
                  "capture the address trace to FILE", "FILE");
    parser.flag("trace", &do_trace,
                "record structured events (Chrome/Perfetto JSON)");
    parser.option(
        "trace-out",
        [&do_trace, &trace_out](const std::string &file) {
            do_trace = true;
            trace_out = file;
            return true;
        },
        "trace JSON destination (default simulate_trace.json; "
        "implies --trace)",
        "FILE");
    parser.option(
        "counters",
        [&config](const std::string &value) {
            std::uint64_t n = 0;
            if (!bench::parseUnsigned(value, n))
                return false;
            config.counterInterval = n;
            return true;
        },
        "sample Perfetto counter tracks every N cycles "
        "(needs --trace)",
        "N");
    parser.optionalValue(
        "progress", [&config] { config.progressSeconds = 2.0; },
        [&config](const std::string &value) {
            char *end = nullptr;
            double s = std::strtod(value.c_str(), &end);
            if (!end || *end != '\0' || s < 0)
                return false;
            config.progressSeconds = s;
            return true;
        },
        "print a heartbeat line to stderr every SECONDS "
        "(default 2; =0 emits at every check)",
        "SECONDS");
    parser.optionalValue(
        "lat-hist", [&config] { config.latencyStats = true; },
        [&config](const std::string &mode) {
            if (mode != "ctx")
                return false;
            config.latencyStats = true;
            config.latencyPerContext = true;
            return true;
        },
        "record per-class translation-latency histograms "
        "(=ctx adds a per-context split)",
        "ctx");
    parser.flag("no-superpages", &no_superpages, "4 KB pages only");
    parser.flag("storm", &storm,
                "enable the TLB-storm microbenchmark");
    parser.option(
        "fault-plan",
        [&config](const std::string &file) {
            try {
                config.org.faults = sim::FaultPlan::parseFile(file);
            } catch (const FatalError &err) {
                std::fprintf(stderr, "%s\n", err.what());
                return false;
            }
            return true;
        },
        "inject faults per this plan file (see docs)", "FILE");
    parser.option("fault-seed", &config.org.faults.seed,
                  "override the fault plan's random seed");
    parser.option(
        "sample",
        [&config](const std::string &spec) {
            if (!bench::parseSampleSpec(spec, config.sampling)) {
                std::fprintf(
                    stderr,
                    "simulate: --sample expects "
                    "WINDOWS,DETAIL[,FF[,WARMUP]] (got '%s')\n",
                    spec.c_str());
                return false;
            }
            return true;
        },
        "SMARTS-style sampled simulation: WINDOWS detail windows of "
        "DETAIL accesses/thread, fast-forwarding ~FF accesses/thread "
        "between them (0 = derive from --accesses) after WARMUP "
        "functional warming",
        "SPEC");
    parser.option("checkpoint", &config.checkpointSavePath,
                  "save a checkpoint of the warmed state to FILE, "
                  "then keep running",
                  "FILE");
    parser.option("restore", &config.checkpointRestorePath,
                  "restore warmed state from FILE instead of "
                  "re-warming (config fingerprint must match)",
                  "FILE");
    parser.flag("stats", &dump_stats, "dump the full statistics tree");
    parser.option("stats-json", &config.statsJsonPath,
                  "append the statistics tree as one JSON line to FILE",
                  "FILE");
    parser.parseOrExit(argc, argv);

    if (no_superpages)
        config.superpages = false;
    if (storm) {
        config.contextSwitchInterval = 50000;
        config.stormRemapInterval = 5000;
    }

    config.org.banks = config.org.numCores >= 64 ? 8 : 4;
    cpu::AppConfig app{workload::findWorkload(workload_name),
                       threads ? threads : config.org.numCores};
    app.traceFile = trace_file;
    config.apps.push_back(app);

    if (std::vector<std::string> errors = config.validate();
        !errors.empty()) {
        for (const std::string &error : errors)
            std::fprintf(stderr, "simulate: invalid config: %s\n",
                         error.c_str());
        return 2;
    }

    if (do_trace)
        sim::TraceRecorder::global().start();

    cpu::System system(config);
    cpu::RunResult result = system.run(accesses);

    if (do_trace) {
        sim::TraceRecorder &rec = sim::TraceRecorder::global();
        rec.stop();
        if (rec.exportChromeJson(trace_out))
            std::fprintf(stderr,
                         "simulate: wrote %llu trace events to %s "
                         "(%llu dropped)\n",
                         static_cast<unsigned long long>(rec.size()),
                         trace_out.c_str(),
                         static_cast<unsigned long long>(rec.dropped()));
        else
            std::fprintf(stderr, "simulate: cannot write %s\n",
                         trace_out.c_str());
    }

    std::printf("org                 : %s\n",
                core::orgKindName(config.org.kind));
    std::printf("cores / threads     : %u / %u\n", config.org.numCores,
                config.apps[0].threads * config.smtPerCore);
    std::printf("cycles (max / mean) : %llu / %.0f\n",
                static_cast<unsigned long long>(result.cycles),
                result.meanCycles);
    std::printf("chip IPC            : %.3f\n", result.ipc);
    if (result.sampled) {
        std::printf("sampled IPC         : %.3f +/- %.3f (95%% CI, "
                    "%u windows)\n",
                    result.sampledIpcMean, result.sampledIpcCi95,
                    result.sampleWindows);
        std::printf("sampled L2 latency  : %.1f +/- %.1f cycles\n",
                    result.sampledLatencyMean,
                    result.sampledLatencyCi95);
        std::printf("fast-forwarded      : %llu accesses\n",
                    static_cast<unsigned long long>(
                        result.sampledFfAccesses));
    }
    std::printf("L1 miss rate        : %.2f %%\n",
                100.0 * static_cast<double>(result.l1Misses) /
                    static_cast<double>(result.l1Accesses));
    std::printf("L2 miss rate        : %.2f %%\n",
                100.0 * result.l2MissRate);
    std::printf("avg L2 latency      : %.1f cycles\n",
                result.avgL2AccessLatency);
    std::printf("page walks          : %llu (avg %.1f cycles)\n",
                static_cast<unsigned long long>(result.walks),
                result.avgWalkLatency);
    std::printf("translation energy  : %.2f uJ\n",
                result.energyPj * 1e-6);
    if (result.fabricAvgLatency > 0)
        std::printf("fabric latency      : %.2f cycles (%.0f %% "
                    "contention-free)\n",
                    result.fabricAvgLatency,
                    100.0 * result.fabricNoContention);
    if (result.shootdowns)
        std::printf("shootdowns          : %llu (avg %.1f cycles)\n",
                    static_cast<unsigned long long>(result.shootdowns),
                    result.avgShootdownLatency);
    if (!config.org.faults.empty())
        std::printf("faults              : %llu injected, %llu "
                    "degraded msgs (%.2f %%), %llu ECC rewalks\n",
                    static_cast<unsigned long long>(
                        result.faultsInjected),
                    static_cast<unsigned long long>(
                        result.degradedMessages),
                    100.0 * result.degradedFraction,
                    static_cast<unsigned long long>(result.eccRewalks));

    if (dump_stats) {
        std::printf("\n--- statistics ---\n");
        system.dumpAll(std::cout);
    }
    return 0;
}
