/**
 * @file
 * The benchmark program for the translation simulator (single process,
 * single thread, default engine).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans FILE]
 *
 * --trace 0 measures the end-to-end metrics: the workload is built and
 * run again and again for S seconds, every run's outputs are checked.
 * --trace 1 runs the workload once untraced for its per-layer work
 * counts, then the traced replay for per-layer host ns per call; with
 * --spans, the replay's sampled spans go to FILE as Chrome trace JSON.
 *
 * Prints one JSON object: correct, attempted, failed, metrics (each a
 * value with its unit) and detail (digest, build, violations, ...).
 * perfbench/run.py builds this program and reshapes that line.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "bench.hh"
#include "sim/build_info.hh"

using namespace perfbench;

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

void
print(Outcome &out)
{
    for (const auto &[name, metric] : out.metrics)
        if (!std::isfinite(metric.value))
            out.violations.push_back("metric " + name + " is not finite");
    bool correct = out.failed == 0 && out.violations.empty();

    std::ostringstream s;
    s << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
      << ",\"metrics\":{";
    const char *sep = "";
    for (const auto &[name, metric] : out.metrics) {
        double v = std::isfinite(metric.value) ? metric.value : 0.0;
        s << sep << jsonString(name) << ":{\"value\":" << jsonNumber(v)
          << ",\"unit\":" << jsonString(metric.unit) << "}";
        sep = ",";
    }
    s << "},\"detail\":{";
    for (const auto &[key, value] : out.detail)
        s << jsonString(key) << ":" << jsonString(value) << ",";
    s << "\"violations\":[";
    sep = "";
    for (const std::string &v : out.violations) {
        s << sep << jsonString(v);
        sep = ",";
    }
    s << "]}}";
    std::printf("%s\n", s.str().c_str());
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (*text == '\0' || *text == '-' || *end != '\0')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    usage("refusing to measure an unoptimised build");
#endif
    if (std::strstr(nocstar::build::kBuildType, "Rel") == nullptr)
        usage("refusing to measure the simulator libraries: they were "
              "not built with an optimised (Release/RelWithDebInfo) type");

    const Workload *w = nullptr;
    std::uint64_t seed = 0, seconds = 0, trace = 2;
    bool have_seed = false, have_seconds = false;
    std::string spans;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        if (arg == "--workload") {
            w = findWorkload(value);
            if (!w)
                usage((std::string("unknown workload ") + value).c_str());
        } else if (arg == "--seed") {
            seed = parseCount("--seed", value);
            have_seed = true;
        } else if (arg == "--seconds") {
            seconds = parseCount("--seconds", value);
            have_seconds = true;
        } else if (arg == "--trace") {
            trace = parseCount("--trace", value);
        } else if (arg == "--spans") {
            spans = value;
        } else {
            usage(("unknown flag " + arg).c_str());
        }
    }
    if (!w || !have_seed || !have_seconds || trace > 1)
        usage("--workload, --seed, --seconds and --trace 0|1 are required");

    try {
        Outcome out;
        if (trace == 0) {
            out = measureEndToEnd(*w, seed, static_cast<double>(seconds));
        } else {
            cpu::SystemConfig config = w->make(seed);
            CountedRun counted = countedRun(config, w->quota);
            out.attempted = 1;
            out.failed = counted.violations.empty() ? 0 : 1;
            out.violations = counted.violations;
            out.metrics = counted.counts;
            out.detail["digest"] = counted.digest;
            out.detail["untraced_ns_per_access"] =
                jsonNumber(counted.nsPerAccess);
            tracedReplay(*w, config, counted, spans, out);
        }
        out.detail["workload"] = w->name;
        out.detail["build_type"] = nocstar::build::kBuildType;
        out.detail["compiler"] = std::string(nocstar::build::kCompilerId) +
                                 " " + nocstar::build::kCompilerVersion;
        out.detail["git_sha"] = nocstar::build::kGitSha;
        print(out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
