/**
 * @file
 * The workload table, the untraced end-to-end measurement, and the
 * per-run output checks and work counts, all taken from outside the
 * simulator through the public System API and its stats tree.
 */

#include <sched.h>
#include <time.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <regex>
#include <sstream>

#include "bench.hh"
#include "bench/bench_common.hh"
#include "core/nocstar_org.hh"
#include "sim/checkpoint.hh"
#include "workload/spec.hh"

namespace perfbench
{

namespace
{

/** Per-thread quota of the sampled mix (its sampling plan scales with it). */
constexpr std::uint64_t kMixQuota = 20000;

/**
 * The workload seed perturbs the paper's own seed; seed 0 reproduces
 * the seed the figure benches run.
 */
std::uint64_t
mixSeed(std::uint64_t paper_seed, std::uint64_t seed)
{
    return paper_seed ^ (seed * 0x9e3779b97f4a7c15ULL);
}

cpu::SystemConfig
hit16Private(std::uint64_t seed)
{
    // Every region superpage-backed: at olio's own 75 % the seed decides
    // whether each thread's hot set fits one L1 entry, which moves the
    // L1 miss ratio between 0.6 % and 8 % from seed to seed.
    workload::WorkloadSpec olio = workload::findWorkload("olio");
    olio.superpageFraction = 1.0;
    cpu::SystemConfig c =
        bench::makeConfig(core::OrgKind::Private, 16, olio);
    c.seed = mixSeed(c.seed, seed);
    return c;
}

cpu::SystemConfig
gups64FourKNocstar(std::uint64_t seed)
{
    cpu::SystemConfig c = bench::makeConfig(
        core::OrgKind::Nocstar, 64, workload::findWorkload("gups"),
        /*superpages=*/false);
    c.seed = mixSeed(c.seed, seed);
    return c;
}

cpu::SystemConfig
storm64Nocstar(std::uint64_t seed)
{
    // The Fig 19 storm settings over fully superpage-backed gups, for
    // the same seed-stability reason as hit16Private.
    workload::WorkloadSpec gups = workload::findWorkload("gups");
    gups.superpageFraction = 1.0;
    cpu::SystemConfig c = bench::makeConfig(core::OrgKind::Nocstar, 64, gups);
    c.seed = mixSeed(c.seed, seed);
    c.contextSwitchInterval = 50000;
    c.stormRemapInterval = 5000;
    c.stormMessagesPerOp = 8;
    return c;
}

cpu::SystemConfig
sampledMix64Nocstar(std::uint64_t seed)
{
    // The Fig 18 mix, 4 KB pages only (at the paper's fractions the
    // superpage lottery moves the detailed L1 miss ratio between 7 % and
    // 15 % and accesses/s by 1.35x across seeds), under a sampling plan
    // that fast-forwards ~90 % of each thread's accesses: 10 windows of
    // 1 % of the quota each, after a 10 % warmup. The window-placement
    // seed stays fixed: the jittered gaps move the fast-forwarded share,
    // and with it accesses/s, by ~10 % per seed.
    cpu::SystemConfig c =
        bench::makeMixConfig({0, 3, 6, 9}, core::OrgKind::Nocstar, 64);
    c.seed = mixSeed(c.seed, seed);
    c.superpages = false;
    c.sampling.windows = 10;
    c.sampling.detailAccesses = kMixQuota / 100;
    c.sampling.warmupAccesses = kMixQuota / 10;
    return c;
}

// Quotas make one repetition take ~0.2 s on a 2 GHz Xeon, so a run
// holds ~100 of them. The traced replay streams the same number of
// accesses per thread, except under sampling, where the replay runs
// every access in detail.
const Workload kWorkloads[] = {
    {"hit16_private", hit16Private, 100000, 100000},
    {"gups64_4k_nocstar", gups64FourKNocstar, 2000, 2000},
    {"storm64_nocstar", storm64Nocstar, 8000, 8000},
    {"sampled_mix64_nocstar", sampledMix64Nocstar, kMixQuota, 1000},
};

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    std::size_t n = xs.size();
    if (n == 0)
        return 0;
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** The stats tree as a name -> value map (System::dumpAll lines). */
std::map<std::string, double>
statsTree(const cpu::System &sys)
{
    std::ostringstream os;
    sys.dumpAll(os);
    std::map<std::string, double> tree;
    std::istringstream in(os.str());
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name;
        double value = 0;
        if (fields >> name >> value)
            tree[name] = value;
    }
    return tree;
}

/** Sum of every stat whose full name matches @p pattern. */
double
sumMatching(const std::map<std::string, double> &tree,
            const std::string &pattern)
{
    std::regex re(pattern);
    double sum = 0;
    for (const auto &[name, value] : tree)
        if (std::regex_match(name, re))
            sum += value;
    return sum;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::uint64_t
threadCount(const cpu::SystemConfig &config)
{
    std::uint64_t n = 0;
    for (const cpu::AppConfig &app : config.apps)
        n += app.threads;
    return n;
}

/** The fabric of a NOCSTAR organization, or nullptr. */
core::Interconnect *
fabricOf(cpu::System &sys)
{
    auto *nocstar = dynamic_cast<core::NocstarOrg *>(&sys.organization());
    return nocstar ? &nocstar->fabric() : nullptr;
}

/** Conservation laws every finished run must satisfy. */
std::vector<std::string>
checkRun(cpu::System &sys, const cpu::RunResult &r, std::uint64_t quota)
{
    std::vector<std::string> v;
    auto fail = [&v](auto... parts) { v.push_back(strCat(parts...)); };

    if (r.l2Accesses != r.l1Misses)
        fail("L2 accesses ", r.l2Accesses, " != L1 misses ", r.l1Misses);
    if (r.walks != r.l2Misses + r.eccRewalks)
        fail("walks ", r.walks, " != L2 misses ", r.l2Misses,
             " + ECC rewalks ", r.eccRewalks);
    if (core::Interconnect *f = fabricOf(sys);
        f && f->setupAttempts.value() !=
                 f->messagesSent.value() + f->setupFailures.value())
        fail("setup attempts ", f->setupAttempts.value(), " != messages ",
             f->messagesSent.value(), " + setup failures ",
             f->setupFailures.value());
    if (!sys.queue().empty())
        fail("event queue holds ", sys.queue().size(), " events at the end");
    if (unsigned n = sys.organization().outstandingAccesses())
        fail(n, " L2 accesses outstanding at the end");

    std::uint64_t threads = threadCount(sys.config());
    const cpu::SamplingConfig &s = sys.config().sampling;
    if (!s.enabled()) {
        if (r.l1Accesses + r.sampledFfAccesses != threads * quota)
            fail("L1 accesses ", r.l1Accesses, " + fast-forwarded ",
                 r.sampledFfAccesses, " != threads x quota ",
                 threads * quota);
    } else {
        // The fast-forward gaps are jittered, so only the detail part
        // has a closed form; every thread still advances in lockstep.
        if (r.l1Accesses != threads * s.windows * s.detailAccesses)
            fail("L1 accesses ", r.l1Accesses,
                 " != threads x windows x detail ",
                 threads * s.windows * s.detailAccesses);
        if (r.sampledFfAccesses % threads != 0 ||
            r.sampledFfAccesses < threads * s.warmupAccesses)
            fail("fast-forwarded ", r.sampledFfAccesses,
                 " is not a per-thread multiple above the warmup");
    }
    return v;
}

/** FNV-1a digest of every modelled result: stats tree plus RunResult. */
std::string
digestOf(const cpu::System &sys, const cpu::RunResult &r)
{
    std::ostringstream os;
    sys.dumpAll(os);
    os.precision(17);
    os << r.cycles << ' ' << r.meanCycles << ' ' << r.instructions << ' '
       << r.ipc << ' ' << r.energyPj << ' ' << r.avgL2AccessLatency << ' '
       << r.avgWalkLatency << ' ' << r.fabricAvgLatency << ' '
       << r.sampledFfAccesses << ' ' << r.sampledIpcMean << ' '
       << r.sampledLatencyMean;
    for (double x : r.appIpc)
        os << ' ' << x;
    std::string text = os.str();
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      sim::fnv1a(text.data(), text.size())));
    return hex;
}

/**
 * Peak resident set of this process image (VmHWM). getrusage's
 * ru_maxrss would do, but Linux carries it across exec, so it would
 * report the launching Python's footprint; it is only the fallback.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Host seconds since an arbitrary fixed point (steady clock). */
double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * CPU seconds this thread has run. Under KVM the guest kernel leaves
 * time stolen by the host out of it; in wall time the host took a
 * quarter to a half of some 0.3 s repetitions.
 */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/**
 * How fast this host runs the simulator's kind of code right now,
 * relative to a quiet host: a dependent-load chase through a 512 KB
 * random cycle (core-private cache latency) times a dependent
 * multiply-add chain (core throughput). On a shared host both drift
 * together with the simulator's CPU-time rate over seconds and minutes,
 * and the simulator slows about as much as their product does (see
 * perfbench/README.md).
 */
class HostProbe
{
  public:
    HostProbe() : next_(kSlots)
    {
        // Sattolo's shuffle: one cycle through every slot.
        for (std::size_t i = 0; i < kSlots; ++i)
            next_[i] = static_cast<std::uint32_t>(i);
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (std::size_t i = kSlots - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(next_[i], next_[x % i]);
        }
    }

    /** The host's speed now: 1.0 at the nominal rates below. */
    double
    speed()
    {
        double t0 = threadCpuSeconds();
        std::uint32_t at = at_;
        for (std::uint64_t i = 0; i < kLoads; ++i)
            at = next_[at];
        // Keep each chain on this side of the clock read after it.
        asm volatile("" : : "r"(at) : "memory");
        double t1 = threadCpuSeconds();
        std::uint64_t x = at;
        for (std::uint64_t i = 0; i < kSteps; ++i)
            x = x * 6364136223846793005ULL + (x >> 29);
        asm volatile("" : : "r"(x) : "memory");
        double t2 = threadCpuSeconds();
        at_ = at;
        return (kLoads / (t1 - t0) / kNominalLoadsPerS) *
               (kSteps / (t2 - t1) / kNominalStepsPerS);
    }

  private:
    static constexpr std::size_t kSlots = std::size_t{1} << 17;
    // ~8 ms and ~18 ms after each ~0.25 s repetition.
    static constexpr std::uint64_t kLoads = 800000;
    static constexpr std::uint64_t kSteps = 10000000;
    // Both rates on a quiet 4-vCPU Sapphire Rapids KVM guest. They only
    // set the scale of calibrated_accesses_per_s: a parent and a change
    // measured on one host share them.
    static constexpr double kNominalLoadsPerS = 1.0e8;
    static constexpr double kNominalStepsPerS = 5.5e8;

    std::vector<std::uint32_t> next_;
    std::uint32_t at_ = 0;
};

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

Outcome
measureEndToEnd(const Workload &w, std::uint64_t seed, double seconds)
{
    const std::uint64_t quota = w.quota;
    Outcome out;
    std::vector<double> rates;
    std::vector<double> setups;
    double accesses = 0, run_seconds = 0, peak_rss_mb = 0;
    double calibrated_seconds = 0;
    std::string first_digest;
    std::optional<HostProbe> probe;
    const std::vector<int> cpus = allowedCpus();
    const double end = nowSeconds() + seconds;
    do {
        // Each repetition on the next allowed CPU: on a shared host one
        // core can run 1.6x slower than another for seconds at a time,
        // and a run should sample all of them.
        if (cpus.size() > 1) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[out.attempted % cpus.size()], &one);
            sched_setaffinity(0, sizeof one, &one);
        }
        ++out.attempted;
        cpu::SystemConfig config = w.make(seed);

        double t0 = threadCpuSeconds();
        if (std::vector<std::string> errors = config.validate();
            !errors.empty()) {
            ++out.failed;
            for (const std::string &e : errors)
                out.violations.push_back("invalid config: " + e);
            break;
        }
        auto sys = std::make_unique<cpu::System>(config);
        double t1 = threadCpuSeconds();
        cpu::RunResult r = sys->run(quota);
        double t2 = threadCpuSeconds();

        std::vector<std::string> v = checkRun(*sys, r, quota);
        std::string digest = digestOf(*sys, r);
        if (first_digest.empty())
            first_digest = digest;
        else if (digest != first_digest)
            v.push_back("modelled-result digest " + digest +
                        " differs from the first run's " + first_digest);
        if (!v.empty()) {
            ++out.failed;
            out.violations.insert(out.violations.end(), v.begin(), v.end());
        }
        // Later repetitions reuse the freed heap, so the process peak
        // after them measures allocator fragmentation; the first
        // repetition's peak is the model's footprint, and the probe's
        // buffer is made after it so as to stay out of it.
        if (out.attempted == 1) {
            peak_rss_mb = peakRssMb();
            probe.emplace();
        }
        auto done = static_cast<double>(r.l1Accesses + r.sampledFfAccesses);
        setups.push_back(t1 - t0);
        rates.push_back(done / (t2 - t1));
        accesses += done;
        run_seconds += t2 - t1;
        sys.reset();
        calibrated_seconds += (t2 - t1) * probe->speed();
    } while (nowSeconds() < end);

    // Throughput over all repetitions: total accesses over total run()
    // CPU time, each repetition's time scaled by the host's speed as
    // probed on the same CPU right after it.
    out.metrics["calibrated_accesses_per_s"] = {
        accesses / calibrated_seconds, "1/s"};
    out.metrics["setup_s"] = {median(setups), "s"};
    out.metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
    out.detail["digest"] = first_digest;
    out.detail["accesses_per_cpu_s"] = std::to_string(accesses / run_seconds);
    out.detail["host_speed"] = std::to_string(calibrated_seconds / run_seconds);
    std::string each;
    for (double rate : rates)
        each += (each.empty() ? "" : " ") + std::to_string(rate);
    out.detail["accesses_per_cpu_s_each"] = each;
    return out;
}

CountedRun
countedRun(const cpu::SystemConfig &config, std::uint64_t quota)
{
    CountedRun c;
    cpu::System sys(config);
    double t0 = nowSeconds();
    cpu::RunResult r = sys.run(quota);
    double t1 = nowSeconds();
    c.violations = checkRun(sys, r, quota);
    c.digest = digestOf(sys, r);

    const std::map<std::string, double> tree = statsTree(sys);
    const double acc = static_cast<double>(r.l1Accesses);
    const double total =
        static_cast<double>(r.l1Accesses + r.sampledFfAccesses);
    c.nsPerAccess = (t1 - t0) * 1e9 / total;
    c.accesses = r.l1Accesses;
    c.cycles = r.cycles;

    auto put = [&c](const char *name, double value, const char *unit) {
        c.counts[name] = {value, unit};
    };
    // Every per-access ratio is per detailed access: fast-forward is
    // stat-free by design, so it leaves no counts to divide.
    double l1_probes = sumMatching(
        tree, R"(system\.l1_core\d+\.[^.]+\.(hits|misses))");
    double home_probes = sumMatching(
        tree, R"(system\.[a-z_]+_org\.[a-z0-9_]+\.(hits|misses))");
    put("tlb.l1_probes_per_access", ratio(l1_probes, acc),
        "probes/access");
    put("tlb.l1_miss_ratio",
        ratio(static_cast<double>(r.l1Misses), acc), "ratio");
    put("core.home_probes_per_access", ratio(home_probes, acc),
        "probes/access");
    put("core.l2_hit_ratio",
        ratio(static_cast<double>(r.l2Hits),
              static_cast<double>(r.l2Accesses)),
        "ratio");
    put("core.l2_concurrency_mean", sys.organization().concurrency.mean(),
        "accesses");

    double messages = 0, attempts = 0, grants = 0, zero_retry = 0;
    if (core::Interconnect *f = fabricOf(sys)) {
        messages = f->messagesSent.value();
        attempts = f->setupAttempts.value();
        grants = f->linkGrants.total();
        zero_retry = f->zeroRetryMessages.value();
    }
    put("core.fabric.messages_per_access", ratio(messages, acc),
        "msgs/access");
    put("core.fabric.setup_attempts_per_message", ratio(attempts, messages),
        "attempts/msg");
    put("core.fabric.link_grants_per_message", ratio(grants, messages),
        "grants/msg");
    put("core.fabric.zero_retry_fraction", ratio(zero_retry, messages),
        "ratio");

    double walks = static_cast<double>(r.walks);
    double walk_refs = sumMatching(
        tree, R"(system\.caches\.(l2_hits|llc_hits|dram_accesses))");
    double queue_cycles =
        sumMatching(tree, R"(system\.walker\d+\.queue_cycles)");
    put("mem.walks_per_access", ratio(walks, acc), "walks/access");
    put("mem.walk_refs_per_walk", ratio(walk_refs, walks), "refs/walk");
    put("mem.walker_queue_cycles_per_walk", ratio(queue_cycles, walks),
        "cycles/walk");
    put("core.shootdowns_per_maccess",
        ratio(static_cast<double>(r.shootdowns) * 1e6, acc),
        "count/Maccess");

    const stats::Distribution &streaks = sys.bypassStreaks();
    double step_dispatches = static_cast<double>(streaks.numSamples());
    put("cpu.bypass_streak_mean", streaks.mean(), "accesses");
    put("cpu.step_dispatches_per_access", ratio(step_dispatches, acc),
        "events/access");
    put("cpu.ff_access_fraction",
        ratio(static_cast<double>(r.sampledFfAccesses), total), "ratio");
    put("sim.lambda_pool_peak",
        static_cast<double>(sys.queue().allocatedLambdaEvents()), "events");
    put("mem.page_table_regions",
        static_cast<double>(sys.pageTable().regionsAllocated()), "regions");

    const cpu::System::MemoryAudit audit = sys.memoryAudit();
    auto mb = [](std::size_t bytes) {
        return static_cast<double>(bytes) / (1024.0 * 1024.0);
    };
    put("cpu.mem.org_array_mb", mb(audit.orgArrayBytes), "MB");
    put("cpu.mem.l1_mb", mb(audit.l1Bytes), "MB");
    put("cpu.mem.page_table_mb", mb(audit.pageTableBytes), "MB");
    put("cpu.mem.cache_model_mb", mb(audit.cacheModelBytes), "MB");
    put("cpu.mem.fabric_mb", mb(audit.fabricBytes), "MB");

    // How often the untraced engine makes each call the replay times,
    // per simulated access (detail + fast-forward). The fabric and the
    // walker run inside an L2 translation, so they are not listed.
    c.callsPerAccess = {
        {"workload.ns_per_address", 1.0},
        {"mem.ns_per_pt_translate", acc / total},
        {"tlb.ns_per_l1_lookup", l1_probes / total},
        {"tlb.ns_per_l1_insert", static_cast<double>(r.l1Misses) / total},
        {"sim.ns_per_event", step_dispatches / total},
        {"core.ns_per_l2_translation",
         static_cast<double>(r.l2Accesses) / total},
    };
    return c;
}

} // namespace perfbench
