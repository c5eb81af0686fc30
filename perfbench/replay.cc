/**
 * @file
 * The traced run. A fresh System is warmed by run(1); then each
 * thread's address stream -- continued from exactly where the warm run
 * left it -- is replayed through the System's own layer objects, and
 * every call into a layer is timed from here with steady_clock spans:
 *
 *   address batch     AccessGenerator::nextBatch (16 addresses a span)
 *   page table        PageTable::translate
 *   L1 lookup/insert  L1TlbGroup::lookup / insert
 *   event             EventQueue schedule + dispatch of one step-sized
 *                     delta per access
 *   L2 translation    TlbOrganization::translate + queue drain
 *   fabric message    Interconnect::send to the home slice + drain
 *   walk              a bench-owned PageTableWalker + CacheModel
 *                     replaying the L2-miss stream
 *
 * Each span pays one clock read; the cost of an empty span is measured
 * first and subtracted from every layer. Counts cover every access;
 * span records are kept for one access in kSampleEvery and written out
 * as Chrome trace JSON at the end.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>

#include "bench.hh"
#include "core/nocstar_org.hh"
#include "mem/cache_model.hh"
#include "mem/page_walker.hh"
#include "workload/generator.hh"

namespace perfbench
{

namespace
{

enum Layer : unsigned
{
    kAddress,
    kPtTranslate,
    kL1Lookup,
    kL1Insert,
    kEvent,
    kL2Translation,
    kFabricMessage,
    kWalk,
    kAccess,
    kLayers
};

/** The ns/call metric of each layer (kAccess has none). */
const char *const kLayerMetric[kLayers] = {
    "workload.ns_per_address",    "mem.ns_per_pt_translate",
    "tlb.ns_per_l1_lookup",       "tlb.ns_per_l1_insert",
    "sim.ns_per_event",           "core.ns_per_l2_translation",
    "core.fabric.ns_per_message", "mem.ns_per_walk",
    nullptr};

const char *const kLayerSpan[kLayers] = {
    "address batch", "page table translate", "L1 lookup", "L1 insert",
    "event",         "L2 translation",       "fabric message",
    "walk",          "access"};

/** One access in this many keeps its span records. */
constexpr std::uint64_t kSampleEvery = 64;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct SpanRecord
{
    std::uint64_t access;
    Layer layer;
    CoreId core;
    std::int64_t start;
    std::int64_t end;
};

/** Per-layer span totals plus the sampled span records. */
class Tracer
{
  public:
    /**
     * Start access (or replayed walk) @p id on @p core; decides
     * whether its spans are sampled.
     */
    void
    beginAccess(std::uint64_t id, CoreId core)
    {
        access_ = id;
        core_ = core;
        keep_ = id % kSampleEvery == 0;
        if (keep_)
            accessStart_ = nowNs();
    }

    void
    endAccess()
    {
        if (keep_)
            records_.push_back(
                {access_, kAccess, core_, accessStart_, nowNs()});
    }

    /** Time @p fn as one span of @p layer covering @p calls calls. */
    template <class Fn>
    void
    span(Layer layer, std::uint64_t calls, Fn &&fn)
    {
        std::int64_t t0 = nowNs();
        fn();
        std::int64_t t1 = nowNs();
        ns_[layer] += t1 - t0;
        ++spans_[layer];
        calls_[layer] += calls;
        if (keep_)
            records_.push_back({access_, layer, core_, t0, t1});
    }

    /** Mean ns per call of @p layer less the empty-span cost. */
    double
    nsPerCall(Layer layer, double empty_span_ns) const
    {
        if (calls_[layer] == 0)
            return 0;
        return (static_cast<double>(ns_[layer]) -
                static_cast<double>(spans_[layer]) * empty_span_ns) /
               static_cast<double>(calls_[layer]);
    }

    std::uint64_t calls(Layer layer) const { return calls_[layer]; }

    /** Sampled spans as Chrome trace JSON (one track per core). */
    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            fatal("cannot write spans to ", path);
        std::int64_t origin = records_.empty() ? 0 : records_[0].start;
        for (const SpanRecord &r : records_)
            origin = std::min(origin, r.start);
        out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const SpanRecord &r = records_[i];
            char buf[256];
            std::snprintf(
                buf, sizeof buf,
                "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"access\":%llu,"
                "\"parent\":\"%s\"}}",
                i ? "," : "", kLayerSpan[r.layer], r.core,
                static_cast<double>(r.start - origin) / 1e3,
                static_cast<double>(r.end - r.start) / 1e3,
                static_cast<unsigned long long>(r.access),
                r.layer == kAccess || r.layer == kWalk ? "" : "access");
            out << buf << "\n";
        }
        out << "]}\n";
    }

  private:
    std::int64_t ns_[kLayers] = {};
    std::uint64_t spans_[kLayers] = {};
    std::uint64_t calls_[kLayers] = {};
    std::vector<SpanRecord> records_;
    std::uint64_t access_ = 0;
    CoreId core_ = 0;
    bool keep_ = false;
    std::int64_t accessStart_ = 0;
};

/** Median over batches of the mean cost of an empty span. */
double
emptySpanNs()
{
    constexpr int kBatches = 11;
    constexpr int kPerBatch = 20000;
    std::vector<double> means;
    for (int b = 0; b < kBatches; ++b) {
        std::int64_t sum = 0;
        for (int i = 0; i < kPerBatch; ++i) {
            std::int64_t t0 = nowNs();
            std::int64_t t1 = nowNs();
            sum += t1 - t0;
        }
        means.push_back(static_cast<double>(sum) / kPerBatch);
    }
    std::nth_element(means.begin(), means.begin() + kBatches / 2,
                     means.end());
    return means[kBatches / 2];
}

/** A no-op event: the replay times one schedule + dispatch per access. */
struct TickEvent : Event
{
    void process() override {}
};

/** One hardware thread's address stream, placed as System places it. */
struct Stream
{
    std::unique_ptr<workload::AccessGenerator> gen;
    CoreId core = 0;
    ContextId ctx = 0;
    /** Nominal cycles per access (the engine's burst cost). */
    double perAccess = 0;
    double carry = 0;
    std::uint64_t left = 0;

    Cycle
    burst()
    {
        double cost = perAccess + carry;
        auto whole = static_cast<Cycle>(cost);
        carry = cost - static_cast<double>(whole);
        return whole;
    }
};

/** Streams for every thread, skipped past @p consumed accesses each. */
std::vector<Stream>
makeStreams(const cpu::SystemConfig &config, std::uint64_t consumed,
            std::uint64_t replay)
{
    std::vector<Stream> streams;
    std::vector<Addr> sink(4096);
    unsigned slot = 0;
    for (std::size_t a = 0; a < config.apps.size(); ++a) {
        const workload::WorkloadSpec &spec = config.apps[a].spec;
        for (unsigned t = 0; t < config.apps[a].threads; ++t, ++slot) {
            Stream s;
            s.ctx = static_cast<ContextId>(a);
            s.core = static_cast<CoreId>(slot % config.org.numCores);
            s.gen = std::make_unique<workload::AccessGenerator>(
                spec, s.ctx, t, config.seed);
            s.perAccess = spec.instructionsPerAccess * spec.baseCpi +
                          spec.dataStallPerAccess;
            s.left = replay;
            for (std::uint64_t k = 0; k < consumed; k += sink.size())
                s.gen->nextBatch(sink.data(),
                                 std::min<std::uint64_t>(sink.size(),
                                                         consumed - k));
            streams.push_back(std::move(s));
        }
    }
    return streams;
}

/**
 * The storm settings' context switches and remap ops, replayed untimed
 * at the cadence (in accesses) the untraced run saw them, so the L1
 * arrays see the same flushes and shootdowns. Mirrors the System's
 * context-switch event and its stormOp(), less the IPI pause, which
 * only delays the sharers.
 */
class StormReplay
{
  public:
    StormReplay(cpu::System &sys, const std::vector<Stream> &streams,
                const CountedRun &untraced)
        : sys_(sys)
    {
        const cpu::SystemConfig &c = sys.config();
        auto every = [&](Cycle interval) -> std::uint64_t {
            if (interval == 0 || untraced.cycles < interval)
                return 0;
            return untraced.accesses / (untraced.cycles / interval);
        };
        flushEvery_ = every(c.contextSwitchInterval);
        stormEvery_ = every(c.stormRemapInterval);
        ctx_ = static_cast<ContextId>(c.apps.size() - 1);
        for (const Stream &s : streams)
            if (s.ctx == ctx_ && std::find(sharers_.begin(), sharers_.end(),
                                           s.core) == sharers_.end())
                sharers_.push_back(s.core);
    }

    /** Called after the @p n-th replayed access. */
    void
    afterAccess(std::uint64_t n)
    {
        if (flushEvery_ && n % flushEvery_ == 0) {
            for (CoreId c = 0; c < sys_.config().org.numCores; ++c)
                sys_.l1Of(c).invalidateAll();
            sys_.organization().flushAll();
        }
        if (stormEvery_ && n % stormEvery_ == 0)
            stormOp();
    }

  private:
    void
    stormOp()
    {
        const cpu::SystemConfig &c = sys_.config();
        std::uint64_t regions =
            std::max<std::uint64_t>(1, c.apps[ctx_].spec.warmPages / 512);
        Addr base = workload::AccessGenerator::sharedBase(ctx_) +
                    ((cursor_++ % regions) << pageShift(PageSize::TwoMB));
        unsigned invalidated =
            sys_.pageTable().setRegionSuperpage(ctx_, base, promote_);
        promote_ = !promote_;
        unsigned messages = std::min<unsigned>(c.stormMessagesPerOp,
                                               std::max(1u, invalidated));
        for (unsigned m = 0; m < messages; ++m)
            sys_.organization().shootdown(
                sharers_[m % sharers_.size()], ctx_,
                base + (static_cast<Addr>(m) << pageShift(PageSize::FourKB)),
                sharers_, sys_.queue().curCycle(), nullptr);
        sys_.queue().run();
    }

    cpu::System &sys_;
    std::uint64_t flushEvery_ = 0;
    std::uint64_t stormEvery_ = 0;
    ContextId ctx_ = 0;
    std::vector<CoreId> sharers_;
    std::uint64_t cursor_ = 0;
    bool promote_ = true;
};

struct MissRecord
{
    CoreId core;
    ContextId ctx;
    Addr vaddr;
};

} // namespace

void
tracedReplay(const Workload &w, const cpu::SystemConfig &config,
             const CountedRun &untraced, const std::string &spans_path,
             Outcome &out)
{
    const double empty_ns = emptySpanNs();

    cpu::System sys(config);
    cpu::RunResult warm = sys.run(1);
    std::uint64_t threads = 0;
    for (const cpu::AppConfig &app : config.apps)
        threads += app.threads;
    std::vector<Stream> streams = makeStreams(
        config, (warm.l1Accesses + warm.sampledFfAccesses) / threads,
        w.replayAccesses);

    EventQueue &queue = sys.queue();
    mem::PageTable &table = sys.pageTable();
    core::TlbOrganization &org = sys.organization();
    auto *nocstar = dynamic_cast<core::NocstarOrg *>(&org);
    core::Interconnect *fabric = nocstar ? &nocstar->fabric() : nullptr;

    StormReplay storm(sys, streams, untraced);
    Tracer tracer;
    TickEvent tick;
    std::vector<MissRecord> walked;
    std::uint64_t accesses = 0, misses = 0;
    bool lost_completion = false;
    std::array<Addr, 16> batch;

    std::int64_t replay_start = nowNs();
    for (bool any = true; any;) {
        // Round-robin in address-batch quanta, as fast-forward does, so
        // shared structures see the threads' streams interleaved.
        any = false;
        for (Stream &s : streams) {
            auto n = static_cast<unsigned>(
                std::min<std::uint64_t>(batch.size(), s.left));
            if (n == 0)
                continue;
            any = true;
            s.left -= n;
            tlb::L1TlbGroup &l1 = sys.l1Of(s.core);
            tracer.beginAccess(accesses, s.core);
            tracer.span(kAddress, n,
                        [&] { s.gen->nextBatch(batch.data(), n); });
            for (unsigned k = 0; k < n; ++k) {
                if (k > 0)
                    tracer.beginAccess(accesses, s.core);
                ++accesses;
                Addr vaddr = batch[k];
                mem::Translation t;
                tracer.span(kPtTranslate, 1,
                            [&] { t = table.translate(s.ctx, vaddr); });
                PageNum vpn = pageNumber(vaddr, t.size);
                const tlb::TlbEntry *hit = nullptr;
                tracer.span(kL1Lookup, 1,
                            [&] { hit = l1.lookup(s.ctx, vpn, t.size); });
                if (!hit) {
                    ++misses;
                    core::TranslationResult result;
                    bool done = false;
                    tracer.span(kL2Translation, 1, [&] {
                        org.translate(
                            s.core, s.ctx, vaddr, queue.curCycle(),
                            [&result, &done](
                                const core::TranslationResult &r) {
                                result = r;
                                done = true;
                            });
                        queue.run();
                    });
                    lost_completion |= !done;
                    if (fabric)
                        tracer.span(kFabricMessage, 1, [&] {
                            fabric->send(s.core,
                                         org.homeArrayOf(s.core, vaddr),
                                         queue.curCycle(), [](Cycle) {});
                            queue.run();
                        });
                    tracer.span(kL1Insert, 1,
                                [&] { l1.insert(result.entry); });
                    if (result.walked)
                        walked.push_back({s.core, s.ctx, vaddr});
                }
                Cycle next = queue.curCycle() + s.burst();
                tracer.span(kEvent, 1, [&] {
                    queue.schedule(&tick, next);
                    queue.run();
                });
                tracer.endAccess();
                storm.afterAccess(accesses);
            }
        }
    }
    std::int64_t replay_ns = nowNs() - replay_start;

    // The walker layer: the L2-miss stream again, through a bench-owned
    // walker and cache model over the System's page table. One untimed
    // functional pass first, so the timed pass sees warm PSCs and lines.
    mem::CacheModel caches("perfbench_caches", config.org.numCores,
                           config.caches);
    std::vector<std::unique_ptr<mem::PageTableWalker>> walkers(
        config.org.numCores);
    auto walkerFor = [&](const MissRecord &m) -> mem::PageTableWalker & {
        CoreId c = org.walkCoreFor(m.core, m.vaddr);
        if (!walkers[c])
            walkers[c] = std::make_unique<mem::PageTableWalker>(
                "perfbench_walker", c, table, caches, config.walker);
        return *walkers[c];
    };
    Cycle now = queue.curCycle();
    for (const MissRecord &m : walked)
        walkerFor(m).warmWalk(m.ctx, m.vaddr, now);
    std::uint64_t walk_id = 0;
    for (const MissRecord &m : walked) {
        mem::PageTableWalker &walker = walkerFor(m);
        now = std::max(now, walker.busyUntil());
        mem::WalkResult result;
        tracer.beginAccess(walk_id++, m.core);
        tracer.span(kWalk, 1, [&] {
            result = walker.walk(m.ctx, m.vaddr, m.core, now);
        });
        now += result.totalLatency();
    }

    ++out.attempted;
    if (lost_completion) {
        ++out.failed;
        out.violations.push_back(
            "a replayed L2 translation never completed");
    }

    double attributed = 0;
    for (unsigned l = 0; l < kAccess; ++l) {
        auto layer = static_cast<Layer>(l);
        double ns = tracer.nsPerCall(layer, empty_ns);
        out.metrics[kLayerMetric[l]] = {ns, "ns"};
        auto calls = untraced.callsPerAccess.find(kLayerMetric[l]);
        if (calls != untraced.callsPerAccess.end())
            attributed += ns * calls->second;
    }
    double traced_ns_per_access =
        static_cast<double>(replay_ns) / static_cast<double>(accesses);
    out.metrics["cpu.ns_per_access_unattributed"] = {
        untraced.nsPerAccess - attributed, "ns"};
    out.metrics["trace_overhead_ratio"] = {
        traced_ns_per_access / untraced.nsPerAccess, "ratio"};
    out.metrics["trace.empty_span_ns"] = {empty_ns, "ns"};

    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g",
                  static_cast<double>(misses) /
                      static_cast<double>(accesses));
    out.detail["replay_l1_miss_ratio"] = buf;
    out.detail["replay_accesses"] = std::to_string(accesses);
    for (unsigned l = 0; l < kAccess; ++l)
        out.detail[std::string("calls:") + kLayerMetric[l]] =
            std::to_string(tracer.calls(static_cast<Layer>(l)));
    if (!spans_path.empty()) {
        out.detail["spans"] = spans_path;
        tracer.write(spans_path);
    }
}

} // namespace perfbench
