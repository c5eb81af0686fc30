/**
 * @file
 * Full-system model: cores generating address streams through per-core
 * L1 TLBs, a last-level TLB organization, page-table walkers and the
 * walk-reference cache hierarchy -- the simulation the paper's Figures
 * 2, 4-6 and 12-19 are drawn from.
 *
 * Timing model: in-order cores; address translation is on the critical
 * path of every memory access (paper §I), so an L1 TLB miss stalls the
 * issuing thread until the organization returns the translation. All
 * other per-access costs (base CPI, data-side stalls) are per-workload
 * constants, identical across organizations, so speedups isolate the
 * translation path exactly as the paper's methodology does.
 */

#ifndef NOCSTAR_CPU_SYSTEM_HH
#define NOCSTAR_CPU_SYSTEM_HH

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/organization.hh"
#include "energy/translation_energy.hh"
#include "mem/cache_model.hh"
#include "mem/page_table.hh"
#include "mem/page_walker.hh"
#include "sim/event_queue.hh"
#include "sim/latency_histogram.hh"
#include "sim/shard.hh"
#include "tlb/l1_tlb.hh"
#include "workload/generator.hh"
#include "workload/spec.hh"
#include "workload/trace.hh"

namespace nocstar::core
{
class Interconnect;
}

namespace nocstar::cpu
{

/** One application instance in the mix. */
struct AppConfig
{
    workload::WorkloadSpec spec;
    unsigned threads = 1;
    /**
     * If non-empty, thread t replays this trace's thread-t records
     * (looping) instead of drawing from the synthetic generator; the
     * spec still provides the timing parameters (CPI, data stalls)
     * and the prewarm footprint hints.
     */
    std::string traceFile;
};

/**
 * SMARTS-style sampled simulation: long stretches of the access stream
 * run through a functional fast-forward engine (TLB / page-table /
 * cache state updates only -- no event queue, no arbitration, no
 * stats), interleaved with full-detail measurement windows whose
 * per-window samples aggregate into a mean and a 95 % confidence
 * interval. Off (windows == 0) leaves every run path byte-identical
 * to a build without the feature.
 */
struct SamplingConfig
{
    /** Detail measurement windows (0 disables sampling). */
    unsigned windows = 0;
    /** Per-thread detailed accesses measured per window. */
    std::uint64_t detailAccesses = 0;
    /** Mean per-thread accesses fast-forwarded between windows. */
    std::uint64_t ffAccesses = 0;
    /** Per-thread accesses fast-forwarded before the first window. */
    std::uint64_t warmupAccesses = 0;
    /** Seed of the window-placement jitter stream. */
    std::uint64_t seed = 1;

    bool enabled() const { return windows > 0; }
};

/** Full system configuration. */
struct SystemConfig
{
    core::OrgConfig org;
    tlb::L1TlbConfig l1;
    mem::CacheModelConfig caches;
    mem::WalkerConfig walker;

    /** Applications; context id == index into this vector. */
    std::vector<AppConfig> apps;

    unsigned smtPerCore = 1;
    /** Disable transparent superpages (Fig 12's 4 KB-only runs). */
    bool superpages = true;
    std::uint64_t seed = 1;

    /** Cycles charged to a core per foreign PTE fill (Fig 17). */
    Cycle pollutionPenalty = 15;

    /** Flush all TLBs this often (0 = never; storm runs use 1M). */
    Cycle contextSwitchInterval = 0;
    /** Storm microbenchmark remap period (0 = off). */
    Cycle stormRemapInterval = 0;

    /**
     * Deterministic sharded execution: partition the cores into this
     * many shards, each owning a private timing-wheel EventQueue for
     * its threads' step events, run in parallel inside conservative
     * lookahead windows derived from the organization's minimum
     * completion latency (see DESIGN.md, "conservative lookahead").
     * 0 (the default) selects the legacy single-queue engine,
     * bit-for-bit the pre-shard simulator. Any value >= 1 selects the
     * window engine, whose results are byte-identical at every shard
     * count -- so `--shards 1` is the exactness baseline for
     * `--shards N`, and N is purely a wall-clock knob.
     */
    unsigned shards = 0;
    /** Timed slice-invalidation messages modelled per storm op. */
    unsigned stormMessagesPerOp = 16;
    /** Cycles an IPI pauses each sharer thread. */
    Cycle ipiPauseCycles = 30;

    /**
     * Slice-hotspot microbenchmark (paper §V, "TLB slice
     * microbenchmark"): if >= 0, every thread directs a fraction of
     * its accesses at a small dedicated pool homed on this slice,
     * stressing that slice's ports and paths while the rest of the
     * stream stays normal.
     */
    int hotspotSlice = -1;
    /** Fraction of accesses redirected at the hotspot slice. */
    double hotspotFraction = 0.3;
    /** Pages in the hotspot pool (kept below one slice's capacity). */
    unsigned hotspotPages = 256;

    /**
     * If non-empty, capture every generated address as a trace record
     * keyed by global thread index and save it here after run().
     * Intended for single-app systems whose traces are replayed via
     * AppConfig::traceFile.
     */
    std::string captureTracePath;

    /**
     * Snapshot the whole stats tree every N cycles during run()
     * (0 = off). Snapshots are collected in memory and emitted as the
     * "epochs" array of the stats JSON document.
     */
    Cycle statsEpochInterval = 0;
    /**
     * Reset all stats after each epoch snapshot, turning snapshots
     * into per-interval deltas instead of cumulative totals.
     */
    bool statsEpochReset = false;
    /**
     * If non-empty, append the stats JSON document (one line) to this
     * file after run(). One line per run: a single-run file is a valid
     * JSON document, a sweep's file is JSONL.
     */
    std::string statsJsonPath;

    /**
     * Record per-outcome translation-latency histograms (exact-rank
     * p50/p90/p99/p99.9 over log buckets, <= 1.6 % relative error):
     * one histogram per outcome class -- L1 hit, local L2 hit, remote
     * L2 hit, page walk, ECC re-walk, degraded (mesh-fallback) path --
     * under the "latency" stats child group. Off by default: the
     * group is not even created, so the stats tree and every hot path
     * are byte-identical to a build without the feature.
     */
    bool latencyStats = false;
    /**
     * Additionally keep one all-outcomes histogram per context (the
     * future tenant key) under latency/ctx. Implies latencyStats.
     */
    bool latencyPerContext = false;
    /**
     * Sample observability counter tracks (event-queue depth, in-flight
     * L2 misses, fabric links held, shard window width, busy shard
     * lanes, deferred misses) into the structured trace recorder at
     * most every N cycles (0 = off). Needs an active recorder; samples
     * render as Perfetto "ph":"C" counter tracks.
     */
    Cycle counterInterval = 0;
    /**
     * Emit a one-line wall-clock progress heartbeat to stderr at this
     * period in seconds (< 0 = off, the default; 0 = every check
     * point). When enabled, one final line is always emitted at the
     * end of run(). Zero hot-path cost when off: the legacy engine
     * installs no event at all and the window engine's check is one
     * null-pointer test per window.
     */
    double progressSeconds = -1.0;

    /** Sampled-simulation parameters (off unless windows > 0). */
    SamplingConfig sampling;

    /**
     * If non-empty, save a checkpoint of the warmed functional state
     * here -- taken at the quiescent boundary after prewarm and any
     * sampling warmup, before the first detailed access -- and then
     * continue running normally.
     */
    std::string checkpointSavePath;
    /**
     * If non-empty, restore the warmed state from this checkpoint
     * instead of re-running prewarm / warmup. The checkpoint's config
     * fingerprint must match this configuration.
     */
    std::string checkpointRestorePath;

    /**
     * Field-level configuration errors, one message per violation,
     * including everything OrgConfig::validate() reports (prefixed
     * "org: "). The System constructor fatal()s with the full list.
     */
    std::vector<std::string> validate() const;
};

/** Aggregated outcome of one simulation. */
struct RunResult
{
    /** Slowest thread's finish time (barrier runtime). */
    Cycle cycles = 0;
    /**
     * Mean thread finish time: the fixed-work analogue of fixed-time
     * throughput, used for speedup comparisons because the max is
     * noisy at short run lengths.
     */
    double meanCycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0;

    std::vector<Cycle> appCycles;
    std::vector<double> appIpc;

    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t walks = 0;
    double avgL2AccessLatency = 0;
    double avgWalkLatency = 0;
    double l2MissRate = 0;

    double energyPj = 0;
    double beyondL2Fraction = 0;

    double fabricAvgLatency = 0; ///< NOCSTAR only
    double fabricNoContention = 0; ///< NOCSTAR only
    // Scaling-figure telemetry (NOCSTAR only; zero elsewhere).
    std::uint64_t fabricSetupAttempts = 0;
    std::uint64_t fabricSetupFailures = 0;
    /** setupFailures / setupAttempts. */
    double fabricRetryRate = 0;
    /**
     * Priority-rotation fairness: worst and mean per-source-tile p99
     * grant wait in cycles. Populated only when
     * OrgConfig::recordGrantWait was set.
     */
    double fabricGrantWaitP99Max = 0;
    double fabricGrantWaitP99Mean = 0;

    std::uint64_t shootdowns = 0;
    double avgShootdownLatency = 0;

    // Fault-injection outcomes (all zero without a fault plan).
    /** Fabric outages begun + grants lost. */
    std::uint64_t faultsInjected = 0;
    /** Messages that fell back to the store-and-forward mesh. */
    std::uint64_t degradedMessages = 0;
    /** degradedMessages over all fabric messages. */
    double degradedFraction = 0;
    /** Hits retried for slice ECC + walks redone for table ECC. */
    std::uint64_t eccRewalks = 0;

    /**
     * Fractions of L2 accesses in the paper's concurrency buckets:
     * [1], [2-4], [5-8], [9-12], [13-16], [17-20], [21-24], [25-28],
     * [29+] (Fig 5/6).
     */
    std::vector<double> concurrencyBuckets;
    std::vector<double> sliceConcurrencyBuckets;

    // Sampled-simulation outputs (all zero unless sampling was on).
    bool sampled = false;
    unsigned sampleWindows = 0;
    /** Accesses fast-forwarded functionally instead of simulated. */
    std::uint64_t sampledFfAccesses = 0;
    /** Mean per-window IPC proxy (window instructions / window cycles). */
    double sampledIpcMean = 0;
    /** 95 % confidence half-width around sampledIpcMean (Student t). */
    double sampledIpcCi95 = 0;
    /** Mean per-window average L2 access latency. */
    double sampledLatencyMean = 0;
    double sampledLatencyCi95 = 0;
};

/**
 * The simulated machine.
 */
class System : public stats::StatGroup
{
  public:
    explicit System(const SystemConfig &config);
    ~System() override;

    /**
     * Run until every thread has issued @p accesses_per_thread memory
     * accesses.
     */
    RunResult run(std::uint64_t accesses_per_thread);

    core::TlbOrganization &organization() { return *org_; }
    mem::PageTable &pageTable() { return *pageTable_; }
    EventQueue &queue() { return queue_; }
    tlb::L1TlbGroup &l1Of(CoreId core) { return *l1s_.at(core); }
    const SystemConfig &config() const { return config_; }

    /** Bucket a concurrency Distribution into the paper's 9 bins. */
    static std::vector<double>
    paperBuckets(const stats::Distribution &dist);

    /**
     * Run-ahead coverage: one sample per dispatched step event,
     * valued at the L1 hits that dispatch ran ahead of the clock.
     */
    const stats::Distribution &bypassStreaks() const
    {
        return bypassStreaks_;
    }

    /**
     * Wall-clock split of the sharded engine's run loop (all zero on
     * the legacy engine), for the Amdahl accounting in
     * BENCH_shard.json: where does a sharded run actually spend host
     * time? Busy counters are summed across shard workers, so they
     * can exceed the wall counters on a parallel crew; barrierNanos
     * is the caller thread's wait after finishing its own shard-0
     * work, i.e. the price of load imbalance.
     */
    struct ShardTiming
    {
        /** Window-loop iterations. */
        std::uint64_t windows = 0;
        /** Phase A wall time (caller side of crew barriers). */
        std::uint64_t stepWallNanos = 0;
        /** Phase A per-shard busy time, summed over shards. */
        std::uint64_t stepBusyNanos = 0;
        /** Parallel pre-probe wall time. */
        std::uint64_t probeWallNanos = 0;
        /** Pre-probe per-shard busy time, summed over shards. */
        std::uint64_t probeBusyNanos = 0;
        /** Caller wait at barriers beyond its own shard-0 work. */
        std::uint64_t barrierNanos = 0;
        /** Mailbox drain + replay injection + lane folds. */
        std::uint64_t drainNanos = 0;
        /** Serial phase B (main-queue uncore) wall time. */
        std::uint64_t uncoreNanos = 0;
        /** Misses whose home-array probe ran on the shard crew. */
        std::uint64_t preProbes = 0;
        /** Misses deferred to window boundaries in total. */
        std::uint64_t deferredMisses = 0;
    };

    const ShardTiming &shardTiming() const { return timing_; }

    /**
     * Write the machine-readable stats document for this system as a
     * single JSON object: `{"epochs":[...],"final":{<stats tree>}}`.
     * Epoch entries are `{"epoch":k,"cycle":c,"stats":{...}}`.
     */
    void dumpStatsJson(std::ostream &out) const;

    /**
     * Per-component resident-byte accounting of the big simulation
     * structures, for the scaling bench's memory audit. Host-side
     * introspection only: taking it never perturbs simulated state.
     */
    struct MemoryAudit
    {
        /** SoA arrays of every L2 slice / bank / private array. */
        std::size_t orgArrayBytes = 0;
        /** SoA arrays of all per-core L1 TLB groups. */
        std::size_t l1Bytes = 0;
        /** Page-table region pool, index map and memo. */
        std::size_t pageTableBytes = 0;
        /** Walk-reference line stores (per-core L2s + LLC). */
        std::size_t cacheModelBytes = 0;
        /** Fabric arbitration state + path tables (NOCSTAR only). */
        std::size_t fabricBytes = 0;
        /** Serialized size of the last checkpoint written (0 if none). */
        std::size_t checkpointBytes = 0;

        std::size_t
        total() const
        {
            return orgArrayBytes + l1Bytes + pageTableBytes +
                   cacheModelBytes + fabricBytes + checkpointBytes;
        }
    };

    MemoryAudit memoryAudit() const;

  private:
    struct HwThread
    {
        /** Addresses pre-drawn from the source per nextBatch() call. */
        static constexpr unsigned addrBatch = 16;

        unsigned app;
        /** Creation-order index among this app's threads. */
        unsigned indexInApp;
        ContextId ctx;
        CoreId core;
        std::unique_ptr<workload::AddressSource> gen;
        std::uint64_t accessesDone = 0;
        /** Per-thread stream for hotspot redirection draws. */
        std::unique_ptr<Random> hotspotRng;
        std::uint64_t quota = 0;
        std::uint64_t instructions = 0;
        double cycleCarry = 0;
        Cycle pendingStall = 0;
        Cycle finishedAt = 0;
        bool finished = false;
        /**
         * Batched address buffer: refilled from gen->nextBatch()
         * (capped at the remaining quota so the source's stream
         * position stays exactly where per-access next() calls would
         * leave it), drained one address per access.
         */
        std::array<Addr, addrBatch> batch;
        unsigned batchPos = 0;
        unsigned batchLen = 0;
        /**
         * A run-ahead found this thread's next access to miss the L1;
         * it is issued when the step event reaches its cycle.
         */
        bool heldMiss = false;
        /** The held access was already probed and counted (its region
         * was mapped); otherwise the issue translates and probes it. */
        bool heldProbed = false;
        Addr heldVaddr = 0;
    };

    /**
     * System events whose handlers read or write what an L1 hit
     * touches (L1 arrays, pending stalls, stats, finish state): a
     * run-ahead stops before the earliest one still scheduled.
     */
    enum SysEvent : unsigned
    {
        ContextSwitchEvent,
        StormEvent,
        EpochEvent,
        CounterEvent,
        ProgressEvent,
        NumSysEvents,
    };

    /**
     * Intrusive per-thread step event (gem5 idiom): one reusable
     * instance per hardware thread, rescheduled for every access, so
     * the per-access issue/resume path never touches the lambda-event
     * pool.
     */
    struct StepEvent : Event
    {
        System *sys = nullptr;
        std::size_t threadIndex = 0;

        void
        process() override
        {
            if (sys->split_)
                sys->shardStep(threadIndex);
            else
                sys->step(threadIndex);
        }
    };

    /**
     * An L1 TLB miss raised during a shard's parallel window, parked
     * until the window boundary: the organization (shared uncore
     * state) only runs serially in the drain phase, where the miss is
     * replayed at its original cycle in canonical (cycle, thread)
     * order.
     */
    struct DeferredMiss
    {
        Cycle cycle = 0;
        std::uint32_t thread = 0;
        Addr vaddr = 0;
        /**
         * True when the issuing shard already resolved the page size
         * and probed (and counted) the L1 miss; false when the page
         * table region was unallocated at probe time, which proves the
         * access misses every L1 array, so the whole access -- probe,
         * counting and all -- replays at the boundary instead.
         */
        bool probed = false;
    };

    /** A thread resumption produced by a completion during the serial
     * phase, delivered to the owning shard at the next window start. */
    struct PendingResume
    {
        std::size_t thread;
        Cycle when;
    };

    /** Per-shard stat accumulators, folded (summed as integers, then
     * added once) at every window boundary so the Scalar doubles stay
     * bit-identical at every shard count. The wall-clock fields are
     * host telemetry, not simulation state: they accumulate across
     * the whole run and never feed back into results. */
    struct ShardLane
    {
        std::uint64_t l1Accesses = 0;
        std::uint64_t l1Misses = 0;
        /** Busy nanoseconds running this shard's phase A windows. */
        std::uint64_t stepNanos = 0;
        /** Busy nanoseconds running this shard's pre-probe lists. */
        std::uint64_t probeNanos = 0;
        /** Pre-probes this shard executed. */
        std::uint64_t probes = 0;
        /**
         * L1 hits per context this window (sized only when per-context
         * latency histograms are on), folded in context order at the
         * boundary so per-ctx hit counts are shard-count invariant.
         */
        std::vector<std::uint64_t> hitsByCtx;
    };

    /** Outcome class of one translation, for the latency histograms.
     * Classification priority on a completed miss: degraded >
     * eccRewalk > walked > remote hit > local hit. */
    enum class LatClass : unsigned
    {
        L1Hit,       ///< L1 TLB hit (latency 0: overlapped with cache)
        L2HitLocal,  ///< LLTLB hit in a co-located slice/bank
        L2HitRemote, ///< LLTLB hit that crossed the interconnect
        Walk,        ///< page walk on the critical path
        EccRewalk,   ///< ECC-corrupt read forced a retry / re-walk
        Degraded,    ///< a leg fell back to the store-and-forward mesh
    };

    /**
     * The "latency" stats child group: per-outcome translation-latency
     * histograms plus (optionally) one all-outcomes histogram per
     * context. Created only when SystemConfig::latencyStats (or
     * latencyPerContext) is set, so the stats tree is unchanged
     * otherwise.
     */
    struct LatencyStats : stats::StatGroup
    {
        LatencyStats(stats::StatGroup *parent, std::size_t contexts);

        stats::Histogram l1Hit;
        stats::Histogram l2HitLocal;
        stats::Histogram l2HitRemote;
        stats::Histogram walk;
        stats::Histogram eccRewalk;
        stats::Histogram degraded;
        /** Non-null only with latencyPerContext: "ctx" child group. */
        std::unique_ptr<stats::StatGroup> ctxGroup;
        /** One all-outcomes histogram per context (may be empty). */
        std::vector<std::unique_ptr<stats::Histogram>> byCtx;

        stats::Histogram &of(LatClass c);
    };

    /** Wall-clock heartbeat state (allocated only when enabled). */
    struct Progress
    {
        std::chrono::steady_clock::time_point start;
        std::chrono::steady_clock::time_point lastEmit;
        Cycle lastCycle = 0;
        std::uint64_t lastAccesses = 0;
        std::uint64_t totalQuota = 0;
    };

    /** A crew worker parked on (or woke from) the window condvar. */
    struct ParkEvent
    {
        unsigned shard;
        bool parked;
        Cycle at;
    };

    /** The "sampling" stats child group, created only when sampling
     * is enabled so the stats tree is unchanged otherwise. */
    struct SamplingStats : stats::StatGroup
    {
        explicit SamplingStats(stats::StatGroup *parent);

        stats::Scalar windows;
        stats::Scalar ffAccesses;
        stats::Scalar ipcMean;
        stats::Scalar ipcCi95;
        stats::Scalar latencyMean;
        stats::Scalar latencyCi95;
    };

    /** Preload steady-state resident translations (see system.cc). */
    void prewarm();

    /**
     * The one state-touching install path shared by prewarm() and the
     * fast-forward engine: home L2 structure via the organization's
     * preload hooks, optionally the requesting core's L1 group.
     */
    void warmInstall(CoreId core, ContextId ctx, Addr vaddr,
                     const mem::Translation &t, bool into_l1);

    /**
     * Functionally fast-forward every unfinished thread by
     * @p accesses each: batched addresses stream through the L1 / L2 /
     * page-table / walker-cache state updates only -- no event queue,
     * no arbitration, no timing, no stats -- then the clock advances
     * by the threads' nominal (stall-free) cycles so retention TTLs
     * age as they would under detailed simulation.
     */
    void fastForward(std::uint64_t accesses);

    /** One functional access of @p thread at clock @p now. */
    void fastForwardAccess(HwThread &thread, Cycle now);

    /** Run the configured engine until all queues drain. */
    void drive();

    /** Schedule the per-run events and stats plumbing shared by the
     * detailed and sampled run paths. */
    void beginRun(std::uint64_t total_quota);

    /** Build the RunResult from the accumulated state (run() tail). */
    RunResult finishRun();

    /** The sampled-simulation run loop (sampling.enabled()). */
    RunResult runSampled(std::uint64_t accesses_per_thread);

    /**
     * FNV-1a fingerprint over every configuration field that shapes
     * the functional state a checkpoint carries (array geometry,
     * stream seeds, workload layout). Guards restore against a
     * mismatched configuration.
     */
    std::uint64_t configFingerprint() const;

    /** Serialize the warmed functional state to @p path. */
    void saveCheckpoint(const std::string &path);

    /** Restore state saved by saveCheckpoint() (fatal on mismatch). */
    void restoreCheckpoint(const std::string &path);

    /**
     * Dispatch of @p thread_index's step event: issue the miss a
     * run-ahead held for this cycle, or else runAhead() from here.
     */
    void step(std::size_t thread_index);

    /**
     * Run @p thread_index's accesses from cycle @p now: the first at
     * the current cycle if @p dispatched (the step event's own
     * access), then every L1 hit ahead of the clock until an access
     * misses, the quota runs out or runAheadBound() is reached; then
     * schedule one step event there. A miss refill calls this with
     * the resumed thread's first access cycle.
     */
    void runAhead(std::size_t thread_index, Cycle now, bool dispatched);

    /**
     * Last cycle (exclusive) up to which a thread dispatched at
     * @p now may run accesses ahead: the earliest scheduled System
     * event and, on an SMT core, the next step of any sibling; @p now
     * itself (no run-ahead) while a sibling's miss is in flight or
     * when foreign PTE fills may stall the thread at any time.
     */
    Cycle runAheadBound(std::size_t thread_index, Cycle now) const;

    /** Send @p thread_index's L1 miss at cycle @p now to the org. */
    void issueMiss(std::size_t thread_index, Addr vaddr, Cycle now);

    /**
     * Allocate, probe and count an access whose region was unmapped
     * when it was drawn: such an access cannot hit any L1 array.
     */
    void probeFirstTouch(const HwThread &thread, Addr vaddr);

    /**
     * Note that System event @p e is scheduled at @p when, or that it
     * has fired and is not rearmed (@p when = invalidCycle).
     */
    void armSysEvent(SysEvent e, Cycle when);

    /**
     * Sharded-engine analogue of step(), run on a shard worker during
     * the parallel window phase: hits execute inline against
     * shard-owned state only (thread, per-core L1 arrays, per-shard
     * lanes, read-only page-table peeks); any miss parks the thread in
     * the deferred-miss mailbox for serial replay.
     */
    void shardStep(std::size_t thread_index);

    /**
     * Replay one deferred miss through the organization (serial).
     * @param probe the home-array probe result the shard crew took in
     * the parallel pre-probe phase, or nullptr to probe live.
     */
    void replayMiss(const DeferredMiss &miss,
                    const core::ProbeResult *probe = nullptr);

    /** Window loop of the sharded engine (replaces queue_.run()). */
    void driveSharded();

    /** Schedule the next step of @p thread at @p when. */
    void scheduleStep(std::size_t thread_index, Cycle when);

    /** Burst cost (instructions + data stalls) for one access. */
    Cycle burstCycles(HwThread &thread);

    Addr nextAddress(HwThread &thread);

    void installContextSwitchEvent();
    void installStormEvent();
    void stormOp();
    void installEpochEvent();

    /**
     * Classify and record one completed L1-miss translation into the
     * latency histograms (no-op when they are off). @p issued is the
     * cycle the access missed in the L1.
     */
    void recordMissLatency(std::size_t thread_index,
                           const core::TranslationResult &result,
                           Cycle issued);

    /** Sample the observability counter tracks at cycle @p at (the
     * caller has already checked recording() and the interval). */
    void sampleCounters(Cycle at);

    /** Periodic counter-sampling / heartbeat events (legacy engine). */
    void installCounterEvent();
    void installProgressEvent();

    /** Emit a heartbeat line if the wall-clock period elapsed (or
     * @p force); no-op when the heartbeat is off. */
    void maybeProgress(bool force = false);

    /** Drain crew park/wake events into the trace recorder (serial
     * phases only; workers may append concurrently). */
    void flushParkEvents();

    SystemConfig config_;
    EventQueue queue_;
    std::unique_ptr<mem::PageTable> pageTable_;
    std::unique_ptr<mem::CacheModel> caches_;
    std::vector<std::unique_ptr<mem::PageTableWalker>> walkers_;
    std::vector<std::unique_ptr<tlb::L1TlbGroup>> l1s_;
    energy::TranslationEnergyModel energy_;
    std::unique_ptr<core::TlbOrganization> org_;
    std::vector<HwThread> threads_;
    /** Events are pinned (non-movable), hence the deque. */
    std::deque<StepEvent> stepEvents_;
    std::vector<std::vector<std::size_t>> threadsOfCore_;
    /** Cores running each context's threads (storm sharer lists). */
    std::vector<std::vector<CoreId>> ctxSharers_;
    /** Loaded replay traces (one per app; own the record storage). */
    std::vector<std::unique_ptr<workload::TraceFile>> traces_;
    /** Capture sink when captureTracePath is set. */
    std::unique_ptr<workload::TraceFile> capture_;
    /** Atomic because shard workers retire threads concurrently; only
     * read in serial phases, so relaxed ops suffice. */
    std::atomic<unsigned> unfinished_{0};
    Random rng_;

    /**
     * False when a thread's pending stall can change at any time (a
     * walk on another core's behalf fills this core's cache and
     * charges the pollution penalty): then every access is one step.
     */
    bool runAhead_ = true;
    /** Scheduled cycle of each System event (invalidCycle if none). */
    std::array<Cycle, NumSysEvents> sysEventAt_;
    /** Minimum of sysEventAt_. */
    Cycle horizon_ = invalidCycle;

    // Sharded-engine state (empty/null when config_.shards == 0).
    /** True when the window engine replaces the legacy single queue. */
    bool split_ = false;
    /** One private step-event queue per shard. */
    std::vector<std::unique_ptr<EventQueue>> shardQueues_;
    /** Owning shard of each hardware thread (by its core's range). */
    std::vector<unsigned> shardOfThread_;
    std::vector<ShardLane> lanes_;
    std::unique_ptr<sim::ShardMailboxes<DeferredMiss>> deferred_;
    /** Resumptions emitted by the current serial phase, delivered at
     * max(when, windowEnd_ + 1) before the next parallel phase. */
    std::vector<PendingResume> pendingResumes_;
    /** Inclusive end of the current window (hit-run clamp, resume
     * floor). */
    Cycle windowEnd_ = 0;
    /** Owning shard of each home array (contiguous index ranges). */
    std::vector<unsigned> shardOfArray_;
    /** This window's deferred misses in canonical (cycle, thread)
     * order; indices below are into this vector. */
    std::vector<DeferredMiss> replayBatch_;
    /** Pre-probe outcome per batch entry (valid iff probeTaken_). */
    std::vector<core::ProbeResult> probeResults_;
    std::vector<std::uint8_t> probeTaken_;
    /** Per-shard worklists of batch indices, each shard's in
     * canonical order (the batch itself is sorted). */
    std::vector<std::vector<std::uint32_t>> probePlan_;
    /** Wall-clock split of the window loop (see ShardTiming). */
    ShardTiming timing_;

    // Sampled-simulation / checkpoint state (inert unless configured).
    /** Sampling stats group; null unless sampling is enabled. */
    std::unique_ptr<SamplingStats> samplingStats_;
    /** Serialized size of the last checkpoint written (memory audit). */
    std::size_t checkpointBytes_ = 0;
    /** Total accesses fast-forwarded functionally this run. */
    std::uint64_t ffAccessesDone_ = 0;

    // Observability state (all null / inert unless configured).
    /** Latency histograms; null unless latencyStats/latencyPerContext. */
    std::unique_ptr<LatencyStats> latency_;
    /** Heartbeat bookkeeping; null unless progressSeconds >= 0. */
    std::unique_ptr<Progress> progress_;
    /** Next cycle at or after which counter tracks may sample again. */
    Cycle nextCounterAt_ = 0;
    /** Fabric of a NOCSTAR org, for the links-held counter track. */
    core::Interconnect *counterFabric_ = nullptr;
    /** Crew park/wake events, appended by worker threads under the
     * mutex and drained into the recorder by the caller thread. */
    std::vector<ParkEvent> parkEvents_;
    std::mutex parkMutex_;
    /** Approximate cycle stamp for park/wake instants (workers cannot
     * read a queue clock racily; the window end is close enough). */
    std::atomic<Cycle> windowEndHint_{0};

    stats::Scalar l1Accesses_;
    stats::Scalar l1Misses_;
    stats::Scalar pollutionStalls_;
    /** L1 hits run ahead per dispatched step (see bypassStreaks()). */
    stats::Distribution bypassStreaks_;

    // Storm state.
    std::uint64_t stormRegionCursor_ = 0;
    bool stormPromote_ = true;

    /** Epoch snapshots taken during run(), already JSON-rendered. */
    std::vector<std::string> epochSnapshots_;
};

} // namespace nocstar::cpu

#endif // NOCSTAR_CPU_SYSTEM_HH
