/**
 * @file
 * Last-level TLB organizations (paper Fig 1): the base class owns the
 * machinery every organization shares -- contention tracking for
 * Figs 5/6, port scheduling, walk dispatch with requester/remote
 * placement, prefetch, shootdown bookkeeping -- while subclasses model
 * the private, monolithic, distributed and NOCSTAR timing paths.
 */

#ifndef NOCSTAR_CORE_ORGANIZATION_HH
#define NOCSTAR_CORE_ORGANIZATION_HH

#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "energy/translation_energy.hh"
#include "mem/page_table.hh"
#include "mem/page_walker.hh"
#include "noc/topology.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/trace_recorder.hh"
#include "tlb/prefetcher.hh"
#include "tlb/set_assoc_tlb.hh"

namespace nocstar::core
{

/** Completed translation handed back to the requesting core. */
struct TranslationResult
{
    Cycle completedAt = 0;
    tlb::TlbEntry entry;
    bool l2Hit = false;
    bool walked = false;
    /**
     * The home slice/bank serving this access was not co-located with
     * the requesting tile (the lookup crossed the interconnect).
     * Private organizations never set it; the monolithic structure at
     * the chip edge always does.
     */
    bool remote = false;
    /**
     * The translation was redone for ECC: a home-array hit read back
     * corrupt (sliceEccRewalks) or the page walk itself re-walked for
     * a corrupt table entry (walker eccRewalks).
     */
    bool eccRewalk = false;
    /**
     * At least one fabric message on this translation's path fell back
     * to the store-and-forward mesh (NOCSTAR under fault injection).
     */
    bool degraded = false;
};

/** Callback when a translation completes (inline, no heap). */
using TranslationDone =
    InlineFunction<void(const TranslationResult &), 48>;

/** Callback when a shootdown's L2 invalidation has completed. */
using ShootdownDone = InlineFunction<void(Cycle), 48>;

/**
 * Continuation of a page-table walk. Sized for the organization
 * continuations that own the requester's TranslationDone plus the
 * request coordinates.
 */
using WalkDone = InlineFunction<void(const mem::WalkResult &), 136>;

/**
 * Environment handed to an organization by the System.
 */
struct OrgContext
{
    EventQueue *queue = nullptr;
    mem::PageTable *pageTable = nullptr;
    /** One walker per core. */
    std::vector<mem::PageTableWalker *> walkers;
    energy::TranslationEnergyModel *energy = nullptr;
    /** Invalidate one translation in a core's L1 TLB group. */
    InlineFunction<void(CoreId, ContextId, PageNum, PageSize), 32>
        l1Invalidate;
    /** Flush a core's entire L1 TLB group. */
    InlineFunction<void(CoreId), 32> l1Flush;
};

/**
 * Abstract last-level TLB organization.
 */
class TlbOrganization : public stats::StatGroup
{
  public:
    TlbOrganization(const std::string &name, const OrgConfig &config,
                    OrgContext context, stats::StatGroup *parent = nullptr);
    ~TlbOrganization() override = default;

    /**
     * Resolve an L1 TLB miss raised at @p now on @p core. @p done runs
     * once the translation is available at the requesting core.
     */
    virtual void translate(CoreId core, ContextId ctx, Addr vaddr,
                           Cycle now, TranslationDone done) = 0;

    /**
     * Shoot down the page containing @p vaddr: all sharer L1s are
     * invalidated immediately (IPI handlers), and the L2 structure's
     * stale entry is invalidated via the configured relay policy.
     * @param sharers cores whose L1s received the IPI.
     * @param on_complete optional callback when the L2 entry is gone.
     */
    virtual void shootdown(CoreId initiator, ContextId ctx, Addr vaddr,
                           const std::vector<CoreId> &sharers, Cycle now,
                           ShootdownDone on_complete) = 0;

    /** Flush all L2 structures (context switch without PCID). */
    virtual void flushAll() = 0;

    /**
     * Functionally install a steady-state-resident translation into
     * one core's private structure (no-op for shared organizations).
     * Pre-warming skips the compulsory-miss phase that short
     * simulations would otherwise measure instead of steady state.
     */
    virtual void
    preloadPrivate(CoreId core, ContextId ctx, Addr vaddr,
                   const mem::Translation &t)
    {
        (void)core; (void)ctx; (void)vaddr; (void)t;
    }

    /**
     * Functionally install a steady-state-resident translation into
     * the shared structure's home slice/bank (no-op for private).
     */
    virtual void
    preloadShared(ContextId ctx, Addr vaddr, const mem::Translation &t)
    {
        (void)ctx; (void)vaddr; (void)t;
    }

    /** Total L2 TLB entries across the chip (for leakage). */
    virtual std::uint64_t totalEntries() const = 0;

    /**
     * Bring fault-accounting stats (per-link dead cycles, ...) current
     * through @p now. Called before every epoch snapshot and at the
     * end of the run; a no-op unless the organization carries fault
     * machinery.
     */
    virtual void syncFaultStats(Cycle now) { (void)now; }

    /**
     * Number of home-tile-partitioned L2 arrays translate() probes
     * (slices, banks, or private per-core arrays). Array index i is
     * what homeArrayOf() returns.
     */
    virtual unsigned numHomeArrays() const { return 0; }

    /**
     * Index (< numHomeArrays()) of the one home array a
     * translate(core, ..., vaddr, ...) call probes.
     */
    virtual unsigned
    homeArrayOf(CoreId core, Addr vaddr) const
    {
        (void)core; (void)vaddr;
        return 0;
    }

    /**
     * The L2 array behind home index @p index (< numHomeArrays()).
     * Functional warming and checkpointing use this to reach every
     * array exactly once; index i is what homeArrayOf() returns.
     */
    virtual tlb::SetAssocTlb &array(unsigned index) = 0;

    /**
     * The core whose walker would service a miss on (@p requester,
     * @p vaddr) under the configured walk-placement policy. Functional
     * warming warms that walker's PSCs and L2 PTE lines, matching the
     * detailed path's reference placement.
     */
    virtual CoreId
    walkCoreFor(CoreId requester, Addr vaddr) const
    {
        (void)vaddr;
        return requester;
    }

    const OrgConfig &config() const { return config_; }

    /** In-flight L2 accesses right now (counter-track sampling). */
    unsigned outstandingAccesses() const { return outstanding_; }

    // Chip-wide statistics shared by all organizations.
    stats::Scalar l2Accesses;
    stats::Scalar l2Hits;
    stats::Scalar l2Misses;
    stats::Scalar walksLaunched;
    stats::Scalar prefetchInserts;
    stats::Scalar shootdowns;
    stats::Scalar shootdownL2Invalidations;
    stats::Scalar totalAccessLatency; ///< L1-miss -> completion cycles
    stats::Scalar totalShootdownLatency;
    /** Concurrent chip-wide L2 accesses at each access start (Fig 5). */
    stats::Distribution concurrency;
    /** Concurrent same-slice accesses at each access start (Fig 6). */
    stats::Distribution sliceConcurrency;
    /** Hits discarded because the entry read back corrupt (ECC). */
    stats::Scalar sliceEccRewalks;

    double
    l2MissRate() const
    {
        double acc = l2Accesses.value();
        return acc > 0 ? l2Misses.value() / acc : 0.0;
    }

    double
    averageAccessLatency() const
    {
        double acc = l2Accesses.value();
        return acc > 0 ? totalAccessLatency.value() / acc : 0.0;
    }

  protected:
    /** RAII-style tracking of one in-flight L2 access. */
    void noteAccessStart(unsigned slice);
    void noteAccessEnd(unsigned slice);

    /**
     * Pipelined read-port schedule: at most config.readPortsPerCycle
     * new lookups may start per cycle on one slice / bank.
     * @return the cycle the lookup actually starts.
     */
    Cycle portStart(unsigned slice, Cycle earliest);

    /**
     * Launch the page-table walk for a missed translation on
     * @p walk_core's walker and hand the result to @p k.
     */
    void launchWalk(CoreId walk_core, CoreId requester, ContextId ctx,
                    Addr vaddr, Cycle now, WalkDone k);

    /** Record walk references with the energy model. */
    void chargeWalkEnergy(const mem::WalkResult &walk);

    /**
     * Functionally insert prefetch candidates around a missed page
     * into @p array (no timing; write-port pressure is negligible at
     * TLB miss rates).
     */
    void prefetchAround(tlb::SetAssocTlb &array, ContextId ctx,
                        PageNum vpn, PageSize size);

    /** Make a TLB entry from a walk's translation. */
    tlb::TlbEntry entryFor(ContextId ctx, Addr vaddr,
                           const mem::Translation &t) const;

    /**
     * Draw: did this L2/slice hit read a corrupt entry? Always false
     * (and draws nothing) when the fault plan has no slice-ecc
     * probability, so fault-free runs stay byte-identical.
     */
    bool
    eccCorrupted()
    {
        return eccFaults_ && eccFaults_->sliceEcc();
    }

    /**
     * Record one slice/bank array lookup on the structured-trace
     * Slice lane (one track per slice). Free when recording is off.
     */
    void
    noteSliceLookup(unsigned slice, Cycle start, Cycle done, bool hit)
    {
        if (sim::recording())
            sim::recorder().span(sim::Lane::Slice, slice,
                                 hit ? "lookup hit" : "lookup miss",
                                 start, done);
    }

    OrgConfig config_;
    OrgContext ctx_;
    tlb::TlbPrefetcher prefetcher_;
    /** Allocated only when the plan injects slice ECC errors. */
    std::unique_ptr<sim::FaultInjector> eccFaults_;

  private:
    struct PortState
    {
        Cycle cycle = 0;
        unsigned used = 0;
    };

    unsigned outstanding_ = 0;
    std::vector<unsigned> sliceOutstanding_;
    std::vector<PortState> ports_;
};

/** Render a validate() error list one-per-line for a fatal() report. */
std::string joinConfigErrors(const std::vector<std::string> &errors);

/** Build the organization selected by @p config. */
std::unique_ptr<TlbOrganization>
makeOrganization(const OrgConfig &config, OrgContext context,
                 stats::StatGroup *parent = nullptr);

} // namespace nocstar::core

#endif // NOCSTAR_CORE_ORGANIZATION_HH
