/**
 * @file
 * A set-associative TLB array with true-LRU replacement and
 * modulo-indexing on the low-order virtual page number bits (paper
 * §III-E), supporting mixed page sizes in one array via per-size probes.
 *
 * Storage is one packed block per set, 64-byte aligned:
 * [keys[assoc] | LRU stamps[assoc] | ppn words[assoc]]. A key folds
 * (vpn, ctx, size) into one 64-bit word (all-ones = invalid), compared
 * across all ways with portable SIMD; the stamps are scanned
 * branchlessly for victims; a ppn word holds the physical page number
 * with the prefetched flag in its top bit. Nothing else is stored: a
 * hit rebuilds the returned TlbEntry from the key and the ppn word. A
 * 4-way set is two cache lines (keys and stamps share the first), an
 * 8-way set three, so a hit touches at most three lines and a miss
 * one per probed page size.
 */

#ifndef NOCSTAR_TLB_SET_ASSOC_TLB_HH
#define NOCSTAR_TLB_SET_ASSOC_TLB_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "sim/checkpoint.hh"
#include "sim/stats.hh"
#include "tlb/tlb_entry.hh"

namespace nocstar::tlb
{

/**
 * Set-associative translation array.
 *
 * The array is size-agnostic: lookups and inserts name an explicit
 * PageSize, and lookupAnySize() probes 4 KB, then 2 MB, then 1 GB the
 * way a mixed-granularity L2 TLB does.
 *
 * Entry pointers returned by the lookup calls point at a
 * per-array scratch entry rebuilt on every hit: they stay valid only
 * until the next call on the same array, so callers copy the entry.
 */
class SetAssocTlb : public stats::StatGroup
{
  public:
    /**
     * @param name stat group name.
     * @param entries total entry count (need not be a power of two).
     * @param assoc associativity; entries must divide evenly into sets.
     * @param parent optional owning stat group.
     */
    SetAssocTlb(const std::string &name, std::uint32_t entries,
                std::uint32_t assoc, stats::StatGroup *parent = nullptr);

    /**
     * Probe for a translation of a specific page size.
     * @param update_lru refresh recency on hit (demand accesses do;
     *        snoops / invalidation probes must not).
     * @return the matching entry, or nullptr.
     */
    const TlbEntry *lookup(ContextId ctx, PageNum vpn, PageSize size,
                           bool update_lru = true);

    /**
     * lookup() for callers that only need the outcome: identical
     * counting, recency and prefetched-flag effects, but no entry is
     * rebuilt (the demand L1 probe's hot path).
     */
    bool lookupHit(ContextId ctx, PageNum vpn, PageSize size,
                   bool update_lru = true);

    /**
     * Probe for @p vaddr trying 4 KB then 2 MB then 1 GB granularity.
     * Counts a single access (one pipelined SRAM read).
     */
    const TlbEntry *lookupAnySize(ContextId ctx, Addr vaddr,
                                  bool update_lru = true);

    /**
     * Insert a translation, evicting the set's LRU entry if needed.
     * Re-inserting an existing translation refreshes it in place.
     * @return the evicted valid entry, if any.
     */
    std::optional<TlbEntry> insert(const TlbEntry &entry);

    /**
     * Non-statistical presence check (prefetch filtering, snoops);
     * does not touch recency or hit/miss counters.
     */
    bool present(ContextId ctx, PageNum vpn, PageSize size) const;

    /**
     * Functional-warming probe: behaves like a demand lookup for the
     * array *state* (refreshes recency, consumes the prefetched bit)
     * but counts nothing, so fast-forwarded accesses leave every
     * RunResult-visible statistic untouched. Reports only hit or miss.
     */
    bool touch(ContextId ctx, PageNum vpn, PageSize size);

    /**
     * Functional-warming counterpart of lookupAnySize(), reporting
     * only hit or miss (no entry is rebuilt).
     */
    bool touchAnySize(ContextId ctx, Addr vaddr);

    /**
     * Serialize the mutable array state (key, stamp and ppn word of
     * every way, the LRU clock) to @p w. Geometry is written first and
     * checked on restore, so a checkpoint never lands in a mismatched
     * array.
     */
    void saveState(sim::CkptWriter &w) const;

    /** Restore state captured by saveState(). */
    void restoreState(sim::CkptReader &r);

    /** Resident bytes of the packed set store, alignment pad included
     * (memory audit). */
    std::size_t memoryBytes() const;

    /** Invalidate one translation. @return true if it was present. */
    bool invalidate(ContextId ctx, PageNum vpn, PageSize size);

    /** Invalidate everything belonging to @p ctx. @return count. */
    std::uint64_t invalidateContext(ContextId ctx);

    /** Invalidate the whole array (context switch without PCID). */
    std::uint64_t invalidateAll();

    std::uint32_t numEntries() const { return numEntries_; }
    std::uint32_t assoc() const { return assoc_; }
    std::uint32_t numSets() const { return numSets_; }

    /** Number of currently valid entries (live counter, O(1)). */
    std::uint64_t occupancy() const { return validCount_; }

    /** Largest VPN a packed tag can hold (46 tag bits). */
    static constexpr PageNum maxVpn = (PageNum{1} << 46) - 1;
    /** Largest context id a packed tag can hold (16 tag bits). */
    static constexpr ContextId maxCtx = (ContextId{1} << 16) - 1;
    /** Largest PPN a ppn word can hold (its top bit is the flag). */
    static constexpr PageNum maxPpn = (PageNum{1} << 63) - 1;

    // Aggregate statistics (public so organizations can derive rates).
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar insertions;
    stats::Scalar evictions;
    stats::Scalar invalidations;

    /** Demand hit on an entry brought in by the prefetcher. */
    stats::Scalar prefetchHits;

    double
    missRate() const
    {
        double acc = hits.value() + misses.value();
        return acc > 0 ? misses.value() / acc : 0.0;
    }

  private:
    /**
     * Packed tag word: vpn[63:18] | ctx[17:2] | size[1:0]. The
     * injective encoding makes a whole-way match one 64-bit compare.
     * All-ones marks an empty way; no valid key can collide with it
     * because its size field reads 3 and PageSize stops at 2.
     */
    static constexpr std::uint64_t invalidKey = ~std::uint64_t{0};
    /** Prefetched flag, the top bit of a ppn word. */
    static constexpr std::uint64_t prefetchedBit = std::uint64_t{1} << 63;

    static std::uint64_t
    packKey(ContextId ctx, PageNum vpn, PageSize size)
    {
        return (vpn << 18) |
               (static_cast<std::uint64_t>(ctx) << 2) |
               static_cast<std::uint64_t>(size);
    }

    /** True when (ctx, vpn) exceeds the packed tag's field widths. */
    static bool
    outOfTagRange(ContextId ctx, PageNum vpn)
    {
        return vpn > maxVpn || ctx > maxCtx;
    }

    /** One way located by a probe; block is null on a miss. */
    struct Slot
    {
        std::uint64_t *block = nullptr;
        std::uint32_t way = 0;

        explicit operator bool() const { return block != nullptr; }
    };

    /** Frees the 64-byte-aligned set store. */
    struct AlignedDelete
    {
        void operator()(std::uint64_t *p) const;
    };

    /** Set index for (vpn, size): modulo indexing on low VPN bits. */
    std::uint32_t setIndex(PageNum vpn, PageSize size) const;

    /** First word of @p set's block (its keys). */
    std::uint64_t *
    block(std::uint32_t set) const
    {
        return store_.get() + static_cast<std::size_t>(set) * stride_;
    }

    std::uint64_t *stamps(std::uint64_t *b) const { return b + assoc_; }
    std::uint64_t *ppns(std::uint64_t *b) const { return b + 2 * assoc_; }

    /** Way holding @p key within the set at @p keys, or -1. */
    int findWay(const std::uint64_t *keys, std::uint64_t key) const;

    /** The way holding (ctx, vpn, size), if any. */
    Slot find(ContextId ctx, PageNum vpn, PageSize size) const;

    /** The way translating @p vaddr at the smallest page size held. */
    Slot findAnySize(ContextId ctx, Addr vaddr) const;

    /**
     * Count a demand probe's hit or miss and apply a hit's side
     * effects (prefetched flag, recency). @return @p slot.
     */
    Slot demand(Slot slot, bool update_lru);

    /** Functional-warming probe: a hit's recency and prefetched flag
     * only, no counting. @return @p slot. */
    Slot warm(Slot slot);

    /** Rebuild @p slot's entry into scratch_; nullptr on a miss. */
    const TlbEntry *entryAt(Slot slot);

    /** The set's replacement victim: first empty way, else true LRU. */
    std::uint32_t victimWay(const std::uint64_t *b) const;

    /** Empty way @p way of the block at @p b. */
    void
    clearWay(std::uint64_t *b, std::uint32_t way)
    {
        b[way] = invalidKey;
        stamps(b)[way] = 0;
    }

    std::uint32_t numEntries_;
    std::uint32_t assoc_;
    std::uint32_t numSets_;
    /** Words per set block: 3 * assoc_ rounded up to a cache line. */
    std::uint32_t stride_;
    /** numSets_ - 1 when the set count is a power of two, else 0. */
    std::uint64_t setMask_ = 0;
    /**
     * ceil(2^128 / numSets_) for Lemire's exact remainder-by-multiply
     * (only consulted when numSets_ is not a power of two). A 64-bit
     * divide sits on every probe of every lookup; this replaces it
     * with two multiplies while producing bit-identical indices.
     */
    unsigned __int128 setFastModM_ = 0;
    std::uint64_t lruClock_ = 0;
    std::uint64_t validCount_ = 0;
    /**
     * The per-set blocks, numSets_ * stride_ words. Empty ways hold
     * key invalidKey and stamp 0; valid ways hold stamps >= 1, so one
     * strict min-scan picks the first empty way when any exists and
     * the unique least-recently-used way otherwise. A block is never
     * shorter than 8 words, so the vector probe's 4-lane loads stay
     * inside it for every way.
     */
    std::unique_ptr<std::uint64_t[], AlignedDelete> store_;
    /** Entry rebuilt by the last hit (see the class comment). */
    TlbEntry scratch_;
};

} // namespace nocstar::tlb

#endif // NOCSTAR_TLB_SET_ASSOC_TLB_HH
