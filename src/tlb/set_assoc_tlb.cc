/**
 * @file
 * Set-associative TLB implementation (packed per-set blocks).
 */

#include "tlb/set_assoc_tlb.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include "sim/logging.hh"

// Tag probes compare all ways of a set at once through GCC/Clang
// vector extensions; define NOCSTAR_TLB_SCALAR_PROBE (or build with a
// compiler without the extension) to select the scalar loop instead.
// Both paths return identical results.
#if defined(NOCSTAR_TLB_SCALAR_PROBE)
#define NOCSTAR_TLB_SIMD 0
#elif defined(__GNUC__) || defined(__clang__)
#define NOCSTAR_TLB_SIMD 1
#else
#define NOCSTAR_TLB_SIMD 0
#endif

namespace nocstar::tlb
{

namespace
{

constexpr std::align_val_t kSetAlign{64};

} // namespace

void
SetAssocTlb::AlignedDelete::operator()(std::uint64_t *p) const
{
    ::operator delete[](p, kSetAlign);
}

SetAssocTlb::SetAssocTlb(const std::string &name, std::uint32_t entries,
                         std::uint32_t assoc, stats::StatGroup *parent)
    : stats::StatGroup(name, parent),
      hits(this, "hits", "demand lookups that hit"),
      misses(this, "misses", "demand lookups that missed"),
      insertions(this, "insertions", "entries written"),
      evictions(this, "evictions", "valid entries displaced by inserts"),
      invalidations(this, "invalidations", "entries removed by shootdown"),
      prefetchHits(this, "prefetch_hits",
                   "demand hits on prefetched entries")
{
    if (entries == 0 || assoc == 0)
        fatal("TLB '", name, "' must have entries and associativity");
    if (assoc > entries) {
        warn_once("TLB '", name, "': associativity ", assoc,
                  " exceeds ", entries, " entries; clamping to ",
                  entries, "-way (fully associative)");
        assoc = entries;
    }
    if (entries % assoc != 0)
        fatal("TLB '", name, "': ", entries,
              " entries not divisible by associativity ", assoc);
    numEntries_ = entries;
    assoc_ = assoc;
    numSets_ = entries / assoc;
    if ((numSets_ & (numSets_ - 1)) == 0)
        setMask_ = numSets_ - 1;
    else
        setFastModM_ = ~static_cast<unsigned __int128>(0) / numSets_ + 1;
    // Round each block up to whole 64-byte lines (8 words); that also
    // keeps the vector probe's 4-lane loads inside the block.
    stride_ = (3 * assoc + 7) & ~7u;
    std::size_t words = static_cast<std::size_t>(numSets_) * stride_;
    store_.reset(static_cast<std::uint64_t *>(
        ::operator new[](words * sizeof(std::uint64_t), kSetAlign)));
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        std::uint64_t *b = block(set);
        std::fill(b, b + assoc_, invalidKey);
        std::fill(b + assoc_, b + stride_, 0);
    }
}

std::uint32_t
SetAssocTlb::setIndex(PageNum vpn, PageSize size) const
{
    // Hash-mixed index (xor-folded multiplicative hash of the VPN plus
    // a page-size salt). Plain modulo indexing would leave most sets of
    // a shared slice unused, because the slice-interleaving already
    // fixed the low VPN bits: every VPN homed on slice s satisfies
    // vpn % numCores == s, so vpn % numSets could only reach
    // numSets / numCores distinct sets. Mixing restores full set
    // utilization while still being pure virtual-address bits.
    std::uint64_t x = vpn + (static_cast<std::uint64_t>(size) << 60);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    if (setMask_ || numSets_ == 1)
        return static_cast<std::uint32_t>(x & setMask_);
    // x % numSets_ via Lemire-Kaser direct remainder: the low 128 bits
    // of M * x, multiplied by the divisor, carry the remainder in
    // their top 64 bits. Exactly equal to the division for any x.
    unsigned __int128 lowbits = setFastModM_ * x;
    std::uint64_t lo = static_cast<std::uint64_t>(lowbits);
    std::uint64_t hi = static_cast<std::uint64_t>(lowbits >> 64);
    unsigned __int128 p_lo =
        static_cast<unsigned __int128>(lo) * numSets_;
    unsigned __int128 p_hi =
        static_cast<unsigned __int128>(hi) * numSets_ + (p_lo >> 64);
    return static_cast<std::uint32_t>(p_hi >> 64);
}

int
SetAssocTlb::findWay(const std::uint64_t *keys, std::uint64_t key) const
{
#if NOCSTAR_TLB_SIMD
    typedef std::uint64_t KeyVec __attribute__((vector_size(32)));
    const KeyVec probe = {key, key, key, key};
    for (std::uint32_t w = 0; w < assoc_; w += 4) {
        KeyVec lanes;
        std::memcpy(&lanes, keys + w, sizeof(lanes));
        auto eq = lanes == probe; // matching lanes read all-ones
        auto mask = static_cast<unsigned>(
            (eq[0] & 1) | (eq[1] & 2) | (eq[2] & 4) | (eq[3] & 8));
        if (std::uint32_t rem = assoc_ - w; rem < 4)
            mask &= (1u << rem) - 1; // lanes past the set's last way
        if (mask)
            return static_cast<int>(w) + std::countr_zero(mask);
    }
    return -1;
#else
    for (std::uint32_t way = 0; way < assoc_; ++way) {
        if (keys[way] == key)
            return static_cast<int>(way);
    }
    return -1;
#endif
}

SetAssocTlb::Slot
SetAssocTlb::find(ContextId ctx, PageNum vpn, PageSize size) const
{
    if (outOfTagRange(ctx, vpn))
        return {}; // unpackable, so insert() can never have stored it
    std::uint64_t *b = block(setIndex(vpn, size));
    int way = findWay(b, packKey(ctx, vpn, size));
    if (way < 0)
        return {};
    return {b, static_cast<std::uint32_t>(way)};
}

SetAssocTlb::Slot
SetAssocTlb::findAnySize(ContextId ctx, Addr vaddr) const
{
    // One pipelined array read probes all granularities; callers count
    // one access. Probe in increasing page-size order.
    static constexpr PageSize sizes[] = {PageSize::FourKB, PageSize::TwoMB,
                                         PageSize::OneGB};
    for (PageSize size : sizes) {
        if (Slot slot = find(ctx, pageNumber(vaddr, size), size))
            return slot;
    }
    return {};
}

SetAssocTlb::Slot
SetAssocTlb::demand(Slot slot, bool update_lru)
{
    if (!slot) {
        ++misses;
        return slot;
    }
    ++hits;
    std::uint64_t &word = ppns(slot.block)[slot.way];
    if (word & prefetchedBit) {
        ++prefetchHits;
        word &= ~prefetchedBit;
    }
    if (update_lru)
        stamps(slot.block)[slot.way] = ++lruClock_;
    return slot;
}

SetAssocTlb::Slot
SetAssocTlb::warm(Slot slot)
{
    if (slot) {
        ppns(slot.block)[slot.way] &= ~prefetchedBit;
        stamps(slot.block)[slot.way] = ++lruClock_;
    }
    return slot;
}

const TlbEntry *
SetAssocTlb::entryAt(Slot slot)
{
    if (!slot)
        return nullptr;
    std::uint64_t key = slot.block[slot.way];
    std::uint64_t word = ppns(slot.block)[slot.way];
    scratch_.valid = true;
    scratch_.vpn = key >> 18;
    scratch_.ctx = static_cast<ContextId>((key >> 2) & maxCtx);
    scratch_.size = static_cast<PageSize>(key & 3);
    scratch_.ppn = word & ~prefetchedBit;
    scratch_.prefetched = (word & prefetchedBit) != 0;
    return &scratch_;
}

std::uint32_t
SetAssocTlb::victimWay(const std::uint64_t *b) const
{
    // Branchless strict min-scan: empty ways hold stamp 0 and valid
    // ways hold distinct stamps >= 1, so the scan lands on the first
    // empty way when one exists and on the unique LRU way otherwise --
    // the same victim the old first-invalid-else-LRU loop chose.
    const std::uint64_t *use = b + assoc_;
    std::uint32_t victim = 0;
    std::uint64_t best = use[0];
    for (std::uint32_t way = 1; way < assoc_; ++way) {
        bool earlier = use[way] < best;
        victim = earlier ? way : victim;
        best = earlier ? use[way] : best;
    }
    return victim;
}

const TlbEntry *
SetAssocTlb::lookup(ContextId ctx, PageNum vpn, PageSize size,
                    bool update_lru)
{
    return entryAt(demand(find(ctx, vpn, size), update_lru));
}

bool
SetAssocTlb::lookupHit(ContextId ctx, PageNum vpn, PageSize size,
                       bool update_lru)
{
    return static_cast<bool>(demand(find(ctx, vpn, size), update_lru));
}

const TlbEntry *
SetAssocTlb::lookupAnySize(ContextId ctx, Addr vaddr, bool update_lru)
{
    return entryAt(demand(findAnySize(ctx, vaddr), update_lru));
}

std::optional<TlbEntry>
SetAssocTlb::insert(const TlbEntry &entry)
{
    if (!entry.valid)
        panic("inserting invalid TLB entry");
    if (outOfTagRange(entry.ctx, entry.vpn))
        fatal("TLB entry (ctx ", entry.ctx, ", vpn ", entry.vpn,
              ") exceeds the packed tag's field widths (ctx <= ",
              maxCtx, ", vpn <= ", maxVpn, ")");
    if (entry.ppn > maxPpn)
        fatal("TLB entry ppn ", entry.ppn, " exceeds the ppn word's ",
              "field width (ppn <= ", maxPpn, ")");
    ++insertions;

    std::uint64_t *b = block(setIndex(entry.vpn, entry.size));
    std::uint64_t key = packKey(entry.ctx, entry.vpn, entry.size);

    // Refresh in place if already present (e.g. racing fills): the
    // prefetched flag survives only if both copies carry it.
    if (int found = findWay(b, key); found >= 0) {
        auto way = static_cast<std::uint32_t>(found);
        std::uint64_t &word = ppns(b)[way];
        word = entry.ppn | (word & (entry.prefetched ? prefetchedBit : 0));
        stamps(b)[way] = ++lruClock_;
        return std::nullopt;
    }

    std::uint32_t way = victimWay(b);
    std::optional<TlbEntry> evicted;
    if (b[way] != invalidKey) {
        ++evictions;
        evicted = *entryAt({b, way});
    } else {
        ++validCount_;
    }
    b[way] = key;
    stamps(b)[way] = ++lruClock_;
    ppns(b)[way] = entry.ppn | (entry.prefetched ? prefetchedBit : 0);
    return evicted;
}

bool
SetAssocTlb::present(ContextId ctx, PageNum vpn, PageSize size) const
{
    return static_cast<bool>(find(ctx, vpn, size));
}

bool
SetAssocTlb::touch(ContextId ctx, PageNum vpn, PageSize size)
{
    return static_cast<bool>(warm(find(ctx, vpn, size)));
}

bool
SetAssocTlb::touchAnySize(ContextId ctx, Addr vaddr)
{
    return static_cast<bool>(warm(findAnySize(ctx, vaddr)));
}

void
SetAssocTlb::saveState(sim::CkptWriter &w) const
{
    w.u32(numEntries_);
    w.u32(assoc_);
    w.u64(lruClock_);
    w.u64(validCount_);
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        std::uint64_t *b = block(set);
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            w.u64(b[way]);
            w.u64(stamps(b)[way]);
            w.u64(ppns(b)[way]);
        }
    }
}

void
SetAssocTlb::restoreState(sim::CkptReader &r)
{
    std::uint32_t entries = r.u32();
    std::uint32_t assoc = r.u32();
    if (entries != numEntries_ || assoc != assoc_)
        fatal("TLB '", name(), "': checkpoint geometry ", entries, "x",
              assoc, " does not match this array's ", numEntries_, "x",
              assoc_);
    lruClock_ = r.u64();
    validCount_ = r.u64();
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        std::uint64_t *b = block(set);
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            b[way] = r.u64();
            stamps(b)[way] = r.u64();
            ppns(b)[way] = r.u64();
        }
    }
}

std::size_t
SetAssocTlb::memoryBytes() const
{
    return static_cast<std::size_t>(numSets_) * stride_ *
           sizeof(std::uint64_t);
}

bool
SetAssocTlb::invalidate(ContextId ctx, PageNum vpn, PageSize size)
{
    Slot slot = find(ctx, vpn, size);
    if (!slot)
        return false;
    clearWay(slot.block, slot.way);
    --validCount_;
    ++invalidations;
    return true;
}

std::uint64_t
SetAssocTlb::invalidateContext(ContextId ctx)
{
    if (validCount_ == 0 || ctx > maxCtx)
        return 0; // empty array / a context no tag can encode
    std::uint64_t count = 0;
    std::uint64_t ctx_bits = static_cast<std::uint64_t>(ctx) << 2;
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        std::uint64_t *b = block(set);
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            if (b[way] != invalidKey &&
                (b[way] & (std::uint64_t{maxCtx} << 2)) == ctx_bits) {
                clearWay(b, way);
                ++count;
            }
        }
    }
    validCount_ -= count;
    invalidations += static_cast<double>(count);
    return count;
}

std::uint64_t
SetAssocTlb::invalidateAll()
{
    if (validCount_ == 0)
        return 0;
    std::uint64_t count = validCount_;
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        std::uint64_t *b = block(set);
        std::fill(b, b + assoc_, invalidKey);
        std::fill(stamps(b), stamps(b) + assoc_, 0);
    }
    validCount_ = 0;
    invalidations += static_cast<double>(count);
    return count;
}

} // namespace nocstar::tlb
