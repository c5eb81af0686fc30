/**
 * @file
 * Differential test for the packed SetAssocTlb: drives identical
 * randomized lookup/insert/evict/invalidate sequences through the
 * original array-of-structs implementation (kept here as the
 * executable reference) and the production array, and demands
 * byte-for-byte agreement on every observable: hit/miss outcomes,
 * returned translations, evicted entries, invalidation counts,
 * occupancy and all statistics -- also across a checkpoint round trip
 * in the middle of the sequence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/random.hh"
#include "tlb/set_assoc_tlb.hh"

using namespace nocstar;
using namespace nocstar::tlb;

namespace
{

/**
 * The old array-of-structs SetAssocTlb, minus the stats plumbing
 * (plain counters instead): scalar per-way tag probes,
 * first-invalid-else-LRU victim selection, full-array invalidation
 * scans. TlbEntry carries no recency, so the reference keeps its own
 * LRU stamps beside its entries. This is the semantic spec the packed
 * array must match.
 */
class ReferenceTlb
{
  public:
    ReferenceTlb(std::uint32_t entries, std::uint32_t assoc)
    {
        if (assoc > entries)
            assoc = entries;
        numEntries_ = entries;
        assoc_ = assoc;
        numSets_ = entries / assoc;
        entries_.resize(entries);
        lastUse_.resize(entries, 0);
    }

    std::uint32_t
    setIndex(PageNum vpn, PageSize size) const
    {
        std::uint64_t x =
            vpn + (static_cast<std::uint64_t>(size) << 60);
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        return static_cast<std::uint32_t>(x % numSets_);
    }

    /** Index of the entry translating (ctx, vpn, size), or -1. */
    int
    findIndex(ContextId ctx, PageNum vpn, PageSize size) const
    {
        std::size_t base =
            static_cast<std::size_t>(setIndex(vpn, size)) * assoc_;
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            if (entries_[base + way].matches(ctx, vpn, size))
                return static_cast<int>(base + way);
        }
        return -1;
    }

    const TlbEntry *
    lookup(ContextId ctx, PageNum vpn, PageSize size,
           bool update_lru = true)
    {
        int index = findIndex(ctx, vpn, size);
        if (index < 0) {
            ++misses;
            return nullptr;
        }
        return demandHit(static_cast<std::size_t>(index), update_lru);
    }

    const TlbEntry *
    lookupAnySize(ContextId ctx, Addr vaddr, bool update_lru = true)
    {
        static constexpr PageSize sizes[] = {
            PageSize::FourKB, PageSize::TwoMB, PageSize::OneGB};
        for (PageSize size : sizes) {
            int index = findIndex(ctx, pageNumber(vaddr, size), size);
            if (index >= 0)
                return demandHit(static_cast<std::size_t>(index),
                                 update_lru);
        }
        ++misses;
        return nullptr;
    }

    std::optional<TlbEntry>
    insert(const TlbEntry &entry)
    {
        ++insertions;
        if (int index = findIndex(entry.ctx, entry.vpn, entry.size);
            index >= 0) {
            TlbEntry &existing = entries_[static_cast<std::size_t>(index)];
            bool was_prefetched =
                existing.prefetched && entry.prefetched;
            existing = entry;
            existing.prefetched = was_prefetched;
            lastUse_[static_cast<std::size_t>(index)] = ++lruClock_;
            return std::nullopt;
        }

        std::size_t base =
            static_cast<std::size_t>(setIndex(entry.vpn, entry.size)) *
            assoc_;
        std::size_t victim = base;
        for (std::size_t i = base; i < base + assoc_; ++i) {
            if (!entries_[i].valid) {
                victim = i;
                break;
            }
            if (lastUse_[i] < lastUse_[victim])
                victim = i;
        }

        std::optional<TlbEntry> evicted;
        if (entries_[victim].valid) {
            ++evictions;
            evicted = entries_[victim];
        }
        entries_[victim] = entry;
        lastUse_[victim] = ++lruClock_;
        return evicted;
    }

    bool
    present(ContextId ctx, PageNum vpn, PageSize size) const
    {
        return findIndex(ctx, vpn, size) >= 0;
    }

    bool
    invalidate(ContextId ctx, PageNum vpn, PageSize size)
    {
        int index = findIndex(ctx, vpn, size);
        if (index < 0)
            return false;
        entries_[static_cast<std::size_t>(index)].valid = false;
        ++invalidations;
        return true;
    }

    std::uint64_t
    invalidateContext(ContextId ctx)
    {
        std::uint64_t count = 0;
        for (TlbEntry &entry : entries_) {
            if (entry.valid && entry.ctx == ctx) {
                entry.valid = false;
                ++count;
            }
        }
        invalidations += count;
        return count;
    }

    std::uint64_t
    invalidateAll()
    {
        std::uint64_t count = 0;
        for (TlbEntry &entry : entries_) {
            if (entry.valid) {
                entry.valid = false;
                ++count;
            }
        }
        invalidations += count;
        return count;
    }

    std::uint64_t
    occupancy() const
    {
        std::uint64_t count = 0;
        for (const TlbEntry &entry : entries_)
            count += entry.valid ? 1 : 0;
        return count;
    }

    /** Zero the counters (a restored array starts its stats afresh). */
    void
    resetCounters()
    {
        hits = misses = insertions = evictions = invalidations =
            prefetchHits = 0;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t prefetchHits = 0;

  private:
    const TlbEntry *
    demandHit(std::size_t index, bool update_lru)
    {
        ++hits;
        TlbEntry &entry = entries_[index];
        if (entry.prefetched) {
            ++prefetchHits;
            entry.prefetched = false;
        }
        if (update_lru)
            lastUse_[index] = ++lruClock_;
        return &entry;
    }

    std::uint32_t numEntries_;
    std::uint32_t assoc_;
    std::uint32_t numSets_;
    std::uint64_t lruClock_ = 0;
    std::vector<TlbEntry> entries_;
    /** LRU stamps, indexed like entries_. */
    std::vector<std::uint64_t> lastUse_;
};

void
expectSameEntry(const TlbEntry *ref, const TlbEntry *soa,
                std::uint64_t op)
{
    ASSERT_EQ(ref != nullptr, soa != nullptr) << "op " << op;
    if (!ref)
        return;
    EXPECT_EQ(ref->vpn, soa->vpn) << "op " << op;
    EXPECT_EQ(ref->ppn, soa->ppn) << "op " << op;
    EXPECT_EQ(ref->ctx, soa->ctx) << "op " << op;
    EXPECT_EQ(ref->size, soa->size) << "op " << op;
    EXPECT_EQ(ref->prefetched, soa->prefetched) << "op " << op;
}

struct Geometry
{
    std::uint32_t entries;
    std::uint32_t assoc;
};

class TlbDifferentialTest : public ::testing::TestWithParam<Geometry>
{};

/** Every counter of @p soa equals the reference's. */
void
expectSameStats(const ReferenceTlb &ref, const SetAssocTlb &soa)
{
    EXPECT_EQ(ref.occupancy(), soa.occupancy());
    EXPECT_EQ(ref.hits, static_cast<std::uint64_t>(soa.hits.value()));
    EXPECT_EQ(ref.misses,
              static_cast<std::uint64_t>(soa.misses.value()));
    EXPECT_EQ(ref.insertions,
              static_cast<std::uint64_t>(soa.insertions.value()));
    EXPECT_EQ(ref.evictions,
              static_cast<std::uint64_t>(soa.evictions.value()));
    EXPECT_EQ(ref.invalidations,
              static_cast<std::uint64_t>(soa.invalidations.value()));
    EXPECT_EQ(ref.prefetchHits,
              static_cast<std::uint64_t>(soa.prefetchHits.value()));
}

constexpr std::uint64_t kCkptFingerprint = 0x7e57;
constexpr std::uint32_t kCkptTag = sim::ckptTag('T', 'L', 'B', ' ');

/** A checkpoint holding @p tlb's state alone. */
sim::CkptWriter
checkpointOf(const SetAssocTlb &tlb)
{
    sim::CkptWriter w(kCkptFingerprint);
    w.begin(kCkptTag);
    tlb.saveState(w);
    w.end();
    return w;
}

TEST_P(TlbDifferentialTest, RandomizedOpsMatchReference)
{
    const Geometry geom = GetParam();
    ReferenceTlb ref(geom.entries, geom.assoc);
    auto soa = std::make_unique<SetAssocTlb>("soa_under_test",
                                             geom.entries, geom.assoc);

    Random rng(0xd1ffe7e57ULL ^ (static_cast<std::uint64_t>(
                                     geom.entries) << 16) ^ geom.assoc);
    static constexpr PageSize sizes[] = {
        PageSize::FourKB, PageSize::TwoMB, PageSize::OneGB};

    // Page pool sized ~3x the array so lookups hit, miss and evict.
    const std::uint64_t pool =
        std::max<std::uint64_t>(8, geom.entries * 3);
    const std::uint64_t ops = 20000;

    for (std::uint64_t op = 0; op < ops; ++op) {
        if (op == ops / 2) {
            // Checkpoint round trip: the restored array re-saves the
            // same bytes and keeps matching the reference op for op.
            expectSameStats(ref, *soa);
            const std::string path = ::testing::TempDir() +
                                     "nocstar_tlb_soa_" +
                                     std::to_string(geom.entries) + "x" +
                                     std::to_string(geom.assoc) +
                                     ".ckpt";
            const sim::CkptWriter saved = checkpointOf(*soa);
            saved.save(path);
            auto restored = std::make_unique<SetAssocTlb>(
                "soa_restored", geom.entries, geom.assoc);
            sim::CkptReader r(path, kCkptFingerprint);
            r.enter(kCkptTag);
            restored->restoreState(r);
            r.leave();
            EXPECT_TRUE(r.atEnd());
            EXPECT_EQ(saved.framed(), checkpointOf(*restored).framed());
            soa = std::move(restored);
            ref.resetCounters(); // statistics are not array state
        }

        ContextId ctx = static_cast<ContextId>(rng.below(4));
        PageNum vpn = rng.below(pool) + 0x40000;
        PageSize size = sizes[rng.below(3)];
        std::uint64_t kind = rng.below(100);

        if (kind < 30) {
            bool update_lru = rng.below(4) != 0;
            expectSameEntry(ref.lookup(ctx, vpn, size, update_lru),
                            soa->lookup(ctx, vpn, size, update_lru),
                            op);
        } else if (kind < 40) {
            bool update_lru = rng.below(4) != 0;
            EXPECT_EQ(ref.lookup(ctx, vpn, size, update_lru) != nullptr,
                      soa->lookupHit(ctx, vpn, size, update_lru))
                << "op " << op;
        } else if (kind < 70) {
            TlbEntry entry;
            entry.valid = true;
            entry.ctx = ctx;
            entry.vpn = vpn;
            entry.ppn = vpn ^ 0x5aa5;
            entry.size = size;
            entry.prefetched = rng.below(4) == 0;
            std::optional<TlbEntry> re = ref.insert(entry);
            std::optional<TlbEntry> se = soa->insert(entry);
            expectSameEntry(re ? &*re : nullptr,
                            se ? &*se : nullptr, op);
        } else if (kind < 80) {
            Addr vaddr = (vpn << pageShift(PageSize::FourKB)) |
                         (rng.below(512) << 3);
            expectSameEntry(ref.lookupAnySize(ctx, vaddr),
                            soa->lookupAnySize(ctx, vaddr), op);
        } else if (kind < 88) {
            EXPECT_EQ(ref.present(ctx, vpn, size),
                      soa->present(ctx, vpn, size)) << "op " << op;
        } else if (kind < 96) {
            EXPECT_EQ(ref.invalidate(ctx, vpn, size),
                      soa->invalidate(ctx, vpn, size)) << "op " << op;
        } else if (kind < 99) {
            EXPECT_EQ(ref.invalidateContext(ctx),
                      soa->invalidateContext(ctx)) << "op " << op;
        } else {
            EXPECT_EQ(ref.invalidateAll(), soa->invalidateAll())
                << "op " << op;
        }

        if (op % 512 == 0) {
            ASSERT_EQ(ref.occupancy(), soa->occupancy()) << "op " << op;
        }
        if (::testing::Test::HasFailure())
            FAIL() << "first divergence at op " << op;
    }

    expectSameStats(ref, *soa);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbDifferentialTest,
    ::testing::Values(Geometry{64, 4},   // L1-style, pow2 sets
                      Geometry{32, 4},   // 2M L1 array
                      Geometry{4, 4},    // fully associative
                      Geometry{48, 4},   // 12 sets: Lemire fastmod
                      Geometry{96, 8},   // 12 sets, wide ways (2 chunks)
                      Geometry{16, 1},   // direct mapped
                      Geometry{24, 6},   // assoc not a lane multiple
                      Geometry{8, 16})); // assoc clamped to entries

TEST(SetAssocTlbSoa, PackedTagRangeLimitsAreEnforced)
{
    SetAssocTlb tlb("range_test", 16, 4);

    // Out-of-range probes are deterministic misses, never aliases.
    EXPECT_EQ(tlb.lookup(0, SetAssocTlb::maxVpn + 1,
                         PageSize::FourKB), nullptr);
    EXPECT_FALSE(tlb.present(SetAssocTlb::maxCtx + 1, 1,
                             PageSize::FourKB));
    EXPECT_FALSE(tlb.invalidate(0, SetAssocTlb::maxVpn + 1,
                                PageSize::FourKB));
    EXPECT_EQ(tlb.invalidateContext(SetAssocTlb::maxCtx + 1), 0u);

    // The widest encodable tag round-trips.
    TlbEntry entry;
    entry.valid = true;
    entry.ctx = SetAssocTlb::maxCtx;
    entry.vpn = SetAssocTlb::maxVpn;
    entry.ppn = 0x1234;
    entry.size = PageSize::OneGB;
    tlb.insert(entry);
    const TlbEntry *hit =
        tlb.lookup(SetAssocTlb::maxCtx, SetAssocTlb::maxVpn,
                   PageSize::OneGB);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->ppn, 0x1234u);

    // Unpackable inserts fail loudly instead of corrupting a tag or
    // the prefetched flag sharing the ppn word.
    TlbEntry wide = entry;
    wide.vpn = SetAssocTlb::maxVpn + 1;
    EXPECT_THROW(tlb.insert(wide), FatalError);
    wide = entry;
    wide.ppn = SetAssocTlb::maxPpn + 1;
    EXPECT_THROW(tlb.insert(wide), FatalError);
}

TEST(SetAssocTlbSoa, MemoryBytesCountPaddedSetBlocks)
{
    // Each set is [keys | stamps | ppn words] rounded up to whole
    // 64-byte lines.
    EXPECT_EQ(SetAssocTlb("l1", 64, 4).memoryBytes(), 16u * 128);
    EXPECT_EQ(SetAssocTlb("slice", 920, 8).memoryBytes(), 115u * 192);
    EXPECT_EQ(SetAssocTlb("odd", 24, 6).memoryBytes(), 4u * 192);
    EXPECT_EQ(SetAssocTlb("direct", 16, 1).memoryBytes(), 16u * 64);
}

TEST(SetAssocTlbSoa, OccupancyIsLiveAndEmptyFlushesShortCircuit)
{
    SetAssocTlb tlb("occupancy_test", 32, 4);
    EXPECT_EQ(tlb.occupancy(), 0u);
    // Flushing an empty array must not count invalidations.
    EXPECT_EQ(tlb.invalidateAll(), 0u);
    EXPECT_EQ(tlb.invalidateContext(3), 0u);
    EXPECT_EQ(tlb.invalidations.value(), 0.0);

    TlbEntry entry;
    entry.valid = true;
    entry.size = PageSize::FourKB;
    for (PageNum vpn = 0; vpn < 10; ++vpn) {
        entry.ctx = vpn & 1 ? 1 : 2;
        entry.vpn = 0x900 + vpn;
        entry.ppn = vpn;
        tlb.insert(entry);
    }
    EXPECT_EQ(tlb.occupancy(), 10u);
    EXPECT_EQ(tlb.invalidateContext(1), 5u);
    EXPECT_EQ(tlb.occupancy(), 5u);
    EXPECT_EQ(tlb.invalidateAll(), 5u);
    EXPECT_EQ(tlb.occupancy(), 0u);
    EXPECT_EQ(tlb.invalidations.value(), 10.0);
}

} // namespace
