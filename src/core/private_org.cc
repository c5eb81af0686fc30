/**
 * @file
 * Private L2 TLB organization implementation.
 */

#include "core/private_org.hh"

#include "energy/sram_model.hh"

namespace nocstar::core
{

PrivateOrg::PrivateOrg(const OrgConfig &config, OrgContext context,
                       stats::StatGroup *parent)
    : TlbOrganization("private_org", config, std::move(context), parent),
      lookupLatency_(energy::SramModel::accessLatency(config.l2Entries))
{
    arrays_.reserve(config.numCores);
    for (unsigned i = 0; i < config.numCores; ++i) {
        arrays_.push_back(std::make_unique<tlb::SetAssocTlb>(
            "l2_core" + std::to_string(i), config.l2Entries,
            config.l2Assoc, this));
    }
}

void
PrivateOrg::translate(CoreId core, ContextId ctx, Addr vaddr, Cycle now,
                      TranslationDone done)
{
    tlb::SetAssocTlb &array = *arrays_[core];
    Cycle t0 = now + config_.initiateLatency;
    Cycle start = portStart(core, t0);

    ++l2Accesses;
    noteAccessStart(core);
    if (ctx_.energy)
        ctx_.energy->addPrivateL2Lookup(config_.l2Entries);

    const tlb::TlbEntry *hit = array.lookupAnySize(ctx, vaddr);
    bool ecc = false;
    if (hit && eccCorrupted()) {
        // The entry read back corrupt: drop it and take the miss path.
        ++sliceEccRewalks;
        ecc = true;
        ContextId ectx = hit->ctx;
        PageNum vpn = hit->vpn;
        PageSize size = hit->size;
        array.invalidate(ectx, vpn, size);
        hit = nullptr;
    }
    Cycle lookup_done = start + lookupLatency_;

    TRACE(TLB, "core ", core, " private L2 ", hit ? "hit" : "miss",
          " vaddr 0x", std::hex, vaddr, std::dec);
    noteSliceLookup(core, start, lookup_done, hit != nullptr);

    if (hit) {
        ++l2Hits;
        TranslationResult result;
        result.completedAt = lookup_done;
        result.entry = *hit;
        result.l2Hit = true;
        totalAccessLatency += static_cast<double>(lookup_done - now);
        ctx_.queue->scheduleLambda(
            lookup_done, [this, core, result, done = std::move(done)] {
                noteAccessEnd(core);
                done(result);
            });
        return;
    }

    ++l2Misses;
    launchWalk(core, core, ctx, vaddr, lookup_done,
               [this, core, ctx, vaddr, now, ecc,
                done = std::move(done)](const mem::WalkResult &walk) {
                   tlb::SetAssocTlb &arr = *arrays_[core];
                   tlb::TlbEntry entry =
                       entryFor(ctx, vaddr, walk.translation);
                   arr.insert(entry);
                   prefetchAround(arr, ctx, entry.vpn, entry.size);

                   TranslationResult result;
                   result.completedAt = ctx_.queue->curCycle();
                   result.entry = entry;
                   result.walked = true;
                   result.eccRewalk = ecc || walk.eccRetried;
                   totalAccessLatency +=
                       static_cast<double>(result.completedAt - now);
                   noteAccessEnd(core);
                   done(result);
               });
}

void
PrivateOrg::shootdown(CoreId, ContextId ctx, Addr vaddr,
                      const std::vector<CoreId> &sharers, Cycle now,
                      ShootdownDone on_complete)
{
    ++shootdowns;
    mem::Translation t = ctx_.pageTable->translate(ctx, vaddr);
    PageNum vpn = pageNumber(vaddr, t.size);
    TRACE(Shootdown, "vaddr 0x", std::hex, vaddr, std::dec, " to ",
          sharers.size(), " sharers");

    for (CoreId sharer : sharers)
        if (ctx_.l1Invalidate)
            ctx_.l1Invalidate(sharer, ctx, vpn, t.size);

    // Every private L2 may hold a stale copy; the IPI handler on each
    // core invalidates locally, all in parallel.
    std::uint64_t removed = 0;
    for (auto &array : arrays_)
        removed += array->invalidate(ctx, vpn, t.size) ? 1 : 0;
    shootdownL2Invalidations += static_cast<double>(removed);

    Cycle done = now + shootdownLatency;
    totalShootdownLatency += static_cast<double>(done - now);
    if (on_complete)
        ctx_.queue->scheduleLambda(
            done, [cb = std::move(on_complete), done] { cb(done); });
}

void
PrivateOrg::preloadPrivate(CoreId core, ContextId ctx, Addr vaddr,
                           const mem::Translation &t)
{
    arrays_.at(core)->insert(entryFor(ctx, vaddr, t));
}

void
PrivateOrg::flushAll()
{
    for (auto &array : arrays_)
        array->invalidateAll();
}

std::uint64_t
PrivateOrg::totalEntries() const
{
    return static_cast<std::uint64_t>(config_.l2Entries) *
           config_.numCores;
}

} // namespace nocstar::core
