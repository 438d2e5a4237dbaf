#include "flick/migrator.hh"

#include <cstring>

#include "loader/loader.hh"
#include "sim/logging.hh"
#include "vm/mmu.hh"

namespace flick
{

PageMigrator::PageMigrator(EventQueue &events, MemSystem &mem,
                           PageTableManager &ptm, ResidencyTracker &tracker,
                           RangeAllocator &host_alloc,
                           const MigrationConfig &config)
    : _events(events), _mem(mem), _ptm(ptm), _tracker(tracker),
      _hostAlloc(host_alloc), _cfg(config), _stats("flick.residency")
{
}

void
PageMigrator::addDevice(DmaEngine *dma, RangeAllocator *window_heap)
{
    _dmas.push_back(dma);
    _heaps.push_back(window_heap);
}

void
PageMigrator::start()
{
    if (!_cfg.enabled)
        return;
    _events.scheduleIn(_cfg.scanInterval, "page-migrator-scan",
                       [this] { scan(); });
}

void
PageMigrator::manage(Addr cr3, VAddr va, std::uint64_t bytes)
{
    VAddr first = va & ~VAddr(4095);
    VAddr last = (va + bytes - 1) & ~VAddr(4095);
    for (VAddr page = first; page <= last; page += 4096)
        _pages.emplace(std::make_pair(cr3, page), ManagedPage{});
    _stats.set("pages_managed", _pages.size());
}

bool
PageMigrator::migrateNow(Addr cr3, VAddr va, int dest)
{
    VAddr page = va & ~VAddr(4095);
    auto tr = _ptm.translate(cr3, page);
    if (!tr || tr->size != PageSize::size4K)
        return false;
    if (_mem.platform().holderOf(tr->pa & ~Addr(4095)) == dest)
        return false;
    if (dest >= static_cast<int>(_dmas.size()) || dest < -1)
        return false;
    _queue.push_back({cr3, page, dest});
    pump();
    return true;
}

void
PageMigrator::scan()
{
    _stats.inc("scans");
    unsigned planned = 0;
    for (auto &[id, pg] : _pages) {
        if (pg.cooldown) {
            --pg.cooldown;
            continue;
        }
        auto tr = _ptm.translate(id.first, id.second);
        if (!tr || tr->size != PageSize::size4K)
            continue;
        Addr frame = tr->pa & ~Addr(4095);
        std::uint64_t key =
            _mem.canonicalPageKey(Requester::debug, frame);
        const std::vector<std::uint64_t> *row = _tracker.counts(key);
        if (pg.lastCounts.size() < _tracker.accessors())
            pg.lastCounts.resize(_tracker.accessors(), 0);
        if (!row)
            continue;

        // This epoch's per-accessor access deltas.
        std::uint64_t total = 0, best = 0;
        unsigned best_a = 0;
        for (unsigned a = 0; a < _tracker.accessors(); ++a) {
            // Counters are monotone per frame; a smaller value than the
            // snapshot means the page changed frames since last epoch.
            std::uint64_t delta = (*row)[a] >= pg.lastCounts[a]
                                      ? (*row)[a] - pg.lastCounts[a]
                                      : (*row)[a];
            pg.lastCounts[a] = (*row)[a];
            total += delta;
            if (delta > best) {
                best = delta;
                best_a = a;
            }
        }
        if (total < _cfg.minAccesses)
            continue;
        if (best * 100 < total * _cfg.dominancePct)
            continue;

        int holder = _mem.platform().holderOf(frame);
        int dest = best_a == 0 ? -1 : static_cast<int>(best_a - 1);
        if (dest == holder || holder == -2)
            continue;
        if (dest >= 0 && holder >= 0) {
            // Device-to-device moves go through host DRAM: this scan
            // hops the page to host; if the same device still dominates
            // next epoch, the second hop localizes it.
            dest = -1;
            _stats.inc("migration_two_hop");
        }
        if (planned >= _cfg.maxPerScan)
            break;
        ++planned;
        // Rest the page for the copy's own lifetime plus the configured
        // cooldown, so a queued page is never planned twice.
        pg.cooldown = _cfg.cooldownScans;
        _queue.push_back({id.first, id.second, dest});
    }
    pump();
    _events.scheduleIn(_cfg.scanInterval, "page-migrator-scan",
                       [this] { scan(); });
}

void
PageMigrator::pump()
{
    while (!_inFlight && !_queue.empty()) {
        Plan plan = _queue.front();
        auto tr = _ptm.translate(plan.cr3, plan.va);
        if (!tr || tr->size != PageSize::size4K) {
            _queue.pop_front();
            continue;
        }
        Addr frame = tr->pa & ~Addr(4095);
        int holder = _mem.platform().holderOf(frame);
        if (holder == plan.dest || holder == -2) {
            _queue.pop_front();
            continue;
        }

        // In-flight DMA exclusion: the copy shares the device's engine
        // with descriptor traffic; while that engine has transfers in
        // flight or queued, starting a page copy would interleave with
        // (and delay) live call migrations. Leave the plan queued and
        // retry at the next scan/commit boundary.
        unsigned dev =
            plan.dest >= 0 ? static_cast<unsigned>(plan.dest)
                           : static_cast<unsigned>(holder);
        DmaEngine *dma = _dmas.at(dev);
        if (dma->busy() || dma->queuedTransfers() > 0) {
            _stats.inc("migration_deferred_dma");
            return;
        }

        _queue.pop_front();
        InFlight f;
        f.plan = plan;
        f.holder = holder;
        f.oldPa = frame;
        if (plan.dest < 0) {
            f.newPa = _hostAlloc.allocate(4096);
        } else {
            RangeAllocator *heap = _heaps.at(plan.dest);
            f.destWinVa = heap->allocate(4096, 4096);
            std::uint64_t off =
                f.destWinVa - layout::nxpWindowBaseFor(plan.dest);
            f.newPa = _mem.platform().barBase(plan.dest) + off;
        }
        f.srcKey = _mem.canonicalPageKey(Requester::debug, f.oldPa);
        _inFlight = f;
        issueCopy();
    }
}

void
PageMigrator::issueCopy()
{
    InFlight &f = *_inFlight;
    f.dirty = false;
    const PlatformConfig &p = _mem.platform();
    auto done = [this] {
        // Bytes landed; charge a short kernel window for the commit
        // (PTE rewrite + shootdown IPIs), re-checking dirtiness then.
        _events.scheduleIn(_mem.timing().hostToHostDram * 4,
                           "page-migrator-commit", [this] { commit(); });
    };
    if (f.plan.dest >= 0) {
        Addr local = p.nxpDramLocalBase +
                     (f.newPa - p.barBase(f.plan.dest));
        _dmas.at(f.plan.dest)->copyHostToNxp(f.oldPa, local, 4096, done);
    } else {
        Addr local = p.nxpDramLocalBase + (f.oldPa - p.barBase(f.holder));
        _dmas.at(f.holder)->copyNxpToHost(local, f.newPa, 4096, -1, done);
    }
}

void
PageMigrator::commit()
{
    InFlight &f = *_inFlight;
    if (f.dirty || !copyIntact(f)) {
        if (f.retries >= _cfg.maxCopyRetries) {
            abortMigration();
            return;
        }
        ++f.retries;
        _stats.inc("migration_retries");
        issueCopy();
        return;
    }

    // Quiesce is over and the copy is clean: commit atomically (within
    // this event) — repoint the PTE, invalidate decoded text keyed on
    // the old frame (remap broadcasts notifyMappingChange), shoot down
    // every TLB, then release the old frame.
    InFlight fin = *_inFlight;
    _inFlight.reset(); // before remap: its invalidateAll must not re-dirty
    Addr old_pa = _ptm.remap(fin.plan.cr3, fin.plan.va, fin.newPa);
    if (old_pa != fin.oldPa)
        panic("migration commit: page %#llx moved under us",
              (unsigned long long)fin.plan.va);
    for (Mmu *m : _mmus)
        m->flushTlbs();
    if (fin.holder < 0) {
        _hostAlloc.free(fin.oldPa);
    } else {
        const PlatformConfig &p = _mem.platform();
        _heaps.at(fin.holder)->free(layout::nxpWindowBaseFor(fin.holder) +
                                    (fin.oldPa - p.barBase(fin.holder)));
    }
    auto it = _pages.find({fin.plan.cr3, fin.plan.va});
    if (it != _pages.end()) {
        it->second.cooldown = _cfg.cooldownScans;
        // The new frame's counters start from zero: drop the old
        // frame's snapshot so the next epoch's deltas don't wrap.
        it->second.lastCounts.clear();
    }
    _stats.inc("migrations");
    if (fin.plan.dest < 0)
        _stats.inc("migrations_to_host");
    else
        _stats.inc("migrations_to_dev" + std::to_string(fin.plan.dest));
    pump();
}

bool
PageMigrator::copyIntact(const InFlight &f)
{
    // An injected DMA corruption lands in the new frame; committing it
    // would silently change the page's data. The comparison charges no
    // simulated time; a torn copy is redone like a dirtied one.
    std::uint8_t src[4096], dst[4096];
    _mem.read(Requester::debug, f.oldPa, src, sizeof src);
    _mem.read(Requester::debug, f.newPa, dst, sizeof dst);
    return std::memcmp(src, dst, sizeof src) == 0;
}

void
PageMigrator::abortMigration()
{
    InFlight fin = *_inFlight;
    _inFlight.reset();
    if (fin.plan.dest < 0)
        _hostAlloc.free(fin.newPa);
    else
        _heaps.at(fin.plan.dest)->free(fin.destWinVa);
    _stats.inc("migration_aborts");
    pump();
}

void
PageMigrator::invalidatePage(std::uint64_t key)
{
    if (_inFlight && key == _inFlight->srcKey)
        _inFlight->dirty = true;
}

void
PageMigrator::invalidateAll()
{
    if (_inFlight)
        _inFlight->dirty = true;
}

} // namespace flick
