/**
 * @file
 * Hot-page migration between host and NxP DRAM (DESIGN.md §15).
 *
 * The residency counters say who touches a page; when the dominant
 * accessor is not the DRAM holding it, every one of those accesses pays
 * a bridge or peer crossing. The PageMigrator closes that gap at
 * runtime: it periodically scans the managed pages, picks the ones
 * whose recent accesses are dominated by a remote accessor, and moves
 * them over the existing DMA engines with the full remap protocol —
 * copy the frame, repoint the 4K PTE (PageTableManager::remap, which
 * broadcasts the decode-cache invalidation), shoot down every core's
 * TLBs, free the old frame. Writes racing the copy are caught through
 * the same write-listener path the decoded-instruction caches use
 * (DESIGN.md §13): a dirtied source page is recopied (bounded retries),
 * so no store is ever lost to a migration.
 *
 * Migration is opt-in (SystemConfig::withPageMigration). It schedules
 * scan events, so — unlike the passive residency counters — an enabled
 * migrator legitimately perturbs the event stream; disabled, none of
 * this code exists and runs are tick-for-tick identical to the seed.
 */

#ifndef FLICK_FLICK_MIGRATOR_HH
#define FLICK_FLICK_MIGRATOR_HH

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "mem/dma.hh"
#include "mem/mem_system.hh"
#include "mem/residency.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "vm/page_table.hh"
#include "vm/range_allocator.hh"

namespace flick
{

class Mmu;

/** Tunables of the hot-page migrator (SystemConfig::withPageMigration). */
struct MigrationConfig
{
    /** Master switch; off means the migrator is never constructed. */
    bool enabled = false;
    /** Period of the residency scan. */
    Tick scanInterval = us(50);
    /**
     * Minimum accesses to a page within one scan epoch before it is
     * considered for migration at all — cold pages are never moved.
     */
    std::uint64_t minAccesses = 16;
    /**
     * Share (percent) of an epoch's accesses the dominant accessor must
     * own before the page follows it. Together with cooldownScans this
     * is the ping-pong hysteresis: a page two cores fight over near
     * 50/50 stays put.
     */
    unsigned dominancePct = 60;
    /** Scan epochs a freshly migrated page rests before moving again. */
    unsigned cooldownScans = 4;
    /** Maximum migrations planned per scan epoch. */
    unsigned maxPerScan = 4;
    /** Recopy attempts when writes keep dirtying the source mid-copy. */
    unsigned maxCopyRetries = 3;
};

/**
 * Moves hot 4K pages between DRAMs over the DMA engines.
 *
 * Registered as a DecodeSink so the MemSystem write-listener fan-out
 * doubles as the migrator's dirty-page detector during copy flight.
 */
class PageMigrator : public DecodeSink
{
  public:
    PageMigrator(EventQueue &events, MemSystem &mem, PageTableManager &ptm,
                 ResidencyTracker &tracker, RangeAllocator &host_alloc,
                 const MigrationConfig &config);

    /** Register device @p k's DMA engine and window heap (frame source). */
    void addDevice(DmaEngine *dma, RangeAllocator *window_heap);

    /** Register a core MMU for post-remap TLB shootdown. */
    void addMmu(Mmu *mmu) { _mmus.push_back(mmu); }

    /** Arm the recurring residency scan (call once, after addDevice). */
    void start();

    /**
     * Put [va, va+bytes) in @p cr3 under migration management. Pages
     * must be 4K-mapped (FlickSystem::migratableMalloc guarantees it).
     */
    void manage(Addr cr3, VAddr va, std::uint64_t bytes);

    /**
     * Test/tool hook: queue an immediate migration of @p va's page to
     * @p dest (-1 = host DRAM, k = device k's DRAM), bypassing the
     * residency thresholds but not the copy/remap protocol. @return
     * false if the page is unmapped or already held by @p dest.
     */
    bool migrateNow(Addr cr3, VAddr va, int dest);

    /** True when no migration is queued or in flight. */
    bool idle() const { return !_inFlight && _queue.empty(); }

    /** The flick.residency.* migration counters. */
    StatGroup &stats() { return _stats; }

    // DecodeSink: dirty detection for the page being copied.
    void invalidatePage(std::uint64_t key) override;
    void invalidateAll() override;

  private:
    struct Plan
    {
        Addr cr3;
        VAddr va;  //!< Page-aligned.
        int dest;  //!< -1 = host, k = device k.
    };

    struct InFlight
    {
        Plan plan;
        int holder;           //!< Source DRAM (-1 host, k device).
        Addr oldPa;           //!< Source frame (host PA space).
        Addr newPa;           //!< Destination frame (host PA space).
        VAddr destWinVa = 0;  //!< Window-heap block backing newPa (device).
        std::uint64_t srcKey; //!< Canonical page key of the source frame.
        bool dirty = false;   //!< A write touched the source mid-copy.
        unsigned retries = 0;
    };

    void scan();
    void pump();
    void issueCopy();
    void commit();
    /** The copied frame matches its source (DMA faults flip bits). */
    bool copyIntact(const InFlight &f);
    void abortMigration();

    EventQueue &_events;
    MemSystem &_mem;
    PageTableManager &_ptm;
    ResidencyTracker &_tracker;
    RangeAllocator &_hostAlloc;
    MigrationConfig _cfg;
    std::vector<DmaEngine *> _dmas;
    std::vector<RangeAllocator *> _heaps;
    std::vector<Mmu *> _mmus;

    struct ManagedPage
    {
        unsigned cooldown = 0;
        std::vector<std::uint64_t> lastCounts; //!< Snapshot per accessor.
    };
    /** (cr3, page VA) -> state; std::map for deterministic scan order. */
    std::map<std::pair<Addr, VAddr>, ManagedPage> _pages;

    std::deque<Plan> _queue;
    std::optional<InFlight> _inFlight;
    StatGroup _stats;
};

} // namespace flick

#endif // FLICK_FLICK_MIGRATOR_HH
