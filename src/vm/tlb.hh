/**
 * @file
 * Translation lookaside buffer with BAR remapping.
 *
 * The NxP TLBs carry the extra remapping stage of Section IV-A: when a
 * translation produces a physical address inside the host-assigned BAR0
 * window, the TLB subtracts the offset programmed by the host driver so the
 * request targets the NxP's local DRAM directly instead of looping back
 * over PCIe. Host TLBs simply leave the remap unconfigured.
 *
 * Functionally the TLB is fully associative with LRU replacement. The
 * implementation keeps a hash index plus a last-hit pointer so interpreter
 * cores can afford a lookup per memory access; neither affects modelled
 * behaviour, only simulator speed.
 */

#ifndef FLICK_VM_TLB_HH
#define FLICK_VM_TLB_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/stats.hh"
#include "vm/pte.hh"

namespace flick
{

/** One cached translation. */
struct TlbEntry
{
    bool valid = false;
    VAddr vbase = 0;            //!< Virtual page base.
    Addr pbase = 0;             //!< Physical page base (pre-remap).
    std::uint64_t granule = 0;  //!< Page size in bytes.
    std::uint64_t flags = 0;    //!< Raw leaf PTE bits.
    std::uint64_t lastUse = 0;  //!< LRU stamp.
};

/**
 * A fully associative, LRU-replaced TLB.
 */
class Tlb
{
  public:
    Tlb(std::string name, unsigned entries)
        : _entries(entries), _stats(std::move(name))
    {
        _slots.resize(entries);
        for (unsigned i = 0; i < entries; ++i)
            _freeSlots.push_back(entries - 1 - i);
    }

    /** Number of slots. */
    unsigned size() const { return _entries; }

    /**
     * Look up @p va; returns the entry and touches LRU state, or nullptr
     * on a miss.
     */
    const TlbEntry *lookup(VAddr va);

    /**
     * The last-hit fast path of lookup(), inline for the interpreter
     * step loop: returns the entry (with identical LRU/stat effects to
     * lookup()) only when the most recently hit entry covers @p va,
     * nullptr otherwise — callers fall back to the full lookup().
     */
    const TlbEntry *
    lookupLastHit(VAddr va)
    {
        if (!peekLastHit(va))
            return nullptr;
        _last->lastUse = ++_useClock;
        ++_hits;
        return _last;
    }

    /**
     * The entry lookupLastHit(@p va) would return, without touching LRU
     * state or statistics.
     */
    const TlbEntry *
    peekLastHit(VAddr va) const
    {
        bool covers = _last && _last->valid && va >= _last->vbase &&
                      va < _last->vbase + _last->granule;
        return covers ? _last : nullptr;
    }

    /** Whether @p e is still the last-hit entry (invalidation unsets it). */
    bool isLastHit(const TlbEntry *e) const { return _last == e; }

    /**
     * Bulk form of lookupLastHit(): leaves exactly the state @p n
     * successive hits on @p e would — the LRU clock, e's stamp and the
     * hit count. Page-local dispatch (DESIGN.md §13) credits a run of
     * same-page fetches here instead of looking each one up.
     */
    void
    creditLastHits(const TlbEntry *e, std::uint64_t n)
    {
        if (n == 0)
            return;
        _useClock += n;
        _slots[e - _slots.data()].lastUse = _useClock;
        _hits += n;
    }

    /**
     * Inspect the entry covering @p va without touching LRU state or
     * statistics (used by kernel code reading cached PTE bits, e.g. the
     * ISA tag in the fault path).
     */
    const TlbEntry *peek(VAddr va) const;

    /** Install a translation, evicting the LRU slot if needed. */
    void insert(VAddr vbase, Addr pbase, std::uint64_t granule,
                std::uint64_t flags);

    /** Invalidate everything (context switch without ASIDs). */
    void flushAll();

    /** Invalidate any entry covering @p va. */
    void flushVa(VAddr va);

    /**
     * Program the BAR remap window: physical addresses in
     * [bar_base, bar_base+size) have @p offset subtracted.
     * This models the TLB control register written by the host driver.
     */
    void
    setBarRemap(Addr bar_base, std::uint64_t size, Addr offset)
    {
        _remapBase = bar_base;
        _remapSize = size;
        _remapOffset = offset;
    }

    /** Apply the remap stage to a translated physical address. */
    Addr
    applyRemap(Addr pa) const
    {
        if (_remapSize != 0 && pa >= _remapBase &&
            pa < _remapBase + _remapSize) {
            return pa - _remapOffset;
        }
        return pa;
    }

    /**
     * Whether the 4 KiB page at @p page lies wholly inside or wholly
     * outside the remap window, so applyRemap() shifts every byte of it
     * by the same amount.
     */
    bool
    remapUniform(Addr page) const
    {
        if (_remapSize == 0)
            return true;
        Addr end = page + 4096;
        Addr remap_end = _remapBase + _remapSize;
        return end <= _remapBase || page >= remap_end ||
               (page >= _remapBase && end <= remap_end);
    }

    /**
     * Counters, synced on demand. The hot path (one lookup per fetch and
     * per data access) bumps raw integers; string-keyed stats are only
     * materialised when someone asks, so reporting stays off the
     * interpreter's critical path.
     */
    StatGroup &
    stats()
    {
        _stats.set("hits", _hits);
        _stats.set("misses", _misses);
        _stats.set("fills", _fills);
        _stats.set("evictions", _evictions);
        _stats.set("flushes", _flushes);
        return _stats;
    }

  private:
    /** 4K/2M/1G -> 0/1/2, for composing index keys. */
    static unsigned granuleIdx(std::uint64_t granule);

    /** Index key: page base (granule-aligned, low bits free) | granule. */
    static std::uint64_t
    key(VAddr vbase, unsigned gidx)
    {
        return vbase | gidx;
    }

    void invalidateSlot(unsigned slot);

    unsigned _entries;
    std::vector<TlbEntry> _slots;
    std::vector<unsigned> _freeSlots;
    std::unordered_map<std::uint64_t, unsigned> _index;
    std::array<std::uint32_t, 3> _granCount{};
    TlbEntry *_last = nullptr;
    std::uint64_t _useClock = 0;
    Addr _remapBase = 0;
    std::uint64_t _remapSize = 0;
    Addr _remapOffset = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _fills = 0;
    std::uint64_t _evictions = 0;
    std::uint64_t _flushes = 0;
    StatGroup _stats;
};

} // namespace flick

#endif // FLICK_VM_TLB_HH
