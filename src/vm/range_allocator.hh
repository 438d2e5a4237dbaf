/**
 * @file
 * First-fit range allocator.
 *
 * Section III-D: "the system has separate memory allocators for each
 * core's local memory". Separate regions, one algorithm: the host and
 * NxP frame allocators hand out physical frames for text, data, page
 * tables, descriptor rings and annotated .data.nxp sections (4 KB
 * granule); the per-process host heap, each device's window heap (NxP
 * stacks, nxpMalloc) and the migratable region hand out virtual
 * addresses inside ranges that are already mapped (16-byte granule).
 */

#ifndef FLICK_VM_RANGE_ALLOCATOR_HH
#define FLICK_VM_RANGE_ALLOCATOR_HH

#include <cstdint>
#include <map>
#include <string>

#include "mem/sparse_memory.hh"

namespace flick
{

/**
 * First-fit, coalescing allocator over one address range.
 *
 * Sizes round up to the granule; alignment is any power of two no
 * smaller than the granule, which covers 4 KB pages, 2 MB and 1 GB huge
 * pages, DMA-aligned descriptor rings and 16-byte heap blocks. Live
 * blocks remember their size, so free() takes only the address.
 */
class RangeAllocator
{
  public:
    /**
     * @param name Diagnostics label.
     * @param base First usable address (granule aligned).
     * @param size Bytes managed (a granule multiple).
     * @param granule Allocation unit, a power of two.
     */
    RangeAllocator(std::string name, Addr base, std::uint64_t size,
                   std::uint64_t granule);

    /**
     * Allocate @p bytes (rounded up to the granule) aligned to @p align.
     * Fails fatally when the range is exhausted: the workload was
     * configured larger than the platform's memory.
     */
    Addr allocate(std::uint64_t bytes, std::uint64_t align = 1);

    /** Return a block from allocate(); merges with free neighbours. */
    void free(Addr addr);

    /** Bytes currently allocated. */
    std::uint64_t allocatedBytes() const { return _allocated; }

    /** Total managed bytes. */
    std::uint64_t capacity() const { return _size; }

    /** True if @p addr lies inside the managed range. */
    bool
    contains(Addr addr) const
    {
        return addr >= _base && addr < _base + _size;
    }

  private:
    std::string _name;
    Addr _base;
    std::uint64_t _size;
    std::uint64_t _granule;
    std::uint64_t _allocated = 0;
    /** Free blocks: start -> length, non-adjacent, sorted. */
    std::map<Addr, std::uint64_t> _free;
    /** Live blocks: start -> length. */
    std::map<Addr, std::uint64_t> _live;
};

} // namespace flick

#endif // FLICK_VM_RANGE_ALLOCATOR_HH
