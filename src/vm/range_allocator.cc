#include "vm/range_allocator.hh"

#include "sim/logging.hh"

namespace flick
{

namespace
{

constexpr std::uint64_t
roundUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

} // namespace

RangeAllocator::RangeAllocator(std::string name, Addr base,
                               std::uint64_t size, std::uint64_t granule)
    : _name(std::move(name)), _base(base), _size(size), _granule(granule)
{
    if ((granule & (granule - 1)) != 0 || base % granule != 0 ||
        size % granule != 0)
        panic("RangeAllocator %s: region %#llx+%#llx not in %llu-byte "
              "granules",
              _name.c_str(), (unsigned long long)base,
              (unsigned long long)size, (unsigned long long)granule);
    _free[base] = size;
}

Addr
RangeAllocator::allocate(std::uint64_t bytes, std::uint64_t align)
{
    if (bytes == 0)
        panic("RangeAllocator %s: zero-size allocation", _name.c_str());
    if (align < _granule)
        align = _granule;
    if ((align & (align - 1)) != 0)
        panic("RangeAllocator %s: alignment %#llx not a power of two",
              _name.c_str(), (unsigned long long)align);
    bytes = roundUp(bytes, _granule);

    for (auto it = _free.begin(); it != _free.end(); ++it) {
        Addr start = it->first;
        std::uint64_t len = it->second;
        Addr aligned = roundUp(start, align);
        std::uint64_t skip = aligned - start;
        if (skip >= len || len - skip < bytes)
            continue;

        // Carve [aligned, aligned+bytes) out of [start, start+len).
        _free.erase(it);
        if (skip > 0)
            _free[start] = skip;
        std::uint64_t tail = len - skip - bytes;
        if (tail > 0)
            _free[aligned + bytes] = tail;
        _allocated += bytes;
        _live[aligned] = bytes;
        return aligned;
    }
    fatal("RangeAllocator %s exhausted: wanted %llu bytes (align %#llx), "
          "%llu of %llu allocated",
          _name.c_str(), (unsigned long long)bytes,
          (unsigned long long)align, (unsigned long long)_allocated,
          (unsigned long long)_size);
}

void
RangeAllocator::free(Addr addr)
{
    auto live = _live.find(addr);
    if (live == _live.end())
        panic("RangeAllocator %s: double free or free of unallocated "
              "%#llx",
              _name.c_str(), (unsigned long long)addr);
    std::uint64_t bytes = live->second;
    _live.erase(live);
    _allocated -= bytes;

    auto next = _free.lower_bound(addr);
    // Merge with successor.
    if (next != _free.end() && next->first == addr + bytes) {
        bytes += next->second;
        next = _free.erase(next);
    }
    // Merge with predecessor.
    if (next != _free.begin()) {
        auto prev = std::prev(next);
        if (prev->first + prev->second == addr) {
            prev->second += bytes;
            return;
        }
    }
    _free[addr] = bytes;
}

} // namespace flick
