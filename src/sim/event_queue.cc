#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace flick
{

void
EventQueue::pastEvent(Tick when, const char *name) const
{
    panic("event '%s' scheduled in the past (%llu < %llu)", name,
          (unsigned long long)when, (unsigned long long)_now);
}

void
EventQueue::grow()
{
    std::uint32_t base =
        static_cast<std::uint32_t>(_blocks.size()) * blockSlots;
    _blocks.push_back(std::make_unique<Slot[]>(blockSlots));
    // Thread the new block onto the free list in index order.
    Slot *block = _blocks.back().get();
    for (std::uint32_t i = 0; i < blockSlots; ++i)
        block[i].nextFree = i + 1 < blockSlots ? base + i + 1 : _freeHead;
    _freeHead = base;
}

EventQueue::EventId
EventQueue::push(Tick when, std::uint32_t slot)
{
    EventId id = _nextId++;
    _heap.push_back({when, id, slot});
    std::push_heap(_heap.begin(), _heap.end(), later);
    ++_live;
    return id;
}

bool
EventQueue::deschedule(EventId id)
{
    // The heap cannot be searched efficiently; mark-and-skip instead.
    // The mark is lazy: the entry (and its callback) stays until it
    // surfaces at the top.
    for (const Key &k : _heap) {
        if (k.seq != id)
            continue;
        Slot &s = slotAt(k.slot);
        if (s.cancelled)
            return false;
        s.cancelled = true;
        --_live;
        purgeTop();
        return true;
    }
    return false;
}

void
EventQueue::popTop()
{
    std::pop_heap(_heap.begin(), _heap.end(), later);
    _heap.pop_back();
}

void
EventQueue::purgeTop()
{
    while (!_heap.empty()) {
        std::uint32_t slot = _heap.front().slot;
        Slot &s = slotAt(slot);
        if (!s.cancelled)
            return;
        popTop();
        s.cb.reset();
        releaseSlot(slot);
    }
}

bool
EventQueue::step()
{
    if (_heap.empty())
        return false;
    Key top = _heap.front();
    _now = top.when;
    popTop();
    purgeTop();
    --_live;
    ++_eventsRun;
    // The slot stays off the free list while its callback runs, and
    // blocks never move, so the callback may schedule freely (even
    // grow the slab) while executing in place.
    Slot &s = slotAt(top.slot);
    s.cb();
    s.cb.reset();
    releaseSlot(top.slot);
    return true;
}

std::uint64_t
EventQueue::run()
{
    std::uint64_t n = 0;
    while (step())
        ++n;
    return n;
}

std::uint64_t
EventQueue::runUntil(Tick limit, bool advance_to_limit)
{
    std::uint64_t n = 0;
    while (true) {
        Tick next = nextEventTime();
        if (next == maxTick || next > limit)
            break;
        step();
        ++n;
    }
    if (advance_to_limit && _now < limit)
        _now = limit;
    return n;
}

} // namespace flick
