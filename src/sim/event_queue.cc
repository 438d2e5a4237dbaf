#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace flick
{

EventQueue::EventId
EventQueue::schedule(Tick when, const char *name, Callback cb)
{
    if (when < _now) {
        panic("event '%s' scheduled in the past (%llu < %llu)", name,
              (unsigned long long)when, (unsigned long long)_now);
    }
    EventId id = _nextId++;
    _heap.push_back({when, id, name, std::move(cb), false});
    std::push_heap(_heap.begin(), _heap.end(), later);
    ++_live;
    return id;
}

bool
EventQueue::deschedule(EventId id)
{
    // The heap cannot be searched efficiently; mark-and-skip instead.
    // The mark is lazy: the entry stays until it surfaces at the top.
    for (Entry &e : _heap) {
        if (e.id == id && !e.cancelled) {
            e.cancelled = true;
            --_live;
            purgeTop();
            return true;
        }
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
    while (!_heap.empty() && _heap.front().cancelled)
        popTop();
}

bool
EventQueue::step()
{
    if (_heap.empty())
        return false;
    Entry &top = _heap.front();
    _now = top.when;
    Callback cb = std::move(top.cb);
    popTop();
    purgeTop();
    --_live;
    ++_eventsRun;
    cb();
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
