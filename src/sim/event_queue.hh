/**
 * @file
 * Discrete-event simulation queue.
 *
 * The EventQueue is the heart of the simulated machine: every core quantum,
 * DMA completion, interrupt delivery and timer expiry is an event. Events
 * scheduled for the same Tick fire in FIFO order of scheduling, which keeps
 * the simulation deterministic.
 */

#ifndef FLICK_SIM_EVENT_QUEUE_HH
#define FLICK_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inplace_callback.hh"
#include "sim/ticks.hh"

namespace flick
{

/**
 * A time-ordered queue of callbacks driving the simulation forward.
 *
 * The queue is single-threaded and cooperative: callbacks run to completion
 * and may schedule further events (including at the current tick, which run
 * after all previously scheduled same-tick events).
 *
 * Scheduling allocates nothing in steady state. A callback is
 * constructed directly in a fixed-size slot of a slab that grows by
 * whole blocks (blocks never move), is invoked in place, destroyed
 * once it returns, and its slot recycled through a free list. The
 * time order lives in a binary heap of small trivially-copyable keys
 * (when, seq, slot), so heap sifts never touch a callback. Destroying
 * the queue destroys every still-pending callback (and whatever it
 * captured). Cancelled entries are purged whenever they reach the top,
 * so the top is always live and nextEventTime() is O(1).
 */
class EventQueue
{
  public:
    /** Largest callable (lambda capture) an event can hold, in bytes;
     *  sized for the migration engine's descriptor-carrying
     *  continuations. Larger captures fail to compile. */
    static constexpr std::size_t maxCallbackBytes = 160;

    /** Opaque handle identifying a scheduled event, for deschedule(). */
    using EventId = std::uint64_t;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @param when Absolute tick; must not be in the past.
     * @param name Debug label for diagnostics; a string with static
     *        storage duration (a literal).
     * @param cb Callable taking no arguments; constructed in place in
     *        the event's slot (at most maxCallbackBytes).
     * @return Handle usable with deschedule().
     */
    template <class F>
    EventId
    schedule(Tick when, const char *name, F &&cb)
    {
        if (when < _now)
            pastEvent(when, name);
        std::uint32_t slot = acquireSlot();
        slotAt(slot).cb.emplace(std::forward<F>(cb));
        return push(when, slot);
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    template <class F>
    EventId
    scheduleIn(Tick delay, const char *name, F &&cb)
    {
        return schedule(_now + delay, name, std::forward<F>(cb));
    }

    /**
     * Cancel a previously scheduled event.
     *
     * @return true if the event was pending and is now cancelled; false if
     *         it already fired or was already cancelled.
     */
    bool deschedule(EventId id);

    /** True when no events are pending. */
    bool empty() const { return _live == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return _live; }

    /** Time of the earliest pending event, or maxTick if none. */
    Tick
    nextEventTime() const
    {
        return _heap.empty() ? maxTick : _heap.front().when;
    }

    /**
     * Run the earliest pending event.
     *
     * @return true if an event ran, false if the queue was empty.
     */
    bool step();

    /** Run until the queue drains. Returns the number of events run. */
    std::uint64_t run();

    /**
     * Run events with time <= @p limit; time stops at the last event run
     * (or advances to @p limit if advance_to_limit is set).
     *
     * @return Number of events run.
     */
    std::uint64_t runUntil(Tick limit, bool advance_to_limit = false);

    /** Total number of events executed over the queue's lifetime. */
    std::uint64_t eventsRun() const { return _eventsRun; }

  private:
    /** Heap entry; the callback lives in slotAt(slot). */
    struct Key
    {
        Tick when;
        EventId seq; //!< The EventId; also the same-tick FIFO order.
        std::uint32_t slot;
    };

    /** Slab cell holding one pending event's callback in place. A
     *  free slot's callback is empty, so destroying the slab destroys
     *  exactly the pending and unpurged cancelled callbacks. */
    struct Slot
    {
        InplaceCallback<maxCallbackBytes> cb;
        std::uint32_t nextFree = 0; //!< Free-list link while unused.
        bool cancelled = false;
    };

    static constexpr unsigned blockShift = 6;
    static constexpr std::uint32_t blockSlots = 1u << blockShift;

    /** Heap order: std::*_heap keep the greatest first, so "greater"
     *  means "later". */
    static bool
    later(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    Slot &
    slotAt(std::uint32_t i)
    {
        return _blocks[i >> blockShift][i & (blockSlots - 1)];
    }

    /** Take a slot off the free list, growing the slab by a block when
     *  it is empty. */
    std::uint32_t
    acquireSlot()
    {
        if (_freeHead == noSlot)
            grow();
        std::uint32_t i = _freeHead;
        _freeHead = slotAt(i).nextFree;
        return i;
    }

    /** Return an empty slot to the free list. */
    void
    releaseSlot(std::uint32_t i)
    {
        Slot &s = slotAt(i);
        s.cancelled = false;
        s.nextFree = _freeHead;
        _freeHead = i;
    }

    void grow();
    EventId push(Tick when, std::uint32_t slot);
    [[noreturn]] void pastEvent(Tick when, const char *name) const;

    /** Remove the top key from the heap. */
    void popTop();

    /** Pop cancelled entries off the top (destroying their callbacks)
     *  until it is live or empty. */
    void purgeTop();

    static constexpr std::uint32_t noSlot = ~std::uint32_t(0);

    Tick _now = 0;
    EventId _nextId = 1;
    std::size_t _live = 0;
    std::uint64_t _eventsRun = 0;
    std::vector<Key> _heap;
    std::vector<std::unique_ptr<Slot[]>> _blocks;
    std::uint32_t _freeHead = noSlot;
};

} // namespace flick

#endif // FLICK_SIM_EVENT_QUEUE_HH
