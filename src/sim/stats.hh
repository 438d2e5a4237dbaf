/**
 * @file
 * Lightweight named statistics.
 *
 * Every major component exposes a StatGroup of named counters; the
 * FlickSystem aggregates them for reporting. Counters are plain 64-bit
 * values with optional descriptions, kept simple on purpose — this is the
 * reporting layer, not the timing model.
 */

#ifndef FLICK_SIM_STATS_HH
#define FLICK_SIM_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace flick
{

/**
 * A named collection of scalar statistics.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    /**
     * Interned handle to one counter, for hot paths that would
     * otherwise hash a key string per increment. The key is looked up
     * once, at the first inc() or set(); every later one is a pointer
     * bump. Until then the key is absent from dump(), exactly as with
     * StatGroup::inc(key). The handle stays valid across reset() and
     * any number of other inserts (the map's nodes never move) for the
     * group's lifetime; it is not copyable, so a component holding one
     * cannot be copied away from its group.
     */
    class Counter
    {
      public:
        Counter(StatGroup &group, std::string key)
            : _group(group), _key(std::move(key))
        {}
        Counter(const Counter &) = delete;
        Counter &operator=(const Counter &) = delete;

        void inc(std::uint64_t delta = 1) { slot() += delta; }
        void set(std::uint64_t v) { slot() = v; }

      private:
        std::uint64_t &
        slot()
        {
            if (!_slot)
                _slot = &_group.slot(_key);
            return *_slot;
        }

        StatGroup &_group;
        std::string _key;
        std::uint64_t *_slot = nullptr;
    };

    /**
     * Storage of counter @p key, created at zero (so the key appears in
     * dump() from now on). The reference is stable for the group's
     * lifetime; callers that intern many keys cache it and bump it
     * directly.
     */
    std::uint64_t &slot(const std::string &key) { return _counters[key]; }

    /** Group name used as a prefix when dumping. */
    const std::string &name() const { return _name; }

    /** Increment counter @p key by @p delta (creating it at zero). */
    void
    inc(const std::string &key, std::uint64_t delta = 1)
    {
        _counters[key] += delta;
    }

    /** Set counter @p key to an absolute value. */
    void set(const std::string &key, std::uint64_t v) { _counters[key] = v; }

    /** Value of counter @p key, or 0 if never touched. */
    std::uint64_t
    get(const std::string &key) const
    {
        auto it = _counters.find(key);
        return it == _counters.end() ? 0 : it->second;
    }

    /** Reset all counters to zero (keys are retained). */
    void
    reset()
    {
        for (auto &kv : _counters)
            kv.second = 0;
    }

    /** All counters, in unspecified (hash) order; dump() sorts. */
    const std::unordered_map<std::string, std::uint64_t> &counters() const
    {
        return _counters;
    }

    /**
     * Write "group.key value" lines to @p os, sorted by key so the
     * output is deterministic and diffable regardless of insertion or
     * hash order.
     */
    void dump(std::ostream &os) const;

  private:
    std::string _name;
    std::unordered_map<std::string, std::uint64_t> _counters;
};

/**
 * Counters bumped together with a per-index split: add(key, index)
 * bumps "key" and strfmt(fmt, key, index) of one StatGroup. Both keys
 * are formatted and looked up once per (key, index); a repeat bump is
 * a pointer-keyed lookup and two adds. A key literal's address names
 * it, so keys must be string literals.
 */
class SplitCounters
{
  public:
    /** @p fmt takes the key (%s) and then the index (%u). */
    SplitCounters(StatGroup &group, const char *fmt)
        : _group(group), _fmt(fmt)
    {}

    void
    add(const char *key, unsigned index, std::uint64_t delta = 1)
    {
        Slots &s = _cache[key];
        if (!s.total)
            s.total = &_group.slot(key);
        if (index >= s.split.size())
            s.split.resize(index + 1, nullptr);
        std::uint64_t *&split = s.split[index];
        if (!split)
            split = &_group.slot(splitKey(key, index));
        *s.total += delta;
        *split += delta;
    }

  private:
    /** Slots of "key" and of its per-index splits, null until bumped. */
    struct Slots
    {
        std::uint64_t *total = nullptr;
        std::vector<std::uint64_t *> split;
    };

    std::string splitKey(const char *key, unsigned index) const;

    StatGroup &_group;
    const char *_fmt;
    std::unordered_map<const char *, Slots> _cache;
};

} // namespace flick

#endif // FLICK_SIM_STATS_HH
