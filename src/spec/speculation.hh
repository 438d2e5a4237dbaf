/**
 * @file
 * Speculative dual execution: host/NxP twin racing with commit/abort
 * (DESIGN.md §16).
 *
 * When the placement policy's confidence margin for a host-originated
 * cross-ISA call falls below a threshold, the MigrationEngine launches
 * the function's host twin speculatively while the migration descriptor
 * is in flight and commits whichever side finishes first. The machinery
 * here is the transactional-memory half of that bargain:
 *
 *  - WriteBuffer holds the speculative run's stores at byte granularity,
 *    keyed by (backing store, offset), so no guest-visible memory write
 *    happens until commit. Speculative loads are overlaid with buffered
 *    bytes so the twin observes its own stores.
 *  - RWSet tracks the pages the speculative run read and wrote.
 *  - SpeculationManager implements the MemSystem::SpecMemHook
 *    interposition: host-core accesses inside the speculative slice are
 *    buffered/overlaid, and every other requester's access is checked
 *    against the read/write sets — a hit aborts the speculation via the
 *    engine's conflict callback (never wrong, at worst wasted work).
 *
 * The one deliberate exemption: the racing NxP twin itself. Both twins
 * compute the same deterministic function on the same inputs, so the
 * device side's stores are byte-identical to the buffered host stores
 * that replay over them at commit; flagging them as conflicts would
 * squash every speculation whose callee stores anything. The engine
 * brackets the twin's execution slices with begin/endDeviceWindow() so
 * only that device's core and MMU are exempt, and only for this call.
 *
 * Everything here is functional-only: the manager never schedules
 * events and never changes an access's latency, so a system that does
 * not construct one (withSpeculation off) is tick-for-tick identical.
 */

#ifndef FLICK_SPEC_SPECULATION_HH
#define FLICK_SPEC_SPECULATION_HH

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_set>
#include <vector>

#include "mem/mem_system.hh"
#include "sim/ticks.hh"
#include "vm/pte.hh"

namespace flick
{

/** Tunables of speculative dual execution (SystemConfig::speculation). */
struct SpecConfig
{
    /** Master switch; off constructs nothing and changes nothing. */
    bool enabled = false;
    /**
     * Speculate when the placement decision's confidence margin
     * (PlacementDecision::confidencePct) is strictly below this. 100
     * races every eligible call; 0 never races.
     */
    unsigned confidenceThresholdPct = 25;
    /**
     * Instruction budget for the speculative host slice. A twin that
     * overruns it is no bargain against the crossing it is racing;
     * the speculation is doomed and the NxP result is awaited.
     */
    std::uint64_t maxInstructions = 4'000'000;
    /** Write-buffer cap; exceeding it dooms the speculation. */
    std::uint64_t maxBufferedBytes = 1ull << 20;
};

/**
 * Byte-granularity speculative store buffer. Keys are
 * (store << 52) | offset — the same namespace MemSystem::pageKey uses,
 * taken down to byte offsets — so one buffer covers stores to host DRAM
 * and any device DRAM at once, and replay order (key order) is
 * deterministic.
 */
class WriteBuffer
{
  public:
    /** Buffer @p len bytes written to @p store at @p offset. */
    void store(unsigned store, Addr offset, const void *buf,
               std::uint64_t len);

    /** Overlay buffered bytes onto a read of [@p offset, +len). */
    void overlay(unsigned store, Addr offset, void *buf,
                 std::uint64_t len) const;

    /** Distinct buffered bytes. */
    std::uint64_t bytes() const { return _bytes.size(); }

    bool empty() const { return _bytes.empty(); }

    /**
     * Visit buffered bytes coalesced into maximal contiguous runs, in
     * ascending key order: fn(store, offset, data, len).
     */
    template <typename Fn>
    void
    forEachRun(Fn &&fn) const
    {
        auto it = _bytes.begin();
        std::vector<std::uint8_t> run;
        while (it != _bytes.end()) {
            std::uint64_t first = it->first;
            run.clear();
            run.push_back(it->second);
            std::uint64_t expect = first + 1;
            ++it;
            while (it != _bytes.end() && it->first == expect) {
                run.push_back(it->second);
                ++expect;
                ++it;
            }
            fn(static_cast<unsigned>(first >> 52),
               static_cast<Addr>(first & ((1ull << 52) - 1)), run.data(),
               static_cast<std::uint64_t>(run.size()));
        }
    }

    void clear() { _bytes.clear(); }

  private:
    static std::uint64_t
    key(unsigned store, Addr offset)
    {
        return (std::uint64_t(store) << 52) | offset;
    }

    std::map<std::uint64_t, std::uint8_t> _bytes;
};

/** Page-granularity read/write sets of one speculative run. */
class RWSet
{
  public:
    void addRead(unsigned store, Addr offset, std::uint64_t len);
    void addWrite(unsigned store, Addr offset, std::uint64_t len);

    /** Does [@p offset, +len) of @p store touch the read or write set? */
    bool intersects(unsigned store, Addr offset, std::uint64_t len) const;

    /** Does it touch the write set specifically? */
    bool intersectsWrites(unsigned store, Addr offset,
                          std::uint64_t len) const;

    std::uint64_t readPages() const { return _reads.size(); }
    std::uint64_t writePages() const { return _writes.size(); }

    void clear();

  private:
    std::unordered_set<std::uint64_t> _reads;
    std::unordered_set<std::uint64_t> _writes;
};

/**
 * The per-call speculation state machine (at most one in flight: the
 * speculative twin occupies the host core for its whole lifetime, so a
 * second call cannot reach the launch point while one is active). It
 * is the one owner of a race's state, from arming to resolution.
 */
struct SpecContext
{
    int pid = 0;                //!< Task the raced call belongs to.
    std::uint64_t callId = 0;   //!< Generation token of the raced call.
    VAddr twinVa = 0;           //!< Host twin the race runs; 0 = unarmed.
    unsigned device = 0;        //!< Device the non-speculative side runs on.
    Tick launchTick = 0;        //!< When the host twin was launched.
    //! The host slice's charged time and (when it returned) its value.
    Tick hostElapsed = 0;
    std::uint64_t hostRetVal = 0;
    WriteBuffer buffer;         //!< Speculative stores, commit-pending.
    RWSet rwset;                //!< Pages the speculative run touched.
    bool doomed = false;        //!< Fault/overflow/native call: cannot commit.
    const char *doomReason = "";
    bool conflicted = false;    //!< Conflict callback already fired.
};

/**
 * Owner of the speculation machinery and the MemSystem interposer.
 * Constructed only when withSpeculation is enabled; construction
 * attaches the hook, destruction detaches it.
 */
class SpeculationManager final : public SpecMemHook
{
  public:
    SpeculationManager(MemSystem &mem, const SpecConfig &cfg);
    ~SpeculationManager() override;

    SpeculationManager(const SpeculationManager &) = delete;
    SpeculationManager &operator=(const SpeculationManager &) = delete;

    const SpecConfig &config() const { return _cfg; }

    /**
     * Engine callback fired (once per context) when a non-exempt access
     * conflicts with the active speculation's read/write sets. Called
     * from inside a memory access: the engine must only flip flags and
     * defer real work to events.
     */
    void setConflictCallback(std::function<void()> cb)
    {
        _onConflict = std::move(cb);
    }

    /** Race this call? (No speculation in flight, margin below bar.) */
    bool
    shouldSpeculate(unsigned confidence_pct) const
    {
        return !_active && confidence_pct < _cfg.confidenceThresholdPct;
    }

    // --- Lifecycle, driven by the MigrationEngine -----------------------

    /**
     * Arm a race for call (@p pid, @p call_id): its host twin
     * @p twin_va launches when the call's descriptor fires. Replaces an
     * armed race that never launched (its call died first).
     */
    void arm(int pid, std::uint64_t call_id, VAddr twin_va);

    /** Is a race armed, not yet launched, for (pid, callId)? */
    bool
    armed(int pid, std::uint64_t call_id) const
    {
        return !_active && _ctx.twinVa && _ctx.pid == pid &&
               _ctx.callId == call_id;
    }

    /** Launch the armed race against @p device; returns seq. */
    std::uint64_t begin(unsigned device, Tick now);

    /** The host core starts executing the speculative twin. */
    void beginSlice() { _slice = true; }
    /** The twin's slice ended after @p elapsed ticks, returning
     *  @p ret_val if it returned at all. */
    void
    endSlice(Tick elapsed, std::uint64_t ret_val)
    {
        _slice = false;
        _ctx.hostElapsed = elapsed;
        _ctx.hostRetVal = ret_val;
    }

    /** The racing NxP twin starts/stops a slice on @p device's core. */
    void beginDeviceWindow(unsigned device);
    void endDeviceWindow() { _deviceWindow = false; }

    /**
     * Mark the speculation non-committable (fault, overflow, native).
     * Only the host slice and its end doom a race, so from then on
     * !doomed() is the race's committability.
     */
    void markDoomed(const char *why);

    /**
     * Replay the buffered stores into the backing stores (ascending key
     * order, one run at a time) and retire the context. Replay goes
     * through the stores' write listeners, so decoded-instruction caches
     * see the writes like any others. Returns bytes replayed.
     */
    std::uint64_t commit();

    /** Discard the buffer and retire the context (loser/abort path). */
    void squash();

    // --- Introspection --------------------------------------------------

    bool active() const { return _active; }
    bool
    matches(int pid, std::uint64_t call_id) const
    {
        return _active && _ctx.pid == pid && _ctx.callId == call_id;
    }
    std::uint64_t seq() const { return _seq; }
    int pid() const { return _ctx.pid; }
    std::uint64_t callId() const { return _ctx.callId; }
    VAddr twinVa() const { return _ctx.twinVa; }
    unsigned device() const { return _ctx.device; }
    Tick launchTick() const { return _ctx.launchTick; }
    /** When the host twin's slice finished, in charged time. */
    Tick hostDoneTick() const { return _ctx.launchTick + _ctx.hostElapsed; }
    std::uint64_t hostRetVal() const { return _ctx.hostRetVal; }
    bool doomed() const { return _ctx.doomed; }
    const char *doomReason() const { return _ctx.doomReason; }
    bool conflicted() const { return _ctx.conflicted; }
    std::uint64_t bufferedBytes() const { return _ctx.buffer.bytes(); }

    // --- SpecMemHook ----------------------------------------------------

    bool filterWrite(Requester r, unsigned store, Addr offset,
                     const void *buf, std::uint64_t len) override;
    void observeRead(Requester r, unsigned store, Addr offset, void *buf,
                     std::uint64_t len) override;

  private:
    /** Is @p r the racing twin (or its MMU) inside its bracketed slice? */
    bool
    exempt(Requester r) const
    {
        return _deviceWindow && isNxpRequester(r) &&
               nxpRequesterDevice(r) == _ctx.device;
    }

    void conflict();

    MemSystem &_mem;
    SpecConfig _cfg;
    SpecContext _ctx;
    bool _active = false;
    bool _slice = false;        //!< Host core inside the speculative run.
    bool _deviceWindow = false; //!< Racing twin inside one of its slices.
    std::uint64_t _seq = 0;     //!< Stale-event guard for the engine.
    std::function<void()> _onConflict;
};

} // namespace flick

#endif // FLICK_SPEC_SPECULATION_HH
