/**
 * @file
 * Base class for the two interpreter cores.
 *
 * A Core executes instructions synchronously, accumulating simulated time
 * (cycles plus memory latencies) into a slice counter, and stops on any
 * fault, on its halt instruction, or when its PC reaches the runtime
 * trampoline. The migration runtimes drive cores through run() and the
 * ABI-neutral argument/return accessors.
 */

#ifndef FLICK_ISA_CORE_HH
#define FLICK_ISA_CORE_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "isa/context.hh"
#include "isa/icache.hh"
#include "isa/isa.hh"
#include "mem/mem_system.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "vm/fault.hh"
#include "vm/mmu.hh"

namespace flick
{

class DecodeCacheBase;

/** Why and where a run() slice stopped. */
struct RunResult
{
    Fault stop = Fault::none;   //!< trampoline/halt/fetch fault/etc.
    VAddr faultVa = 0;          //!< Faulting VA (PC for fetch faults).
    Tick elapsed = 0;           //!< Simulated time consumed by the slice.
    std::uint64_t instructions = 0; //!< Instructions retired in the slice.
};

/** Construction parameters for a core. */
struct CoreParams
{
    std::string name;
    Requester requester = Requester::hostCore;
    std::uint64_t freqHz = 1'000'000'000ull;
    unsigned itlbEntries = 64;
    unsigned dtlbEntries = 64;
    Tick walkOverhead = 0;
    MmuPolicy mmuPolicy;
    /** Model an I-cache and charge line fills on misses (the NxP). */
    bool modelIcache = false;
    std::uint32_t icacheLines = 256;
    std::uint32_t icacheLineBytes = 64;
    /**
     * Dispatch through the per-page decoded-instruction cache
     * (DESIGN.md §13). Off selects the byte-at-a-time reference decode
     * path; timing and semantics are identical either way.
     */
    bool decodeCache = true;
};

/**
 * An in-order, IPC=1 interpreter core with its own MMU.
 */
class Core
{
  public:
    Core(const CoreParams &params, MemSystem &mem);
    virtual ~Core() = default;

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** ISA implemented by this core. */
    virtual IsaKind isa() const = 0;

    const std::string &name() const { return _name; }

    VAddr pc() const { return _pc; }
    void setPc(VAddr pc) { _pc = pc; }

    /**
     * Execute until a stop condition or @p max_instructions.
     *
     * On a fetch fault the PC is left at the faulting address and all
     * registers are intact — in particular the argument registers of a
     * just-initiated call, which is what lets the migration handler pick
     * up the callee's arguments (Section IV-B1).
     *
     * Each ISA core implements this as `return runLoop(*this, n)` so the
     * shared loop dispatches its step() statically.
     */
    virtual RunResult run(std::uint64_t max_instructions = ~0ull) = 0;

    // --- ABI-neutral accessors used by the migration runtimes ---------

    /** Number of register-passed arguments in this ISA's ABI. */
    virtual unsigned maxArgRegs() const = 0;

    /** Read argument register @p i. */
    virtual std::uint64_t arg(unsigned i) const = 0;

    /** Write argument register @p i. */
    virtual void setArg(unsigned i, std::uint64_t v) = 0;

    /** Read the ABI return-value register. */
    virtual std::uint64_t retVal() const = 0;

    /** Write the ABI return-value register. */
    virtual void setRetVal(std::uint64_t v) = 0;

    virtual std::uint64_t stackPointer() const = 0;
    virtual void setStackPointer(std::uint64_t sp) = 0;

    /**
     * Set up a call: PC := @p target, arguments := @p args, and the
     * return path arranged so that the callee's `ret` lands on the
     * runtime trampoline. May adjust the stack (HX64 pushes).
     */
    virtual void setupCall(VAddr target,
                           std::span<const std::uint64_t> args) = 0;

    /** setupCall() with literal arguments. */
    void
    setupCall(VAddr target, std::initializer_list<std::uint64_t> args)
    {
        setupCall(target, std::span<const std::uint64_t>(args.begin(),
                                                         args.size()));
    }

    /**
     * Complete a hijacked call: deliver @p retval and emulate the
     * callee's return so execution resumes at the original call site
     * (Section IV-B1's "just like a normal return").
     */
    virtual void finishHijackedCall(std::uint64_t retval) = 0;

    /** Snapshot all architectural state (context switch out). */
    virtual CoreContext saveContext() const = 0;

    /** Restore architectural state (context switch in). */
    virtual void restoreContext(const CoreContext &ctx) = 0;

    // --- Infrastructure ------------------------------------------------

    /**
     * Handler invoked when the PC enters the native-function gate.
     * It performs the call on the simulator side (reading arguments from
     * and delivering the return value to this core) and returns the
     * simulated time to charge.
     */
    using NativeHook = std::function<Tick(Core &)>;

    /** Install the native-gate PC range and its handler. */
    void
    setNativeRange(VAddr lo, VAddr hi, NativeHook hook)
    {
        _nativeLo = lo;
        _nativeHi = hi;
        _nativeHook = std::move(hook);
    }

    /**
     * Swap the native-gate handler, keeping the PC range, and return the
     * previous one. A speculative slice (DESIGN.md §16) installs a stub
     * that dooms the speculation instead of letting a native-bridge call
     * perform unbuffered side effects, then restores the original.
     */
    NativeHook
    swapNativeHook(NativeHook hook)
    {
        NativeHook old = std::move(_nativeHook);
        _nativeHook = std::move(hook);
        return old;
    }

    /** Callback invoked with the PC before each instruction executes. */
    using TraceHook = std::function<void(VAddr pc)>;

    /** Install (or clear, with nullptr) the instruction trace hook. */
    void setTraceHook(TraceHook hook) { _traceHook = std::move(hook); }

    Mmu &mmu() { return _mmu; }
    ClockDomain clock() const { return _clock; }
    MemSystem &mem() { return _mem; }
    StatGroup &stats() { return _stats; }
    ICache *icache() { return _icache.get(); }

    /** Instructions retired over the core's lifetime. */
    std::uint64_t totalInstructions() const { return _totalInstructions; }

  protected:
    /**
     * Execute one instruction at _pc.
     *
     * Adds time to _slice; on a fault sets _faultVa and returns the
     * fault without changing _pc (fetch faults) or after setting
     * _faultVa to the data address (data faults).
     */
    virtual Fault step() = 0;

    /**
     * The run() loop, shared by both cores as a template so that each
     * ISA's run() override calls its own step() and dispatch()
     * statically — a virtual dispatch per simulated instruction costs
     * measurable simulated MIPS (bench_interp). Derived classes befriend
     * Core so the qualified calls reach their private members.
     *
     * The first instruction fetched on a page goes through the full
     * step(); runPage() then carries on within that page. With a trace
     * hook installed every instruction goes through step(), which is
     * also the per-instruction oracle the page loop is tested against.
     */
    template <typename CoreT>
    RunResult
    runLoop(CoreT &self, std::uint64_t max_instructions)
    {
        RunResult result;
        _slice = 0;

        while (result.instructions < max_instructions) {
            if (_pc == runtimeTrampoline) {
                result.stop = Fault::trampoline;
                break;
            }
            if (_nativeHook && _pc >= _nativeLo && _pc < _nativeHi) {
                // Native-bridge function: executed on the simulator
                // side; the hook consumes the call and emulates its
                // return.
                chargeTicks(_nativeHook(*this));
                ++result.instructions;
                continue;
            }
            if (_traceHook)
                _traceHook(_pc);
            Fault f = self.CoreT::step();
            if (f == Fault::none) {
                ++result.instructions;
                if (!_traceHook)
                    f = runPage<CoreT>(result, max_instructions);
            }
            if (f != Fault::none) {
                result.stop = f;
                result.faultVa = _faultVa;
                break;
            }
        }

        _totalInstructions += result.instructions;
        _instructions.inc(result.instructions);
        syncDecodeStats();
        result.elapsed = _slice;
        return result;
    }

    /**
     * Page-local dispatch (DESIGN.md §13). While the PC stays on the
     * 4 KiB virtual page of the current ITLB last-hit entry and its
     * decode slot is filled, dispatch straight off the page's entry
     * array, applying the exact effects of the fetches it skips: each
     * one is an ITLB last hit (same page, same live entry, permission
     * already checked), and an I-cache hit unless its line differs from
     * the previous fetch's, which gets a real access(). Hits are
     * credited in bulk on exit; decode hits and cycles stay per
     * instruction, inside dispatch(). Returns a handler's fault, or
     * Fault::none to fall back to step() — on an empty slot (e.g.
     * cleared by a self-modifying store), a PC off the page or
     * misaligned, or max_instructions.
     */
    template <typename CoreT>
    Fault
    runPage(RunResult &result, std::uint64_t max_instructions)
    {
        // Reach the ISA core through `this`, not a separate reference,
        // so the compiler keeps one object pointer live in the loop.
        CoreT &self = static_cast<CoreT &>(*this);
        auto *cache = self.decodeCache();
        Addr page_pa = 0;
        const TlbEntry *e = cache ? _mmu.fetchPage(_pc, page_pa) : nullptr;
        if (!e)
            return Fault::none;
        const VAddr page = _pc & ~VAddr(4095);
        // The trampoline and native-gate checks are per fetch; pages
        // holding either take the per-instruction loop instead.
        if ((runtimeTrampoline & ~VAddr(4095)) == page ||
            (_nativeLo < page + 4096 && page < _nativeHi))
            return Fault::none;
        auto *base = slotFor(*cache, page_pa);
        if (!base)
            return Fault::none;

        using CacheT = std::remove_pointer_t<decltype(cache)>;
        constexpr VAddr misaligned = (VAddr(1) << CacheT::shift) - 1;
        Tlb &itlb = _mmu.itlb();
        // Lines are tracked by page offset: page_pa is 4 KiB aligned, so
        // two offsets share a line exactly when their pa's do. Without
        // an I-cache the zero mask never sees a line change.
        ICache *icache = _icache.get();
        const VAddr line_mask = icache ? ~VAddr(icache->lineBytes() - 1) : 0;
        VAddr line = icache ? ~VAddr(0) : 0; // first fetch: real access
        std::uint64_t line_changes = 0;
        std::uint64_t left = max_instructions - result.instructions;
        Fault f = Fault::none;
        for (; left != 0; --left) {
            VAddr off = _pc - page;
            if (off >= 4096 || (off & misaligned))
                break;
            const auto &d = base[off >> CacheT::shift];
            if (!d.fn || !itlb.isLastHit(e))
                break;
            if ((off & line_mask) != line) {
                line = off & line_mask;
                ++line_changes;
                if (!icache->access(page_pa + off))
                    fetchLineFill(page_pa + off);
            }
            f = self.CoreT::dispatch(d, page + off);
            if (f != Fault::none)
                break;
        }
        std::uint64_t retired =
            max_instructions - result.instructions - left;
        result.instructions += retired;
        // A faulting instruction was fetched but did not retire.
        std::uint64_t fetches = retired + (f != Fault::none);
        itlb.creditLastHits(e, fetches);
        if (icache)
            icache->creditHits(fetches - line_changes);
        return f;
    }

    /** Charge @p n core cycles to the current slice. */
    void chargeCycles(std::uint64_t n) { _slice += _clock.cycles(n); }

    /** Charge raw ticks to the current slice. */
    void chargeTicks(Tick t) { _slice += t; }

    /**
     * Translate a fetch address and charge I-cache / walk costs.
     * On success the physical address is returned through @p pa.
     * Inline: this runs once per step, and in steady state collapses to
     * the Mmu's last-hit fast path plus an I-cache hit.
     */
    Fault
    fetchTranslate(VAddr va, Addr &pa)
    {
        TranslationResult tr = _mmu.translate(va, AccessType::fetch);
        chargeTicks(tr.latency);
        if (tr.fault != Fault::none) {
            _faultVa = va;
            return tr.fault;
        }
        pa = tr.pa;
        if (_icache && !_icache->access(pa))
            fetchLineFill(pa);
        return Fault::none;
    }

    /**
     * Decode-cache slot for the instruction at physical @p pa, or
     * nullptr when the covering page is uncacheable. The canonical page
     * key is a pure function of (requester, page) and the static
     * platform layout, and @p cache's entry arrays never move, so the
     * page's entry base is memoized per physical text page: steady-state
     * fetches cost one compare and one indexed load. Invalidations clear
     * entries in place, so a memoized base simply reads back empty.
     */
    template <typename CacheT>
    auto
    slotFor(CacheT &cache, Addr pa) -> decltype(cache.pageBase(0))
    {
        Addr page = pa & ~Addr(4095);
        if (page != _slotPage) {
            _slotPage = page;
            _slotBase = cache.pageBase(_mem.canonicalPageKey(_requester, pa));
        }
        auto *base = static_cast<decltype(cache.pageBase(0))>(_slotBase);
        return base ? base + ((pa & 4095) >> CacheT::shift) : nullptr;
    }

    /** Read instruction bytes at physical @p pa (no extra charge). */
    void fetchBytes(Addr pa, void *buf, unsigned len);

    /** Timed data read; sign- or zero-extends into @p out. */
    Fault dataRead(VAddr va, unsigned len, bool sign_extend,
                   std::uint64_t &out);

    /** Timed data write. */
    Fault dataWrite(VAddr va, unsigned len, std::uint64_t value);

    void setFaultVa(VAddr va) { _faultVa = va; }

    /** Requester identity, for canonical decode-cache page keys. */
    Requester requester() const { return _requester; }

    /**
     * Register the subclass's decode cache so run() can sync its raw
     * hit/fill counters into this core's StatGroup once per slice
     * (per-step StatGroup updates would defeat the fast path).
     */
    void setDecodeCacheStats(DecodeCacheBase *c) { _decodeCacheStats = c; }

    VAddr _pc = 0;

  private:
    /** Cold half of fetchTranslate: charge an I-cache line fill. */
    void fetchLineFill(Addr pa);

    /** Publish the decode cache's raw counters into the StatGroup. */
    void syncDecodeStats();

    std::string _name;
    MemSystem &_mem;
    Requester _requester;
    ClockDomain _clock;
    Mmu _mmu;
    std::unique_ptr<ICache> _icache;
    DecodeCacheBase *_decodeCacheStats = nullptr;
    Tick _slice = 0;
    VAddr _faultVa = 0;
    Addr _slotPage = ~Addr(0); //!< ~0 is never page-aligned: cold.
    void *_slotBase = nullptr; //!< Entry base for _slotPage (typed by ISA).
    std::uint64_t _totalInstructions = 0;
    VAddr _nativeLo = 0;
    VAddr _nativeHi = 0;
    NativeHook _nativeHook;
    TraceHook _traceHook;
    StatGroup _stats;
    // Bumped once per run() slice, interned.
    StatGroup::Counter _instructions{_stats, "instructions"};
    StatGroup::Counter _decodeHits{_stats, "decode_cache_hits"};
    StatGroup::Counter _decodeFills{_stats, "decode_cache_fills"};
    StatGroup::Counter _decodeFallbacks{_stats, "decode_cache_fallbacks"};
    StatGroup::Counter _decodeInvalidatedPages{
        _stats, "decode_cache_invalidated_pages"};
};

} // namespace flick

#endif // FLICK_ISA_CORE_HH
