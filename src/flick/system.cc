#include "flick/system.hh"

#include <ostream>
#include <string_view>

#include "isa/hx64/disasm.hh"
#include "isa/rv64/disasm.hh"
#include "sim/logging.hh"

namespace flick
{

namespace
{

CoreParams
hostCoreParams(const TimingConfig &t, bool decode_cache)
{
    CoreParams p;
    p.name = "host";
    p.requester = Requester::hostCore;
    p.freqHz = t.hostFreqHz;
    p.itlbEntries = t.hostTlbEntries;
    p.dtlbEntries = t.hostTlbEntries;
    p.walkOverhead = t.hostMmuWalkOverhead;
    p.mmuPolicy.faultOnNxFetch = true;
    p.modelIcache = false;
    p.decodeCache = decode_cache;
    return p;
}

CoreParams
nxpCoreParams(const TimingConfig &t, unsigned device, bool decode_cache)
{
    CoreParams p;
    p.name = nxpDeviceName(device);
    p.requester = nxpCoreRequester(device);
    p.freqHz = t.nxpFreqHz;
    p.itlbEntries = t.nxpItlbEntries;
    p.dtlbEntries = t.nxpDtlbEntries;
    p.walkOverhead = t.nxpMmuWalkOverhead;
    p.mmuPolicy.faultOnNonNxFetch = true;
    p.mmuPolicy.requiredIsaTag = nxpIsaTag + device;
    p.modelIcache = true;
    p.icacheLines = t.nxpIcacheLines;
    p.icacheLineBytes = t.nxpIcacheLineBytes;
    p.decodeCache = decode_cache;
    return p;
}

/**
 * The debug port's page walk: split [va, va+len) of address space @p cr3
 * at page boundaries and hand each piece's physical address, offset
 * into the range and length to @p copy. Untimed, like every debug
 * access. Stops at the first unmapped page; @return the bytes walked.
 */
template <typename Copy>
std::uint64_t
walkPages(const PageTableManager &ptm, Addr cr3, VAddr va, std::uint64_t len,
          Copy copy)
{
    std::uint64_t done = 0;
    while (done < len) {
        auto tr = ptm.translate(cr3, va + done);
        if (!tr)
            break;
        std::uint64_t take =
            std::min(len - done, 4096 - ((va + done) & 4095));
        copy(tr->pa, done, take);
        done += take;
    }
    return done;
}

} // namespace

FlickSystem::NxpDevice::NxpDevice(FlickSystem &sys, unsigned device)
    : core(nxpCoreParams(sys._config.timing, device, sys._config.decodeCache),
           sys._mem),
      ctrl(sys._mem, device),
      dma(sys._events, sys._mem, &sys._irq, device),
      windowHeap(nxpDeviceName(device) + "_window",
                 layout::nxpWindowBaseFor(device) +
                     NxpPlatform::reservedLocalBytes,
                 sys._config.platform.deviceDramBytes(device) -
                     NxpPlatform::reservedLocalBytes,
                 16)
{
    ctrl.setNxpMmu(&core.mmu());
    // Every fabric component consults the one chaos controller, so a
    // seed fully determines the injected fault sequence; the one tracer
    // takes queue-depth gauges from every DMA engine.
    dma.setChaos(&sys._chaos);
    dma.setTracer(&sys._tracer);
    core.setNativeRange(layout::nativeGateNxp, layout::nativeGateNxp + 4096,
                        sys._natives.makeHook(IsaKind::rv64));
}

FlickSystem::FlickSystem(SystemConfig config)
    : _config(std::move(config)),
      _mem(_config.timing, _config.platform),
      _chaos(_config.chaos),
      _irq(_events, _config.timing),
      _hostAlloc("host_dram", 0x100000,
                 _config.platform.hostDramBytes - 0x100000, 4096),
      _nxpAlloc("nxp_dram",
                _config.platform.nxpDramLocalBase +
                    NxpPlatform::reservedLocalBytes,
                _config.platform.nxpDramBytes -
                    NxpPlatform::reservedLocalBytes,
                4096),
      _ptm(_mem, _hostAlloc),
      _hostCore(hostCoreParams(_config.timing, _config.decodeCache), _mem),
      _loader(_mem, _ptm, _hostAlloc, _nxpAlloc)
{
    if (_config.platform.nxpDeviceCount == 0)
        fatal("a Flick platform needs at least one NxP device");

    _irq.setChaos(&_chaos);
    _hostCore.setNativeRange(layout::nativeGateHost,
                             layout::nativeGateHost + 4096,
                             _natives.makeHook(IsaKind::hx64));
    for (unsigned k = 0; k < _config.platform.nxpDeviceCount; ++k)
        _devices.push_back(std::make_unique<NxpDevice>(*this, k));

    // The one tracer (disabled unless configured): milestones from the
    // engine and kernel, queue-depth gauges from the DMA engines.
    if (_config.trace)
        _tracer.enable();
    _kernel.setTracer(&_tracer, &_events);

    // Driver bring-up: compute each device's BAR remap offset and write
    // it into that device's TLB control register through its control
    // BAR, as the host driver does at boot (Section IV-A).
    for (unsigned k = 0; k < _config.platform.nxpDeviceCount; ++k) {
        _mem.writeInt(Requester::hostCore,
                      _config.platform.ctrlBase(k) +
                          NxpPlatform::regBarRemap,
                      _config.platform.barRemapOffsetFor(k), 8);
    }

    // Placement policy (DESIGN.md §11). Static placement is no policy
    // at all: the engine dispatches as linked, exactly the paper's path.
    _placement = _config.placementPolicy
                     ? _config.placementPolicy
                     : makePlacementPolicy(_config.placement,
                                           _config.placementConfig);

    // Data residency layer (DESIGN.md §15). The tracker is passive —
    // with it absent the MemSystem counting branch never runs and no
    // flick.residency.* counters exist; the migrator additionally
    // schedules scan events, so it is gated separately.
    if (_config.residencyTracking || _config.migration.enabled) {
        _residencyTracker = std::make_unique<ResidencyTracker>(
            _config.platform.nxpDeviceCount);
        _mem.setResidencyTracker(_residencyTracker.get());
    }

    // Speculative dual execution (DESIGN.md §16). Gated on construction
    // like the residency layer: with it off no manager exists, the
    // MemSystem hook pointer stays null and the engine's spec paths are
    // unreachable — tick-for-tick identity with a pre-speculation build.
    if (_config.speculation.enabled) {
        _speculation = std::make_unique<SpeculationManager>(
            _mem, _config.speculation);
    }

    _engine = std::make_unique<MigrationEngine>(
        _events, _mem, _ptm, _kernel, _irq, _hostCore, _config,
        MigrationEngine::Layers{.chaos = &_chaos,
                                .tracer = &_tracer,
                                .policy = _placement.get(),
                                .residency = _residencyTracker.get(),
                                .spec = _speculation.get()});

    // Per device: a host-side staging ring the kernel packages outbound
    // descriptors into, and a host-side inbox ring the device's outbox
    // DMAs into. The device-local mailbox rings live in the reserved
    // window of its DRAM (NxpPlatform).
    unsigned slots = _config.ringSlots;
    if (slots == 0)
        slots = 1;
    if (slots > NxpPlatform::maxRingSlots)
        slots = NxpPlatform::maxRingSlots;
    std::uint64_t ring_bytes = slots * DescriptorLink::slotBytes;
    for (unsigned k = 0; k < _devices.size(); ++k) {
        NxpDevice &d = *_devices[k];
        Addr staging = _hostAlloc.allocate(ring_bytes);
        Addr inbox = _hostAlloc.allocate(ring_bytes);
        _engine->addNxpDevice(d.core, d.ctrl, d.dma, d.windowHeap, staging,
                              inbox, k, slots);
    }

    if (_config.migration.enabled) {
        MigrationConfig mcfg = _config.migration;
        mcfg.enabled = true;
        _migrator = std::make_unique<PageMigrator>(
            _events, _mem, _ptm, *_residencyTracker, _hostAlloc, mcfg);
        for (auto &d : _devices)
            _migrator->addDevice(&d->dma, &d->windowHeap);
        _migrator->addMmu(&_hostCore.mmu());
        for (auto &d : _devices)
            _migrator->addMmu(&d->core.mmu());
        // The write-listener fan-out doubles as the migrator's dirty
        // detector while a page copy is in flight (DESIGN.md §13/§15).
        _mem.addDecodeSink(_migrator.get());
        _migrator->start();
    }
}

FlickSystem::NxpDevice &
FlickSystem::nxp(unsigned device)
{
    if (device >= _devices.size())
        fatal("no NxP device %u", device);
    return *_devices[device];
}

Process &
FlickSystem::load(const Program &program)
{
    LinkedImage image = program.link(_natives);
    auto proc = std::make_unique<Process>();
    proc->image = _loader.load(image, _config.loadOptions);
    proc->task = &_kernel.createTask(proc->image.cr3);
    // Tenants (DESIGN.md §14) are numbered in process load order, so the
    // _cr3#<k> stat suffixes and withTenantWeight() indices are stable
    // across runs regardless of submission interleaving.
    if (_config.qos.enabled)
        _engine->qos().registerTenant(proc->image.cr3);
    proc->task->hostStackTop = proc->image.hostStackTop;
    proc->task->hostStackBytes = _config.loadOptions.hostStackBytes;
    proc->hostHeap = std::make_unique<RangeAllocator>(
        "host_heap", proc->image.hostHeapBase, proc->image.hostHeapBytes,
        16);
    // Spawned threads carve their stacks below the main stack, separated
    // by unmapped guard gaps.
    proc->nextThreadStackTop = proc->image.hostStackTop -
                               _config.loadOptions.hostStackBytes -
                               threadStackGuard;
    // Multi-ISA binaries carry every function as text for every ISA
    // (Section 3.3): "f__host" is f's host-ISA twin — the failover
    // target, and the target a placement policy steers to when its cost
    // model says crossing does not pay (DESIGN.md §11) — and "f__dev<k>"
    // is f assembled for NxP k. The linked image's executable sections
    // say which device each symbol's text really belongs to (the loader
    // tags its PTEs accordingly). One pass registers each family, keyed
    // by every device member, so failover and placement work whichever
    // copy a call was steered to.
    auto execDevice = [&image](VAddr va) -> int {
        for (const auto &sec : image.sections) {
            if (!sec.executable || va < sec.base ||
                va >= sec.base + sec.bytes.size())
                continue;
            return sec.isa == IsaKind::rv64 ? static_cast<int>(sec.nxpDevice)
                                            : -1;
        }
        return -1;
    };
    Addr cr3 = proc->image.cr3;
    for (const auto &[name, va] : proc->image.symbols) {
        auto pos = name.rfind("__");
        if (pos == std::string::npos || pos == 0)
            continue;
        auto orig = proc->image.symbols.find(name.substr(0, pos));
        if (orig == proc->image.symbols.end())
            continue;
        std::string_view suffix(name.c_str() + pos + 2);
        if (suffix == "host") {
            _engine->registerTwin(cr3, orig->second,
                                  MigrationEngine::hostSide, va);
            continue;
        }
        if (suffix.size() <= 3 || suffix.substr(0, 3) != "dev" ||
            suffix.find_first_not_of("0123456789", 3) !=
                std::string_view::npos)
            continue;
        int twin_dev = execDevice(va);
        int home_dev = execDevice(orig->second);
        if (twin_dev < 0 || home_dev < 0)
            continue; // not a pair of NxP text symbols
        _engine->registerTwin(cr3, orig->second,
                              static_cast<unsigned>(home_dev), orig->second);
        _engine->registerTwin(cr3, orig->second,
                              static_cast<unsigned>(twin_dev), va);
    }
    _processes.push_back(std::move(proc));
    return *_processes.back();
}

Task &
FlickSystem::spawnThread(Process &process, std::uint64_t stack_bytes)
{
    stack_bytes = (stack_bytes + 4095) & ~std::uint64_t(4095);
    VAddr top = process.nextThreadStackTop;
    VAddr base = top - stack_bytes;
    for (VAddr va = base; va < top; va += 4096) {
        Addr pa = _hostAlloc.allocate(4096);
        _ptm.map(process.image.cr3, va, pa, 4096, PageSize::size4K,
                 pte::user | pte::writable | pte::noExecute);
    }
    process.nextThreadStackTop = base - threadStackGuard;
    return _kernel.createThread(process.image.cr3, top, stack_bytes);
}

void
FlickSystem::exitThread(Task &thread)
{
    _engine->releaseNxpStacks(thread);
    _kernel.exitTask(thread);
}

CallFuture
FlickSystem::submit(Process &process, CallSpec spec)
{
    Task &thread = spec.task ? *spec.task : *process.task;
    VAddr va = spec.symbol.empty() ? spec.address
                                   : process.image.symbol(spec.symbol);
    if (!va)
        fatal("CallSpec names neither a symbol nor an address");
    MigrationEngine::SubmitOptions opts;
    opts.deadline = spec.deadline;
    opts.placementHint = spec.placementHint;
    return _engine->submit(thread, va, spec.args,
                           thread.hostStackTop - 64, opts);
}

std::uint64_t
FlickSystem::call(Process &process, const std::string &symbol,
                  std::vector<std::uint64_t> args)
{
    return callVa(process, process.image.symbol(symbol), std::move(args));
}

std::uint64_t
FlickSystem::callVa(Process &process, VAddr va,
                    std::vector<std::uint64_t> args)
{
    CallFuture f =
        submit(process, CallSpec::addr(va).withArgs(std::move(args)));
    std::uint64_t v = f.wait();
    if (f.status() != CallStatus::ok) {
        // The synchronous API has no way to hand the outcome back;
        // failing loudly beats returning a fabricated 0.
        fatal("call at %#llx failed with status %s",
              (unsigned long long)va, callStatusName(f.status()));
    }
    return v;
}

VAddr
FlickSystem::nxpMalloc(std::uint64_t bytes, std::uint64_t align,
                       unsigned device)
{
    return debug().nxpHeap(device).allocate(bytes, align);
}

VAddr
FlickSystem::hostMalloc(Process &process, std::uint64_t bytes,
                        std::uint64_t align)
{
    return process.hostHeap->allocate(bytes, align);
}

VAddr
FlickSystem::migratableMalloc(Process &process, std::uint64_t bytes,
                              int device)
{
    if (device >= static_cast<int>(_config.platform.nxpDeviceCount))
        fatal("migratableMalloc: no NxP device %d", device);
    if (!process.migratableHeap) {
        static_assert(layout::hostHeapBase < layout::migratableBase,
                      "migratable region must sit above the host heap");
        if (process.image.hostHeapBase + process.image.hostHeapBytes >
            layout::migratableBase)
            fatal("host heap overlaps the migratable region");
        process.migratableHeap = std::make_unique<RangeAllocator>(
            "migratable", layout::migratableBase, layout::migratableBytes,
            16);
    }
    // Whole pages: the PageMigrator remaps at 4K granularity, so a block
    // never shares a frame with an unrelated allocation.
    bytes = (bytes + 4095) & ~std::uint64_t(4095);
    VAddr va = process.migratableHeap->allocate(bytes, 4096);
    for (VAddr page = va; page < va + bytes; page += 4096) {
        Addr pa;
        if (device < 0) {
            pa = _hostAlloc.allocate(4096);
        } else {
            // Frames come from the device's window heap (BAR-visible
            // local DRAM), like the engine's NxP stacks.
            VAddr win = debug().nxpHeap(device).allocate(4096, 4096);
            pa = _config.platform.barBase(device) +
                 (win - layout::nxpWindowBaseFor(device));
        }
        _ptm.map(process.image.cr3, page, pa, 4096, PageSize::size4K,
                 pte::user | pte::writable | pte::noExecute);
    }
    if (_migrator)
        _migrator->manage(process.image.cr3, va, bytes);
    return va;
}

std::uint64_t
FlickSystem::readVa(const Process &process, VAddr va, unsigned len)
{
    std::uint8_t buf[8] = {};
    if (len > sizeof buf)
        panic("readVa of %u bytes", len);
    readBlock(process, va, buf, len);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < len; ++i)
        v |= std::uint64_t(buf[i]) << (8 * i);
    return v;
}

void
FlickSystem::writeVa(Process &process, VAddr va, std::uint64_t value,
                     unsigned len)
{
    std::uint8_t buf[8];
    if (len > sizeof buf)
        panic("writeVa of %u bytes", len);
    for (unsigned i = 0; i < len; ++i)
        buf[i] = static_cast<std::uint8_t>(value >> (8 * i));
    writeBlock(process, va, buf, len);
}

void
FlickSystem::writeBlock(Process &process, VAddr va, const void *data,
                        std::uint64_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t done = walkPages(
        _ptm, process.image.cr3, va, len,
        [&](Addr pa, std::uint64_t off, std::uint64_t n) {
            _mem.write(Requester::debug, pa, p + off, n);
        });
    if (done < len)
        fatal("debug access to unmapped VA %#llx",
              (unsigned long long)(va + done));
}

void
FlickSystem::readBlock(const Process &process, VAddr va, void *data,
                       std::uint64_t len)
{
    auto *p = static_cast<std::uint8_t *>(data);
    std::uint64_t done = walkPages(
        _ptm, process.image.cr3, va, len,
        [&](Addr pa, std::uint64_t off, std::uint64_t n) {
            _mem.read(Requester::debug, pa, p + off, n);
        });
    if (done < len)
        fatal("debug access to unmapped VA %#llx",
              (unsigned long long)(va + done));
}

void
FlickSystem::enableInstructionTrace(std::ostream *os)
{
    if (!os) {
        _hostCore.setTraceHook(nullptr);
        for (auto &d : _devices)
            d->core.setTraceHook(nullptr);
        return;
    }

    // Instruction bytes are fetched through the untimed debug path so
    // tracing does not perturb TLB or cache statistics.
    auto fetch = [this](Addr cr3, VAddr pc, std::uint8_t *buf,
                        unsigned len) -> unsigned {
        return static_cast<unsigned>(walkPages(
            _ptm, cr3, pc, len,
            [&](Addr pa, std::uint64_t off, std::uint64_t n) {
                _mem.read(Requester::debug, pa, buf + off, n);
            }));
    };

    _hostCore.setTraceHook([this, os, fetch](VAddr pc) {
        std::uint8_t buf[10] = {};
        unsigned got = fetch(_hostCore.mmu().cr3(), pc, buf, sizeof buf);
        Hx64Disasm d = hx64Disassemble(buf, got, pc);
        *os << strfmt("%12llu  host %#12llx: %s\n",
                      (unsigned long long)_events.now(),
                      (unsigned long long)pc, d.text.c_str());
    });
    for (auto &d : _devices) {
        Rv64Core *core = &d->core;
        core->setTraceHook([this, os, fetch, core](VAddr pc) {
            std::uint8_t buf[4] = {};
            fetch(core->mmu().cr3(), pc, buf, 4);
            std::uint32_t insn = 0;
            for (int i = 0; i < 4; ++i)
                insn |= std::uint32_t(buf[i]) << (8 * i);
            *os << strfmt("%12llu  %-4s %#12llx: %s\n",
                          (unsigned long long)_events.now(),
                          core->name().c_str(), (unsigned long long)pc,
                          rv64Disassemble(insn, pc).c_str());
        });
    }
}

void
FlickSystem::dumpStats(std::ostream &os)
{
    _mem.stats().dump(os);
    // Section order is part of the output format (benches and tests
    // parse it): device 0's sections sit among the host's, devices
    // 1..N-1 follow.
    auto dumpNxpMmu = [&os](Rv64Core &core) {
        core.mmu().itlb().stats().dump(os);
        core.mmu().dtlb().stats().dump(os);
        core.mmu().walker().stats().dump(os);
        if (core.icache())
            core.icache()->stats().dump(os);
    };
    NxpDevice &d0 = *_devices[0];
    _kernel.stats().dump(os);
    _chaos.stats().dump(os);
    d0.dma.stats().dump(os);
    _irq.stats().dump(os);
    d0.ctrl.stats().dump(os);
    _engine->stats().dump(os);
    _hostCore.stats().dump(os);
    d0.core.stats().dump(os);
    _hostCore.mmu().itlb().stats().dump(os);
    _hostCore.mmu().dtlb().stats().dump(os);
    dumpNxpMmu(d0.core);
    for (std::size_t k = 1; k < _devices.size(); ++k) {
        NxpDevice &d = *_devices[k];
        d.core.stats().dump(os);
        d.ctrl.stats().dump(os);
        d.dma.stats().dump(os);
        dumpNxpMmu(d.core);
    }
    if (_residencyTracker) {
        _residencyTracker->syncStats();
        _residencyTracker->stats().dump(os);
    }
    if (_migrator)
        _migrator->stats().dump(os);
    if (_tracer.on())
        _tracer.dumpBreakdown(os);
}

} // namespace flick
