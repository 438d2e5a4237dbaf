#include "flick/runtime.hh"

#include <algorithm>

#include "flick/system.hh"
#include "loader/loader.hh"
#include "mem/residency.hh"
#include "policy/residency_aware.hh"
#include "sim/chaos.hh"
#include "spec/speculation.hh"
#include "vm/page_table.hh"

namespace flick
{

// --- Placement policy plumbing (DESIGN.md §11) --------------------------

/**
 * The engine-state window a PlacementPolicy looks through. Everything
 * is a cheap read of existing engine state; building one is free and
 * side-effect free, so consulting a policy cannot perturb the event
 * stream.
 */
struct EnginePlacementView final : PlacementView
{
    explicit EnginePlacementView(const MigrationEngine &engine)
        : e(engine)
    {
    }

    unsigned
    deviceCount() const override
    {
        return static_cast<unsigned>(e._nxp.size());
    }

    DeviceLoad
    load(unsigned device) const override
    {
        const auto &s = e._nxp[device];
        DeviceLoad l;
        l.depth = static_cast<unsigned>(s.h2d.depth()) + (s.busy ? 1 : 0);
        l.busy = s.busy;
        l.quarantined = s.health == DeviceHealth::quarantined;
        return l;
    }

    Tick crossingEstimate() const override
    {
        return e.crossingCostEstimate();
    }

    Tick
    steerOverhead() const override
    {
        return e._timing.nxFaultService + e._timing.faultTrapExit +
               e.hostCycles(e._timing.hostHandlerCycles);
    }

    unsigned
    hostSpeedup() const override
    {
        auto r = e._hostClock.freqHz() / e._nxpClock.freqHz();
        return r ? static_cast<unsigned>(r) : 1;
    }

    PageResidency
    pageResidency(Addr cr3, VAddr va) const override
    {
        PageResidency pr;
        if (!e._residency)
            return pr;
        auto tr = e._pageTables.translate(cr3, va);
        if (!tr)
            return pr; // unmapped or non-canonical: no vote.
        pr.holder = e._mem.platform().holderOf(tr->pa);
        if (pr.holder == -2)
            return pr; // control window: no residency.
        pr.mapped = true;
        std::uint64_t key =
            e._mem.canonicalPageKey(Requester::debug, tr->pa);
        const std::vector<std::uint64_t> *row = e._residency->counts(key);
        if (!row)
            return pr;
        pr.hostAccesses = (*row)[ResidencyTracker::hostAccessor];
        pr.deviceAccesses.assign(row->begin() + 1, row->end());
        return pr;
    }

    const MigrationEngine &e;
};

const char *
callStatusName(CallStatus status)
{
    switch (status) {
      case CallStatus::pending: return "pending";
      case CallStatus::ok: return "ok";
      case CallStatus::deadlineExceeded: return "deadlineExceeded";
      case CallStatus::deviceLost: return "deviceLost";
      case CallStatus::cancelled: return "cancelled";
      case CallStatus::shedLoad: return "shedLoad";
    }
    return "?";
}

// --- CallFuture ---------------------------------------------------------

std::uint64_t
CallFuture::wait()
{
    if (!_state || !_engine)
        panic("wait() on an invalid CallFuture");
    while (!_state->done) {
        if (!_engine->pump())
            panic("migration engine deadlock: waiting on an empty "
                  "event queue");
    }
    return _state->value;
}

bool
CallFuture::waitFor(Tick ticks)
{
    if (!_state || !_engine)
        panic("waitFor() on an invalid CallFuture");
    Tick until = _engine->now() + ticks;
    while (!_state->done && _engine->now() < until) {
        if (!_engine->pump())
            break; // queue ran dry; the call is stuck, not done
    }
    return _state->done;
}

bool
CallFuture::cancel()
{
    if (!_state || !_engine || _state->done)
        return false;
    return _engine->cancelCall(_state->pid);
}

std::uint64_t
CallFuture::value() const
{
    if (!_state || !_state->done)
        panic("value() on a CallFuture that is not done");
    return _state->value;
}

// --- Construction and registration --------------------------------------

MigrationEngine::MigrationEngine(EventQueue &events, MemSystem &mem,
                                 const PageTableManager &page_tables,
                                 Kernel &kernel, IrqController &irq,
                                 Core &host_core, const SystemConfig &config,
                                 const Layers &layers)
    : _events(events), _mem(mem), _pageTables(page_tables),
      _timing(config.timing), _hostClock(_timing.hostClock()),
      _nxpClock(_timing.nxpClock()), _kernel(kernel), _irq(irq),
      _hostCore(host_core), _nxpStackBytes(config.nxpStackBytes),
      _batching(config.batching), _retryBudget(config.retryBudget),
      _callDeadline(config.callDeadline), _hostFallback(config.hostFallback),
      _strikeLimit(config.healthStrikeLimit ? config.healthStrikeLimit : 1),
      _chaos(layers.chaos), _tracer(layers.tracer), _policy(layers.policy),
      _residency(layers.residency), _spec(layers.spec), _stats("flick"),
      _qos(*this, config.qos, config.arrivalTrace)
{
    if (_spec)
        _spec->setConflictCallback([this] { specConflictAbort(); });
}

void
MigrationEngine::addNxpDevice(Core &core, NxpPlatform &platform,
                              DmaEngine &dma, RangeAllocator &stack_heap,
                              Addr host_staging_pa, Addr host_inbox_pa,
                              unsigned irq_vector, unsigned ring_slots)
{
    if (ring_slots == 0 || ring_slots > NxpPlatform::maxRingSlots)
        fatal("descriptor rings must have 1..%u slots",
              NxpPlatform::maxRingSlots);
    unsigned device = static_cast<unsigned>(_nxp.size());
    // Host DRAM offsets are host physical addresses; a device's DRAM
    // offsets are its local addresses less the local DRAM base.
    SparseMemory &host = _mem.hostDram();
    SparseMemory &local = _mem.nxpDram(device);
    Addr local_base = _mem.platform().nxpDramLocalBase;
    Addr inbox = platform.inboxLocalPa();
    Addr outbox = platform.outboxLocalPa();
    NxpSide s;
    s.core = &core;
    s.platform = &platform;
    s.dma = &dma;
    s.stackHeap = &stack_heap;
    s.irqVector = irq_vector;
    s.h2d = DescriptorLink({&host, host_staging_pa, host_staging_pa},
                           {&local, inbox, inbox - local_base}, ring_slots);
    s.d2h = DescriptorLink({&local, outbox, outbox - local_base},
                           {&host, host_inbox_pa, host_inbox_pa}, ring_slots);
    s.h2dOwner.resize(ring_slots);
    _nxp.push_back(std::move(s));
    _irq.connect(irq_vector, [this, device] { hostIrq(device); });
}

MigrationEngine::NxpSide &
MigrationEngine::side(unsigned device)
{
    if (device >= _nxp.size())
        panic("no NxP device %u", device);
    return _nxp[device];
}

MigrationEngine::TaskExec *
MigrationEngine::live(int pid, std::uint64_t id)
{
    auto it = _exec.find(pid);
    if (it == _exec.end() || it->second.id != id)
        return nullptr;
    return &it->second;
}

std::uint64_t
MigrationEngine::currentNxpSp(const Task &task, unsigned device) const
{
    // The innermost saved context on this device tells where the
    // thread's NxP stack currently stands (reentrant nested calls).
    for (auto it = task.nxpSavedCtx.rbegin(); it != task.nxpSavedCtx.rend();
         ++it) {
        if (it->device == device)
            return it->sp & ~std::uint64_t(15);
    }
    return task.nxpStackTop[device] & ~std::uint64_t(15);
}

void
MigrationEngine::allocateNxpStack(Task &task, unsigned device)
{
    VAddr stack_base = side(device).stackHeap->allocate(_nxpStackBytes, 16);
    task.nxpStackTop[device] = stack_base + _nxpStackBytes;
    task.nxpStackBytes = _nxpStackBytes;
}

void
MigrationEngine::releaseNxpStacks(Task &task)
{
    if (!task.nxpSavedCtx.empty())
        panic("releasing NxP stacks of task %d mid-migration", task.pid);
    for (unsigned d = 0; d < _nxp.size(); ++d) {
        if (task.nxpStackTop[d] == 0)
            continue;
        side(d).stackHeap->free(task.nxpStackTop[d] - task.nxpStackBytes);
        task.nxpStackTop[d] = 0;
        _stats.inc("nxp_stacks_freed");
    }
}

// --- Submission ----------------------------------------------------------

CallFuture
MigrationEngine::submit(Task &task, VAddr entry,
                        std::span<const std::uint64_t> args,
                        VAddr stack_top, const SubmitOptions &opts)
{
    if (task.state != TaskState::created &&
        task.state != TaskState::running) {
        panic("submit on task %d in state %d", task.pid,
              static_cast<int>(task.state));
    }
    if (_exec.count(task.pid))
        panic("task %d already has a call in flight", task.pid);
    if (args.size() > MigrationDescriptor::maxArgs)
        panic("submit with %zu args (max %u)", args.size(),
              MigrationDescriptor::maxArgs);
    if (_qos.holds(task.pid))
        panic("task %d already has a call queued", task.pid);

    CallRequest req;
    req.task = &task;
    req.entry = entry;
    req.nargs = static_cast<std::uint32_t>(args.size());
    std::copy(args.begin(), args.end(), req.args.begin());
    req.stackTop = stack_top;
    req.placementHint = opts.placementHint;
    if (opts.deadline)
        req.deadline = _events.now() + opts.deadline;
    else if (_callDeadline)
        req.deadline = _events.now() + _callDeadline;
    return _qos.enabled() ? _qos.submit(req) : admitCall(req, nullptr);
}

CallFuture
MigrationEngine::admitCall(const CallRequest &req,
                           std::shared_ptr<CallFutureState> state)
{
    Task &task = *req.task;
    if (!state) {
        state = std::make_shared<CallFutureState>();
        state->pid = task.pid;
    }
    TaskExec x;
    static_cast<CallRequest &>(x) = req;
    x.future = state;
    x.id = ++_nextExecId;
    if (_qos.enabled()) {
        x.tenant = _qos.admit(task.cr3);
        x.admitted = _events.now();
    }
    insertExec(task.pid, std::move(x));
    _callsSubmitted.inc();
    traceGauge(TraceGauge::inFlightCalls, 0, _exec.size());
    // The watchdog only exists when something can actually go wrong
    // (endpoint fault injection or a configured deadline); otherwise the
    // fault-free event stream stays untouched.
    if (req.deadline || (_chaos && _chaos->endpointFaultsEnabled()))
        armHeartbeat();
    _kernel.enqueueRunnable(task);
    kickHost();
    return CallFuture(std::move(state), this);
}

unsigned
MigrationEngine::aliveDeviceCount() const
{
    unsigned n = 0;
    for (const NxpSide &s : _nxp) {
        if (s.health != DeviceHealth::quarantined)
            ++n;
    }
    return n;
}

int
MigrationEngine::residencyMajorityDevice(
    Task &task, std::span<const std::uint64_t> args)
{
    // The vote ResidencyAwarePlacement casts at fault time (DESIGN.md
    // §15), reduced to the question the hint override needs: does one
    // device hold a strict majority?
    PageVotes votes =
        tallyPageVotes(task.cr3, args, EnginePlacementView(*this));
    int best = -1;
    for (unsigned d = 0; d < votes.device.size(); ++d) {
        if (!votes.device[d] ||
            _nxp[d].health == DeviceHealth::quarantined)
            continue;
        if (best < 0 || votes.device[d] > votes.device[best])
            best = static_cast<int>(d);
    }
    if (best >= 0 && votes.device[best] * 2 > votes.total)
        return best;
    return -1;
}

void
MigrationEngine::insertExec(int pid, TaskExec &&x)
{
    if (_spareExecs.empty()) {
        _exec.emplace(pid, std::move(x));
        return;
    }
    auto node = std::move(_spareExecs.back());
    _spareExecs.pop_back();
    node.key() = pid;
    x.frames = std::move(node.mapped().frames); // empty, capacity kept
    node.mapped() = std::move(x);
    _exec.insert(std::move(node));
}

void
MigrationEngine::retireExec(int pid)
{
    auto node = _exec.extract(pid);
    node.mapped().future.reset();
    node.mapped().frames.clear();
    _spareExecs.push_back(std::move(node));
}

// --- Host-core scheduling ------------------------------------------------

void
MigrationEngine::kickHost()
{
    if (_hostBusy || _hostKickScheduled || _kernel.runQueueDepth() == 0)
        return;
    _hostKickScheduled = true;
    after(0, [this] {
        _hostKickScheduled = false;
        dispatchHost();
    });
}

void
MigrationEngine::dispatchHost()
{
    if (_hostBusy)
        return;
    while (Task *task = _kernel.nextRunnable()) {
        auto it = _exec.find(task->pid);
        if (it == _exec.end())
            continue; // the queued call failed or was cancelled
        _hostBusy = true;
        TaskExec &x = it->second;
        if (x.pendingFallback)
            dispatchFallback(x);
        else if (x.pendingWake)
            dispatchWake(x);
        else
            startEntry(x);
        return;
    }
}

void
MigrationEngine::releaseHost()
{
    _hostBusy = false;
    kickHost();
}

void
MigrationEngine::loadHostCr3(Addr cr3)
{
    if (_hostLoadedCr3 == cr3)
        return;
    _hostCore.mmu().setCr3(cr3);
    _hostLoadedCr3 = cr3;
}

void
MigrationEngine::startEntry(TaskExec &x)
{
    Task &task = *x.task;
    task.state = TaskState::running;
    // A fresh call enters through the kernel, which installs the
    // process's page tables on the host core.
    _hostCore.mmu().setCr3(task.cr3);
    _hostLoadedCr3 = task.cr3;
    _hostCore.setStackPointer(x.stackTop & ~std::uint64_t(15));
    _hostCore.setupCall(x.entry, argsOf(x));
    tracePoint(TracePoint::callEntry, task.pid, x.id, 0, x.entry);
    runHostSegment(x);
}

template <class F>
void
MigrationEngine::resumeOnHost(TaskExec &x, Tick handler, F &&then)
{
    afterLive(_timing.wakeupToRun, x.task->pid, x.id, hostSide,
              [this, handler,
               then = std::forward<F>(then)](TaskExec &w) mutable {
        loadHostCr3(w.task->cr3);
        _hostCore.restoreContext(_kernel.resume(*w.task));
        afterLive(_timing.ioctlExit + handler, w.task->pid, w.id, hostSide,
                  std::move(then));
    });
}

void
MigrationEngine::dispatchWake(TaskExec &x)
{
    resumeOnHost(x, 0, [this](TaskExec &v) {
        MigrationDescriptor d = v.wakeDesc;
        v.pendingWake = false;
        handleHostDescriptor(v, d);
    });
}

void
MigrationEngine::dispatchFallback(TaskExec &x)
{
    // The kernel failed the migration and woke the thread; it resumes
    // exactly like a migration return, but the driver reports the
    // failure and the runtime re-dispatches to the host twin. The saved
    // context's PC still sits on the faulting NX target; the twin call
    // repoints it before any fetch happens.
    resumeOnHost(x, hostCycles(_timing.hostHandlerCycles),
                 [this](TaskExec &v) {
        v.pendingFallback = false;
        CallFrame &top = v.frames.back();
        VAddr twin = fallbackVa(v.task->cr3, top.target);
        if (!twin) {
            panic("host fallback dispatched for task %d without a "
                  "registered twin of %#llx",
                  v.task->pid, (unsigned long long)top.target);
        }
        runHostCall(v, twin, argsOf(top));
    });
}

void
MigrationEngine::handleHostDescriptor(TaskExec &x, MigrationDescriptor d)
{
    Task &task = *x.task;
    int pid = task.pid;
    if (x.frames.empty())
        panic("host woke task %d with no cross-ISA call in flight", pid);
    CallFrame &top = x.frames.back();

    switch (d.kind) {
      case DescriptorKind::nxpToHostCall: {
        if (top.callee == hostSide) {
            // (d) An NxP called a host function: run it here.
            runHostCall(x, d.target, argsOf(d));
            return;
        }
        // Device-to-device call: the target belongs to another NxP, so
        // the kernel forwards the descriptor there (Section IV-C3).
        unsigned to = top.callee;
        if (side(to).health == DeviceHealth::quarantined) {
            // The destination is gone. With fallback enabled the kernel
            // runs the host twin right here — the host core is already
            // ours and the calling device just waits for its return
            // descriptor as usual. Without it, the call chain dies.
            VAddr twin = rejectToTwin(x, to, d.target);
            if (!twin)
                return;
            top.callee = hostSide;
            runHostCall(x, twin, argsOf(d));
            return;
        }
        tracePoint(TracePoint::hostDescBuild, pid, x.id, to, d.target);
        std::uint64_t id = x.id;
        ensureNxpStack(task, to, [this, pid, id, d, to] {
            afterLive(_timing.ioctlEntry, pid, id, hostSide,
                      [this, d, to](TaskExec &w) {
                MigrationDescriptor fwd = d;
                fwd.kind = DescriptorKind::hostToNxpCall;
                fwd.cr3 = w.task->cr3;
                fwd.nxpSp = currentNxpSp(*w.task, to);
                hostSendDescriptor(w, fwd, to);
            });
        });
        return;
      }

      case DescriptorKind::nxpToHostReturn: {
        if (top.caller == hostSide) {
            // (g) The host->NxP round trip completes here.
            tracePoint(TracePoint::hostResume, pid, x.id);
            CallFrame done = top;
            x.frames.pop_back();
            ++task.migrations;
            _hnhRoundtrips.inc();
            _hnhTicks.inc(_events.now() - done.t0);
            // The measured end-to-end latency is the cost model's input
            // (ProfileGuidedPlacement); a no-feedback policy skips it.
            feedModel(task.cr3, done.canonical, done.callee,
                      _events.now() - done.t0);
            _hostCore.finishHijackedCall(d.retval);
            runHostSegment(x);
            return;
        }
        // A forwarded device-to-device call returned: relay the value
        // back to the device that is waiting for it.
        tracePoint(TracePoint::hostDescBuild, pid, x.id, top.caller);
        returnToNxp(x, top.caller, d.retval, _timing.ioctlEntry);
        return;
      }

      default:
        panic("host received unexpected descriptor kind %s for task %d",
              descriptorKindName(d.kind), pid);
    }
}

void
MigrationEngine::runHostCall(TaskExec &x, VAddr va,
                             std::span<const std::uint64_t> args)
{
    _hostCore.setupCall(va, args);
    tracePoint(TracePoint::hostCallStart, x.task->pid, x.id, 0, va);
    runHostSegment(x);
}

void
MigrationEngine::runHostSegment(TaskExec &x)
{
    // Functional-first: the slice executes now, its time is charged as
    // a continuation, and the core stays owned until the stop handler.
    RunResult r = _hostCore.run();
    afterLive(r.elapsed, x.task->pid, x.id, hostSide,
              [this, r](TaskExec &w) { handleHostStop(w, r); });
}

void
MigrationEngine::handleHostStop(TaskExec &x, RunResult r)
{
    Task &task = *x.task;
    int pid = task.pid;

    switch (r.stop) {
      case Fault::trampoline: {
        std::uint64_t rv = _hostCore.retVal();
        if (x.frames.empty()) {
            // The entry function returned: the call is complete.
            completeCall(x, rv);
            return;
        }
        CallFrame &top = x.frames.back();
        if (top.callee != hostSide) {
            panic("host trampoline for task %d inside a device-side "
                  "frame", pid);
        }
        if (top.caller == hostSide) {
            // A host twin of a host-initiated call finished — either a
            // failover or a policy-steered run: deliver the value like
            // the migration return would have.
            CallFrame done = top;
            x.frames.pop_back();
            _stats.inc(done.steered ? "placement.host_steered_returns"
                                    : "fallback_returns");
            feedModel(task.cr3, done.canonical, hostSide,
                      _events.now() - done.t0);
            _hostCore.finishHijackedCall(rv);
            runHostSegment(x);
            return;
        }
        // (e) A nested host function finished: package the return and
        // ship it back to the calling device.
        tracePoint(TracePoint::hostDescBuild, pid, x.id, top.caller, rv);
        returnToNxp(x, top.caller, rv,
                    hostCycles(_timing.hostHandlerCycles) +
                        _timing.ioctlEntry);
        return;
      }

      case Fault::halt:
        if (!x.frames.empty())
            panic("program exit inside a nested cross-ISA call");
        task.state = TaskState::done;
        completeCall(x, _hostCore.retVal());
        return;

      case Fault::nxFetch: {
        FaultAction action =
            _kernel.classifyFetchFault(r.stop, IsaKind::hx64);
        if (action != FaultAction::migrateToNxp)
            panic("host NX fault not classified as migration");

        // The fault handler reads the PTE's software ISA tag (cached in
        // the I-TLB by the faulting fetch) to tell NxP text from plain
        // non-executable data and to pick the target device
        // (Section IV-C3).
        const TlbEntry *pte_entry = _hostCore.mmu().itlb().peek(r.faultVa);
        unsigned isa_tag = pte_entry ? pte::isaTag(pte_entry->flags) : 0;
        if (isa_tag < nxpIsaTag || isa_tag - nxpIsaTag >= _nxp.size()) {
            fatal("guest jumped to NX page %#llx with ISA tag %u: "
                  "not code for any NxP (likely a call through a "
                  "data pointer)",
                  (unsigned long long)r.faultVa, isa_tag);
        }
        // The dispatch decision point (DESIGN.md §11): the fault
        // handler consults the placement policy before staging
        // anything. Without a policy the answer is always "home" and
        // this is a straight pass-through.
        unsigned home = isa_tag - nxpIsaTag;
        Placed p = decidePlacement(x, r.faultVa, home, hostSide);
        if (p.toHost) {
            runHostTwin(x, r.faultVa, p.canonical, p.va, home, true);
            return;
        }
        if (p.device != home)
            protoStat("placement.rebalanced", p.device);
        startHostToNxpCall(x, p);
        return;
      }

      default:
        // A genuine guest fault (the kernel would deliver SIGSEGV /
        // SIGILL): a user error, not a simulator bug.
        fatal("guest fault on the host core: %s at %#llx "
              "(pc %#llx, pid %d)",
              faultName(r.stop), (unsigned long long)r.faultVa,
              (unsigned long long)_hostCore.pc(), pid);
    }
}

void
MigrationEngine::runHostTwin(TaskExec &x, VAddr target, VAddr canonical,
                             VAddr twin, unsigned device, bool steered)
{
    if (steered)
        protoStat("placement.host_steered", device);
    CallFrame f{hostSide, hostSide, _events.now()};
    f.target = target;
    f.canonical = canonical;
    f.steered = steered;
    f.nargs = MigrationDescriptor::maxArgs;
    for (unsigned i = 0; i < MigrationDescriptor::maxArgs; ++i)
        f.args[i] = _hostCore.arg(i);
    x.frames.push_back(f);
    tracePoint(TracePoint::hostNxFault, x.task->pid, x.id, device, target);
    afterLive(_timing.nxFaultService + _timing.faultTrapExit +
                  hostCycles(_timing.hostHandlerCycles),
              x.task->pid, x.id, hostSide, [this, twin](TaskExec &w) {
        runHostCall(w, twin, argsOf(w.frames.back()));
    });
}

VAddr
MigrationEngine::rejectToTwin(TaskExec &x, unsigned device, VAddr va)
{
    protoStat("rejected_submissions", device);
    VAddr twin = _hostFallback ? fallbackVa(x.task->cr3, va) : 0;
    if (twin) {
        protoStat("failovers", device);
    } else {
        failCall(x, CallStatus::deviceLost);
        releaseHost();
    }
    return twin;
}

void
MigrationEngine::registerTwin(Addr cr3, VAddr canonical, unsigned where,
                              VAddr va)
{
    auto [it, fresh] =
        _familyOf.try_emplace({cr3, canonical}, _families.size());
    if (fresh) {
        _families.emplace_back();
        _families.back().canonical = canonical;
        _families.back().text.deviceVa.assign(_nxp.size(), 0);
    }
    TwinFamily &f = _families[it->second];
    if (where == hostSide) {
        f.text.hostVa = va;
        return;
    }
    if (where < f.text.deviceVa.size())
        f.text.deviceVa[where] = va;
    _familyOf[{cr3, va}] = it->second;
}

Tick
MigrationEngine::crossingCostEstimate() const
{
    const TimingConfig &t = _timing;
    std::uint64_t wire = MigrationDescriptor::wireBytes;
    // Host outbound leg: NX fault service, trap exit into the hijacked
    // handler, handler prologue, ioctl entry, descriptor packaging,
    // suspend + context switch, then the h2d descriptor DMA.
    Tick host_out = t.nxFaultService + t.faultTrapExit +
                    hostCycles(t.hostHandlerCycles) + t.ioctlEntry +
                    t.descriptorPack + t.suspendSwitch +
                    t.dmaTransfer(wire);
    // Device: scheduler poll + doorbell read, descriptor parse, context
    // switch in; then (callee runs); then descriptor build, context
    // switch out, doorbell, and the d2h return DMA.
    Tick device_legs = nxpCycles(t.nxpPollCycles) + t.nxpToLocalMmio +
                       nxpCycles(t.nxpDescriptorCycles) + t.nxpToNxpDram +
                       nxpCycles(t.nxpCtxSwitchCycles) +
                       nxpCycles(t.nxpDescriptorCycles) + t.nxpToNxpDram +
                       nxpCycles(t.nxpCtxSwitchCycles) + t.nxpToLocalMmio +
                       t.dmaTransfer(wire);
    // Host return leg: MSI delivery, IRQ wake, scheduler latency and
    // the ioctl exit back to user space.
    Tick host_back = t.irqDelivery + t.irqWake + t.wakeupToRun +
                     t.ioctlExit;
    return host_out + device_legs + host_back;
}

MigrationEngine::Placed
MigrationEngine::decidePlacement(TaskExec &x, VAddr target, unsigned home,
                                 unsigned caller_device)
{
    Task &task = *x.task;
    Placed p;
    p.device = home;
    p.va = target;
    const TwinFamily *fam = family(task.cr3, target);
    p.canonical = fam ? fam->canonical : target;

    // A submit-time placement hint is consumed by the call's first
    // dispatch decision, before (and instead of) the policy.
    int hint = x.placementHint;
    x.placementHint = -1;
    if (hint >= 0 && static_cast<unsigned>(hint) < _nxp.size() &&
        _nxp[hint].health != DeviceHealth::quarantined &&
        !(caller_device != hostSide &&
          static_cast<unsigned>(hint) == caller_device)) {
        VAddr hinted_va = 0;
        if (static_cast<unsigned>(hint) == home)
            hinted_va = target;
        else if (fam && static_cast<unsigned>(hint) <
                            fam->text.deviceVa.size())
            hinted_va = fam->text.deviceVa[hint];
        if (hinted_va) {
            protoStat("placement.hinted", static_cast<unsigned>(hint));
            p.device = static_cast<unsigned>(hint);
            p.va = hinted_va;
            return p;
        }
        // No text for the hinted device: the hint is unusable and
        // dispatch proceeds as if none were given.
    }

    if (!_policy)
        return p;

    PlacementQuery q;
    q.cr3 = task.cr3;
    q.canonical = p.canonical;
    q.home = home;
    q.fromDevice = caller_device != hostSide;
    q.callerDevice = q.fromDevice ? caller_device : 0;
    // The argument registers are live on the faulting core at decision
    // time (the descriptor is built from the same registers just after);
    // residency-aware placement reads the pages they point at.
    const Core &argsrc = q.fromDevice
                             ? *_nxp[caller_device].core
                             : static_cast<const Core &>(_hostCore);
    static_assert(PlacementQuery::maxArgs == MigrationDescriptor::maxArgs);
    for (unsigned i = 0; i < PlacementQuery::maxArgs; ++i)
        q.args[i] = argsrc.arg(i);

    // The family's entry for a device wins over the faulting target.
    PlacementCandidates &c = _cands;
    if (fam) {
        c = fam->text;
    } else {
        c.deviceVa.assign(_nxp.size(), 0);
        c.hostVa = 0;
    }
    if (home < c.deviceVa.size() && !c.deviceVa[home])
        c.deviceVa[home] = target;
    // A device cannot call its own core's text — the fault already
    // proved the target is foreign.
    if (q.fromDevice && caller_device < c.deviceVa.size())
        c.deviceVa[caller_device] = 0;

    EnginePlacementView view(*this);
    PlacementDecision d = _policy->place(q, c, view);
    p.confidencePct = d.confidencePct;

    // Clamp: a decision for text that does not exist (or a quarantined
    // answer the policy should not have given) degrades to home.
    if (d.toHost && c.hostVa) {
        p.toHost = true;
        p.va = c.hostVa;
        return p;
    }
    if (!d.toHost && d.device < c.deviceVa.size() &&
        c.deviceVa[d.device] != 0) {
        p.device = d.device;
        p.va = c.deviceVa[d.device];
    }
    return p;
}

bool
MigrationEngine::feedModel(Addr cr3, VAddr canonical, unsigned where,
                           Tick latency)
{
    if (!_policy || !_policy->wantsFeedback() || canonical == 0)
        return false;
    if (where == hostSide) {
        _policy->recordHostCall(cr3, canonical, latency);
        _stats.inc("placement.model_updates");
    } else {
        _policy->recordDeviceCall(cr3, canonical, where, latency);
        protoStat("placement.model_updates", where);
    }
    return true;
}

// --- Speculative dual execution (DESIGN.md §16) --------------------------

void
MigrationEngine::launchSpeculation(TaskExec &x, unsigned device)
{
    Task &task = *x.task;
    int pid = task.pid;
    VAddr twin = _spec->twinVa();
    std::uint64_t seq = _spec->begin(device, _events.now());
    protoStat("spec.launched", device);
    tracePoint(TracePoint::specLaunch, pid, x.id, device, twin);

    // The thread is suspended and its context saved; the otherwise-idle
    // host core runs the twin. Everything below happens functionally at
    // this instant — the charged time elapses in the continuation.
    loadHostCr3(task.cr3);
    // A native-bridge call performs simulator-side effects that cannot
    // be buffered; the stub dooms the speculation and ends the slice.
    Core::NativeHook native = _hostCore.swapNativeHook([this](Core &c) {
        _spec->markDoomed("native-bridge call");
        c.setPc(runtimeTrampoline);
        return Tick(0);
    });
    _spec->beginSlice();
    // setupCall inside the slice: its return-address push is a
    // speculative store like any other.
    _hostCore.setupCall(twin, argsOf(x.frames.back()));
    RunResult r = _hostCore.run(_spec->config().maxInstructions);
    bool returned = r.stop == Fault::trampoline;
    _spec->endSlice(r.elapsed, returned ? _hostCore.retVal() : 0);
    _hostCore.swapNativeHook(std::move(native));
    if (r.stop == Fault::none)
        _spec->markDoomed("instruction budget");
    else if (!returned)
        _spec->markDoomed("twin fault");
    after(r.elapsed, [this, pid, seq] { hostSpecFinished(pid, seq); });
}

void
MigrationEngine::hostSpecFinished(int pid, std::uint64_t seq)
{
    if (!_spec->active() || _spec->seq() != seq) {
        // The race was already resolved (NxP win, conflict, call
        // death); whoever squashed it released the host core.
        return;
    }
    unsigned device = _spec->device();
    TaskExec *xp = live(pid, _spec->callId());
    if (!xp || _spec->doomed()) {
        // Doomed slice (fault, cap, native call) or the call died under
        // the race: wasted work, the NxP side carries on alone.
        tracePoint(TracePoint::specSquash, pid, _spec->callId(), device);
        retireSpec(true);
        return;
    }
    commitHostSpec(*xp);
}

void
MigrationEngine::commitHostSpec(TaskExec &x)
{
    Task &task = *x.task;
    int pid = task.pid;
    unsigned device = _spec->device();
    std::uint64_t rv = _spec->hostRetVal();

    // Cut the losing NxP side before anything becomes guest-visible:
    // bumping the generation token makes every in-flight continuation
    // and descriptor of the old id stale — they release their cores and
    // ring slots exactly like a failed call's stragglers. The loser's
    // stores only land at slice starts, which check live(), so nothing
    // of it can trickle in past this point.
    std::uint64_t old_id = x.id;
    x.id = ++_nextExecId;

    // The straggler d2h return of old_id still carries a genuine
    // device-side latency sample; remember how to credit it.
    CallFrame done = x.frames.back();
    x.frames.pop_back();
    // The race measured the host side end to end for free.
    if (feedModel(task.cr3, done.canonical, hostSide,
                  _events.now() - done.t0)) {
        if (_specHarvest.size() >= 64)
            _specHarvest.erase(_specHarvest.begin());
        _specHarvest[{pid, old_id}] =
            {task.cr3, done.canonical, device, done.t0};
    }

    std::uint64_t replayed = _spec->commit();
    protoStat("spec.committed_host", device);
    _stats.inc("spec.replayed_bytes", replayed);
    tracePoint(TracePoint::specCommit, pid, x.id, device, rv);

    // Wake the thread exactly like a migration return would, but the
    // host core is already ours: resume directly, bypassing the run
    // queue (same latencies as dispatchWake).
    _kernel.wake(task);
    tracePoint(TracePoint::hostWake, pid, x.id, device);
    resumeOnHost(x, 0, [this, rv](TaskExec &v) {
        tracePoint(TracePoint::hostResume, v.task->pid, v.id);
        _hostCore.finishHijackedCall(rv);
        runHostSegment(v);
    });
}

void
MigrationEngine::retireSpec(bool aborted)
{
    unsigned device = _spec->device();
    Tick waste = _events.now() - _spec->launchTick();
    protoStat("spec.squashed", device);
    if (aborted)
        protoStat("spec.aborted", device);
    protoStat("spec.wasted_ticks", device, waste);
    _spec->squash();
    releaseHost();
}

void
MigrationEngine::specConflictAbort()
{
    // Fired from inside someone else's memory access: only flip state
    // and counters here; the freed core is re-dispatched through
    // kickHost's deferred event.
    if (!_spec || !_spec->active())
        return;
    unsigned device = _spec->device();
    protoStat("spec.conflicts", device);
    tracePoint(TracePoint::specConflict, _spec->pid(), _spec->callId(),
               device);
    retireSpec(true);
}

void
MigrationEngine::harvestSpecSample(int pid, std::uint64_t call_id)
{
    auto it = _specHarvest.find({pid, call_id});
    if (it == _specHarvest.end())
        return;
    const SpecHarvest &h = it->second;
    // Slightly early versus the real wake path (the thread is gone, so
    // there is no wakeupToRun/ioctlExit tail to wait out), but a genuine
    // device-side round-trip sample — the second half of the race's
    // free double-sample.
    if (feedModel(h.cr3, h.canonical, h.device, _events.now() - h.t0))
        protoStat("spec.double_samples", h.device);
    _specHarvest.erase(it);
}

void
MigrationEngine::startHostToNxpCall(TaskExec &x, const Placed &p)
{
    Task &task = *x.task;
    int pid = task.pid;
    std::uint64_t id = x.id;
    unsigned device = p.device;
    VAddr target = p.va;

    if (side(device).health == DeviceHealth::quarantined) {
        // The kernel's fault handler consults the device health before
        // staging anything: a migration to a quarantined NxP is
        // rejected on the spot, and with fallback enabled the handler
        // re-points the faulting call at the host twin.
        VAddr twin = rejectToTwin(x, device, p.canonical);
        if (twin)
            runHostTwin(x, target, p.canonical, twin, device, false);
        return;
    }
    // Speculative dual execution (DESIGN.md §16): when the policy's
    // host-vs-device margin is thin, arm a race — the descriptor still
    // goes out, but instead of yielding the core the thread's host twin
    // runs speculatively. Leaf top-level calls only: a nested or
    // saved-context call has device state the host twin cannot
    // reproduce.
    if (_spec && x.frames.empty() && task.nxpSavedCtx.empty() &&
        _spec->shouldSpeculate(p.confidencePct)) {
        if (VAddr twin = fallbackVa(task.cr3, p.canonical))
            _spec->arm(pid, id, twin);
    }

    protoStat("host_to_nxp_calls", device);
    CallFrame f{device, hostSide, _events.now()};
    f.canonical = p.canonical;
    x.frames.push_back(f);

    // Kernel NX fault service: decode, save the faulting address in the
    // task_struct, hijack the return address to the migration handler,
    // then trap-exit into the hijacked user-space handler.
    tracePoint(TracePoint::hostNxFault, pid, id, device, target);
    afterLive(_timing.nxFaultService + _timing.faultTrapExit, pid, id,
              hostSide, [this, pid, id, target, device](TaskExec &w0) {
        tracePoint(TracePoint::hostDescBuild, pid, id, device);
        // First migration to this device: allocate the thread's NxP
        // stack (Listing 1 lines 3-4).
        ensureNxpStack(*w0.task, device, [this, pid, id, target, device] {
            // User-space handler gathers its (hijacked) arguments, then
            // ioctl(): package target, args, CR3, PID, NxP SP into a
            // descriptor.
            afterLive(hostCycles(_timing.hostHandlerCycles) +
                          _timing.ioctlEntry,
                      pid, id, hostSide,
                      [this, pid, target, device](TaskExec &w) {
                Task &t = *w.task;
                MigrationDescriptor d;
                d.kind = DescriptorKind::hostToNxpCall;
                d.pid = static_cast<std::uint32_t>(pid);
                d.target = target;
                d.cr3 = t.cr3;
                d.nxpSp = currentNxpSp(t, device);
                d.nargs = MigrationDescriptor::maxArgs;
                for (unsigned i = 0; i < MigrationDescriptor::maxArgs; ++i)
                    d.args[i] = _hostCore.arg(i);
                hostSendDescriptor(w, d, device);
            });
        });
    });
}

void
MigrationEngine::completeCall(TaskExec &x, std::uint64_t value)
{
    x.future->value = value;
    x.future->status = CallStatus::ok;
    x.future->done = true;
    _callsCompleted.inc();
    tracePoint(TracePoint::callComplete, x.task->pid, x.id, 0, value);
    Addr cr3 = x.task->cr3;
    VAddr entry = x.entry;
    Tick service = _events.now() - x.admitted;
    unsigned tenant = x.tenant;
    retireExec(x.task->pid);
    traceGauge(TraceGauge::inFlightCalls, 0, _exec.size());
    if (_qos.enabled()) {
        // Feed the admission estimator with the observed end-to-end
        // latency and give the tenant's freed budget slot away.
        _qos.recordService(cr3, entry, service);
        _qos.retire(tenant);
    }
    releaseHost();
}

void
MigrationEngine::hostSendDescriptor(TaskExec &x, MigrationDescriptor d,
                                    unsigned device)
{
    d.callId = x.id;
    if (d.kind == DescriptorKind::hostToNxpCall && !x.frames.empty()) {
        // Remember what the descriptor asks for in the call frame; the
        // host fallback path re-dispatches from this record if the
        // device dies under the call.
        CallFrame &top = x.frames.back();
        top.target = d.target;
        top.nargs = d.nargs;
        top.args = d.args;
    }
    afterLive(_timing.descriptorPack, x.task->pid, x.id, hostSide,
              [this, d, device](TaskExec &w0) {
        // Suspend TASK_KILLABLE, context switch away, then (and only
        // then) let the scheduler trigger the descriptor DMA
        // (Section IV-D).
        _kernel.suspendForMigration(*w0.task, _hostCore.saveContext());
        int pid = w0.task->pid;
        std::uint64_t id = w0.id;
        after(_timing.suspendSwitch, [this, pid, id, d, device] {
            auto fire = [this, d, device](TaskExec &w) {
                if (!_kernel.takeMigrationTrigger(*w.task)) {
                    panic("descriptor DMA requested without the "
                          "migration flag set");
                }
                NxpSide &s = side(device);
                if (s.health == DeviceHealth::quarantined) {
                    // The device died between the fault and the DMA
                    // trigger: the kernel fails the migration instead
                    // of staging into a drained ring.
                    failCall(w, CallStatus::deviceLost);
                    releaseHost();
                    return;
                }
                stageHostToNxp(d, device);
                // An armed race consumes the just-freed host core for
                // the speculative twin instead of giving it back
                // (DESIGN.md §16).
                if (_spec && _spec->armed(w.task->pid, w.id) &&
                    d.kind == DescriptorKind::hostToNxpCall)
                    launchSpeculation(w, device);
                else
                    releaseHost();
            };
            if (d.kind == DescriptorKind::hostToNxpCall && _extraRoundTrip)
                afterLive(_extraRoundTrip, pid, id, hostSide,
                          std::move(fire));
            else
                guarded(pid, id, hostSide, fire);
        });
    });
}

void
MigrationEngine::returnToNxp(TaskExec &x, unsigned to, std::uint64_t rv,
                             Tick delay)
{
    afterLive(delay, x.task->pid, x.id, hostSide,
              [this, to, rv](TaskExec &w) {
        MigrationDescriptor ret;
        ret.kind = DescriptorKind::hostToNxpReturn;
        ret.pid = static_cast<std::uint32_t>(w.task->pid);
        ret.retval = rv;
        ret.nxpSp = currentNxpSp(*w.task, to);
        hostSendDescriptor(w, ret, to);
    });
}

void
MigrationEngine::stageHostToNxp(MigrationDescriptor d, unsigned device)
{
    NxpSide &s = side(device);
    unsigned slot = 0;
    if (!s.h2d.stage(d, slot))
        return; // deferred until the device frees a slot
    s.h2dOwner[slot] = {static_cast<int>(d.pid), d.callId};
    traceGauge(TraceGauge::h2dRing, device, s.h2d.inUse());
    if (!_batching) {
        shipH2d(device, slot, 1);
        return;
    }
    // Batched: the kernel holds the DMA doorbell until the coalescing
    // window closes, so back-to-back sends to the same device ship as
    // one chained burst.
    if (s.batchCount++ > 0)
        return;
    s.batchFirst = slot;
    std::uint64_t epoch = s.batchEpoch;
    _events.scheduleIn(_timing.dmaBatchWindow, "h2d-batch-window",
                       [this, device, epoch] {
        // A changed epoch: quarantine tore the batch down under us.
        if (side(device).batchEpoch == epoch)
            flushH2dBatch(device);
    });
}

void
MigrationEngine::flushH2dBatch(unsigned device)
{
    NxpSide &s = side(device);
    while (s.batchCount) {
        // One burst per maximal run of contiguous ring slots: the DMA
        // chain walks a flat region of the staging array, so a run
        // breaks where the ring wraps back to slot 0.
        unsigned first = s.batchFirst;
        unsigned n = std::min(s.batchCount, s.h2d.slots() - first);
        s.batchFirst = (first + n) % s.h2d.slots();
        s.batchCount -= n;
        shipH2d(device, first, n);
    }
}

void
MigrationEngine::shipH2d(unsigned device, unsigned first, unsigned n)
{
    NxpSide &s = side(device);
    protoStat("doorbell_writes", device);
    if (_batching) {
        protoStat("batch.bursts", device);
        if (n > 1)
            protoStat("batch.coalesced", device, n - 1);
        if (n > _batchMaxDescs) {
            _batchMaxDescs = n;
            _stats.set("batch.descs_per_burst_max", _batchMaxDescs);
        }
    }
    for (unsigned i = first; i < first + n; ++i) {
        tracePoint(TracePoint::dmaToNxpStart, s.h2dOwner[i].pid,
                   s.h2dOwner[i].callId, device);
    }
    // The DMA engine completes transfers in issue order and a slot is
    // only restaged after the device consumed what landed in it, so the
    // slot owners still name this burst's calls at completion.
    s.dma->copyHostToNxp(s.h2d.stagingPa(first), s.h2d.mailboxPa(first),
                         n * MigrationDescriptor::wireBytes,
                         [this, device, first, n] {
                             NxpSide &t = side(device);
                             for (unsigned i = first; i < first + n; ++i) {
                                 ++t.progress;
                                 tracePoint(TracePoint::dmaToNxpDone,
                                            t.h2dOwner[i].pid,
                                            t.h2dOwner[i].callId, device);
                                 t.platform->inboxArrived();
                             }
                             kickNxp(device);
                         },
                         n);
}

// --- NxP-side scheduling -------------------------------------------------

void
MigrationEngine::kickNxp(unsigned device)
{
    NxpSide &s = side(device);
    if (s.busy || s.kickScheduled || s.platform->pendingInbox() == 0)
        return;
    s.kickScheduled = true;
    after(0, [this, device] {
        side(device).kickScheduled = false;
        dispatchNxp(device);
    });
}

void
MigrationEngine::dispatchNxp(unsigned device)
{
    NxpSide &s = side(device);
    if (s.dead || s.health == DeviceHealth::quarantined)
        return; // nobody home; the watchdog notices the silence
    if (s.busy || s.platform->pendingInbox() == 0)
        return;
    if (_chaos && _chaos->shouldKillNxpDevice()) {
        // The device's scheduler core dies right here: the pending
        // inbox descriptor is never picked up and nothing the device
        // owes will ever complete. Only the health watchdog can tell.
        s.dead = true;
        s.segmentEnd = _events.now();
        _stats.inc("chaos_device_deaths");
        return;
    }
    s.busy = true;
    // The NxP scheduler polls the DMA status register (Listing 2):
    // one poll iteration plus the status register read.
    after(nxpCycles(_timing.nxpPollCycles) + _timing.nxpToLocalMmio,
          [this, device] {
        // Fetch and parse the descriptor from the local inbox ring.
        after(nxpCycles(_timing.nxpDescriptorCycles) +
                  _timing.nxpToNxpDram,
              [this, device] {
            MigrationDescriptor d;
            if (!acceptLanded(device, side(device).h2d, d))
                return;
            // ACK through the control register.
            after(_timing.nxpToLocalMmio, [this, device, d] {
                handleNxpDescriptor(device, d);
            });
        });
    });
}

void
MigrationEngine::releaseNxp(unsigned device)
{
    side(device).busy = false;
    kickNxp(device);
}

void
MigrationEngine::handleNxpDescriptor(unsigned device,
                                     MigrationDescriptor d)
{
    if (d.kind != DescriptorKind::hostToNxpCall &&
        d.kind != DescriptorKind::hostToNxpReturn) {
        panic("NxP %u received unexpected descriptor kind %s", device,
              descriptorKindName(d.kind));
    }
    // Context switch the thread in: a call starts on the descriptor's
    // stack pointer, a return resumes the thread where it faulted.
    after(nxpCycles(_timing.nxpCtxSwitchCycles), [this, device, d] {
        TaskExec *x = live(static_cast<int>(d.pid), d.callId);
        if (!x) {
            // The call this descriptor belongs to was failed or
            // cancelled while the descriptor was in flight.
            protoStat("stale_descriptors", device);
            releaseNxp(device);
        } else if (d.kind == DescriptorKind::hostToNxpCall) {
            startNxpCall(*x, device, d);
        } else {
            resumeNxpCall(*x, device, d);
        }
    });
}

void
MigrationEngine::startNxpCall(TaskExec &x, unsigned device,
                              const MigrationDescriptor &d)
{
    NxpSide &s = side(device);
    Core &core = *s.core;
    core.mmu().setCr3(d.cr3);
    s.loadedCr3 = d.cr3;
    core.setStackPointer(d.nxpSp);
    core.setupCall(d.target, argsOf(d));
    tracePoint(TracePoint::nxpCallStart, x.task->pid, d.callId, device,
               d.target);
    runNxpSegment(x, device);
}

void
MigrationEngine::resumeNxpCall(TaskExec &x, unsigned device,
                               const MigrationDescriptor &d)
{
    NxpSide &s = side(device);
    Core &core = *s.core;
    Task &task = *x.task;
    if (task.nxpSavedCtx.empty() ||
        task.nxpSavedCtx.back().device != device) {
        panic("host->NxP return with mismatched saved NxP context");
    }
    if (s.loadedCr3 != task.cr3) {
        core.mmu().setCr3(task.cr3);
        s.loadedCr3 = task.cr3;
    }
    core.restoreContext(task.nxpSavedCtx.back().context);
    task.nxpSavedCtx.pop_back();
    tracePoint(TracePoint::nxpResume, task.pid, d.callId, device);

    if (x.frames.empty() || x.frames.back().caller != device) {
        panic("NxP %u resumed task %d without a matching call frame",
              device, task.pid);
    }
    CallFrame f = x.frames.back();
    x.frames.pop_back();
    ++task.migrations;
    if (f.callee == hostSide) {
        _nhnRoundtrips.inc();
        _nhnTicks.inc(_events.now() - f.t0);
    } else {
        _stats.inc("nxp_to_nxp_roundtrips");
    }
    // Device-originated round trips feed the cost model too (the
    // relayed-call feedback gap): a d2h or d2d round trip is as real a
    // sample of its callee's cost as a host-side one.
    feedModel(task.cr3, f.canonical, f.callee, _events.now() - f.t0);
    core.finishHijackedCall(d.retval);
    runNxpSegment(x, device);
}

void
MigrationEngine::runNxpSegment(TaskExec &x, unsigned device)
{
    int pid = x.task->pid;
    std::uint64_t id = x.id;
    NxpSide &s = side(device);
    // Under chaos the core may wedge a few instructions into the
    // segment (a hung accelerator pipeline): the architectural state
    // stops advancing and no stop event is ever scheduled. The core
    // stays busy forever; recovery is the health watchdog's job.
    bool wedge = _chaos && _chaos->shouldWedgeNxpCore();
    std::uint64_t budget = wedge ? _chaos->wedgeProgress() : ~0ull;
    // The racing twin of an active speculation is exempt from conflict
    // detection for exactly this slice: its stores are byte-identical
    // to the buffered host stores that would replay over them.
    bool spec_window = _spec && _spec->matches(pid, id) &&
                       _spec->device() == device;
    if (spec_window)
        _spec->beginDeviceWindow(device);
    RunResult r = s.core->run(budget);
    if (spec_window)
        _spec->endDeviceWindow();
    if (wedge && r.stop == Fault::none) {
        s.segmentEnd = _events.now();
        _stats.inc("chaos_core_wedges");
        return;
    }
    // While the segment's time is being charged the busy core is
    // computing, not stalled; tell the watchdog when that excuse ends.
    // (A segment shorter than a wedge budget completed architecturally
    // before the hang could bite.)
    s.segmentEnd = _events.now() + r.elapsed;
    after(r.elapsed,
          [this, pid, id, device, r] {
              handleNxpStop(pid, id, device, r);
          });
}

void
MigrationEngine::handleNxpStop(int pid, std::uint64_t id, unsigned device,
                               RunResult r)
{
    ++side(device).progress; // a retired segment is forward progress
    TaskExec *xp = live(pid, id);
    if (!xp) {
        // Usually a host-committed race cut this side before the
        // function finished charging its time. The device-side cost is
        // known regardless (the segment just retired): harvest it as
        // the model's device sample, short only of the return leg the
        // cut saved.
        if (r.stop == Fault::trampoline)
            harvestSpecSample(pid, id);
        releaseNxp(device);
        return;
    }
    TaskExec &x = *xp;
    Core &core = *side(device).core;

    switch (r.stop) {
      case Fault::trampoline: {
        // (f) The NxP function finished: ship the return value home.
        std::uint64_t rv = core.retVal();
        tracePoint(TracePoint::nxpDescBuild, pid, id, device, rv);
        MigrationDescriptor ret;
        ret.kind = DescriptorKind::nxpToHostReturn;
        ret.pid = static_cast<std::uint32_t>(pid);
        ret.retval = rv;
        deviceSendToHost(x, ret, device);
        return;
      }

      case Fault::nonNxFetch:
      case Fault::misalignedFetch: {
        FaultAction action =
            _kernel.classifyFetchFault(r.stop, IsaKind::rv64);
        if (action != FaultAction::migrateToHost)
            panic("NxP fetch fault not classified as migration");
        tracePoint(TracePoint::nxpFault, pid, id, device, r.faultVa);
        startNxpFaultMigration(x, r.faultVa, device);
        return;
      }

      default:
        fatal("guest fault on the NxP core: %s at %#llx "
              "(pc %#llx, pid %d)",
              faultName(r.stop), (unsigned long long)r.faultVa,
              (unsigned long long)core.pc(), pid);
    }
}

void
MigrationEngine::startNxpFaultMigration(TaskExec &x, VAddr target,
                                        unsigned device)
{
    // The kernel classifies the target by the ISA tag in its PTE. The
    // upper table levels sit in the host's paging-structure caches, so
    // this is charged as a single leaf read; the value is fetched with
    // an untimed walk.
    afterLive(_timing.hostToHostDram, x.task->pid, x.id, device,
              [this, target, device](TaskExec &w) {
        Task &task = *w.task;
        int pid = task.pid;
        std::uint64_t id = w.id;
        Core &core = *side(device).core;

        auto leaf = _pageTables.findLeaf(task.cr3, target);
        if (!leaf) {
            fatal("guest on NxP %u jumped to unmapped address %#llx",
                  device, (unsigned long long)target);
        }

        unsigned tag = pte::isaTag(leaf->entry);
        unsigned dest = hostSide;
        if (tag != 0) {
            unsigned to = tag - nxpIsaTag;
            if (to >= _nxp.size())
                fatal("guest jumped to code tagged for missing NxP %u", to);
            if (to == device) {
                panic("NxP %u faulted on its own code at %#llx", device,
                      (unsigned long long)target);
            }
            dest = to;
        }

        // The faulted VA is what the trace records; the dispatch VA is
        // what the descriptor carries (a policy may re-point it at a
        // twin).
        VAddr dispatch = target;
        VAddr canonical = target;
        if (dest != hostSide) {
            // Device-to-device calls go through the same decision point
            // as host-originated ones (the kernel relays them anyway);
            // the policy may rebalance onto another device's twin or —
            // if it says crossing loses — route the relay straight to
            // the host twin.
            Placed p = decidePlacement(w, target, dest, device);
            canonical = p.canonical;
            if (p.toHost) {
                protoStat("placement.host_steered", dest);
                dest = hostSide;
            } else if (p.device != dest) {
                protoStat("placement.rebalanced", p.device);
                dest = p.device;
            }
            dispatch = p.va;
        }

        (dest == hostSide ? _nxpToHostCalls : _nxpToNxpCalls).inc();
        tracePoint(TracePoint::nxpDescBuild, pid, id, device, target);

        // Build the NxP->host call descriptor from the faulting call's
        // argument registers (Listing 2 lines 3-4).
        MigrationDescriptor d;
        d.kind = DescriptorKind::nxpToHostCall;
        d.pid = static_cast<std::uint32_t>(pid);
        d.target = dispatch;
        d.cr3 = task.cr3;
        d.nargs = MigrationDescriptor::maxArgs;
        for (unsigned i = 0; i < MigrationDescriptor::maxArgs; ++i)
            d.args[i] = core.arg(i);

        // Save the thread's NxP context (the context switch to the NxP
        // scheduler); the device core frees up once the send completes.
        task.nxpSavedCtx.push_back(
            {device, core.saveContext(), core.stackPointer()});
        CallFrame f{dest, device, _events.now()};
        f.canonical = canonical;
        w.frames.push_back(f);

        if (_extraRoundTrip) {
            afterLive(_extraRoundTrip, pid, id, device,
                      [this, d, device](TaskExec &v) {
                deviceSendToHost(v, d, device);
            });
        } else {
            deviceSendToHost(w, d, device);
        }
    });
}

void
MigrationEngine::deviceSendToHost(TaskExec &x, MigrationDescriptor d,
                                  unsigned device)
{
    d.callId = x.id;
    after(nxpCycles(_timing.nxpDescriptorCycles) +
              _timing.nxpToNxpDram,
          [this, d, device] {
        // Context switch to the NxP scheduler, ring the DMA doorbell.
        after(nxpCycles(_timing.nxpCtxSwitchCycles) +
                  _timing.nxpToLocalMmio,
              [this, d, device] {
            NxpSide &s = side(device);
            if (s.dead || s.health == DeviceHealth::quarantined) {
                // The device (or its link) was written off while the
                // send was being staged; nothing may enter the drained
                // rings. The waiting caller is failed by quarantine.
                protoStat("dropped_descriptors", device);
                releaseNxp(device);
                return;
            }
            fireNxpToHost(d, device);
            releaseNxp(device);
        });
    });
}

void
MigrationEngine::fireNxpToHost(MigrationDescriptor d, unsigned device)
{
    NxpSide &s = side(device);
    unsigned slot = 0;
    if (!s.d2h.stage(d, slot))
        return; // deferred until the host frees a slot
    tracePoint(TracePoint::dmaToHostStart, static_cast<int>(d.pid),
               d.callId, device);
    traceGauge(TraceGauge::d2hRing, device, s.d2h.inUse());
    int dpid = static_cast<int>(d.pid);
    std::uint64_t cid = d.callId;
    s.dma->copyNxpToHost(s.d2h.stagingPa(slot), s.d2h.mailboxPa(slot),
                         MigrationDescriptor::wireBytes,
                         static_cast<int>(s.irqVector),
                         [this, device, dpid, cid] {
                             NxpSide &t = side(device);
                             ++t.d2hLanded;
                             ++t.progress;
                             tracePoint(TracePoint::dmaToHostDone, dpid, cid,
                                        device);
                         });
    armD2hWatchdog(device, d.seq);
}

void
MigrationEngine::hostIrq(unsigned device)
{
    // The device raised the DMA-complete MSI: read the descriptor out
    // of the inbox ring, then let the IRQ handler find and wake the
    // suspended task.
    protoStat("host_irqs", device);
    NxpSide &s = side(device);
    if (s.d2hLanded == 0) {
        // A duplicated MSI, or one whose descriptor the watchdog has
        // already serviced: nothing unserviced has landed.
        protoStat("spurious_irqs", device);
        return;
    }
    processHostInbox(device);
}

void
MigrationEngine::processHostInbox(unsigned device)
{
    MigrationDescriptor d;
    if (!acceptLanded(device, side(device).d2h, d))
        return;
    after(_timing.irqWake, [this, d, device] {
        int pid = static_cast<int>(d.pid);
        TaskExec *x = live(pid, d.callId);
        if (!x) {
            // The call this return belongs to is gone (failed,
            // cancelled, already failed over — or its host twin won a
            // speculative race and the id moved on). A host-committed
            // race's straggler return still carries a usable device-
            // side latency sample; credit it before dropping the wake.
            if (d.kind == DescriptorKind::nxpToHostReturn)
                harvestSpecSample(pid, d.callId);
            protoStat("stale_descriptors", device);
            return;
        }
        if (x->pendingFallback || x->task->state != TaskState::onNxp) {
            // The thread was already rescued out of its suspension
            // (host fallback in flight); this straggler return must
            // not wake it a second time.
            protoStat("stale_descriptors", device);
            return;
        }
        if (_spec && _spec->matches(pid, d.callId)) {
            if (d.kind == DescriptorKind::nxpToHostReturn) {
                // The NxP side finished first: it wins the race. The
                // host twin's cost is still functionally known — feed
                // it as the host-side sample (the other half of the
                // free double-sample), then squash the speculation and
                // let the wake proceed on the freed core.
                protoStat("spec.committed_nxp", device);
                tracePoint(TracePoint::specSquash, pid, d.callId, device);
                if (!_spec->doomed() && !x->frames.empty()) {
                    const CallFrame &top = x->frames.back();
                    feedModel(x->task->cr3, top.canonical, hostSide,
                              _spec->hostDoneTick() - top.t0);
                }
                retireSpec(false);
            } else {
                // The racing twin made a nested cross-ISA call: the
                // race is no longer a simple leaf race (the host twin
                // cannot mirror device-side nesting). Abort it; the
                // nested call then proceeds normally.
                tracePoint(TracePoint::specSquash, pid, d.callId, device);
                retireSpec(true);
            }
        }
        _kernel.wake(*x->task);
        tracePoint(TracePoint::hostWake, pid, d.callId, device);
        x->pendingWake = true;
        x->wakeDesc = d;
        _kernel.enqueueRunnable(*x->task);
        kickHost();
    });
}

// --- Link integrity (NAK / retransmit / timeout) -------------------------

bool
MigrationEngine::acceptLanded(unsigned device, DescriptorLink &link,
                              MigrationDescriptor &d)
{
    MigrationDescriptor::Wire w = link.landed();
    bool ok = MigrationDescriptor::wireIntact(w);
    if (ok) {
        d = MigrationDescriptor::fromWire(w);
        ok = d.seq == link.acceptedSeq() + 1;
        if (!ok)
            protoStat("seq_mismatches", device);
    }
    if (!ok) {
        nak(device, link);
        return false;
    }
    NxpSide &s = side(device);
    bool h2d = &link == &s.h2d;
    ++s.progress;
    MigrationDescriptor next;
    bool unblocked = link.accept(d.seq, next);
    traceGauge(h2d ? TraceGauge::h2dRing : TraceGauge::d2hRing, device,
               link.inUse());
    if (h2d)
        s.platform->consumeInbox();
    else
        --s.d2hLanded;
    // The freed slot unblocks a deferred send in the same direction.
    if (unblocked && h2d)
        stageHostToNxp(next, device);
    else if (unblocked)
        fireNxpToHost(next, device);
    return true;
}

void
MigrationEngine::nak(unsigned device, DescriptorLink &link)
{
    NxpSide &s = side(device);
    bool h2d = &link == &s.h2d;
    protoStat("naks", device);
    if (link.nak() > _retryBudget) {
        fatal("unrecoverable fabric fault: descriptor on the %s link of "
              "NxP %u still corrupt after %u retransmissions%s",
              h2d ? "host->NxP" : "NxP->host", device, _retryBudget,
              _chaos ? strfmt(" (chaos seed %llu)",
                              (unsigned long long)_chaos->seed())
                           .c_str()
                     : "");
    }
    protoStat("retries", device);
    // The corrupt arrival is consumed; the sender's staging copy of the
    // head slot is intact, so the NAK just replays its DMA burst.
    unsigned slot = link.front();
    if (h2d) {
        // The retransmission will signal a fresh inbox arrival.
        s.platform->consumeInbox();
        NxpPlatform *platform = s.platform;
        protoStat("doorbell_writes", device);
        s.dma->copyHostToNxp(link.stagingPa(slot), link.mailboxPa(slot),
                             DescriptorLink::slotBytes,
                             [this, platform, device] {
                                 platform->inboxArrived();
                                 kickNxp(device);
                             });
        releaseNxp(device);
    } else {
        // The watchdog armed at first fire keeps covering the
        // retransmission's MSI, which may itself be lost.
        --s.d2hLanded;
        s.dma->copyNxpToHost(link.stagingPa(slot), link.mailboxPa(slot),
                             DescriptorLink::slotBytes,
                             static_cast<int>(s.irqVector),
                             [this, device] { ++side(device).d2hLanded; });
    }
}

void
MigrationEngine::armD2hWatchdog(unsigned device, std::uint64_t seq)
{
    // Without fault injection MSIs cannot be lost; leave the event
    // stream untouched so fault-free runs stay tick-for-tick identical.
    if (!_chaos || !_chaos->enabled())
        return;
    _events.scheduleIn(_timing.descriptorTimeout, "d2h-watchdog",
                       [this, device, seq] {
        NxpSide &s = side(device);
        if (s.d2h.acceptedSeq() >= seq)
            return; // serviced in time; disarm
        if (s.d2hLanded == 0) {
            // Still in flight (delayed burst or pending retransmission);
            // keep watching.
            armD2hWatchdog(device, seq);
            return;
        }
        // The descriptor landed but its MSI never arrived: the driver's
        // poll finds and services it.
        protoStat("timeouts", device);
        processHostInbox(device);
        if (side(device).d2h.acceptedSeq() < seq)
            armD2hWatchdog(device, seq); // NAKed; watch the retry
    });
}

// --- Device health, deadlines and failover -------------------------------

void
MigrationEngine::killDevice(unsigned device)
{
    NxpSide &s = side(device);
    s.dead = true;
    s.segmentEnd = _events.now();
    _stats.inc("devices_killed");
    armHeartbeat();
}

bool
MigrationEngine::cancelCall(int pid)
{
    // A queued call never entered the engine; the front door lifts it
    // straight out of its tenant's submission queue.
    if (_qos.cancelQueued(pid))
        return true;
    auto it = _exec.find(pid);
    if (it == _exec.end() || it->second.future->done)
        return false;
    failCall(it->second, CallStatus::cancelled);
    return true;
}

void
MigrationEngine::armHeartbeat()
{
    if (_heartbeatArmed)
        return;
    _heartbeatArmed = true;
    _events.scheduleIn(_timing.deviceHeartbeat, "device-heartbeat",
                       [this] { heartbeat(); });
}

void
MigrationEngine::heartbeat()
{
    Tick now = _events.now();

    // Deadlines first: a stalled call on a wedged device should report
    // deadlineExceeded when the caller asked for a bound, even if the
    // same beat would also quarantine the device.
    failWhere(
        [now](const TaskExec &x) { return x.deadline && now >= x.deadline; },
        CallStatus::deadlineExceeded);

    // Then per-device progress: a device owing work must show forward
    // progress between beats, unless its core is legitimately inside a
    // long segment whose retirement is already scheduled.
    for (unsigned dev = 0; dev < _nxp.size(); ++dev) {
        NxpSide &s = _nxp[dev];
        if (s.health == DeviceHealth::quarantined)
            continue;
        bool outstanding = !deviceIdle(s);
        bool advanced = s.progress != s.lastProgress;
        s.lastProgress = s.progress;
        if (!outstanding || advanced || (s.busy && now < s.segmentEnd)) {
            s.strikes = 0;
            if (s.health == DeviceHealth::suspect) {
                s.health = DeviceHealth::healthy;
                protoStat("health_recoveries", dev);
            }
            continue;
        }
        strike(dev);
    }

    // Keep beating while calls are in flight; a later submit or
    // killDevice re-arms an idle watchdog.
    _heartbeatArmed = false;
    if (!_exec.empty())
        armHeartbeat();
}

void
MigrationEngine::strike(unsigned device)
{
    NxpSide &s = side(device);
    ++s.strikes;
    protoStat("health_strikes", device);
    if (s.health == DeviceHealth::healthy)
        s.health = DeviceHealth::suspect;
    if (s.strikes >= _strikeLimit)
        quarantineDevice(device);
}

bool
MigrationEngine::deviceIdle(const NxpSide &s) const
{
    return !s.busy && s.h2d.depth() == 0 && s.d2h.depth() == 0 &&
           s.platform->pendingInbox() == 0 && !s.dma->busy();
}

void
MigrationEngine::quarantineDevice(unsigned device)
{
    NxpSide &s = side(device);
    if (s.health == DeviceHealth::quarantined)
        return;
    s.health = DeviceHealth::quarantined;
    protoStat("quarantines", device);
    if (_qos.enabled()) {
        // The capacity the fabric just lost propagates into admission:
        // effectiveTenantBudget() shrinks with the alive-device count,
        // and this counter's _dev# split records who took it away.
        protoStat("qos.capacity_lost", device);
    }

    // Nothing staged for or by the device will ever be serviced again:
    // drop the in-flight rings, the backpressure queues and any landed-
    // but-unserviced returns, then fail every call that depends on it.
    s.h2d.drain();
    s.d2h.drain();
    s.d2hLanded = 0;
    // An open batch window dies with the rings; the epoch bump makes a
    // pending window-close event a no-op.
    s.batchCount = 0;
    ++s.batchEpoch;

    failWhere(
        [device](const TaskExec &x) {
            return touches(x.frames, *x.task, device);
        },
        CallStatus::deviceLost);
}

template <class Pred>
void
MigrationEngine::failWhere(Pred pred, CallStatus status)
{
    // failCall erases from _exec, so sweep over a PID snapshot.
    std::vector<int> pids;
    for (const auto &kv : _exec) {
        if (pred(kv.second))
            pids.push_back(kv.first);
    }
    for (int pid : pids) {
        auto it = _exec.find(pid);
        if (it != _exec.end())
            failCall(it->second, status);
    }
}

bool
MigrationEngine::touches(std::span<const CallFrame> frames, const Task &task,
                         unsigned device)
{
    for (const CallFrame &f : frames) {
        if (f.callee == device || f.caller == device)
            return true;
    }
    for (const auto &ctx : task.nxpSavedCtx) {
        if (ctx.device == device)
            return true;
    }
    return false;
}

void
MigrationEngine::failCall(TaskExec &x, CallStatus status)
{
    if (x.future->done)
        return;
    if (_spec && _spec->matches(x.task->pid, x.id)) {
        // The raced call is dying (cancel, deadline, device loss): the
        // speculation dies with it and must give the host core back
        // before any failover tries to claim it.
        tracePoint(TracePoint::specSquash, x.task->pid, x.id,
                   _spec->device());
        retireSpec(true);
    }
    unsigned dev = execDevice(x);
    if (status == CallStatus::deviceLost && canFailover(x)) {
        scheduleFallback(x);
        return;
    }

    x.future->value = 0;
    x.future->status = status;
    x.future->done = true;
    _stats.inc("calls_failed");
    tracePoint(TracePoint::callFailed, x.task->pid, x.id,
               dev == hostSide ? 0 : dev, static_cast<std::uint64_t>(status));
    switch (status) {
      case CallStatus::cancelled:
        failStat("cancellations", dev);
        break;
      case CallStatus::deadlineExceeded:
        failStat("deadline_exceeded", dev);
        break;
      case CallStatus::deviceLost:
        failStat("device_lost", dev);
        break;
      default:
        panic("failCall with status %s", callStatusName(status));
    }

    // Unwind the thread's migration bookkeeping so the task object is
    // reusable (resubmit, teardown). In-flight continuations and
    // descriptors of this call die against the generation token.
    Task &task = *x.task;
    unsigned tenant = x.tenant;
    _kernel.removeFromRunQueue(task);
    _kernel.abortMigration(task);
    task.nxpSavedCtx.clear();
    retireExec(task.pid);
    traceGauge(TraceGauge::inFlightCalls, 0, _exec.size());
    // Failed calls free the tenant's budget slot like completions, but
    // deliberately don't feed the cost model — a deadline kill or
    // device loss is not a service-time sample.
    if (_qos.enabled())
        _qos.retire(tenant);
}

bool
MigrationEngine::canFailover(const TaskExec &x) const
{
    if (!_hostFallback || x.frames.empty())
        return false;
    const CallFrame &top = x.frames.back();
    if (top.callee == hostSide || top.callee >= _nxp.size())
        return false;
    if (top.target == 0) // descriptor never built: nothing to re-run
        return false;
    unsigned device = top.callee;
    // Only a leaf call is safely re-executable: the thread must be
    // suspended waiting for exactly this call, with no deeper frame and
    // no saved execution context on the lost device (those would mean
    // partially-executed state we cannot reconstruct).
    if (x.task->state != TaskState::onNxp || x.pendingWake ||
        x.pendingFallback)
        return false;
    std::span<const CallFrame> deeper(x.frames.data(), x.frames.size() - 1);
    return !touches(deeper, *x.task, device) &&
           fallbackVa(x.task->cr3, top.target) != 0;
}

void
MigrationEngine::scheduleFallback(TaskExec &x)
{
    CallFrame &top = x.frames.back();
    protoStat("failovers", top.callee);
    // The frame becomes a host-executed call; its recorded target and
    // arguments drive the re-dispatch once the thread gets the core.
    top.callee = hostSide;
    x.pendingFallback = true;
    _kernel.wake(*x.task);
    _kernel.enqueueRunnable(*x.task);
    kickHost();
}

unsigned
MigrationEngine::execDevice(const TaskExec &x) const
{
    for (auto it = x.frames.rbegin(); it != x.frames.rend(); ++it) {
        if (it->callee != hostSide)
            return it->callee;
        if (it->caller != hostSide)
            return it->caller;
    }
    return hostSide;
}

} // namespace flick
