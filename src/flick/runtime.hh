/**
 * @file
 * The Flick migration engine.
 *
 * Implements the protocol of Section IV-B — the host migration handler
 * (Listing 1), the NxP scheduler and migration handler (Listing 2), the
 * kernel ioctl/suspend/wake path and the descriptor DMA — as an
 * event-driven scheduler multiplexing any number of simulated threads
 * over the host core and the NxP devices:
 *
 *   - A thread enters through submit(), which queues it on the kernel's
 *     host run queue and returns a CallFuture immediately. The host
 *     core dispatches queued threads whenever it goes idle.
 *   - Each core runs one thread's segment at a time (a Core::run()
 *     slice up to the next migration point: trampoline, halt or fetch
 *     fault). Handler and kernel costs are charged by chaining
 *     continuation events from TimingConfig, so a segment plus its
 *     protocol leg occupies the core for exactly the time the serial
 *     protocol would.
 *   - Descriptors travel through per-device, per-direction descriptor
 *     links (DescriptorLink: a slot ring plus its sequence numbers and
 *     backpressure queue) instead of single kernel-buffer/inbox slots,
 *     so several threads can be mid-migration on the same link. Both
 *     directions share one staging, accept and NAK path.
 *     Each NxP's scheduler works its inbox ring in FIFO order — its run
 *     list — while threads suspended mid-nested-call park their saved
 *     contexts on their Task.
 *   - A thread's cross-ISA nesting is tracked as a per-task stack of
 *     call frames; returns always route device -> host -> (resume the
 *     suspended host context, or relay to the caller device), which is
 *     also how device-to-device calls bounce through the host kernel
 *     (Section IV-C3).
 *
 * All application instructions execute in the interpreters, and the
 * descriptor bytes really travel through the simulated DMA engines and
 * memories. Because every cost is charged on the owning core's timeline,
 * independent threads overlap: while one thread computes on an NxP, the
 * host core is free to run another thread's handler or segment.
 */

#ifndef FLICK_FLICK_RUNTIME_HH
#define FLICK_FLICK_RUNTIME_HH

#include <array>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "flick/call_future.hh"
#include "flick/descriptor.hh"
#include "flick/nxp_platform.hh"
#include "flick/qos.hh"
#include "flick/link.hh"
#include "policy/policy.hh"
#include "isa/core.hh"
#include "mem/dma.hh"
#include "mem/irq.hh"
#include "os/kernel.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/timing_config.hh"
#include "sim/trace.hh"
#include "vm/range_allocator.hh"

namespace flick
{

class ChaosController;
class PageTableManager;
class PlacementPolicy;
class ResidencyTracker;
class SpeculationManager;
struct EnginePlacementView;
struct SystemConfig;

/**
 * Health of one NxP device, as the driver's watchdog sees it.
 *
 * healthy --(heartbeat finds outstanding work but no progress)-->
 * suspect --(strike limit reached)--> quarantined. A suspect device
 * that makes progress again returns to healthy; quarantine is
 * terminal: the rings are drained, in-flight calls are failed (or
 * failed over to host text) and new submissions are rejected.
 */
enum class DeviceHealth
{
    healthy,
    suspect,
    quarantined,
};

/**
 * Drives threads across the ISA boundary.
 */
class MigrationEngine
{
  public:
    /**
     * The opt-in layers the engine consults, wired once at construction;
     * none is owned. A null policy, residency tracker or speculation
     * manager keeps that layer's paths unreachable: no counters, no
     * extra events, tick-for-tick identical runs.
     */
    struct Layers
    {
        //! Decides whether the descriptor watchdogs are armed; its seed
        //! names unrecoverable faults. The engine never draws from it.
        ChaosController *chaos = nullptr;
        //! Passive protocol milestones and gauges (DESIGN.md §10).
        Tracer *tracer = nullptr;
        //! Consulted at every NX-fault dispatch (DESIGN.md §11); null
        //! keeps the paper's link-time pinning.
        PlacementPolicy *policy = nullptr;
        //! Answers the policy view's pageResidency() (DESIGN.md §15).
        ResidencyTracker *residency = nullptr;
        //! Races low-confidence calls against their host twin (§16).
        SpeculationManager *spec = nullptr;
    };

    /**
     * Wire the engine to the machine. Of @p config it reads the timing,
     * NxP stack size, retry budget, call deadline, host fallback,
     * health strike limit, batching and QoS settings; @p config must
     * outlive the engine. @p page_tables answers the kernel's untimed
     * PTE lookups.
     */
    MigrationEngine(EventQueue &events, MemSystem &mem,
                    const PageTableManager &page_tables, Kernel &kernel,
                    IrqController &irq, Core &host_core,
                    const SystemConfig &config, const Layers &layers);

    /**
     * Register one NxP device (in device-id order, starting at 0).
     * Any number of devices may be registered; every ring, health
     * record and counter the engine keeps is sized per registration.
     *
     * @param host_staging_pa Host DRAM base of the kernel's outbound
     *        descriptor-staging ring (ring_slots slots of 128 bytes);
     *        slot i DMAs into the device's inbox ring slot i.
     * @param host_inbox_pa Host DRAM base of the inbound ring the
     *        device's outbox slots DMA into.
     * @param irq_vector Host interrupt vector the device raises.
     * @param ring_slots Slots per direction (in-flight descriptor bound).
     */
    void addNxpDevice(Core &core, NxpPlatform &platform, DmaEngine &dma,
                      RangeAllocator &stack_heap, Addr host_staging_pa,
                      Addr host_inbox_pa, unsigned irq_vector,
                      unsigned ring_slots);

    /**
     * Per-call knobs a submission may carry. Defaults leave the event
     * stream exactly as a plain submit() would.
     */
    struct SubmitOptions
    {
        /**
         * Relative completion deadline for this call; 0 inherits the
         * engine-wide SystemConfig::callDeadline. A nonzero deadline
         * arms the heartbeat watchdog.
         */
        Tick deadline = 0;
        /**
         * Preferred NxP device for the call's first placement decision,
         * consumed one-shot at the next NX-fault dispatch; -1 = none.
         * An impossible hint (no such device, no text there, or the
         * device is quarantined) is ignored and dispatch proceeds as if
         * no hint were given.
         */
        int placementHint = -1;
    };

    /**
     * Start @p task at @p entry on the host core and return a future
     * that resolves when the entry function returns. The call begins at
     * the current simulated time but makes progress only as the event
     * queue runs (CallFuture::wait() pumps it); submitting never blocks.
     *
     * @param stack_top Initial host stack pointer.
     */
    CallFuture submit(Task &task, VAddr entry,
                      std::span<const std::uint64_t> args, VAddr stack_top,
                      const SubmitOptions &opts);

    /**
     * Free the NxP stacks @p task accumulated (thread teardown). The
     * task must not be mid-migration.
     */
    void releaseNxpStacks(Task &task);

    /** Run one pending event; false if the queue is empty. */
    bool pump() { return _events.step(); }

    /**
     * Inject extra latency per migration round trip, emulating the
     * prior-work systems of Table II / Figure 5's dashed lines. The
     * benches change it between runs of one machine.
     */
    void setExtraRoundTripLatency(Tick t) { _extraRoundTrip = t; }

    /** The multi-tenant QoS front door (DESIGN.md §14). */
    QosFrontDoor &qos() { return _qos; }

    // --- Device health, deadlines and failover -------------------------

    /** "Device" id of the host side in a call frame, and the host core
     *  in the continuation guard. */
    static constexpr unsigned hostSide = ~0u;

    /**
     * Register @p va as the text for @p where (a device, or hostSide)
     * of the function whose home symbol is @p canonical in address
     * space @p cr3 — the multi-ISA binary's Section 3.3 property: the
     * same function exists as text for every ISA. The engine
     * re-dispatches failed calls to the host twin when host fallback is
     * on; a placement policy may re-point a faulted call at any
     * device's copy.
     */
    void registerTwin(Addr cr3, VAddr canonical, unsigned where, VAddr va);

    /**
     * Analytic Host-NxP-Host protocol overhead (fault service through
     * host wakeup, excluding callee execution) from TimingConfig; what
     * ProfileGuidedPlacement subtracts from measured round trips to
     * estimate callee execution time (DESIGN.md §11).
     */
    Tick crossingCostEstimate() const;

    /**
     * Fault/test hook: the device's hardware stops responding from now
     * on (it picks up no descriptors and completes nothing). Detection
     * still happens through the health watchdog, which this arms.
     */
    void killDevice(unsigned device);

    /** Health of @p device as the watchdog currently sees it. */
    DeviceHealth
    deviceHealth(unsigned device)
    {
        return side(device).health;
    }

    /**
     * Cancel the in-flight call of @p pid: its future completes with
     * status cancelled. Returns false if no call is in flight.
     */
    bool cancelCall(int pid);

    /** Current simulated time (CallFuture::waitFor's clock). */
    Tick now() const { return _events.now(); }

    StatGroup &stats() { return _stats; }

  private:
    friend struct EnginePlacementView;
    friend class QosFrontDoor;

    /**
     * One level of a thread's cross-ISA nesting: who is running the
     * callee and who is waiting for the return.
     */
    struct CallFrame
    {
        unsigned callee; //!< Device running the called function, or host.
        unsigned caller; //!< Side waiting for the return, or hostSide.
        Tick t0;         //!< Round-trip start (for the ticks stats).
        //! Call target and arguments, recorded when the call descriptor
        //! is built; what the host fallback path re-dispatches. 0 until
        //! the descriptor exists.
        VAddr target = 0;
        std::uint32_t nargs = 0;
        std::array<std::uint64_t, MigrationDescriptor::maxArgs> args{};
        //! Home-symbol VA of the callee (== target unless the placement
        //! policy re-pointed the call at a twin); the cost model's key.
        VAddr canonical = 0;
        //! The placement policy chose host text (vs a quarantine
        //! failover); splits the return-path counters.
        bool steered = false;
    };

    /**
     * Execution state of one in-flight submitted call, headed by what
     * the call asked for (its entry parameters are consumed by the
     * first host dispatch).
     */
    struct TaskExec : CallRequest
    {
        std::shared_ptr<CallFutureState> future;
        std::vector<CallFrame> frames;
        //! Generation token. PIDs are reused across calls; continuation
        //! events and descriptors carry (pid, id) and are dropped when
        //! the id no longer matches (the call failed or was cancelled).
        std::uint64_t id = 0;
        //! Set while a woken descriptor waits for the host core.
        bool pendingWake = false;
        MigrationDescriptor wakeDesc;
        //! Set while a host-fallback re-dispatch waits for the core.
        bool pendingFallback = false;
        //! QoS tenant id (only meaningful with QoS enabled).
        unsigned tenant = 0;
        //! Admission time; the QoS cost model's sample starts here.
        Tick admitted = 0;
    };

    /** The call (pid, callId) a staged h2d ring slot belongs to. */
    struct SlotOwner
    {
        int pid = 0;
        std::uint64_t callId = 0;
    };

    /** Everything belonging to one NxP device. */
    struct NxpSide
    {
        Core *core;
        NxpPlatform *platform;
        DmaEngine *dma;
        RangeAllocator *stackHeap;
        unsigned irqVector;
        DescriptorLink h2d; //!< Host staging ring -> device inbox ring.
        DescriptorLink d2h; //!< Device outbox ring -> host inbox ring.
        //! The call each h2d ring slot was staged for, indexed by slot;
        //! what a burst's DMA completion traces.
        std::vector<SlotOwner> h2dOwner;

        // --- h2d batching state (SystemConfig::batching) ----------------
        //! Descriptors staged but not yet shipped in the open batch
        //! window: batchCount ring slots from batchFirst, in ring order.
        //! A window-close event is pending while batchCount > 0.
        unsigned batchFirst = 0;
        unsigned batchCount = 0;
        //! Bumped by quarantine so a pending window-close event finds
        //! its batch gone and does nothing.
        std::uint64_t batchEpoch = 0;
        bool busy = false;          //!< Core owned by a thread/handler.
        bool kickScheduled = false; //!< Scheduler poll event pending.
        Addr loadedCr3 = 0;         //!< CR3 the device MMU currently holds.

        // --- Device health (heartbeat/progress watchdog) --------------
        DeviceHealth health = DeviceHealth::healthy;
        //! Chaos/test flag: the hardware stopped responding. The
        //! protocol cannot see this directly; the watchdog infers it
        //! from the missing progress.
        bool dead = false;
        //! Heartbeats in a row with outstanding work but no progress.
        unsigned strikes = 0;
        //! Bumped on every observable step the device completes
        //! (descriptor accepted, segment retired, DMA landed).
        std::uint64_t progress = 0;
        //! progress as of the previous heartbeat.
        std::uint64_t lastProgress = 0;
        //! When the segment occupying the core will retire; a busy core
        //! before this tick is computing, not wedged.
        Tick segmentEnd = 0;
        //! Descriptors whose d2h DMA landed but are not yet serviced;
        //! the guard that makes duplicated or stale MSIs harmless.
        unsigned d2hLanded = 0;
    };

    // --- Host-core scheduling -----------------------------------------

    /** Schedule a host dispatch attempt if the core might be free. */
    void kickHost();
    /** Pop the next runnable thread and put it on the host core. */
    void dispatchHost();
    /** Release the host core and look for more work. */
    void releaseHost();

    /**
     * The QoS-independent submit() tail: create the call's TaskExec and
     * hand the task to the host scheduler. @p state reuses a queued
     * call's future (so copies handed out at submit time observe the
     * completion); nullptr makes a fresh one.
     */
    CallFuture admitCall(const CallRequest &req,
                         std::shared_ptr<CallFutureState> state);

    /**
     * Dequeue-time residency re-vote for a queued call's stale
     * placement hint: the device holding a strict access-weighted
     * majority of the pages @p args point at, or -1 when no device
     * does (unmapped args, host-resident data, tie).
     */
    int residencyMajorityDevice(Task &task,
                                std::span<const std::uint64_t> args);

    /** Devices not written off by the health watchdog. */
    unsigned aliveDeviceCount() const;

    /** First dispatch of a submitted call: set up and run the entry. */
    void startEntry(TaskExec &x);
    /**
     * A thread woken out of its migration suspension gets the host
     * core back: scheduler latency, CR3 and context restore, then the
     * ioctl returns into the user-space handler, which spends
     * @p handler more ticks before @p then runs.
     */
    template <class F>
    void resumeOnHost(TaskExec &x, Tick handler, F &&then);
    /** Dispatch a thread woken by a migration-return interrupt. */
    void dispatchWake(TaskExec &x);
    /** Dispatch a thread whose failed call re-runs on host text. */
    void dispatchFallback(TaskExec &x);
    /** Act on the descriptor that woke the thread (after ioctl exit). */
    void handleHostDescriptor(TaskExec &x, MigrationDescriptor d);

    /** Install @p cr3 on the host core unless it already holds it. */
    void loadHostCr3(Addr cr3);
    /** Call @p va on the host core with @p args and run the segment. */
    void runHostCall(TaskExec &x, VAddr va,
                     std::span<const std::uint64_t> args);
    /** Run one host segment of @p x and schedule the stop handling. */
    void runHostSegment(TaskExec &x);
    void handleHostStop(TaskExec &x, RunResult r);

    /**
     * The host core's faulting call to @p target runs on its host twin
     * @p twin instead of crossing to @p device: a policy steered it
     * there (@p steered) or @p device is quarantined. The NX fault
     * already fired, so its service cost and the handler prologue are
     * paid; then the handler re-points the call at the twin instead of
     * packaging a descriptor. The hijacked return address is in place,
     * so the call completes exactly like a migration would have.
     */
    void runHostTwin(TaskExec &x, VAddr target, VAddr canonical,
                     VAddr twin, unsigned device, bool steered);

    /**
     * A call to quarantined @p device was rejected at the kernel
     * boundary: the host twin of @p va to fail over to, or 0 after
     * failing the call and releasing the host core.
     */
    VAddr rejectToTwin(TaskExec &x, unsigned device, VAddr va);

    // --- Placement policy (DESIGN.md §11) ------------------------------

    /** A placement decision, clamped to what actually exists. */
    struct Placed
    {
        bool toHost = false; //!< Run the host twin without crossing.
        unsigned device = 0; //!< Dispatch device when !toHost.
        VAddr va = 0;        //!< VA to dispatch (twin or original).
        VAddr canonical = 0; //!< Home-symbol VA (the model's key).
        //! Policy's confidence margin (PlacementDecision::confidencePct);
        //! below SpecConfig::confidenceThresholdPct arms a speculation.
        unsigned confidencePct = 100;
    };

    /**
     * Consult the placement policy for @p x's faulted call to @p target
     * whose PTE tags it for @p home. @p caller_device is the
     * originating NxP for device-to-device calls, hostSide otherwise.
     * Without a policy — or when the policy's answer is impossible —
     * returns the home placement.
     */
    Placed decidePlacement(TaskExec &x, VAddr target, unsigned home,
                           unsigned caller_device);

    /** Host NX fault: begin the host->NxP call migration (Listing 1)
     *  to the placed device. */
    void startHostToNxpCall(TaskExec &x, const Placed &p);

    /**
     * Feed one measured call @p latency of @p canonical to the policy's
     * cost model, as a host sample (@p where is hostSide) or a sample
     * of device @p where. A no-feedback policy, or a call without a
     * home symbol, feeds nothing: returns false.
     */
    bool feedModel(Addr cr3, VAddr canonical, unsigned where, Tick latency);

    // --- Speculative dual execution (DESIGN.md §16) --------------------

    /**
     * The descriptor for @p x's armed low-confidence call just fired at
     * @p device: keep the host core (instead of releasing it) and run
     * the armed host twin speculatively, stores buffered by the
     * manager, which also keeps the slice's outcome. Schedules
     * hostSpecFinished at the slice's charged end time.
     */
    void launchSpeculation(TaskExec &x, unsigned device);

    /** The speculative host slice's charged time elapsed. A stale
     *  @p seq means the race was already resolved the other way. */
    void hostSpecFinished(int pid, std::uint64_t seq);

    /** Host twin won: cut the NxP side, replay the buffer, wake. */
    void commitHostSpec(TaskExec &x);

    /**
     * Common tail of every squash path: account the wasted host-core
     * ticks, discard the buffer and give the host core back. @p aborted
     * distinguishes a clean race loss from a conflict/doom/death abort.
     */
    void retireSpec(bool aborted);

    /** Conflict callback target (fires from inside a memory access). */
    void specConflictAbort();

    /**
     * A straggler d2h return of a host-committed race landed: its
     * latency is a genuine device-side sample (the free double-sample).
     */
    void harvestSpecSample(int pid, std::uint64_t call_id);

    /** The entry function returned (or the program exited). */
    void completeCall(TaskExec &x, std::uint64_t value);

    /**
     * Package @p d, suspend the thread and fire the descriptor DMA to
     * @p device (the kernel ioctl path; Section IV-D ordering). Ends by
     * releasing the host core.
     */
    void hostSendDescriptor(TaskExec &x, MigrationDescriptor d,
                            unsigned device);
    /** After @p delay, ship return value @p rv to the calling device
     *  @p to (the host->NxP return descriptor). */
    void returnToNxp(TaskExec &x, unsigned to, std::uint64_t rv,
                     Tick delay);
    /**
     * Stage @p d in the next h2d ring slot of @p device, or defer it
     * while the ring is full. With batching off it ships at once (one
     * burst, one doorbell); with batching on it joins the device's open
     * coalescing window.
     */
    void stageHostToNxp(MigrationDescriptor d, unsigned device);
    /**
     * Close @p device's batch window: ship every staged descriptor as
     * chained DMA bursts (one per maximal run of contiguous ring slots,
     * split where the ring wraps).
     */
    void flushH2dBatch(unsigned device);
    /** Ring one doorbell for the @p n staged slots from @p first and
     *  start their chained DMA burst. */
    void shipH2d(unsigned device, unsigned first, unsigned n);

    // --- NxP-side scheduling ------------------------------------------

    /** Schedule an inbox poll on @p device if its core might be free. */
    void kickNxp(unsigned device);
    /** NxP scheduler: pick up the next inbox descriptor (Listing 2). */
    void dispatchNxp(unsigned device);
    void releaseNxp(unsigned device);

    void handleNxpDescriptor(unsigned device, MigrationDescriptor d);
    /** A host->NxP call descriptor's context switch is done: start the
     *  callee on @p device. */
    void startNxpCall(TaskExec &x, unsigned device,
                      const MigrationDescriptor &d);
    /** A host->NxP return descriptor's context switch is done: resume
     *  the suspended caller on @p device. */
    void resumeNxpCall(TaskExec &x, unsigned device,
                       const MigrationDescriptor &d);
    void runNxpSegment(TaskExec &x, unsigned device);
    void handleNxpStop(int pid, std::uint64_t id, unsigned device,
                       RunResult r);

    /** NxP fetch fault: classify by ISA tag and start the migration. */
    void startNxpFaultMigration(TaskExec &x, VAddr target,
                                unsigned device);

    /**
     * Ship @p d to the host (outbox stage + doorbell + DMA), then
     * release the device core.
     */
    void deviceSendToHost(TaskExec &x, MigrationDescriptor d,
                          unsigned device);
    /** Stage @p d in the next d2h ring slot and start its DMA burst,
     *  or defer it while the ring is full. */
    void fireNxpToHost(MigrationDescriptor d, unsigned device);

    /** The IRQ handler for @p device's DMA-complete vector. */
    void hostIrq(unsigned device);

    // --- Link integrity (NAK / retransmit / timeout) -------------------

    /**
     * Service the oldest landed descriptor on @p device's d2h ring:
     * verify integrity, NAK-and-retransmit on failure, wake the target
     * thread on success. Shared by the IRQ handler and the watchdog.
     */
    void processHostInbox(unsigned device);

    /**
     * The receiver side of @p device's @p link reads the head
     * descriptor that landed in its mailbox. Verify it before trusting
     * any field: its checksum, and that its sequence number follows the
     * last accepted one (a mismatch is counted). A bad arrival is NAKed
     * and false returned; a good one is decoded into @p d and accepted,
     * which frees its slot for a deferred descriptor.
     */
    bool acceptLanded(unsigned device, DescriptorLink &link,
                      MigrationDescriptor &d);

    /**
     * The receiver rejected @p link's head: count the NAK and replay
     * the head slot's DMA burst from the sender's intact staging copy.
     * A rejecting device gives its core back.
     */
    void nak(unsigned device, DescriptorLink &link);

    /**
     * Arm (or re-arm) the lost-MSI watchdog for d2h descriptor @p seq.
     * Only armed while fault injection is active; the fault-free event
     * stream carries no watchdog events at all.
     */
    void armD2hWatchdog(unsigned device, std::uint64_t seq);

    // --- Device health, deadlines and failover -------------------------

    /** Arm the recurring heartbeat (idempotent). */
    void armHeartbeat();
    /** One heartbeat: check call deadlines and device progress. */
    void heartbeat();
    /** The heartbeat found @p device stalled: suspect, then quarantine. */
    void strike(unsigned device);
    /** Nothing outstanding on the device: no progress expected. */
    bool deviceIdle(const NxpSide &s) const;

    /**
     * Quarantine @p device: drain its rings, drop deferred traffic and
     * fail (or fail over) every in-flight call that depends on it.
     */
    void quarantineDevice(unsigned device);

    /** failCall() every in-flight call @p pred selects. */
    template <class Pred>
    void failWhere(Pred pred, CallStatus status);

    /** Do @p frames or @p task's saved NxP contexts reference
     *  @p device? */
    static bool touches(std::span<const CallFrame> frames, const Task &task,
                        unsigned device);

    /**
     * Complete @p x's call with a non-ok @p status and unwind its
     * bookkeeping (run queue, task state, saved contexts). When the
     * status is deviceLost and the call is rescuable, re-dispatches it
     * to the host-ISA twin instead. Never touches core ownership: a
     * continuation that finds its call gone releases the core it holds.
     */
    void failCall(TaskExec &x, CallStatus status);

    /**
     * Can @p x's failed call be re-executed on the host? Requires the
     * fallback path enabled, a registered host twin, and a leaf call:
     * the topmost frame targets the lost device, nothing deeper
     * references it, and the thread is suspended awaiting it.
     */
    bool canFailover(const TaskExec &x) const;

    /** Convert the top frame to a host frame and queue the re-dispatch. */
    void scheduleFallback(TaskExec &x);

    /** One function's text for every ISA (Section 3.3). */
    struct TwinFamily
    {
        VAddr canonical = 0; //!< The home symbol's VA.
        PlacementCandidates text;
    };

    /** The family (cr3, va) belongs to, or nullptr if none registered. */
    const TwinFamily *
    family(Addr cr3, VAddr va) const
    {
        auto it = _familyOf.find({cr3, va});
        return it == _familyOf.end() ? nullptr : &_families[it->second];
    }

    /** Host twin of (cr3, va), or 0 if none registered. */
    VAddr
    fallbackVa(Addr cr3, VAddr va) const
    {
        const TwinFamily *f = family(cr3, va);
        return f ? f->text.hostVa : 0;
    }

    /** The device a failing call's counters should be charged to, or
     *  hostSide for a pure host call. */
    unsigned execDevice(const TaskExec &x) const;

    /** Charge a failure counter, per-device when one is involved. */
    void
    failStat(const char *key, unsigned device)
    {
        if (device == hostSide)
            _stats.inc(key);
        else
            protoStat(key, device);
    }

    /** Add @p delta to the aggregate and the per-device (_dev<k>)
     *  protocol counter. */
    void
    protoStat(const char *key, unsigned device, std::uint64_t delta = 1)
    {
        _protoStats.add(key, device, delta);
    }

    // --- Helpers -------------------------------------------------------

    /** The live prefix of a call record's or descriptor's fixed
     *  argument array. */
    template <class Record>
    static std::span<const std::uint64_t>
    argsOf(const Record &r)
    {
        return {r.args.data(), r.nargs};
    }

    /** Insert @p x as @p pid's in-flight call, reusing a spare node. */
    void insertExec(int pid, TaskExec &&x);
    /** Remove @p pid's in-flight call, keeping its node as a spare. */
    void retireExec(int pid);

    /** Ensure the thread has an NxP stack on @p device (Listing 1),
     *  charging the allocation before running @p then. */
    template <class F>
    void
    ensureNxpStack(Task &task, unsigned device, F &&then)
    {
        if (task.nxpStackTop[device] != 0) {
            then();
            return;
        }
        allocateNxpStack(task, device);
        after(_timing.nxpStackAllocate,
              [this, then = std::forward<F>(then)]() mutable {
                  _stats.inc("nxp_stacks_allocated");
                  then();
              });
    }

    /** Allocate the thread's NxP stack on @p device. */
    void allocateNxpStack(Task &task, unsigned device);

    /** Schedule @p fn to run @p t ticks from now. */
    template <class F>
    void
    after(Tick t, F &&fn)
    {
        _events.scheduleIn(t, "flick-engine", std::forward<F>(fn));
    }

    /**
     * Run @p fn on call (@p pid, @p id) if it is still alive. The one
     * rule of every continuation: one that finds its call gone (failed,
     * cancelled, or its id moved on) releases the core it holds —
     * @p core is hostSide for the host core, else an NxP device id.
     */
    template <class F>
    void
    guarded(int pid, std::uint64_t id, unsigned core, F &fn)
    {
        if (TaskExec *x = live(pid, id))
            fn(*x);
        else if (core == hostSide)
            releaseHost();
        else
            releaseNxp(core);
    }

    /** guarded() @p t ticks from now. */
    template <class F>
    void
    afterLive(Tick t, int pid, std::uint64_t id, unsigned core, F &&fn)
    {
        after(t, [this, pid, id, core, fn = std::forward<F>(fn)]() mutable {
            guarded(pid, id, core, fn);
        });
    }

    Tick hostCycles(std::uint64_t n) const { return _hostClock.cycles(n); }
    Tick nxpCycles(std::uint64_t n) const { return _nxpClock.cycles(n); }

    /** Current NxP stack pointer for a (possibly nested) call. */
    std::uint64_t currentNxpSp(const Task &task, unsigned device) const;

    /** Emit a trace milestone for call (@p pid, @p id) when tracing. */
    void
    tracePoint(TracePoint p, int pid, std::uint64_t id, unsigned device = 0,
               std::uint64_t arg = 0)
    {
        if (_tracer)
            _tracer->point(p, _events.now(), pid, id, device, arg);
    }

    /** Sample a trace gauge when tracing. */
    void
    traceGauge(TraceGauge g, unsigned device, std::uint64_t value)
    {
        if (_tracer)
            _tracer->gauge(g, _events.now(), device, value);
    }

    NxpSide &side(unsigned device);

    /**
     * The in-flight call (pid, id) if it is still alive, else nullptr.
     * Continuation events and descriptor arrivals look their call up
     * through this so a failed/cancelled call's stragglers bail out
     * instead of acting on a dead call (or on a newer call reusing the
     * PID).
     */
    TaskExec *live(int pid, std::uint64_t id);

    EventQueue &_events;
    MemSystem &_mem;
    const PageTableManager &_pageTables;
    const TimingConfig &_timing;
    const ClockDomain _hostClock;
    const ClockDomain _nxpClock; //!< Every device's core clock.
    Kernel &_kernel;
    IrqController &_irq;
    Core &_hostCore;
    std::vector<NxpSide> _nxp;

    //! In-flight submitted calls by PID (node-stable container: chained
    //! events hold PIDs and look their exec state up on entry).
    std::map<int, TaskExec> _exec;
    //! Nodes of retired calls, kept with their call-frame buffers for
    //! the next admitted call: a steady stream of calls allocates
    //! neither a map node nor a frame stack.
    std::vector<std::map<int, TaskExec>::node_type> _spareExecs;

    bool _hostBusy = false;
    bool _hostKickScheduled = false;
    Addr _hostLoadedCr3 = 0;

    Tick _extraRoundTrip = 0;
    const std::uint64_t _nxpStackBytes;
    const bool _batching;        //!< h2d descriptor coalescing on/off.
    unsigned _batchMaxDescs = 0; //!< Largest burst shipped so far.
    const unsigned _retryBudget;
    const Tick _callDeadline;
    const bool _hostFallback;
    const unsigned _strikeLimit;
    ChaosController *const _chaos;
    Tracer *const _tracer;
    //! Placement policy; nullptr = the paper's link-time pinning.
    PlacementPolicy *const _policy;
    //! Residency counters for the policy view; nullptr = tracking off.
    ResidencyTracker *const _residency;
    //! Speculative dual execution; nullptr = feature off (DESIGN.md §16).
    SpeculationManager *const _spec;
    std::uint64_t _nextExecId = 0;
    bool _heartbeatArmed = false;
    //! The candidates of the current placement decision; reused so a
    //! decision allocates nothing.
    PlacementCandidates _cands;
    //! How to credit the straggler d2h return of a host-committed race
    //! to the cost model, keyed by (pid, pre-commit call id).
    struct SpecHarvest
    {
        Addr cr3 = 0;
        VAddr canonical = 0;
        unsigned device = 0;
        Tick t0 = 0;
    };
    std::map<std::pair<int, std::uint64_t>, SpecHarvest> _specHarvest;
    //! Function families, indexed by _familyOf.
    std::vector<TwinFamily> _families;
    //! (cr3, canonical or device-member va) -> its family's index.
    std::map<std::pair<Addr, VAddr>, std::size_t> _familyOf;
    StatGroup _stats;
    SplitCounters _protoStats{_stats, "%s_dev%u"};
    // Per-call and per-crossing counters, interned.
    StatGroup::Counter _callsSubmitted{_stats, "calls_submitted"};
    StatGroup::Counter _callsCompleted{_stats, "calls_completed"};
    StatGroup::Counter _hnhRoundtrips{_stats, "host_nxp_host_roundtrips"};
    StatGroup::Counter _hnhTicks{_stats, "host_nxp_host_ticks"};
    StatGroup::Counter _nhnRoundtrips{_stats, "nxp_host_nxp_roundtrips"};
    StatGroup::Counter _nhnTicks{_stats, "nxp_host_nxp_ticks"};
    StatGroup::Counter _nxpToHostCalls{_stats, "nxp_to_host_calls"};
    StatGroup::Counter _nxpToNxpCalls{_stats, "nxp_to_nxp_calls"};

    QosFrontDoor _qos;
};

} // namespace flick

#endif // FLICK_FLICK_RUNTIME_HH
