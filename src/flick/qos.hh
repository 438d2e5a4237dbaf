/**
 * @file
 * Multi-tenant QoS and overload protection (DESIGN.md §14).
 *
 * Each loaded process (address space, keyed by its cr3) is a tenant.
 * With QoS enabled, submit() becomes a guarded front door in front of
 * the migration engine:
 *
 *   - a deadline-aware admission test estimates the call's completion
 *     time (policy EWMAs / the QoS cost model / the analytic crossing
 *     floor, plus the tenant's backlog) and sheds calls that cannot
 *     meet their deadline before they occupy ring slots;
 *   - each tenant has an in-flight budget (scaled down when devices are
 *     quarantined — capacity loss propagates into admission); calls
 *     over budget wait in the tenant's bounded submission queue;
 *   - freed capacity is handed out by weighted fair dequeue across the
 *     tenant queues, so a bursty tenant cannot starve a well-behaved
 *     one.
 *
 * Every refusal completes the future immediately with
 * CallStatus::shedLoad and a ShedReason, without allocating a call
 * frame, touching a descriptor ring or scheduling an event. With QoS
 * disabled (the default) none of this code runs and every workload is
 * tick-for-tick identical to a build without the subsystem
 * (tests/qos_test.cpp asserts it).
 */

#ifndef FLICK_FLICK_QOS_HH
#define FLICK_FLICK_QOS_HH

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "flick/call_future.hh"
#include "flick/descriptor.hh"
#include "mem/sparse_memory.hh"
#include "policy/cost_model.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace flick
{

/**
 * Tunables of the multi-tenant QoS layer (SystemConfig::withQos).
 */
struct QosConfig
{
    /** Master switch; off means zero overhead and tick-identity. */
    bool enabled = false;
    /**
     * Per-tenant in-flight budget: calls admitted into the engine but
     * not yet completed. A tenant at its budget queues (or sheds, see
     * tenantQueueCap) instead of admitting more. Quarantined devices
     * shrink the effective budget proportionally to the capacity lost.
     */
    unsigned tenantInFlight = 4;
    /**
     * Pending slots in each tenant's submission queue. An over-budget
     * arrival finding the queue full is shed with ShedReason::queueFull;
     * 0 disables queueing entirely, so every over-budget arrival is
     * shed immediately with ShedReason::tenantOverBudget.
     */
    unsigned tenantQueueCap = 16;
    /**
     * Shed calls whose estimated completion time misses their deadline
     * at admission time (and re-check at dequeue). Only calls that
     * carry a deadline (per-call or SystemConfig::callDeadline) are
     * tested; deadline-less calls always pass.
     */
    bool deadlineAdmission = true;
    /**
     * Weighted-fair-dequeue weight per tenant, indexed by tenant id
     * (the order processes were loaded). Absent / zero entries default
     * to weight 1. A tenant with weight w receives w shares of freed
     * capacity per share a weight-1 tenant receives.
     */
    std::vector<unsigned> tenantWeights;
    /**
     * Starvation bound: an eligible tenant (queued work, under budget)
     * passed over this many consecutive served dequeues is picked next
     * regardless of its weighted-fair virtual time, so every queued
     * tenant is served within a bounded number of dequeues even while
     * fresh low-virtual-time tenants keep arriving. 0 disables aging
     * (pure WFQ, unbounded worst-case wait).
     */
    unsigned agingDequeues = 64;

    /** Weight of @p tenant (defaulting absent/zero entries to 1). */
    unsigned
    weight(unsigned tenant) const
    {
        if (tenant < tenantWeights.size() && tenantWeights[tenant])
            return tenantWeights[tenant];
        return 1;
    }

    /** Set @p tenant's weight (growing the table as needed). */
    QosConfig &
    setWeight(unsigned tenant, unsigned w)
    {
        if (tenantWeights.size() <= tenant)
            tenantWeights.resize(tenant + 1, 0);
        tenantWeights[tenant] = w;
        return *this;
    }
};

/**
 * One recorded QoS front-door decision (SystemConfig::withArrivalTrace).
 * Passive debug instrumentation: recording perturbs nothing.
 */
struct QosArrival
{
    /** What the front door (or a later dequeue) decided. */
    enum class Outcome : std::uint8_t
    {
        admitted, //!< Entered the engine at submit time.
        queued,   //!< Parked in the tenant's submission queue.
        shed,     //!< Refused at submit time (see reason).
        dequeued, //!< Left the queue and entered the engine.
        shedAtDequeue, //!< Refused at dequeue (deadline now infeasible).
        cancelledQueued, //!< cancel() removed it from the queue.
    };

    Tick when = 0;
    unsigned tenant = 0;
    int pid = 0;
    Outcome outcome = Outcome::admitted;
    ShedReason reason = ShedReason::none;
    /** Completion-time estimate at decision time (admission test). */
    Tick estimate = 0;
};

/**
 * Tenant registry, in-flight accounting and the weighted-fair pick.
 *
 * Owned by the QosFrontDoor, which keeps the queued calls themselves
 * and asks the scheduler which tenant's queue to serve next. Fairness
 * is start-time weighted fair queuing over served call counts: the
 * eligible tenant with the smallest served/weight virtual time wins,
 * ties broken by tenant id, so the dequeue order is deterministic.
 */
class TenantScheduler
{
  public:
    /** Tenant id of @p cr3, registering it on first sight. */
    unsigned
    tenantOf(Addr cr3)
    {
        auto it = _index.find(cr3);
        if (it != _index.end())
            return it->second;
        unsigned id = static_cast<unsigned>(_tenants.size());
        _index.emplace(cr3, id);
        _tenants.emplace_back();
        return id;
    }

    unsigned inFlight(unsigned t) const { return _tenants[t].inFlight; }
    unsigned queued(unsigned t) const { return _tenants[t].queued; }

    /** A call of @p tenant entered the engine. */
    void onAdmit(unsigned tenant) { ++_tenants[tenant].inFlight; }

    /** A call of @p tenant completed or failed inside the engine. */
    void
    onRetire(unsigned tenant)
    {
        if (_tenants[tenant].inFlight)
            --_tenants[tenant].inFlight;
    }

    void onEnqueue(unsigned tenant) { ++_tenants[tenant].queued; }

    /** A queued call of @p tenant left the queue (any outcome). */
    void
    onDequeue(unsigned tenant)
    {
        Tenant &t = _tenants[tenant];
        if (t.queued)
            --t.queued;
    }

    /**
     * Charge one served dequeue to @p tenant's weighted-fair virtual
     * time. Only dequeues that actually admit a call are charged —
     * a cancel or a dequeue-time shed does not consume the tenant's
     * share.
     */
    void charge(unsigned tenant) { ++_tenants[tenant].served; }

    /**
     * The weighted-fair choice: among tenants with queued work whose
     * in-flight count is under @p budget_of(tenant), the one with the
     * smallest served/weight virtual time (ties to the lower id);
     * -1 when no tenant is eligible.
     *
     * Aging (@p aging_dequeues > 0) bounds the worst-case wait: every
     * successful pick increments the eligible tenants it passed over,
     * and a tenant whose counter reaches the bound preempts the
     * virtual-time order on the next pick (largest counter wins, ties
     * to the lower id). Pure WFQ can starve a high-virtual-time tenant
     * indefinitely while fresh tenants keep arriving with served == 0;
     * with aging, an eligible tenant is served within aging_dequeues + 1
     * dequeues of becoming eligible (tests/qos_test.cpp asserts it).
     */
    template <typename BudgetFn, typename WeightFn>
    int
    pick(BudgetFn budget_of, WeightFn weight_of,
         unsigned aging_dequeues = 0)
    {
        int best = -1;
        int starved = -1;
        _lastPickAged = false;
        for (unsigned t = 0; t < _tenants.size(); ++t) {
            const Tenant &c = _tenants[t];
            if (!c.queued || c.inFlight >= budget_of(t))
                continue;
            if (aging_dequeues && c.waiting >= aging_dequeues &&
                (starved < 0 ||
                 c.waiting > _tenants[static_cast<unsigned>(starved)].waiting))
                starved = static_cast<int>(t);
            if (best < 0) {
                best = static_cast<int>(t);
                continue;
            }
            // c wins if c.served/c.weight < best.served/best.weight,
            // cross-multiplied to stay in integers.
            const Tenant &b = _tenants[static_cast<unsigned>(best)];
            std::uint64_t lhs = c.served * weight_of(static_cast<unsigned>(best));
            std::uint64_t rhs = b.served * weight_of(t);
            if (lhs < rhs)
                best = static_cast<int>(t);
        }
        if (starved >= 0 && starved != best) {
            best = starved;
            _lastPickAged = true;
        } else if (starved >= 0) {
            // The starved tenant won on virtual time anyway; its
            // counter still resets below.
            _lastPickAged = true;
        }
        if (best >= 0) {
            for (unsigned t = 0; t < _tenants.size(); ++t) {
                Tenant &c = _tenants[t];
                if (static_cast<int>(t) == best) {
                    c.waiting = 0;
                    continue;
                }
                if (c.queued && c.inFlight < budget_of(t))
                    ++c.waiting;
            }
        }
        return best;
    }

    /** Did the last successful pick() come from aging preemption? */
    bool lastPickAged() const { return _lastPickAged; }

  private:
    struct Tenant
    {
        unsigned inFlight = 0; //!< Admitted into the engine, not retired.
        unsigned queued = 0;   //!< Waiting in the submission queue.
        std::uint64_t served = 0; //!< Dequeues charged (WFQ virtual time).
        //! Served picks this eligible tenant was passed over (aging).
        unsigned waiting = 0;
    };

    std::vector<Tenant> _tenants;
    std::map<Addr, unsigned> _index;
    bool _lastPickAged = false;
};

class MigrationEngine;
struct Task;

/**
 * What a submitted call asks for: the thread, its entry function and
 * arguments, the host stack and the per-call knobs. The QoS front door
 * queues it as is; admission makes it the head of the call's record.
 */
struct CallRequest
{
    Task *task = nullptr;
    VAddr entry = 0;
    std::uint32_t nargs = 0;
    std::array<std::uint64_t, MigrationDescriptor::maxArgs> args{};
    VAddr stackTop = 0;
    //! Absolute completion deadline, fixed at submit time (queueing
    //! burns it); 0 = none.
    Tick deadline = 0;
    //! One-shot device preference, consumed by the call's first
    //! placement decision; -1 = none.
    int placementHint = -1;
};

/**
 * The QoS front door: everything submit() does for a tenant before a
 * call enters the engine — tenant queues, the admission estimate, the
 * shed / queue / admit decision, the weighted-fair pump, the cancel of
 * a queued call and the arrival trace — plus what a retiring call
 * gives back. Owned by the MigrationEngine and called directly, only
 * while QosConfig::enabled is set; admitting a call into the engine
 * and core ownership stay with the engine.
 */
class QosFrontDoor
{
  public:
    QosFrontDoor(MigrationEngine &engine, const QosConfig &config,
                 bool arrival_trace);

    /** QosConfig::enabled: submit() goes through the front door. */
    bool enabled() const { return _cfg.enabled; }

    /**
     * Register @p cr3 as a tenant (idempotent), assigning tenant ids in
     * registration order — FlickSystem::load() calls this per process,
     * so tenant k is the k-th loaded process and the per-tenant counter
     * suffix "_cr3#k" is stable across runs.
     */
    unsigned registerTenant(Addr cr3);

    /** Calls of @p tenant waiting in its submission queue. */
    unsigned queued(unsigned tenant) const { return _tenants.queued(tenant); }

    /** Does @p pid have a call parked in a tenant queue? */
    bool holds(int pid) const { return _queuedPid.count(pid) != 0; }

    /**
     * The per-tenant in-flight budget after capacity-loss scaling:
     * QosConfig::tenantInFlight times the alive fraction of the fabric
     * (a quarantined device shrinks every tenant's budget), never below
     * one.
     */
    unsigned effectiveTenantBudget() const;

    /** The recorded front-door decisions (SystemConfig::arrivalTrace). */
    const std::vector<QosArrival> &arrivalTrace() const { return _arrivals; }

    /** Admit @p req into the engine, park it in its tenant's queue, or
     *  shed it on the spot. */
    CallFuture submit(const CallRequest &req);

    /** A call by @p cr3 entered the engine: charge its tenant's
     *  in-flight budget and return the tenant id. */
    unsigned
    admit(Addr cr3)
    {
        unsigned tenant = registerTenant(cr3);
        _tenants.onAdmit(tenant);
        return tenant;
    }

    /** A call to @p entry completed @p latency after admission: the
     *  admission estimator's end-to-end sample. */
    void
    recordService(Addr cr3, VAddr entry, Tick latency)
    {
        _model.record(cr3, entry, latency);
    }

    /**
     * A call of @p tenant left the engine (completed or failed): give
     * its budget slot back and hand the freed capacity to the queues.
     */
    void retire(unsigned tenant);

    /** Cancel @p pid's queued call; false if it has none queued. */
    bool cancelQueued(int pid);

  private:
    /** One call parked in a tenant's submission queue. */
    struct Pending : CallRequest
    {
        std::shared_ptr<CallFutureState> future;
    };

    /**
     * The admission test's completion-time estimate for a call by
     * @p cr3 to @p entry: the per-call service estimate (placement
     * policy EWMAs, then this layer's own end-to-end model, then the
     * analytic crossing floor) plus the tenant's own backlog serialized
     * over the alive share of the fabric. Pure and side-effect free.
     */
    Tick admissionEstimate(Addr cr3, VAddr entry, unsigned tenant) const;

    /** Does a deadline of @p abs_deadline miss the admission estimate? */
    bool infeasible(Tick abs_deadline, Tick estimate) const;

    /**
     * Refuse @p task's call on the spot: the returned future is done
     * with CallStatus::shedLoad and @p reason. Never allocates a call
     * frame, touches a ring staging slot or schedules an event — the
     * future is the only thing created (asserted by tests/qos_test.cpp).
     */
    CallFuture refuse(Task &task, unsigned tenant, ShedReason reason,
                      Tick estimate);

    /** Count a refusal (@p outcome, @p reason), record it in the arrival
     *  trace and complete the call's future @p f as shed. */
    void shed(CallFutureState &f, unsigned tenant,
              QosArrival::Outcome outcome, ShedReason reason, Tick estimate);

    /**
     * Hand freed capacity to the tenant queues: weighted-fair dequeue
     * while any tenant with queued work is under its effective budget.
     * Re-checks deadline feasibility with the time burned queueing.
     */
    void pump();

    /** Record a front-door decision when the arrival trace is on. */
    void recordArrival(unsigned tenant, int pid, QosArrival::Outcome outcome,
                       ShedReason reason, Tick estimate);

    MigrationEngine &_engine;
    const QosConfig _cfg;
    const bool _arrivalTraceOn;
    TenantScheduler _tenants;
    //! Per-tenant submission queues, indexed by tenant id.
    std::vector<std::deque<Pending>> _queues;
    //! pid -> tenant of every queued call (submit guard, cancel path).
    std::map<int, unsigned> _queuedPid;
    //! End-to-end entry-latency EWMAs (the admission fallback model).
    CallCostModel _model;
    std::vector<QosArrival> _arrivals;
    //! Per-tenant (_cr3#k) splits of the engine's QoS counters.
    SplitCounters _tenantStats;
};

} // namespace flick

#endif // FLICK_FLICK_QOS_HH
