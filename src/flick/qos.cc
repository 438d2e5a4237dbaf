#include "flick/qos.hh"

#include "flick/runtime.hh"
#include "policy/policy.hh"

namespace flick
{

namespace
{

/** Per-reason shed counter key. */
const char *
shedStatKey(ShedReason reason)
{
    switch (reason) {
      case ShedReason::deadlineInfeasible:
        return "qos.shed.deadline_infeasible";
      case ShedReason::tenantOverBudget:
        return "qos.shed.tenant_over_budget";
      case ShedReason::queueFull:
        return "qos.shed.queue_full";
      case ShedReason::none:
        break;
    }
    panic("shed without a reason");
}

} // namespace

QosFrontDoor::QosFrontDoor(MigrationEngine &engine, const QosConfig &config,
                           bool arrival_trace)
    : _engine(engine), _cfg(config), _arrivalTraceOn(arrival_trace),
      _tenantStats(engine.stats(), "%s_cr3#%u")
{
}

unsigned
QosFrontDoor::registerTenant(Addr cr3)
{
    unsigned tenant = _tenants.tenantOf(cr3);
    if (_queues.size() <= tenant)
        _queues.resize(tenant + 1);
    return tenant;
}

unsigned
QosFrontDoor::effectiveTenantBudget() const
{
    unsigned budget = _cfg.tenantInFlight ? _cfg.tenantInFlight : 1;
    unsigned total = static_cast<unsigned>(_engine._nxp.size());
    if (!total)
        return budget;
    // Quarantined devices propagate their capacity loss into the
    // admission budget: the per-tenant budget shrinks with the alive
    // fraction of the fabric, but never below one so a degraded fabric
    // still drains.
    unsigned eff = budget * _engine.aliveDeviceCount() / total;
    return eff ? eff : 1;
}

Tick
QosFrontDoor::admissionEstimate(Addr cr3, VAddr entry, unsigned tenant) const
{
    // Per-call service estimate, most-informed source first: the
    // placement policy's learned EWMAs (the same model that steers
    // dispatch), this layer's own end-to-end entry model, then the
    // analytic single-crossing floor for never-seen callees.
    PlacementPolicy *policy = _engine._policy;
    Tick service = policy ? policy->estimateCall(cr3, entry) : 0;
    if (!service)
        service = _model.estimate(cr3, entry);
    if (!service)
        service = _engine.crossingCostEstimate();
    // Queueing delay: the tenant's own backlog (in-flight + queued
    // calls) serialized over the alive share of the fabric. Another
    // tenant's burst never inflates this estimate — its interference is
    // bounded by that tenant's own budget instead.
    unsigned alive = _engine.aliveDeviceCount();
    if (!alive)
        alive = 1;
    std::uint64_t ahead =
        _tenants.inFlight(tenant) + _tenants.queued(tenant);
    return service + service * ahead / alive;
}

bool
QosFrontDoor::infeasible(Tick abs_deadline, Tick estimate) const
{
    return abs_deadline && _cfg.deadlineAdmission &&
           _engine.now() + estimate > abs_deadline;
}

CallFuture
QosFrontDoor::submit(const CallRequest &req)
{
    Task &task = *req.task;
    unsigned tenant = registerTenant(task.cr3);
    _tenantStats.add("qos.submitted", tenant);

    // Deadline-aware admission: estimate this call's completion time
    // (shared cost model + the tenant's own backlog) and shed it now,
    // before it occupies a ring slot, if the deadline cannot be met.
    Tick estimate = admissionEstimate(task.cr3, req.entry, tenant);
    if (infeasible(req.deadline, estimate))
        return refuse(task, tenant, ShedReason::deadlineInfeasible, estimate);

    if (_tenants.inFlight(tenant) >= effectiveTenantBudget()) {
        // Queueing disabled: a strict budget, shed on the spot.
        if (_cfg.tenantQueueCap == 0)
            return refuse(task, tenant, ShedReason::tenantOverBudget,
                          estimate);
        if (_tenants.queued(tenant) >= _cfg.tenantQueueCap)
            return refuse(task, tenant, ShedReason::queueFull, estimate);
        // Over budget but the queue has room: park the call. Its future
        // is pending; weighted fair dequeue admits it when the tenant's
        // budget frees up (pump).
        auto state = std::make_shared<CallFutureState>();
        state->pid = task.pid;
        _queues[tenant].push_back({req, state});
        _queuedPid[task.pid] = tenant;
        _tenants.onEnqueue(tenant);
        _tenantStats.add("qos.queued", tenant);
        recordArrival(tenant, task.pid, QosArrival::Outcome::queued,
                      ShedReason::none, estimate);
        return CallFuture(std::move(state), &_engine);
    }

    _tenantStats.add("qos.admitted", tenant);
    recordArrival(tenant, task.pid, QosArrival::Outcome::admitted,
                  ShedReason::none, estimate);
    return _engine.admitCall(req, nullptr);
}

CallFuture
QosFrontDoor::refuse(Task &task, unsigned tenant, ShedReason reason,
                     Tick estimate)
{
    auto state = std::make_shared<CallFutureState>();
    state->pid = task.pid;
    shed(*state, tenant, QosArrival::Outcome::shed, reason, estimate);
    return CallFuture(std::move(state), &_engine);
}

void
QosFrontDoor::shed(CallFutureState &f, unsigned tenant,
                   QosArrival::Outcome outcome, ShedReason reason,
                   Tick estimate)
{
    _tenantStats.add("qos.shed", tenant);
    _tenantStats.add(shedStatKey(reason), tenant);
    recordArrival(tenant, f.pid, outcome, reason, estimate);
    f.value = 0;
    f.status = CallStatus::shedLoad;
    f.shedReason = reason;
    f.done = true;
}

void
QosFrontDoor::retire(unsigned tenant)
{
    _tenants.onRetire(tenant);
    pump();
}

void
QosFrontDoor::pump()
{
    for (;;) {
        unsigned budget = effectiveTenantBudget();
        int pick = _tenants.pick(
            [budget](unsigned) { return budget; },
            [this](unsigned t) { return _cfg.weight(t); },
            _cfg.agingDequeues);
        if (pick < 0)
            break;
        auto tenant = static_cast<unsigned>(pick);
        if (_tenants.lastPickAged())
            _tenantStats.add("qos.aged_picks", tenant);
        Pending p = std::move(_queues[tenant].front());
        _queues[tenant].pop_front();
        _queuedPid.erase(p.task->pid);
        _tenants.onDequeue(tenant);
        // Deadline feasibility again, now that queueing burned part of
        // the call's deadline budget.
        Tick estimate = admissionEstimate(p.task->cr3, p.entry, tenant);
        if (infeasible(p.deadline, estimate)) {
            shed(*p.future, tenant, QosArrival::Outcome::shedAtDequeue,
                 ShedReason::deadlineInfeasible, estimate);
            continue;
        }
        _tenants.charge(tenant);
        _tenantStats.add("qos.dequeued", tenant);
        recordArrival(tenant, p.task->pid, QosArrival::Outcome::dequeued,
                      ShedReason::none, estimate);
        // A submit-time placement hint can go stale while the call sits
        // in the queue (hot-page migration moved its data): re-vote the
        // majority holder of the argument pages at dequeue time and
        // re-point the hint when the data clearly lives elsewhere now.
        if (_engine._residency && p.placementHint >= 0) {
            int holder = _engine.residencyMajorityDevice(
                *p.task, MigrationEngine::argsOf(p));
            if (holder >= 0 && holder != p.placementHint) {
                _engine.protoStat("qos.hint_revotes",
                                  static_cast<unsigned>(holder));
                p.placementHint = holder;
            }
        }
        _engine.admitCall(p, std::move(p.future));
    }
}

bool
QosFrontDoor::cancelQueued(int pid)
{
    auto qit = _queuedPid.find(pid);
    if (qit == _queuedPid.end())
        return false;
    unsigned tenant = qit->second;
    auto &queue = _queues[tenant];
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->task->pid != pid)
            continue;
        it->future->value = 0;
        it->future->status = CallStatus::cancelled;
        it->future->done = true;
        _queuedPid.erase(qit);
        _tenants.onDequeue(tenant);
        _engine.stats().inc("calls_failed");
        _engine.stats().inc("cancellations");
        _tenantStats.add("qos.cancelled_queued", tenant);
        recordArrival(tenant, pid, QosArrival::Outcome::cancelledQueued,
                      ShedReason::none, 0);
        queue.erase(it);
        return true;
    }
    panic("queued call of pid %d missing from tenant %u's queue", pid,
          tenant);
}

void
QosFrontDoor::recordArrival(unsigned tenant, int pid,
                            QosArrival::Outcome outcome, ShedReason reason,
                            Tick estimate)
{
    if (!_arrivalTraceOn)
        return;
    _arrivals.push_back({_engine.now(), tenant, pid, outcome, reason,
                         estimate});
}

} // namespace flick
