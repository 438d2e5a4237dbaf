#include "policy/profile_guided.hh"

#include "policy/least_loaded.hh"

namespace flick
{

PlacementDecision
ProfileGuidedPlacement::place(const PlacementQuery &query,
                              const PlacementCandidates &cands,
                              const PlacementView &view)
{
    int dev = pickLeastLoaded(query, cands, view);
    if (dev < 0) {
        // No eligible device. Use the host twin when there is one;
        // otherwise hand home back for the engine's failover machinery.
        if (cands.hostVa && !query.fromDevice)
            return {true, query.home};
        return {false, query.home};
    }
    auto device = static_cast<unsigned>(dev);

    // Host-steering is weighed for host-originated calls only: a
    // device-originated call already has state parked on its caller's
    // core, and its host leg is the relay path, not a placement choice.
    if (query.fromDevice || !cands.hostVa)
        return {false, device};

    // From here on both sides are genuine candidates, so an unmodeled
    // function is a coin flip: report zero confidence and let the
    // speculation layer race the sides if it is enabled.
    auto m = profile(query.cr3, query.canonical);
    if (!m || m->deviceSamples < _cfg.minDeviceSamples)
        return {false, device, 0};

    Tick device_cost = m->deviceEwma;
    Tick host_cost;
    if (m->hostSamples > 0) {
        host_cost = m->hostEwma;
    } else {
        // No host measurement yet: estimate from the device round trip.
        // Subtracting the analytic crossing overhead leaves the callee's
        // NxP execution time; both cores retire one op per cycle, so the
        // host would run the same instructions hostSpeedup() times
        // faster — plus the fixed fault-service cost steering keeps.
        // (A memory-bound callee breaks the scaling assumption; the
        // first steered call measures the truth and corrects the model.)
        Tick crossing = view.crossingEstimate();
        Tick exec = device_cost > crossing ? device_cost - crossing : 0;
        unsigned speedup = view.hostSpeedup() ? view.hostSpeedup() : 1;
        host_cost = view.steerOverhead() + exec / speedup;
    }

    // Confidence: the relative margin between the two cost estimates.
    // A near-tie (either side could win) reports close to zero; a
    // lopsided model reports close to 100.
    Tick lo = host_cost < device_cost ? host_cost : device_cost;
    Tick hi = host_cost < device_cost ? device_cost : host_cost;
    Tick margin = (hi - lo) * 100 / (lo ? lo : 1);
    auto confidence =
        static_cast<unsigned>(margin > 100 ? 100 : margin);

    // Hysteresis: the host must win by the configured margin.
    if (host_cost + host_cost * _cfg.steerMarginPct / 100 >= device_cost)
        return {false, device, confidence};

    // Steered — but every reprobeInterval-th decision still crosses so
    // the device-side EWMA stays fresh: a reprobe is deliberately
    // resampling the unchosen side, i.e. the model wants fresh data —
    // zero confidence invites speculation to hide the probe's cost.
    std::uint64_t steered = ++_steered[{query.cr3, query.canonical}];
    if (_cfg.reprobeInterval && steered % _cfg.reprobeInterval == 0)
        return {false, device, 0};
    return {true, device, confidence};
}

std::optional<ProfileGuidedPlacement::FnProfile>
ProfileGuidedPlacement::profile(Addr cr3, VAddr canonical) const
{
    FnProfile m;
    m.deviceSamples = _deviceModel.samples(cr3, canonical);
    m.hostSamples = _hostModel.samples(cr3, canonical);
    if (m.deviceSamples == 0 && m.hostSamples == 0)
        return std::nullopt;
    m.deviceEwma = _deviceModel.estimate(cr3, canonical);
    m.hostEwma = _hostModel.estimate(cr3, canonical);
    return m;
}

} // namespace flick
