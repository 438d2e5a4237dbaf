#include "policy/least_loaded.hh"

namespace flick
{

bool
eligibleDevice(unsigned d, const PlacementQuery &query,
               const PlacementCandidates &cands, const PlacementView &view)
{
    if (d >= cands.deviceVa.size() || !cands.deviceVa[d])
        return false;
    if (query.fromDevice && d == query.callerDevice)
        return false;
    return !view.load(d).quarantined;
}

int
pickLeastLoaded(const PlacementQuery &query,
                const PlacementCandidates &cands,
                const PlacementView &view)
{
    int best = -1;
    unsigned best_depth = 0;
    unsigned devices = view.deviceCount();
    for (unsigned d = 0; d < devices; ++d) {
        if (!eligibleDevice(d, query, cands, view))
            continue;
        DeviceLoad l = view.load(d);
        if (best >= 0) {
            if (l.depth > best_depth)
                continue;
            if (l.depth == best_depth) {
                // Tie: prefer the home device (warm I-cache, the
                // paper's placement), then the lowest id.
                if (static_cast<unsigned>(best) == query.home ||
                    d != query.home)
                    continue;
            }
        }
        best = static_cast<int>(d);
        best_depth = l.depth;
    }
    return best;
}

PlacementDecision
LeastLoadedPlacement::place(const PlacementQuery &query,
                            const PlacementCandidates &cands,
                            const PlacementView &view)
{
    int d = pickLeastLoaded(query, cands, view);
    if (d < 0) {
        // Nothing eligible: hand the home placement back and let the
        // engine's quarantine/failover machinery deal with it.
        return {false, query.home};
    }
    return {false, static_cast<unsigned>(d)};
}

} // namespace flick
