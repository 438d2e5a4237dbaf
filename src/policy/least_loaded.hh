/**
 * @file
 * Queue-depth-aware balancing across NxP devices (DESIGN.md §11).
 */

#ifndef FLICK_POLICY_LEAST_LOADED_HH
#define FLICK_POLICY_LEAST_LOADED_HH

#include "policy/policy.hh"

namespace flick
{

/**
 * True if the engine would accept device @p d for @p query: it has a
 * copy of the text, is not quarantined, and is not the call's own
 * originating device.
 */
bool eligibleDevice(unsigned d, const PlacementQuery &query,
                    const PlacementCandidates &cands,
                    const PlacementView &view);

/**
 * Pick the least-loaded eligible device for @p query, or -1 when no
 * candidate device is eligible (all quarantined or without text). Ties
 * break toward the home device, then the lowest device id — a total
 * order, so the choice is deterministic. Shared by all three shipped
 * policies.
 */
int pickLeastLoaded(const PlacementQuery &query,
                    const PlacementCandidates &cands,
                    const PlacementView &view);

/**
 * Balance calls across the NxPs by instantaneous queue depth
 * (ring occupancy + deferred descriptors + running segment), skipping
 * quarantined devices. Never steers a call to host text.
 */
class LeastLoadedPlacement final : public PlacementPolicy
{
  public:
    const char *name() const override { return "least-loaded"; }

    PlacementDecision place(const PlacementQuery &query,
                            const PlacementCandidates &cands,
                            const PlacementView &view) override;
};

} // namespace flick

#endif // FLICK_POLICY_LEAST_LOADED_HH
