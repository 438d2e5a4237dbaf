/**
 * @file
 * Profile-guided placement: an online EWMA cost model per function
 * (DESIGN.md §11).
 *
 * "A Magnified View into Heterogeneous-ISA Thread Migration
 * Performance" (PAPERS.md) shows migration profitability depends on
 * the workload; this policy measures it instead of assuming it. Every
 * completed host-originated call feeds its end-to-end latency back
 * into a per-function EWMA; once the model says the host twin would
 * have been cheaper — by a hysteresis margin — subsequent calls are
 * steered to host text instead of crossing, with periodic re-probes so
 * a device that drains can win the function back.
 */

#ifndef FLICK_POLICY_PROFILE_GUIDED_HH
#define FLICK_POLICY_PROFILE_GUIDED_HH

#include <map>
#include <optional>
#include <utility>

#include "policy/cost_model.hh"
#include "policy/policy.hh"

namespace flick
{

class ProfileGuidedPlacement final : public TwoSidedCostPolicy
{
  public:
    explicit ProfileGuidedPlacement(const PlacementConfig &config)
        : TwoSidedCostPolicy(config.ewmaShift), _cfg(config)
    {
    }

    /** The learned state for one function (exposed for tests/tools). */
    struct FnProfile
    {
        Tick deviceEwma = 0; //!< Crossing round trip, measured.
        Tick hostEwma = 0;   //!< Host-twin run incl. fault, measured.
        std::uint64_t deviceSamples = 0;
        std::uint64_t hostSamples = 0;
    };

    const char *name() const override { return "profile-guided"; }

    PlacementDecision place(const PlacementQuery &query,
                            const PlacementCandidates &cands,
                            const PlacementView &view) override;

    /** The model for (cr3, canonical), or nullopt if never seen. */
    std::optional<FnProfile> profile(Addr cr3, VAddr canonical) const;

  private:
    PlacementConfig _cfg;
    //! Host-steer decisions since the last device re-probe, keyed (cr3,
    //! canonical VA).
    std::map<std::pair<Addr, VAddr>, std::uint64_t> _steered;
};

} // namespace flick

#endif // FLICK_POLICY_PROFILE_GUIDED_HH
