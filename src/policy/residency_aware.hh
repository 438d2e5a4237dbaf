/**
 * @file
 * Data-residency-aware placement (DESIGN.md §15).
 *
 * The paper's Fig. 5 crossover (~32 accesses per migration) is about
 * where the data lives: a call whose working set sits in NxP k's DRAM
 * pays one local access per load when it runs on device k, and a
 * bridge/peer crossing per load anywhere else. This policy looks at
 * the call's argument registers, asks the residency map (the per-page
 * access counters of DESIGN.md §15) which DRAM holds the pages they
 * point at, and steers the call to the majority holder — falling back
 * to queue-depth balancing when the arguments carry no residency
 * signal, and composing with the shared EWMA cost model so a measured
 * latency can veto data gravity.
 */

#ifndef FLICK_POLICY_RESIDENCY_AWARE_HH
#define FLICK_POLICY_RESIDENCY_AWARE_HH

#include <span>
#include <vector>

#include "policy/cost_model.hh"
#include "policy/policy.hh"

namespace flick
{

/** The access-weighted page vote over a call's argument pages. */
struct PageVotes
{
    std::uint64_t host = 0;           //!< Votes for host DRAM.
    std::vector<std::uint64_t> device; //!< Votes per device.
    std::uint64_t total = 0;          //!< Every vote cast.
};

/**
 * Tally the vote over the distinct pages (at most eight) that @p args
 * point at in address space @p cr3. Values below one page are
 * lengths/flags, not pointers; the rest are asked for their residency.
 * A mapped page votes for its holder with weight 1 + its holder's
 * access count, so a page that is merely *placed* somewhere still has a
 * voice before any counter ticks (cold-start steering), while hot pages
 * dominate. Each caller applies its own eligibility, tie-break and
 * majority threshold to the tally.
 */
PageVotes tallyPageVotes(Addr cr3, std::span<const std::uint64_t> args,
                         const PlacementView &view);

class ResidencyAwarePlacement final : public TwoSidedCostPolicy
{
  public:
    explicit ResidencyAwarePlacement(const PlacementConfig &config)
        : TwoSidedCostPolicy(config.ewmaShift), _cfg(config)
    {
    }

    const char *name() const override { return "residency-aware"; }

    PlacementDecision place(const PlacementQuery &query,
                            const PlacementCandidates &cands,
                            const PlacementView &view) override;

  private:
    PlacementConfig _cfg;
};

} // namespace flick

#endif // FLICK_POLICY_RESIDENCY_AWARE_HH
