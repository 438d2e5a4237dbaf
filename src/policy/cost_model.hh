/**
 * @file
 * The shared call-cost model (DESIGN.md §11, §14).
 *
 * One integer-EWMA latency model per (address space, function) pair,
 * used from two sides of the engine:
 *
 *   - The placement policies that weigh crossing against the host twin
 *     (TwoSidedCostPolicy) keep one model per side — device round trips
 *     and host-twin runs — with the same update rule the admission
 *     layer uses, so a latency both subsystems observe moves both
 *     estimates identically.
 *   - The QoS admission test (DESIGN.md §14) keeps a CallCostModel of
 *     end-to-end entry latencies: when the placement policy has no
 *     learned estimate for a callee, admission falls back to this model
 *     before resorting to the analytic crossingCostEstimate() floor.
 *
 * Like the placement policies, the model is deterministic and
 * side-effect free: record() and estimate() never allocate simulated
 * resources, never schedule events and never draw randomness.
 */

#ifndef FLICK_POLICY_COST_MODEL_HH
#define FLICK_POLICY_COST_MODEL_HH

#include <cstdint>
#include <map>
#include <utility>

#include "mem/sparse_memory.hh"
#include "policy/policy.hh"
#include "sim/ticks.hh"
#include "vm/pte.hh"

namespace flick
{

/**
 * Per-(cr3, va) latency EWMA store.
 */
class CallCostModel
{
  public:
    explicit CallCostModel(unsigned ewma_shift = 3)
        : _shift(ewma_shift)
    {
    }

    /**
     * The shared EWMA step: avg += (sample - avg) / 2^shift, in signed
     * integer arithmetic so the estimate converges from either side.
     * A zero @p avg (never seen) adopts the sample outright.
     */
    static Tick
    blend(Tick avg, Tick sample, unsigned shift)
    {
        if (avg == 0)
            return sample;
        std::int64_t delta = static_cast<std::int64_t>(sample) -
                             static_cast<std::int64_t>(avg);
        return static_cast<Tick>(static_cast<std::int64_t>(avg) +
                                 (delta >> shift));
    }

    /** Fold one measured latency for (cr3, va) into the model. */
    void
    record(Addr cr3, VAddr va, Tick latency)
    {
        Entry &e = _model[{cr3, va}];
        e.ewma = blend(e.ewma, latency, _shift);
        ++e.samples;
    }

    /** Learned latency estimate for (cr3, va); 0 = never seen. */
    Tick
    estimate(Addr cr3, VAddr va) const
    {
        auto it = _model.find({cr3, va});
        return it == _model.end() ? 0 : it->second.ewma;
    }

    /** Number of samples folded in for (cr3, va). */
    std::uint64_t
    samples(Addr cr3, VAddr va) const
    {
        auto it = _model.find({cr3, va});
        return it == _model.end() ? 0 : it->second.samples;
    }

    /** Number of (cr3, va) pairs with learned state. */
    std::size_t size() const { return _model.size(); }

    /** The configured EWMA shift (alpha = 1 / 2^shift). */
    unsigned ewmaShift() const { return _shift; }

  private:
    struct Entry
    {
        Tick ewma = 0;
        std::uint64_t samples = 0;
    };

    unsigned _shift;
    //! std::map for deterministic iteration in tests and tools.
    std::map<std::pair<Addr, VAddr>, Entry> _model;
};

/**
 * Base of the placement policies that learn both sides of the choice
 * (ProfileGuidedPlacement, ResidencyAwarePlacement): every completed
 * call feeds its end-to-end latency into its function's device or host
 * model.
 */
class TwoSidedCostPolicy : public PlacementPolicy
{
  public:
    explicit TwoSidedCostPolicy(unsigned ewma_shift)
        : _deviceModel(ewma_shift), _hostModel(ewma_shift)
    {
    }

    bool wantsFeedback() const override { return true; }

    void
    recordDeviceCall(Addr cr3, VAddr canonical, unsigned,
                     Tick latency) override
    {
        _deviceModel.record(cr3, canonical, latency);
    }

    void
    recordHostCall(Addr cr3, VAddr canonical, Tick latency) override
    {
        _hostModel.record(cr3, canonical, latency);
    }

    /**
     * Admission feedback (DESIGN.md §14): the cheaper of the measured
     * sides — the cost place() would actually choose — so the QoS
     * shedding predicate and placement share one model.
     */
    Tick
    estimateCall(Addr cr3, VAddr canonical) const override
    {
        Tick dev = _deviceModel.estimate(cr3, canonical);
        Tick host = _hostModel.estimate(cr3, canonical);
        if (dev && host)
            return dev < host ? dev : host;
        return dev ? dev : host;
    }

  protected:
    CallCostModel _deviceModel; //!< Crossing round trips, measured.
    CallCostModel _hostModel;   //!< Host-twin runs incl. fault, measured.
};

} // namespace flick

#endif // FLICK_POLICY_COST_MODEL_HH
