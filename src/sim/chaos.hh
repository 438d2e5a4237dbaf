/**
 * @file
 * Deterministic fault injection for the simulated fabric.
 *
 * Real PCIe links flip bits, lose MSIs and add jitter — and real
 * endpoints hang, crash and stall: the paper's protocol assumes none of
 * it ever happens. The ChaosController is the single source of injected
 * faults, fabric (corruption, lost/duplicated MSIs, latency) and
 * endpoint (wedged NxP cores, device death, stuck DMA engines) alike:
 * the DMA engines, the interrupt controller and the migration engine
 * consult it at well-defined points, and every decision is drawn from
 * one seeded PRNG so any failing run reproduces exactly from its seed.
 * With chaos disabled no PRNG draw ever happens and every
 * consultation is a constant "no", keeping the fault-free simulation
 * tick-for-tick identical to a build without the chaos layer.
 */

#ifndef FLICK_SIM_CHAOS_HH
#define FLICK_SIM_CHAOS_HH

#include <cstdint>

#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace flick
{

/**
 * Fault classes and rates of the chaos layer. All rates are
 * probabilities in [0, 1] evaluated independently per opportunity (per
 * DMA transfer, per interrupt).
 */
struct ChaosConfig
{
    /** Master switch; when false no fault is ever injected. */
    bool enabled = false;

    /** PRNG seed; one seed fully determines every injected fault. */
    std::uint64_t seed = 1;

    /** Probability a DMA burst lands with corrupted payload bytes. */
    double corruptRate = 0.0;

    /** Bits flipped per corruption event (1..corruptBits). */
    unsigned corruptBits = 4;

    /** Probability a device interrupt is silently dropped. */
    double dropIrqRate = 0.0;

    /** Probability a device interrupt is delivered twice. */
    double duplicateIrqRate = 0.0;

    /** Probability a DMA transfer or interrupt is delayed. */
    double delayRate = 0.0;

    /** Upper bound of the injected extra latency. */
    Tick maxExtraDelay = us(5);

    // --- Endpoint fault classes (the devices, not the fabric) ---------
    //
    // The fabric classes above are always recoverable: the hardened
    // protocol retransmits until the descriptor gets through. Endpoint
    // faults are not — a wedged core or a dead device never answers —
    // so they exercise the health watchdog, call-failure and
    // host-fallback paths instead of NAK/retransmit.

    /** Probability an NxP core wedges mid-segment (guest hang). */
    double wedgeNxpRate = 0.0;

    /** Instructions a wedging segment retires before hanging. */
    unsigned wedgeProgressInstructions = 16;

    /** Probability an NxP device dies at a descriptor pickup. */
    double deviceDeathRate = 0.0;

    /** Probability a DMA transfer sticks and never completes. */
    double stuckDmaRate = 0.0;
};

/**
 * Draws and counts fabric-fault decisions. One instance per simulated
 * machine, shared by every DMA engine and the interrupt controller, so
 * the draw sequence is a deterministic function of (seed, event order).
 */
class ChaosController
{
  public:
    explicit ChaosController(const ChaosConfig &config = {})
        : _config(config), _rng(config.seed), _stats("chaos")
    {}

    bool enabled() const { return _config.enabled; }
    const ChaosConfig &config() const { return _config; }
    std::uint64_t seed() const { return _config.seed; }

    /** Should this DMA burst land corrupted? */
    bool
    shouldCorruptDma()
    {
        return roll(_config.corruptRate, "dma_corruptions");
    }

    /** How many bits to flip in a corrupted burst (>= 1). */
    unsigned
    corruptBitCount()
    {
        unsigned max = _config.corruptBits ? _config.corruptBits : 1;
        return 1 + static_cast<unsigned>(_rng.below(max));
    }

    /** Uniform value in [0, bound); for picking corruption sites. */
    std::uint64_t pick(std::uint64_t bound) { return _rng.below(bound); }

    /** Should this interrupt be dropped? */
    bool
    shouldDropIrq()
    {
        return roll(_config.dropIrqRate, "irqs_dropped");
    }

    /** Should this interrupt be delivered twice? */
    bool
    shouldDuplicateIrq()
    {
        return roll(_config.duplicateIrqRate, "irqs_duplicated");
    }

    /** Extra latency for this DMA transfer (0 when none injected). */
    Tick
    extraDmaDelay()
    {
        return extraDelay("dma_delays", "dma_delay_ticks");
    }

    /** Extra latency for this interrupt delivery (0 when none). */
    Tick
    extraIrqDelay()
    {
        return extraDelay("irq_delays", "irq_delay_ticks");
    }

    /** Any endpoint fault class configured to fire? The migration
     *  engine arms its device-health heartbeat only when this is true
     *  (or a call deadline is set), keeping the fault-free event stream
     *  untouched. */
    bool
    endpointFaultsEnabled() const
    {
        return _config.enabled &&
               (_config.wedgeNxpRate > 0.0 ||
                _config.deviceDeathRate > 0.0 ||
                _config.stuckDmaRate > 0.0);
    }

    /** Should this NxP segment wedge (hang forever mid-function)? */
    bool
    shouldWedgeNxpCore()
    {
        return roll(_config.wedgeNxpRate, "nxp_wedges");
    }

    /** Instructions the wedging segment retires before hanging. */
    unsigned
    wedgeProgress() const
    {
        return _config.wedgeProgressInstructions;
    }

    /** Should this descriptor pickup kill the device outright? */
    bool
    shouldKillNxpDevice()
    {
        return roll(_config.deviceDeathRate, "device_deaths");
    }

    /** Should this DMA transfer stick and never complete? */
    bool
    shouldStickDma()
    {
        return roll(_config.stuckDmaRate, "stuck_dmas");
    }

    /** Total faults injected across every class. */
    std::uint64_t faultsInjected() const;

    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

  private:
    /** One Bernoulli draw; never draws when chaos is disabled. The
     *  disabled check is inline: fault-free runs consult the
     *  controller many times per crossing. */
    bool
    roll(double rate, const char *counter)
    {
        if (!_config.enabled || rate <= 0.0)
            return false;
        return draw(rate, counter);
    }

    /** roll() past the disabled check. */
    bool draw(double rate, const char *counter);

    Tick
    extraDelay(const char *counter, const char *tick_counter)
    {
        if (!roll(_config.delayRate, counter))
            return 0;
        return drawDelay(tick_counter);
    }

    /** The injected delay of an extraDelay() roll that fired. */
    Tick drawDelay(const char *tick_counter);

    ChaosConfig _config;
    Rng _rng;
    StatGroup _stats;
};

} // namespace flick

#endif // FLICK_SIM_CHAOS_HH
