#include "sim/chaos.hh"

namespace flick
{

bool
ChaosController::draw(double rate, const char *counter)
{
    _stats.inc("rolls");
    if (_rng.real() >= rate)
        return false;
    _stats.inc(counter);
    _stats.inc("faults_injected");
    return true;
}

Tick
ChaosController::drawDelay(const char *tick_counter)
{
    Tick extra = _config.maxExtraDelay
                     ? 1 + _rng.below(_config.maxExtraDelay)
                     : 0;
    _stats.inc(tick_counter, extra);
    return extra;
}

std::uint64_t
ChaosController::faultsInjected() const
{
    return _stats.get("faults_injected");
}

} // namespace flick
