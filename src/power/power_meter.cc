#include "power_meter.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace psm::power
{

void
PowerMeter::push(Tick dt, Watts power, Watts cap)
{
    if (dt == 0)
        return;

    // A real sensor occasionally returns garbage (NaN, negative
    // counter wrap).  Substitute the last accepted sample rather than
    // poison every downstream aggregate; droppedSamples() exposes how
    // often this happened.
    if (!std::isfinite(power) || power < 0.0) {
        ++dropped;
        power = last_good;
    }
    last_good = power;

    stats.push(power, dt);

    if (cap > 0.0 && power > cap + 1e-9) {
        violation_time += dt;
        worst_overshoot = std::max(worst_overshoot, power - cap);
        violation_energy += energyOver(power - cap, dt);
    }
}

void
PowerMeter::reset()
{
    stats.reset();
    violation_time = 0;
    worst_overshoot = 0.0;
    violation_energy = 0.0;
    last_good = 0.0;
    dropped = 0;
}

double
PowerMeter::violationFraction() const
{
    if (stats.duration() == 0)
        return 0.0;
    return static_cast<double>(violation_time) /
           static_cast<double>(stats.duration());
}

} // namespace psm::power
