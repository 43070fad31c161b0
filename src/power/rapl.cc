#include "rapl.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace psm::power
{

std::string
raplDomainName(RaplDomainId id)
{
    switch (id) {
      case RaplDomainId::Package0:
        return "package-0";
      case RaplDomainId::Package1:
        return "package-1";
      case RaplDomainId::Dram0:
        return "dram-0";
      case RaplDomainId::Dram1:
        return "dram-1";
      default:
        panic("invalid RAPL domain id %d", static_cast<int>(id));
    }
}

RaplDomain::RaplDomain(Tick window) : window(window)
{
    psm_assert(window > 0);
}

void
RaplDomain::recordEnergy(Watts power, Tick dt)
{
    psm_assert(power >= 0.0);
    if (dt == 0)
        return;

    // Advance the wrapping hardware counter in integer energy units,
    // carrying the sub-unit remainder so no energy is lost.
    double units = energyOver(power, dt) / jouleperUnit + unit_remainder;
    auto whole = static_cast<std::uint64_t>(units);
    unit_remainder = units - static_cast<double>(whole);
    std::uint64_t next = static_cast<std::uint64_t>(counter) + whole;
    wraps += next >> 32;
    counter = static_cast<std::uint32_t>(next & 0xffffffffULL);

    // Maintain the sliding enforcement window: trim from the oldest
    // sample, then drop the fully expired ones in one erase.
    samples.emplace_back(power, dt);
    samples_span += dt;
    samples_area += energyOver(power, dt);
    std::size_t expired = 0;
    while (samples_span > window && samples.size() - expired > 1) {
        auto &[p, d] = samples[expired];
        Tick excess = samples_span - window;
        if (d <= excess) {
            ++expired;
            samples_span -= d;
            samples_area -= energyOver(p, d);
        } else {
            d -= excess;
            samples_span -= excess;
            samples_area -= energyOver(p, excess);
            break;
        }
    }
    samples.erase(samples.begin(),
                  samples.begin() + static_cast<std::ptrdiff_t>(expired));

    if (limited) {
        // Integral enforcement: squeeze while over the limit, relax
        // gently while under it.
        Watts avg = windowAveragePower();
        if (avg > limit + 1e-9) {
            violation_time += dt;
            double ratio = std::clamp(limit / avg, 0.5, 1.0);
            enforce_ratio = std::max(enforce_ratio * ratio, 0.02);
        } else if (avg < limit * 0.95 && avg > 0.2) {
            // Relax only under active draw below the limit — an idle
            // (duty-cycled off) domain keeps its throttle state, so
            // the next ON burst does not start unthrottled.
            enforce_ratio =
                std::min(enforce_ratio * 1.02 + 0.001, 1.0);
        }
    }
}

Joules
RaplDomain::totalEnergy() const
{
    double total_units = static_cast<double>(wraps) * 4294967296.0 +
                         static_cast<double>(counter);
    return total_units * jouleperUnit;
}

void
RaplDomain::setPowerLimit(Watts new_limit)
{
    psm_assert(new_limit >= 0.0);
    limited = true;
    limit = new_limit;
}

void
RaplDomain::clearPowerLimit()
{
    limited = false;
    limit = 0.0;
    enforce_ratio = 1.0;
}

Watts
RaplDomain::windowAveragePower() const
{
    if (samples_span == 0)
        return 0.0;
    return samples_area / toSeconds(samples_span);
}

double
RaplDomain::throttleFactor() const
{
    if (!limited)
        return 1.0;
    return enforce_ratio;
}

RaplInterface::RaplInterface(Tick window)
{
    auto count = static_cast<std::size_t>(RaplDomainId::NumDomains);
    domains.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        domains.emplace_back(window);
}

RaplDomain &
RaplInterface::domain(RaplDomainId id)
{
    return domains.at(static_cast<std::size_t>(id));
}

const RaplDomain &
RaplInterface::domain(RaplDomainId id) const
{
    return domains.at(static_cast<std::size_t>(id));
}

void
RaplInterface::recordEnergy(RaplDomainId id, Watts power, Tick dt)
{
    domain(id).recordEnergy(power, dt);
}

Joules
RaplInterface::totalEnergy() const
{
    Joules sum = 0.0;
    for (const auto &d : domains)
        sum += d.totalEnergy();
    return sum;
}

Watts
RaplInterface::totalWindowPower() const
{
    Watts sum = 0.0;
    for (const auto &d : domains)
        sum += d.windowAveragePower();
    return sum;
}

} // namespace psm::power
