#include "policy.hh"

#include "policy_registry.hh"
#include "power/core_power.hh"
#include "util/logging.hh"

namespace psm::core
{

std::string
policyName(PolicyKind kind)
{
    return PolicyRegistry::instance().infoFor(kind).name;
}

bool
policyAppAware(PolicyKind kind)
{
    return PolicyRegistry::instance().infoFor(kind).caps.appAware;
}

bool
policyResAware(PolicyKind kind)
{
    return PolicyRegistry::instance().infoFor(kind).caps.resAware;
}

bool
policyUsesEsd(PolicyKind kind)
{
    return PolicyRegistry::instance().infoFor(kind).caps.usesEsd;
}

bool
policyRaplEnforced(PolicyKind kind)
{
    return PolicyRegistry::instance().infoFor(kind).caps.raplEnforced;
}

Watts
minFeasibleAppPower(const power::PlatformConfig &config)
{
    power::CorePowerModel cores(config);
    // One core at the lowest DVFS state, fully busy, plus the typical
    // per-app activation overhead and the channel background power.
    constexpr Watts typical_base = 2.0;
    return cores.corePower(config.freqMin, 1.0, 1) + typical_base +
           config.dramPowerMin;
}

} // namespace psm::core
