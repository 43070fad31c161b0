#include "fault.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"

namespace psm::util
{

std::string
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::MeterStale:
        return "meter_stale";
      case FaultKind::MeterNan:
        return "meter_nan";
      case FaultKind::EsdLoss:
        return "esd_loss";
      case FaultKind::EsdFade:
        return "esd_fade";
      case FaultKind::ActuationStuck:
        return "actuation_stuck";
      case FaultKind::NodeCrash:
        return "node_crash";
      case FaultKind::AppKill:
        return "app_kill";
      default:
        panic("invalid FaultKind %d", static_cast<int>(kind));
    }
}

double
FaultPlanConfig::rate(FaultKind kind) const
{
    switch (kind) {
      case FaultKind::MeterStale:
        return meterStaleRate;
      case FaultKind::MeterNan:
        return meterNanRate;
      case FaultKind::EsdLoss:
        return esdLossRate;
      case FaultKind::EsdFade:
        return esdFadeRate;
      case FaultKind::ActuationStuck:
        return actuationFailRate;
      case FaultKind::NodeCrash:
        return nodeCrashRate;
      case FaultKind::AppKill:
        return appKillRate;
      default:
        return 0.0;
    }
}

bool
FaultPlanConfig::enabled() const
{
    return meterStaleRate > 0.0 || meterNanRate > 0.0 ||
           esdLossRate > 0.0 || esdFadeRate > 0.0 ||
           actuationFailRate > 0.0 || appKillRate > 0.0 ||
           nodeCrashRate > 0.0 || !schedule.empty();
}

void
FaultPlanConfig::setAmbientRate(double r)
{
    psm_assert(r >= 0.0 && r < 1.0);
    // Meter rolls happen every control period, so they carry the
    // nominal rate; destructive faults are scaled down so an ambient
    // 1-5% rate perturbs a run without depopulating it, and node
    // crashes (rolled once per cluster interval, which is far less
    // often) are scaled up so they actually occur in short replays.
    meterStaleRate = r;
    meterNanRate = r * 0.5;
    esdLossRate = r * 0.25;
    esdFadeRate = r * 0.1;
    actuationFailRate = r * 0.25;
    appKillRate = r * 0.05;
    nodeCrashRate = std::min(0.5, r * 2.0);
}

FaultInjector::FaultInjector(FaultPlanConfig config,
                             std::uint64_t stream)
    : cfg(std::move(config)), stream_id(stream)
{
}

namespace
{

/** splitmix64 finalizer: well-mixed 64-bit hash step. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

bool
FaultInjector::scheduled(FaultKind kind, Tick now,
                         std::int64_t target) const
{
    for (const FaultWindow &w : cfg.schedule) {
        if (w.kind != kind || now < w.start || now >= w.end)
            continue;
        if (w.target < 0 || w.target == target)
            return true;
    }
    return false;
}

bool
FaultInjector::inject(FaultKind kind, Tick now, std::uint64_t salt,
                      std::int64_t target) const
{
    if (scheduled(kind, now, target))
        return true;
    double p = cfg.rate(kind);
    if (p <= 0.0)
        return false;
    // Counter-based roll: hash the full identity of this decision so
    // the outcome is independent of evaluation order and thread
    // count.  Top 53 bits -> uniform in [0, 1).
    std::uint64_t h =
        mix(cfg.seed ^
            mix(stream_id ^
                mix(static_cast<std::uint64_t>(kind) ^
                    mix(static_cast<std::uint64_t>(now) ^
                        mix(salt)))));
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < p;
}

} // namespace psm::util
