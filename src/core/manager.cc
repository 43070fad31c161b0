#include "manager.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"

namespace psm::core
{

namespace
{

/** @p seconds as whole microseconds for a u64 gauge, saturating: NaN
 * and negative inputs read 0, and anything from 2^64 us up reads the
 * largest value, where a plain cast would be undefined. */
std::uint64_t
gaugeMicros(double seconds)
{
    constexpr double limit = 18446744073709551616.0; // 2^64, exact
    double us = seconds * 1e6;
    if (!(us > 0.0))
        return 0;
    if (us >= limit)
        return std::numeric_limits<std::uint64_t>::max();
    return static_cast<std::uint64_t>(us);
}

} // namespace

double
AppRecord::normalizedPerf(Tick now) const
{
    // Latency-critical services are judged on SLO attainment, not
    // throughput (an open-loop client offers a fixed load, so served
    // beats saturate at the offered rate long before the knee).
    // The ratio mirrors the SLO utility transform: 1 inside the SLO,
    // rolling off as the observed p99 blows past it.
    if (interactive) {
        if (requestCompletions == 0)
            return 0.0;
        if (requestP99 <= 0.0)
            return 1.0;
        return std::min(1.0, sloP99 / requestP99);
    }
    Tick until = done ? finishedAt : now;
    if (until <= admitted || uncappedRate <= 0.0)
        return 0.0;
    double elapsed = toSeconds(until - admitted);
    return (beats / elapsed) / uncappedRate;
}

ManagerConfig
ServerManager::normalizedConfig(ManagerConfig cfg)
{
    if (cfg.faults.seed == 0)
        cfg.faults.seed = cfg.seed;
    return cfg;
}

ServerManager::ServerManager(sim::Server &server, ManagerConfig config)
    : srv(server), cfg(normalizedConfig(std::move(config))),
      injector(cfg.faults), coord(cfg.coordinator),
      pipeline(server, cfg.oracleUtilities, cfg.seed, &tel),
      selector(server.platform(), cfg.allocator, &tel),
      control(server, coord, *this, &tel),
      actuator(server, coord, control.accountant(), &tel)
{
    coord.setTelemetry(&tel);
    control.setFaultInjector(&injector);
    if (policyUsesEsd(cfg.policy) && !srv.hasEsd()) {
        warn("policy %s selected but the server has no ESD; it will "
             "fall back to temporal coordination",
             policyName(cfg.policy).c_str());
    }
}

void
ServerManager::seedCorpus(const std::vector<perf::AppProfile> &profiles)
{
    pipeline.seedCorpus(
        cf::profileCorpus(srv.platform(), profiles));
}

void
ServerManager::seedCorpus(
    std::shared_ptr<const cf::UtilityEstimator> corpus,
    std::shared_ptr<const UtilityCurve> server_average)
{
    pipeline.seedCorpus(std::move(corpus), std::move(server_average));
}

int
ServerManager::addApp(const perf::AppProfile &profile)
{
    for (const auto &[id, r] : app_records) {
        if (!r.done && r.name == profile.name) {
            fatal("an active application named '%s' already exists on "
                  "this server", profile.name.c_str());
        }
    }

    int id = srv.admit(profile);
    AppRecord r;
    r.id = id;
    r.name = profile.name;
    r.admitted = srv.now();
    r.uncappedRate = srv.app(id).perf().maxHbRate();
    r.interactive = profile.interactive();
    r.sloP99 = profile.sloP99;
    app_records.emplace(id, std::move(r));

    pipeline.track(id, profile);
    control.accountant().notifyArrival(id);
    if (policyAppAware(cfg.policy)) {
        if (pipeline.startCalibration(id))
            last_realloc_latency = ControlLoop::controlPeriod;
    }
    return id;
}

void
ServerManager::setCap(Watts cap)
{
    control.accountant().notifyCapChange(cap);
}

bool
ServerManager::nameActive(const std::string &name) const
{
    for (const auto &[id, r] : app_records) {
        if (!r.done && r.name == name)
            return true;
    }
    return false;
}

bool
ServerManager::killApp(int id)
{
    auto it = app_records.find(id);
    if (it == app_records.end() || it->second.done || !srv.hasApp(id))
        return false;
    it->second.beats = srv.app(id).heartbeats().total();
    srv.remove(id);
    return true;
}

std::vector<int>
ServerManager::activeIds() const
{
    std::vector<int> ids;
    for (const auto &[id, r] : app_records) {
        if (!r.done && srv.hasApp(id) && !srv.app(id).finished())
            ids.push_back(id);
    }
    return ids;
}

void
ServerManager::onDeparture(const AccountantEvent &ev)
{
    auto it = app_records.find(ev.appId);
    psm_assert(it != app_records.end());
    AppRecord &r = it->second;
    r.done = true;
    r.finishedAt = ev.when;
    // A synthetic E3 (killed app) arrives after the server entry is
    // gone; its final heartbeat count was harvested at kill time.
    if (srv.hasApp(ev.appId))
        r.beats = srv.app(ev.appId).heartbeats().total();
    pipeline.forget(ev.appId);
    actuator.forget(ev.appId);
}

bool
ServerManager::onDrift(int app_id)
{
    if (!policyAppAware(cfg.policy))
        return false;
    if (pipeline.startCalibration(app_id))
        last_realloc_latency = ControlLoop::controlPeriod;
    return true;
}

bool
ServerManager::onCalibrationsDue()
{
    std::vector<int> finished = pipeline.finishDueCalibrations();
    if (finished.empty())
        return false;
    last_realloc_latency =
        pipeline.lastCalibrationLatency() + ControlLoop::controlPeriod;
    return true;
}

void
ServerManager::reallocate(DecisionTrigger trigger)
{
    ++realloc_count;
    const power::PlatformConfig &plat = srv.platform();
    std::vector<int> ids = activeIds();
    Watts cap = srv.cap();

    // Utility-aware policies split calibrated from still-calibrating
    // applications; the latter run at the minimal setting with a
    // reserved power floor.  The other policies never calibrate.
    std::vector<int> ready;
    std::vector<int> calibrating;
    if (policyAppAware(cfg.policy)) {
        for (int id : ids) {
            if (pipeline.calibrated(id))
                ready.push_back(id);
            else
                calibrating.push_back(id);
        }
    } else {
        ready = ids;
    }

    PlanInputs in;
    in.policy = cfg.policy;
    in.cap = cap;
    in.appCount = ids.size();
    in.calibratingCount = calibrating.size();
    in.hasEsd = srv.hasEsd();
    if (srv.hasEsd())
        in.esd = &srv.esdConfig();
    // Knob-actuation fault: when the roll says per-app actuation is
    // stuck this decision, tell the selector so it demotes to
    // hardware RAPL enforcement.  Only meaningful when a utility
    // plan with ready curves would otherwise be chosen.
    if (policyAppAware(cfg.policy) && cap > 0.0 && !ready.empty() &&
        injector.inject(util::FaultKind::ActuationStuck, srv.now(),
                        realloc_count)) {
        in.knobsAvailable = false;
        tel.count(trace::EventId::FaultActuationStuck);
    }
    in.serverAverage = pipeline.serverAverageCurve();
    in.surfaceEpoch = pipeline.surfaceEpoch();

    if (cap > 0.0) {
        // Withhold the guard band and the adherence trim so estimation
        // error does not become cap overshoot.
        Watts budget =
            std::max(cap - plat.idlePower - plat.cmPower, 0.0);
        in.budget = std::max(
            budget * (1.0 - cfg.budgetGuard) - control.capTrim(), 0.0);
    }

    // App-Aware sees the application's power-performance response
    // under its own (RAPL, frequency-only) enforcement — including
    // the clock-modulation region below f_min — while the
    // resource-aware policies search the full (f, n, m) frontier.
    std::vector<UtilityCurve> curves;
    if (policyAppAware(cfg.policy) && cap > 0.0 && !ids.empty()) {
        KnobFreedom freedom = policyResAware(cfg.policy)
                                  ? KnobFreedom::All
                                  : KnobFreedom::FrequencyOnly;
        curves.reserve(ready.size());
        for (int id : ready)
            curves.push_back(pipeline.utilityFor(id, freedom));
        for (const auto &c : curves)
            in.curves.push_back(&c);
        actuator.holdForCalibration(calibrating);
    }

    Tick started = srv.now();
    PlanDecision d = selector.select(in);
    actuator.execute(d, ids, ready, cfg.policy);

    DecisionRecord rec;
    rec.when = srv.now();
    rec.trigger = trigger;
    rec.policy = cfg.policy;
    rec.plan = d.choice;
    rec.mode = coord.mode();
    rec.apps = static_cast<std::uint32_t>(ids.size());
    rec.objective = d.objective;
    rec.budget = in.budget;
    rec.latency = last_realloc_latency;
    tel.record(rec);
    tel.observe(trace::EventId::ManagerReallocate, srv.now() - started);
    tel.count(trace::EventId::ManagerReallocations);
}

void
ServerManager::maybeInjectFaults()
{
    if (!injector.enabled())
        return;
    Tick now = srv.now();

    // Timed ESD restoration fires on its own deadline.
    if (now >= esd_restore_at) {
        esd_restore_at = maxTick;
        srv.setEsdAvailable(true);
        tel.count(trace::EventId::DegradedEsdRestored);
        reallocate(DecisionTrigger::EsdRestored);
    }

    // Fault rolls happen once per control period (the rates are
    // per-poll probabilities), keyed purely on (seed, kind, tick) so
    // the schedule replays identically at any thread count.
    if (now < next_fault_check)
        return;
    next_fault_check = now + ControlLoop::controlPeriod;

    if (srv.esdInstalled() && srv.esdAvailable()) {
        if (injector.inject(util::FaultKind::EsdLoss, now)) {
            srv.setEsdAvailable(false);
            esd_restore_at = now + injector.config().esdOutage;
            tel.count(trace::EventId::FaultEsdLoss);
            tel.count(trace::EventId::DegradedEsdUnavailable);
            // Replan immediately without the battery; the coordinator
            // additionally demotes mid-duty-cycle on its next advance
            // if it was in EsdAssisted mode.
            reallocate(DecisionTrigger::FaultEsdLoss);
        } else if (injector.inject(util::FaultKind::EsdFade, now)) {
            srv.installedBattery()->fadeCapacity(
                injector.config().fadeFactor);
            tel.count(trace::EventId::FaultEsdFade);
            tel.count(trace::EventId::DegradedEsdCapacity);
        }
    }

    for (int id : activeIds()) {
        if (!injector.inject(util::FaultKind::AppKill, now,
                             static_cast<std::uint64_t>(id), id))
            continue;
        tel.count(trace::EventId::FaultAppKill);
        auto it = app_records.find(id);
        if (it != app_records.end())
            it->second.beats = srv.app(id).heartbeats().total();
        // Departure without finished(): the Accountant's next poll
        // emits the synthetic E3, which retires the record, forgets
        // pipeline/actuator state and replans.
        srv.remove(id);
    }
}

void
ServerManager::run(Tick duration)
{
    Tick end = srv.now() + duration;
    while (srv.now() < end) {
        maybeInjectFaults();
        control.maybePoll();
        coord.advance(srv);
        srv.step();
    }
    syncRecords();
}

void
ServerManager::runUntilAllDone(Tick max_duration)
{
    Tick deadline = srv.now() + max_duration;
    while (anyAppRunning() && srv.now() < deadline)
        run(std::min(toTicks(1.0), deadline - srv.now()));
    syncRecords();
}

void
ServerManager::syncRecords()
{
    std::uint64_t arrivals = 0;
    std::uint64_t completions = 0;
    std::uint64_t violations = 0;
    std::uint64_t depth = 0;
    double worst_p99 = 0.0;
    bool any_interactive = false;

    for (auto &[id, r] : app_records) {
        if (!r.done && srv.hasApp(id)) {
            r.beats = srv.app(id).heartbeats().total();
            if (const auto *q = srv.app(id).requestQueue()) {
                r.requestArrivals = q->arrivals();
                r.requestCompletions = q->completed();
                r.requestSloViolations = q->sloViolations();
                r.requestP99 = q->p99();
                r.requestMeanResponse = q->meanResponse();
                r.queueDepth = q->depth();
            }
        }
        if (r.interactive) {
            any_interactive = true;
            arrivals += r.requestArrivals;
            completions += r.requestCompletions;
            violations += r.requestSloViolations;
            if (!r.done) {
                depth += r.queueDepth;
                worst_p99 = std::max(worst_p99, r.requestP99);
            }
        }
    }

    if (any_interactive) {
        // Records keep their totals after departure, so the sums are
        // monotone; publish the delta since the last sync.
        tel.count(trace::EventId::InteractiveArrivals,
                  arrivals - interactive_published.arrivals);
        tel.count(trace::EventId::InteractiveCompletions,
                  completions - interactive_published.completions);
        tel.count(trace::EventId::InteractiveSloViolations,
                  violations - interactive_published.violations);
        interactive_published = {arrivals, completions, violations};
        tel.gauge(trace::EventId::InteractiveQueueDepth, depth);
        tel.gauge(trace::EventId::InteractiveP99Us,
                  gaugeMicros(worst_p99));
    }
}

std::vector<AppRecord>
ServerManager::records() const
{
    std::vector<AppRecord> out;
    out.reserve(app_records.size());
    for (const auto &[id, r] : app_records)
        out.push_back(r);
    return out;
}

bool
ServerManager::anyAppRunning() const
{
    for (const auto &[id, r] : app_records)
        if (!r.done)
            return true;
    return false;
}

double
ServerManager::serverNormalizedThroughput() const
{
    std::vector<AppRecord> recs = records();
    if (recs.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : recs)
        sum += r.normalizedPerf(srv.now());
    return sum / static_cast<double>(recs.size());
}

} // namespace psm::core
