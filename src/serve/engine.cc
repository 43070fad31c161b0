#include "engine.hh"

#include "esd/battery.hh"
#include "perf/workloads.hh"
#include "replay.hh"
#include "sim/application.hh"
#include "util/logging.hh"

namespace psm::serve
{

namespace
{

cluster::NodePoolConfig
poolConfig(const EngineConfig &cfg)
{
    cluster::NodePoolConfig pc;
    pc.servers = cfg.nodes > 0 ? cfg.nodes : 1;
    pc.managed = true;
    pc.manager = cfg.manager;
    pc.seedBase = cfg.seedBase;
    pc.serverCap = cfg.serverCap;
    if (cfg.esd)
        pc.esd = esd::leadAcidUps();
    return pc;
}

/** Applications on @p srv that have not finished. */
std::uint32_t
liveApps(const sim::Server &srv)
{
    std::uint32_t live = 0;
    for (const sim::Application *app : srv.apps()) {
        if (!app->finished())
            ++live;
    }
    return live;
}

} // namespace

ServeEngine::ServeEngine(const EngineConfig &config)
    : cfg(config), pool_(poolConfig(config))
{
}

ServeEngine::~ServeEngine()
{
    stopCapture();
}

bool
ServeEngine::startCapture(const std::string &path)
{
    if (const char *setting = unrecordedSetting(cfg)) {
        warn("cannot capture: a capture does not record %s", setting);
        return false;
    }
    auto writer = std::make_unique<CaptureWriter>();
    if (!writer->open(path, cfg)) {
        warn("cannot open capture file %s", path.c_str());
        return false;
    }
    capture_ = std::move(writer);
    return true;
}

void
ServeEngine::stopCapture()
{
    if (capture_) {
        capture_->close();
        capture_.reset();
    }
}

std::uint64_t
ServeEngine::surfaceEpochSum() const
{
    std::uint64_t sum = 0;
    for (int ix = 0; ix < nodeCount(); ++ix)
        sum += managerAt(ix).learning().surfaceEpoch();
    return sum;
}

core::ServerManager &
ServeEngine::managerAt(int ix)
{
    return *pool_[static_cast<std::size_t>(ix)].manager;
}

const core::ServerManager &
ServeEngine::managerAt(int ix) const
{
    return *pool_[static_cast<std::size_t>(ix)].manager;
}

bool
ServeEngine::validNode(std::int32_t node) const
{
    return node >= 0 && node < nodeCount();
}

bool
ServeEngine::nameActiveOn(int node, const std::string &name) const
{
    // Defer to the manager's record book, not Application::finished():
    // a finished app's record stays live until the next poll retires
    // it, and addApp() fatals on the record, so the pre-check must
    // agree with it exactly.
    return managerAt(node).nameActive(name);
}

int
ServeEngine::routeArrival(const std::string &name) const
{
    // Most free sockets wins; ties go to the lowest index so routing
    // is a pure function of cluster state.
    int best = -1;
    int best_free = 0;
    for (int ix = 0; ix < nodeCount(); ++ix) {
        const sim::Server &srv =
            *pool_[static_cast<std::size_t>(ix)].server;
        int free = srv.freeSockets();
        if (free > best_free && !nameActiveOn(ix, name)) {
            best = ix;
            best_free = free;
        }
    }
    return best;
}

ApplyOutcome
ServeEngine::apply(const EventRequest &ev)
{
    ApplyOutcome out{ReplyStatus::BadRequest, -1, -1};
    switch (ev.op) {
      case EventOp::Advance:
        out = applyAdvance(ev);
        break;
      case EventOp::CapChange:
        out = applyCapChange(ev);
        break;
      case EventOp::Arrival:
        out = applyArrival(ev);
        break;
      case EventOp::PhaseChange:
        out = applyPhaseChange(ev);
        break;
      case EventOp::Kill:
        out = applyKill(ev);
        break;
    }
    // A capture keeps only what its reader accepts.  An event the
    // decoder would refuse (op or class out of range, SLO outside
    // validSloP99) is answered BadRequest before it touches any
    // state, so leaving it out keeps the replay bit-exact.
    if (capture_ && validEventRequest(ev))
        capture_->event(ev, out);
    return out;
}

ApplyOutcome
ServeEngine::applyAdvance(const EventRequest &ev)
{
    if (!(ev.value > 0.0) || ev.value > maxAdvance)
        return {ReplyStatus::BadRequest, -1, -1};
    pool_.runAll(toTicks(ev.value));
    return {ReplyStatus::Ok, -1, -1};
}

ApplyOutcome
ServeEngine::applyCapChange(const EventRequest &ev)
{
    if (!validCap(ev.value))
        return {ReplyStatus::BadRequest, -1, -1};
    if (ev.node == -1) {
        // Broadcast: the cluster driver lowering every cap at once.
        for (int ix = 0; ix < nodeCount(); ++ix)
            managerAt(ix).setCap(ev.value);
        return {ReplyStatus::Ok, -1, -1};
    }
    if (!validNode(ev.node))
        return {ReplyStatus::BadRequest, -1, -1};
    managerAt(ev.node).setCap(ev.value);
    return {ReplyStatus::Ok, ev.node, -1};
}

ApplyOutcome
ServeEngine::applyArrival(const EventRequest &ev)
{
    // v2: the class selects the library the workload index points
    // into; a per-request SLO override only makes sense for the
    // interactive class.
    const auto &library = ev.appClass == AppClass::Interactive
                              ? perf::interactiveLibrary()
                              : perf::workloadLibrary();
    if (ev.workload >= library.size() || !validSloP99(ev.sloP99))
        return {ReplyStatus::BadRequest, -1, -1};
    if (ev.appClass == AppClass::Batch && ev.sloP99 != 0.0)
        return {ReplyStatus::BadRequest, -1, -1};
    perf::AppProfile profile = library[ev.workload];
    if (ev.appClass == AppClass::Interactive && ev.sloP99 > 0.0)
        profile.sloP99 = ev.sloP99;

    int node = ev.node;
    if (node == -1) {
        node = routeArrival(profile.name);
        if (node == -1)
            return {ReplyStatus::Rejected, -1, -1};
    } else {
        if (!validNode(node))
            return {ReplyStatus::BadRequest, -1, -1};
        // addApp() treats a full server or a duplicate active name as
        // programmer error; over the wire they are client errors, so
        // pre-validate instead of letting the framework fatal().
        const sim::Server &srv =
            *pool_[static_cast<std::size_t>(node)].server;
        if (srv.freeSockets() <= 0 || nameActiveOn(node, profile.name))
            return {ReplyStatus::Rejected, node, -1};
    }
    int id = managerAt(node).addApp(profile);
    return {ReplyStatus::Ok, node, id};
}

ApplyOutcome
ServeEngine::applyPhaseChange(const EventRequest &ev)
{
    if (!validNode(ev.node))
        return {ReplyStatus::BadRequest, -1, -1};
    // Written so that NaN fails it.
    auto in_bound = [](double scale) {
        return scale >= 1.0 / maxPhaseScale && scale <= maxPhaseScale;
    };
    if (!in_bound(ev.cpuScale) || !in_bound(ev.memScale))
        return {ReplyStatus::BadRequest, ev.node, ev.appId};
    sim::Server &srv = *pool_[static_cast<std::size_t>(ev.node)].server;
    if (!srv.hasApp(ev.appId) || srv.app(ev.appId).finished())
        return {ReplyStatus::Rejected, ev.node, ev.appId};
    // One flat phase covering the rest of the run; the drift detector
    // (E4) notices the rate change at a later poll, exactly as when
    // the scenario layer rescales phases.
    srv.app(ev.appId).setPhases({{1.0, ev.cpuScale, ev.memScale}});
    return {ReplyStatus::Ok, ev.node, ev.appId};
}

ApplyOutcome
ServeEngine::applyKill(const EventRequest &ev)
{
    if (!validNode(ev.node))
        return {ReplyStatus::BadRequest, -1, -1};
    if (!managerAt(ev.node).killApp(ev.appId))
        return {ReplyStatus::Rejected, ev.node, ev.appId};
    return {ReplyStatus::Ok, ev.node, ev.appId};
}

DecisionDigest
ServeEngine::commit()
{
    pool_.runAll(core::ControlLoop::controlPeriod);
    DecisionDigest d = digest();
    if (capture_)
        capture_->commit(d, surfaceEpochSum());
    return d;
}

DecisionDigest
ServeEngine::digest() const
{
    DecisionDigest d;
    Fnv1a h;
    for (int ix = 0; ix < nodeCount(); ++ix) {
        const sim::Server &srv =
            *pool_[static_cast<std::size_t>(ix)].server;
        const core::ServerManager &mgr = managerAt(ix);
        h.u64(static_cast<std::uint64_t>(ix));
        h.u64(srv.now());
        h.f64(srv.cap());
        h.u64(mgr.reallocationCount());
        h.u64(mgr.eventCount());
        h.u64(static_cast<std::uint64_t>(mgr.mode()));
        const core::Allocation &alloc = mgr.lastAllocation();
        h.u64(alloc.apps.size());
        h.f64(alloc.dynamicBudget);
        h.f64(alloc.used);
        h.f64(alloc.objective);
        for (const core::AppAllocation &app : alloc.apps) {
            h.str(app.app);
            h.f64(app.budget);
            h.f64(app.expectedPerf);
            h.u64(app.scheduled() ? 1 : 0);
            if (app.point)
                h.f64(app.point->power);
        }
        d.activeApps += liveApps(srv);
        d.passes += mgr.reallocationCount();
        d.objective += alloc.objective;
        if (ix == 0)
            d.simNow = srv.now();
    }
    d.hash = h.value();
    return d;
}

std::uint64_t
ServeEngine::allocatorPasses() const
{
    std::uint64_t passes = 0;
    for (int ix = 0; ix < nodeCount(); ++ix)
        passes += managerAt(ix).reallocationCount();
    return passes;
}

void
ServeEngine::fillSnapshot(StatsSnapshot &snap,
                          const core::Telemetry *extra) const
{
    snap.nodes = static_cast<std::uint32_t>(nodeCount());
    snap.activeApps = 0;
    snap.freeSockets = 0;
    for (const auto &node : pool_) {
        snap.activeApps += liveApps(*node.server);
        snap.freeSockets +=
            static_cast<std::uint32_t>(node.server->freeSockets());
    }
    snap.allocatorPasses = allocatorPasses();
    snap.simNow = pool_[0].server->now();
    // One dense fold across the pool (plus the service bus when
    // given): every registered counter the cluster touched lands in
    // the snapshot, so QUERY can reach anything by name.  Timers ride
    // along as name.count / name.total_us / name.max_us triplets
    // (1 tick = 100 us).
    core::Telemetry bus = pool_.aggregateTelemetry();
    if (extra)
        bus.merge(*extra);
    bus.forEachTouched([&](trace::EventId id) {
        std::string name(trace::eventName(id));
        if (trace::isTimer(trace::eventKind(id))) {
            core::TimerStat t = bus.timer(id);
            snap.counters[name + ".count"] = t.count;
            snap.counters[name + ".total_us"] = t.total * 100;
            snap.counters[name + ".max_us"] = t.max * 100;
        } else {
            snap.counters[name] = bus.counter(id);
        }
    });
}

} // namespace psm::serve
