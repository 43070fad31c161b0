#include "server.hh"

#include <algorithm>

#include "util/logging.hh"

namespace psm::sim
{

Server::Server(const power::PlatformConfig &config, Tick step_size)
    : config(config), model(config), step_ticks(step_size),
      socket_owner(static_cast<std::size_t>(config.sockets), -1)
{
    psm_assert(step_size > 0);
    config.validate();
}

power::RaplDomainId
Server::packageDomain(int socket) const
{
    psm_assert(socket >= 0 && socket < config.sockets);
    return socket == 0 ? power::RaplDomainId::Package0
                       : power::RaplDomainId::Package1;
}

power::RaplDomainId
Server::dramDomain(int socket) const
{
    psm_assert(socket >= 0 && socket < config.sockets);
    return socket == 0 ? power::RaplDomainId::Dram0
                       : power::RaplDomainId::Dram1;
}

int
Server::admit(const perf::AppProfile &profile)
{
    auto free_it = std::find(socket_owner.begin(), socket_owner.end(),
                             -1);
    if (free_it == socket_owner.end()) {
        fatal("server has no free socket for '%s'",
              profile.name.c_str());
    }
    int socket = static_cast<int>(free_it - socket_owner.begin());
    int id = next_app_id++;
    resident.emplace(id, std::make_unique<Application>(id, socket,
                                                       config,
                                                       profile));
    *free_it = id;
    return id;
}

void
Server::remove(int id)
{
    auto it = resident.find(id);
    psm_assert(it != resident.end());
    int socket = it->second->socket();
    socket_owner[static_cast<std::size_t>(socket)] = -1;
    resident.erase(it);
}

bool
Server::hasApp(int id) const
{
    return resident.count(id) > 0;
}

Application &
Server::app(int id)
{
    auto it = resident.find(id);
    psm_assert(it != resident.end());
    return *it->second;
}

const Application &
Server::app(int id) const
{
    auto it = resident.find(id);
    psm_assert(it != resident.end());
    return *it->second;
}

std::vector<Application *>
Server::apps()
{
    std::vector<Application *> out;
    out.reserve(resident.size());
    for (auto &[id, app] : resident)
        out.push_back(app.get());
    return out;
}

std::vector<const Application *>
Server::apps() const
{
    std::vector<const Application *> out;
    out.reserve(resident.size());
    for (const auto &[id, app] : resident)
        out.push_back(app.get());
    return out;
}

std::vector<Application *>
Server::activeApps()
{
    std::vector<Application *> out;
    for (auto &[id, app] : resident)
        if (!app->finished())
            out.push_back(app.get());
    return out;
}

int
Server::freeSockets() const
{
    return static_cast<int>(
        std::count(socket_owner.begin(), socket_owner.end(), -1));
}

void
Server::setPackageLimit(int socket, Watts limit)
{
    rapl_if.domain(packageDomain(socket)).setPowerLimit(limit);
}

void
Server::clearPackageLimit(int socket)
{
    rapl_if.domain(packageDomain(socket)).clearPowerLimit();
}

void
Server::attachEsd(const esd::BatteryConfig &esd_config)
{
    battery_state.emplace(esd_config);
}

esd::Battery *
Server::battery()
{
    return hasEsd() ? &battery_state->battery : nullptr;
}

const esd::Battery *
Server::battery() const
{
    return hasEsd() ? &battery_state->battery : nullptr;
}

esd::Battery *
Server::installedBattery()
{
    return battery_state ? &battery_state->battery : nullptr;
}

Watts
Server::observedAppPower(int id) const
{
    const Application &a = app(id);
    Watts pkg = rapl_if.domain(packageDomain(a.socket()))
                    .windowAveragePower();
    Watts dram = rapl_if.domain(dramDomain(a.socket()))
                     .windowAveragePower();
    return pkg + dram;
}

Watts
Server::observedAppDramPower(int id) const
{
    const Application &a = app(id);
    return rapl_if.domain(dramDomain(a.socket())).windowAveragePower();
}

Watts
Server::observedServerPower() const
{
    return config.idlePower +
           (was_active ? config.cmPower : 0.0) +
           rapl_if.totalWindowPower();
}

StepResult
Server::step()
{
    StepResult result;
    result.start = clock;
    result.duration = step_ticks;

    bool any_active = false;
    for (auto &[id, app] : resident)
        any_active |= app->running();

    result.breakdown = model.beginBreakdown(any_active, 0);

    // Charge the PC6 exit energy once per sleep -> active transition.
    if (any_active && !was_active && clock > 0) {
        result.breakdown.uncore +=
            model.uncore().wakeEnergy() / toSeconds(step_ticks);
        ++pc6_wakes;
    }
    if (!any_active)
        pc6_time += step_ticks;

    // Sockets with no running application still advance their RAPL
    // windows (with zero draw), so stale samples age out and software
    // reads honest post-departure averages.
    std::vector<bool> socket_active(
        static_cast<std::size_t>(config.sockets), false);
    for (auto &[id, app] : resident)
        if (app->running())
            socket_active[static_cast<std::size_t>(app->socket())] =
                true;
    for (int s = 0; s < config.sockets; ++s) {
        if (!socket_active[static_cast<std::size_t>(s)]) {
            rapl_if.recordEnergy(packageDomain(s), 0.0, step_ticks);
            rapl_if.recordEnergy(dramDomain(s), 0.0, step_ticks);
        }
    }

    for (auto &[id, app] : resident) {
        if (!app->running()) {
            // Open-loop clients don't pause with the server: a
            // suspended interactive app keeps accumulating arrivals.
            app->advanceIdleQueue(clock, step_ticks);
            continue;
        }
        // RAPL package enforcement: translate the required power
        // reduction into a frequency multiplier via the inverse of
        // the power-frequency curve, as the hardware's running
        // average controller does.
        double power_ratio =
            rapl_if.domain(packageDomain(app->socket()))
                .throttleFactor();
        double freq_throttle =
            model.cores().inverseFreqFactor(power_ratio);
        AppStepResult app_res =
            app->step(clock, step_ticks, freq_throttle, 1.0);

        power::AppPower ap;
        ap.app = app->name();
        ap.core = app_res.op.corePower;
        ap.dram = app_res.op.dramPower;
        ap.base = app_res.op.basePower;
        result.breakdown.apps.push_back(ap);

        rapl_if.recordEnergy(packageDomain(app->socket()),
                             ap.core + ap.base, step_ticks);
        rapl_if.recordEnergy(dramDomain(app->socket()), ap.dram,
                             step_ticks);

        if (app->finished())
            result.finished.push_back(id);
    }

    if (battery_state && esd_available) {
        esd::ChargeController controller(battery_state->battery);
        Watts demand = result.breakdown.serverPower();
        esd::EsdFlow planned = controller.plan(demand, power_cap,
                                               esd_charge);
        esd::EsdFlow actual = controller.apply(planned, step_ticks);
        result.breakdown.esdCharge = actual.charge;
        result.breakdown.esdDischarge = actual.discharge;
    } else if (battery_state) {
        // Installed but unavailable: no controlled flows, the cells
        // still self-discharge.
        battery_state->battery.rest(step_ticks);
    }

    power_meter.push(step_ticks, result.breakdown.wallPower(), power_cap);

    was_active = any_active;
    clock += step_ticks;
    return result;
}

std::vector<int>
Server::run(Tick duration)
{
    std::vector<int> finished;
    Tick end = clock + duration;
    while (clock < end) {
        StepResult res = step();
        finished.insert(finished.end(), res.finished.begin(),
                        res.finished.end());
    }
    return finished;
}

} // namespace psm::sim
