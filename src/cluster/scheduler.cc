#include "scheduler.hh"

#include <algorithm>

#include "perf/perf_model.hh"
#include "perf/workloads.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace psm::cluster
{

std::string
placementPolicyName(PlacementPolicy policy)
{
    switch (policy) {
      case PlacementPolicy::FirstFit:
        return "FirstFit";
      case PlacementPolicy::PowerHeadroom:
        return "PowerHeadroom";
      default:
        panic("invalid PlacementPolicy %d", static_cast<int>(policy));
    }
}

static NodePoolConfig
schedulerPoolConfig(const SchedulerConfig &cfg)
{
    psm_assert(cfg.servers >= 1);
    psm_assert(cfg.serverCap > 0.0);
    NodePoolConfig pc;
    pc.servers = cfg.servers;
    pc.manager = cfg.manager;
    pc.seedBase = cfg.seed + 1;
    pc.serverCap = cfg.serverCap;
    return pc;
}

ClusterScheduler::ClusterScheduler(SchedulerConfig config)
    : cfg(std::move(config)), rng(cfg.seed),
      pool(schedulerPoolConfig(cfg)),
      placed(static_cast<std::size_t>(cfg.servers))
{
}

void
ClusterScheduler::submit(Job job)
{
    psm_assert(job_list.empty() ||
               job.arrival >= job_list.back().arrival);
    job_list.push_back(std::move(job));
}

void
ClusterScheduler::generateWorkload(std::size_t count,
                                   double mean_interarrival_s,
                                   double mean_seconds,
                                   double interactive_fraction)
{
    psm_assert(mean_interarrival_s > 0.0 && mean_seconds > 0.0);
    psm_assert(interactive_fraction >= 0.0 &&
               interactive_fraction <= 1.0);
    const auto &library = perf::workloadLibrary();
    const auto &interactive = perf::interactiveLibrary();
    double arrival_s = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        Job job;
        // Short-circuit keeps the all-batch draw stream (and thus
        // every historical workload) bit-identical when the fraction
        // is zero.
        if (interactive_fraction > 0.0 &&
            rng.chance(interactive_fraction)) {
            // An open-ended service: profile as calibrated, no
            // runtime sizing — it occupies its socket until the run
            // ends.
            job.profile = interactive[static_cast<std::size_t>(
                rng.uniformInt(
                    0, static_cast<int>(interactive.size()) - 1))];
        } else {
            job.profile =
                library[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(library.size()) - 1))];
            // Size to ~mean_seconds of uncapped runtime
            // (exponential).
            perf::PerfModel model(power::defaultPlatform(),
                                  job.profile);
            double seconds =
                std::max(rng.exponential(1.0 / mean_seconds),
                         mean_seconds / 10.0);
            job.profile.totalHeartbeats = seconds * model.maxHbRate();
        }
        job.arrival = toTicks(arrival_s);
        arrival_s += rng.exponential(1.0 / mean_interarrival_s);
        submit(std::move(job));
    }
}

int
ClusterScheduler::pickServer() const
{
    int best = -1;
    double best_headroom = -1.0;
    for (int s = 0; s < cfg.servers; ++s) {
        const NodePool::Node &node =
            pool[static_cast<std::size_t>(s)];
        if (node.server->freeSockets() == 0)
            continue;
        if (cfg.placement == PlacementPolicy::FirstFit)
            return s;
        double headroom = node.server->cap() -
                          node.server->observedServerPower();
        if (headroom > best_headroom) {
            best_headroom = headroom;
            best = s;
        }
    }
    return best;
}

void
ClusterScheduler::placeWaitingJobs()
{
    while (!queue.empty()) {
        int target = pickServer();
        if (target < 0)
            return; // every socket busy; keep queueing
        std::size_t job_ix = queue.front();
        queue.erase(queue.begin());
        Job &job = job_list[job_ix];
        NodePool::Node &node = pool[static_cast<std::size_t>(target)];

        // Two instances of the same workload cannot share a server
        // (names must be unique per server); retarget if needed.
        bool clash = false;
        for (const sim::Application *app : node.server->apps())
            clash |= app->name() == job.profile.name;
        if (clash) {
            int other = -1;
            for (int s = 0; s < cfg.servers && other < 0; ++s) {
                NodePool::Node &cand =
                    pool[static_cast<std::size_t>(s)];
                if (cand.server->freeSockets() == 0)
                    continue;
                bool also_clash = false;
                for (const sim::Application *app :
                     cand.server->apps()) {
                    also_clash |= app->name() == job.profile.name;
                }
                if (!also_clash)
                    other = s;
            }
            if (other < 0) {
                // Nowhere legal right now; try again later.
                queue.insert(queue.begin(), job_ix);
                tel.count(trace::EventId::ClusterPlacementDeferrals);
                return;
            }
            target = other;
            tel.count(trace::EventId::ClusterPlacementRetargets);
        }

        NodePool::Node &host = pool[static_cast<std::size_t>(target)];
        int app_id = host.manager->addApp(job.profile);
        placed[static_cast<std::size_t>(target)].emplace_back(job_ix,
                                                             app_id);
        job.started = clock;
        job.server = target;
        tel.count(trace::EventId::ClusterPlacements);
    }
}

void
ClusterScheduler::harvestFinished()
{
    for (std::size_t s = 0; s < pool.size(); ++s) {
        NodePool::Node &node = pool[s];
        auto &hosted = placed[s];
        for (auto it = hosted.begin(); it != hosted.end();) {
            auto [job_ix, app_id] = *it;
            bool finished = true;
            for (const auto &rec : node.manager->records()) {
                if (rec.id == app_id)
                    finished = rec.done;
            }
            if (finished) {
                job_list[job_ix].finished = clock;
                it = hosted.erase(it);
            } else {
                ++it;
            }
        }
    }
}

void
ClusterScheduler::run(Tick horizon)
{
    Tick end = clock + horizon;
    std::size_t next_arrival = 0;
    const Tick slice = toTicks(1.0);

    while (clock < end) {
        while (next_arrival < job_list.size() &&
               job_list[next_arrival].arrival <= clock) {
            queue.push_back(next_arrival++);
        }
        placeWaitingJobs();

        // Nodes are independent within a slice: step them in parallel
        // (bit-identical to the serial loop).
        pool.runAll(slice);
        clock += slice;
        harvestFinished();

        bool all_done = next_arrival == job_list.size() &&
                        queue.empty();
        for (const auto &hosted : placed)
            all_done &= hosted.empty();
        if (all_done)
            return;
    }
}

std::size_t
ClusterScheduler::unfinished() const
{
    std::size_t n = 0;
    for (const auto &job : job_list)
        n += !job.done();
    return n;
}

double
ClusterScheduler::meanCompletionSeconds() const
{
    std::vector<double> times;
    for (const auto &job : job_list)
        if (job.done())
            times.push_back(toSeconds(job.completionTime()));
    return meanOf(times);
}

double
ClusterScheduler::p95CompletionSeconds() const
{
    std::vector<double> times;
    for (const auto &job : job_list)
        if (job.done())
            times.push_back(toSeconds(job.completionTime()));
    return percentileOf(std::move(times), 95.0);
}

Watts
ClusterScheduler::averageClusterPower() const
{
    if (clock == 0)
        return 0.0;
    return pool.totalEnergy() / toSeconds(clock);
}

core::Telemetry
ClusterScheduler::aggregateTelemetry() const
{
    core::Telemetry cluster;
    cluster.merge(tel);
    cluster.merge(pool.aggregateTelemetry());
    return cluster;
}

} // namespace psm::cluster
