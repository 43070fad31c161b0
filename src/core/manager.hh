/**
 * @file
 * The ServerManager: the paper's complete per-server framework
 * (Fig. 6) assembled around one simulated server.
 *
 * It is composition glue over the layered control plane:
 *
 *   LearningPipeline  — Profiler -> Sampler -> UtilityEstimator
 *   PlanSelector      — curves + policy + budget -> one plan
 *   Actuator          — plan -> Directives -> Coordinator/Accountant
 *   ControlLoop       — Accountant events E1-E4, trim, refresh
 *
 * all publishing on one Telemetry bus.  The policy (PolicyKind)
 * selects how much information each stage is allowed to use,
 * producing the baselines and schemes compared in Figs. 8 and 10.
 */

#ifndef PSM_CORE_MANAGER_HH
#define PSM_CORE_MANAGER_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accountant.hh"
#include "actuator.hh"
#include "cf/cross_validation.hh"
#include "cf/estimator.hh"
#include "cf/profiler.hh"
#include "cf/sampler.hh"
#include "control_loop.hh"
#include "coordinator.hh"
#include "learning_pipeline.hh"
#include "plan_selector.hh"
#include "policy.hh"
#include "power_allocator.hh"
#include "sim/server.hh"
#include "telemetry.hh"
#include "utility_curve.hh"
#include "util/fault.hh"
#include "util/units.hh"

namespace psm::core
{

/** Configuration of the per-server management framework. */
struct ManagerConfig
{
    PolicyKind policy = PolicyKind::AppResAware;

    /** Fraction of knob settings measured online (Fig. 7's 10%). */
    double sampleFraction = 0.10;
    /** Use exhaustive ground-truth utilities instead of CF. */
    bool oracleUtilities = false;
    /** Relative measurement noise of online profiling. */
    double measurementNoise = 0.02;
    /** Wall-clock cost of measuring one knob setting online. */
    Tick calibrationPerSample = toTicks(0.018);

    /** Accountant poll / decision period. */
    Tick controlPeriod = toTicks(0.1);

    /**
     * Guard band: fraction of the dynamic budget withheld to absorb
     * utility-estimation error, so CF under-prediction does not turn
     * straight into cap overshoot.
     */
    double budgetGuard = 0.02;
    /** Gain of the integral cap-adherence trim loop. */
    double trimGain = 0.5;
    /** Spatial-mode steady-state refresh period (RAPL limit and trim
     * updates without a triggering event). */
    Tick refreshPeriod = toTicks(0.5);

    CoordinatorConfig coordinator;
    AllocatorConfig allocator;
    cf::AlsConfig als;
    cf::SamplingStrategy sampling = cf::SamplingStrategy::Stratified;
    AccountantConfig accountant;

    /**
     * Fault plan for this server.  When no rates are configured, the
     * `PSM_FAULT_RATE` environment variable (an ambient per-poll
     * probability) arms the injector instead; `faults.seed == 0`
     * derives the roll seed from `seed` below, so one manager seed
     * reproduces both the workload and the fault schedule.
     */
    util::FaultPlanConfig faults;

    std::uint64_t seed = 7;
};

/** Per-application accounting kept by the manager for reporting. */
struct AppRecord
{
    int id = -1;
    std::string name;
    Tick admitted = 0;
    Tick finishedAt = maxTick; ///< maxTick while still running
    double beats = 0.0;        ///< heartbeats completed so far
    double uncappedRate = 0.0; ///< heartbeat rate with no cap
    bool done = false;

    // Interactive (latency-critical) request statistics; zero for
    // batch applications.
    bool interactive = false;
    double sloP99 = 0.0;       ///< the profile's p99 SLO in seconds
    std::uint64_t requestArrivals = 0;
    std::uint64_t requestCompletions = 0;
    std::uint64_t requestSloViolations = 0;
    double requestP99 = 0.0;   ///< observed p99 in seconds
    double requestMeanResponse = 0.0; ///< mean response in seconds
    std::size_t queueDepth = 0;

    /** Fraction of completed requests that missed the SLO. */
    double violationFraction() const
    {
        return requestCompletions > 0
                   ? static_cast<double>(requestSloViolations) /
                         static_cast<double>(requestCompletions)
                   : 0.0;
    }

    /**
     * Throughput normalized to uncapped execution over the app's
     * lifetime so far (the paper's per-app metric).
     */
    double normalizedPerf(Tick now) const;
};

/**
 * The management framework for one server: composition glue over the
 * control-plane layers.
 */
class ServerManager : private ControlLoop::Delegate
{
  public:
    /**
     * @param server The server to manage; must outlive the manager.
     */
    ServerManager(sim::Server &server, ManagerConfig config = {});

    const ManagerConfig &config() const { return cfg; }
    sim::Server &server() { return srv; }
    const sim::Server &server() const { return srv; }
    const Coordinator &coordinator() const { return coord; }
    CoordinationMode mode() const { return coord.mode(); }

    /** The control plane's shared telemetry bus. */
    Telemetry &telemetry() { return tel; }
    const Telemetry &telemetry() const { return tel; }

    /** The learning layer (read access for tests and tools). */
    const LearningPipeline &learning() const { return pipeline; }

    /** The fault oracle this manager rolls against. */
    const util::FaultInjector &faultInjector() const
    {
        return injector;
    }

    /**
     * Seed the collaborative filtering corpus with exhaustively
     * profiled applications ("previously seen applications" in
     * Section III-A), replacing any earlier corpus.  When later
     * estimating an application that is itself in the corpus, its own
     * row is excluded (leave-one-out).
     */
    void seedCorpus(const std::vector<perf::AppProfile> &profiles);

    /**
     * Share a corpus already profiled by cf::profileCorpus on this
     * server's platform with config().als — how a NodePool seeds
     * every node from one profiling pass — and, when given, its
     * makeServerAverageCurve() (null builds one for this node).
     */
    void seedCorpus(std::shared_ptr<const cf::UtilityEstimator> corpus,
                    std::shared_ptr<const UtilityCurve> server_average =
                        nullptr);

    /**
     * Admit an application (event E2).  Calibration, if the policy
     * needs it, runs online and charges its wall-clock overhead; the
     * first utility-aware allocation lands once calibration is done.
     *
     * @return The application id.
     */
    int addApp(const perf::AppProfile &profile);

    /** Change the server cap (event E1; applied at the next poll). */
    void setCap(Watts cap);

    /**
     * Change the server cap only when it differs from the last cap
     * pushed through this entry point.  The hierarchical cluster
     * layer (PowerTree) re-resolves grants on every event and pushes
     * the result to every affected leaf; deduplicating here means an
     * untouched sibling subtree costs its servers no E1 event, no
     * allocator pass and no actuation — the per-server half of the
     * O(depth) propagation argument.
     *
     * @return true when a cap change was actually enqueued.
     */
    bool setCapIfChanged(Watts cap);

    /**
     * True while an app of this name occupies a live record — the
     * same test addApp() fatals on.  Callers admitting external
     * requests (the serving daemon) use this to pre-validate, since a
     * finished app's record stays live until the next poll retires it.
     */
    bool nameActive(const std::string &name) const;

    /**
     * Externally terminate an application (event E3 from outside the
     * simulation: the serving daemon's kill entry point, mirroring
     * the fault injector's app-kill path).  Harvests the app's
     * heartbeats and removes it from the server; the Accountant's
     * next poll emits the synthetic departure that retires the
     * record and replans.
     *
     * @return false when the id is unknown or the app already ended.
     */
    bool killApp(int id);

    /** Drive the managed server forward. */
    void run(Tick duration);

    /** Convenience: run until all admitted apps finish (bounded). */
    void runUntilAllDone(Tick max_duration);

    // --- Reporting ----------------------------------------------------

    /** Records for every app ever admitted, in admission order. */
    std::vector<AppRecord> records() const;

    /** True while any admitted app is unfinished. */
    bool anyAppRunning() const;

    /**
     * Mean normalized throughput across all admitted applications —
     * the per-mix bar of Figs. 8a and 10.
     */
    double serverNormalizedThroughput() const;

    /** Latest spatial allocation (empty before the first one). */
    const Allocation &lastAllocation() const
    {
        return actuator.lastAllocation();
    }

    /** Wall-clock latency of the most recent reallocation event
     * (calibration + decision), for the Section IV-C claim. */
    Tick lastReallocationLatency() const { return last_realloc_latency; }

    /** Total number of reallocations performed. */
    std::size_t reallocationCount() const { return realloc_count; }

    /** The newest events, in order (see ControlLoop::eventLog). */
    const std::deque<AccountantEvent> &eventLog() const
    {
        return control.eventLog();
    }

    /** Events seen so far, including any the log dropped. */
    std::size_t eventCount() const { return control.eventCount(); }

  private:
    sim::Server &srv;
    ManagerConfig cfg;
    Telemetry tel;
    util::FaultInjector injector;
    Coordinator coord;
    LearningPipeline pipeline;
    PlanSelector selector;
    ControlLoop control;
    Actuator actuator;

    Tick last_realloc_latency = 0;
    std::size_t realloc_count = 0;
    Tick next_fault_check = 0;
    Tick esd_restore_at = maxTick; ///< pending ESD restoration time
    Watts last_pushed_cap = 0.0;   ///< setCapIfChanged() dedup state
    bool cap_ever_pushed = false;

    /** Cumulative interactive totals already published as counters. */
    struct InteractivePublished
    {
        std::uint64_t arrivals = 0;
        std::uint64_t completions = 0;
        std::uint64_t violations = 0;
    } interactive_published;

    std::map<int, AppRecord> app_records;

    // ControlLoop::Delegate
    void onDeparture(const AccountantEvent &ev) override;
    bool onDrift(int app_id) override;
    bool onCalibrationsDue() override;
    void reallocate(DecisionTrigger trigger) override;

    /** Refresh heartbeat counts of live records. */
    void syncRecords();

    /** Active apps in admission order. */
    std::vector<int> activeIds() const;

    /** Roll and apply injected faults (once per control period). */
    void maybeInjectFaults();

    static LearningConfig learningConfig(const ManagerConfig &cfg);
    static ControlLoopConfig controlConfig(const ManagerConfig &cfg);
    static ManagerConfig normalizedConfig(ManagerConfig cfg);
};

} // namespace psm::core

#endif // PSM_CORE_MANAGER_HH
