#include "power_trace.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <utility>

#include "util/logging.hh"
#include "util/parse.hh"

namespace psm::cluster
{

Watts
PowerTrace::at(Tick t) const
{
    psm_assert(!values.empty() && interval > 0);
    std::size_t ix = static_cast<std::size_t>(t / interval);
    ix = std::min(ix, values.size() - 1);
    return values[ix];
}

Tick
PowerTrace::duration() const
{
    return interval * static_cast<Tick>(values.size());
}

Watts
PowerTrace::peak() const
{
    psm_assert(!values.empty());
    return *std::max_element(values.begin(), values.end());
}

Watts
PowerTrace::mean() const
{
    psm_assert(!values.empty());
    double sum = 0.0;
    for (Watts v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

PowerTrace
generateDiurnalDemand(const TraceConfig &config)
{
    psm_assert(config.points >= 2);
    psm_assert(config.peak > config.floor && config.floor > 0.0);

    Rng rng(config.seed);
    PowerTrace trace;
    trace.interval = config.interval;
    trace.values.reserve(config.points);

    double n = static_cast<double>(config.points);
    for (std::size_t i = 0; i < config.points; ++i) {
        double day = static_cast<double>(i) / n; // 0..1 over the day
        // Base diurnal: low overnight, high during working hours.
        double base = 0.5 - 0.5 * std::cos(2.0 * M_PI * day);
        // Double hump: morning and evening activity peaks.
        double hump = 0.15 * std::exp(-50.0 * (day - 0.40) *
                                      (day - 0.40)) +
                      0.20 * std::exp(-50.0 * (day - 0.80) *
                                      (day - 0.80));
        double shape = std::min(base + hump, 1.0);
        Watts demand = config.floor +
                       (config.peak - config.floor) * shape;
        demand *= 1.0 + rng.gaussian(0.0, config.noise);
        trace.values.push_back(std::clamp(demand, config.floor * 0.8,
                                          config.peak * 1.05));
    }
    return trace;
}

PowerTrace
peakShavingCaps(const PowerTrace &demand, double shave)
{
    psm_assert(shave >= 0.0 && shave < 1.0);
    PowerTrace caps;
    caps.interval = demand.interval;
    Watts ceiling = demand.peak() * (1.0 - shave);
    caps.values.reserve(demand.values.size());
    for (Watts v : demand.values)
        caps.values.push_back(std::min(v, ceiling));
    return caps;
}

void
saveTraceCsv(const PowerTrace &trace, const std::string &path)
{
    psm_assert(!trace.values.empty() && trace.interval > 0);
    std::ofstream out(path);
    if (!out)
        fatal("cannot write trace to '%s'", path.c_str());
    out.precision(12);
    out << "seconds,watts\n";
    for (std::size_t i = 0; i < trace.values.size(); ++i) {
        out << toSeconds(static_cast<Tick>(i) * trace.interval) << ','
            << trace.values[i] << '\n';
    }
    if (!out)
        fatal("short write to '%s'", path.c_str());
}

bool
loadTraceCsv(const std::string &path, PowerTrace &out, std::string *error)
{
    std::size_t line_no = 0;
    auto fail = [&](const std::string &msg) {
        if (error != nullptr) {
            *error = "trace '" + path + "'" +
                     (line_no > 0 ? " line " + std::to_string(line_no)
                                  : std::string()) +
                     ": " + msg;
        }
        return false;
    };
    // One field of a row, trailing blanks (and a CRLF's '\r') trimmed;
    // parseFiniteDouble rejects anything else after the number.
    auto field = [](const std::string &line, std::size_t from,
                    std::size_t to) {
        std::string f = line.substr(from, to - from);
        f.erase(f.find_last_not_of(" \t\r") + 1);
        return f;
    };

    std::ifstream in(path);
    if (!in)
        return fail("cannot be read");

    PowerTrace trace;
    std::string line;
    double prev_t = 0.0, step = 0.0;
    bool header_checked = false;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        if (!header_checked) {
            header_checked = true;
            // Skip a header row if present.
            if (line.find_first_not_of("0123456789.,+-eE \t\r") !=
                std::string::npos) {
                continue;
            }
        }
        std::size_t comma = line.find(',');
        if (comma == std::string::npos ||
            line.find(',', comma + 1) != std::string::npos)
            return fail("expected 'seconds,watts', got '" + line + "'");
        std::string t_text = field(line, 0, comma);
        std::string w_text = field(line, comma + 1, line.size());
        double t = 0.0, w = 0.0;
        if (!util::parseFiniteDouble(t_text.c_str(), t))
            return fail("seconds '" + t_text + "' is not a finite number");
        if (!util::parseFiniteDouble(w_text.c_str(), w))
            return fail("watts '" + w_text + "' is not a finite number");
        if (w < 0.0)
            return fail("watts '" + w_text + "' is negative");

        if (trace.values.size() == 1) {
            step = t - prev_t;
            if (!(step > 0.0))
                return fail("timestamps must increase");
            // Round as toTicks() does, but refuse what it cannot
            // represent instead of truncating or overflowing.
            double ticks = step * static_cast<double>(ticksPerSecond);
            if (ticks + 0.5 < 1.0)
                return fail("step rounds to zero ticks");
            if (!(ticks + 0.5 < static_cast<double>(maxTick)))
                return fail("step does not fit a Tick");
        } else if (!trace.values.empty() &&
                   std::abs((t - prev_t) - step) > 1e-6 * step) {
            return fail("not uniformly spaced");
        }
        prev_t = t;
        trace.values.push_back(w);
    }
    line_no = 0; // file-level errors name no line
    if (trace.values.size() < 2)
        return fail("needs at least two points");
    trace.interval = toTicks(step);
    out = std::move(trace);
    return true;
}

PowerTrace
loadFollowingCaps(const PowerTrace &demand, Watts uncapped,
                  double shave)
{
    psm_assert(shave >= 0.0 && shave < 1.0);
    psm_assert(uncapped > 0.0);
    Watts peak = demand.peak();
    Watts low = *std::min_element(demand.values.begin(),
                                  demand.values.end());
    psm_assert(peak > low);

    PowerTrace caps;
    caps.interval = demand.interval;
    caps.values.reserve(demand.values.size());
    for (Watts v : demand.values) {
        double shape = (v - low) / (peak - low);
        caps.values.push_back(uncapped * (1.0 - shave * shape));
    }
    return caps;
}

} // namespace psm::cluster
