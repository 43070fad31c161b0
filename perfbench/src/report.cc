#include "report.hh"

#include <sys/resource.h>

#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/stats.hh"

namespace perfbench
{

double
quantile(const std::vector<double> &samples, double p)
{
    return psm::percentileOf(samples, p);
}

double
median(const std::vector<double> &samples)
{
    return quantile(samples, 50.0);
}

double
peakRssMb()
{
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
exact(double v)
{
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v;
    return os.str();
}

void
Report::metric(Set set, const std::string &name, double value,
               const std::string &unit, std::size_t samples,
               const std::string &note)
{
    metrics.push_back({set, name, value, unit, samples, note});
}

void
Report::gate(const std::string &name, bool ok, const std::string &detail)
{
    gates.push_back({name, ok, detail});
}

void
Report::phase(const std::string &name, const PhaseCount &c)
{
    std::ostringstream os;
    os << "phase " << name << ": sent=" << c.sent << " ok=" << c.ok
       << " rejected=" << c.rejected << " failed=" << c.failed()
       << " (shed=" << c.shed << " expired=" << c.expired
       << " bad_request=" << c.badRequest
       << " transport_or_no_reply=" << c.transport << ")";
    lines.push_back(os.str());
}

void
Report::note(const std::string &line)
{
    lines.push_back(line);
}

void
Report::require(Set set,
                const std::vector<std::pair<std::string, std::string>> &wanted)
{
    for (const auto &[name, unit] : wanted) {
        bool found = false;
        for (const Metric &m : metrics)
            found = found || (m.set == set && m.name == name);
        if (found)
            continue;
        if (set == Set::EndToEnd)
            gate("reported_" + name, false, "metric missing");
        else
            metric(set, name, 0.0, unit, 0, "layer not exercised here");
    }
}

bool
Report::correct() const
{
    for (const Gate &g : gates) {
        if (!g.ok)
            return false;
    }
    for (const Metric &m : metrics) {
        if (m.set == want && !std::isfinite(m.value))
            return false;
    }
    return true;
}

void
Report::print(std::ostream &os) const
{
    for (const std::string &line : lines)
        os << "# " << line << "\n";
    for (const Metric &m : metrics) {
        const char *kind = m.set == Set::EndToEnd   ? "e2e "
                           : m.set == Set::PerLayer ? "layer "
                                                    : "e2e-detail ";
        std::ostringstream value;
        if (m.set == Set::Detail)
            value << exact(m.value);
        else
            value << std::setprecision(6) << m.value;
        os << "# " << kind << m.name << " = " << value.str() << " "
           << m.unit << " (n=" << m.samples << ")";
        if (!m.note.empty())
            os << "  [" << m.note << "]";
        os << "\n";
    }
    for (const Gate &g : gates) {
        os << "# gate " << g.name << ": " << (g.ok ? "PASS" : "FAIL")
           << " (" << g.detail << ")\n";
    }

    std::ostringstream js;
    js << std::setprecision(std::numeric_limits<double>::max_digits10);
    js << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << n_attempted
       << ", \"failed\": " << n_failed << ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics) {
        if (m.set != want)
            continue;
        double v = std::isfinite(m.value) ? m.value : 0.0;
        js << (first ? "" : ", ") << "\"" << m.name
           << "\": {\"value\": " << v << ", \"unit\": \"" << m.unit
           << "\"}";
        first = false;
    }
    js << "}}";
    os << js.str() << std::endl;
}

} // namespace perfbench
