#include "spans.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench
{

SpanRecorder::SpanRecorder() : origin(Clock::now())
{
    spans.reserve(1 << 16);
}

SpanRecorder::NameId
SpanRecorder::name(const std::string &span, const std::string &layer)
{
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == span)
            return static_cast<NameId>(i);
    }
    names.push_back(span);
    layers.push_back(layer);
    return static_cast<NameId>(names.size() - 1);
}

SpanRecorder::Id
SpanRecorder::begin(NameId name, Id parent, std::uint64_t request)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.startUs = nowUs();
    spans.push_back(s);
    return static_cast<Id>(spans.size() - 1);
}

void
SpanRecorder::end(Id span)
{
    spans[span].endUs = nowUs();
}

void
SpanRecorder::derived(NameId name, Id parent, double duration_us)
{
    Span s;
    s.name = name;
    s.derived = true;
    s.parent = parent;
    s.request = spans[parent].request;
    s.startUs = spans[parent].startUs;
    s.endUs = s.startUs + duration_us;
    spans.push_back(s);
}

std::vector<double>
SpanRecorder::durations(const std::string &span) const
{
    std::vector<double> out;
    auto it = std::find(names.begin(), names.end(), span);
    if (it == names.end())
        return out;
    auto id = static_cast<NameId>(it - names.begin());
    for (const Span &s : spans) {
        if (s.name == id)
            out.push_back(s.endUs - s.startUs);
    }
    return out;
}

std::map<std::string, double>
SpanRecorder::selfTimeByLayer() const
{
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent != kNoParent)
            covered[s.parent] += s.endUs - s.startUs;
    }
    std::map<std::string, double> self;
    for (const std::string &layer : layers)
        self[layer] = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        double own = s.endUs - s.startUs - covered[i];
        self[layers[s.name]] += std::max(own, 0.0);
    }
    return self;
}

double
SpanRecorder::rootTimeUs() const
{
    double total = 0.0;
    for (const Span &s : spans) {
        if (s.parent == kNoParent)
            total += s.endUs - s.startUs;
    }
    return total;
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "{\"id\":" << i << ",\"parent\":"
            << (s.parent == kNoParent ? -1
                                      : static_cast<long long>(s.parent))
            << ",\"request\":" << s.request << ",\"name\":\""
            << names[s.name] << "\",\"layer\":\"" << layers[s.name]
            << "\",\"derived\":" << (s.derived ? "true" : "false")
            << ",\"start_us\":" << s.startUs
            << ",\"end_us\":" << s.endUs << "}\n";
    }
    return static_cast<bool>(out);
}

double
SpanRecorder::measureSpanCostUs()
{
    constexpr int kSpans = 100000;
    SpanRecorder probe;
    NameId n = probe.name("probe", "bench");
    auto t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i)
        probe.end(probe.begin(n, kNoParent, 0));
    return microsBetween(t0, Clock::now()) / kSpans;
}

void
reportTrace(const SpanRecorder &rec, double span_cost_us,
            const std::string &path, Report &rep)
{
    double wall = rec.rootTimeUs();
    std::map<std::string, double> self = rec.selfTimeByLayer();
    // What the harness adds to the traced wall time: the measured cost
    // of recording the spans plus the time no layer claims (an upper
    // bound; the two overlap).
    double span_share =
        ratio(span_cost_us * static_cast<double>(rec.size()), wall);
    double overhead = span_share + ratio(self["bench"], wall);
    rep.perLayer("bench.trace_overhead_frac", overhead, "ratio", rec.size(),
                 "(spans x measured cost per span + unattributed time) / "
                 "traced wall");
    double sum = 0.0;
    for (const auto &[layer, us] : self) {
        rep.perLayer("self_ms." + layer, us / 1000.0, "ms", 1,
                     "self time in the traced part of the run");
        sum += us;
    }
    std::ostringstream os;
    os << "traced wall " << wall / 1000.0 << " ms; layer self times sum to "
       << sum / 1000.0 << " ms; outside the bench layer "
       << (sum - self["bench"]) / 1000.0 << " ms, i.e. the wall within "
       << "the overhead (span cost share " << span_share
       << ", unattributed share " << ratio(self["bench"], wall) << ")";
    rep.note(os.str());
    if (path.empty())
        return;
    bool ok = rec.write(path);
    rep.note("spans: " + std::to_string(rec.size()) +
             (ok ? " written to " + path : " (write failed)"));
}

} // namespace perfbench
