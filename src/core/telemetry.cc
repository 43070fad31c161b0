#include "telemetry.hh"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "coordinator.hh"
#include "plan_selector.hh"
#include "policy.hh"

namespace psm::core
{

namespace
{

/** JSON string escaping: quotes, backslashes, and every control
 * character below 0x20 (named escapes where JSON has them, \u00XX
 * otherwise) — decision triggers may carry arbitrary text. */
std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Emit one JSON number; NaN/Inf have no JSON spelling, so sanitize
 * them to null instead of corrupting the document. */
void
jsonNumber(std::ostream &os, double v)
{
    if (std::isfinite(v))
        os << v;
    else
        os << "null";
}

} // namespace

// --- reads ----------------------------------------------------------

std::uint64_t
Telemetry::counter(const std::string &name) const
{
    trace::EventId id;
    if (!trace::lookupEvent(name, id) ||
        trace::eventKind(id) == trace::EventKind::Timer)
        return 0;
    return counter(id);
}

TimerStat
Telemetry::timer(const std::string &name) const
{
    trace::EventId id;
    if (!trace::lookupEvent(name, id) ||
        trace::eventKind(id) != trace::EventKind::Timer)
        return {};
    return timer(id);
}

std::map<std::string, std::uint64_t>
Telemetry::counters() const
{
    std::map<std::string, std::uint64_t> out;
    forEachTouched([&](trace::EventId id) {
        if (trace::eventKind(id) != trace::EventKind::Timer)
            out.emplace(trace::eventName(id), counter(id));
    });
    return out;
}

std::map<std::string, TimerStat>
Telemetry::timers() const
{
    std::map<std::string, TimerStat> out;
    forEachTouched([&](trace::EventId id) {
        if (trace::eventKind(id) == trace::EventKind::Timer)
            out.emplace(trace::eventName(id), timer(id));
    });
    return out;
}

// --- decision records / merge -----------------------------------------

void
Telemetry::record(const DecisionRecord &rec)
{
    decision_log.push_back(rec);
    if (decision_log.size() > maxDecisions)
        decision_log.pop_front();
}

void
Telemetry::merge(const Telemetry &other)
{
    other.forEachTouched([&](trace::EventId id) {
        auto i = static_cast<std::size_t>(id);
        touched_flag[i] = 1;
        switch (trace::eventKind(id)) {
          case trace::EventKind::Counter:
            counter_value[i] += other.counter_value[i];
            break;
          case trace::EventKind::Timer: {
            TimerStat &t = timer_value[i];
            const TimerStat &o = other.timer_value[i];
            t.count += o.count;
            t.total += o.total;
            t.max = std::max(t.max, o.max);
            break;
          }
          case trace::EventKind::Gauge:
            counter_value[i] = other.counter_value[i];
            break;
        }
    });
}

// --- dumps ----------------------------------------------------------

void
Telemetry::dumpText(std::ostream &os) const
{
    os << "== telemetry ==\n";
    os << "counters:\n";
    for (const auto &[name, value] : counters())
        os << "  " << name << " = " << value << "\n";
    os << "timers:\n";
    for (const auto &[name, t] : timers()) {
        os << "  " << name << ": count=" << t.count
           << " total=" << toSeconds(t.total) << "s"
           << " max=" << toSeconds(t.max) << "s\n";
    }
    os << "decisions (" << decision_log.size() << "):\n";
    for (const DecisionRecord &d : decision_log) {
        os << "  t=" << toSeconds(d.when) << "s"
           << " trigger=" << d.trigger
           << " policy=" << policyName(d.policy)
           << " plan=" << planChoiceName(d.plan)
           << " mode=" << coordinationModeName(d.mode)
           << " objective=" << d.objective << " budget=" << d.budget
           << "W apps=" << d.apps
           << " latency=" << toSeconds(d.latency) << "s\n";
    }
}

void
Telemetry::dumpJson(std::ostream &os) const
{
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters()) {
        os << (first ? "" : ",") << "\"" << jsonEscape(name)
           << "\":" << value;
        first = false;
    }
    os << "},\"timers\":{";
    first = true;
    for (const auto &[name, t] : timers()) {
        os << (first ? "" : ",") << "\"" << jsonEscape(name)
           << "\":{\"count\":" << t.count
           << ",\"total_s\":" << toSeconds(t.total)
           << ",\"max_s\":" << toSeconds(t.max) << "}";
        first = false;
    }
    os << "},\"decisions\":[";
    first = true;
    for (const DecisionRecord &d : decision_log) {
        os << (first ? "" : ",") << "{\"when_s\":" << toSeconds(d.when)
           << ",\"trigger\":\"" << jsonEscape(d.trigger) << "\""
           << ",\"policy\":\"" << jsonEscape(policyName(d.policy))
           << "\""
           << ",\"plan\":\"" << jsonEscape(planChoiceName(d.plan))
           << "\""
           << ",\"mode\":\""
           << jsonEscape(coordinationModeName(d.mode)) << "\""
           << ",\"objective\":";
        jsonNumber(os, d.objective);
        os << ",\"budget_w\":";
        jsonNumber(os, d.budget);
        os << ",\"apps\":" << d.apps
           << ",\"latency_s\":" << toSeconds(d.latency) << "}";
        first = false;
    }
    os << "]}";
}

} // namespace psm::core
