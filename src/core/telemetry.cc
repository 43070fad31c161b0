#include "telemetry.hh"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace psm::core
{

namespace
{

/** JSON string escaping: quotes, backslashes, and every control
 * character below 0x20 (named escapes where JSON has them, \u00XX
 * otherwise) — decision triggers may carry arbitrary text. */
std::string
jsonEscape(const std::string &s)
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

std::uint64_t
Telemetry::counter(trace::EventId id) const
{
    return trace_sink.counterValue(id);
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

TimerStat
Telemetry::timer(trace::EventId id) const
{
    return trace_sink.timerValue(id);
}

// --- decision records ----------------------------------------------

std::uint32_t
Telemetry::intern(const std::string &s)
{
    auto it = intern_ids.find(s);
    if (it != intern_ids.end())
        return it->second;
    auto id = static_cast<std::uint32_t>(intern_table.size());
    intern_table.push_back(s);
    intern_ids.emplace(s, id);
    return id;
}

void
Telemetry::record(DecisionRecord rec)
{
    PackedDecision d;
    d.when = rec.when;
    d.latency = rec.latency;
    d.objective = rec.objective;
    d.budget = rec.budget;
    d.apps = rec.apps;
    d.trigger = intern(rec.trigger);
    d.policy = intern(rec.policy);
    d.plan = intern(rec.plan);
    d.mode_name = intern(rec.mode);
    packed_log.push_back(d);
    while (packed_log.size() > maxDecisions)
        packed_log.pop_front();
    ++decision_gen;
}

const std::deque<DecisionRecord> &
Telemetry::decisions() const
{
    if (decision_view_gen != decision_gen) {
        decision_view.clear();
        for (const PackedDecision &d : packed_log) {
            DecisionRecord rec;
            rec.when = d.when;
            rec.trigger = intern_table[d.trigger];
            rec.policy = intern_table[d.policy];
            rec.plan = intern_table[d.plan];
            rec.mode = intern_table[d.mode_name];
            rec.objective = d.objective;
            rec.budget = d.budget;
            rec.apps = static_cast<std::size_t>(d.apps);
            rec.latency = d.latency;
            decision_view.push_back(std::move(rec));
        }
        decision_view_gen = decision_gen;
    }
    return decision_view;
}

// --- aggregate views -----------------------------------------------

const std::map<std::string, std::uint64_t> &
Telemetry::counters() const
{
    if (counter_view_seq != trace_sink.publishSeq()) {
        counter_view.clear();
        trace_sink.forEachTouched([&](trace::EventId id) {
            if (trace::eventKind(id) != trace::EventKind::Timer) {
                counter_view[std::string(trace::eventName(id))] =
                    trace_sink.counterValue(id);
            }
        });
        counter_view_seq = trace_sink.publishSeq();
    }
    return counter_view;
}

const std::map<std::string, TimerStat> &
Telemetry::timers() const
{
    if (timer_view_seq != trace_sink.publishSeq()) {
        timer_view.clear();
        trace_sink.forEachTouched([&](trace::EventId id) {
            if (trace::eventKind(id) == trace::EventKind::Timer)
                timer_view[std::string(trace::eventName(id))] = timer(id);
        });
        timer_view_seq = trace_sink.publishSeq();
    }
    return timer_view;
}

// --- merge / fold ---------------------------------------------------

void
Telemetry::merge(const Telemetry &other)
{
    trace_sink.mergeFrom(other.trace_sink);
}

void
Telemetry::foldInto(trace::TraceSink &out) const
{
    out.mergeFrom(trace_sink);
}

void
Telemetry::reset()
{
    trace_sink.reset();
    packed_log.clear();
    intern_table.clear();
    intern_ids.clear();
    decision_view.clear();
    counter_view.clear();
    timer_view.clear();
    ++decision_gen;
    counter_view_seq = ~0ULL;
    timer_view_seq = ~0ULL;
    decision_view_gen = ~0ULL;
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
    const auto &log = decisions();
    os << "decisions (" << log.size() << "):\n";
    for (const auto &d : log) {
        os << "  t=" << toSeconds(d.when) << "s"
           << " trigger=" << d.trigger << " policy=" << d.policy
           << " plan=" << d.plan << " mode=" << d.mode
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
    for (const auto &d : decisions()) {
        os << (first ? "" : ",") << "{\"when_s\":" << toSeconds(d.when)
           << ",\"trigger\":\"" << jsonEscape(d.trigger) << "\""
           << ",\"policy\":\"" << jsonEscape(d.policy) << "\""
           << ",\"plan\":\"" << jsonEscape(d.plan) << "\""
           << ",\"mode\":\"" << jsonEscape(d.mode) << "\""
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
