#include "request_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace psm::sim
{

namespace
{
/** Histogram span as a multiple of the SLO; beyond that a response is
 * catastrophically late and edge-bin clamping loses nothing. */
constexpr double histSpanSlos = 32.0;
constexpr std::size_t histBins = 4096;
} // namespace

RequestQueue::RequestQueue(const perf::AppProfile &profile,
                           std::uint64_t seed)
    : offered_load(profile.offeredLoad),
      hb_per_request(profile.hbPerRequest), slo_p99(profile.sloP99),
      arrival_rng(seed), head_rng(seed),
      response_hist(0.0, histSpanSlos * profile.sloP99, histBins)
{
    if (!profile.interactive())
        fatal("%s: RequestQueue requires an interactive profile (type "
              "%s)",
              profile.name.c_str(),
              perf::appTypeName(profile.type).c_str());
    profile.validate();

    // Seed the open loop: the first arrival lands one exponential gap
    // after t=0, and each arrival draws its successor's gap.
    next_arrival_s = arrival_rng.exponential(offered_load);
}

void
RequestQueue::onArrival()
{
    ++arrived;
    // The head cursor replays this work draw when the request reaches
    // the head; drawing it here keeps the arrival cursor's gaps aligned.
    arrival_rng.exponential(1.0 / hb_per_request);
    if (arrived - done == 1) // arrived to an empty queue
        loadHead();
    next_arrival_s += arrival_rng.exponential(offered_load);
}

void
RequestQueue::loadHead()
{
    // Same draws, same order of additions as the arrival cursor: the
    // head's arrival time is bit-identical to the one it fired at.
    head_arrival_s += head_rng.exponential(offered_load);
    head_work_hb = head_rng.exponential(1.0 / hb_per_request);
}

void
RequestQueue::advance(Tick from, Tick to, double hb_rate)
{
    psm_assert(to >= from);
    Tick t = from;
    while (true) {
        Tick next = toTicks(next_arrival_s);
        Tick seg_end = std::min(std::max(next, t), to);
        serve(t, seg_end, hb_rate);
        t = seg_end;
        if (next > to)
            break;
        // Arrivals sharing a tick fire back to back (the segment
        // between them is empty).
        onArrival();
    }
}

void
RequestQueue::serve(Tick t0, Tick t1, double hb_rate)
{
    if (t1 <= t0)
        return;
    double end_s = toSeconds(t1);
    if (hb_rate <= 0.0) {
        // Stalled server: requests age in place.
        served_until_s = end_s;
        return;
    }
    double now_s = std::max(served_until_s, toSeconds(t0));
    while (done < arrived) {
        // A request cannot start before it arrives (the queue can be
        // momentarily empty in continuous time even though the
        // arrival already fired at its quantized tick).
        double start_s = std::max(now_s, head_arrival_s);
        double finish_s = start_s + head_work_hb / hb_rate;
        if (finish_s > end_s) {
            double served = std::max(0.0, end_s - start_s) * hb_rate;
            head_work_hb = std::max(0.0, head_work_hb - served);
            break;
        }
        now_s = finish_s;
        double response = finish_s - head_arrival_s;
        ++done;
        if (response > slo_p99)
            ++violations;
        response_sum += response;
        response_hist.push(response);
        if (done < arrived)
            loadHead();
    }
    served_until_s = end_s;
}

} // namespace psm::sim
