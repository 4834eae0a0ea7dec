#include "serve/admission.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/registry.hh"

namespace mech::serve {

namespace {

/** Admission-layer instruments (shed is counted by the front end,
 *  which alone knows whether a refused line was finally shed or
 *  force-admitted as a control request). */
struct AdmissionObs
{
    obs::Gauge &queueDepth;
    obs::Counter &admitted;
    obs::LatencyHistogram &queueWaitUs;

    static AdmissionObs &
    get()
    {
        static AdmissionObs o{
            obs::MetricsRegistry::global().gauge(
                "admission.queue_depth",
                "Request lines queued across all sessions"),
            obs::MetricsRegistry::global().counter(
                "admission.admitted",
                "Request lines accepted into the admission queue"),
            obs::MetricsRegistry::global().histogram(
                "admission.queue_wait_us",
                "Queue residency from admission to dispatch in "
                "microseconds"),
        };
        return o;
    }
};

} // namespace

AdmissionQueue::AdmissionQueue(AdmissionConfig cfg_in)
    : cfg(cfg_in)
{
}

void
AdmissionQueue::armLocked(std::uint64_t sid, Session &session)
{
    if (session.inFlight || session.inRing || session.lines.empty())
        return;
    session.inRing = true;
    ring.push_back(sid);
    cv.notify_one();
}

void
AdmissionQueue::addSession(std::uint64_t sid)
{
    std::lock_guard<std::mutex> lock(mtx);
    sessions.emplace(sid, Session{});
}

void
AdmissionQueue::removeSession(std::uint64_t sid)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = sessions.find(sid);
    if (it == sessions.end())
        return;
    totalQueued -= it->second.lines.size();
    AdmissionObs::get().queueDepth.sub(
        static_cast<std::int64_t>(it->second.lines.size()));
    if (stopped)
        cv.notify_all();
    if (it->second.inRing) {
        for (auto rit = ring.begin(); rit != ring.end(); ++rit) {
            if (*rit == sid) {
                ring.erase(rit);
                break;
            }
        }
    }
    sessions.erase(it);
}

bool
AdmissionQueue::offer(std::uint64_t sid, QueuedLine line)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (stopped)
        return false;
    auto it = sessions.find(sid);
    if (it == sessions.end())
        return false;
    Session &session = it->second;
    if (totalQueued >= cfg.maxQueue ||
        session.lines.size() >= cfg.maxInflight) {
        return false;
    }
    session.lines.push_back(std::move(line));
    ++totalQueued;
    AdmissionObs &o = AdmissionObs::get();
    o.queueDepth.add(1);
    o.admitted.inc();
    armLocked(sid, session);
    return true;
}

bool
AdmissionQueue::force(std::uint64_t sid, QueuedLine line)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (stopped)
        return false;
    auto it = sessions.find(sid);
    if (it == sessions.end())
        return false;
    it->second.lines.push_back(std::move(line));
    ++totalQueued;
    AdmissionObs &o = AdmissionObs::get();
    o.queueDepth.add(1);
    o.admitted.inc();
    armLocked(sid, it->second);
    return true;
}

void
AdmissionQueue::holdDispatch(bool held_in)
{
    std::lock_guard<std::mutex> lock(mtx);
    held = held_in;
    if (!held)
        cv.notify_all();
}

bool
AdmissionQueue::nextBatch(Batch *out)
{
    std::unique_lock<std::mutex> lock(mtx);
    cv.wait(lock, [this] {
        if (stopped && totalQueued == 0)
            return true; // fully drained
        // Drain ignores any standing hold.  An empty ring with lines
        // still queued means every owner is in flight: wait for a
        // completed() to re-arm one rather than exiting early.
        return !ring.empty() && (!held || stopped);
    });
    if (ring.empty())
        return false; // stopped and fully drained

    const std::uint64_t sid = ring.front();
    ring.pop_front();
    Session &session = sessions.at(sid);
    session.inRing = false;
    session.inFlight = true;

    out->sid = sid;
    out->lines.clear();
    const std::size_t n =
        std::min(cfg.maxBatch, session.lines.size());
    out->lines.reserve(n);
    AdmissionObs &o = AdmissionObs::get();
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        o.queueWaitUs.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                now - session.lines.front().received)
                .count()));
        out->lines.push_back(std::move(session.lines.front()));
        session.lines.pop_front();
    }
    totalQueued -= n;
    o.queueDepth.sub(static_cast<std::int64_t>(n));
    if (stopped && totalQueued == 0)
        cv.notify_all(); // release dispatchers waiting out the drain
    return true;
}

void
AdmissionQueue::completed(std::uint64_t sid)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = sessions.find(sid);
    if (it != sessions.end()) {
        it->second.inFlight = false;
        armLocked(sid, it->second);
    }
    if (stopped)
        cv.notify_all();
}

void
AdmissionQueue::stop()
{
    std::lock_guard<std::mutex> lock(mtx);
    stopped = true;
    cv.notify_all();
}

std::size_t
AdmissionQueue::pending() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return totalQueued;
}

} // namespace mech::serve
