/**
 * @file
 * In-memory spans around the benchmark's calls into each layer.
 *
 * With tracing off, begin() returns 0 and end() does nothing, so the
 * untraced run pays one branch per call site. With tracing on, every
 * span keeps its name, start, end, parent and the step or request it
 * belongs to; the list is written out when the run ends. A layer's
 * self time is its spans' durations minus the time their child spans
 * cover.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

class Spans
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::atomic<std::int64_t> endNs{-1};
        std::uint64_t parent = 0; ///< Span id; 0 = none.
        std::uint64_t step = 0;   ///< Step or request it belongs to.

        Span(std::string n, std::int64_t s, std::uint64_t p,
             std::uint64_t st)
            : name(std::move(n)), startNs(s), parent(p), step(st)
        {}
    };

    explicit Spans(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (0 when tracing is off). */
    std::uint64_t
    begin(const char *name, std::uint64_t parent = 0, std::uint64_t step = 0)
    {
        if (!enabled_)
            return 0;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.emplace_back(name, now(), parent, step);
        return spans_.size();
    }

    /** Close span @p id now (any thread). */
    void
    end(std::uint64_t id)
    {
        if (id != 0)
            at(id).endNs.store(now(), std::memory_order_release);
    }

    /** Wait until span @p id is closed (its closer may still run). */
    void
    awaitEnd(std::uint64_t id)
    {
        if (id == 0)
            return;
        while (at(id).endNs.load(std::memory_order_acquire) < 0)
            std::this_thread::yield();
    }

    /** Durations in seconds of every closed span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Self time in seconds per span name. */
    std::map<std::string, double> selfTimes() const;

    /** Write every span as one JSON object per line. */
    bool dump(const std::string &path) const;

  private:
    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0_)
            .count();
    }

    Span &
    at(std::uint64_t id)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_[id - 1];
    }

    bool enabled_;
    Clock::time_point t0_;
    mutable std::mutex mutex_;
    std::deque<Span> spans_; ///< Deque: references stay valid on append.
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
