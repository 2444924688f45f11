/**
 * @file
 * Independent answers for every result the benchmark receives.
 *
 * A Checker is built once from a trace's raw events (per-CPU state
 * arrays, counter samples, task instances) and recomputes each answer
 * its own way: prefix sums per state instead of the program's slice
 * scans or pyramids, sorted start/end arrays for task counts, its own
 * Welford pass for duration outliers. Nothing here goes through
 * session::Session or the daemon. Every check returns an empty string
 * on success and a one-line reason otherwise.
 */

#ifndef PERFBENCH_CHECK_H
#define PERFBENCH_CHECK_H

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "index/counter_index.h"
#include "render/framebuffer.h"
#include "render/render_stats.h"
#include "stats/anomaly.h"
#include "stats/histogram.h"
#include "stats/interval_stats.h"
#include "trace/trace.h"

namespace perfbench {

using namespace aftermath;

/** The task filter a workload toggles: durations in [min, max]. */
struct DurationBand
{
    bool active = false;
    TimeStamp min = 0;
    TimeStamp max = 0;

    bool
    accepts(TimeStamp d) const
    {
        return !active || (d >= min && d <= max);
    }
};

/** Totals that identify a trace's content. */
struct TraceTotals
{
    std::vector<std::uint64_t> stateCount;    ///< Per CPU.
    std::vector<std::uint64_t> stateDuration; ///< Per CPU.
    std::uint64_t sampleCount = 0;
    std::int64_t sampleSum = 0;
    std::uint64_t taskCount = 0;

    bool operator==(const TraceTotals &) const = default;
};

TraceTotals totalsOf(const trace::Trace &trace);

class Checker
{
  public:
    static constexpr std::uint32_t kStates = 8;
    using StateTimes = std::array<std::uint64_t, kStates>;

    explicit Checker(const trace::Trace &trace);

    const trace::Trace &trace() const { return trace_; }

    /** Per-state time of all CPUs inside @p iv. */
    StateTimes stateTimes(const TimeInterval &iv) const;

    /**
     * Interval stats for @p requested. Exact answers must match the
     * requested interval; approximate ones must report a covering
     * interval whose edges moved by less than their granularity, and
     * match the sums over that interval.
     */
    std::string intervalStats(const stats::IntervalStats &got,
                              const TimeInterval &requested) const;

    /** Bins sum to the filter-passing tasks starting in the interval. */
    std::string histogram(const stats::Histogram &got,
                          std::optional<TimeInterval> interval,
                          const DurationBand &band) const;

    /** Min/max over the samples in @p iv (already snapped). */
    std::string extrema(const index::MinMax &got, CpuId cpu,
                        CounterId counter, const TimeInterval &iv) const;

    /**
     * State-mode frame of @p view: exact frames show a predominant
     * state per sampled pixel, pyramid frames only states present in
     * the column widened by one granule.
     */
    std::string render(const render::Framebuffer &fb,
                       const render::RenderStats &stats,
                       const TimeInterval &view,
                       const DurationBand &band) const;

    /** Each finding meets its detector's definition. */
    std::string anomalies(const std::vector<stats::Anomaly> &got,
                          const stats::AnomalyScanOptions &options,
                          const TimeInterval &scan,
                          const DurationBand &band) const;

    /** Tasks passing @p band, in trace order. */
    std::uint64_t taskListSize(const DurationBand &band) const;

  private:
    /** Time of @p state on @p cpu in @p iv, honouring @p band. */
    std::uint64_t exactStateTime(CpuId cpu, std::uint32_t state,
                                 const TimeInterval &iv,
                                 const DurationBand &band) const;

    const trace::Trace &trace_;
    /** prefix_[cpu][i][s]: time in state s of states [0, i). */
    std::vector<std::vector<StateTimes>> prefix_;
    std::vector<TimeStamp> starts_; ///< Sorted task starts.
    std::vector<TimeStamp> ends_;   ///< Sorted task ends.
    std::vector<std::size_t> byStart_; ///< Task indices by start.
};

/**
 * Feed perturbed answers to a Checker over a small trace and confirm
 * each one is refused. Returns an empty string when every perturbation
 * was caught.
 */
std::string selfTest();

} // namespace perfbench

#endif // PERFBENCH_CHECK_H
