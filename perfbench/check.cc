#include "check.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "base/string_util.h"
#include "render/color.h"
#include "trace/state.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kIdle =
    static_cast<std::uint32_t>(trace::CoreState::Idle);
constexpr std::uint32_t kTaskExec =
    static_cast<std::uint32_t>(trace::CoreState::TaskExec);

/** Pixel column @p x of @p view split into @p width columns. */
TimeInterval
column(const TimeInterval &view, std::uint32_t x, std::uint32_t width)
{
    using U = unsigned __int128;
    TimeStamp d = view.duration();
    TimeStamp s = view.start + static_cast<TimeStamp>(U(d) * x / width);
    TimeStamp e = view.start + static_cast<TimeStamp>(U(d) * (x + 1) / width);
    return {s, std::max(s, e)};
}

render::Rgba
laneBackground(CpuId cpu)
{
    return cpu % 2 ? render::kBackgroundAlt : render::kBackground;
}

} // namespace

TraceTotals
totalsOf(const trace::Trace &trace)
{
    TraceTotals t;
    for (CpuId c = 0; c < trace.numCpus(); c++) {
        const auto &tl = trace.cpu(c);
        std::uint64_t dur = 0;
        for (const auto &ev : tl.states())
            dur += ev.interval.duration();
        t.stateCount.push_back(tl.states().size());
        t.stateDuration.push_back(dur);
        for (CounterId id : tl.counterIds())
            for (const auto &s : tl.counterSamples(id)) {
                t.sampleCount++;
                t.sampleSum += s.value;
            }
    }
    t.taskCount = trace.taskInstances().size();
    return t;
}

Checker::Checker(const trace::Trace &trace) : trace_(trace)
{
    prefix_.resize(trace.numCpus());
    for (CpuId c = 0; c < trace.numCpus(); c++) {
        const auto &states = trace.cpu(c).states();
        auto &p = prefix_[c];
        p.assign(states.size() + 1, StateTimes{});
        for (std::size_t i = 0; i < states.size(); i++) {
            p[i + 1] = p[i];
            p[i + 1][std::min(states[i].state, kStates - 1)] +=
                states[i].interval.duration();
        }
    }
    const auto &tasks = trace.taskInstances();
    for (std::size_t i = 0; i < tasks.size(); i++) {
        starts_.push_back(tasks[i].interval.start);
        ends_.push_back(tasks[i].interval.end);
        byStart_.push_back(i);
    }
    std::sort(starts_.begin(), starts_.end());
    std::sort(ends_.begin(), ends_.end());
    std::stable_sort(byStart_.begin(), byStart_.end(),
                     [&](std::size_t a, std::size_t b) {
                         return tasks[a].interval.start <
                                tasks[b].interval.start;
                     });
}

Checker::StateTimes
Checker::stateTimes(const TimeInterval &iv) const
{
    StateTimes out{};
    if (iv.empty())
        return out;
    for (CpuId c = 0; c < trace_.numCpus(); c++) {
        const auto &states = trace_.cpu(c).states();
        // Ends are sorted because states are sorted and disjoint.
        std::size_t first =
            std::partition_point(states.begin(), states.end(),
                                 [&](const trace::StateEvent &e) {
                                     return e.interval.end <= iv.start;
                                 }) -
            states.begin();
        std::size_t last =
            std::partition_point(states.begin() + first, states.end(),
                                 [&](const trace::StateEvent &e) {
                                     return e.interval.start < iv.end;
                                 }) -
            states.begin();
        if (first >= last)
            continue;
        auto clipped = [&](std::size_t i) {
            TimeStamp s = std::max(states[i].interval.start, iv.start);
            TimeStamp e = std::min(states[i].interval.end, iv.end);
            out[std::min(states[i].state, kStates - 1)] += e > s ? e - s : 0;
        };
        clipped(first);
        if (last - first >= 2) {
            clipped(last - 1);
            for (std::uint32_t s = 0; s < kStates; s++)
                out[s] += prefix_[c][last - 1][s] - prefix_[c][first + 1][s];
        }
    }
    return out;
}

std::string
Checker::intervalStats(const stats::IntervalStats &got,
                       const TimeInterval &requested) const
{
    const TimeInterval &iv = got.interval;
    std::uint64_t g = got.resolution.granularityNs;
    if (g == 0) {
        if (!(iv == requested))
            return "exact stats answered another interval";
    } else {
        if (iv.start > requested.start || iv.end < requested.end)
            return "snapped interval does not contain the request";
        if (requested.start - iv.start >= g || iv.end - requested.end >= g)
            return "snapped edge moved by a whole granule";
    }
    StateTimes want = stateTimes(iv);
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < kStates; s++) {
        auto it = got.timeInState.find(s);
        std::uint64_t have = it == got.timeInState.end() ? 0 : it->second;
        if (have != want[s])
            return strFormat("state %u time %llu, expected %llu", s,
                             (unsigned long long)have,
                             (unsigned long long)want[s]);
        total += have;
    }
    for (const auto &[s, t] : got.timeInState)
        if (s >= kStates && t != 0)
            return "time in an unknown state";
    if (total > std::uint64_t(trace_.numCpus()) * iv.duration())
        return "state time exceeds cpus x interval";
    auto below = [](const std::vector<TimeStamp> &v, TimeStamp t) {
        return std::uint64_t(std::lower_bound(v.begin(), v.end(), t) -
                             v.begin());
    };
    std::uint64_t started = below(starts_, iv.end) - below(starts_, iv.start);
    std::uint64_t overlapping = iv.empty()
        ? 0
        : below(starts_, iv.end) -
              std::uint64_t(std::upper_bound(ends_.begin(), ends_.end(),
                                             iv.start) -
                            ends_.begin());
    if (got.tasksStarted != started)
        return strFormat("tasksStarted %llu, expected %llu",
                         (unsigned long long)got.tasksStarted,
                         (unsigned long long)started);
    if (got.tasksOverlapping != overlapping)
        return strFormat("tasksOverlapping %llu, expected %llu",
                         (unsigned long long)got.tasksOverlapping,
                         (unsigned long long)overlapping);
    return {};
}

std::string
Checker::histogram(const stats::Histogram &got,
                   std::optional<TimeInterval> interval,
                   const DurationBand &band) const
{
    std::uint64_t g = got.resolution.granularityNs;
    if (interval && g > 0)
        interval = TimeInterval{interval->start / g * g,
                                (interval->end + g - 1) / g * g};
    const auto &tasks = trace_.taskInstances();
    std::uint64_t want = 0;
    for (std::size_t i : byStart_) {
        const auto &t = tasks[i];
        if (interval && t.interval.start >= interval->end)
            break;
        if (interval && t.interval.start < interval->start)
            continue;
        want += band.accepts(t.duration());
    }
    std::uint64_t bins = 0;
    for (std::uint32_t i = 0; i < got.numBins(); i++)
        bins += got.count(i);
    if (bins != want || got.total() != want)
        return strFormat("histogram holds %llu tasks, expected %llu",
                         (unsigned long long)bins,
                         (unsigned long long)want);
    return {};
}

std::string
Checker::extrema(const index::MinMax &got, CpuId cpu, CounterId counter,
                 const TimeInterval &iv) const
{
    const auto &samples = trace_.cpu(cpu).counterSamples(counter);
    index::MinMax want;
    for (const auto &s : samples) {
        if (s.time < iv.start || s.time >= iv.end)
            continue;
        want.min = want.valid ? std::min(want.min, s.value) : s.value;
        want.max = want.valid ? std::max(want.max, s.value) : s.value;
        want.valid = true;
    }
    if (got.valid != want.valid ||
        (want.valid && (got.min != want.min || got.max != want.max)))
        return strFormat("extrema of cpu %u counter %u differ", cpu,
                         counter);
    return {};
}

std::uint64_t
Checker::exactStateTime(CpuId cpu, std::uint32_t state,
                        const TimeInterval &iv,
                        const DurationBand &band) const
{
    std::uint64_t t = 0;
    for (const auto &ev : trace_.cpu(cpu).states()) {
        if (ev.interval.start >= iv.end)
            break;
        if (ev.state != state || ev.interval.end <= iv.start)
            continue;
        if (band.active && ev.state == kTaskExec &&
            ev.task != kInvalidTaskInstance) {
            const trace::TaskInstance *task = trace_.taskInstance(ev.task);
            if (!task || !band.accepts(task->duration()))
                continue;
        }
        t += ev.interval.overlapDuration(iv);
    }
    return t;
}

std::string
Checker::render(const render::Framebuffer &fb,
                const render::RenderStats &stats, const TimeInterval &view,
                const DurationBand &band) const
{
    const std::uint32_t cpus = trace_.numCpus();
    const std::uint32_t width = fb.width();
    const std::uint32_t lane = std::max<std::uint32_t>(fb.height() / cpus, 1);
    const bool pyramid = !stats.resolution.exact;
    const std::uint64_t g = stats.resolution.granularityNs;
    // 24 sampled columns spread over the frame, the edges included.
    for (std::uint32_t k = 0; k < 24; k++) {
        std::uint32_t x = k * (width - 1) / 23;
        TimeInterval px = column(view, x, width);
        for (CpuId c = 0; c < cpus; c++) {
            std::uint32_t top = fb.height() * c / cpus;
            render::Rgba bg = laneBackground(c);
            if (pyramid) {
                TimeInterval wide{px.start > g ? px.start - g : 0,
                                  px.end + g};
                StateTimes present{};
                for (std::uint32_t s = 0; s < kStates; s++)
                    present[s] = exactStateTime(c, s, wide, {});
                for (std::uint32_t y = top; y < top + lane; y++) {
                    render::Rgba got = fb.pixel(x, y);
                    bool ok = got == bg;
                    for (std::uint32_t s = 0; s < kStates && !ok; s++)
                        ok = present[s] > 0 && got == render::stateColor(s);
                    if (!ok)
                        return strFormat("pixels frame: cpu %u column %u "
                                         "shows an absent state",
                                         c, x);
                }
                continue;
            }
            std::uint64_t best = 0;
            StateTimes t{};
            for (std::uint32_t s = 0; s < kStates; s++) {
                t[s] = exactStateTime(c, s, px, band);
                best = std::max(best, t[s]);
            }
            render::Rgba got = fb.pixel(x, top);
            bool ok = best == 0 && got == bg;
            for (std::uint32_t s = 0; s < kStates && !ok; s++)
                ok = best > 0 && t[s] == best &&
                     got == render::stateColor(s);
            if (!ok)
                return strFormat("exact frame: cpu %u column %u is not a "
                                 "predominant state",
                                 c, x);
        }
    }
    return {};
}

std::uint64_t
Checker::taskListSize(const DurationBand &band) const
{
    std::uint64_t n = 0;
    for (const auto &t : trace_.taskInstances())
        n += band.accepts(t.duration());
    return n;
}

std::string
Checker::anomalies(const std::vector<stats::Anomaly> &got,
                   const stats::AnomalyScanOptions &options,
                   const TimeInterval &scan, const DurationBand &band) const
{
    std::map<stats::AnomalyKind, std::size_t> perKind;
    std::map<stats::AnomalyKind, double> top;
    for (std::size_t i = 0; i < got.size(); i++) {
        const stats::Anomaly &a = got[i];
        if (i > 0 && got[i - 1].severity < a.severity)
            return "findings not sorted by severity";
        perKind[a.kind]++;
        top[a.kind] = std::max(top[a.kind], a.severity);
        switch (a.kind) {
        case stats::AnomalyKind::DurationOutlier: {
            const trace::TaskInstance *task = trace_.taskInstance(a.task);
            if (!task || !(task->interval == a.interval))
                return "outlier names no such task";
            // Welford over the type's tasks overlapping the scan.
            double mean = 0, m2 = 0;
            std::uint64_t n = 0;
            for (const auto &t : trace_.taskInstances()) {
                if (t.type != task->type || !t.interval.overlaps(scan) ||
                    !band.accepts(t.duration()))
                    continue;
                double d = double(t.duration());
                n++;
                double delta = d - mean;
                mean += delta / double(n);
                m2 += delta * (d - mean);
            }
            double sd = std::sqrt(m2 / double(n ? n : 1));
            double limit = mean + options.durationZScore * sd;
            if (n < 10 || double(task->duration()) < limit * (1 - 1e-9))
                return strFormat("task %llu is no outlier",
                                 (unsigned long long)a.task);
            break;
        }
        case stats::AnomalyKind::IdlePhase: {
            // Every scan subdivision wholly inside the phase must have
            // at least the configured fraction of workers idle.
            TimeStamp w = scan.duration() / options.numIntervals;
            std::uint32_t inside = 0;
            for (std::uint32_t k = 0; k < options.numIntervals; k++) {
                TimeInterval sub{scan.start + k * w,
                                 k + 1 == options.numIntervals
                                     ? scan.end
                                     : scan.start + (k + 1) * w};
                if (sub.empty() || sub.start < a.interval.start ||
                    sub.end > a.interval.end)
                    continue;
                inside++;
                double idle = double(stateTimes(sub)[kIdle]) /
                              double(sub.duration());
                if (idle <
                    options.idleWorkerFraction * trace_.numCpus() * (1 - 1e-9))
                    return "idle phase with too few idle workers";
            }
            if (inside == 0)
                return "idle phase covers no subdivision";
            break;
        }
        case stats::AnomalyKind::CounterBurst: {
            const auto &samples =
                trace_.cpu(a.cpu).counterSamples(a.counter);
            std::int64_t dv_sum = 0;
            std::uint64_t dt_sum = 0;
            double rate = -1;
            for (std::size_t k = 1; k < samples.size(); k++) {
                if (samples[k - 1].time < scan.start ||
                    samples[k].time > scan.end)
                    continue;
                std::int64_t dv = samples[k].value - samples[k - 1].value;
                TimeStamp dt = samples[k].time - samples[k - 1].time;
                if (dt == 0 || dv <= 0)
                    continue;
                dv_sum += dv;
                dt_sum += dt;
                if (samples[k - 1].time == a.interval.start &&
                    samples[k].time == a.interval.end)
                    rate = double(dv) / double(dt);
            }
            double mean = dt_sum ? double(dv_sum) / double(dt_sum) : 0;
            if (rate < 0 || rate < options.burstFactor * mean * (1 - 1e-9))
                return "counter burst below the burst factor";
            break;
        }
        }
    }
    for (const auto &[kind, n] : perKind) {
        if (n > options.maxPerKind)
            return "more findings of one kind than maxPerKind";
        if (std::abs(top[kind] - 1.0) > 1e-12)
            return "top severity of a kind is not 1.0";
    }
    return {};
}

std::string
selfTest()
{
    // A small trace: 4 CPUs alternating exec/idle, one counter.
    trace::Trace tr;
    tr.setTopology(trace::MachineTopology::uniform(1, 4));
    for (const auto &d : trace::coreStateDescriptions())
        tr.addStateDescription(d);
    tr.addCounterDescription({0, "c"});
    tr.addTaskType({0x10, "t"});
    TaskInstanceId id = 0;
    for (CpuId c = 0; c < 4; c++) {
        TimeStamp t = c;
        for (int i = 0; i < 40; i++) {
            TimeStamp d = 10 + (i * 7 + c) % 13;
            tr.addTaskInstance({id, 0x10, c, {t, t + d}});
            tr.cpu(c).addState({{t, t + d}, kTaskExec, id++});
            tr.cpu(c).addCounterSample(0, {t, std::int64_t(t * 3)});
            tr.cpu(c).addState({{t + d, t + d + 5}, kIdle,
                                kInvalidTaskInstance});
            t += d + 5;
        }
    }
    std::string err;
    if (!tr.finalize(err))
        return "self-test trace: " + err;
    Checker check(tr);
    TimeInterval iv{100, 400};

    // Reference answers built by hand from the raw events.
    stats::IntervalStats s;
    s.interval = iv;
    Checker::StateTimes times = check.stateTimes(iv);
    for (std::uint32_t k = 0; k < Checker::kStates; k++)
        if (times[k])
            s.timeInState[k] = times[k];
    for (const auto &t : tr.taskInstances()) {
        s.tasksOverlapping += t.interval.overlaps(iv);
        s.tasksStarted += iv.contains(t.interval.start);
    }
    std::vector<double> durations;
    for (const auto &t : tr.taskInstances())
        if (iv.contains(t.interval.start))
            durations.push_back(double(t.duration()));
    stats::Histogram h = stats::Histogram::fromValues(durations, 8);
    // Samples grow with time, so the first and last in the interval
    // are the extrema.
    index::MinMax mm;
    for (const auto &smp : tr.cpu(1).counterSamples(0))
        if (iv.contains(smp.time)) {
            mm.min = mm.valid ? mm.min : smp.value;
            mm.max = smp.value;
            mm.valid = true;
        }

    if (!check.intervalStats(s, iv).empty() ||
        !check.histogram(h, iv, {}).empty() ||
        !check.extrema(mm, 1, 0, iv).empty())
        return "self-test: a correct answer was refused: " +
               check.intervalStats(s, iv) + check.histogram(h, iv, {}) +
               check.extrema(mm, 1, 0, iv);

    stats::IntervalStats bad = s;
    bad.timeInState[kIdle] += 1; // One state duration changed.
    if (check.intervalStats(bad, iv).empty())
        return "self-test: a changed state duration passed";
    bad = s;
    bad.tasksStarted--;
    if (check.intervalStats(bad, iv).empty())
        return "self-test: a wrong task count passed";
    std::vector<std::uint64_t> bins;
    for (std::uint32_t i = 0; i < h.numBins(); i++)
        bins.push_back(h.count(i));
    bins[3]++; // One histogram bin off by one.
    if (check.histogram(stats::Histogram::fromBins(bins, h.rangeMin(),
                                                   h.rangeMax()),
                        iv, {})
            .empty())
        return "self-test: a histogram bin off by one passed";
    index::MinMax badmm = mm;
    badmm.max++;
    if (check.extrema(badmm, 1, 0, iv).empty())
        return "self-test: wrong extrema passed";
    stats::Anomaly fake;
    fake.kind = stats::AnomalyKind::DurationOutlier;
    fake.task = 5;
    fake.interval = tr.taskInstance(5)->interval;
    fake.severity = 1.0;
    if (check.anomalies({fake}, {}, tr.span(), {}).empty())
        return "self-test: a task of ordinary duration passed as outlier";
    render::Framebuffer fb(32, 8);
    fb.clear(render::stateColor(4)); // A state the trace never has.
    if (check.render(fb, {}, tr.span(), {}).empty())
        return "self-test: a frame of an absent state passed";
    return {};
}

} // namespace perfbench
