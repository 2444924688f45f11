/**
 * @file
 * End-to-end benchmark: opening, exploring and serving traces.
 *
 *   perfbench --workload open|explore|serve --seed N --seconds S --trace 0|1
 *   perfbench --self-test
 *
 * The inputs are simulated from the seed (the seidel and k-means task
 * sets on the bundled runtime simulator) and written to trace files
 * before anything is timed. The program is then driven through its
 * public API only, every answer is checked against an independent
 * computation (check.h), and the last line of standard output is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 the
 * run records spans around every call (spans.h) and reports the
 * per-layer ones. See README.md for the workloads and metric table.
 */

#include <sys/resource.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "aftermath.h"
#include "base/rng.h"
#include "check.h"
#include "daemon/client.h"
#include "daemon/server.h"
#include "spans.h"
#include "trace/reader.h"
#include "trace/writer.h"

using namespace aftermath;
using namespace perfbench;

namespace {

constexpr std::uint32_t kWidth = 1920;   ///< Viewport of local frames.
constexpr std::uint32_t kHeight = 384;   ///< Two rows per seidel lane.
constexpr std::uint32_t kServeWidth = 480;  ///< Remote viewer frames.
constexpr std::uint32_t kServeHeight = 192;
constexpr int kFilterPeriod = 8; ///< Steps 6 and 7 of every 8 filter.
constexpr int kOpens = 7; ///< Set-up opens of explore and serve.

// -- Results -------------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t i = std::min(v.size() - 1, std::size_t(q * double(v.size())));
    return v[i];
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0 : sum / double(v.size());
}

double
median(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    std::size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/** Everything one run measures, counts and checks. */
struct Run
{
    explicit Run(bool traced) : spans(traced) {}

    Spans spans;
    std::atomic<std::uint64_t> attempted{0};
    std::atomic<std::uint64_t> failed{0};

    std::mutex mutex; ///< Guards everything below.
    std::string firstError;
    double setup = 0;
    std::vector<double> firstFrame, frames, rpcs, scans;
    double rpcBusy = 0;   ///< Summed round trips of sequential clients.
    double rpcWindow = 0; ///< Wall time of the concurrent clients' loop.
    double rpcCompleted = 0; ///< Requests the concurrent clients completed.
    std::vector<double> rectOps, nodesTouched, indexesBuilt;
    double fileMib = 0;

    /** Record a check result; the first failure is kept. */
    void
    check(const std::string &error, const char *what)
    {
        if (error.empty())
            return;
        std::lock_guard<std::mutex> lock(mutex);
        if (firstError.empty())
            firstError = std::string(what) + ": " + error;
    }

    /** Count one operation; false outcomes count as failed. */
    bool
    op(bool ok)
    {
        attempted++;
        if (!ok)
            failed++;
        return ok;
    }

    void
    add(std::vector<double> &to, double v)
    {
        std::lock_guard<std::mutex> lock(mutex);
        to.push_back(v);
    }
};

/** Close span @p id when @p ticket completes (traced runs only). */
template <typename T>
std::uint64_t
traceTicket(Run &run, session::QueryTicket<T> &ticket, const char *name,
            std::uint64_t parent, std::uint64_t step)
{
    std::uint64_t id = run.spans.begin(name, parent, step);
    if (id != 0) {
        Spans *spans = &run.spans;
        ticket.onComplete([spans, id](session::QueryStatus) {
            spans->end(id);
        });
    }
    return id;
}

/** Wait for @p ticket; counts it, false unless it ended Done. */
template <typename T>
bool
settle(Run &run, session::QueryTicket<T> &ticket, std::uint64_t span)
{
    bool ok = ticket.wait() == session::QueryStatus::Done;
    run.spans.awaitEnd(span);
    return run.op(ok);
}

/** Time the render reply codec on @p fb (traced runs only). */
void
traceCodec(Run &run, const render::Framebuffer &fb,
           const render::RenderStats &stats, std::uint64_t parent)
{
    if (!run.spans.enabled())
        return;
    std::uint64_t id = run.spans.begin("daemon.render_codec", parent);
    daemon::RenderReply reply{fb, stats};
    ByteWriter w;
    daemon::encodeRenderReply(reply, w);
    std::vector<std::uint8_t> bytes = w.take();
    ByteReader r(bytes);
    daemon::RenderReply back;
    bool ok = daemon::decodeRenderReply(r, back);
    run.spans.end(id);
    run.check(ok ? "" : "render reply did not round-trip", "codec");
}

// -- Inputs --------------------------------------------------------------

/** The two trace shapes, simulated from the seed and written once. */
struct Inputs
{
    struct Shape
    {
        std::string name;
        trace::Trace trace;
        std::string path;
        TraceTotals totals;
        std::unique_ptr<Checker> check;
        DurationBand band; ///< The filter the walk toggles.
        std::vector<std::pair<CpuId, CounterId>> sampled;
    };
    Shape seidel, kmeans;
    std::string dir;

    ~Inputs()
    {
        std::error_code ec;
        if (!dir.empty())
            std::filesystem::remove_all(dir, ec);
    }
};

runtime::RunResult
simulateSeidel(std::uint64_t seed)
{
    runtime::RuntimeConfig config;
    config.machine = machine::MachineSpec::uv2000();
    config.scheduling = runtime::SchedulingPolicy::RandomSteal;
    config.placement = machine::PlacementPolicy::FirstTouch;
    config.seed = 12345 + seed * 7919;
    config.cost.cyclesPerWorkUnit = 1.0;
    config.cost.cyclesPerByteLocal = 0.5;
    config.cost.pageFaultCycles = 90'000;
    config.cost.taskCreationCycles = 900;
    config.cost.durationNoise = 0.03;
    workloads::SeidelParams params;
    params.blocksX = 64;
    params.blocksY = 64;
    params.blockDim = 128;
    params.iterations = 30;
    params.workPerElement = 1;
    params.numNodes = config.machine.topology.numNodes();
    runtime::RuntimeSystem rts(config);
    return rts.run(workloads::buildSeidel(params));
}

runtime::RunResult
simulateKmeans(std::uint64_t seed)
{
    runtime::RuntimeConfig config;
    config.machine = machine::MachineSpec::opteron64();
    config.scheduling = runtime::SchedulingPolicy::RandomSteal;
    config.placement = machine::PlacementPolicy::FirstTouch;
    config.seed = seed * 7919 + 13;
    config.cost.cyclesPerWorkUnit = 1.0;
    config.cost.cyclesPerByteLocal = 0.25;
    config.cost.pageFaultCycles = 30'000;
    config.cost.taskCreationCycles = 2'500;
    config.cost.taskOverheadCycles = 8'000;
    config.cost.mispredictPenaltyCycles = 60;
    config.cost.durationNoise = 0.05;
    workloads::KmeansParams params;
    params.numPoints = 20'480'000;
    params.dims = 10;
    params.clusters = 11;
    params.pointsPerBlock = 10'000;
    params.iterations = 8;
    params.workPerTerm = 6.0;
    params.seed = seed;
    params.numNodes = config.machine.topology.numNodes();
    runtime::RuntimeSystem rts(config);
    return rts.run(workloads::buildKmeans(params));
}

bool
prepare(Inputs::Shape &shape, runtime::RunResult sim, const std::string &dir,
        Rng &rng, Run &run)
{
    if (!sim.ok) {
        std::fprintf(stderr, "simulation failed: %s\n", sim.error.c_str());
        return false;
    }
    shape.trace = std::move(sim.trace);
    shape.path = dir + "/" + shape.name + ".ostv";
    std::string error;
    if (!trace::writeTraceFile(shape.trace, shape.path,
                               trace::Encoding::Compact, error)) {
        std::fprintf(stderr, "writing %s failed: %s\n", shape.path.c_str(),
                     error.c_str());
        return false;
    }
    run.fileMib +=
        double(std::filesystem::file_size(shape.path)) / (1024.0 * 1024.0);
    shape.totals = totalsOf(shape.trace);
    shape.check = std::make_unique<Checker>(shape.trace);
    std::vector<TimeStamp> d;
    for (const auto &t : shape.trace.taskInstances())
        d.push_back(t.duration());
    std::sort(d.begin(), d.end());
    double q = rng.nextRange(0.3, 0.6);
    shape.band = {true, d[std::size_t(q * double(d.size()))], d.back()};
    for (CpuId c = 0; c < shape.trace.numCpus(); c++)
        for (CounterId id : shape.trace.cpu(c).counterIds())
            shape.sampled.push_back({c, id});
    return !shape.sampled.empty();
}

// -- The seeded zoom/pan walk --------------------------------------------

/**
 * The seeded zoom/pan walk. The zoom follows a fixed triangle from the
 * full span down to 1/1000 of it and back every 16 steps, so every
 * run sees the same mix of zoom levels; the seed picks where each view
 * lands.
 */
struct Walk
{
    Walk(TimeInterval span, std::uint64_t seed) : span(span), rng(seed) {}

    TimeInterval
    next()
    {
        int phase = int(step++ % 16);
        double zoom = 3.0 * (phase <= 8 ? phase : 16 - phase) / 8.0;
        double dur = double(span.duration()) / std::pow(10.0, zoom);
        double start = double(span.start) +
                       rng.nextDouble() * (double(span.duration()) - dur);
        auto s = TimeStamp(start);
        return {s, std::max(s + 1, TimeStamp(start + dur))};
    }

    TimeInterval span;
    Rng rng;
    std::uint64_t step = 0;
};

TimeInterval
randomInterval(Rng &rng, TimeInterval span)
{
    double frac = std::pow(10.0, -rng.nextRange(0.0, 3.0));
    auto dur = TimeStamp(double(span.duration()) * frac);
    TimeStamp start = span.start + rng.nextBounded(span.duration() - dur + 1);
    return {start, start + std::max<TimeStamp>(dur, 1)};
}

filter::FilterSet
filterOf(const DurationBand &band)
{
    filter::FilterSet set;
    if (band.active)
        set.add(std::make_shared<filter::DurationFilter>(band.min, band.max));
    return set;
}

// -- Local session: open, view step, scan --------------------------------

struct Opened
{
    std::shared_ptr<Session> session;
    double firstFrame = 0; ///< Read call -> first frame, seconds.
    double ready = 0;      ///< Read call -> warm and pyramids built.
};

Opened
openLocal(Run &run, const Inputs::Shape &shape, std::uint64_t step)
{
    Opened out;
    const Clock::time_point t0 = Clock::now();
    std::uint64_t open = run.spans.begin("open", 0, step);
    std::uint64_t span = run.spans.begin("trace.read", open, step);
    trace::ReadOptions options;
    options.workers = 0;
    trace::ReadResult read = trace::readTraceFile(shape.path, options);
    run.spans.end(span);
    if (!run.op(read.ok)) {
        run.check(read.error, "read");
        return out;
    }
    auto loaded = std::make_shared<const trace::Trace>(std::move(read.trace));
    out.session = std::make_shared<Session>(loaded);
    Session &s = *out.session;
    s.setConcurrency({0});

    // First frame: whole-span State render and stats at 1920 px.
    const TimeInterval whole = loaded->span();
    session::TimelineRenderQuery rq;
    rq.context = {whole, session::QueryPriority::Interactive,
                  Resolution::pixels(kWidth)};
    rq.config.view = whole;
    rq.width = kWidth;
    rq.height = kHeight;
    auto render = s.submit(rq);
    std::uint64_t rs = traceTicket(run, render, "render.pixels", open, step);
    auto stats = s.submit(session::IntervalStatsQuery{
        {whole, session::QueryPriority::Interactive,
         Resolution::pixels(kWidth)}});
    std::uint64_t ss = traceTicket(run, stats, "stats.pixels", open, step);
    bool ok = settle(run, render, rs) & settle(run, stats, ss);
    out.firstFrame = secondsBetween(t0, Clock::now());

    span = run.spans.begin("session.warmup", open, step);
    session::WarmupStats warm = s.warmup();
    run.spans.end(span);
    run.op(true);
    auto pyramids = s.submit(session::PyramidBuildQuery{});
    std::uint64_t ps = traceTicket(run, pyramids, "index.pyramid_wait", open,
                                   step);
    ok &= settle(run, pyramids, ps);
    out.ready = secondsBetween(t0, Clock::now());
    run.spans.end(open);

    // Off the clock: the loaded trace is the generated one, and the
    // first frame is right.
    run.check(totalsOf(*loaded) == shape.totals ? "" : "totals differ",
              "loaded trace");
    if (ok) {
        run.check(shape.check->render(render.result().fb,
                                      render.result().stats, whole, {}),
                  "first frame");
        run.check(shape.check->intervalStats(stats.result(), whole),
                  "first frame stats");
        run.add(run.rectOps, double(render.result().stats.rectOps));
        traceCodec(run, render.result().fb, render.result().stats, open);
    }
    run.add(run.indexesBuilt, double(warm.indexesBuilt));

    if (run.spans.enabled()) {
        // The pyramid build alone, on a fresh session of the same trace.
        Session fresh(loaded);
        fresh.setConcurrency({0});
        span = run.spans.begin("index.pyramid_build", 0, step);
        fresh.submit(session::PyramidBuildQuery{}).wait();
        run.spans.end(span);
    }
    if (!ok)
        out.session.reset();
    return out;
}

/** Toggle the duration filter as step @p step requires. */
DurationBand
filterFor(Session &s, const Inputs::Shape &shape, std::uint64_t step)
{
    bool on = step % kFilterPeriod >= kFilterPeriod - 2;
    DurationBand band = on ? shape.band : DurationBand{};
    if (on != (s.filters().size() > 0))
        s.setFilters(filterOf(band));
    return band;
}

/** One view step; returns the frame time in seconds (< 0 = failed). */
double
viewStep(Run &run, Session &s, const Inputs::Shape &shape, TimeInterval view,
         std::uint64_t step, Rng &rng)
{
    DurationBand band = filterFor(s, shape, step);
    s.setView(view);
    const Resolution px = Resolution::pixels(kWidth);
    const Clock::time_point t0 = Clock::now();
    std::uint64_t parent = run.spans.begin("step", 0, step);

    session::TimelineRenderQuery rq;
    rq.context = {view, session::QueryPriority::Interactive, px};
    rq.config.view = view;
    rq.width = kWidth;
    rq.height = kHeight;
    auto render = s.submit(rq);
    // Filtered frames fall back to the exact per-event path.
    std::uint64_t rs = traceTicket(run, render,
                                   band.active ? "render.exact"
                                               : "render.pixels",
                                   parent, step);
    auto stats = s.submit(session::IntervalStatsQuery{
        {view, session::QueryPriority::Interactive, px}});
    std::uint64_t ss = traceTicket(run, stats, "stats.pixels", parent, step);
    session::HistogramQuery hq;
    hq.context = {view, session::QueryPriority::Interactive, px};
    auto hist = s.submit(hq);
    std::uint64_t hs = traceTicket(run, hist, "stats.histogram", parent, step);
    std::vector<session::QueryTicket<index::MinMax>> extrema;
    std::vector<std::uint64_t> es;
    std::vector<std::pair<CpuId, CounterId>> pairs;
    for (int i = 0; i < 4; i++) {
        pairs.push_back(
            shape.sampled[rng.nextBounded(shape.sampled.size())]);
        session::CounterExtremaQuery eq;
        eq.context = {view, session::QueryPriority::Interactive, px};
        eq.cpu = pairs.back().first;
        eq.counter = pairs.back().second;
        extrema.push_back(s.submit(eq));
        es.push_back(
            traceTicket(run, extrema.back(), "index.extrema", parent, step));
    }
    session::QueryTicket<std::vector<const trace::TaskInstance *>> tasks;
    std::uint64_t ts = 0;
    if (band.active) {
        tasks = s.submit(session::TaskListQuery{});
        ts = traceTicket(run, tasks, "filter.task_list", parent, step);
    }

    bool ok = settle(run, render, rs);
    ok &= settle(run, stats, ss);
    ok &= settle(run, hist, hs);
    for (std::size_t i = 0; i < extrema.size(); i++)
        ok &= settle(run, extrema[i], es[i]);
    if (tasks.valid())
        ok &= settle(run, tasks, ts);
    const double frame = secondsBetween(t0, Clock::now());
    run.spans.end(parent);
    if (!ok)
        return -1;

    const Checker &check = *shape.check;
    const stats::IntervalStats &st = stats.result();
    run.check(check.intervalStats(st, view), "step stats");
    run.check(check.histogram(hist.result(), view, band), "step histogram");
    TimeInterval snapped = st.resolution.granularityNs ? st.interval : view;
    for (std::size_t i = 0; i < extrema.size(); i++)
        run.check(check.extrema(extrema[i].result(), pairs[i].first,
                                pairs[i].second, snapped),
                  "step extrema");
    run.check(check.render(render.result().fb, render.result().stats, view,
                           band),
              "step frame");
    if (tasks.valid() && tasks.result().size() != check.taskListSize(band))
        run.check("wrong task count", "task list");
    run.add(run.rectOps, double(render.result().stats.rectOps));
    run.add(run.nodesTouched,
            double(render.result().stats.resolution.nodesTouched +
                   st.resolution.nodesTouched +
                   hist.result().resolution.nodesTouched));
    traceCodec(run, render.result().fb, render.result().stats, parent);
    return frame;
}

/** Whole-trace anomaly scan under the session's filters, seconds. */
double
scanLocal(Run &run, Session &s, const Inputs::Shape &shape,
          const DurationBand &band, std::uint64_t step)
{
    const TimeInterval whole = s.trace().span();
    const Clock::time_point t0 = Clock::now();
    session::AnomalyScanQuery q;
    q.context.interval = whole;
    auto ticket = s.submit(q);
    std::uint64_t span = traceTicket(run, ticket, "stats.scan", 0, step);
    if (!settle(run, ticket, span))
        return -1;
    double t = secondsBetween(t0, Clock::now());
    run.check(shape.check->anomalies(ticket.result(), q.options, whole, band),
              "scan");
    return t;
}

// -- Daemon clients ------------------------------------------------------

/** One connection to the in-process server, with request accounting. */
struct Remote
{
    daemon::Client client;
    std::uint64_t traceId = 0;
    std::uint64_t sent = 0; ///< Requests sent, for Server::stats().

    bool
    connect(daemon::Server &server, std::string &error)
    {
        return client.adopt(server.connectInProcess(), error);
    }

    /** Send, wait and time one request; the reply in @p out. */
    template <typename T, typename Send>
    bool
    call(Run &run, const char *span, std::uint64_t parent,
         std::uint64_t step, Send &&send, daemon::Reply<T> &out,
         double *rtt = nullptr)
    {
        std::uint64_t id = run.spans.begin(span, parent, step);
        const Clock::time_point t0 = Clock::now();
        out = send(client).get();
        double t = secondsBetween(t0, Clock::now());
        run.spans.end(id);
        sent++;
        if (rtt)
            *rtt = t;
        if (!out.ok())
            run.check("status " + std::to_string(int(out.status)) + " " +
                          out.message,
                      span);
        return run.op(out.ok());
    }
};

/**
 * One remote viewer step: Exact stats of a fresh and of a repeated
 * interval, a histogram, two counter extrema and one small Exact
 * render. Round trips go to @p rpcs; returns the step time.
 */
double
viewerStep(Run &run, Remote &r, const Inputs::Shape &shape, Rng &rng,
           const std::vector<TimeInterval> &repeated, std::uint64_t step,
           std::vector<double> &rpcs)
{
    const Checker &check = *shape.check;
    const TimeInterval whole = shape.trace.span();
    const Clock::time_point t0 = Clock::now();
    std::uint64_t parent = run.spans.begin("viewer.step", 0, step);
    double rtt = 0;
    bool ok = true;

    daemon::IntervalStatsRequest sq;
    sq.head.traceId = r.traceId;
    sq.interval = randomInterval(rng, whole);
    daemon::Reply<stats::IntervalStats> stats;
    if (r.call(run, "stats.exact", parent, step,
               [&](daemon::Client &c) { return c.asyncIntervalStats(sq); },
               stats, &rtt)) {
        run.check(check.intervalStats(stats.value, *sq.interval),
                  "remote stats");
        rpcs.push_back(rtt);
    } else {
        ok = false;
    }
    // Three repeated intervals: after their first request, memo hits.
    for (int i = 0; i < 3; i++) {
        sq.interval = repeated[rng.nextBounded(repeated.size())];
        daemon::Reply<stats::IntervalStats> hit;
        if (r.call(run, "daemon.hit", parent, step,
                   [&](daemon::Client &c) {
                       return c.asyncIntervalStats(sq);
                   },
                   hit, &rtt)) {
            run.check(check.intervalStats(hit.value, *sq.interval),
                      "remote repeated stats");
            rpcs.push_back(rtt);
        } else {
            ok = false;
        }
    }

    daemon::HistogramRequest hq;
    hq.head.traceId = r.traceId;
    hq.interval = randomInterval(rng, whole);
    daemon::Reply<stats::Histogram> hist;
    if (r.call(run, "stats.histogram", parent, step,
               [&](daemon::Client &c) { return c.asyncHistogram(hq); }, hist,
               &rtt)) {
        run.check(check.histogram(hist.value, hq.interval, {}),
                  "remote histogram");
        rpcs.push_back(rtt);
    } else {
        ok = false;
    }

    for (int i = 0; i < 2; i++) {
        daemon::CounterExtremaRequest eq;
        eq.head.traceId = r.traceId;
        auto [cpu, counter] =
            shape.sampled[rng.nextBounded(shape.sampled.size())];
        eq.cpu = cpu;
        eq.counter = counter;
        eq.interval = randomInterval(rng, whole);
        daemon::Reply<index::MinMax> mm;
        if (r.call(run, "index.extrema", parent, step,
                   [&](daemon::Client &c) {
                       return c.asyncCounterExtrema(eq);
                   },
                   mm, &rtt)) {
            run.check(check.extrema(mm.value, cpu, counter, *eq.interval),
                      "remote extrema");
            rpcs.push_back(rtt);
        } else {
            ok = false;
        }
    }

    daemon::TimelineRenderRequest rq;
    rq.head.traceId = r.traceId;
    rq.view = randomInterval(rng, whole);
    rq.width = kServeWidth;
    rq.height = kServeHeight;
    daemon::Reply<daemon::RenderReply> frame;
    if (r.call(run, "render.exact", parent, step,
               [&](daemon::Client &c) { return c.asyncTimelineRender(rq); },
               frame, &rtt)) {
        run.check(check.render(frame.value.fb, frame.value.stats, rq.view, {}),
                  "remote frame");
        rpcs.push_back(rtt);
        run.add(run.rectOps, double(frame.value.stats.rectOps));
        run.add(run.nodesTouched,
                double(frame.value.stats.resolution.nodesTouched +
                       stats.value.resolution.nodesTouched));
        traceCodec(run, frame.value.fb, frame.value.stats, parent);
    } else {
        ok = false;
    }
    double t = secondsBetween(t0, Clock::now());
    run.spans.end(parent);
    return ok ? t : -1;
}

/**
 * Open @p shape on the server through @p r: OpenTrace, the first
 * frame (whole-span Pixels render and stats), then Warmup.
 */
bool
openRemote(Run &run, Remote &r, const Inputs::Shape &shape, double &frame,
           double &ready)
{
    const Clock::time_point t0 = Clock::now();
    std::uint64_t open = run.spans.begin("open", 0, 0);
    daemon::OpenTraceRequest oq;
    oq.path = shape.path;
    daemon::Reply<daemon::OpenTraceReply> opened;
    if (!r.call(run, "daemon.open", open, 0,
                [&](daemon::Client &c) { return c.asyncOpenTrace(oq); },
                opened))
        return false;
    r.traceId = opened.value.traceId;
    const TimeInterval whole = shape.trace.span();
    if (!(opened.value.span == whole))
        run.check("served span differs", "remote open");

    daemon::TimelineRenderRequest rq;
    rq.head.traceId = r.traceId;
    rq.view = whole;
    rq.width = kWidth;
    rq.height = kHeight;
    rq.resolution = Resolution::pixels(kWidth);
    daemon::IntervalStatsRequest sq;
    sq.head.traceId = r.traceId;
    sq.interval = whole;
    sq.resolution = Resolution::pixels(kWidth);
    daemon::Reply<daemon::RenderReply> fb;
    daemon::Reply<stats::IntervalStats> st;
    bool ok = r.call(run, "render.pixels", open, 0,
                     [&](daemon::Client &c) {
                         return c.asyncTimelineRender(rq);
                     },
                     fb);
    ok &= r.call(run, "stats.pixels", open, 0,
                 [&](daemon::Client &c) { return c.asyncIntervalStats(sq); },
                 st);
    frame = secondsBetween(t0, Clock::now());
    daemon::WarmupRequest wq;
    wq.head.traceId = r.traceId;
    daemon::Reply<session::WarmupStats> warm;
    ok &= r.call(run, "session.warmup", open, 0,
                 [&](daemon::Client &c) { return c.asyncWarmup(wq); }, warm);
    ready = secondsBetween(t0, Clock::now());
    run.spans.end(open);
    if (!ok)
        return false;
    run.check(shape.check->render(fb.value.fb, fb.value.stats, whole, {}),
              "remote first frame");
    run.check(shape.check->intervalStats(st.value, whole),
              "remote first stats");
    run.add(run.indexesBuilt, double(warm.value.indexesBuilt));
    traceCodec(run, fb.value.fb, fb.value.stats, open);
    return true;
}

std::vector<TimeInterval>
repeatedIntervals(std::uint64_t seed, TimeInterval whole)
{
    Rng rng(seed ^ 0x5eedull);
    std::vector<TimeInterval> out;
    for (int i = 0; i < 8; i++)
        out.push_back(randomInterval(rng, whole));
    return out;
}

/**
 * Close @p r's trace and wait until the server dropped its last copy,
 * so the next open never overlaps the release.
 */
bool
closeRemote(Run &run, Remote &r, daemon::Server &server)
{
    daemon::Reply<daemon::Ack> ack;
    if (!r.call(run, "daemon.close", 0, 0,
                [&](daemon::Client &c) {
                    return c.asyncCloseTrace(r.traceId);
                },
                ack))
        return false;
    while (server.stats().sharedTraces != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Hand freed pages back so peak RSS follows the live set, not the
    // allocator's history.
    malloc_trim(0);
    return true;
}

/** The traced-run probe of the reader and a fresh pyramid build. */
void
probeLoad(Run &run, const Inputs::Shape &shape)
{
    if (!run.spans.enabled())
        return;
    std::uint64_t span = run.spans.begin("trace.read");
    trace::ReadOptions options;
    options.workers = 0;
    trace::ReadResult read = trace::readTraceFile(shape.path, options);
    run.spans.end(span);
    if (!run.op(read.ok))
        return;
    Session fresh(std::move(read.trace));
    fresh.setConcurrency({0});
    span = run.spans.begin("index.pyramid_build");
    fresh.submit(session::PyramidBuildQuery{}).wait();
    run.spans.end(span);
}

/** Server-side request count equals what the clients sent. */
void
checkRequests(Run &run, daemon::Server &server, std::uint64_t sent)
{
    std::uint64_t seen = server.stats().requests;
    if (seen != sent)
        run.check("server saw " + std::to_string(seen) + " requests, " +
                      std::to_string(sent) + " sent",
                  "daemon accounting");
}

/** A viewer opens @p shape remotely, runs one step and closes it. */
bool
remoteVisit(Run &run, daemon::Server &server, Remote &viewer,
            const Inputs::Shape &shape, Rng &rng, std::uint64_t step)
{
    daemon::OpenTraceRequest oq;
    oq.path = shape.path;
    daemon::Reply<daemon::OpenTraceReply> opened;
    if (!viewer.call(run, "daemon.open", 0, step,
                     [&](daemon::Client &c) { return c.asyncOpenTrace(oq); },
                     opened))
        return false;
    viewer.traceId = opened.value.traceId;
    const TimeInterval whole = shape.trace.span();
    daemon::IntervalStatsRequest sq;
    sq.head.traceId = viewer.traceId;
    sq.interval = whole;
    daemon::Reply<stats::IntervalStats> st;
    if (!viewer.call(run, "stats.exact", 0, step,
                     [&](daemon::Client &c) {
                         return c.asyncIntervalStats(sq);
                     },
                     st))
        return false;
    run.check(shape.check->intervalStats(st.value, whole), "remote stats");
    std::vector<double> rpcs;
    double t = viewerStep(run, viewer, shape, rng, {whole}, step, rpcs);
    {
        std::lock_guard<std::mutex> lock(run.mutex);
        run.rpcs.insert(run.rpcs.end(), rpcs.begin(), rpcs.end());
        for (double r : rpcs)
            run.rpcBusy += r;
    }
    return t >= 0 && closeRemote(run, viewer, server);
}

double
peakRssMib()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

// -- Workloads -----------------------------------------------------------

Clock::time_point
deadlineIn(double seconds)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

/**
 * open: rounds of one seidel and one k-means open from disk. Each open
 * draws the first frame, warms up, builds pyramids and scans; two view
 * steps follow, and a daemon viewer opens the same file for one viewer
 * step. The samples of first frame and scan are round sums.
 */
void
runOpen(Run &run, Inputs &in, std::uint64_t seed, double seconds)
{
    daemon::Server server(daemon::Server::Options{0, 16});
    Remote viewer;
    std::string error;
    if (!viewer.connect(server, error)) {
        run.check(error, "connect");
        return;
    }
    Rng rng(seed ^ 0x09e4ull);
    std::uint64_t step = 0;
    bool first = true;
    const Clock::time_point end = deadlineIn(seconds);
    while (first || Clock::now() < end) {
        double frame = 0, ready = 0, scan = 0;
        for (Inputs::Shape *shape : {&in.seidel, &in.kmeans}) {
            Opened o = openLocal(run, *shape, step);
            if (!o.session)
                return;
            frame += o.firstFrame;
            ready += o.ready;
            double t = scanLocal(run, *o.session, *shape, {}, step);
            if (t < 0)
                return;
            scan += t;
            // View steps on the state-heavy shape only, so frame
            // samples come from one trace shape.
            Walk walk(shape->trace.span(), rng.next());
            for (int i = 0; shape == &in.seidel && i < 6; i++, step++) {
                double f =
                    viewStep(run, *o.session, *shape, walk.next(), step, rng);
                if (f < 0)
                    return;
                run.add(run.frames, f);
            }
            o.session.reset();
            malloc_trim(0);
            if (!remoteVisit(run, server, viewer, *shape, rng, step))
                return;
        }
        if (first)
            run.setup = ready;
        first = false;
        run.add(run.firstFrame, frame);
        run.add(run.scans, scan);
    }
    viewer.client.close();
    checkRequests(run, server, viewer.sent);
}

/**
 * explore: seven opens of the seidel trace (the first is the cold
 * set-up, the last stays), then the seeded walk. A daemon follower
 * fetches Exact stats of each step's view and of the whole span, and
 * every walk round of eight steps ends with a scan under the filter.
 */
void
runExplore(Run &run, Inputs &in, std::uint64_t seed, double seconds)
{
    Inputs::Shape &shape = in.seidel;
    Opened o;
    for (int i = 0; i < kOpens; i++) {
        o.session.reset();
        malloc_trim(0);
        o = openLocal(run, shape, 0);
        if (!o.session)
            return;
        if (i == 0)
            run.setup = o.ready;
        run.add(run.firstFrame, o.firstFrame);
    }
    daemon::Server server(daemon::Server::Options{0, 16});
    Remote follower;
    std::string error;
    double frame = 0, ready = 0;
    if (!follower.connect(server, error) ||
        !openRemote(run, follower, shape, frame, ready)) {
        run.check(error, "follower");
        return;
    }
    const TimeInterval whole = shape.trace.span();
    Session &s = *o.session;
    Walk walk(whole, seed ^ 0xe9bull);
    Rng rng(seed ^ 0x51e9ull);
    const Clock::time_point end = deadlineIn(seconds);
    for (std::uint64_t step = 0; step % kFilterPeriod != 0 ||
                                 step == 0 || Clock::now() < end;
         step++) {
        TimeInterval view = walk.next();
        double f = viewStep(run, s, shape, view, step, rng);
        if (f < 0)
            return;
        run.add(run.frames, f);
        for (TimeInterval iv : {view, whole, whole}) {
            daemon::IntervalStatsRequest sq;
            sq.head.traceId = follower.traceId;
            sq.interval = iv;
            daemon::Reply<stats::IntervalStats> st;
            double rtt = 0;
            if (!follower.call(run, iv == whole ? "daemon.hit" : "stats.exact",
                               0, step,
                               [&](daemon::Client &c) {
                                   return c.asyncIntervalStats(sq);
                               },
                               st, &rtt))
                return;
            run.check(shape.check->intervalStats(st.value, iv),
                      "follower stats");
            std::lock_guard<std::mutex> lock(run.mutex);
            run.rpcs.push_back(rtt);
            run.rpcBusy += rtt;
        }
        if (step % kFilterPeriod == kFilterPeriod - 1) {
            double t = scanLocal(run, s, shape, shape.band, step);
            if (t < 0)
                return;
            run.add(run.scans, t);
        }
    }
    follower.client.close();
    checkRequests(run, server, follower.sent);
    probeLoad(run, shape);
}

/**
 * serve: an in-process server configured as aftermathd configures it
 * (one engine worker per hardware thread, in-flight cap 16). Seven
 * remote opens of the seidel file (the first is the cold set-up), then
 * a closed loop of 3 viewers and 1 analyst, one connection and one
 * thread each.
 */
void
runServe(Run &run, Inputs &in, std::uint64_t seed, double seconds)
{
    Inputs::Shape &shape = in.seidel;
    const TimeInterval whole = shape.trace.span();
    daemon::Server server(daemon::Server::Options{0, 16});
    std::vector<std::unique_ptr<Remote>> clients;
    std::string error;
    for (int i = 0; i < 4; i++) {
        clients.push_back(std::make_unique<Remote>());
        if (!clients.back()->connect(server, error)) {
            run.check(error, "connect");
            return;
        }
    }
    for (int i = 0; i < kOpens; i++) {
        double frame = 0, ready = 0;
        if (!openRemote(run, *clients[0], shape, frame, ready))
            return;
        if (i == 0)
            run.setup = ready;
        run.add(run.firstFrame, frame);
        if (i + 1 < kOpens && !closeRemote(run, *clients[0], server))
            return;
    }
    for (int i = 1; i < 4; i++) {
        daemon::OpenTraceRequest oq;
        oq.path = shape.path;
        daemon::Reply<daemon::OpenTraceReply> opened;
        if (!clients[i]->call(run, "daemon.open", 0, 0,
                              [&](daemon::Client &c) {
                                  return c.asyncOpenTrace(oq);
                              },
                              opened))
            return;
        clients[i]->traceId = opened.value.traceId;
    }

    const std::vector<TimeInterval> repeated = repeatedIntervals(seed, whole);
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end = deadlineIn(seconds);
    std::atomic<std::uint64_t> completed{0};
    auto viewer = [&](int id) {
        Remote &r = *clients[id];
        Rng rng(seed * 31 + id);
        std::vector<double> rpcs;
        std::uint64_t step = std::uint64_t(id) << 32;
        while (Clock::now() < end) {
            std::size_t before = rpcs.size();
            double t = viewerStep(run, r, shape, rng, repeated, step++, rpcs);
            completed += rpcs.size() - before;
            if (t < 0)
                break;
            run.add(run.frames, t);
        }
        std::lock_guard<std::mutex> lock(run.mutex);
        run.rpcs.insert(run.rpcs.end(), rpcs.begin(), rpcs.end());
    };
    auto analyst = [&] {
        Remote &r = *clients[0];
        Rng rng(seed * 31 + 7);
        DurationBand band;
        for (std::uint64_t step = 0; Clock::now() < end; step++) {
            daemon::Reply<daemon::Ack> ack;
            bool ok;
            if (step % 2 == 0) {
                TimeInterval view = randomInterval(rng, whole);
                ok = r.call(run, "daemon.set_view", 0, step,
                            [&](daemon::Client &c) {
                                return c.asyncSetView(r.traceId, view);
                            },
                            ack);
            } else {
                band = band.active ? DurationBand{} : shape.band;
                std::vector<daemon::FilterSpec> specs;
                if (band.active) {
                    daemon::FilterSpec f;
                    f.kind = daemon::FilterSpec::Kind::Duration;
                    f.min = band.min;
                    f.max = band.max;
                    specs.push_back(f);
                }
                ok = r.call(run, "daemon.set_filters", 0, step,
                            [&](daemon::Client &c) {
                                return c.asyncSetFilters(r.traceId, specs);
                            },
                            ack);
                daemon::TaskListRequest tq;
                tq.head.traceId = r.traceId;
                daemon::Reply<std::vector<daemon::TaskRow>> rows;
                ok = ok && r.call(run, "filter.task_list", 0, step,
                                  [&](daemon::Client &c) {
                                      return c.asyncTaskList(tq);
                                  },
                                  rows);
                if (ok && rows.value.size() != shape.check->taskListSize(band))
                    run.check("wrong task count", "remote task list");
            }
            completed += ok ? 1 + (step % 2) : 0;
            daemon::AnomalyScanRequest aq;
            aq.head.traceId = r.traceId;
            aq.head.priority = daemon::WirePriority::Background;
            aq.interval = whole;
            daemon::Reply<std::vector<stats::Anomaly>> found;
            double rtt = 0;
            ok = ok && r.call(run, "stats.scan", 0, step,
                              [&](daemon::Client &c) {
                                  return c.asyncAnomalyScan(aq);
                              },
                              found, &rtt);
            if (!ok)
                break;
            completed++;
            run.check(shape.check->anomalies(found.value, aq.options, whole,
                                             band),
                      "remote scan");
            run.add(run.scans, rtt);
        }
    };
    std::vector<std::thread> threads;
    threads.emplace_back(analyst);
    for (int i = 1; i < 4; i++)
        threads.emplace_back(viewer, i);
    for (auto &t : threads)
        t.join();
    {
        std::lock_guard<std::mutex> lock(run.mutex);
        run.rpcWindow = secondsBetween(t0, Clock::now());
        run.rpcCompleted = double(completed.load());
    }
    std::uint64_t sent = 0;
    for (auto &c : clients)
        sent += c->sent;
    for (auto &c : clients)
        c->client.close();
    checkRequests(run, server, sent);
    probeLoad(run, shape);
}

// -- Output --------------------------------------------------------------

std::string
metric(const char *name, double value, const char *unit)
{
    return strFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", name,
                     value, unit);
}

std::vector<std::string>
endToEnd(Run &run)
{
    std::lock_guard<std::mutex> lock(run.mutex);
    // Sequential clients: throughput while requests ran; concurrent
    // ones: requests completed over the loop's wall time.
    double perS = run.rpcWindow > 0 ? run.rpcCompleted / run.rpcWindow
                                    : double(run.rpcs.size()) / run.rpcBusy;
    return {
        metric("setup_s", run.setup, "s"),
        metric("first_frame_ms", 1e3 * median(run.firstFrame), "ms"),
        metric("frame_p50_ms", 1e3 * median(run.frames), "ms"),
        metric("frame_p95_ms", 1e3 * quantile(run.frames, 0.95), "ms"),
        metric("scan_ms", 1e3 * median(run.scans), "ms"),
        metric("rpc_p50_ms", 1e3 * median(run.rpcs), "ms"),
        metric("rpc_p95_ms", 1e3 * quantile(run.rpcs, 0.95), "ms"),
        metric("rpc_per_s", perS, "1/s"),
        metric("peak_rss_mib", peakRssMib(), "MiB"),
    };
}

std::vector<std::string>
perLayer(Run &run)
{
    auto ms = [&](const char *n) { return 1e3 * median(run.spans.durations(n)); };
    auto us = [&](const char *n) { return 1e6 * median(run.spans.durations(n)); };
    std::lock_guard<std::mutex> lock(run.mutex);
    return {
        metric("trace.read_ms", ms("trace.read"), "ms"),
        metric("trace.file_mib", run.fileMib, "MiB"),
        metric("session.warmup_ms", ms("session.warmup"), "ms"),
        metric("session.indexes_built", median(run.indexesBuilt), "count"),
        metric("index.pyramid_build_ms", ms("index.pyramid_build"), "ms"),
        metric("index.extrema_us", us("index.extrema"), "us"),
        metric("index.nodes_touched", mean(run.nodesTouched), "count"),
        metric("render.pixels_ms", ms("render.pixels"), "ms"),
        metric("render.exact_ms", ms("render.exact"), "ms"),
        metric("render.rect_ops", median(run.rectOps), "count"),
        metric("stats.pixels_us", us("stats.pixels"), "us"),
        metric("stats.exact_ms", ms("stats.exact"), "ms"),
        metric("stats.histogram_ms", ms("stats.histogram"), "ms"),
        metric("filter.task_list_ms", ms("filter.task_list"), "ms"),
        metric("daemon.hit_rtt_us", us("daemon.hit"), "us"),
        metric("daemon.render_codec_ms", ms("daemon.render_codec"), "ms"),
    };
}

std::string
join(const std::vector<std::string> &parts)
{
    std::string out;
    for (const auto &p : parts)
        out += (out.empty() ? "" : ", ") + p;
    return out;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload open|explore|serve --seed N "
                 "--seconds S --trace 0|1\n"
                 "       perfbench --self-test\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--self-test") {
            std::string err = selfTest();
            std::printf("self-test: %s\n", err.empty() ? "ok" : err.c_str());
            return err.empty() ? 0 : 1;
        }
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            seconds = std::strtod(v, nullptr);
        else if (a == "--trace")
            traced = std::strcmp(v, "0") != 0;
        else
            return usage();
    }
    void (*body)(Run &, Inputs &, std::uint64_t, double) = nullptr;
    if (workload == "open")
        body = runOpen;
    else if (workload == "explore")
        body = runExplore;
    else if (workload == "serve")
        body = runServe;
    else
        return usage();

    Run run(traced);
    // A checker that cannot tell a perturbed answer proves nothing.
    run.check(selfTest(), "self-test");

    Inputs in;
    in.dir = "perfbench-out/inputs-" + std::to_string(getpid());
    std::filesystem::create_directories(in.dir);
    Rng rng(seed);
    in.seidel.name = "seidel";
    in.kmeans.name = "kmeans";
    if (!prepare(in.seidel, simulateSeidel(seed), in.dir, rng, run) ||
        !prepare(in.kmeans, simulateKmeans(seed), in.dir, rng, run))
        return 1;

    body(run, in, seed, seconds);

    if (!run.firstError.empty())
        std::fprintf(stderr, "check failed: %s\n", run.firstError.c_str());
    std::vector<std::string> e2e = endToEnd(run);
    std::string metrics = join(e2e);
    if (traced) {
        std::printf("e2e {%s}\n", metrics.c_str());
        for (const auto &[name, t] : run.spans.selfTimes())
            std::printf("self %s %s %.6f\n", workload.c_str(), name.c_str(),
                        t);
        std::string path = "perfbench-out/spans-" + workload + "-" +
                           std::to_string(seed) + ".jsonl";
        run.spans.dump(path);
        metrics = join(perLayer(run));
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                run.firstError.empty() ? "true" : "false",
                (unsigned long long)run.attempted.load(),
                (unsigned long long)run.failed.load(), metrics.c_str());
    return 0;
}
