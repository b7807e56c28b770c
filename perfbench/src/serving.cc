/**
 * @file
 * The three serving workloads: serve-bursty (one ServingEngine),
 * sessions-prefix (fault-free prefix-affinity cluster with undersized
 * prefix caches) and cluster-chaos (least-queued cluster under a seeded
 * crash + slowdown plan with the resilience tier, telemetry breakers
 * and a metrics registry). A pass serves one part (an independent
 * trace) once; a round serves every part. Latency percentiles are
 * computed here from each request's stamps, not read from
 * ServingSummary.
 */
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/sink.hh"
#include "runtime/cluster.hh"
#include "runtime/engine.hh"
#include "runtime/prefixcache.hh"
#include "support/rng.hh"
#include "workloads.hh"
#include "workloads/decoder.hh"

namespace perfbench {
namespace {

using namespace step;
using namespace step::runtime;

// ---- workload make-up (README.md lists these) -----------------------------

/** Host seconds of repeated set-ups whose median is setup_s. */
constexpr double kSetupSeconds = 0.5;
/** Repeats of each timed cluster probe in the traced run (median). */
constexpr int kProbeReps = 3;
/** Cluster worker threads of the timed passes, and of the invariance
 *  check that reruns the first part. */
constexpr int64_t kPassThreads = 1;
constexpr int64_t kCheckThreads = 4;
constexpr int64_t kReplicas = 4;
/** Decode iterations the traced serve-bursty run replays. */
constexpr size_t kReplayIterations = 400;

TraceConfig
burstyTrace()
{
    TraceConfig tc;
    tc.numRequests = 600;
    tc.arrivalsPerKcycle = 0.0012;
    tc.burstPeriod = 16'000'000;
    tc.burstDuty = 0.3;
    tc.burstFactor = 4.0;
    return tc;
}

TraceConfig
sessionsTrace()
{
    TraceConfig tc;
    tc.numSessions = 64;
    tc.turnsPerSession = 4;
    tc.sharedSystemPromptLen = 96;
    tc.turnDeltaMean = 96;
    tc.outputMean = 48;
    tc.arrivalsPerKcycle = 0.0008; // session starts
    tc.turnGapMean = 6'000'000;
    return tc;
}

/**
 * cluster_sim's heavy-tailed lengths at a lighter load, with plain
 * Poisson arrivals: on/off bursts on top of the fault plan made the
 * latency tails swing by more than a quarter from seed to seed.
 */
TraceConfig
chaosTrace()
{
    TraceConfig tc;
    tc.numRequests = 250;
    tc.arrivalsPerKcycle = 0.002;
    tc.promptSigma = 1.1;
    tc.outputSigma = 0.9;
    tc.outputMean = 16;
    tc.promptMean = 96;
    tc.lowPriorityFrac = 0.2;
    tc.highPriorityFrac = 0.1;
    return tc;
}

/** Per-replica prefix-cache capacity of sessions-prefix (KV tokens). */
constexpr int64_t kSessionsCacheTokens = 8192;

/**
 * The seeded crash + slowdown plan of one cluster-chaos part. Every
 * replica crashes once and slows down once, each in its own slot of
 * the trace's arrival span (so outages rarely overlap), at a seeded
 * offset within the slot: the fault count is fixed and only the
 * timing is drawn, which keeps the failover work per part steady from
 * seed to seed.
 */
FaultPlan
chaosPlan(const std::vector<Request>& trace, uint64_t seed)
{
    FaultPlan plan;
    const double span =
        trace.empty() ? 0.0 : static_cast<double>(trace.back().arrival);
    const double slot = span / static_cast<double>(kReplicas);
    Rng rng(seed);
    for (int64_t r = 0; r < kReplicas; ++r) {
        const double base = slot * static_cast<double>(r);
        const auto fail = static_cast<dam::Cycle>(
            base + slot * (0.1 + 0.4 * rng.uniform()));
        plan.crashes.push_back(
            {r, fail, fail + static_cast<dam::Cycle>(slot * 0.25)});
        const auto slow = static_cast<dam::Cycle>(
            base + slot * (0.5 + 0.4 * rng.uniform()));
        plan.slowdowns.push_back(
            {r, slow, slow + static_cast<dam::Cycle>(slot * 0.5), 0.5});
    }
    return plan;
}

/** Independent parts (trace, fault plan) one round serves. */
size_t
partsOf(const std::string& name)
{
    return name == "serve-bursty" ? 10 : 12;
}

// ---- one pass's outputs ---------------------------------------------------

/** The per-request outputs that must repeat exactly. */
struct ReqOut
{
    int64_t id = 0;
    ReqState state = ReqState::Queued;
    dam::Cycle firstTokenAt = 0;
    dam::Cycle finishedAt = 0;
    int64_t generated = 0;
    int64_t outputLen = 0;
    int64_t attempt = 0;
    int64_t cachedPrefixTokens = 0;
    bool operator==(const ReqOut&) const = default;
};

std::vector<ReqOut>
outputsOf(const std::vector<Request>& reqs)
{
    std::vector<ReqOut> out;
    out.reserve(reqs.size());
    for (const Request& r : reqs)
        out.push_back({r.id, r.state, r.firstTokenAt, r.finishedAt,
                       r.generated, r.outputLen, r.attempt,
                       r.cachedPrefixTokens});
    return out;
}

/** One part served once. */
struct PassOut
{
    std::vector<Request> reqs;
    ServingSummary summary;
    int64_t iterations = 0;
    /** Cluster passes only. */
    std::optional<ClusterResult> cluster;
    /** Traced single-engine pass only. */
    std::unique_ptr<obs::TraceSink> sink;

    std::vector<const obs::TraceSink*>
    sinks() const
    {
        if (sink)
            return {sink.get()};
        if (cluster)
            return cluster->traceViews();
        return {};
    }
};

/** One independent slice of a workload's input. */
struct Part
{
    std::vector<Request> trace;
    /** Cluster workloads: this part's config (its own fault plan). */
    ClusterConfig cluster;
    std::unique_ptr<ServingCluster> clu;
};

/** A generated serving workload, ready to run passes. */
struct Serving
{
    std::string name;
    QueueDepthPolicy policy;
    BrownoutPolicy brownout;
    /** The engine (template, for a cluster). */
    EngineConfig engine;
    bool isCluster = false;
    std::vector<Part> parts;
    std::unique_ptr<ServingEngine> eng;

    PassOut
    run(size_t part, bool traced, int64_t threads = kPassThreads) const
    {
        const Part& pt = parts[part];
        PassOut out;
        out.reqs = pt.trace;
        if (!isCluster) {
            std::unique_ptr<ServingEngine> local;
            ServingEngine* e = eng.get();
            if (traced) {
                obs::TraceOptions to;
                to.level = obs::TraceLevel::Request;
                out.sink = std::make_unique<obs::TraceSink>(to);
                local = std::make_unique<ServingEngine>(engine, policy);
                local->attachTrace(out.sink.get());
                e = local.get();
            }
            EngineResult r = e->run(out.reqs);
            out.summary = std::move(r.summary);
            out.iterations = r.iterations;
            return out;
        }
        ClusterConfig cc = pt.cluster;
        cc.threads = threads;
        if (traced)
            cc.trace.level = obs::TraceLevel::Request;
        const bool reuse = !traced && threads == kPassThreads;
        std::unique_ptr<ServingCluster> local;
        if (!reuse)
            local = std::make_unique<ServingCluster>(cc, policy);
        ClusterResult r = (reuse ? *pt.clu : *local).run(out.reqs);
        out.summary = r.aggregate;
        out.iterations = r.totalIterations;
        out.cluster = std::move(r);
        return out;
    }
};

std::unique_ptr<Serving>
makeServing(const std::string& name)
{
    auto s = std::make_unique<Serving>();
    s->name = name;
    const size_t n = partsOf(name);
    s->parts.resize(n);
    // Seed streams: 1 = the engine, 2 + 2i = part i's trace, 3 + 2i its
    // fault plan, 1000 = the traced replay's KV lengths (cluster replicas
    // seed themselves from deriveSeed(r)).
    s->engine.seed = deriveSeed(1);
    if (name == "serve-bursty") {
        for (size_t i = 0; i < n; ++i)
            s->parts[i].trace =
                generateTrace(burstyTrace(), deriveSeed(2 + 2 * i));
        s->eng = std::make_unique<ServingEngine>(s->engine, s->policy);
        return s;
    }
    s->isCluster = true;
    ClusterConfig cc;
    cc.replicas = kReplicas;
    cc.threads = kPassThreads;
    const bool chaos = name == "cluster-chaos";
    if (!chaos) {
        cc.routing = RouteKind::PrefixAffinity;
        cc.engine.prefixCache.capacityTokens = kSessionsCacheTokens;
    } else {
        // Resilience tier without the autoscaler, whose seed-dependent
        // parking decisions moved the latency tails as much as the
        // faults themselves.
        cc.routing = RouteKind::LeastQueued;
        cc.resilience.enabled = true;
        cc.resilience.breakerSource = BreakerSource::Telemetry;
        cc.engine.admission = &s->brownout;
        cc.metrics.enabled = true;
    }
    s->engine = cc.engine;
    for (size_t i = 0; i < n; ++i) {
        Part& pt = s->parts[i];
        pt.trace = generateTrace(chaos ? chaosTrace() : sessionsTrace(),
                                 deriveSeed(2 + 2 * i));
        pt.cluster = cc;
        if (chaos)
            pt.cluster.faults = chaosPlan(pt.trace, deriveSeed(3 + 2 * i));
        pt.clu = std::make_unique<ServingCluster>(pt.cluster, s->policy);
    }
    return s;
}

// ---- simulated outcome, from request stamps -------------------------------

/** The simulated outcome of one round, pooled over its parts. */
struct Outcome
{
    int64_t completed = 0;
    double ttftP50 = 0, ttftP99 = 0, tpotP50 = 0, tpotP99 = 0;
    double goodputTokPerKcycle = 0;
    /** Summed over parts: each part's last terminal stamp. */
    double makespan = 0;
};

Outcome
outcomeOf(const std::vector<PassOut>& round, const SloConfig& slo)
{
    Outcome o;
    std::vector<double> ttft, tpot;
    int64_t good_tokens = 0;
    for (const PassOut& p : round) {
        dam::Cycle last = 0;
        for (const Request& r : p.reqs) {
            if (r.terminal())
                last = std::max(last, r.finishedAt);
            if (r.state != ReqState::Finished)
                continue;
            ++o.completed;
            const auto t = static_cast<double>(r.firstTokenAt - r.arrival);
            ttft.push_back(t);
            double per_token = 0;
            if (r.outputLen > 1) {
                per_token = static_cast<double>(r.finishedAt - r.firstTokenAt) /
                            static_cast<double>(r.outputLen - 1);
                tpot.push_back(per_token);
            }
            if (t <= slo.ttftCycles &&
                (r.outputLen <= 1 || per_token <= slo.tpotCycles))
                good_tokens += r.outputLen;
        }
        o.makespan += static_cast<double>(last);
    }
    o.ttftP50 = percentile(ttft, 0.50);
    o.ttftP99 = percentile(ttft, 0.99);
    o.tpotP50 = percentile(tpot, 0.50);
    o.tpotP99 = percentile(tpot, 0.99);
    if (o.makespan > 0)
        o.goodputTokPerKcycle =
            static_cast<double>(good_tokens) / (o.makespan / 1000.0);
    return o;
}

/**
 * Analytic prefill FLOPs of one prompt token through @p layers decoder
 * layers of the modelled architecture: the QKV projection, the output
 * projection of the d = kvHeads*headDim attention rows the decoder
 * graph streams, and the top-K SwiGLU experts (three H x I matmuls).
 */
double
prefillFlopsPerTokenOf(const ModelConfig& m, int64_t layers)
{
    const double h = static_cast<double>(m.hidden);
    const double d = static_cast<double>(m.numKvHeads * m.headDim);
    const double q = static_cast<double>(m.numQHeads * m.headDim);
    const double qkv = 2.0 * h * (q + 2.0 * d);
    const double out_proj = 2.0 * d * h;
    const double experts = static_cast<double>(m.topK) * 3.0 * 2.0 * h *
                           static_cast<double>(m.moeIntermediate);
    return (qkv + out_proj + experts) * static_cast<double>(layers);
}

// ---- output checks ---------------------------------------------------------

void
checkPart(const Serving& w, size_t part, const PassOut& p, Report& rep)
{
    const std::string tag = w.name + " part " + std::to_string(part) + ": ";
    const auto n = static_cast<int64_t>(w.parts[part].trace.size());
    int64_t done = 0, failed = 0, shed = 0, gen = 0;
    bool ordered = true, generated_ok = true;
    const EngineConfig& ec = w.engine;
    const int64_t layers =
        ec.numLayers > 0 ? ec.numLayers : ec.model.numLayers;
    const double fpt = prefillFlopsPerTokenOf(ec.model, layers);
    const auto pool = static_cast<double>(ec.totalComputeBw);
    std::string ttft_why;
    for (const Request& r : p.reqs) {
        if (r.state == ReqState::Failed)
            ++failed;
        if (r.state == ReqState::Shed)
            ++shed;
        if (r.state != ReqState::Finished)
            continue;
        ++done;
        gen += r.outputLen;
        if (!(r.arrival <= r.firstTokenAt && r.firstTokenAt <= r.finishedAt))
            ordered = false;
        if (r.generated != r.outputLen)
            generated_ok = false;
        const double floor_cycles =
            static_cast<double>(r.promptLen - r.prefillSkipTokens()) * fpt /
            pool;
        if (ttft_why.empty() && static_cast<double>(r.firstTokenAt -
                                                    r.arrival) <
                                    std::floor(floor_cycles))
            ttft_why = "request " + std::to_string(r.id) + " ttft " +
                       std::to_string(r.firstTokenAt - r.arrival) + " < " +
                       std::to_string(floor_cycles);
    }
    rep.check(done + failed + shed == n,
              tag + "request states do not close: completed " +
                  std::to_string(done) + " + failed " +
                  std::to_string(failed) + " + shed " +
                  std::to_string(shed) + " != " + std::to_string(n));
    const ServingSummary& s = p.summary;
    rep.check(s.completed + s.failedRequests + s.shedRequests == n,
              tag + "summary accounting does not close");
    rep.check(s.completed == done, tag + "summary completed != finished");
    rep.check(ordered, tag + "stamps not ordered arrival <= first token "
                             "<= finish");
    rep.check(generated_ok && s.generatedTokens == gen,
              tag + "generated tokens != sum of (capped) output lengths");
    rep.check(ttft_why.empty(),
              tag + "TTFT below the prefill-compute floor: " + ttft_why);
    const int64_t cap = w.engine.prefixCache.capacityTokens;
    if (cap > 0)
        rep.check(s.prefixPeakOccupancyMaxReplica <= cap,
                  tag + "prefix-cache peak occupancy exceeds capacity");
}

/** Lifecycle and counter checks a traced pass adds. */
void
checkTraced(const Serving& w, size_t part, const PassOut& p, Report& rep)
{
    const std::string tag =
        w.name + " part " + std::to_string(part) + " (traced): ";
    bool ordered = true;
    int64_t prefill = 0;
    for (const obs::TraceSink* sink : p.sinks()) {
        for (const obs::RequestLifecycle& l : sink->requests())
            if (l.finished &&
                !(l.admitted && l.arrival <= l.admittedAt &&
                  l.admittedAt <= l.firstTokenAt &&
                  l.firstTokenAt <= l.finishedAt))
                ordered = false;
        const obs::CounterRegistry& c = sink->counters();
        for (size_t h = 0; h < c.size(); ++h)
            if (c.name(h) == "prefill_tokens")
                prefill += c.value(h);
    }
    rep.check(ordered, tag + "lifecycle stamps not ordered arrival <= "
                             "admit <= first token <= finish");
    if (w.engine.prefixCache.capacityTokens > 0) {
        int64_t prompt = 0;
        for (const Request& r : p.reqs)
            if (r.state == ReqState::Finished)
                prompt += r.promptLen;
        rep.check(prefill + p.summary.prefixTokensSaved == prompt,
                  tag + "prefilled " + std::to_string(prefill) +
                      " + cache-saved " +
                      std::to_string(p.summary.prefixTokensSaved) +
                      " tokens != completed prompt tokens " +
                      std::to_string(prompt));
    }
}

/** Serve every part once, in order. */
std::vector<PassOut>
runRound(const Serving& w, bool traced)
{
    std::vector<PassOut> round;
    for (size_t i = 0; i < w.parts.size(); ++i)
        round.push_back(w.run(i, traced));
    return round;
}

// ---- end-to-end run -------------------------------------------------------

void
endToEnd(Serving& w, double setup_s, const Options& opt, Report& rep)
{
    std::optional<std::vector<PassOut>> first;
    // Host rates per pass, so a run's figure is a median over every pass
    // it made rather than one round's total.
    std::vector<double> req_rate, iter_rate;
    // Read after the first round, so the figure does not depend on how
    // many rounds the run length allows.
    double rss = 0;
    timedRounds(opt.seconds, static_cast<int64_t>(w.parts.size()), rep, [&] {
        std::vector<PassOut> round;
        for (size_t i = 0; i < w.parts.size(); ++i) {
            const auto t0 = Clock::now();
            PassOut p = w.run(i, false);
            const double dt = secondsSince(t0);
            int64_t terminal = 0;
            for (const Request& r : p.reqs)
                terminal += r.terminal() ? 1 : 0;
            req_rate.push_back(static_cast<double>(terminal) / dt);
            iter_rate.push_back(static_cast<double>(p.iterations) / dt);
            round.push_back(std::move(p));
        }
        if (!first) {
            first = std::move(round);
            rss = peakRssMib();
        }
    });
    if (!first) {
        rep.check(false, w.name + ": no round completed");
        return;
    }
    for (size_t i = 0; i < first->size(); ++i)
        checkPart(w, i, (*first)[i], rep);
    // Same-seed replay: part 0 again, through the same engine or cluster
    // object the timed passes reused.
    const PassOut again = w.run(0, false);
    rep.check(outputsOf(again.reqs) == outputsOf((*first)[0].reqs),
              w.name + ": a same-seed replay changed the per-request "
                       "outputs");
    if (w.isCluster) {
        PassOut n = w.run(0, false, kCheckThreads);
        rep.check(outputsOf(n.reqs) == outputsOf((*first)[0].reqs),
                  w.name + ": per-request outputs differ between " +
                      std::to_string(kPassThreads) + " and " +
                      std::to_string(kCheckThreads) + " threads");
    }
    const Outcome o = outcomeOf(*first, w.engine.slo);
    rep.check(o.completed >= 1000,
              w.name + ": fewer than 1000 completed requests in a round");
    rep.metric("setup_s", setup_s, "s");
    rep.metric("sim_requests_per_s", median(req_rate), "requests/s");
    rep.metric("sim_layers_per_s", median(iter_rate), "layers/s");
    rep.metric("peak_rss_mib", rss, "MiB");
    rep.metric("goodput_tok_per_kcycle", o.goodputTokPerKcycle,
               "tokens/kcycle");
    rep.metric("ttft_p50_kcycles", o.ttftP50 / 1e3, "kcycles");
    rep.metric("ttft_p99_kcycles", o.ttftP99 / 1e3, "kcycles");
    rep.metric("tpot_p50_kcycles", o.tpotP50 / 1e3, "kcycles");
    rep.metric("tpot_p99_kcycles", o.tpotP99 / 1e3, "kcycles");
    rep.metric("layers_sim_mcycles", o.makespan / 1e6, "Mcycles");
}

// ---- traced run: per-layer probes -------------------------------------------

/** Decode batch of every engine iteration, from the counter track. */
std::vector<int64_t>
decodeBatchTrack(const obs::TraceSink& sink)
{
    std::vector<int64_t> out;
    int64_t current = 0;
    sink.forEachEvent([&](const obs::TraceEvent& e) {
        if (e.kind != obs::EventKind::Counter)
            return;
        const std::string& n = sink.name(e.name);
        if (n == "decode_batch")
            current = e.arg0;
        else if (n == "iterations")
            out.push_back(current);
    });
    return out;
}

/**
 * Replay the traced run's decode-batch sequence through
 * runDecoderIteration on a benchmark-owned scheduler, arena graph and
 * rearm handles, beside a cold build of every iteration; time each
 * path, time rearmDecoderLayer alone, and split a fresh build into
 * build and drain for the ops/dam metrics.
 */
void
iterationReplay(const Serving& w, const std::vector<int64_t>& batches,
                Report& rep, Spans& spans)
{
    DecoderParams dp;
    const EngineConfig& ec = w.engine;
    dp.cfg = ec.model;
    dp.attnStrategy = ec.attnStrategy;
    dp.attnRegions = ec.attnRegions;
    dp.kvTileRows = ec.kvTileRows;
    dp.moeRegions = ec.moeRegions;
    dp.moeTile = ec.moeTile;
    dp.denseTile = ec.denseTile;
    dp.weightTileCols = ec.weightTileCols;
    dp.seed = ec.seed;
    // The engine's per-iteration bandwidth split is not in the counter
    // track; it is not part of the structural key either, so a fixed
    // value keeps the rearm/rebuild sequence the engine saw.
    dp.computeBwPerMatmul = 256;
    dp.cfg.moeMatmulBw = dp.computeBwPerMatmul;

    dam::Scheduler sched;
    GraphArena arena;
    Graph graph(SimConfig{}, &arena);
    DecoderRearmHandles handles;
    // KV lengths are not in the counter track either: draw them over the
    // trace's prompt + output range, from a stream of their own.
    Rng rng(deriveSeed(1000));
    std::vector<double> rearm_us, rebuild_us, cold_us, patch_us, build_us,
        run_us;
    double events = 0, switches = 0, drain_s = 0;
    int64_t decode_iters = 0, fresh = 0;
    bool same = true;
    for (int64_t b : batches) {
        if (b <= 0)
            continue;
        if (static_cast<size_t>(decode_iters) >= kReplayIterations)
            break;
        ++decode_iters;
        IterationSpec spec;
        for (int64_t i = 0; i < b; ++i)
            spec.kvLens.push_back(rng.uniformRange(32, 1200));
        spec.trace = generateExpertTrace(rng, b, dp.cfg.numExperts,
                                         dp.cfg.topK);
        dp.batch = b;

        SimResult cold;
        {
            auto sp = spans.scope("iter.cold");
            cold = runDecoderIteration(dp, spec, &sched);
            cold_us.push_back(sp.elapsed() * 1e6);
        }
        const uint64_t rearms = handles.rearms;
        SimResult warm;
        double warm_s = 0;
        {
            auto sp = spans.scope("iter.reuse");
            warm = runDecoderIteration(dp, spec, &sched, &graph, &handles);
            warm_s = sp.elapsed();
        }
        same &= sameSim(cold, warm);
        if (handles.rearms > rearms) {
            rearm_us.push_back(warm_s * 1e6);
            auto sp = spans.scope("iter.patch");
            rearmDecoderLayer(graph, handles, dp, spec);
            patch_us.push_back(sp.elapsed() * 1e6);
            same &= sameSim(graph.run(sched), cold);
        } else {
            rebuild_us.push_back(warm_s * 1e6);
        }
        // Fresh build split into build and drain (every 4th iteration
        // keeps the replay short).
        if (decode_iters % 4 == 1) {
            Graph g(iterationSimConfig(b));
            {
                auto sp = spans.scope("ops.build");
                buildDecoderLayer(g, dp, spec.trace, spec.kvLens);
                build_us.push_back(sp.elapsed() * 1e6);
            }
            SimResult r;
            {
                auto sp = spans.scope("ops.run");
                r = g.run(sched);
                const double s = sp.elapsed();
                run_us.push_back(s * 1e6);
                drain_s += s;
            }
            same &= sameSim(r, cold);
            events += static_cast<double>(g.totalChannelTokens());
            switches += static_cast<double>(r.contextSwitches);
            ++fresh;
        }
    }
    rep.check(same, w.name + ": rearmed iteration differs from its cold "
                             "build (SimResult)");
    rep.check(decode_iters > 0, w.name + ": no decode iteration to replay");
    const double it = static_cast<double>(std::max<int64_t>(decode_iters, 1));
    const double fr = static_cast<double>(std::max<int64_t>(fresh, 1));
    rep.metric("iter.rearms", static_cast<double>(handles.rearms), "count");
    rep.metric("iter.rebuilds", static_cast<double>(handles.rebuilds),
               "count");
    rep.metric("iter.rearm_hit_rate",
               static_cast<double>(handles.rearms) / it, "ratio");
    rep.metric("iter.rearm_us", median(rearm_us), "us");
    rep.metric("iter.rebuild_us", median(rebuild_us), "us");
    rep.metric("iter.cold_us", median(cold_us), "us");
    rep.metric("iter.patch_us", median(patch_us), "us");
    rep.metric("ops.build_us", median(build_us), "us");
    rep.metric("ops.run_us", median(run_us), "us");
    rep.metric("dam.events_per_iter", events / fr, "events/iter");
    rep.metric("dam.switches_per_iter", switches / fr, "switches/iter");
    rep.metric("dam.switches_per_event",
               events > 0 ? switches / events : 0, "switches/event");
    rep.metric("dam.drain_events_per_s", drain_s > 0 ? events / drain_s : 0,
               "events/s");
}

/** Shards of a part's trace by the cluster's routing pre-pass. */
std::vector<std::vector<Request>>
shardsOf(const Part& pt, const std::vector<int64_t>& route)
{
    std::vector<std::vector<Request>> shards(
        static_cast<size_t>(pt.cluster.replicas));
    for (size_t i = 0; i < pt.trace.size(); ++i)
        shards[static_cast<size_t>(route[i])].push_back(pt.trace[i]);
    return shards;
}

/**
 * Replay each replica's shard, in arrival order, through a standalone
 * PrefixCache of the replica's capacity: lookup (match + pin) at
 * admission, prompt insert, unpin, full-stream insert at completion.
 */
void
prefixReplay(const PrefixCacheConfig& cfg,
             const std::vector<std::vector<Request>>& shards, Report& rep,
             Spans& spans)
{
    std::vector<double> match_us, insert_us;
    int64_t evicted = 0;
    for (const auto& shard : shards) {
        PrefixCache cache(cfg);
        for (Request r : shard) {
            r.cachedPrefixTokens = 0;
            {
                auto sp = spans.scope("prefix.match");
                (void)cache.matchTokens(r);
                cache.acquire(r);
                match_us.push_back(sp.elapsed() * 1e6);
            }
            auto sp = spans.scope("prefix.insert");
            cache.insert(r.blockHashes, r.promptBlocks);
            cache.release(r);
            cache.insert(r.blockHashes,
                         static_cast<int64_t>(r.blockHashes.size()));
            insert_us.push_back(sp.elapsed() * 1e6);
        }
        evicted += cache.stats().evictedBlocks;
    }
    rep.metric("prefix.evicted_blocks", static_cast<double>(evicted),
               "blocks");
    rep.metric("prefix.match_us", median(match_us), "us");
    rep.metric("prefix.insert_us", median(insert_us), "us");
}

bool
sameSummary(const ServingSummary& a, const ServingSummary& b)
{
    return a.completed == b.completed &&
           a.generatedTokens == b.generatedTokens &&
           a.makespan == b.makespan && a.ttftSamples == b.ttftSamples &&
           a.tpotSamples == b.tpotSamples &&
           a.prefixLookups == b.prefixLookups &&
           a.prefixHits == b.prefixHits &&
           a.prefixTokensSaved == b.prefixTokensSaved &&
           a.prefixPeakOccupancyTokens == b.prefixPeakOccupancyTokens;
}

/**
 * runtime.cluster probes on part 0: the routing pre-pass alone, the
 * run, each replica's routed shard through a standalone ServingEngine,
 * a fault-free run of the same trace and a run without the metrics
 * registry.
 */
void
clusterProbes(const Serving& w, const ClusterResult& traced_run,
              Report& rep, Spans& spans)
{
    const Part& pt = w.parts[0];
    const ClusterConfig& cc = pt.cluster;
    // Median host seconds of kProbeReps calls of @p fn.
    auto timed = [&](const char* name, auto&& fn) {
        std::vector<double> t;
        for (int i = 0; i < kProbeReps; ++i) {
            auto sp = spans.scope(name);
            fn();
            t.push_back(sp.elapsed());
        }
        return median(t);
    };
    auto run_with = [&](const ClusterConfig& cfg) {
        ServingCluster c(cfg, w.policy);
        std::vector<Request> reqs = pt.trace;
        (void)c.run(reqs);
    };
    std::vector<int64_t> route;
    const double route_s = timed("cluster.route", [&] {
        route = pt.clu->routeTrace(pt.trace);
    });
    const double run_s = timed("cluster.run", [&] { run_with(cc); });
    const auto shards = shardsOf(pt, route);
    bool replica_same = true;
    const double engines_s = timed("cluster.engines", [&] {
        for (size_t r = 0; r < shards.size(); ++r) {
            EngineConfig ec = cc.engine;
            ec.seed = deriveSeed(r);
            ec.faults = cc.faults.forReplica(static_cast<int64_t>(r));
            std::vector<Request> shard = shards[r];
            ServingEngine e(ec, w.policy);
            EngineResult er = e.run(shard);
            replica_same &= sameSummary(
                er.summary, traced_run.replicas[r].result.summary);
        }
    });
    double faultfree_s = run_s;
    if (cc.faults.empty()) {
        rep.check(replica_same, w.name + ": a replica's shard replayed "
                                         "standalone does not reproduce "
                                         "its summary");
    } else {
        ClusterConfig ff = cc;
        ff.faults = FaultPlan{};
        faultfree_s = timed("cluster.faultfree_run", [&] { run_with(ff); });
    }
    double metrics_s = 0;
    if (cc.metrics.enabled) {
        ClusterConfig nm = cc;
        nm.metrics.enabled = false;
        metrics_s = run_s - timed("cluster.run_without_metrics",
                                  [&] { run_with(nm); });
    }
    rep.metric("cluster.route_s", route_s, "s");
    rep.metric("cluster.run_s", run_s, "s");
    rep.metric("cluster.engines_s", engines_s, "s");
    rep.metric("cluster.overhead_s", run_s - route_s - engines_s, "s");
    rep.metric("cluster.faultfree_run_s", faultfree_s, "s");
    rep.metric("cluster.failover_s", run_s - faultfree_s, "s");
    rep.metric("cluster.retries",
               static_cast<double>(traced_run.retriesIssued), "count");
    rep.metric("cluster.migrations",
               static_cast<double>(traced_run.migrationsIssued), "count");
    rep.metric("cluster.iterations",
               static_cast<double>(traced_run.totalIterations), "count");
    rep.metric("obs.metrics_s", metrics_s, "s");
    if (cc.engine.prefixCache.capacityTokens > 0)
        prefixReplay(cc.engine.prefixCache, shards, rep, spans);
}

void
traced(Serving& w, const Options& opt, Report& rep, Spans& spans)
{
    // An untraced baseline round, then traced rounds for the run length.
    double untraced_s = 0;
    {
        auto sp = spans.scope("round.untraced");
        (void)runRound(w, false);
        untraced_s = sp.elapsed();
    }
    std::optional<std::vector<PassOut>> first;
    std::vector<double> traced_s;
    timedRounds(opt.seconds, static_cast<int64_t>(w.parts.size()), rep, [&] {
        auto sp = spans.scope("round.traced");
        std::vector<PassOut> round;
        for (size_t i = 0; i < w.parts.size(); ++i) {
            auto run = spans.scope(w.isCluster ? "cluster.run"
                                               : "engine.run");
            round.push_back(w.run(i, true));
        }
        traced_s.push_back(sp.elapsed());
        if (!first)
            first = std::move(round);
    });
    if (!first) {
        rep.check(false, w.name + ": no traced round completed");
        return;
    }
    const std::vector<PassOut>& round = *first;
    for (size_t i = 0; i < round.size(); ++i) {
        checkPart(w, i, round[i], rep);
        checkTraced(w, i, round[i], rep);
    }
    const double round_s = median(traced_s);
    rep.metric("obs.trace_overhead_s", round_s - untraced_s, "s");

    // runtime.engine and runtime.batcher, from the sinks.
    std::map<std::string, int64_t> ctr;
    std::vector<double> waits, batches;
    int64_t lookups = 0, hits = 0, saved = 0;
    for (const PassOut& p : round) {
        for (const obs::TraceSink* sink : p.sinks()) {
            const obs::CounterRegistry& c = sink->counters();
            for (size_t h = 0; h < c.size(); ++h)
                if (c.kind(h) == obs::CounterRegistry::Kind::Monotonic)
                    ctr[c.name(h)] += c.value(h);
            for (const obs::RequestLifecycle& l : sink->requests())
                if (l.admitted)
                    waits.push_back(
                        static_cast<double>(l.admittedAt - l.arrival));
            for (int64_t b : decodeBatchTrack(*sink))
                if (b > 0)
                    batches.push_back(static_cast<double>(b));
        }
        lookups += p.summary.prefixLookups;
        hits += p.summary.prefixHits;
        saved += p.summary.prefixTokensSaved;
    }
    const double iters = static_cast<double>(ctr["iterations"]);
    rep.metric("engine.iterations", iters, "count");
    rep.metric("engine.iter_us", iters > 0 ? round_s * 1e6 / iters : 0,
               "us");
    rep.metric("engine.context_switches",
               static_cast<double>(ctr["context_switches"]), "count");
    rep.metric("engine.prefill_tokens",
               static_cast<double>(ctr["prefill_tokens"]), "tokens");
    rep.metric("engine.generated_tokens",
               static_cast<double>(ctr["generated_tokens"]), "tokens");
    rep.metric("batcher.queue_wait_p50_kcycles",
               percentile(waits, 0.50) / 1e3, "kcycles");
    rep.metric("batcher.queue_wait_p99_kcycles",
               percentile(waits, 0.99) / 1e3, "kcycles");
    rep.metric("batcher.decode_batch_mean", mean(batches), "requests");

    // runtime.prefixcache, from the runs' summaries.
    rep.metric("prefix.lookups", static_cast<double>(lookups), "count");
    rep.metric("prefix.hits", static_cast<double>(hits), "count");
    rep.metric("prefix.hit_rate",
               lookups > 0 ? static_cast<double>(hits) /
                                 static_cast<double>(lookups)
                           : 0,
               "ratio");
    rep.metric("prefix.tokens_saved", static_cast<double>(saved), "tokens");

    if (w.isCluster)
        clusterProbes(w, *round[0].cluster, rep, spans);
    else
        iterationReplay(w, decodeBatchTrack(*round[0].sink), rep, spans);
}

void
runServing(const std::string& name, const Options& opt, Report& rep,
           Spans& spans)
{
    std::unique_ptr<Serving> w;
    const double setup_s = timedSetup(kSetupSeconds, [&] {
        auto sp = spans.scope("setup");
        w = makeServing(name);
    });
    if (opt.trace)
        traced(*w, opt, rep, spans);
    else
        endToEnd(*w, setup_s, opt, rep);
}

} // namespace

void
serveBursty(const Options& opt, Report& rep, Spans& spans)
{
    runServing("serve-bursty", opt, rep, spans);
}

void
sessionsPrefix(const Options& opt, Report& rep, Spans& spans)
{
    runServing("sessions-prefix", opt, rep, spans);
}

void
clusterChaos(const Options& opt, Report& rep, Spans& spans)
{
    runServing("cluster-chaos", opt, rep, spans);
}

} // namespace perfbench
