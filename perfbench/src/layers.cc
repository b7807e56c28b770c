/**
 * @file
 * The paper-layers workload: the paper's layer graphs, each built cold
 * into a fresh Graph and simulated, with no serving runtime and no
 * rearm. A pass runs the MoE static-tile sweeps against dynamic tiling
 * (Mixtral and Qwen, batch 64 and 1024), configuration
 * time-multiplexing, static vs dynamic attention parallelization under
 * high KV-length variance, and the Figure 17 decoder stacks. The MoE
 * and attention layers run through bench_common.hh's runMoe and
 * runAttention.
 */
#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "analysis/pareto.hh"
#include "bench_common.hh"
#include "support/rng.hh"
#include "workloads.hh"
#include "workloads/decoder.hh"

namespace perfbench {
namespace {

using namespace step;
using step::bench::runAttention;
using step::bench::runMoe;

/** Host seconds of repeated set-ups whose median is setup_s. */
constexpr double kSetupSeconds = 0.5;
/** Independent input sets (expert traces, KV lengths) per round. */
constexpr size_t kParts = 4;
/** Decoder layers per Figure 17 stack (homogeneous up to the trace). */
constexpr int64_t kStackLayers = 2;
/** Time-multiplexed expert regions for Qwen's 128-expert pool. */
constexpr int64_t kTimeMuxRegions = 16;
constexpr int64_t kAttnBatch = 64;
constexpr ParStrategy kAttnStrategies[] = {ParStrategy::StaticCoarse,
                                           ParStrategy::StaticInterleaved,
                                           ParStrategy::Dynamic};

struct MoeCase
{
    ModelConfig cfg;
    int64_t batch = 0;
    std::vector<int64_t> tiles;
    ExpertTrace trace;
    /**
     * Whether the dynamic point must lie beyond the static frontier.
     * Not for Mixtral at batch 1024: there dynamic tiling needs the
     * same on-chip memory as static tile 256 and, on many traces, more
     * cycles, so its Pareto Improvement Distance is 1 on those seeds.
     */
    bool checkPid = true;
};

/** The generated inputs of one pass. */
struct Inputs
{
    std::vector<MoeCase> moe;
    std::vector<int64_t> attnLens;
    uint64_t stackSeed = 0;
};

Inputs
makeInputs(size_t part)
{
    Inputs in;
    const uint64_t base = 100 * part;
    uint64_t stream = base + 10;
    for (const ModelConfig& cfg : {mixtral8x7b(), qwen3_30b_a3b()})
        for (auto [batch, tiles] :
             {std::pair<int64_t, std::vector<int64_t>>{64, {8, 16, 32, 64}},
              std::pair<int64_t, std::vector<int64_t>>{
                  1024, {16, 64, 256, 1024}}}) {
            MoeCase c;
            c.cfg = cfg;
            c.batch = batch;
            c.tiles = tiles;
            c.checkPid = !(batch == 1024 && cfg.numExperts < 64);
            c.trace = representativeExpertTrace(deriveSeed(stream++), batch,
                                                cfg.numExperts, cfg.topK);
            in.moe.push_back(std::move(c));
        }
    in.attnLens =
        sampleKvBatch(deriveSeed(base + 20), kAttnBatch, KvVarClass::High);
    in.stackSeed = deriveSeed(base + 21);
    return in;
}

/** One simulated layer graph (or stack) of a pass. */
struct LayerRun
{
    bool dynamic = false;
    /** Layer graphs simulated (a stack counts each layer). */
    int64_t graphs = 1;
    /** Batch rows per layer graph. */
    int64_t rows = 0;
    SimResult sim;
};

struct MoeSweep
{
    std::vector<SimResult> statics; ///< one per tile
    SimResult dyn;
};

struct PassOut
{
    std::vector<LayerRun> runs;
    std::vector<MoeSweep> sweeps; ///< per MoeCase
    SimResult timeMuxQwen64;      ///< dynamic, kTimeMuxRegions regions
    std::vector<SimResult> attention; ///< per kAttnStrategies
    /** Figure 17 per model: mem-matched, perf-matched, dynamic. */
    std::vector<std::array<EndToEndResult, 3>> stacks;
};

SimResult
asSim(const EndToEndResult& e)
{
    SimResult r;
    r.cycles = e.cycles;
    r.onChipPeakBytes = e.onChipPeakBytes;
    r.offChipBytes = e.offChipBytes;
    r.totalFlops = e.totalFlops;
    r.allocatedComputeBw = e.allocatedComputeBw;
    return r;
}

EndToEndResult
runStack(const ModelConfig& cfg, Tiling tiling, int64_t tile,
         int64_t regions, ParStrategy attn, uint64_t seed)
{
    DecoderParams p;
    p.cfg = cfg;
    p.batch = 64;
    p.moeTiling = tiling;
    p.moeTile = tile;
    p.moeRegions = regions;
    p.attnStrategy = attn;
    p.seed = seed;
    return runEndToEnd(p, kStackLayers, seed);
}

PassOut
runPass(const Inputs& in, Spans& spans)
{
    PassOut out;
    for (const MoeCase& c : in.moe) {
        MoeSweep sw;
        for (int64_t tile : c.tiles) {
            auto sp = spans.scope("ops.moe_static");
            sw.statics.push_back(
                runMoe(c.cfg, c.batch, Tiling::Static, tile, 0, c.trace));
            out.runs.push_back({false, 1, c.batch, sw.statics.back()});
        }
        {
            auto sp = spans.scope("ops.moe_dynamic");
            sw.dyn = runMoe(c.cfg, c.batch, Tiling::Dynamic, 0, 0, c.trace);
        }
        out.runs.push_back({true, 1, c.batch, sw.dyn});
        out.sweeps.push_back(sw);
    }
    // Configuration time-multiplexing: Qwen batch 64 (case 2).
    const MoeCase& q64 = in.moe[2];
    {
        auto sp = spans.scope("ops.moe_timemux");
        out.timeMuxQwen64 = runMoe(q64.cfg, q64.batch, Tiling::Dynamic, 0,
                                   kTimeMuxRegions, q64.trace);
    }
    out.runs.push_back({true, 1, q64.batch, out.timeMuxQwen64});
    // Attention parallelization under high KV-length variance.
    for (ParStrategy s : kAttnStrategies) {
        auto sp = spans.scope("ops.attention");
        out.attention.push_back(runAttention(qwen3_30b_a3b(), in.attnLens, s));
        out.runs.push_back({s == ParStrategy::Dynamic, 1, kAttnBatch,
                            out.attention.back()});
    }
    // Figure 17 stacks, matched tiles from this pass's batch-64 sweeps.
    for (size_t m = 0; m < 2; ++m) {
        const MoeCase& c = in.moe[m * 2];
        const MoeSweep& sw = out.sweeps[m * 2];
        auto closest = [&](auto key) {
            size_t best = 0;
            for (size_t i = 1; i < sw.statics.size(); ++i)
                if (std::abs(key(sw.statics[i]) - key(sw.dyn)) <
                    std::abs(key(sw.statics[best]) - key(sw.dyn)))
                    best = i;
            return best;
        };
        const size_t mem_i = closest([](const SimResult& r) {
            return static_cast<double>(r.onChipPeakBytes);
        });
        const size_t perf_i = closest([](const SimResult& r) {
            return static_cast<double>(r.cycles);
        });
        const bool qwen = c.cfg.numExperts >= 64;
        std::array<EndToEndResult, 3> st;
        auto sp = spans.scope("ops.stack");
        st[0] = runStack(c.cfg, Tiling::Static, c.tiles[mem_i], 0,
                         ParStrategy::StaticInterleaved, in.stackSeed);
        st[1] = runStack(c.cfg, Tiling::Static, c.tiles[perf_i], 0,
                         ParStrategy::StaticInterleaved, in.stackSeed);
        st[2] = runStack(c.cfg, Tiling::Dynamic, 0,
                         qwen ? kTimeMuxRegions : 0, ParStrategy::Dynamic,
                         in.stackSeed);
        for (size_t k = 0; k < 3; ++k)
            out.runs.push_back({k == 2, kStackLayers, 64, asSim(st[k])});
        out.stacks.push_back(st);
    }
    return out;
}

/** FLOPs of the assignments in @p t: 3 matmuls of 2*H*I each. */
double
usefulFlops(const MoeCase& c)
{
    double assignments = 0;
    for (const auto& ids : c.trace.perToken)
        assignments += static_cast<double>(ids.size());
    return assignments * 6.0 * static_cast<double>(c.cfg.hidden) *
           static_cast<double>(c.cfg.moeIntermediate);
}

void
checkPass(const Inputs& in, const PassOut& p, Report& rep)
{
    for (size_t i = 0; i < in.moe.size(); ++i) {
        const MoeCase& c = in.moe[i];
        const MoeSweep& sw = p.sweeps[i];
        const std::string tag = "paper-layers " + c.cfg.name + " batch " +
                                std::to_string(c.batch) + ": ";
        const double useful = usefulFlops(c);
        const double dyn_excess = static_cast<double>(sw.dyn.totalFlops) -
                                  useful;
        rep.check(dyn_excess >= 0,
                  tag + "dynamic tiling executed fewer FLOPs than its "
                        "expert assignments need");
        std::vector<DesignPoint> pts;
        for (size_t t = 0; t < c.tiles.size(); ++t) {
            const double ex =
                static_cast<double>(sw.statics[t].totalFlops) - useful;
            rep.check(ex >= 0, tag + "static tile " +
                                   std::to_string(c.tiles[t]) +
                                   " executed fewer FLOPs than needed");
            rep.check(dyn_excess < ex,
                      tag + "dynamic padding excess not below static "
                            "tile " + std::to_string(c.tiles[t]));
            pts.push_back({static_cast<double>(sw.statics[t].cycles),
                           static_cast<double>(sw.statics[t].onChipPeakBytes),
                           "tile"});
        }
        const double pid = paretoImprovementDistance(
            {static_cast<double>(sw.dyn.cycles),
             static_cast<double>(sw.dyn.onChipPeakBytes), "dynamic"},
            pts);
        if (c.checkPid)
            rep.check(pid > 1.0, tag + "Pareto Improvement Distance " +
                                     std::to_string(pid) + " <= 1");
    }
    for (size_t m = 0; m < p.stacks.size(); ++m) {
        const auto& st = p.stacks[m];
        const double speedup_mem = static_cast<double>(st[0].cycles) /
                                   static_cast<double>(st[2].cycles);
        const double speedup_perf = static_cast<double>(st[1].cycles) /
                                    static_cast<double>(st[2].cycles);
        const double mem_save =
            1.0 - static_cast<double>(st[2].onChipPeakBytes) /
                      static_cast<double>(st[1].onChipPeakBytes);
        rep.check(speedup_mem > 1.0 && speedup_perf >= 0.95 && mem_save > 0,
                  "paper-layers Figure 17 (" + in.moe[m * 2].cfg.name +
                      "): speedup vs mem-matched " +
                      std::to_string(speedup_mem) + ", vs perf-matched " +
                      std::to_string(speedup_perf) + ", memory saved " +
                      std::to_string(mem_save));
    }
}

bool
samePass(const PassOut& a, const PassOut& b)
{
    if (a.runs.size() != b.runs.size())
        return false;
    for (size_t i = 0; i < a.runs.size(); ++i)
        if (!sameSim(a.runs[i].sim, b.runs[i].sim))
            return false;
    return true;
}

/**
 * The ops/dam probe: every MoE and attention graph of the pass built
 * into a fresh Graph and drained in two timed steps, with the same
 * parameters runMoe/runAttention use; each result must equal the
 * pass's.
 */
void
opsProbe(const Inputs& in, const PassOut& p, Report& rep, Spans& spans)
{
    std::vector<double> build_us, run_us;
    double events = 0, switches = 0, drain_s = 0, graphs = 0;
    bool same = true;
    auto probe = [&](const SimConfig& sc, auto&& build,
                     const SimResult& expect) {
        Graph g(sc);
        {
            auto sp = spans.scope("ops.build");
            build(g);
            build_us.push_back(sp.elapsed() * 1e6);
        }
        SimResult r;
        {
            auto sp = spans.scope("ops.run");
            r = g.run();
            const double s = sp.elapsed();
            run_us.push_back(s * 1e6);
            drain_s += s;
        }
        same &= sameSim(r, expect);
        events += static_cast<double>(g.totalChannelTokens());
        switches += static_cast<double>(r.contextSwitches);
        graphs += 1;
    };
    auto moe = [&](const MoeCase& c, Tiling tiling, int64_t tile,
                   int64_t regions, const SimResult& expect) {
        MoeParams mp;
        mp.cfg = c.cfg;
        mp.batch = c.batch;
        mp.tiling = tiling;
        mp.tileRows = tile;
        mp.parallelRegions = regions;
        mp.computeBwPerMatmul = c.cfg.moeMatmulBw;
        SimConfig sc;
        sc.channelCapacity = static_cast<size_t>(c.batch) + 32;
        probe(sc,
              [&](Graph& g) {
                  MoeBuild mb = buildMoeLayer(g, mp, c.trace);
                  g.add<SinkOp>("out", mb.out);
              },
              expect);
    };
    for (size_t i = 0; i < in.moe.size(); ++i) {
        const MoeCase& c = in.moe[i];
        for (size_t t = 0; t < c.tiles.size(); ++t)
            moe(c, Tiling::Static, c.tiles[t], 0, p.sweeps[i].statics[t]);
        moe(c, Tiling::Dynamic, 0, 0, p.sweeps[i].dyn);
    }
    moe(in.moe[2], Tiling::Dynamic, 0, kTimeMuxRegions, p.timeMuxQwen64);
    for (size_t i = 0; i < std::size(kAttnStrategies); ++i) {
        AttnParams ap;
        ap.cfg = qwen3_30b_a3b();
        ap.batch = kAttnBatch;
        ap.strategy = kAttnStrategies[i];
        ap.regions = 4;
        ap.kvTileRows = 32;
        ap.computeBw = 1024;
        ap.coarseBlock = std::max<int64_t>(1, ap.batch / ap.regions);
        SimConfig sc;
        sc.channelCapacity = static_cast<size_t>(ap.batch) + 32;
        probe(sc,
              [&](Graph& g) {
                  AttnBuild ab = buildAttentionLayer(g, ap, in.attnLens);
                  g.add<SinkOp>("out", ab.out);
              },
              p.attention[i]);
    }
    rep.check(same, "paper-layers: a layer built and drained in two steps "
                    "differs from bench_common's run of it");
    const double n = std::max(graphs, 1.0);
    rep.metric("ops.build_us", median(build_us), "us");
    rep.metric("ops.run_us", median(run_us), "us");
    rep.metric("dam.events_per_iter", events / n, "events/iter");
    rep.metric("dam.switches_per_iter", switches / n, "switches/iter");
    rep.metric("dam.switches_per_event",
               events > 0 ? switches / events : 0, "switches/event");
    rep.metric("dam.drain_events_per_s", drain_s > 0 ? events / drain_s : 0,
               "events/s");
}

} // namespace

void
paperLayers(const Options& opt, Report& rep, Spans& spans)
{
    std::vector<Inputs> parts;
    const double setup_s = timedSetup(kSetupSeconds, [&] {
        auto sp = spans.scope("setup");
        parts.clear();
        for (size_t i = 0; i < kParts; ++i)
            parts.push_back(makeInputs(i));
    });
    auto run_round = [&](Spans& sp) {
        std::vector<PassOut> round;
        for (const Inputs& in : parts)
            round.push_back(runPass(in, sp));
        return round;
    };
    const auto ops = static_cast<int64_t>(parts.size());

    if (opt.trace) {
        Spans off(false);
        double untraced_s = 0;
        {
            auto sp = spans.scope("round.untraced");
            (void)run_round(off);
            untraced_s = sp.elapsed();
        }
        std::optional<std::vector<PassOut>> first;
        std::vector<double> traced_s;
        timedRounds(opt.seconds, ops, rep, [&] {
            auto sp = spans.scope("round.traced");
            std::vector<PassOut> round = run_round(spans);
            traced_s.push_back(sp.elapsed());
            if (!first)
                first = std::move(round);
        });
        if (!first) {
            rep.check(false, "paper-layers: no traced round completed");
            return;
        }
        for (size_t i = 0; i < parts.size(); ++i)
            checkPass(parts[i], (*first)[i], rep);
        rep.metric("obs.trace_overhead_s", median(traced_s) - untraced_s,
                   "s");
        opsProbe(parts[0], (*first)[0], rep, spans);
        return;
    }

    std::optional<std::vector<PassOut>> first;
    std::vector<double> layer_rate, row_rate;
    double rss = 0; // after the first round, as for the serving workloads
    timedRounds(opt.seconds, ops, rep, [&] {
        // Host rates per pass: a run's figure is a median over every
        // pass it made.
        std::vector<PassOut> round;
        for (const Inputs& in : parts) {
            const auto t0 = Clock::now();
            PassOut p = runPass(in, spans);
            const double dt = secondsSince(t0);
            double graphs = 0, rows = 0;
            for (const LayerRun& r : p.runs) {
                graphs += static_cast<double>(r.graphs);
                rows += static_cast<double>(r.graphs * r.rows);
            }
            layer_rate.push_back(graphs / dt);
            row_rate.push_back(rows / dt);
            round.push_back(std::move(p));
        }
        if (!first) {
            first = std::move(round);
            rss = peakRssMib();
        }
    });
    if (!first) {
        rep.check(false, "paper-layers: no round completed");
        return;
    }
    for (size_t i = 0; i < parts.size(); ++i)
        checkPass(parts[i], (*first)[i], rep);
    // Same-seed replay: part 0 again, after the timed rounds.
    rep.check(samePass(runPass(parts[0], spans), (*first)[0]),
              "paper-layers: a same-seed replay changed a layer's result");

    // Simulated outcome of the dynamic (STeP) configurations: each
    // layer graph serves its batch rows one token each.
    double dyn_cycles = 0, dyn_rows = 0;
    std::vector<double> latency, per_token;
    for (const PassOut& p : *first)
        for (const LayerRun& r : p.runs) {
            if (!r.dynamic)
                continue;
            const double cyc = static_cast<double>(r.sim.cycles);
            dyn_cycles += cyc;
            dyn_rows += static_cast<double>(r.graphs * r.rows);
            const double per_layer = cyc / static_cast<double>(r.graphs);
            latency.push_back(per_layer);
            per_token.push_back(per_layer / static_cast<double>(r.rows));
        }
    rep.metric("setup_s", setup_s, "s");
    rep.metric("sim_requests_per_s", median(row_rate), "requests/s");
    rep.metric("sim_layers_per_s", median(layer_rate), "layers/s");
    rep.metric("peak_rss_mib", rss, "MiB");
    rep.metric("goodput_tok_per_kcycle",
               dyn_cycles > 0 ? dyn_rows / (dyn_cycles / 1e3) : 0,
               "tokens/kcycle");
    rep.metric("ttft_p50_kcycles", percentile(latency, 0.50) / 1e3,
               "kcycles");
    rep.metric("ttft_p99_kcycles", percentile(latency, 0.99) / 1e3,
               "kcycles");
    rep.metric("tpot_p50_kcycles", percentile(per_token, 0.50) / 1e3,
               "kcycles");
    rep.metric("tpot_p99_kcycles", percentile(per_token, 0.99) / 1e3,
               "kcycles");
    rep.metric("layers_sim_mcycles", dyn_cycles / 1e6, "Mcycles");
}

} // namespace perfbench
