/**
 * @file
 * Fused Transformer decoder layer and end-to-end model runner
 * (section 5.5). Each layer is one STeP graph: QKV projection ->
 * attention (parallelized over regions) -> output projection -> MoE ->
 * off-chip store. The full model executes the layer graph repeatedly
 * with per-layer expert-routing traces, exactly the paper's "executed
 * repeatedly with layer-specific weights".
 */
#pragma once

#include "ops/graph.hh"
#include "workloads/attention.hh"
#include "workloads/moe.hh"

namespace step {

struct DecoderParams
{
    ModelConfig cfg;
    int64_t batch = 64;

    Tiling moeTiling = Tiling::Static;
    int64_t moeTile = 32;
    /** 0 = dedicated region per expert. */
    int64_t moeRegions = 0;

    ParStrategy attnStrategy = ParStrategy::StaticInterleaved;
    int64_t attnRegions = 4;
    int64_t kvTileRows = 32;

    int64_t denseTile = 32;
    int64_t weightTileCols = 64;
    int64_t computeBwPerMatmul = 1024;
    uint64_t seed = 42;
};

/** Aggregate result of an end-to-end (multi-layer) run. */
struct EndToEndResult
{
    dam::Cycle cycles = 0;          ///< summed over layers
    int64_t onChipPeakBytes = 0;    ///< max over layers (same hardware)
    int64_t allocatedComputeBw = 0; ///< max over layers
    int64_t offChipBytes = 0;       ///< summed
    int64_t totalFlops = 0;         ///< summed
};

/**
 * Dense projection block over a row stream: [B,1] of [1,in_cols] ->
 * [B,1] of [1,out_cols]. Used for QKV and attention-output projections.
 * When @p bw_ops is non-null, the operators billed against
 * @p compute_bw are recorded as (op, divisor) pairs for the rearm path.
 */
StreamPort buildDenseProj(Graph& g, const std::string& name,
                          StreamPort in_rows, int64_t in_cols,
                          int64_t out_cols, int64_t tile_rows,
                          int64_t weight_tile_cols, int64_t compute_bw,
                          uint64_t weight_base_addr,
                          std::vector<std::pair<OpBase*, int64_t>>* bw_ops
                              = nullptr);

/**
 * Structural fingerprint of a decoder-layer graph: everything that
 * determines the operator set and the wiring between operators. The
 * decode batch size B is deliberately absent: it is a dynamic dimension
 * of the graph's streams, and the rearm path supplies it together with
 * the other per-iteration state (KV lengths, expert traces,
 * policy-assigned bandwidths, channel depths that scale with B). When
 * the key changes (layer config, parallelization split) the graph must
 * be recycled and rebuilt.
 */
struct DecoderStructKey
{
    // ModelConfig geometry
    int64_t hidden = 0;
    int64_t moeIntermediate = 0;
    int64_t numExperts = 0;
    int64_t topK = 0;
    int64_t headDim = 0;
    int64_t numQHeads = 0;
    int64_t numKvHeads = 0;
    // Parallelization / tiling
    Tiling moeTiling = Tiling::Static;
    int64_t moeTile = 0;
    int64_t moeRegions = 0;
    ParStrategy attnStrategy = ParStrategy::StaticInterleaved;
    int64_t attnRegions = 0;
    int64_t kvTileRows = 0;
    int64_t denseTile = 0;
    int64_t weightTileCols = 0;
    uint64_t seed = 0;

    bool operator==(const DecoderStructKey&) const = default;
};

DecoderStructKey decoderStructKey(const DecoderParams& p);

/**
 * The SimConfig a serving iteration at @p batch runs under (the default
 * channel depth scales with the batch). Exported so benches and tests
 * build exactly the graph the engine runs; rearming a built graph with
 * the config of a new batch re-sizes every default-depth channel to
 * what a cold build at that batch would have (Graph::rearm).
 */
SimConfig iterationSimConfig(int64_t batch);

/**
 * Typed handles to the per-iteration operators of a built decoder-layer
 * graph plus the structural key they were built under. Owned by the
 * graph's driver (e.g. the serving engine) and refreshed by
 * buildDecoderLayer on every full rebuild; runDecoderIteration uses
 * them to take the structure-preserving rearm fast path whenever the
 * key still matches.
 */
struct DecoderRearmHandles
{
    bool valid = false;
    DecoderStructKey key;
    /** Decode batch size the graph is currently armed for. */
    int64_t batch = 0;
    SourceOp* layerIn = nullptr;
    /** (op, divisor): rearmed bw = p.computeBwPerMatmul / divisor. */
    std::vector<std::pair<OpBase*, int64_t>> denseBwOps;
    AttnRearmHandles attn;
    MoeRearmHandles moe;
    // Path counters (observability for benches and tests).
    uint64_t rearms = 0;
    uint64_t rebuilds = 0;
};

/**
 * Build one decoder layer into @p g; returns the layer-output stream
 * ([B] of [1,H] rows) already routed into a LinearOffChipStore, so the
 * run's makespan covers "first off-chip read to last off-chip write".
 * When @p rearm is non-null its handles are reset and repopulated for
 * the new build (key/valid/batch/counters are managed by the caller).
 */
void buildDecoderLayer(Graph& g, const DecoderParams& p,
                       const ExpertTrace& trace,
                       const std::vector<int64_t>& kv_lens,
                       DecoderRearmHandles* rearm = nullptr);


/**
 * One serving iteration: a single decoder-layer pass over the *current*
 * dynamic batch composition. The serving runtime calls this once per
 * continuous-batching iteration with the batch's per-request context
 * lengths and a per-iteration expert-routing trace, instead of building
 * one whole-run graph up front — that is what lets request-level
 * dynamism (variable KV lengths, variable batch size, variable expert
 * load) reach the hardware model.
 */
struct IterationSpec
{
    /** Per-request KV context length for this iteration's batch. */
    std::vector<int64_t> kvLens;
    /** Expert routing for this iteration's tokens (size == batch). */
    ExpertTrace trace;
};

/**
 * Structure-preserving re-arm of a previously built decoder-layer
 * graph: Graph::rearm plus per-operator patches for the iteration's
 * batch size, KV lengths, expert trace, and bandwidths. Valid only
 * while decoderStructKey(p) matches the build (any batch size is);
 * metrics are bit-identical to a cold build with the same (p, spec).
 * Exposed separately from runDecoderIteration so benches can time the
 * rearm cost alone.
 */
void rearmDecoderLayer(Graph& g, const DecoderRearmHandles& h,
                       const DecoderParams& p, const IterationSpec& spec);

/**
 * Build and simulate one decoder-layer iteration. When @p sched is
 * non-null the externally owned scheduler is reused (reset + run), so a
 * long-lived engine pays no scheduler setup per iteration. When
 * @p reuse is non-null it must be an arena-backed Graph owned by the
 * caller: the previous build is recycled in place and the new iteration
 * graph reuses its operator storage, pooled channels, and interned
 * names (see Graph::recycle). When @p rearm is also non-null and the
 * structural key matches the previous build, even the rebuild is
 * skipped: the recycled graph is patched in place (rearmDecoderLayer)
 * — the fast path the serving engine runs on, whatever the batch size.
 * On a key change the handles are refreshed by a full recycle+rebuild.
 *
 * When @p vopts is non-null every fresh build — the cold path and the
 * rearm structural-key fallback — and every rearm that changes the
 * batch size (and with it channel depths and priming counts) is
 * statically verified (Graph::verify) before it runs; an error-severity
 * finding raises FatalError with the rendered report. Verification is
 * read-only, so a clean verified run is byte-identical to an unverified
 * one.
 */
SimResult runDecoderIteration(const DecoderParams& p,
                              const IterationSpec& spec,
                              dam::Scheduler* sched = nullptr,
                              Graph* reuse = nullptr,
                              DecoderRearmHandles* rearm = nullptr,
                              const verify::VerifyOptions* vopts = nullptr);

/** Run @p layers decoder layers (fresh graph each) and aggregate. */
EndToEndResult runEndToEnd(const DecoderParams& p, int64_t layers,
                           uint64_t trace_seed);

} // namespace step
