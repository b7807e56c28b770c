/**
 * @file
 * Correctness of the structure-preserving rearm path: over a hundred-
 * plus serving iterations with seeded per-iteration batch sizes, KV
 * lengths, expert traces, and policy bandwidths, the rearm fast path
 * must produce metrics bit-identical to (a) recycle+rebuild on a reused
 * graph and (b) a cold graph built from scratch. The decode batch size
 * is a dynamic dimension of the one built graph, so batch changes are
 * rearms; a structural change (the MoE tile) forces the structural-key
 * fallback, which must transparently rebuild and refresh the handles.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/framepool.hh"
#include "support/rng.hh"
#include "trace/trace.hh"
#include "workloads/decoder.hh"

namespace step {
namespace {

DecoderParams
baseParams(ParStrategy attn)
{
    DecoderParams p;
    p.cfg = servingSimConfig();
    p.attnStrategy = attn;
    p.moeRegions = 4;
    p.moeTile = 16;
    p.denseTile = 16;
    return p;
}

IterationSpec
specFor(const DecoderParams& p, uint64_t seed, int64_t batch)
{
    IterationSpec spec;
    Rng rng(seed * 9176 + 13);
    spec.trace = generateExpertTrace(rng, batch, p.cfg.numExperts,
                                     p.cfg.topK);
    spec.kvLens = sampleKvBatch(seed, batch, KvVarClass::Med);
    return spec;
}

void
expectIdentical(const SimResult& a, const SimResult& b, int64_t iter,
                const char* what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what << " iter " << iter;
    EXPECT_EQ(a.offChipBytes, b.offChipBytes) << what << " iter " << iter;
    EXPECT_EQ(a.offChipReadBytes, b.offChipReadBytes)
        << what << " iter " << iter;
    EXPECT_EQ(a.offChipWriteBytes, b.offChipWriteBytes)
        << what << " iter " << iter;
    EXPECT_EQ(a.onChipPeakBytes, b.onChipPeakBytes)
        << what << " iter " << iter;
    EXPECT_EQ(a.totalFlops, b.totalFlops) << what << " iter " << iter;
    EXPECT_EQ(a.allocatedComputeBw, b.allocatedComputeBw)
        << what << " iter " << iter;
    EXPECT_EQ(a.contextSwitches, b.contextSwitches)
        << what << " iter " << iter;
}

/**
 * 120 iterations whose batch size goes 4 -> 6 -> 4. With
 * @p break_structure the MoE tile also changes twice (16 -> 8 -> 16),
 * a structural change each time.
 */
void
runComparison(ParStrategy attn, bool break_structure)
{
    const int64_t kIters = 120;
    dam::Scheduler sched;

    GraphArena rearm_arena;
    Graph rearm_graph(SimConfig{}, &rearm_arena);
    DecoderRearmHandles handles;

    GraphArena rebuild_arena;
    Graph rebuild_graph(SimConfig{}, &rebuild_arena);

    for (int64_t i = 0; i < kIters; ++i) {
        // Two batch-size changes (rearmed), optionally two structural
        // breaks, plus a per-iteration bandwidth wobble standing in for
        // policy splits.
        const int64_t B = (i >= 40 && i < 80) ? 6 : 4;
        DecoderParams p = baseParams(attn);
        p.batch = B;
        if (break_structure && i >= 60 && i < 100)
            p.moeTile = 8;
        p.computeBwPerMatmul = 512 + 128 * (i % 3);
        p.cfg.moeMatmulBw = p.computeBwPerMatmul;
        IterationSpec spec =
            specFor(p, 1000 + static_cast<uint64_t>(i), B);

        SimResult via_rearm = runDecoderIteration(p, spec, &sched,
                                                  &rearm_graph, &handles);
        SimResult via_rebuild =
            runDecoderIteration(p, spec, &sched, &rebuild_graph);
        SimResult cold = runDecoderIteration(p, spec, &sched);

        expectIdentical(via_rearm, via_rebuild, i, "rearm vs rebuild");
        expectIdentical(via_rearm, cold, i, "rearm vs cold");
        if (::testing::Test::HasFailure())
            break;
    }

    // The initial build (plus the two structural-key fallbacks when
    // the MoE tile changes); everything else, batch changes included,
    // took the fast path.
    const uint64_t builds = break_structure ? 3u : 1u;
    EXPECT_EQ(handles.rebuilds, builds);
    EXPECT_EQ(handles.rearms, static_cast<uint64_t>(kIters) - builds);
}

TEST(Rearm, BitIdenticalStaticAttention)
{
    runComparison(ParStrategy::StaticInterleaved, false);
}

TEST(Rearm, BitIdenticalDynamicAttention)
{
    runComparison(ParStrategy::Dynamic, false);
}

TEST(Rearm, StructuralChangeRebuildsStaticAttention)
{
    runComparison(ParStrategy::StaticInterleaved, true);
}

TEST(Rearm, StructuralChangeRebuildsDynamicAttention)
{
    runComparison(ParStrategy::Dynamic, true);
}

/**
 * Seeded batch sizes over 1..64: each round climbs past every earlier
 * maximum, visits a size below it, and drops back to 1, until the
 * maximum reaches 64.
 */
std::vector<int64_t>
randomBatchSequence(uint64_t seed)
{
    Rng rng(seed);
    std::vector<int64_t> seq{1};
    int64_t peak = 1;
    while (peak < 64) {
        peak = std::min<int64_t>(64, peak + rng.uniformRange(1, 16));
        seq.push_back(peak);
        seq.push_back(rng.uniformRange(1, peak));
        seq.push_back(1);
    }
    return seq;
}

/**
 * One built graph rearmed across the random batch sequence: before each
 * run its channel depths and priming counts must equal a cold build's
 * at that batch size, and its SimResult must be bit-identical.
 */
void
runRandomBatches(ParStrategy attn)
{
    const std::vector<int64_t> seq = randomBatchSequence(2024);
    dam::Scheduler sched;
    GraphArena arena;
    Graph g(SimConfig{}, &arena);
    DecoderRearmHandles handles;
    for (size_t i = 0; i < seq.size(); ++i) {
        const int64_t B = seq[i];
        DecoderParams p = baseParams(attn);
        p.batch = B;
        IterationSpec spec = specFor(p, 500 + i, B);

        Graph cold(iterationSimConfig(B));
        buildDecoderLayer(cold, p, spec.trace, spec.kvLens);
        const SimResult via_cold = cold.run(sched);

        if (i == 0) {
            const SimResult first =
                runDecoderIteration(p, spec, &sched, &g, &handles);
            expectIdentical(first, via_cold, 0, "first build vs cold");
            continue;
        }
        rearmDecoderLayer(g, handles, p, spec);
        ASSERT_EQ(g.channels().size(), cold.channels().size());
        for (size_t c = 0; c < cold.channels().size(); ++c)
            EXPECT_EQ(g.channels()[c]->capacity(),
                      cold.channels()[c]->capacity())
                << cold.channels()[c]->name() << " at B=" << B;
        ASSERT_EQ(g.ops().size(), cold.ops().size());
        for (size_t o = 0; o < cold.ops().size(); ++o)
            for (size_t c = 0; c < cold.channels().size(); ++c)
                EXPECT_EQ(g.ops()[o]->primingTokens(g.channels()[c]),
                          cold.ops()[o]->primingTokens(
                              cold.channels()[c]))
                    << cold.ops()[o]->name() << " at B=" << B;
        const SimResult via_rearm =
            runDecoderIteration(p, spec, &sched, &g, &handles);
        expectIdentical(via_rearm, via_cold, static_cast<int64_t>(i),
                        "rearm vs cold");
        if (::testing::Test::HasFailure())
            break;
    }
    EXPECT_EQ(handles.rebuilds, 1u);
    EXPECT_EQ(handles.rearms, static_cast<uint64_t>(seq.size()) - 1u);
}

TEST(Rearm, RandomBatchSizesDynamicAttention)
{
    runRandomBatches(ParStrategy::Dynamic);
}

TEST(Rearm, RandomBatchSizesStaticInterleavedAttention)
{
    runRandomBatches(ParStrategy::StaticInterleaved);
}

TEST(Rearm, RandomBatchSizesStaticCoarseAttention)
{
    // StaticCoarse's block size, and with it the region assignment,
    // depends on the batch size.
    runRandomBatches(ParStrategy::StaticCoarse);
}

TEST(Rearm, RepeatedRearmWithoutRunIsIdempotent)
{
    DecoderParams p = baseParams(ParStrategy::StaticInterleaved);
    p.batch = 4;
    IterationSpec spec = specFor(p, 7, 4);

    dam::Scheduler sched;
    GraphArena arena;
    Graph g(SimConfig{}, &arena);
    DecoderRearmHandles h;
    SimResult first = runDecoderIteration(p, spec, &sched, &g, &h);

    // Benches time rearmDecoderLayer in a loop without running the
    // graph in between; the extra rearms must not perturb the next run.
    for (int i = 0; i < 5; ++i)
        rearmDecoderLayer(g, h, p, spec);
    SimResult again = runDecoderIteration(p, spec, &sched, &g, &h);
    expectIdentical(first, again, 0, "after repeated rearm");
}

TEST(Rearm, FramePoolRecyclesFrames)
{
    DecoderParams p = baseParams(ParStrategy::StaticInterleaved);
    p.batch = 4;
    IterationSpec spec = specFor(p, 11, 4);

    dam::Scheduler sched;
    GraphArena arena;
    Graph g(SimConfig{}, &arena);
    DecoderRearmHandles h;
    runDecoderIteration(p, spec, &sched, &g, &h); // builds all frames

    FramePool::Stats before = FramePool::stats();
    runDecoderIteration(p, spec, &sched, &g, &h);
    FramePool::Stats after = FramePool::stats();
    // A steady-state iteration allocates every coroutine frame from the
    // pool's freelists, not the heap.
    EXPECT_GT(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
}

} // namespace
} // namespace step
