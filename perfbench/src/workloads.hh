/**
 * @file
 * The benchmark workloads. Each one generates its inputs from the seed,
 * times whole rounds of simulation passes for the requested host
 * seconds, checks the outputs, and fills the report: the end-to-end
 * metrics on an untraced run, the per-layer metrics on a traced one.
 */
#pragma once

#include "harness.hh"
#include "ops/graph.hh"

namespace perfbench {

/** Every field of two simulation results agrees. */
inline bool
sameSim(const step::SimResult& a, const step::SimResult& b)
{
    return a.cycles == b.cycles && a.offChipBytes == b.offChipBytes &&
           a.offChipReadBytes == b.offChipReadBytes &&
           a.offChipWriteBytes == b.offChipWriteBytes &&
           a.onChipPeakBytes == b.onChipPeakBytes &&
           a.totalFlops == b.totalFlops &&
           a.allocatedComputeBw == b.allocatedComputeBw &&
           a.contextSwitches == b.contextSwitches;
}

/** One engine, queue-depth policy, legacy bursty Poisson trace. */
void serveBursty(const Options& opt, Report& rep, Spans& spans);
/** Multi-turn sessions on a fault-free prefix-affinity cluster. */
void sessionsPrefix(const Options& opt, Report& rep, Spans& spans);
/** Least-queued cluster under a seeded crash + slowdown plan. */
void clusterChaos(const Options& opt, Report& rep, Spans& spans);
/** The paper's layer graphs, each built cold and simulated. */
void paperLayers(const Options& opt, Report& rep, Spans& spans);

} // namespace perfbench
