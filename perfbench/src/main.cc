/**
 * @file
 * Benchmark program for the STeP simulator and its serving stack.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--trace-out PATH]
 *
 * Workloads: serve-bursty, sessions-prefix, cluster-chaos, paper-layers.
 * Every input is generated from the seed. An untraced run (--trace 0)
 * times whole rounds of simulation passes for S host seconds and
 * reports the end-to-end metrics; a traced run (--trace 1) records host spans
 * around the benchmark's calls into each layer, reads the engine's own
 * TraceSink, reports the per-layer metrics, prints a self-time table
 * and writes the spans as Chrome-trace JSON. The last stdout line is
 * one JSON object: correct, attempted, failed, metrics. The exit code
 * is non-zero when an output check fails.
 */
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "harness.hh"
#include "support/rng.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

struct Name
{
    const char* name;
    const char* unit;
};

const Name kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim_requests_per_s", "requests/s"},
    {"sim_layers_per_s", "layers/s"},
    {"peak_rss_mib", "MiB"},
    {"goodput_tok_per_kcycle", "tokens/kcycle"},
    {"ttft_p50_kcycles", "kcycles"},
    {"ttft_p99_kcycles", "kcycles"},
    {"tpot_p50_kcycles", "kcycles"},
    {"tpot_p99_kcycles", "kcycles"},
    {"layers_sim_mcycles", "Mcycles"},
};

/** Per-layer metrics; a workload that does not run a layer reports 0. */
const Name kPerLayer[] = {
    {"dam.events_per_iter", "events/iter"},
    {"dam.switches_per_iter", "switches/iter"},
    {"dam.switches_per_event", "switches/event"},
    {"dam.drain_events_per_s", "events/s"},
    {"iter.rearms", "count"},
    {"iter.rebuilds", "count"},
    {"iter.rearm_hit_rate", "ratio"},
    {"iter.rearm_us", "us"},
    {"iter.rebuild_us", "us"},
    {"iter.cold_us", "us"},
    {"iter.patch_us", "us"},
    {"ops.build_us", "us"},
    {"ops.run_us", "us"},
    {"engine.iterations", "count"},
    {"engine.iter_us", "us"},
    {"engine.context_switches", "count"},
    {"engine.prefill_tokens", "tokens"},
    {"engine.generated_tokens", "tokens"},
    {"batcher.queue_wait_p50_kcycles", "kcycles"},
    {"batcher.queue_wait_p99_kcycles", "kcycles"},
    {"batcher.decode_batch_mean", "requests"},
    {"prefix.lookups", "count"},
    {"prefix.hits", "count"},
    {"prefix.hit_rate", "ratio"},
    {"prefix.tokens_saved", "tokens"},
    {"prefix.evicted_blocks", "blocks"},
    {"prefix.match_us", "us"},
    {"prefix.insert_us", "us"},
    {"cluster.route_s", "s"},
    {"cluster.run_s", "s"},
    {"cluster.engines_s", "s"},
    {"cluster.overhead_s", "s"},
    {"cluster.faultfree_run_s", "s"},
    {"cluster.failover_s", "s"},
    {"cluster.retries", "count"},
    {"cluster.migrations", "count"},
    {"cluster.iterations", "count"},
    {"obs.metrics_s", "s"},
    {"obs.trace_overhead_s", "s"},
};

int
usage(const char* msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload serve-bursty|sessions-prefix|"
                 "cluster-chaos|paper-layers [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-out PATH]\n";
    return 2;
}

bool
parseArgs(int argc, char** argv, Options& opt, std::string& err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) {
            err = "missing value for " + a;
            return false;
        }
        const std::string v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            if (!(opt.seconds >= 0 && opt.seconds <= 3600)) {
                err = "--seconds out of range";
                return false;
            }
        } else if (a == "--trace") {
            if (v != "0" && v != "1") {
                err = "--trace wants 0 or 1";
                return false;
            }
            opt.trace = v == "1";
        } else if (a == "--trace-out") {
            opt.traceOut = v;
        } else {
            err = "unknown flag " + a;
            return false;
        }
        if (end && *end != '\0') {
            err = "bad number for " + a + ": " + v;
            return false;
        }
    }
    if (opt.workload.empty()) {
        err = "--workload is required";
        return false;
    }
    return true;
}

std::string
resultJson(const Report& rep, const Name* names, size_t count)
{
    std::map<std::string, double> got;
    for (const Metric& m : rep.metrics())
        got[m.name] = m.value;
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "{\"correct\": " << (rep.correct() ? "true" : "false")
       << ", \"attempted\": " << rep.attempted
       << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    for (size_t i = 0; i < count; ++i) {
        auto it = got.find(names[i].name);
        double v = it == got.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0.0;
        os << (i ? ", " : "") << "\"" << names[i].name
           << "\": {\"value\": " << v << ", \"unit\": \"" << names[i].unit
           << "\"}";
    }
    os << "}}";
    return os.str();
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    std::string err;
    if (!parseArgs(argc, argv, opt, err))
        return usage(err.c_str());
    void (*run)(const Options&, Report&, Spans&) = nullptr;
    if (opt.workload == "serve-bursty")
        run = serveBursty;
    else if (opt.workload == "sessions-prefix")
        run = sessionsPrefix;
    else if (opt.workload == "cluster-chaos")
        run = clusterChaos;
    else if (opt.workload == "paper-layers")
        run = paperLayers;
    else
        return usage(("unknown workload " + opt.workload).c_str());

    // One global seed, set before any worker thread exists; every input
    // stream derives from it.
    step::setGlobalSeed(opt.seed);
    Report rep;
    Spans spans(opt.trace);
    try {
        auto sp = spans.scope(opt.workload.c_str());
        run(opt, rep, spans);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
                  << "\n";
        return 1;
    }

    // Every reported metric must be one of the declared ones.
    const Name* names = opt.trace ? kPerLayer : kEndToEnd;
    const size_t count =
        opt.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
    for (const Metric& m : rep.metrics()) {
        bool known = false;
        for (size_t i = 0; i < count; ++i)
            known |= m.name == names[i].name && m.unit == names[i].unit;
        rep.check(known, "undeclared metric " + m.name + " [" + m.unit + "]");
    }
    if (!opt.trace)
        for (size_t i = 0; i < count; ++i) {
            bool present = false;
            for (const Metric& m : rep.metrics())
                present |= m.name == names[i].name && m.value > 0;
            rep.check(present, std::string("end-to-end metric ") +
                                   names[i].name + " missing or not positive");
        }

    if (opt.trace) {
        spans.printSelfTime(std::cout);
        if (!opt.traceOut.empty()) {
            if (spans.writeChromeTrace(opt.traceOut,
                                       "perfbench " + opt.workload))
                std::cout << "host spans -> " << opt.traceOut << "\n";
            else
                std::cerr << "perfbench: cannot write " << opt.traceOut
                          << "\n";
        }
    }
    std::cout << resultJson(rep, names, count) << std::endl;
    return rep.correct() && rep.failed == 0 ? 0 : 1;
}
