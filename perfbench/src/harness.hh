/**
 * @file
 * Benchmark plumbing shared by the workloads: run options, the metric
 * and check report, order statistics, and the host-time span recorder
 * that the traced run uses to attribute wall time to the simulator's
 * layers. Spans are recorded only around the benchmark's own calls into
 * the library's public API; nothing here reaches inside the simulator.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Chrome-trace JSON of the traced run's host spans. */
    std::string traceOut;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * What one run reports: operations attempted and failed, the metrics,
 * and every failed output check (a failed check makes the run
 * incorrect and the process exit non-zero).
 */
class Report
{
  public:
    void
    metric(std::string name, double value, std::string unit)
    {
        metrics_.push_back({std::move(name), value, std::move(unit)});
    }
    /** Record an output check; a failed one is reported on stderr. */
    void check(bool ok, const std::string& what);
    bool correct() const { return failures_.empty(); }
    const std::vector<Metric>& metrics() const { return metrics_; }

    int64_t attempted = 0;
    int64_t failed = 0;

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> failures_;
};

/** Nearest-rank percentile (p in (0, 1]); 0 for an empty sample. */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/** Peak resident set of this process so far, MiB. */
double peakRssMib();

/**
 * Run whole rounds of @p ops_per_round operations (simulation passes)
 * until @p seconds of host time have gone, at least one round. A round
 * that throws counts all its operations as failed and is reported on
 * stderr.
 */
void timedRounds(double seconds, int64_t ops_per_round, Report& rep,
                 const std::function<void()>& round);

/**
 * Median host seconds of one call of @p setup, over as many calls as
 * fill @p min_seconds (at least five), so a set-up of a millisecond is
 * still timed over enough work to rise above timer and scheduler noise.
 */
double timedSetup(double min_seconds, const std::function<void()>& setup);

/**
 * Host-time span recorder. Each span has a name, start, end and
 * parent; spans stay in memory and are written out once, at the end,
 * as Chrome trace-event JSON (Perfetto opens it). Disabled, scope()
 * records nothing, so the untraced runs carry no tracing beyond one
 * branch per call site.
 */
class Spans
{
  public:
    struct Span
    {
        /** Must outlive the recorder (string literals, in practice). */
        const char* name = "";
        int32_t parent = -1;
        int64_t startNs = 0;
        int64_t endNs = -1;
    };

    explicit Spans(bool on) : on_(on), origin_(Clock::now()) {}

    class Scope
    {
      public:
        Scope(Spans* s, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        /** Host seconds since the scope opened (traced or not). */
        double elapsed() const { return secondsSince(start_); }

      private:
        Spans* s_;
        int32_t idx_ = -1;
        Clock::time_point start_;
    };

    Scope scope(const char* name) { return Scope(on_ ? this : nullptr, name); }

    /** Chrome trace-event JSON ("X" events, microseconds). */
    bool writeChromeTrace(const std::string& path,
                          const std::string& process_label) const;
    /**
     * Per-name table: calls, total and self milliseconds, where a
     * span's self time is its duration minus the time its direct
     * children cover.
     */
    void printSelfTime(std::ostream& os) const;

  private:
    int64_t nowNs() const;

    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int32_t> open_;
};

} // namespace perfbench
