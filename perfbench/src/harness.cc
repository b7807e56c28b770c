#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string_view>
#include <sys/resource.h>

namespace perfbench {

void
Report::check(bool ok, const std::string& what)
{
    if (ok)
        return;
    failures_.push_back(what);
    std::cerr << "perfbench: check failed: " << what << "\n";
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
peakRssMib()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
timedRounds(double seconds, int64_t ops_per_round, Report& rep,
            const std::function<void()>& round)
{
    const auto start = Clock::now();
    int rounds = 0;
    do {
        ++rounds;
        rep.attempted += ops_per_round;
        try {
            round();
        } catch (const std::exception& e) {
            rep.failed += ops_per_round;
            std::cerr << "perfbench: round " << rounds
                      << " threw: " << e.what() << "\n";
        }
    } while (secondsSince(start) < seconds);
}

double
timedSetup(double min_seconds, const std::function<void()>& setup)
{
    std::vector<double> t;
    const auto start = Clock::now();
    while (t.size() < 5 || secondsSince(start) < min_seconds) {
        const auto t0 = Clock::now();
        setup();
        t.push_back(secondsSince(t0));
    }
    return median(t);
}

// ---- spans --------------------------------------------------------------

int64_t
Spans::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

Spans::Scope::Scope(Spans* s, const char* name)
    : s_(s), start_(Clock::now())
{
    if (!s_)
        return;
    idx_ = static_cast<int32_t>(s_->spans_.size());
    Span sp;
    sp.name = name;
    sp.parent = s_->open_.empty() ? -1 : s_->open_.back();
    sp.startNs = s_->nowNs();
    s_->spans_.push_back(sp);
    s_->open_.push_back(idx_);
}

Spans::Scope::~Scope()
{
    if (!s_)
        return;
    s_->spans_[static_cast<size_t>(idx_)].endNs = s_->nowNs();
    s_->open_.pop_back();
}

namespace {

void
jsonEscape(std::ostream& os, std::string_view s)
{
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
               << static_cast<int>(c) << std::dec << std::setfill(' ');
        else
            os << c;
    }
}

} // namespace

bool
Spans::writeChromeTrace(const std::string& path,
                        const std::string& process_label) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
          "\"args\":{\"name\":\"";
    jsonEscape(os, process_label);
    os << "\"}},\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
          "\"tid\":0,\"args\":{\"name\":\"host\"}}";
    os << std::fixed << std::setprecision(3);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.endNs < 0)
            continue;
        os << ",\n{\"name\":\"";
        jsonEscape(os, s.name);
        os << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":"
           << static_cast<double>(s.startNs) * 1e-3
           << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) * 1e-3
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
          "\"clock\":\"host-steady-us\"}}\n";
    return os.good();
}

void
Spans::printSelfTime(std::ostream& os) const
{
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
        if (s.parent >= 0 && s.endNs >= 0)
            child_ns[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    struct Row
    {
        int64_t calls = 0;
        int64_t totalNs = 0;
        int64_t selfNs = 0;
    };
    std::map<std::string_view, Row> rows;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.endNs < 0)
            continue;
        Row& r = rows[s.name];
        ++r.calls;
        r.totalNs += s.endNs - s.startNs;
        r.selfNs += s.endNs - s.startNs - child_ns[i];
    }
    std::vector<std::pair<std::string_view, Row>> sorted(rows.begin(),
                                                         rows.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
        return a.second.selfNs > b.second.selfNs;
    });
    os << "host self time by span (ms):\n";
    os << std::left << std::setw(28) << "span" << std::right
       << std::setw(8) << "calls" << std::setw(12) << "total"
       << std::setw(12) << "self" << "\n";
    os << std::fixed << std::setprecision(1);
    for (const auto& [name, r] : sorted)
        os << std::left << std::setw(28) << name << std::right
           << std::setw(8) << r.calls << std::setw(12)
           << static_cast<double>(r.totalNs) * 1e-6 << std::setw(12)
           << static_cast<double>(r.selfNs) * 1e-6 << "\n";
    os << std::defaultfloat;
}

} // namespace perfbench
