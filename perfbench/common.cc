#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>

#include <sys/resource.h>

namespace perfbench {

namespace {

std::mutex g_span_mutex;
thread_local std::vector<int> t_open_spans;

/** JSON number with every digit a double carries. */
std::string
jsonNumber(double x)
{
    if (!std::isfinite(x))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

} // namespace

int
hostThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t label)
{
    InputRng r(seed * 0x9E3779B97F4A7C15ull ^ (label + 0x632BE59BD9B4E019ull));
    return r.next();
}

double
Samples::sum() const
{
    double s = 0;
    for (double x : v_)
        s += x;
    return s;
}

double
Samples::max() const
{
    return v_.empty() ? 0 : *std::max_element(v_.begin(), v_.end());
}

double
Samples::quantile(double q) const
{
    if (v_.empty())
        return 0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return s[lo] + (s[hi] - s[lo]) * frac;
}

void
Report::metric(const std::string& name, double value, const std::string& unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::check(bool ok, const std::string& what)
{
    if (!ok) {
        correct_ = false;
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
}

void
Report::print() const
{
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); i++) {
        const Metric& m = metrics_[i];
        if (i > 0)
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::fflush(stderr);
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

int
SpanLog::begin(const char* name)
{
    const double t = wallNow();
    std::lock_guard<std::mutex> lock(g_span_mutex);
    const int parent = t_open_spans.empty() ? -1 : t_open_spans.back();
    const unsigned tid = static_cast<unsigned>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xFFFF);
    spans_.push_back({name, t, t, parent, tid});
    const int index = static_cast<int>(spans_.size()) - 1;
    t_open_spans.push_back(index);
    return index;
}

void
SpanLog::end(int index)
{
    const double t = wallNow();
    std::lock_guard<std::mutex> lock(g_span_mutex);
    spans_[static_cast<std::size_t>(index)].end = t;
    if (!t_open_spans.empty() && t_open_spans.back() == index)
        t_open_spans.pop_back();
}

bool
SpanLog::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(g_span_mutex);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const double t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d}}\n",
                     i ? "," : "", s.name, s.tid, (s.start - t0) * 1e6,
                     (s.end - s.start) * 1e6, i, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

void
EndToEnd::report(Report& r) const
{
    r.metric("setup_s", setup_s.median(), "s");
    r.metric("peak_rss_mb", peakRssMb(), "MB");
    r.metric("prefill_tok_s", prefill_tokens / prefill_s, "tok/s");
    r.metric("serve_tok_s", tokensPerSecond(), "tok/s");
    r.metric("ttft_ms_p50", ttft_ms.median(), "ms");
    r.metric("tpot_ms_p50", tpot_ms.median(), "ms");
}

void
EndToEnd::reportSpread(Report& r) const
{
    r.metric("engine.step_ms_p50", step_ms.median(), "ms");
    r.metric("engine.step_ms_p90", step_ms.quantile(0.9), "ms");
    r.metric("tail.ttft_ms_p90", ttft_ms.quantile(0.9), "ms");
    r.metric("tail.tpot_ms_p90", tpot_ms.quantile(0.9), "ms");
}

void
reportOverhead(const EndToEnd& plain, const EndToEnd& traced, Report& r)
{
    r.metric("trace.overhead_pct",
             (plain.tokensPerSecond() / traced.tokensPerSecond() - 1) * 100,
             "%");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace perfbench
