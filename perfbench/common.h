/**
 * @file
 * Shared pieces of the wall-clock benchmark: options, the benchmark's own
 * input generator, sample statistics, the result record printed as the
 * last stdout line, and the in-memory span log of the traced run.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options every workload receives. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    //! Self-test: flip one bit of one checked output before the checks
    //! run; the run must then report correct = false.
    bool flip = false;
    std::string trace_dir = ".bench_build"; //!< where span files go
    //! tiered-idle: parked sessions (0 = the workload's 32); for the
    //! README's growth figures, not for the recorded benchmark.
    int parked = 0;
};

/** Worker threads the benchmark runs its pools with (nproc). */
int hostThreads();

/**
 * The benchmark's own input generator (splitmix64), independent of the
 * library's Rng so a change to the program cannot change its inputs.
 */
class InputRng
{
  public:
    explicit InputRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double uniform() { return (next() >> 11) * (1.0 / 9007199254740992.0); }

    /** Uniform in [lo, hi). */
    double range(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /** Uniform integer in [lo, hi]. */
    int
    between(int lo, int hi)
    {
        return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                                  hi - lo + 1));
    }

  private:
    std::uint64_t state_;
};

/** Derives an independent stream seed from the run seed and a label. */
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t label);

/** Seconds on the steady clock. */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** A bag of timing samples. */
class Samples
{
  public:
    void add(double x) { v_.push_back(x); }
    std::size_t size() const { return v_.size(); }
    double sum() const;
    double max() const;
    /** Linear-interpolated quantile, q in [0, 1]; 0 when empty. */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }
    const std::vector<double>& values() const { return v_; }

  private:
    std::vector<double> v_;
};

/**
 * One run's result: the correctness verdict, operation counts and the
 * metrics, printed as one JSON object on the last stdout line.
 */
class Report
{
  public:
    void metric(const std::string& name, double value, const std::string& unit);

    /** Records a check; a false @p ok makes the run incorrect. */
    void check(bool ok, const std::string& what);

    void attempt(long n = 1) { attempted_ += n; }
    void fail(long n = 1) { failed_ += n; }

    /** Prints failed checks to stderr and the JSON line to stdout. */
    void print() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    bool correct_ = true;
    long attempted_ = 0;
    long failed_ = 0;
};

/**
 * Spans recorded by the traced run, kept in memory and written once at
 * the end as Chrome trace-event JSON. Recording is thread-safe; the
 * parent of a span is the innermost open span on the same thread.
 */
class SpanLog
{
  public:
    /** Opens a span; returns its index for end(). */
    int begin(const char* name);
    void end(int index);

    /** Writes the trace file; returns false on I/O failure. */
    bool write(const std::string& path) const;

    std::size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        const char* name;
        double start;
        double end;
        int parent;
        unsigned tid;
    };
    std::vector<Span> spans_;
};

/** RAII span on a possibly-null log (null = untraced, costs a branch). */
class Scope
{
  public:
    Scope(SpanLog* log, const char* name)
        : log_(log), index_(log ? log->begin(name) : -1)
    {
    }
    ~Scope()
    {
        if (log_)
            log_->end(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    SpanLog* log_;
    int index_;
};

/**
 * What a user of the workload sees, in the workload's own terms, and the
 * end-to-end metrics every workload reports from it.
 */
struct EndToEnd
{
    Samples setup_s;             //!< program objects built before timing
    double prefill_tokens = 0;   //!< context tokens written to the KV cache
    double prefill_s = 0;        //!< wall seconds that took
    double out_tokens = 0;       //!< output tokens produced
    double out_s = 0;            //!< wall seconds of producing them
    Samples step_ms;             //!< one engine step (decode step or tick)
    Samples ttft_ms;             //!< per request: time to first token
    Samples tpot_ms;             //!< per request: time per later token

    /** Adds every end-to-end metric (and peak RSS) to @p report. */
    void report(Report& report) const;

    /**
     * Adds the engine-step median and the p90 tails as per-layer metrics
     * of the traced run: on a shared host they spread more between runs
     * than any bound that could gate a change.
     */
    void reportSpread(Report& report) const;

    /** Output tokens per wall second (serve_tok_s). */
    double tokensPerSecond() const { return out_tokens / out_s; }
};

/**
 * Reports the tracing overhead: how much slower the traced pass produced
 * output tokens than the untraced pass of the same run, in percent.
 */
void reportOverhead(const EndToEnd& plain, const EndToEnd& traced,
                    Report& report);

/** Peak resident set of this process, MB. */
double peakRssMb();

/** Workload entry points; each fills @p report. */
void runLongContextDecode(const Options& opt, Report& report);
void runTieredIdle(const Options& opt, Report& report);
void runNetPrefixStream(const Options& opt, Report& report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
