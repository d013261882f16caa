/**
 * @file
 * Workload `tiered-idle`: interactive foreground traffic plus 24 parked
 * 32K-context idle sessions on one engine with a 2048-page hot pool and
 * host + disk cold tiers, under the standard chaos storm, driven in
 * process through the ServingClient stream calls with no functional
 * attention backend. Each round runs the whole trace on a fresh client.
 * The traced run adds a direct TieredPagePool probe.
 */
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "fault/fault.h"
#include "gpusim/arch.h"
#include "kvcache/paged_cache.h"
#include "kvcache/tiered_cache.h"
#include "model/model_config.h"
#include "serving/client.h"

namespace perfbench {

namespace {

using bitdec::serving::Request;
using bitdec::serving::ServingMetrics;

constexpr int kParked = 24;
constexpr int kIdleContext = 32768;
constexpr int kForeground = 24;
constexpr int kHotPages = 2048;
constexpr int kPageSize = 64;
constexpr int kCacheHeadDim = 4;
constexpr int kSetupReps = 25;
constexpr const char* kStorm =
    "fetch=0.02,corrupt=0.01,spike=0.02,alloc=0.01,mult=50,multibit=0.2";

bitdec::kv::TieredConfig
tierConfig()
{
    bitdec::kv::TierSpec host;
    host.name = "host";
    host.capacity_gb = 8.0;
    host.bandwidth_gbps = 32.0;
    host.latency_s = 10e-6;
    bitdec::kv::TierSpec disk;
    disk.name = "disk";
    disk.capacity_gb = 64.0;
    disk.bandwidth_gbps = 4.0;
    disk.latency_s = 100e-6;
    bitdec::kv::TieredConfig t;
    t.tiers = {host, disk};
    t.prefetch_pages = 8;
    return t;
}

bitdec::serving::EngineConfig
engineConfig(bool tiered_chaos, std::uint64_t fault_seed)
{
    bitdec::serving::EngineConfig cfg;
    cfg.system = bitdec::model::SystemKind::BitDecoding;
    cfg.bits = 4;
    cfg.page_size = kPageSize;
    cfg.num_pages = kHotPages;
    cfg.cache_head_dim = kCacheHeadDim;
    cfg.sched.max_batch = 64;
    cfg.sched.prefill_chunk_tokens = 2048;
    if (tiered_chaos) {
        cfg.tiered = tierConfig();
        cfg.faults = bitdec::fault::FaultSchedule::parse(kStorm);
        cfg.fault_seed = fault_seed;
    }
    return cfg;
}

/**
 * The trace: foreground requests (4-12K prompts, 64-256 outputs) arriving
 * about every 0.5 s, and @p parked sessions that prefill a 32K context,
 * emit one token, park, and wake on a 2 s stagger after 60 s to finish
 * 8 tokens. The shape (lengths, arrivals) is fixed, because the tier work
 * grows faster than linearly with it and a seed-dependent shape would
 * spread the wall-clock figures more than any regression worth catching;
 * the seed picks the request ids, which seed every token's content.
 */
std::vector<Request>
makeTrace(std::uint64_t seed, int parked)
{
    InputRng rng(0x7E1E5EEDull);
    const int id_base = 1000 * (1 + static_cast<int>(seed % 1000000));
    std::vector<Request> trace;
    for (int i = 0; i < kForeground; i++) {
        Request r;
        r.id = id_base + i;
        r.arrival_s = 0.5 * i + rng.range(0.0, 0.4);
        r.prompt_tokens = rng.between(4096, 12288);
        r.output_tokens = rng.between(64, 256);
        trace.push_back(r);
    }
    for (int i = 0; i < parked; i++) {
        Request r;
        r.id = id_base + kForeground + i;
        r.arrival_s = i * 1e-3;
        r.prompt_tokens = kIdleContext;
        r.output_tokens = 8;
        r.idle_after_tokens = 1;
        r.idle_wake_s = 60.0 + 2.0 * i + rng.range(0.0, 0.5);
        trace.push_back(r);
    }
    std::stable_sort(trace.begin(), trace.end(),
                     [](const Request& a, const Request& b) {
                         return a.arrival_s < b.arrival_s;
                     });
    return trace;
}

/** Wall-clock token record of one request, fed by the token sink. */
struct TokenWall
{
    double due = -1;   //!< wall time of the tick its arrival came due
    double first = -1; //!< wall time its first token was observed
    double last = -1;
    int tokens = 0;
};

/** What one round of the stream run measured. */
struct RoundResult
{
    double setup_s = 0;
    double wall_s = 0; //!< first tick to idle
    Samples tick_ms, tier_tick_ms, other_tick_ms;
    std::map<int, TokenWall> walls;
    std::map<int, Request> final_state; //!< polled after the round
    ServingMetrics metrics;
};

/** Sum of the tier transfer counters (moves when a tick touched a tier). */
long
tierActivity(const ServingMetrics& m)
{
    return m.tier.offloaded_pages + m.tier.fetched_pages +
           m.tier.prefetched_pages + m.tier.spilled_pages +
           m.tier.dropped_pages;
}

/**
 * Runs the trace once on a fresh client through the stream calls. With
 * @p classify the tick times are also split by whether the tier counters
 * moved, read from streamSnapshot between ticks (outside the tick time).
 */
void
runRound(const std::vector<Request>& trace,
         const bitdec::serving::EngineConfig& cfg, bool classify,
         SpanLog* log, RoundResult& out)
{
    // Set-up is short, so it is repeated and the median kept; the last
    // client built serves the round.
    std::unique_ptr<bitdec::serving::ServingClient> client;
    Samples setup;
    for (int i = 0; i < kSetupReps; i++) {
        client.reset();
        Scope s(log, "setup");
        const double t0 = wallNow();
        client = bitdec::serving::makeServingClient(
            bitdec::sim::archA100(), bitdec::model::llama31_8b(), cfg);
        setup.add(wallNow() - t0);
    }
    out.setup_s = setup.median();

    client->streamBegin([&out](const bitdec::serving::TokenEvent& ev) {
        TokenWall& w = out.walls[ev.request_id];
        const double now = wallNow();
        if (w.tokens == 0)
            w.first = now;
        w.last = now;
        w.tokens++;
    });
    for (const Request& r : trace)
        client->streamSubmit(r);

    std::size_t next_due = 0;
    long tier_before = 0;
    const double t_run = wallNow();
    for (;;) {
        const double clock = client->streamClock();
        const double now = wallNow();
        while (next_due < trace.size() && trace[next_due].arrival_s <= clock)
            out.walls[trace[next_due++].id].due = now;
        bool more;
        double ms;
        {
            Scope s(log, "serving.stream_tick");
            const double ts = wallNow();
            more = client->streamTick();
            ms = (wallNow() - ts) * 1e3;
        }
        out.tick_ms.add(ms);
        if (classify) {
            const long tier_after = tierActivity(client->streamSnapshot());
            (tier_after != tier_before ? out.tier_tick_ms : out.other_tick_ms)
                .add(ms);
            tier_before = tier_after;
        }
        if (!more)
            break;
    }
    out.wall_s = wallNow() - t_run;
    std::printf("# round: %zu ticks in %.2f s\n", out.tick_ms.size(),
                out.wall_s);
    out.metrics = client->streamEnd();
    for (const Request& r : trace)
        if (const Request* f = client->poll(r.id))
            out.final_state[r.id] = *f;
}

/**
 * Times TieredPagePool::offloadSequence / fetchRange directly at the
 * workload's pool geometry with @p parked 32K sequences parked cold.
 * Returns microseconds per page {offload, fetch}.
 */
std::pair<double, double>
probeTieredPool(int parked, SpanLog* log)
{
    bitdec::kv::PagedHeadCache hot(kCacheHeadDim, kPageSize, kHotPages);
    bitdec::kv::TieredConfig tc = tierConfig();
    tc.bytes_per_page = bitdec::model::llama31_8b().kvBytesFp16(1) * 4.0 /
                        16.0 * kPageSize;
    bitdec::kv::TieredPagePool pool(hot, tc);
    const std::vector<bitdec::Half> row(kCacheHeadDim, bitdec::Half(0.25f));
    double offload_s = 0, fetch_s = 0;
    long offloaded = 0, fetched = 0;
    std::vector<int> seqs;
    double now = 0;
    for (int i = 0; i < parked; i++) {
        const int seq = hot.addSequence();
        seqs.push_back(seq);
        for (int t = 0; t < kIdleContext; t++)
            hot.append(seq, row, row);
        Scope s(log, "kvcache.offload");
        const double t0 = wallNow();
        const auto r = pool.offloadSequence(seq, now += 1.0, {});
        offload_s += wallNow() - t0;
        offloaded += r.moved;
    }
    // Fetch a quarter context of every parked sequence back, then park it
    // again so the hot pool never runs dry.
    for (int seq : seqs) {
        Scope s(log, "kvcache.fetch");
        const double t0 = wallNow();
        const auto r = pool.fetchRange(seq, 0, kIdleContext / 4 - 1, now += 1.0);
        fetch_s += wallNow() - t0;
        fetched += r.restored;
        pool.offloadSequence(seq, now += 1.0, {});
    }
    return {offloaded ? offload_s * 1e6 / offloaded : 0,
            fetched ? fetch_s * 1e6 / fetched : 0};
}

/** Checks one round against the untiered fault-free reference. */
void
checkRound(const Options& opt, const std::vector<Request>& trace,
           const std::map<int, std::uint64_t>& ref_hash, std::uint64_t ref_digest,
           RoundResult& rr, Report& report)
{
    bool all_done = true;
    int mismatched = 0;
    for (const Request& r : trace) {
        const auto it = rr.final_state.find(r.id);
        const Request* f = it == rr.final_state.end() ? nullptr : &it->second;
        if (f == nullptr || f->state != bitdec::serving::RequestState::Finished ||
            f->generated != r.output_tokens)
            all_done = false;
        std::uint64_t h = f ? f->output_hash : 0;
        if (opt.flip && &r == &trace.front())
            h ^= 1;
        if (h != ref_hash.at(r.id))
            mismatched++;
    }
    report.check(all_done,
                 "tiered: a request did not finish with its full output");
    report.check(mismatched == 0,
                 "tiered: " + std::to_string(mismatched) +
                     " request output_hash values differ from the untiered "
                     "fault-free run");
    report.check(rr.metrics.outputs_digest == ref_digest,
                 "tiered: outputs_digest differs from the untiered "
                 "fault-free run");
    report.check(rr.metrics.faults_injected.total() > 0,
                 "tiered: the chaos storm injected no faults");
    report.check(rr.metrics.tier.fetched_pages > 0,
                 "tiered: no page was fetched from a cold tier");
}

/** Folds one round into the end-to-end view. */
void
addRound(EndToEnd& e, const std::vector<Request>& trace, RoundResult& rr)
{
    e.setup_s.add(rr.setup_s);
    e.prefill_tokens += static_cast<double>(rr.metrics.prefill_tokens);
    e.prefill_s += rr.wall_s;
    e.out_s += rr.wall_s;
    for (double ms : rr.tick_ms.values())
        e.step_ms.add(ms);
    for (const Request& r : trace) {
        const TokenWall& w = rr.walls[r.id];
        e.out_tokens += w.tokens;
        e.ttft_ms.add((w.first - w.due) * 1e3);
        // A parked session's later tokens wait out its idle period.
        if (r.idle_after_tokens == 0 && w.tokens > 1)
            e.tpot_ms.add((w.last - w.first) * 1e3 / (w.tokens - 1));
    }
}

} // namespace

void
runTieredIdle(const Options& opt, Report& report)
{
    const int parked = opt.parked > 0 ? opt.parked : kParked;
    const std::vector<Request> trace = makeTrace(opt.seed, parked);
    // Fixed like the trace shape: fault coordinates are engine-internal
    // sequence and page numbers, so a fixed fault seed keeps the recovery
    // work the same for every content seed.
    const std::uint64_t fault_seed = 0xB17DEC;

    // Reference: the same trace untiered and fault-free.
    std::map<int, std::uint64_t> ref_hash;
    std::uint64_t ref_digest = 0;
    {
        const double t0 = wallNow();
        auto ref = bitdec::serving::makeServingClient(
            bitdec::sim::archA100(), bitdec::model::llama31_8b(),
            engineConfig(false, 0));
        for (const Request& r : trace)
            ref->submit(r);
        ref_digest = ref->drain().outputs_digest;
        for (const Request& r : trace)
            ref_hash[r.id] = ref->poll(r.id)->output_hash;
        std::printf("# untiered fault-free reference run took %.2f s\n",
                    wallNow() - t0);
    }

    const bitdec::serving::EngineConfig cfg = engineConfig(true, fault_seed);
    EndToEnd e, plain;
    RoundResult last;
    SpanLog log;
    const double t_start = wallNow();
    int rounds = 0;
    // A traced run makes one untraced round first: the baseline of the
    // tracing overhead and the source of the tail figures.
    while (rounds == 0 || wallNow() - t_start < opt.seconds ||
           (opt.trace && rounds < 2)) {
        const bool traced_round = opt.trace && rounds > 0;
        RoundResult rr;
        runRound(trace, cfg, traced_round, traced_round ? &log : nullptr, rr);
        rounds++;
        report.attempt(static_cast<long>(trace.size()));
        checkRound(opt, trace, ref_hash, ref_digest, rr, report);
        addRound(opt.trace && rounds == 1 ? plain : e, trace, rr);
        last = std::move(rr);
    }

    if (!opt.trace) {
        e.report(report);
        return;
    }

    const ServingMetrics& m = last.metrics;
    report.metric("serving.ticks", static_cast<double>(last.tick_ms.size()),
                  "count");
    report.metric("serving.tick_ms_p50", last.tick_ms.median(), "ms");
    report.metric("serving.tick_ms_p99", last.tick_ms.quantile(0.99), "ms");
    report.metric("serving.tick_ms_tier_p99", last.tier_tick_ms.quantile(0.99),
                  "ms");
    report.metric("serving.tick_ms_other_p99",
                  last.other_tick_ms.quantile(0.99), "ms");
    report.metric("serving.sim_req_s", m.sustained_qps, "req/s");
    report.metric("serving.sim_ttft_p99_s", m.ttft_p99_s, "s");
    report.metric("serving.preemptions", m.preemptions, "count");
    report.metric("serving.cold_resumes", m.cold_resumes, "count");
    report.metric("serving.recompute_resumes", m.recompute_resumes, "count");
    report.metric("serving.peak_resident_seqs", m.peak_resident_seqs, "count");
    report.metric("kvcache.offloaded_pages",
                  static_cast<double>(m.tier.offloaded_pages), "count");
    report.metric("kvcache.fetched_pages",
                  static_cast<double>(m.tier.fetched_pages), "count");
    report.metric("kvcache.prefetched_pages",
                  static_cast<double>(m.tier.prefetched_pages), "count");
    report.metric("kvcache.prefetch_hit_ratio",
                  m.tier.prefetched_pages
                      ? static_cast<double>(m.tier.prefetch_hits) /
                            static_cast<double>(m.tier.prefetched_pages)
                      : 0.0,
                  "ratio");
    report.metric("kvcache.spilled_pages",
                  static_cast<double>(m.tier.spilled_pages), "count");
    report.metric("kvcache.dropped_pages",
                  static_cast<double>(m.tier.dropped_pages), "count");
    report.metric("kvcache.tier_hit_rate", m.tier_hit_rate, "ratio");
    report.metric("fault.injected",
                  static_cast<double>(m.faults_injected.total()), "count");
    report.metric("fault.retries", m.fetch_retries, "count");
    report.metric("fault.repaired_pages",
                  static_cast<double>(m.tier.repaired_pages), "count");
    report.metric("fault.checksum_failures",
                  static_cast<double>(m.tier.checksum_failures), "count");
    report.metric("fault.hedged_fetches",
                  static_cast<double>(m.tier.hedged_fetches), "count");
    report.metric("fault.recompute_recoveries", m.recompute_recoveries,
                  "count");

    for (int n : {kParked / 4, kParked / 2, kParked}) {
        const auto [off_us, fetch_us] = probeTieredPool(n, &log);
        const std::string suffix = ".parked_" + std::to_string(n);
        report.metric("kvcache.offload_us_per_page" + suffix, off_us, "us");
        report.metric("kvcache.fetch_us_per_page" + suffix, fetch_us, "us");
    }
    plain.reportSpread(report);
    reportOverhead(plain, e, report);
    report.metric("trace.spans", static_cast<double>(log.size()), "count");
    const std::string path = opt.trace_dir + "/trace-tiered-idle.json";
    if (!log.write(path))
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

} // namespace perfbench
