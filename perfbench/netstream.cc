/**
 * @file
 * Workload `net-prefix-stream`: a loopback net::Server in this process
 * over a 2-shard cluster with `fused-paged` functional attention and the
 * 2048-token chunked-prefill budget. Three NetClient connections run a
 * closed loop, each keeping 4 requests outstanding, submitted with
 * arrival "now". Prompts come from 4 prefix families: a 4K shared prefix
 * plus a unique 0.5-3.5K tail; outputs are 64-192 tokens.
 *
 * The server is always handed a forwarding ServingClient that times each
 * streamTick (the engine step). The traced run also records spans, the
 * time inside every ServingClient call, and the attention backend's time
 * through a forwarding backend registered with BackendRegistry::add.
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "backend/attention_backend.h"
#include "backend/registry.h"
#include "cluster/cluster.h"
#include "common.h"
#include "gpusim/arch.h"
#include "model/model_config.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serving/client.h"

namespace perfbench {

namespace {

using bitdec::serving::Request;
using bitdec::serving::ServingMetrics;

constexpr int kClients = 3;
constexpr int kWindow = 4; // outstanding requests per client
constexpr int kFamilies = 4;
constexpr int kPrefixTokens = 4096;
constexpr int kMinRequests = 100;
constexpr int kShards = 2;
constexpr int kPagesPerShard = 4096;
constexpr int kSetupReps = 5;
constexpr const char* kBackend = "fused-paged";
constexpr const char* kTimedBackend = "perfbench-timed-fused-paged";

/**
 * Request @p g of the run's request stream. Its shape (family, tail and
 * output length) is a fixed function of g, so every seed offers the same
 * load; the seed picks the request and prefix ids, which seed the
 * content of every token.
 */
Request
makeRequest(std::uint64_t seed, int g)
{
    InputRng rng(streamSeed(0x4E75EEDull, 1000 + static_cast<std::uint64_t>(g)));
    const int family = rng.between(0, kFamilies - 1);
    Request r;
    r.id = 1000 * (1 + static_cast<int>(seed % 1000000)) + g;
    r.arrival_s = -1;
    r.prefix_id = streamSeed(seed, 50 + static_cast<std::uint64_t>(family)) | 1;
    r.prefix_tokens = kPrefixTokens;
    r.prompt_tokens = kPrefixTokens + rng.between(512, 3584);
    r.output_tokens = rng.between(64, 192);
    return r;
}

bitdec::net::SubmitMsg
toSubmit(const Request& r)
{
    bitdec::net::SubmitMsg m;
    m.id = r.id;
    m.arrival_s = -1; // "now" on the server's clock
    m.prompt_tokens = r.prompt_tokens;
    m.output_tokens = r.output_tokens;
    m.prefix_id = r.prefix_id;
    m.prefix_tokens = r.prefix_tokens;
    return m;
}

/** Sums wall time spent inside the wrapped backend's decode steps. */
class TimedBackend final : public bitdec::backend::AttentionBackend
{
  public:
    explicit TimedBackend(const bitdec::backend::AttentionBackend& inner)
        : inner_(inner)
    {
    }
    const char* name() const override { return kTimedBackend; }
    bitdec::backend::BackendCapabilities capabilities() const override
    {
        return inner_.capabilities();
    }
    bool available() const override { return inner_.available(); }
    std::string unavailableReason() const override
    {
        return inner_.unavailableReason();
    }
    const char* simdLevel() const override { return inner_.simdLevel(); }
    bitdec::backend::DecodePlan
    plan(const bitdec::attn::DecodeShape& shape) const override
    {
        return inner_.plan(shape);
    }
    std::vector<bitdec::Tensor<float>>
    decodeStep(const bitdec::backend::DecodeBatch& batch) const override
    {
        Scope s(log_, "backend.decode");
        const double t0 = wallNow();
        auto out = inner_.decodeStep(batch);
        std::lock_guard<std::mutex> lock(mu_);
        ms_.add((wallNow() - t0) * 1e3);
        return out;
    }

    /** Starts a fresh measurement feeding @p log. */
    void
    reset(SpanLog* log)
    {
        std::lock_guard<std::mutex> lock(mu_);
        ms_ = Samples{};
        log_ = log;
    }
    Samples
    samples() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return ms_;
    }

  private:
    const bitdec::backend::AttentionBackend& inner_;
    mutable std::mutex mu_;
    mutable Samples ms_;
    SpanLog* log_ = nullptr;
};

/** The forwarding backend, registered once per process. */
TimedBackend&
timedBackend()
{
    static TimedBackend* be = [] {
        auto& reg = bitdec::backend::BackendRegistry::instance();
        auto owned = std::make_unique<TimedBackend>(reg.resolve(kBackend));
        TimedBackend* raw = owned.get();
        reg.add(std::move(owned));
        return raw;
    }();
    return *be;
}

/**
 * Forwarding ServingClient handed to the server: times every streamTick
 * and, when tracing, every call and its span. Only the server thread
 * calls it.
 */
class TimedClient final : public bitdec::serving::ServingClient
{
  public:
    TimedClient(bitdec::serving::ServingClient& inner, SpanLog* log)
        : inner_(inner), log_(log)
    {
    }

    Samples tick_ms;             //!< every streamTick, ms
    mutable double inside_s = 0; //!< traced: time inside any call

    int submit(const Request& r) override
    {
        return timed("serving.submit", [&] { return inner_.submit(r); });
    }
    const Request* poll(int id) const override { return inner_.poll(id); }
    bool cancel(int id) override
    {
        return timed("serving.cancel", [&] { return inner_.cancel(id); });
    }
    ServingMetrics drain() override
    {
        return timed("serving.drain", [&] { return inner_.drain(); });
    }
    bitdec::serving::ClientStats stats() const override
    {
        return inner_.stats();
    }
    std::string admissionError(const Request& r) const override
    {
        return timed("serving.admission",
                     [&] { return inner_.admissionError(r); });
    }
    void streamBegin(bitdec::serving::TokenSink sink) override
    {
        timed("serving.stream_begin", [&] {
            inner_.streamBegin(std::move(sink));
            return 0;
        });
    }
    int streamSubmit(const Request& r) override
    {
        return timed("serving.stream_submit",
                     [&] { return inner_.streamSubmit(r); });
    }
    bool streamCancel(int id) override
    {
        return timed("serving.stream_cancel",
                     [&] { return inner_.streamCancel(id); });
    }
    bool streamTick() override
    {
        const double t0 = wallNow();
        const bool more =
            timed("serving.stream_tick", [&] { return inner_.streamTick(); });
        tick_ms.add((wallNow() - t0) * 1e3);
        return more;
    }
    bool streamIdle() const override
    {
        return timed("serving.stream_idle",
                     [&] { return inner_.streamIdle(); });
    }
    double streamClock() const override
    {
        return timed("serving.stream_clock",
                     [&] { return inner_.streamClock(); });
    }
    ServingMetrics streamSnapshot() const override
    {
        return timed("serving.stream_snapshot",
                     [&] { return inner_.streamSnapshot(); });
    }
    ServingMetrics streamEnd() override
    {
        return timed("serving.stream_end", [&] { return inner_.streamEnd(); });
    }

  private:
    /** Runs @p f, inside a span and the inside_s tally when tracing. */
    template <typename F>
    std::invoke_result_t<F>
    timed(const char* name, F&& f) const
    {
        if (log_ == nullptr)
            return f();
        Scope s(log_, name);
        const double t0 = wallNow();
        auto r = f();
        inside_s += wallNow() - t0;
        return r;
    }

    bitdec::serving::ServingClient& inner_;
    SpanLog* log_;
};

/** Client-side record of one request. */
struct WireRecord
{
    Request req;
    double submit = 0, ack = -1, first = -1, last = -1;
    int tokens = 0;
    std::uint64_t fold = 0; //!< the benchmark's own replay of the stream
    bool done = false, finished = false, stream_ok = false;
    std::uint64_t output_hash = 0, attn_hash = 0;
    long bytes = 0;
};

/** Everything one serving pass measured. */
struct NetResult
{
    Samples setup_s;
    std::vector<WireRecord> records;
    double client_wall_s = 0;
    double server_wall_s = 0;
    Samples tick_ms;
    double inside_s = 0;
    Samples backend_ms;
    ServingMetrics metrics;
    bitdec::cluster::RouterStats router;
    std::size_t peak_write_buffer = 0;
    long frames = 0, bytes = 0, errors = 0;
};

/** One closed-loop client connection. */
void
runClient(const Options& opt, int index, int port, double deadline,
          std::atomic<int>& completed, SpanLog* log,
          std::vector<WireRecord>& out, long& frames, long& errors,
          bool& connected)
{
    bitdec::net::NetClient nc;
    connected = nc.connect("127.0.0.1", port);
    if (!connected)
        return;
    std::map<int, std::size_t> slot; // request id -> out index
    int outstanding = 0;
    int next = 0; // this client's next request, global index next*3+index
    bool stopping = false;
    const auto submitNext = [&] {
        WireRecord w;
        w.req = makeRequest(opt.seed, next++ * kClients + index);
        slot[w.req.id] = out.size();
        Scope s(log, "net.client_submit");
        w.submit = wallNow();
        out.push_back(w);
        nc.submit(toSubmit(w.req));
        outstanding++;
    };
    for (int i = 0; i < kWindow; i++)
        submitNext();
    bitdec::net::NetEvent ev;
    while (outstanding > 0) {
        if (!nc.readEvent(ev)) {
            errors++;
            return;
        }
        const double now = wallNow();
        frames++;
        switch (ev.type) {
        case bitdec::net::FrameType::SubmitOk:
            out[slot.at(ev.request_id)].ack = now;
            break;
        case bitdec::net::FrameType::Token: {
            WireRecord& w = out[slot.at(ev.token.request_id)];
            std::uint64_t fold = ev.token.fold;
            if (opt.flip && index == 0 && w.req.id == out.front().req.id &&
                w.tokens == 0)
                fold ^= 1;
            w.fold = w.fold * 0x100000001B3ull ^ fold;
            if (w.tokens == 0)
                w.first = now;
            w.last = now;
            w.tokens++;
            if (log)
                w.bytes += static_cast<long>(
                    bitdec::net::encodeToken(ev.token).size());
            break;
        }
        case bitdec::net::FrameType::Done: {
            WireRecord& w = out[slot.at(ev.done.request_id)];
            w.done = true;
            w.finished = ev.done.finished != 0;
            w.output_hash = ev.done.output_hash;
            w.attn_hash = ev.done.attn_hash;
            w.stream_ok = nc.streamDigestOk(ev.done.request_id);
            outstanding--;
            const int total = ++completed;
            if (!stopping && wallNow() >= deadline && total >= kMinRequests)
                stopping = true;
            // Whole rounds: a client stops only after a multiple of its
            // window, so every run attempts the same shape of work.
            if (!stopping || next % kWindow != 0)
                submitNext();
            break;
        }
        case bitdec::net::FrameType::Error:
            std::fprintf(stderr, "net: ERROR frame for request %d: %s\n",
                         ev.error.request_id, ev.error.message.c_str());
            errors++;
            if (slot.count(ev.error.request_id)) {
                outstanding--;
                ++completed;
            }
            break;
        default:
            break;
        }
    }
}

bitdec::serving::EngineConfig
engineConfig(const char* backend)
{
    bitdec::serving::EngineConfig cfg;
    cfg.page_size = 64;
    cfg.num_pages = kPagesPerShard;
    cfg.cache_head_dim = 8;
    cfg.sched.prefill_chunk_tokens = 2048;
    cfg.backend = backend;
    return cfg;
}

/** One serving pass of about @p seconds; spans go to @p log if set. */
NetResult
servePass(const Options& opt, double seconds, SpanLog* log)
{
    NetResult res;
    if (log)
        timedBackend().reset(log);
    bitdec::cluster::ClusterConfig cc;
    cc.num_shards = kShards;
    cc.engine = engineConfig(log ? kTimedBackend : kBackend);
    bitdec::net::ServerConfig sc;
    sc.honor_signal_drain = false;
    bitdec::net::ServerInfo info;
    info.backend = kBackend;
    info.page_size = cc.engine.page_size;
    info.cache_head_dim = cc.engine.cache_head_dim;
    info.shards = kShards;

    // Set-up is repeated and its median reported; the last one serves.
    std::unique_ptr<bitdec::cluster::Cluster> cluster;
    std::unique_ptr<TimedClient> client;
    std::unique_ptr<bitdec::net::Server> server;
    for (int i = 0; i < kSetupReps; i++) {
        server.reset();
        client.reset();
        cluster.reset();
        Scope s(log, "setup");
        const double t0 = wallNow();
        cluster = std::make_unique<bitdec::cluster::Cluster>(
            bitdec::sim::archA100(), bitdec::model::llama31_8b(), cc);
        client = std::make_unique<TimedClient>(*cluster, log);
        server = std::make_unique<bitdec::net::Server>(*client, sc, info);
        res.setup_s.add(wallNow() - t0);
    }

    double server_wall = 0;
    std::thread server_thread([&] {
        const double t0 = wallNow();
        res.metrics = server->run();
        server_wall = wallNow() - t0;
    });

    std::atomic<int> completed{0};
    std::vector<std::vector<WireRecord>> per_client(kClients);
    std::vector<long> frames(kClients, 0), errors(kClients, 0);
    bool connected[kClients] = {};
    const double t0 = wallNow();
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; c++)
            threads.emplace_back([&, c] {
                runClient(opt, c, server->port(), t0 + seconds, completed, log,
                          per_client[static_cast<std::size_t>(c)],
                          frames[static_cast<std::size_t>(c)],
                          errors[static_cast<std::size_t>(c)], connected[c]);
            });
        for (std::thread& t : threads)
            t.join();
    }
    res.client_wall_s = wallNow() - t0;
    server->requestDrain();
    server_thread.join();
    res.server_wall_s = server_wall;

    for (int c = 0; c < kClients; c++) {
        const auto cc_ = static_cast<std::size_t>(c);
        if (!connected[c])
            res.errors++;
        res.frames += frames[cc_];
        res.errors += errors[cc_];
        for (WireRecord& w : per_client[cc_]) {
            res.bytes += w.bytes;
            res.records.push_back(w);
        }
    }
    res.tick_ms = client->tick_ms;
    res.inside_s = client->inside_s;
    res.router = cluster->clusterMetrics().router;
    res.peak_write_buffer = server->peakWriteBuffer();
    if (log)
        res.backend_ms = timedBackend().samples();
    return res;
}

/** Checks one pass against an in-process single-engine run. */
void
checkPass(const NetResult& res, Report& report)
{
    report.attempt(static_cast<long>(res.records.size()));
    report.check(res.errors == 0, "net: " + std::to_string(res.errors) +
                                      " ERROR frames or broken connections");
    auto local = bitdec::serving::makeServingClient(
        bitdec::sim::archA100(), bitdec::model::llama31_8b(),
        engineConfig(kBackend));
    std::vector<const WireRecord*> order;
    for (const WireRecord& w : res.records)
        order.push_back(&w);
    std::sort(order.begin(), order.end(),
              [](const WireRecord* a, const WireRecord* b) {
                  return a->req.id < b->req.id;
              });
    for (std::size_t i = 0; i < order.size(); i++) {
        Request r = order[i]->req;
        r.arrival_s = static_cast<double>(i) * 1e-3;
        local->submit(r);
    }
    local->drain();
    int fold_bad = 0, hash_bad = 0, unfinished = 0;
    for (const WireRecord& w : res.records) {
        if (!w.done || !w.finished || w.tokens != w.req.output_tokens) {
            unfinished++;
            continue;
        }
        if (w.fold != w.output_hash || !w.stream_ok)
            fold_bad++;
        const Request* l = local->poll(w.req.id);
        if (l == nullptr || l->output_hash != w.output_hash ||
            l->attn_hash != w.attn_hash)
            hash_bad++;
    }
    report.fail(unfinished);
    report.check(unfinished == 0, "net: " + std::to_string(unfinished) +
                                      " requests did not finish in full");
    report.check(fold_bad == 0,
                 "net: " + std::to_string(fold_bad) +
                     " requests whose TOKEN folds do not match DONE");
    report.check(hash_bad == 0,
                 "net: " + std::to_string(hash_bad) +
                     " requests whose output/attn hash differs from the "
                     "in-process single-engine run");
}

/** The end-to-end view of one pass. */
EndToEnd
endToEnd(const NetResult& res)
{
    EndToEnd e;
    e.setup_s = res.setup_s;
    e.prefill_tokens = static_cast<double>(res.metrics.prefill_tokens);
    e.prefill_s = res.server_wall_s;
    e.out_s = res.client_wall_s;
    e.step_ms = res.tick_ms;
    for (const WireRecord& w : res.records) {
        e.out_tokens += w.tokens;
        if (w.first >= 0)
            e.ttft_ms.add((w.first - w.submit) * 1e3);
        if (w.tokens > 1)
            e.tpot_ms.add((w.last - w.first) * 1e3 / (w.tokens - 1));
    }
    return e;
}

} // namespace

void
runNetPrefixStream(const Options& opt, Report& report)
{
    if (!opt.trace) {
        const NetResult res = servePass(opt, opt.seconds, nullptr);
        checkPass(res, report);
        endToEnd(res).report(report);
        return;
    }

    const NetResult plain = servePass(opt, opt.seconds * 0.4, nullptr);
    checkPass(plain, report);
    SpanLog log;
    const NetResult res = servePass(opt, opt.seconds * 0.4, &log);
    checkPass(res, report);

    Samples ack_ms;
    for (const WireRecord& w : res.records)
        if (w.ack >= 0)
            ack_ms.add((w.ack - w.submit) * 1e3);
    const ServingMetrics& m = res.metrics;
    report.metric("serving.stream_tick_ms_p50", res.tick_ms.median(), "ms");
    report.metric("serving.stream_s_total", res.tick_ms.sum() * 1e-3, "s");
    report.metric("net.self_s", res.server_wall_s - res.inside_s, "s");
    report.metric("net.submit_ack_ms_p50", ack_ms.median(), "ms");
    report.metric("net.frames_rx", static_cast<double>(res.frames), "count");
    report.metric("net.bytes_rx", static_cast<double>(res.bytes), "B");
    report.metric("net.peak_write_buffer_bytes",
                  static_cast<double>(res.peak_write_buffer), "B");
    report.metric("backend.fused-paged.decode_ms_p50", res.backend_ms.median(),
                  "ms");
    report.metric("backend.fused-paged.s_total", res.backend_ms.sum() * 1e-3,
                  "s");
    double max_load = 0, sum_load = 0;
    for (long t : res.router.per_shard_tokens) {
        max_load = std::max(max_load, static_cast<double>(t));
        sum_load += static_cast<double>(t);
    }
    const double shards = static_cast<double>(
        std::max<std::size_t>(1, res.router.per_shard_tokens.size()));
    report.metric("cluster.sticky_hits",
                  static_cast<double>(res.router.sticky_hits), "count");
    report.metric("cluster.cold_placements",
                  static_cast<double>(res.router.cold_placements), "count");
    report.metric("cluster.least_loaded",
                  static_cast<double>(res.router.least_loaded), "count");
    report.metric("cluster.rebalances",
                  static_cast<double>(res.router.rebalances), "count");
    report.metric("cluster.shard_load_max_over_mean",
                  sum_load > 0 ? max_load / (sum_load / shards) : 0, "ratio");
    report.metric("serving.prefix_hit_rate", m.prefix_hit_rate, "ratio");
    report.metric("serving.cow_copies", static_cast<double>(m.cow_copies),
                  "count");
    report.metric("serving.avg_decode_batch", m.avg_decode_batch, "count");
    report.metric("serving.preemptions", m.preemptions, "count");
    endToEnd(plain).reportSpread(report);
    reportOverhead(endToEnd(plain), endToEnd(res), report);
    report.metric("trace.spans", static_cast<double>(log.size()), "count");
    const std::string path = opt.trace_dir + "/trace-net-prefix-stream.json";
    if (!log.write(path))
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

} // namespace perfbench
