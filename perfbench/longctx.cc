/**
 * @file
 * Workload `longctx-decode`: one LLaMA-3.1-8B attention layer (8 KV
 * heads, GQA 4, d = 128) over one sequence with a 32K-token 4-bit
 * context. Each round builds the decoders (set-up), packs every head's
 * context with HeadDecoder::prefill, then runs decode steps: append one
 * token's K/V to every head, then one model::batchedFusedDecode over the
 * 8 heads on a pool of nproc threads. Rounds repeat identical inputs.
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "backend/attention_backend.h"
#include "backend/registry.h"
#include "common.h"
#include "core/bitdecoding.h"
#include "exec/thread_pool.h"
#include "kvcache/kv_cache.h"
#include "model/decode_sim.h"

namespace perfbench {

namespace {

using bitdec::Half;
using bitdec::Tensor;

constexpr int kHeads = 8;
constexpr int kGroup = 4; // query heads per KV head (GQA 4)
constexpr int kDim = 128;
constexpr int kContext = 32768;
constexpr int kStepsPerRound = 32;
constexpr int kMinSteps = 100;
constexpr int kProbeReps = 5;

/** The benchmark's generated inputs; identical for every round. */
struct Inputs
{
    std::vector<Tensor<Half>> k, v;         //!< [kContext x d] per head
    std::vector<Tensor<Half>> k_app, v_app; //!< [kStepsPerRound x d]
    std::vector<std::vector<Tensor<Half>>> q; //!< [step][head] [gq x d]
};

Tensor<Half>
randomMatrix(InputRng& rng, std::size_t rows, const std::vector<float>& bias)
{
    Tensor<Half> t({rows, static_cast<std::size_t>(kDim)});
    for (std::size_t r = 0; r < rows; r++)
        for (int c = 0; c < kDim; c++)
            t.at(r, static_cast<std::size_t>(c)) =
                Half(bias[static_cast<std::size_t>(c)] +
                     static_cast<float>(rng.range(-1.0, 1.0)));
    return t;
}

Inputs
makeInputs(std::uint64_t seed)
{
    Inputs in;
    for (int h = 0; h < kHeads; h++) {
        InputRng rng(streamSeed(seed, 100 + static_cast<std::uint64_t>(h)));
        // Keys carry per-channel offsets (the outlier channels that make
        // channel-wise key quantization matter); values are centered.
        std::vector<float> kbias(kDim), zero(kDim, 0.f);
        for (float& b : kbias)
            b = static_cast<float>(rng.range(-1.5, 1.5));
        in.k.push_back(randomMatrix(rng, kContext, kbias));
        in.v.push_back(randomMatrix(rng, kContext, zero));
        in.k_app.push_back(randomMatrix(rng, kStepsPerRound, kbias));
        in.v_app.push_back(randomMatrix(rng, kStepsPerRound, zero));
    }
    InputRng qrng(streamSeed(seed, 99));
    const std::vector<float> zero(kDim, 0.f);
    in.q.resize(kStepsPerRound);
    for (auto& step : in.q)
        for (int h = 0; h < kHeads; h++)
            step.push_back(randomMatrix(qrng, kGroup, zero));
    return in;
}

std::vector<Half>
row(const Tensor<Half>& t, int r)
{
    const Half* p = t.data() + static_cast<std::size_t>(r) * kDim;
    return std::vector<Half>(p, p + kDim);
}

/** Value the benchmark wrote at token @p t, channel @p c of head @p h. */
float
written(const Inputs& in, bool key, int h, int t, int c)
{
    const auto hh = static_cast<std::size_t>(h);
    const Tensor<Half>& src = t < kContext ? (key ? in.k : in.v)[hh]
                                           : (key ? in.k_app : in.v_app)[hh];
    const int r = t < kContext ? t : t - kContext;
    return src.at(static_cast<std::size_t>(r), static_cast<std::size_t>(c))
        .toFloat();
}

/** Spacing of FP16 values at magnitude @p y (its unit in the last place). */
double
halfUlp(double y)
{
    int e = 0;
    std::frexp(std::max(std::fabs(y), 0x1p-14), &e);
    return std::ldexp(1.0, e - 11);
}

/**
 * Counts dequantized K/V values farther from the values written than the
 * 4-bit method allows. The step of each group is derived here from the
 * written values' range: keys group 32 tokens of one channel, values 32
 * channels of one token, 15 steps per range. Rounding to a code costs at
 * most half a step; with @p strict false the bound also admits the
 * rounding of the FP16 magic-number bias -(1024 + zero) * step the
 * program's dequantization adds (half an FP16 spacing at that
 * magnitude). Residual (unpacked) rows must come back exactly.
 */
template <typename Written>
long
roundTripViolations(int len, int packed, int bits, bool strict,
                    const Written& x, const Tensor<Half>& kd,
                    const Tensor<Half>& vd)
{
    constexpr int kGroupLen = 32;
    const double levels = (1 << bits) - 1;
    long bad = 0;
    // One group: tokens [t0, t1) x channels [c0, c1) of K or V.
    const auto group = [&](bool key, int t0, int t1, int c0, int c1) {
        const Tensor<Half>& got = key ? kd : vd;
        double lo = 1e30, hi = -1e30;
        for (int t = t0; t < t1; t++)
            for (int c = c0; c < c1; c++) {
                lo = std::min<double>(lo, x(key, t, c));
                hi = std::max<double>(hi, x(key, t, c));
            }
        const double step = (hi - lo) / levels;
        const double zero = std::fabs(std::round(lo / step)) + 1;
        const double bias = strict ? 0 : 0.5 * halfUlp((1024 + zero) * step * 1.01);
        for (int t = t0; t < t1; t++)
            for (int c = c0; c < c1; c++) {
                const double w = x(key, t, c);
                const double tol = 0.5 * step * 1.01 + bias +
                                   halfUlp(std::fabs(w) + step) + 1e-6;
                const double y = got.at(static_cast<std::size_t>(t),
                                        static_cast<std::size_t>(c)).toFloat();
                if (!(std::fabs(y - w) <= tol))
                    bad++;
            }
    };
    for (int c = 0; c < kDim; c++)
        for (int g = 0; g < packed; g += kGroupLen)
            group(true, g, std::min(g + kGroupLen, packed), c, c + 1);
    for (int t = 0; t < packed; t++)
        for (int g = 0; g < kDim; g += kGroupLen)
            group(false, t, t + 1, g, g + kGroupLen);
    for (int t = packed; t < len; t++)
        for (int c = 0; c < kDim; c++) {
            const auto tt = static_cast<std::size_t>(t);
            const auto cc = static_cast<std::size_t>(c);
            if (kd.at(tt, cc).bits() != Half(x(true, t, c)).bits() ||
                vd.at(tt, cc).bits() != Half(x(false, t, c)).bits())
                bad++;
        }
    return bad;
}

/** Max-abs distance of @p got from FP64 attention over dequantized K/V. */
double
referenceMaxAbs(const Tensor<Half>& q, const Tensor<Half>& kd,
                const Tensor<Half>& vd, int len, float scale,
                const Tensor<float>& got)
{
    double worst = 0;
    std::vector<double> s(static_cast<std::size_t>(len));
    std::vector<double> qd(kDim), out(kDim);
    for (int r = 0; r < kGroup; r++) {
        for (int c = 0; c < kDim; c++)
            qd[static_cast<std::size_t>(c)] =
                q.at(static_cast<std::size_t>(r), static_cast<std::size_t>(c))
                    .toFloat();
        double mx = -1e300;
        for (int t = 0; t < len; t++) {
            const Half* krow = kd.data() + static_cast<std::size_t>(t) * kDim;
            double dot = 0;
            for (int c = 0; c < kDim; c++)
                dot += qd[static_cast<std::size_t>(c)] * krow[c].toFloat();
            s[static_cast<std::size_t>(t)] = dot * scale;
            mx = std::max(mx, s[static_cast<std::size_t>(t)]);
        }
        double denom = 0;
        std::fill(out.begin(), out.end(), 0.0);
        for (int t = 0; t < len; t++) {
            const double p = std::exp(s[static_cast<std::size_t>(t)] - mx);
            const Half* vrow = vd.data() + static_cast<std::size_t>(t) * kDim;
            denom += p;
            for (int c = 0; c < kDim; c++)
                out[static_cast<std::size_t>(c)] += p * vrow[c].toFloat();
        }
        for (int c = 0; c < kDim; c++)
            worst = std::max(
                worst, std::fabs(out[static_cast<std::size_t>(c)] / denom -
                                 got.at(static_cast<std::size_t>(r),
                                        static_cast<std::size_t>(c))));
    }
    return worst;
}

bool
bitwiseEqual(const std::vector<Tensor<float>>& a,
             const std::vector<Tensor<float>>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); i++)
        if (a[i].numel() != b[i].numel() ||
            std::memcmp(a[i].data(), b[i].data(),
                        a[i].numel() * sizeof(float)) != 0)
            return false;
    return true;
}

/** One round's program objects: the pool and one decoder per KV head. */
struct Round
{
    std::unique_ptr<bitdec::exec::ThreadPool> pool;
    std::vector<std::unique_ptr<bitdec::core::HeadDecoder>> dec;
};

/** Timings the main loop collects. */
struct LoopStats
{
    Samples setup_s, prefill_head_ms, step_ms, append_us, batched_ms;
    Samples ttft_ms, tpot_ms;
    double prefill_tokens = 0, prefill_wall = 0;
    long steps = 0, rounds = 0;
};

/**
 * Packs a fixed (seed-independent) 1024-token context and counts values
 * beyond half a quantization step of what was written. The program's
 * FP16 magic-number dequantization rounds its bias to FP16, which costs up
 * to another half step, so this fails on every run; it is counted as a
 * failed operation rather than hidden.
 */
bool
strictRoundTripHolds()
{
    constexpr int kLen = 1024;
    InputRng rng(0x5EEDF00Dull);
    Tensor<Half> k({kLen, kDim}), v({kLen, kDim});
    for (std::size_t i = 0; i < k.numel(); i++) {
        k[i] = Half(static_cast<float>(rng.range(-1.0, 1.0)));
        v[i] = Half(static_cast<float>(rng.range(-1.0, 1.0)));
    }
    bitdec::core::HeadDecoder dec(kDim, bitdec::core::BitDecodingConfig{});
    dec.prefill(k, v);
    Tensor<Half> kd, vd;
    dec.cache().dequantizeAll(kd, vd);
    const auto x = [&](bool key, int t, int c) {
        return (key ? k : v)
            .at(static_cast<std::size_t>(t), static_cast<std::size_t>(c))
            .toFloat();
    };
    return roundTripViolations(kLen, dec.cache().packedTokens(),
                               dec.cache().config().bits, true, x, kd,
                               vd) == 0;
}

/** The checks of one sampled step; run outside every timed window. */
void
checkStep(const Inputs& in, const Options& opt, const Round& rd,
          const std::vector<bitdec::model::FusedDecodeItem>& items,
          std::vector<Tensor<float>> out, int s, float scale, Report& report)
{
    if (opt.flip) {
        std::uint32_t bits;
        std::memcpy(&bits, &out[3][17], sizeof bits);
        bits ^= 1u << 20;
        std::memcpy(&out[3][17], &bits, sizeof bits);
    }
    const auto serial = bitdec::model::batchedFusedDecode(items, scale, nullptr);
    report.check(bitwiseEqual(serial, out),
                 "longctx: decode outputs differ between 1 and " +
                     std::to_string(rd.pool->numThreads()) +
                     " threads at step " + std::to_string(s));
    // Heads are checked in parallel; verdicts are reported in head order.
    std::vector<long> bad(kHeads);
    std::vector<double> err(kHeads);
    bitdec::exec::parallelFor(rd.pool.get(), kHeads, [&](std::size_t h) {
        const auto& c = rd.dec[h]->cache();
        Tensor<Half> kd, vd;
        c.dequantizeAll(kd, vd);
        const int hi = static_cast<int>(h);
        const auto x = [&](bool key, int t, int ch) {
            return written(in, key, hi, t, ch);
        };
        bad[h] = roundTripViolations(c.length(), c.packedTokens(),
                                     c.config().bits, false, x, kd, vd);
        err[h] = referenceMaxAbs(in.q[static_cast<std::size_t>(s)][h], kd, vd,
                                 c.length(), scale, out[h]);
    });
    for (int h = 0; h < kHeads; h++) {
        const auto hh = static_cast<std::size_t>(h);
        report.check(bad[hh] == 0, "longctx: head " + std::to_string(h) +
                                       " has " + std::to_string(bad[hh]) +
                                       " dequantized values beyond the 4-bit "
                                       "round-trip bound");
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "longctx: head %d step %d fused output is %.3g max-abs "
                      "from FP64 attention (> 1e-3)",
                      h, s, err[hh]);
        report.check(err[hh] <= 1e-3, buf);
    }
}

/** Builds one round's program objects; returns the set-up seconds. */
double
buildRound(Round& rd, SpanLog* log)
{
    Scope sp(log, "setup");
    const double t0 = wallNow();
    rd.pool = std::make_unique<bitdec::exec::ThreadPool>(hostThreads());
    for (int h = 0; h < kHeads; h++)
        rd.dec.push_back(std::make_unique<bitdec::core::HeadDecoder>(
            kDim, bitdec::core::BitDecodingConfig{}));
    bitdec::backend::BackendRegistry::instance().resolve("fused-packed");
    return wallNow() - t0;
}

/** Packs every head's context, one head per pool task; per-head ms. */
std::vector<double>
prefillAll(const Inputs& in, Round& rd, SpanLog* log)
{
    Scope sp(log, "core.prefill_all");
    std::vector<double> ms(kHeads);
    bitdec::exec::parallelFor(rd.pool.get(), kHeads, [&](std::size_t h) {
        Scope hs(log, "core.prefill");
        const double t0 = wallNow();
        rd.dec[h]->prefill(in.k[h], in.v[h]);
        ms[h] = (wallNow() - t0) * 1e3;
    });
    return ms;
}

/** One decode step: append to every head, then one batched decode. */
std::vector<Tensor<float>>
decodeStep(const Inputs& in, Round& rd, int s, SpanLog* log, LoopStats* st,
           std::vector<bitdec::model::FusedDecodeItem>& items)
{
    const float scale = 1.0f / std::sqrt(static_cast<float>(kDim));
    Scope step_span(log, "decode_step");
    for (int h = 0; h < kHeads; h++) {
        Scope a(log, "core.append");
        const double ta = wallNow();
        const auto hh = static_cast<std::size_t>(h);
        rd.dec[hh]->appendToken(row(in.k_app[hh], s), row(in.v_app[hh], s));
        if (st)
            st->append_us.add((wallNow() - ta) * 1e6);
    }
    items.clear();
    for (int h = 0; h < kHeads; h++)
        items.push_back(
            {&in.q[static_cast<std::size_t>(s)][static_cast<std::size_t>(h)],
             &rd.dec[static_cast<std::size_t>(h)]->cache()});
    Scope d(log, "model.batched_decode");
    const double td = wallNow();
    auto out = bitdec::model::batchedFusedDecode(items, scale, rd.pool.get());
    if (st)
        st->batched_ms.add((wallNow() - td) * 1e3);
    return out;
}

/**
 * The check round, run once before anything is timed (it also warms the
 * heap): a full round whose first and last decode steps are checked.
 */
void
checkRound(const Inputs& in, const Options& opt, Report& report)
{
    const float scale = 1.0f / std::sqrt(static_cast<float>(kDim));
    Round rd;
    buildRound(rd, nullptr);
    prefillAll(in, rd, nullptr);
    std::vector<bitdec::model::FusedDecodeItem> items;
    for (int s = 0; s < kStepsPerRound; s++) {
        auto out = decodeStep(in, rd, s, nullptr, nullptr, items);
        if (s == 0 || s == kStepsPerRound - 1)
            checkStep(in, opt, rd, items, std::move(out), s, scale, report);
    }
}

/**
 * The timed loop: whole rounds until @p seconds have passed and at least
 * kMinSteps steps ran. A round is: set-up, the strict round-trip probe,
 * prefill of every head, kStepsPerRound decode steps. Spans go to @p log
 * when non-null. The last round's program objects are left in @p keep
 * for the probes.
 */
void
mainLoop(const Inputs& in, double seconds, SpanLog* log, LoopStats& st,
         Report& report, Round& keep)
{
    const double t_start = wallNow();
    std::vector<bitdec::model::FusedDecodeItem> items;
    while (st.rounds == 0 || wallNow() - t_start < seconds ||
           st.steps < kMinSteps) {
        keep = Round{};
        Round rd;
        st.setup_s.add(buildRound(rd, log));
        report.attempt();
        if (!strictRoundTripHolds())
            report.fail();

        const double t_request = wallNow();
        for (double m : prefillAll(in, rd, log))
            st.prefill_head_ms.add(m);
        st.prefill_wall += wallNow() - t_request;
        st.prefill_tokens += static_cast<double>(kHeads) * kContext;
        report.attempt(kHeads);

        double after_first_ms = 0;
        for (int s = 0; s < kStepsPerRound; s++) {
            const double t0 = wallNow();
            decodeStep(in, rd, s, log, &st, items);
            const double t1 = wallNow();
            st.step_ms.add((t1 - t0) * 1e3);
            st.steps++;
            report.attempt();
            if (s == 0)
                st.ttft_ms.add((t1 - t_request) * 1e3);
            else
                after_first_ms += (t1 - t0) * 1e3;
        }
        st.tpot_ms.add(after_first_ms / (kStepsPerRound - 1));
        st.rounds++;
        keep = std::move(rd);
    }
}

EndToEnd
endToEnd(const LoopStats& st)
{
    EndToEnd e;
    e.setup_s = st.setup_s;
    e.prefill_tokens = st.prefill_tokens;
    e.prefill_s = st.prefill_wall;
    e.out_tokens = static_cast<double>(st.steps);
    e.out_s = st.step_ms.sum() * 1e-3;
    e.step_ms = st.step_ms;
    e.ttft_ms = st.ttft_ms;
    e.tpot_ms = st.tpot_ms;
    return e;
}

/** Median wall ms of @p reps decode steps of one backend over @p batch. */
double
timeBackend(const bitdec::backend::AttentionBackend& be,
            const bitdec::backend::DecodeBatch& batch, int reps, SpanLog* log,
            const char* span)
{
    Samples ms;
    for (int i = 0; i < reps; i++) {
        Scope s(log, span);
        const double t0 = wallNow();
        const auto out = be.decodeStep(batch);
        ms.add((wallNow() - t0) * 1e3);
    }
    return ms.median();
}

} // namespace

void
runLongContextDecode(const Options& opt, Report& report)
{
    const double t_inputs = wallNow();
    const Inputs in = makeInputs(opt.seed);
    std::printf("# inputs generated in %.2f s\n", wallNow() - t_inputs);

    checkRound(in, opt, report);

    Round keep;
    if (!opt.trace) {
        LoopStats st;
        mainLoop(in, opt.seconds, nullptr, st, report, keep);
        endToEnd(st).report(report);
        return;
    }

    // Traced run: an untraced pass, a traced pass (their difference is
    // the tracing overhead), then probes on the last round's caches.
    LoopStats plain, traced;
    SpanLog log;
    mainLoop(in, opt.seconds * 0.3, nullptr, plain, report, keep);
    mainLoop(in, opt.seconds * 0.3, &log, traced, report, keep);

    const float scale = 1.0f / std::sqrt(static_cast<float>(kDim));
    auto& reg = bitdec::backend::BackendRegistry::instance();
    bitdec::backend::DecodeBatch batch;
    batch.scale = scale;
    batch.pool = keep.pool.get();
    double kv_bytes = 0;
    for (int h = 0; h < kHeads; h++) {
        const auto& c = keep.dec[static_cast<std::size_t>(h)]->cache();
        batch.items.push_back(bitdec::backend::packedItem(
            in.q[kStepsPerRound - 1][static_cast<std::size_t>(h)], c));
        kv_bytes += c.deviceBytes();
    }
    const char* packed_names[] = {"fused-packed", "fused-packed-avx2",
                                  "fused-packed-avx512"};
    for (const char* name : packed_names) {
        const bitdec::backend::AttentionBackend* be = reg.find(name);
        const bool runs = be != nullptr && be->available();
        if (!runs)
            std::printf("# backend %s not runnable here; reported as 0\n",
                        name);
        report.metric(std::string("backend.") + name + ".decode_ms_p50",
                      runs ? timeBackend(*be, batch, kProbeReps, &log,
                                         "backend.decode")
                           : 0.0,
                      "ms");
    }
    bitdec::backend::DecodeBatch serial = batch;
    serial.pool = nullptr;
    report.metric("backend.fused-packed.decode_1t_ms_p50",
                  timeBackend(reg.resolve("fused-packed"), serial, 3, &log,
                              "backend.decode_1t"),
                  "ms");

    // The paper's FP16 baseline over the same written content.
    std::vector<std::unique_ptr<bitdec::kv::Fp16HeadCache>> fp16;
    bitdec::backend::DecodeBatch fb;
    fb.scale = scale;
    fb.pool = keep.pool.get();
    for (int h = 0; h < kHeads; h++) {
        const auto hh = static_cast<std::size_t>(h);
        fp16.push_back(std::make_unique<bitdec::kv::Fp16HeadCache>(kDim));
        for (int t = 0; t < kContext; t++)
            fp16.back()->append(row(in.k[hh], t), row(in.v[hh], t));
        for (int t = 0; t < kStepsPerRound; t++)
            fp16.back()->append(row(in.k_app[hh], t), row(in.v_app[hh], t));
        fb.items.push_back(bitdec::backend::fp16Item(
            in.q[kStepsPerRound - 1][hh], *fp16.back()));
    }
    report.metric("backend.fused-fp16.decode_ms_p50",
                  timeBackend(reg.resolve("fused-fp16"), fb, kProbeReps, &log,
                              "backend.decode_fp16"),
                  "ms");

    const double batched = traced.batched_ms.median();
    report.metric("core.prefill_ms_per_head",
                  traced.prefill_head_ms.median(), "ms");
    report.metric("core.append_us_p50", traced.append_us.median(), "us");
    report.metric("core.append_us_max", traced.append_us.max(), "us");
    report.metric("model.batched_decode_ms_p50", batched, "ms");
    report.metric("exec.kv_bytes_per_step", kv_bytes, "B");
    report.metric("exec.kv_gbps", kv_bytes / (batched * 1e-3) / 1e9, "GB/s");
    endToEnd(plain).reportSpread(report);
    reportOverhead(endToEnd(plain), endToEnd(traced), report);
    report.metric("trace.spans", static_cast<double>(log.size()), "count");
    const std::string path = opt.trace_dir + "/trace-longctx-decode.json";
    if (!log.write(path))
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

} // namespace perfbench
