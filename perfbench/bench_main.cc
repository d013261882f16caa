/**
 * @file
 * perfbench: the repo's wall-clock benchmark driver.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--flip] [--parked <n>]
 *
 * Prints a header (source identity, build, compiler, CPU features, SIMD
 * level, nproc, threads), runs one workload for about --seconds seconds
 * and prints one JSON object as the last stdout line: the correctness
 * verdict, operations attempted and failed, and the metrics (end-to-end
 * with --trace 0, per layer with --trace 1). --flip flips one bit of one
 * checked output, so the run must then report correct = false.
 *
 * An unoptimized or sanitizer build measures the instrumentation, not the
 * program, so it refuses to report numbers and exits 3.
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "exec/simd/dispatch.h"

// Sanitizer runtimes export these; a weak reference is non-null only when
// one is linked in (GCC has no predefined macro for UBSan).
extern "C" void __asan_init() __attribute__((weak));
extern "C" void __tsan_init() __attribute__((weak));
extern "C" void __msan_init() __attribute__((weak));
extern "C" void __ubsan_handle_add_overflow() __attribute__((weak));

namespace {

using perfbench::Options;

/** Why this build must not report numbers; empty when it may. */
std::string
buildRefusal()
{
#if !defined(__OPTIMIZE__)
    return "unoptimized build (compiled without -O)";
#endif
    const std::string type = PERFBENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo")
        return "build type '" + type + "' is not Release or RelWithDebInfo";
    if (__asan_init || __tsan_init || __msan_init ||
        __ubsan_handle_add_overflow)
        return "sanitizer runtime linked in";
    return {};
}

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<longctx-decode|tiered-idle|net-prefix-stream> --seed <n> "
                 "--seconds <s> --trace <0|1> [--flip] [--parked <n>]\n",
                 why.c_str());
    std::exit(2);
}

Options
parse(int argc, char** argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; i++) {
        std::string key = argv[i];
        std::string val;
        const auto eq = key.find('=');
        if (eq != std::string::npos) {
            val = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (key != "--flip") {
            if (i + 1 >= argc)
                usage("missing value for " + key);
            val = argv[++i];
        }
        char* end = nullptr;
        if (key == "--workload") {
            o.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end != '\0')
                usage("bad --seed '" + val + "'");
        } else if (key == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(o.seconds > 0) ||
                o.seconds > 3600)
                usage("bad --seconds '" + val + "'");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("bad --trace '" + val + "'");
            o.trace = val == "1";
        } else if (key == "--trace-dir") {
            o.trace_dir = val;
        } else if (key == "--parked") {
            o.parked = static_cast<int>(std::strtol(val.c_str(), &end, 10));
            if (val.empty() || *end != '\0' || o.parked < 1 || o.parked > 256)
                usage("bad --parked '" + val + "'");
        } else if (key == "--flip") {
            o.flip = true;
        } else {
            usage("unknown argument " + key);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

void
printHeader(const Options& o)
{
    namespace simd = bitdec::exec::simd;
    const char* sha = std::getenv("PERFBENCH_SOURCE_ID");
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);
    std::printf("# source: %s\n", sha ? sha : "unknown");
    std::printf("# build: %s, compiler: %s\n", PERFBENCH_BUILD_TYPE,
                __VERSION__);
    std::printf("# cpu features: %s\n", simd::describeCpuFeatures().c_str());
    std::printf("# simd level: %s (max supported %s)\n",
                simd::toString(simd::enabledLevelCap()),
                simd::toString(simd::maxSupportedLevel()));
    std::printf("# nproc: %d, pool threads: %d\n", perfbench::hostThreads(),
                perfbench::hostThreads());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parse(argc, argv);
    printHeader(opt);
    const std::string refusal = buildRefusal();
    if (!refusal.empty()) {
        std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n",
                     refusal.c_str());
        return 3;
    }

    perfbench::Report report;
    if (opt.workload == "longctx-decode")
        perfbench::runLongContextDecode(opt, report);
    else if (opt.workload == "tiered-idle")
        perfbench::runTieredIdle(opt, report);
    else if (opt.workload == "net-prefix-stream")
        perfbench::runNetPrefixStream(opt, report);
    else
        usage("unknown workload '" + opt.workload + "'");
    report.print();
    return 0;
}
