/**
 * @file
 * Benchmark binary entry point.
 *
 *   pimdl_perfbench --workload <offline|serve-open>
 *                   --seed <n> --seconds <s> --trace <0|1>
 *   pimdl_perfbench --selftest <repeat|shadow-drop> --seed <n>
 *
 * The last line of a run is one JSON object with the keys `correct`,
 * `attempted`, `failed` and `metrics`: the end-to-end metrics with
 * --trace 0, the per-layer metrics the workload reaches with --trace 1.
 * The line before it is the run fingerprint. run.py checks the names
 * against BENCHMARK.json and fills unreached per-layer metrics with 0.
 */

#include <sys/sysinfo.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "common.h"
#include "common/parallel.h"
#include "kernels/kernels.h"
#include "obs/json.h"

#ifndef PIMDL_PERFBENCH_BUILD_TYPE
#define PIMDL_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using pimdl::obs::jsonNumber;
using pimdl::obs::jsonString;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "pimdl_perfbench: %s\nusage: pimdl_perfbench --workload "
                 "<offline|serve-open> --seed <n> --seconds "
                 "<s> --trace <0|1>\n",
                 why.c_str());
    std::exit(2);
}

/** `{"<name>": {"value": v, "unit": "u"}, ...}` */
std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (const Metric &m : metrics) {
        out += (out.size() > 1 ? ", " : "") + jsonString(m.name) +
               ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return out + "}";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** Refuses builds whose timings would not mean anything. */
void
requireOptimizedBuild()
{
    bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    sanitized = true;
#endif
#endif
    bool optimized = false;
#if defined(__OPTIMIZE__)
    optimized = true;
#endif
    const std::string type = PIMDL_PERFBENCH_BUILD_TYPE;
    if (sanitized || !optimized || type == "Debug") {
        std::fprintf(stderr,
                     "pimdl_perfbench: refusing to time a %s build "
                     "(sanitized=%d optimized=%d)\n",
                     type.c_str(), sanitized ? 1 : 0, optimized ? 1 : 0);
        std::exit(3);
    }
}

void
printRun(const Options &opt, const RunResult &r, std::uint64_t steal)
{
    std::ostringstream fp;
    fp << "{\"fingerprint\": {\"workload\": " << jsonString(opt.workload)
       << ", \"seed\": " << opt.seed << ", \"seconds\": "
       << jsonNumber(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
       << ", \"nproc\": " << get_nprocs() << ", \"cpu_model\": "
       << jsonString(cpuModel()) << ", \"kernels_impl\": "
       << jsonString(pimdl::kernels::best().name)
       << ", \"parallel_workers\": " << pimdl::parallelWorkerCount()
       << ", \"build_type\": " << jsonString(PIMDL_PERFBENCH_BUILD_TYPE)
       << ", \"steal_ticks\": " << steal << "}, \"named\": ";
    std::vector<Metric> named = r.named;
    named.push_back({"failed_frac",
                     r.attempted ? static_cast<double>(r.failed) /
                                       static_cast<double>(r.attempted)
                                 : 0.0,
                     "ratio"});
    fp << metricsJson(named) << ", \"info\": {";
    bool first = true;
    for (const auto &[k, v] : r.info) {
        fp << (first ? "" : ", ") << jsonString(k) << ": " << jsonString(v);
        first = false;
    }
    fp << "}, \"violations\": [";
    first = true;
    for (const std::string &v : r.violations) {
        fp << (first ? "" : ", ") << jsonString(v);
        first = false;
    }
    fp << "]}";
    std::printf("%s\n", fp.str().c_str());

    std::ostringstream out;
    out << "{\"correct\": " << (r.correct() ? "true" : "false")
        << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
        << ", \"metrics\": " << metricsJson(r.metrics) << "}";
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
}

int
run(int argc, char **argv)
{
    Options opt;
    std::string selftest;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = std::stoull(value);
        else if (flag == "--seconds")
            opt.seconds = std::stod(value);
        else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
            have_trace = true;
        } else if (flag == "--selftest")
            selftest = value;
        else
            usage("unknown flag " + flag);
    }
    requireOptimizedBuild();
    // The program traces by default; runs switch it on only around the
    // spans they read, into a ring large enough that none drops.
    setProgramTracing(false);
    sizeProgramTracer(1 << 16);
    if (!(opt.seconds > 0.0 && opt.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    if (selftest == "repeat")
        return selftestRepeat(opt);
    if (selftest == "shadow-drop")
        return selftestShadowDrop(opt);
    if (!selftest.empty())
        usage("unknown self-test " + selftest);
    if (!have_trace)
        usage("--trace is required");

    const std::uint64_t steal0 = stealTicks();
    RunResult result;
    if (opt.workload == "offline")
        result = runOffline(opt);
    else if (opt.workload == "serve-open")
        result = runServeOpen(opt);
    else
        usage("unknown workload '" + opt.workload + "'");
    for (const std::string &v : result.violations)
        std::fprintf(stderr, "violation: %s\n", v.c_str());
    printRun(opt, result, stealTicks() - steal0);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pimdl_perfbench: error: %s\n", e.what());
        return 1;
    }
}
