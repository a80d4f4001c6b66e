/**
 * @file
 * Shared plumbing of the benchmark binary: sample statistics, process
 * accounting (CPU time, peak RSS, steal ticks), the run result every
 * workload fills, and the bench-side span log of traced runs.
 *
 * Wall seconds (what this process spends) and modeled seconds (what
 * PIM-DL would take on the simulated platform) never share a metric:
 * every modeled number is named `model.*`.
 */

#ifndef PIMDL_PERFBENCH_COMMON_H
#define PIMDL_PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runtime/functional_transformer.h"

namespace perfbench {

/** Monotonic wall seconds. */
double nowS();

/** User + system CPU seconds of this process. */
double cpuS();

/** Peak resident set of this process, MB. */
double peakRssMb();

/** Summed steal ticks of all CPUs from /proc/stat (0 if unreadable). */
std::uint64_t stealTicks();

/** A set of timing samples. */
class Samples
{
  public:
    void add(double v) { v_.push_back(v); }
    std::size_t size() const { return v_.size(); }
    bool empty() const { return v_.empty(); }
    const std::vector<double> &values() const { return v_; }
    /** Linear-interpolated quantile, @p q in [0, 1]. */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }
    /**
     * The highest of p99, p95, p90 and p75 with at least ten samples
     * beyond it; below 40 samples, the value with ten above it.
     */
    double tail() const;
    /** Percentile tail() reports. */
    double tailPercentile() const;

  private:
    std::vector<double> v_;
};

/**
 * Timing samples tagged with the CPU time the hypervisor stole from the
 * machine while each was taken (stealTicks() before and after). On a
 * shared host a sample that lost CPU time to another guest measures that
 * guest as much as the program.
 */
class StealTaggedSamples
{
  public:
    void add(double seconds, std::uint64_t steal_ticks);
    const Samples &all() const { return all_; }
    /** Samples taken with no steal tick on any CPU. */
    std::size_t stealFree() const;
    /**
     * Median of the steal-free samples, or, if fewer than a quarter of
     * the samples are steal-free, of the quarter with the least steal.
     */
    double median() const;

  private:
    Samples all_;
    std::vector<std::uint64_t> steal_;
};

/** One named metric of a run. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload hands back to main(). */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Every correctness violation, with its reason. */
    std::vector<std::string> violations;
    std::vector<Metric> metrics;
    /** The end-to-end figures again, under names in the workload's own
     * terms (`forward_ms_p50.host`, `sweep_cold_s`, ...), printed with
     * the fingerprint; the result object carries the contract names. */
    std::vector<Metric> named;
    /** Sample counts and percentile choices, printed with the run. */
    std::map<std::string, std::string> info;

    void add(const std::string &name, double value,
             const std::string &unit);
    /** Records one failed operation. */
    void fail(const std::string &why);
    bool correct() const { return violations.empty(); }
    /** Adds `<prefix>_ms_p50`, the StealTaggedSamples::median() of @p s
     * (seconds), notes the sample counts, and names it
     * `<stem>_p50_steal_free<suffix>`, and the median and tail of all
     * samples `<stem>_p50<suffix>` and `<stem>_tail<suffix>`. */
    void addLatency(const std::string &prefix, const StealTaggedSamples &s,
                    const std::string &stem, const std::string &suffix);
};

/** Settings parsed from the command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Seeded standard-normal tensor. */
pimdl::Tensor gaussian(std::size_t rows, std::size_t cols, std::uint64_t seed);

/** True if @p a and @p b have the same shape and the same bits. */
bool sameBits(const pimdl::Tensor &a, const pimdl::Tensor &b);

/** FunctionalTransformer of the given shape, V=4 and CT=16. */
pimdl::FunctionalTransformerConfig
functionalConfig(std::size_t hidden, std::size_t ffn, std::size_t layers,
                 std::size_t heads);

/**
 * Bench-side spans of a traced run: summed wall seconds per layer
 * name. Not thread-safe; the traced phases that use it are
 * single-threaded.
 */
class SpanLog
{
  public:
    void add(const std::string &name, double seconds);
    double seconds(const std::string &name) const;
    double total() const;

  private:
    std::map<std::string, double> spans_;
};

/** Times @p fn into @p log under @p name; returns fn's result. */
template <class Fn>
auto
timed(SpanLog &log, const std::string &name, Fn &&fn)
{
    const double t0 = nowS();
    auto out = fn();
    log.add(name, nowS() - t0);
    return out;
}

/** Spans the program itself emits, summed by name. */
struct ProgramSpans
{
    std::map<std::string, double> seconds;
    std::map<std::string, std::uint64_t> calls;
};

/** Turns the program's tracer (obs::Tracer) on or off. */
void setProgramTracing(bool on);

/** Sizes the program's span ring; clears it. */
void sizeProgramTracer(std::size_t capacity);

/** Reads and clears the program's spans. Throws if any span was
 * dropped by the ring, since the sums would then be short. */
ProgramSpans takeProgramSpans();

/** Reads a counter from the program's metrics registry. */
std::uint64_t programCounter(const std::string &name);

/** Reads a histogram from the program's metrics registry. */
pimdl::obs::HistogramSnapshot programHistogram(const std::string &name);

/** Median of parallel.worker_utilization since the last reset. */
double parallelUtilizationP50();

/** Resets the program's metrics registry. */
void resetProgramMetrics();

/** Runs one workload. Each throws std::runtime_error on a setup
 * failure; correctness violations go into the result instead. */
RunResult runOffline(const Options &opt);
RunResult runServeOpen(const Options &opt);

/** Adds the per-layer figures of the model-sweep layers (tuner, plan
 * scheduling, backends, DES) and their correctness checks to a traced
 * run. Resets the program's metrics registry first. */
void addSweepLayers(std::uint64_t seed, RunResult &result);

/** Modeled seconds and per-forward counts of one offline HostLut and
 * PimLut forward on a freshly built model, for the repeat self-test. */
std::vector<double> offlineModeledPass(std::uint64_t seed);

/** Self-test entry points (return 0 on pass). */
int selftestRepeat(const Options &opt);
int selftestShadowDrop(const Options &opt);

} // namespace perfbench

#endif // PIMDL_PERFBENCH_COMMON_H
