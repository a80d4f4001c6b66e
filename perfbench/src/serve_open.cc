/**
 * @file
 * `serve-open`: open-loop serving. One submitter thread sends Poisson
 * arrivals at a ladder of fixed absolute rates into LiveServingRuntime
 * (2 workers, max_batch 8, max_wait 5 ms, pow2 buckets, default
 * resilience, no deadline, outputs collected). The executor is a HostLut
 * FunctionalBatchExecutor small enough that queueing, batching and
 * futures are a visible share of latency.
 *
 * Each request is timed from its due time, not from when the submitter
 * got to it, so a late generator adds to latency instead of silently
 * lowering the load; the lateness itself is loadgen.lag_ms_p99.
 *
 * The rates are constants here, never derived from a run-time
 * calibration: two commits must see the same offered load. The LUT
 * executor and the transfer engine are bypassed, which makes this
 * workload their control.
 */

#include <algorithm>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "common.h"
#include "runtime/functional_transformer.h"
#include "runtime/serving_live.h"

namespace perfbench {

using namespace pimdl;

namespace {

constexpr std::size_t kHidden = 64;
constexpr std::size_t kFfn = 128;
constexpr std::size_t kLayers = 2;
constexpr std::size_t kHeads = 4;
constexpr std::size_t kSeq = 32;
constexpr std::size_t kMaxBatch = 8;
/** The fixed ladder, requests per second, ascending. The last rung
 * overloads both workers; `low`, `high` and `near` name the others.
 * `high` stays below capacity even when the hypervisor steals a quarter
 * of the machine's CPU time (about 700 req/s then); `near` does not, so
 * its latency swings between runs and is reported, not gated. */
constexpr double kLadderRps[] = {250.0, 500.0, 1000.0, 4000.0};
constexpr std::size_t kRungs = std::size(kLadderRps);
constexpr std::size_t kLowRung = 0;
constexpr std::size_t kHighRung = 1;
constexpr std::size_t kNearRung = 2;
constexpr std::size_t kOverloadRung = kRungs - 1;
/** p99 limit of runtime.serving_live.max_rate_rps. */
constexpr double kP99LimitS = 0.05;
/** Distinct request payloads, drawn uniformly per request. */
constexpr std::size_t kPayloads = 64;
constexpr std::size_t kSetupRepeats = 9;
/** The ladder runs this many times in a run; each rung reports the
 * median over passes, so one burst of interference moves one pass. */
constexpr std::size_t kPasses = 16;
/** Request count of the top (overload) rung relative to the others. */
constexpr double kOverloadWeight = 4.0;
/** Admission bound, far above any backlog a rung can build, so the
 * saturated rungs show as latency, never as rejections. */
constexpr std::size_t kQueueCapacity = 1 << 15;
/** A rung whose last-fifth mean latency exceeds its first fifth's by
 * more than this factor has a growing backlog. */
constexpr double kBacklogGrowth = 2.0;

LiveServingConfig
servingConfig()
{
    LiveServingConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = kMaxBatch;
    cfg.max_wait_s = 5e-3;
    cfg.pow2_buckets = true;
    cfg.deadline_s = 0.0;
    cfg.collect_outputs = true;
    cfg.queue_capacity = kQueueCapacity;
    return cfg;
}

/**
 * Timing wrapper around the public BatchExecutor: per-bucket execute
 * wall times for runtime.batch_executor.* (traced runs only).
 */
class TimedExecutor final : public BatchExecutor
{
  public:
    explicit TimedExecutor(BatchExecutor &inner) : inner_(inner) {}

    Tensor
    execute(const Tensor &tokens, std::size_t seq_len,
            bool degraded) override
    {
        const double t0 = nowS();
        Tensor out = inner_.execute(tokens, seq_len, degraded);
        const double dt = nowS() - t0;
        std::lock_guard<std::mutex> lock(mu_);
        by_bucket_[tokens.rows() / seq_len].add(dt);
        return out;
    }

    Samples
    bucket(std::size_t b)
    {
        std::lock_guard<std::mutex> lock(mu_);
        return by_bucket_[b];
    }

  private:
    BatchExecutor &inner_;
    std::mutex mu_;
    std::map<std::size_t, Samples> by_bucket_;
};

struct Served
{
    std::unique_ptr<FunctionalTransformer> model;
    std::unique_ptr<FunctionalBatchExecutor> executor;
    std::vector<Tensor> payloads;
    /** Direct single-request forward of each payload. */
    std::vector<Tensor> expected;
};

Served
buildServed(std::uint64_t seed)
{
    Served s;
    s.model = std::make_unique<FunctionalTransformer>(
        functionalConfig(kHidden, kFfn, kLayers, kHeads));
    s.model->convertToLut(gaussian(4 * kSeq, kHidden, seed + 201), kSeq);
    s.executor = std::make_unique<FunctionalBatchExecutor>(
        *s.model, LinearBackendKind::HostLut);
    for (std::size_t i = 0; i < kPayloads; ++i) {
        s.payloads.push_back(gaussian(kSeq, kHidden, seed * 1000 + 300 + i));
        s.expected.push_back(s.model->forward(s.payloads.back(), kSeq,
                                              LinearBackendKind::HostLut));
    }
    // Warm-up: start a runtime and serve one full batch through it.
    LiveServingRuntime runtime(servingConfig(), *s.executor);
    std::vector<std::future<LiveRequestResult>> warm;
    for (std::size_t i = 0; i < kMaxBatch; ++i)
        if (auto f = runtime.submit(s.payloads[i]))
            warm.push_back(std::move(*f));
    for (auto &f : warm)
        (void)f.get();
    runtime.drain();
    return s;
}

/** What one rung of the ladder measured. */
struct Rung
{
    double rate = 0.0;
    Samples latency, wait, service, overhead, lag;
    double batch_size_mean = 0.0;
    double busy_frac = 0.0;
    /** Requests served per wall second over the later half of the
     * rung's requests: those done after the first of them, divided by
     * the span of their done times. */
    double served_rps = 0.0;
    std::size_t rejected = 0;
    std::size_t shed = 0;
    std::size_t failures = 0;
    bool backlog = false;
    /** Steal ticks taken while the rung ran. */
    std::uint64_t steal = 0;
};

/** Runs one rung: Poisson arrivals at @p rate for @p seconds from a
 * fresh runtime, then a drain. Correctness violations go to @p result. */
Rung
runRung(const Served &served, BatchExecutor &executor, double rate,
        double seconds, std::uint64_t seed, RunResult &result)
{
    Rung rung;
    rung.rate = rate;
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(rate);
    std::uniform_int_distribution<std::size_t> pick(0, kPayloads - 1);

    struct Sent
    {
        double due = 0.0;
        std::size_t payload = 0;
        std::future<LiveRequestResult> future;
    };
    std::vector<Sent> sent;
    sent.reserve(static_cast<std::size_t>(rate * seconds * 1.2) + 16);

    const std::uint64_t steal0 = stealTicks();
    LiveServingRuntime runtime(servingConfig(), executor);
    const double start = nowS() + 1e-3;
    const double end = start + seconds;
    double due = start + gap(rng);
    while (due < end) {
        const std::size_t payload = pick(rng);
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(due))));
        rung.lag.add(std::max(0.0, nowS() - due));
        auto future = runtime.submit(served.payloads[payload]);
        result.attempted += 1;
        if (!future) {
            rung.rejected += 1;
            result.fail("serve-open: request rejected at " +
                        std::to_string(rate) + " req/s");
        } else {
            sent.push_back({due, payload, std::move(*future)});
        }
        due += gap(rng);
    }
    const double sent_end = nowS();
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    rung.steal = stealTicks() - steal0;

    std::size_t completed = 0;
    // Done times of the later half of the requests, past the start-up
    // transient.
    std::vector<double> late_done;
    for (std::size_t i = 0; i < sent.size(); ++i) {
        Sent &s = sent[i];
        const LiveRequestResult r = s.future.get();
        if (r.status != LiveRequestStatus::Completed) {
            rung.failures += 1;
            result.fail(std::string("serve-open: request ") +
                        liveRequestStatusName(r.status));
            continue;
        }
        ++completed;
        if (!sameBits(r.output, served.expected[s.payload])) {
            rung.failures += 1;
            result.fail("serve-open: served output differs from the "
                        "direct forward of its payload");
        }
        const double latency = r.done_s - s.due;
        rung.latency.add(latency);
        rung.wait.add(r.queue_wait_s);
        rung.service.add(r.service_s);
        rung.overhead.add(latency - r.queue_wait_s - r.service_s);
        if (2 * i >= sent.size())
            late_done.push_back(r.done_s);
    }

    // Conservation: every admitted request resolved exactly once.
    const std::size_t admitted = stats.submitted - stats.rejected;
    result.attempted += 1;
    if (stats.completed + stats.timed_out + stats.shed +
                stats.failed_requests !=
            admitted ||
        admitted != sent.size() || stats.completed != completed)
        result.fail("serve-open: request conservation broken at " +
                    std::to_string(rate) + " req/s");

    rung.shed = stats.shed;
    rung.batch_size_mean = stats.mean_batch_size;
    rung.busy_frac =
        stats.busy_s / ((sent_end - start) *
                        static_cast<double>(servingConfig().workers));
    if (!late_done.empty()) {
        // A batch's requests share one done time, so the span starts
        // when the first batch of the later half is done and counts
        // only the requests done after it.
        const auto [first, last] =
            std::minmax_element(late_done.begin(), late_done.end());
        const auto after = std::count_if(
            late_done.begin(), late_done.end(),
            [first = *first](double d) { return d > first; });
        if (*last > *first)
            rung.served_rps = static_cast<double>(after) / (*last - *first);
    }
    const std::vector<double> &latencies = rung.latency.values();
    const std::size_t fifth = latencies.size() / 5;
    if (fifth > 0) {
        double head = 0.0, tail = 0.0;
        for (std::size_t i = 0; i < fifth; ++i) {
            head += latencies[i];
            tail += latencies[latencies.size() - 1 - i];
        }
        rung.backlog = tail > kBacklogGrowth * head;
    }
    return rung;
}

/**
 * Highest offered rate meeting the p99 limit with no failure and no
 * growing backlog, interpolated on p99 toward the first rung that
 * misses, so the figure moves continuously with the system.
 */
double
maxRate(const std::vector<Rung> &rungs)
{
    const double limit_s = kP99LimitS;
    double best = 0.0;
    for (std::size_t i = 0; i < rungs.size(); ++i) {
        const Rung &r = rungs[i];
        const double p99 = r.latency.quantile(0.99);
        const bool ok = r.failures == 0 && r.rejected == 0 && !r.backlog &&
                        p99 <= limit_s;
        if (ok) {
            best = r.rate;
            continue;
        }
        if (i > 0 && p99 > limit_s) {
            const Rung &prev = rungs[i - 1];
            const double p0 = prev.latency.quantile(0.99);
            best = prev.rate +
                   (r.rate - prev.rate) * (limit_s - p0) / (p99 - p0);
        }
        break;
    }
    return best;
}

/** All passes' samples of rung @p rung, merged. */
Rung
merged(const std::vector<std::vector<Rung>> &passes, std::size_t rung)
{
    Rung out;
    out.rate = kLadderRps[rung];
    for (const std::vector<Rung> &pass : passes) {
        const Rung &r = pass[rung];
        for (double v : r.latency.values())
            out.latency.add(v);
        for (double v : r.wait.values())
            out.wait.add(v);
        for (double v : r.service.values())
            out.service.add(v);
        for (double v : r.overhead.values())
            out.overhead.add(v);
        for (double v : r.lag.values())
            out.lag.add(v);
        out.batch_size_mean += r.batch_size_mean / passes.size();
        out.busy_frac += r.busy_frac / passes.size();
        out.rejected += r.rejected;
        out.shed += r.shed;
        out.failures += r.failures;
    }
    return out;
}

/**
 * Latency of rung @p rung: the median over passes of each pass's median
 * and tail, so one burst of interference moves one pass, and the p99 of
 * all passes' samples pooled, which is noisier. All three go to the
 * fingerprint. If @p prefix is set, `<prefix>_ms_p50` gets the
 * StealTaggedSamples::median() of the passes' medians, each tagged with
 * the steal ticks of its rung.
 */
void
addRungLatency(RunResult &result, const std::string &prefix,
               const std::string &name,
               const std::vector<std::vector<Rung>> &passes, std::size_t rung)
{
    Samples p50, tail;
    StealTaggedSamples tagged;
    std::string note;
    for (const std::vector<Rung> &pass : passes) {
        const Rung &r = pass[rung];
        p50.add(r.latency.median());
        tagged.add(r.latency.median(), r.steal);
        tail.add(r.latency.tail());
        note += "n=" + std::to_string(r.latency.size()) + " tail=p" +
                std::to_string(r.latency.tailPercentile()) + "; ";
    }
    note += "steal-free passes " + std::to_string(tagged.stealFree());
    if (!prefix.empty())
        result.add(prefix + "_ms_p50", tagged.median() * 1e3, "ms");
    result.named.push_back(
        {"latency_ms_p50." + name, p50.median() * 1e3, "ms"});
    result.named.push_back(
        {"latency_ms_tail." + name, tail.median() * 1e3, "ms"});
    result.named.push_back({"latency_ms_p99_pooled." + name,
                            merged(passes, rung).latency.quantile(0.99) * 1e3,
                            "ms"});
    result.info["latency." + name] = "median over passes of " + note;
}

} // namespace

RunResult
runServeOpen(const Options &opt)
{
    RunResult result;

    Samples setup;
    Served served;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        served = Served{};
        const double t0 = nowS();
        served = buildServed(opt.seed);
        setup.add(nowS() - t0);
    }

    TimedExecutor timed_executor(*served.executor);
    BatchExecutor &executor =
        opt.trace ? static_cast<BatchExecutor &>(timed_executor)
                  : *served.executor;
    resetProgramMetrics();
    const double cpu0 = cpuS();
    // Rung durations are inversely proportional to the rate, so every
    // rung offers the same number of requests and reports the same
    // tail percentile; the overload rung offers kOverloadWeight times as
    // many, so its capacity is read past its start-up transient.
    const auto weight = [&](std::size_t i) {
        return (i == kOverloadRung ? kOverloadWeight : 1.0) / kLadderRps[i];
    };
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < kRungs; ++i)
        weight_sum += weight(i);
    std::vector<std::vector<Rung>> passes(kPasses);
    std::size_t requests = 0;
    Samples max_rate;
    StealTaggedSamples served_rps;
    for (std::size_t p = 0; p < kPasses; ++p) {
        for (std::size_t i = 0; i < kRungs; ++i) {
            const double seconds =
                opt.seconds * weight(i) / (kPasses * weight_sum);
            passes[p].push_back(runRung(served, executor, kLadderRps[i],
                                        seconds,
                                        opt.seed * 7777 + p * 101 + i,
                                        result));
            requests += passes[p].back().latency.size();
        }
        max_rate.add(maxRate(passes[p]));
        served_rps.add(passes[p][kOverloadRung].served_rps,
                       passes[p][kOverloadRung].steal);
    }
    const double cpu_s = cpuS() - cpu0;

    for (std::size_t p = 0; p < kPasses; ++p)
        for (const Rung &r : passes[p]) {
            char note[160];
            std::snprintf(note, sizeof note,
                          "n=%zu p50=%.3fms p99=%.3fms batch=%.2f "
                          "busy=%.2f served=%.0f/s backlog=%d steal=%llu",
                          r.latency.size(), r.latency.median() * 1e3,
                          r.latency.quantile(0.99) * 1e3, r.batch_size_mean,
                          r.busy_frac, r.served_rps, r.backlog ? 1 : 0,
                          static_cast<unsigned long long>(r.steal));
            result.info["pass" + std::to_string(p) + "_rung_" +
                        std::to_string(static_cast<int>(r.rate))] = note;
        }

    if (!opt.trace) {
        result.add("setup_s", setup.median(), "s");
        addRungLatency(result, "a", "low", passes, kLowRung);
        addRungLatency(result, "b", "high", passes, kHighRung);
        addRungLatency(result, "", "near", passes, kNearRung);
        result.add("rate_per_s", served_rps.median(), "1/s");
        result.named.push_back(
            {"served_rps.overload", served_rps.all().median(), "1/s"});
        result.named.push_back({"served_rps_steal_free.overload",
                                served_rps.median(), "1/s"});
        result.named.push_back({"max_rate_rps", max_rate.median(), "1/s"});
        result.add("peak_rss_mb", peakRssMb(), "MB");
        return result;
    }

    const Rung low = merged(passes, kLowRung);
    const Rung high = merged(passes, kHighRung);
    for (const auto &[name, rung] :
         {std::pair<const char *, const Rung *>{"low", &low},
          {"high", &high}}) {
        const std::string p = "runtime.serving_live.";
        const std::string s = std::string(".") + name;
        result.add(p + "queue_wait_ms_p50" + s, rung->wait.median() * 1e3,
                   "ms");
        result.add(p + "queue_wait_ms_p99" + s,
                   rung->wait.quantile(0.99) * 1e3, "ms");
        result.add(p + "service_ms_p50" + s, rung->service.median() * 1e3,
                   "ms");
        result.add(p + "overhead_ms_p50" + s,
                   rung->overhead.median() * 1e3, "ms");
        result.add(p + "batch_size_mean" + s, rung->batch_size_mean,
                   "count");
        result.add(p + "busy_frac" + s, rung->busy_frac, "ratio");
    }
    std::size_t rejected = 0, shed = 0;
    Samples lag;
    for (const std::vector<Rung> &pass : passes)
        for (const Rung &r : pass) {
            rejected += r.rejected;
            shed += r.shed;
            for (double v : r.lag.values())
                lag.add(v);
        }
    result.add("runtime.serving_live.rejected",
               static_cast<double>(rejected), "count");
    result.add("runtime.serving_live.shed", static_cast<double>(shed),
               "count");
    for (std::size_t b : {1, 2, 4, 8})
        result.add("runtime.batch_executor.execute_ms_p50.b" +
                       std::to_string(b),
                   timed_executor.bucket(b).median() * 1e3, "ms");
    result.add("loadgen.lag_ms_p99", lag.quantile(0.99) * 1e3, "ms");
    result.add("runtime.serving_live.max_rate_rps", max_rate.median(),
               "1/s");
    result.add("process.cpu_ms_per_request",
               requests ? cpu_s * 1e3 / static_cast<double>(requests) : 0.0,
               "ms");
    result.add("common.parallel.utilization_p50", parallelUtilizationP50(),
               "ratio");
    return result;
}

} // namespace perfbench
