/**
 * @file
 * The model-sweep layers of a traced run: the tuner, plan scheduling,
 * both TimingBackends and the DES serving simulator, over the grid
 * {BERT-base, BERT-large, ViT-huge} x {UPMEM, HBM-PIM, AiM} x V in {2, 4},
 * CT = 16, priced through PimDlEngine::estimatePimDl:
 *
 *  - a cold pass on fresh analytical engines, which tunes every shape,
 *    read through the tuner's own registry figures;
 *  - the transaction engines' pass, cross-validated against it;
 *  - warm passes under both backends, which must repeat the cold totals
 *    exactly (the traced ones give the plan.schedule spans);
 *  - ServingSimulator::simulate over a fixed horizon per platform.
 *
 * The wall time of the cold pass, of a warm grid point under each
 * backend and of the simulations goes to the run's fingerprint.
 *
 * These layers do no work on the wall workloads after set-up, and the
 * wall time of a process that prices the grid shifts by a third from
 * one process to the next on a shared host, so they are measured per
 * layer only, without a bound (see perfbench/README.md).
 *
 * The seed sets the order the grid is priced in and the DES arrival
 * stream. Modeled totals are kept by grid point, not by position, so
 * they repeat exactly across passes and across seeds.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>

#include "common.h"
#include "host/host_model.h"
#include "nn/model_config.h"
#include "pim/platform.h"
#include "plan/schedule.h"
#include "runtime/engine.h"
#include "runtime/serving.h"

namespace perfbench {

using namespace pimdl;

namespace {

constexpr std::size_t kCentroids = 16;
constexpr std::size_t kSubvecs[] = {2, 4};
/** The repo's analytical-vs-transaction cross-validation bound. */
constexpr double kXvalBound = 0.10;
/** DES settings: BERT-base V=4 at 60% of the modeled full-batch
 * capacity, so every platform runs the same queueing regime. */
constexpr std::size_t kDesMaxBatch = 8;
constexpr double kDesHorizonS = 5000.0;
constexpr double kDesLoad = 0.6;
/** Traced warm analytical passes. */
constexpr std::size_t kTracedPasses = 20;

struct PlatformCase
{
    PimPlatformConfig platform;
    HostProcessorConfig host;
};

std::vector<PlatformCase>
platforms()
{
    return {{upmemPlatform(), xeon4210Dual()},
            {hbmPimPlatform(), a2Gpu()},
            {aimPlatform(), a2Gpu()}};
}

struct GridPoint
{
    /** Position in the canonical grid order. */
    std::size_t id = 0;
    std::size_t platform = 0;
    TransformerConfig model;
    LutNnParams params;
};

/** The grid in the seed's order. */
std::vector<GridPoint>
grid(std::uint64_t seed)
{
    std::vector<GridPoint> g;
    for (std::size_t p = 0; p < platforms().size(); ++p)
        for (const TransformerConfig &m : {bertBase(), bertLarge(), vitHuge()})
            for (std::size_t v : kSubvecs)
                g.push_back({g.size(), p, m, LutNnParams{v, kCentroids}});
    std::mt19937_64 rng(seed);
    std::shuffle(g.begin(), g.end(), rng);
    return g;
}

using Engines = std::vector<std::unique_ptr<PimDlEngine>>;

Engines
makeEngines(TimingBackendKind kind)
{
    Engines e;
    for (const PlatformCase &c : platforms())
        e.push_back(std::make_unique<PimDlEngine>(c.platform, c.host, kind));
    return e;
}

/** Prices every grid point once; returns the modeled totals by id. */
std::vector<double>
priceGrid(const Engines &engines, const std::vector<GridPoint> &g)
{
    std::vector<double> totals(g.size());
    for (const GridPoint &pt : g)
        totals[pt.id] =
            engines[pt.platform]->estimatePimDl(pt.model, pt.params).total_s;
    return totals;
}

/** One warm DES per platform, on analytical engines of its own (the
 * simulators keep references: engines are declared first, so they are
 * destroyed last). */
struct Des
{
    Engines engines;
    std::vector<std::unique_ptr<ServingSimulator>> sims;
    std::vector<ServingConfig> configs;
};

/** Builds the simulators and caches their batch latencies. */
Des
makeDes(std::uint64_t seed)
{
    Des des;
    des.engines = makeEngines(TimingBackendKind::Analytical);
    for (const auto &engine : des.engines) {
        auto sim = std::make_unique<ServingSimulator>(
            *engine, bertBase(), LutNnParams{4, kCentroids});
        ServingConfig cfg;
        cfg.max_batch = kDesMaxBatch;
        cfg.max_wait_s = 0.25;
        cfg.horizon_s = kDesHorizonS;
        cfg.seed = seed;
        for (std::size_t b = 1; b <= kDesMaxBatch; b <<= 1)
            (void)sim->batchLatency(b, cfg.policy);
        cfg.arrival_rate = kDesLoad * static_cast<double>(kDesMaxBatch) /
                           sim->batchLatency(kDesMaxBatch, cfg.policy);
        des.sims.push_back(std::move(sim));
        des.configs.push_back(cfg);
    }
    return des;
}

/** Checks a repeat of the modeled totals for exact equality. */
void
checkRepeat(const char *what, const std::vector<double> &ref,
            const std::vector<double> &got, RunResult &result)
{
    result.attempted += 1;
    if (ref != got)
        result.fail(std::string("model-sweep: ") + what +
                    " modeled totals differ from the cold pass");
}

/** Checks the DES conserved its requests. */
void
checkDes(const ServingStats &s, RunResult &result)
{
    result.attempted += 1;
    if (s.requests == 0 ||
        s.completed + s.failed_requests + s.timed_out != s.requests)
        result.fail("model-sweep: DES request conservation broken");
}

/** Modeled outcome of one in-process pass, for the repeat self-test. */
struct ModeledPass
{
    std::vector<double> analytical, transaction;
    std::vector<double> des_p99;
    std::vector<std::size_t> des_requests;
};

ModeledPass
modeledPass(std::uint64_t seed)
{
    const std::vector<GridPoint> g = grid(seed);
    ModeledPass p;
    p.analytical = priceGrid(makeEngines(TimingBackendKind::Analytical), g);
    p.transaction = priceGrid(makeEngines(TimingBackendKind::Transaction), g);
    const Des des = makeDes(seed);
    for (std::size_t i = 0; i < des.sims.size(); ++i) {
        const ServingStats s = des.sims[i]->simulate(des.configs[i]);
        p.des_p99.push_back(s.p99_latency_s);
        p.des_requests.push_back(s.requests);
    }
    return p;
}

} // namespace

void
addSweepLayers(std::uint64_t seed, RunResult &result)
{
    const std::vector<GridPoint> g = grid(seed);

    // Cold pass on fresh analytical engines: the tuner's own registry
    // figures around it.
    resetProgramMetrics();
    const Engines analytical = makeEngines(TimingBackendKind::Analytical);
    const double cold0 = nowS();
    const std::vector<double> cold_totals = priceGrid(analytical, g);
    const double sweep_cold_s = nowS() - cold0;
    const std::uint64_t searches = programCounter("tuner.searches");
    const std::uint64_t evaluated = programCounter("tuner.mappings_evaluated");
    const std::uint64_t pruned = programCounter("tuner.mappings_pruned");
    const obs::HistogramSnapshot tune = programHistogram("tuner.search_wall_s");

    // The transaction engines price the same grid; per-platform totals
    // of the two backends must agree within the cross-validation bound.
    const Engines transaction = makeEngines(TimingBackendKind::Transaction);
    const std::vector<double> txn_totals = priceGrid(transaction, g);
    for (std::size_t p = 0; p < platforms().size(); ++p) {
        double a = 0.0, t = 0.0;
        for (const GridPoint &pt : g)
            if (pt.platform == p) {
                a += cold_totals[pt.id];
                t += txn_totals[pt.id];
            }
        result.attempted += 1;
        if (!(std::fabs(t - a) <= kXvalBound * a))
            result.fail("model-sweep: transaction total departs from the "
                        "analytical one by more than the xval bound on " +
                        platforms()[p].platform.name);
    }

    // Warm passes repeat the cold totals exactly; the traced ones give
    // the program's plan.schedule spans. Wall time per grid point of the
    // untraced ones goes to the fingerprint.
    const auto warmPass = [&](const char *what, const Engines &engines,
                              const std::vector<double> &ref) {
        const double t0 = nowS();
        checkRepeat(what, ref, priceGrid(engines, g), result);
        return (nowS() - t0) / static_cast<double>(g.size());
    };
    const std::uint64_t cmds0 = programCounter("backend.txn.commands_issued");
    const double estimate_t_s =
        warmPass("warm transaction", transaction, txn_totals);
    const double cmds_per_pass = static_cast<double>(
        programCounter("backend.txn.commands_issued") - cmds0);
    Samples estimate_a;
    for (std::size_t i = 0; i < kTracedPasses; ++i)
        estimate_a.add(warmPass("warm analytical", analytical, cold_totals));
    setProgramTracing(true);
    for (std::size_t i = 0; i < kTracedPasses; ++i)
        checkRepeat("warm analytical", cold_totals,
                    priceGrid(analytical, g), result);
    const ProgramSpans spans = takeProgramSpans();
    setProgramTracing(false);
    const auto spanMs = [&](const char *name) {
        const auto s = spans.seconds.find(name);
        return s == spans.seconds.end()
                   ? 0.0
                   : s->second * 1e3 /
                         static_cast<double>(spans.calls.at(name));
    };

    // Backends: each prices the same warm-tuned plans.
    Samples cost_a, cost_t;
    for (const GridPoint &pt : g) {
        const Plan plan = analytical[pt.platform]->lower(
            pt.model, pt.params, ExecutionMode::PimDl);
        double t0 = nowS();
        (void)analytical[pt.platform]->backend().cost(plan);
        cost_a.add(nowS() - t0);
        t0 = nowS();
        (void)transaction[pt.platform]->backend().cost(plan);
        cost_t.add(nowS() - t0);
    }

    // DES: one simulate per platform.
    const Des des = makeDes(seed);
    double des_s = 0.0;
    std::size_t des_requests = 0;
    for (std::size_t p = 0; p < des.sims.size(); ++p) {
        const double t0 = nowS();
        const ServingStats st = des.sims[p]->simulate(des.configs[p]);
        des_s += nowS() - t0;
        des_requests += st.requests;
        checkDes(st, result);
    }

    result.add("tuner.tune_ms_per_shape", tune.mean * 1e3, "ms");
    result.add("tuner.searches", static_cast<double>(searches), "count");
    result.add("tuner.mappings_evaluated", static_cast<double>(evaluated),
               "count");
    result.add("tuner.mappings_pruned", static_cast<double>(pruned),
               "count");
    result.add("backend.cost_ms.analytical", cost_a.median() * 1e3, "ms");
    result.add("backend.cost_ms.transaction", cost_t.median() * 1e3, "ms");
    result.add("backend.txn.commands_issued", cmds_per_pass, "count");
    result.add("plan.schedule_ms", spanMs("plan.schedule"), "ms");
    result.add("runtime.serving.ns_per_request",
               des_s * 1e9 / static_cast<double>(des_requests), "ns");
    result.add("model.grid_total_s.analytical",
               std::accumulate(cold_totals.begin(), cold_totals.end(), 0.0),
               "s");
    result.add("model.grid_total_s.transaction",
               std::accumulate(txn_totals.begin(), txn_totals.end(), 0.0),
               "s");
    result.named.push_back({"sweep_cold_s", sweep_cold_s, "s"});
    result.named.push_back(
        {"estimate_ms_p50.analytical", estimate_a.median() * 1e3, "ms"});
    result.named.push_back(
        {"estimate_ms.transaction", estimate_t_s * 1e3, "ms"});
    result.named.push_back({"simulate_s", des_s, "s"});
}

int
selftestRepeat(const Options &opt)
{
    const ModeledPass first = modeledPass(opt.seed);
    const ModeledPass second = modeledPass(opt.seed);
    int failures = 0;
    const auto expect = [&](bool same, const char *what) {
        std::printf("selftest repeat %-34s %s\n", what,
                    same ? "identical" : "DIFFERS");
        failures += same ? 0 : 1;
    };
    expect(first.analytical == second.analytical,
           "model.grid_total_s.analytical:");
    expect(first.transaction == second.transaction,
           "model.grid_total_s.transaction:");
    expect(first.des_p99 == second.des_p99, "DES p99 latency:");
    expect(first.des_requests == second.des_requests, "DES requests:");
    expect(offlineModeledPass(opt.seed) == offlineModeledPass(opt.seed),
           "offline model.* and counts:");
    return failures;
}

} // namespace perfbench
