/**
 * @file
 * `offline`: closed-loop functional inference, one caller, one forward
 * in flight. Each seeded token batch runs through the HostLut and then
 * the PimLut backend (transfer engine attached) of one
 * FunctionalTransformer at the ROADMAP ledger config.
 *
 * PimLut and HostLut deploy the same INT8 tables, so their outputs must
 * match bit for bit; the LUT executor and the transfer engine do most of
 * the PimLut work and none of the HostLut work, so a change to either
 * shows on one path and predicts no change on the other, in the same
 * process and under the same noise.
 *
 * The traced run splits a forward into layers with a bench-side shadow
 * walk: the same lowered plan, walked over bench-owned weights of the
 * same shapes, calling the same public layer functions under bench
 * spans. Its total must account for the untraced forward within
 * kCoverageBound, so a forward that changes under it fails loudly. The
 * traced run then measures the model-sweep layers (addSweepLayers).
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "common.h"
#include "lutnn/converter.h"
#include "pim/platform.h"
#include "plan/lowering.h"
#include "runtime/functional_transformer.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "transfer/resident.h"
#include "transfer/scheduler.h"
#include "tuner/autotuner.h"
#include "tuner/tune_memo.h"

namespace perfbench {

using namespace pimdl;

namespace {

// ROADMAP ledger config.
constexpr std::size_t kHidden = 256;
constexpr std::size_t kFfn = 1024;
constexpr std::size_t kLayers = 2;
constexpr std::size_t kHeads = 4;
constexpr std::size_t kSubvec = 4;
constexpr std::size_t kCentroids = 16;
constexpr std::size_t kSeq = 64;
constexpr std::size_t kBatch = 8;
constexpr std::size_t kRows = kSeq * kBatch;
constexpr std::size_t kCalibrationRows = 4 * kSeq;
/** Distinct seeded token batches, cycled by the loop. */
constexpr std::size_t kInputSets = 8;
constexpr std::size_t kSetupRepeats = 5;
/** Fewest iterations (one forward per backend) of a run. */
constexpr std::size_t kMinIters = 12;
/** Iterations of a traced run per second of --seconds, sized so it
 * takes about --seconds on a 4-vCPU x86 host before the sweep layers. */
constexpr double kTracedItersPerSecond = 1.1;
/** Shadow total / untraced forward must lie within 1 +- this. */
constexpr double kCoverageBound = 0.15;

/** The model under test with its transfer engine. Members destroy in
 * reverse order, so the model lets go of the engine first. */
struct OfflineModel
{
    std::unique_ptr<transfer::TransferScheduler> scheduler;
    std::unique_ptr<transfer::ResidentLutManager> resident;
    std::unique_ptr<FunctionalTransformer> model;
};

OfflineModel
buildModel(std::uint64_t seed)
{
    const PimPlatformConfig upmem = upmemPlatform();
    OfflineModel m;
    m.model = std::make_unique<FunctionalTransformer>(
        functionalConfig(kHidden, kFfn, kLayers, kHeads));
    m.model->convertToLut(gaussian(kCalibrationRows, kHidden, seed + 101),
                          kSeq);
    m.model->planPimExecution(upmem, kRows);
    m.scheduler = std::make_unique<transfer::TransferScheduler>(
        transfer::TransferScheduler::Options{});
    m.resident = std::make_unique<transfer::ResidentLutManager>(
        transfer::residentLutCapacityBytes(upmem));
    m.model->enableTransferEngine(m.scheduler.get(), m.resident.get());
    // Warm-up: first-touch allocations and the resident-LUT misses.
    const Tensor warm = gaussian(kRows, kHidden, seed + 102);
    (void)m.model->forward(warm, kSeq, LinearBackendKind::HostLut);
    (void)m.model->forward(warm, kSeq, LinearBackendKind::PimLut);
    return m;
}

/** Builds the model kSetupRepeats times; reports the median set-up
 * time on untraced runs. */
OfflineModel
setUp(std::uint64_t seed, bool trace, RunResult &result)
{
    Samples setup;
    OfflineModel m;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        m = OfflineModel{};
        const double t0 = nowS();
        m = buildModel(seed);
        setup.add(nowS() - t0);
    }
    if (!trace)
        result.add("setup_s", setup.median(), "s");
    return m;
}

std::vector<Tensor>
makeInputs(std::uint64_t seed)
{
    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < kInputSets; ++i)
        inputs.push_back(gaussian(kRows, kHidden, seed * 1000 + i));
    return inputs;
}

std::size_t
tracedIterations(double seconds)
{
    return std::max<std::size_t>(
        kMinIters, static_cast<std::size_t>(
                       std::lround(seconds * kTracedItersPerSecond)));
}

/**
 * Output checks shared by the untraced and traced runs: PimLut equals
 * HostLut bit for bit, HostLut repeats its own output for the same
 * input, and the modeled PIM seconds repeat exactly.
 */
class OutputChecker
{
  public:
    void
    check(std::size_t set, const Tensor &host, const Tensor &pim,
          double model_s, double engine_s, RunResult &result)
    {
        result.attempted += 2;
        if (!sameBits(host, pim))
            result.fail("offline: PimLut output differs from HostLut");
        Ref &ref = refs_[set];
        if (!ref.set) {
            ref.set = true;
            ref.host = host;
        } else if (!sameBits(ref.host, host)) {
            result.fail("offline: HostLut output not repeatable");
        }
        if (model_s_ < 0.0) {
            model_s_ = model_s;
            engine_s_ = engine_s;
        } else if (model_s != model_s_ || engine_s != engine_s_) {
            result.fail("offline: modeled PIM seconds not repeatable");
        }
    }

    double modelS() const { return model_s_; }
    double engineS() const { return engine_s_; }

  private:
    struct Ref
    {
        bool set = false;
        Tensor host;
    };
    std::array<Ref, kInputSets> refs_;
    double model_s_ = -1.0;
    double engine_s_ = -1.0;
};

// ---------------------------------------------------------------------
// Shadow walk.
// ---------------------------------------------------------------------

/** Layer a self-test asks the shadow to skip. */
enum class ShadowDrop
{
    None,
    Elementwise,
    LutExecutor,
};

/** Bench-owned encoder of the same shapes, walked layer by layer. */
class ShadowEncoder
{
  public:
    explicit ShadowEncoder(std::uint64_t seed)
        : platform_(upmemPlatform()),
          scheduler_(transfer::TransferScheduler::Options{}),
          resident_(transfer::residentLutCapacityBytes(platform_))
    {
        ConvertOptions options;
        options.subvec_len = kSubvec;
        options.centroids = kCentroids;
        options.quantize_int8 = true;
        const AutoTuner tuner(platform_);
        const TuneMemo memo(tuner);
        std::uint64_t s = seed * 7919 + 17;
        const auto linear = [&](std::size_t in, std::size_t out) {
            const Tensor w = gaussian(in, out, ++s);
            const Tensor calib = gaussian(kCalibrationRows, in, ++s);
            LutLayer lut = convertLinearLayer(
                w, std::vector<float>(out, 0.0f), calib, options);
            LutWorkloadShape shape = lutShapeFor(lut, kRows);
            shape.output_dtype_bytes = platform_.lut_dtype_bytes;
            const AutoTuneResult &tuned = memo.tune(shape);
            if (!tuned.found)
                throw std::runtime_error("shadow: no legal mapping");
            return Linear{std::move(lut), tuned.mapping};
        };
        for (std::size_t l = 0; l < kLayers; ++l) {
            blocks_.push_back({linear(kHidden, 3 * kHidden),
                               linear(kHidden, kHidden),
                               linear(kHidden, kFfn),
                               linear(kFfn, kHidden)});
        }
        gamma_.assign(kHidden, 1.0f);
        beta_.assign(kHidden, 0.0f);
    }

    /**
     * One forward of @p backend over @p tokens, spans into @p log.
     * Returns the walk's total wall seconds; `runtime.functional_
     * transformer.self` gets the part no child span covers.
     */
    double
    forward(const Tensor &tokens, LinearBackendKind backend, SpanLog &log,
            ShadowDrop drop = ShadowDrop::None)
    {
        const double t0 = nowS();
        const double children0 = log.total();
        TransformerConfig model;
        model.name = "functional";
        model.hidden_dim = kHidden;
        model.ffn_dim = kFfn;
        model.layers = kLayers;
        model.heads = kHeads;
        model.seq_len = kSeq;
        model.batch = tokens.rows() / kSeq;
        LoweringOptions lowering;
        lowering.platform = &platform_;
        const Plan plan = timed(log, "plan.lower", [&] {
            return lowerTransformer(model, LutNnParams{kSubvec, kCentroids},
                                    ExecutionMode::PimDl, lowering);
        });

        const bool pim = backend == LinearBackendKind::PimLut;
        Tensor x = tokens;
        Tensor cur = tokens;
        IndexMatrix idx;
        for (const PlanNode &node : plan.nodes) {
            switch (node.kind) {
            case PlanOpKind::Ccs:
                if (pim) {
                    const LutLayer &lut = linearFor(node).lut;
                    idx = timed(log, "lutnn.ccs", [&] {
                        return lut.closestCentroidSearch(cur);
                    });
                }
                break;
            case PlanOpKind::LutOp: {
                const Linear &lin = linearFor(node);
                if (!pim) {
                    cur = timed(log, "lutnn.host_lut", [&] {
                        return lin.lut.forwardQuantized(cur);
                    });
                    break;
                }
                if (drop == ShadowDrop::LutExecutor) {
                    cur = Tensor(cur.rows(), lin.lut.shape().output_dim);
                    break;
                }
                LutTransferContext ctx;
                ctx.scheduler = &scheduler_;
                ctx.resident = &resident_;
                ctx.resident_key = (node.layer << 2) | roleIndex(node.role);
                cur = timed(log, "runtime.lut_executor", [&] {
                          return runDistributedLut(platform_, lin.lut, idx,
                                                   lin.mapping, true,
                                                   nullptr, {}, &ctx);
                      }).output;
                break;
            }
            case PlanOpKind::Attention: {
                const Tensor q = cur.colSlice(0, kHidden);
                const Tensor k = cur.colSlice(kHidden, 2 * kHidden);
                const Tensor v = cur.colSlice(2 * kHidden, 3 * kHidden);
                cur = attention(q, k, v, log);
                break;
            }
            case PlanOpKind::Elementwise:
                if (drop == ShadowDrop::Elementwise)
                    break;
                switch (node.ew_kind) {
                case ElementwiseOpKind::Gelu:
                    cur = timed(log, "tensor.elementwise",
                                [&] { return gelu(cur); });
                    break;
                case ElementwiseOpKind::ResidualLn1:
                case ElementwiseOpKind::ResidualLn2:
                    x = timed(log, "tensor.elementwise", [&] {
                        return layerNormRows(add(x, cur), gamma_, beta_);
                    });
                    cur = x;
                    break;
                case ElementwiseOpKind::None:
                    break;
                }
                break;
            case PlanOpKind::HostPimTransfer:
                break;
            case PlanOpKind::Gemm:
                throw std::runtime_error(
                    "shadow: PimDl plan holds a dense Gemm node; the "
                    "forward changed under the shadow walk");
            }
        }
        const double total = nowS() - t0;
        log.add("runtime.functional_transformer.self",
                total - (log.total() - children0));
        return total;
    }

  private:
    struct Linear
    {
        LutLayer lut;
        LutMapping mapping;
    };
    using Block = std::array<Linear, 4>;

    static std::uint64_t
    roleIndex(LinearRole role)
    {
        switch (role) {
        case LinearRole::QkvProjection:
            return 0;
        case LinearRole::OutProjection:
            return 1;
        case LinearRole::Ffn1:
            return 2;
        case LinearRole::Ffn2:
            return 3;
        }
        throw std::runtime_error("shadow: unknown linear role");
    }

    const Linear &
    linearFor(const PlanNode &node) const
    {
        if (node.layer >= blocks_.size())
            throw std::runtime_error("shadow: plan layer out of range");
        return blocks_[node.layer][roleIndex(node.role)];
    }

    /** Mirrors FunctionalTransformer's attention: per sample and head,
     * two GEMMs and a row softmax; slicing and copies are self time. */
    Tensor
    attention(const Tensor &q, const Tensor &k, const Tensor &v,
              SpanLog &log) const
    {
        const std::size_t samples = q.rows() / kSeq;
        const std::size_t head_dim = kHidden / kHeads;
        const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
        Tensor out(q.rows(), kHidden);
        for (std::size_t s = 0; s < samples; ++s) {
            const std::size_t r0 = s * kSeq;
            const Tensor qs = q.rowSlice(r0, r0 + kSeq);
            const Tensor ks = k.rowSlice(r0, r0 + kSeq);
            const Tensor vs = v.rowSlice(r0, r0 + kSeq);
            for (std::size_t h = 0; h < kHeads; ++h) {
                const std::size_t c0 = h * head_dim;
                const Tensor qh = qs.colSlice(c0, c0 + head_dim);
                const Tensor kt = ks.colSlice(c0, c0 + head_dim).transposed();
                const Tensor vh = vs.colSlice(c0, c0 + head_dim);
                Tensor scores = timed(log, "tensor.attention",
                                      [&] { return gemm(qh, kt); });
                for (std::size_t i = 0; i < scores.size(); ++i)
                    scores.data()[i] *= scale;
                const Tensor ctx = timed(log, "tensor.attention", [&] {
                    return gemm(softmaxRows(scores), vh);
                });
                for (std::size_t r = 0; r < kSeq; ++r)
                    std::copy_n(ctx.rowPtr(r), head_dim,
                                out.rowPtr(r0 + r) + c0);
            }
        }
        return out;
    }

    PimPlatformConfig platform_;
    transfer::TransferScheduler scheduler_;
    transfer::ResidentLutManager resident_;
    std::vector<Block> blocks_;
    std::vector<float> gamma_, beta_;
};

/** Registry counters read around one forward. */
struct CounterDiff
{
    std::uint64_t parallel_calls = 0;
    std::uint64_t lut_bytes = 0;
    std::uint64_t ccs_subvectors = 0;
    std::uint64_t pe_kernels = 0;

    static CounterDiff
    read()
    {
        return {programCounter("parallel.calls"),
                programCounter("kernels.lut.bytes"),
                programCounter("kernels.ccs.subvectors"),
                programCounter("lut.pe_kernels")};
    }

    CounterDiff
    operator-(const CounterDiff &o) const
    {
        return {parallel_calls - o.parallel_calls, lut_bytes - o.lut_bytes,
                ccs_subvectors - o.ccs_subvectors,
                pe_kernels - o.pe_kernels};
    }

    bool operator==(const CounterDiff &) const = default;
};

/** Checks a shadow/forward wall-time ratio against kCoverageBound. */
void
checkCoverage(const char *backend, double coverage, RunResult &result)
{
    result.attempted += 1;
    if (!(std::fabs(coverage - 1.0) <= kCoverageBound))
        result.fail(std::string("offline: shadow walk covers ") +
                    std::to_string(coverage) + " of the untraced " +
                    backend + " forward (bound 1 +- " +
                    std::to_string(kCoverageBound) + ")");
}

struct ShadowRun
{
    SpanLog host, pim;
    /** Shadow total / untraced forward of each back-to-back pair. */
    Samples host_ratio, pim_ratio;
};

/**
 * Interleaves untraced forwards with shadow walks of the same input.
 * Each pair runs back to back, so its ratio sees one state of the host;
 * a median of whole-run medians would let a slow spell that hits more
 * forwards than walks, or the other way round, move the ratio.
 */
ShadowRun
runShadow(const FunctionalTransformer &model, ShadowEncoder &shadow,
          const std::vector<Tensor> &inputs, std::size_t iters,
          ShadowDrop drop)
{
    ShadowRun run;
    const auto pair = [&](const Tensor &in, LinearBackendKind backend,
                          SpanLog &log, Samples &ratio) {
        const double t0 = nowS();
        (void)model.forward(in, kSeq, backend);
        const double forward_s = nowS() - t0;
        ratio.add(shadow.forward(in, backend, log, drop) / forward_s);
    };
    for (std::size_t i = 0; i < iters; ++i) {
        const Tensor &in = inputs[i % inputs.size()];
        pair(in, LinearBackendKind::HostLut, run.host, run.host_ratio);
        pair(in, LinearBackendKind::PimLut, run.pim, run.pim_ratio);
    }
    return run;
}

} // namespace

RunResult
runOffline(const Options &opt)
{
    RunResult result;
    OfflineModel m = setUp(opt.seed, opt.trace, result);
    const FunctionalTransformer &model = *m.model;
    const std::vector<Tensor> inputs = makeInputs(opt.seed);
    OutputChecker checker;

    if (!opt.trace) {
        // Iterations until --seconds have passed, each forward tagged
        // with the steal ticks taken while it ran.
        StealTaggedSamples host, pim, both;
        const double end = nowS() + opt.seconds;
        for (std::size_t i = 0; i < kMinIters || nowS() < end; ++i) {
            const std::size_t set = i % kInputSets;
            const Tensor &in = inputs[set];
            const std::uint64_t s0 = stealTicks();
            const double t0 = nowS();
            const Tensor h =
                model.forward(in, kSeq, LinearBackendKind::HostLut);
            const double t1 = nowS();
            const std::uint64_t s1 = stealTicks();
            const double t2 = nowS();
            const Tensor p =
                model.forward(in, kSeq, LinearBackendKind::PimLut);
            const double t3 = nowS();
            const std::uint64_t s2 = stealTicks();
            host.add(t1 - t0, s1 - s0);
            pim.add(t3 - t2, s2 - s1);
            both.add((t1 - t0) + (t3 - t2), s2 - s0);
            checker.check(set, h, p, model.lastPimModelSeconds(),
                          model.lastPimEngineSeconds(), result);
        }
        result.addLatency("a", host, "forward_ms", ".host");
        result.addLatency("b", pim, "forward_ms", ".pim");
        // Tokens through both backends per second of the median
        // iteration.
        const double tokens_per_s =
            static_cast<double>(2 * kRows) / both.median();
        result.add("rate_per_s", tokens_per_s, "1/s");
        result.named.push_back({"tokens_per_s", tokens_per_s, "1/s"});
        result.add("peak_rss_mb", peakRssMb(), "MB");
        return result;
    }

    // Traced run. Phase 1: untraced and program-traced forwards,
    // interleaved, with registry counters read around each.
    const std::size_t iters = tracedIterations(opt.seconds);
    Samples host_u, pim_u, host_t, pim_t, cpu_host, cpu_pim;
    double lut_exec_s = 0.0, stage_s = 0.0;
    std::uint64_t lut_calls = 0, bursts = 0, hits = 0, lookups = 0;
    CounterDiff host_counts, pim_counts;
    resetProgramMetrics();
    for (std::size_t i = 0; i < iters; ++i) {
        const std::size_t set = i % kInputSets;
        const Tensor &in = inputs[set];
        setProgramTracing(false);
        double t0 = nowS();
        const Tensor hu = model.forward(in, kSeq, LinearBackendKind::HostLut);
        host_u.add(nowS() - t0);
        t0 = nowS();
        const Tensor pu = model.forward(in, kSeq, LinearBackendKind::PimLut);
        pim_u.add(nowS() - t0);

        setProgramTracing(true);
        CounterDiff c0 = CounterDiff::read();
        double cpu0 = cpuS();
        t0 = nowS();
        const Tensor h = model.forward(in, kSeq, LinearBackendKind::HostLut);
        host_t.add(nowS() - t0);
        cpu_host.add(cpuS() - cpu0);
        const CounterDiff hc = CounterDiff::read() - c0;

        const double fill0 = m.scheduler->stats().fill_wall_s;
        c0 = CounterDiff::read();
        cpu0 = cpuS();
        t0 = nowS();
        const Tensor p = model.forward(in, kSeq, LinearBackendKind::PimLut);
        pim_t.add(nowS() - t0);
        cpu_pim.add(cpuS() - cpu0);
        const CounterDiff pc = CounterDiff::read() - c0;
        stage_s += m.scheduler->stats().fill_wall_s - fill0;

        const ProgramSpans spans = takeProgramSpans();
        lut_exec_s += spans.seconds.count("lut.runDistributedLut")
                          ? spans.seconds.at("lut.runDistributedLut")
                          : 0.0;
        lut_calls += spans.calls.count("lut.runDistributedLut")
                         ? spans.calls.at("lut.runDistributedLut")
                         : 0;
        const TransferReport tr = model.lastTransferReport();
        bursts += tr.bursts;
        hits += tr.resident_hits;
        lookups += tr.resident_hits + tr.resident_misses;

        // Counts per forward must repeat exactly, and tracing must not
        // change an output.
        if (i == 0) {
            host_counts = hc;
            pim_counts = pc;
        }
        result.attempted += 2;
        if (hc != host_counts || pc != pim_counts)
            result.fail("offline: per-forward counters not repeatable");
        if (!sameBits(h, hu) || !sameBits(p, pu))
            result.fail("offline: traced output differs from untraced");
        checker.check(set, h, p, model.lastPimModelSeconds(),
                      model.lastPimEngineSeconds(), result);
    }
    setProgramTracing(false);
    const double util = parallelUtilizationP50();

    // Phase 2: shadow walks interleaved with untraced forwards.
    ShadowEncoder shadow(opt.seed);
    ShadowRun sh = runShadow(model, shadow, inputs, iters, ShadowDrop::None);
    const double cov_host = sh.host_ratio.median();
    const double cov_pim = sh.pim_ratio.median();
    checkCoverage("HostLut", cov_host, result);
    checkCoverage("PimLut", cov_pim, result);

    const double n = static_cast<double>(iters);
    const auto per = [&](const SpanLog &log, const char *name) {
        return log.seconds(name) * 1e3 / n;
    };
    result.add("runtime.lut_executor.ms", lut_exec_s * 1e3 / n, "ms");
    result.add("runtime.lut_executor.ms_per_call",
               lut_calls ? lut_exec_s * 1e3 / static_cast<double>(lut_calls)
                         : 0.0,
               "ms");
    result.add("runtime.lut_executor.calls",
               static_cast<double>(lut_calls) / n, "count");
    result.add("runtime.lut_executor.pe_kernels",
               static_cast<double>(pim_counts.pe_kernels), "count");
    result.add("transfer.resident_hit_rate",
               lookups ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0,
               "ratio");
    result.add("transfer.staged_bursts", static_cast<double>(bursts) / n,
               "count");
    result.add("transfer.stage_ms", stage_s * 1e3 / n, "ms");
    result.add("lutnn.ccs_ms", per(sh.pim, "lutnn.ccs"), "ms");
    result.add("lutnn.host_lut_ms", per(sh.host, "lutnn.host_lut"), "ms");
    result.add("tensor.elementwise_ms.host",
               per(sh.host, "tensor.elementwise"), "ms");
    result.add("tensor.elementwise_ms.pim",
               per(sh.pim, "tensor.elementwise"), "ms");
    result.add("tensor.attention_ms.host", per(sh.host, "tensor.attention"),
               "ms");
    result.add("tensor.attention_ms.pim", per(sh.pim, "tensor.attention"),
               "ms");
    result.add("plan.lower_ms",
               (sh.host.seconds("plan.lower") + sh.pim.seconds("plan.lower")) *
                   1e3 / (2.0 * n),
               "ms");
    result.add("runtime.functional_transformer.self_ms.host",
               per(sh.host, "runtime.functional_transformer.self"), "ms");
    result.add("runtime.functional_transformer.self_ms.pim",
               per(sh.pim, "runtime.functional_transformer.self"), "ms");
    result.add("common.parallel.calls.host",
               static_cast<double>(host_counts.parallel_calls), "count");
    result.add("common.parallel.calls.pim",
               static_cast<double>(pim_counts.parallel_calls), "count");
    result.add("common.parallel.utilization_p50", util, "ratio");
    result.add("kernels.lut_bytes.host",
               static_cast<double>(host_counts.lut_bytes), "B");
    result.add("kernels.lut_bytes.pim",
               static_cast<double>(pim_counts.lut_bytes), "B");
    result.add("kernels.ccs_subvectors",
               static_cast<double>(pim_counts.ccs_subvectors), "count");
    result.add("coverage_frac.host", cov_host, "ratio");
    result.add("coverage_frac.pim", cov_pim, "ratio");
    result.add("process.cpu_ms.host", cpu_host.median() * 1e3, "ms");
    result.add("process.cpu_ms.pim", cpu_pim.median() * 1e3, "ms");
    result.add("process.cpu_ms_per_request",
               (cpu_host.median() + cpu_pim.median()) * 1e3 / 2.0, "ms");
    result.add("trace.overhead_frac",
               (host_t.median() + pim_t.median()) /
                       (host_u.median() + pim_u.median()) -
                   1.0,
               "ratio");
    result.add("model.pim_s", checker.modelS(), "s");
    result.add("model.engine_s", checker.engineS(), "s");

    // Phase 3, last, since it resets the program's metrics registry.
    addSweepLayers(opt.seed, result);
    return result;
}

std::vector<double>
offlineModeledPass(std::uint64_t seed)
{
    OfflineModel m = buildModel(seed);
    const Tensor in = makeInputs(seed).front();
    CounterDiff c0 = CounterDiff::read();
    (void)m.model->forward(in, kSeq, LinearBackendKind::HostLut);
    const CounterDiff host = CounterDiff::read() - c0;
    c0 = CounterDiff::read();
    (void)m.model->forward(in, kSeq, LinearBackendKind::PimLut);
    const CounterDiff pim = CounterDiff::read() - c0;
    return {m.model->lastPimModelSeconds(),
            m.model->lastPimEngineSeconds(),
            static_cast<double>(pim.pe_kernels),
            static_cast<double>(host.lut_bytes),
            static_cast<double>(pim.lut_bytes),
            static_cast<double>(pim.ccs_subvectors),
            static_cast<double>(host.parallel_calls),
            static_cast<double>(pim.parallel_calls)};
}

int
selftestShadowDrop(const Options &opt)
{
    OfflineModel m = buildModel(opt.seed);
    const std::vector<Tensor> inputs = makeInputs(opt.seed);
    ShadowEncoder shadow(opt.seed);
    int failures = 0;
    const auto expect = [&](ShadowDrop drop, bool host, const char *what) {
        const ShadowRun sh = runShadow(*m.model, shadow, inputs, 6, drop);
        RunResult r;
        checkCoverage(host ? "HostLut" : "PimLut",
                      host ? sh.host_ratio.median() : sh.pim_ratio.median(),
                      r);
        const bool should_pass = drop == ShadowDrop::None;
        const bool ok = r.correct() == should_pass;
        std::printf("selftest shadow %-28s coverage check %s (%s)\n", what,
                    r.correct() ? "passes" : "fails",
                    ok ? "as expected" : "UNEXPECTED");
        failures += ok ? 0 : 1;
    };
    expect(ShadowDrop::None, true, "complete, HostLut:");
    expect(ShadowDrop::None, false, "complete, PimLut:");
    expect(ShadowDrop::Elementwise, true, "without elementwise, HostLut:");
    expect(ShadowDrop::LutExecutor, false, "without LUT executor, PimLut:");
    return failures;
}

} // namespace perfbench
