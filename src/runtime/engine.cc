#include "engine.h"

#include <stdexcept>
#include <utility>

#include "backend/analytical.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "verify/verify.h"

namespace pimdl {

PimDlEngine::PimDlEngine(PimPlatformConfig platform,
                         HostProcessorConfig host,
                         TimingBackendKind backend_kind,
                         const TransactionSimConfig &txn_config)
    : platform_(platform), host_(host), tuner_(platform),
      tune_memo_(tuner_),
      backend_(makeTimingBackend(backend_kind, std::move(platform),
                                 std::move(host), txn_config))
{}

namespace {

/** Display name of a host dtype for estimate labels. */
const char *
hostDtypeLabel(HostDtype dtype)
{
    switch (dtype) {
    case HostDtype::Fp32:
        return "FP32";
    case HostDtype::Int8:
        return "INT8";
    case HostDtype::Fp16:
        return "FP16";
    }
    return "?";
}

/** The CCS and LUT gauges of one LinearRole. */
struct RoleGauges
{
    const obs::MetricDef &ccs_s;
    const obs::MetricDef &lut_s;
};

RoleGauges
roleGauges(LinearRole role)
{
    switch (role) {
    case LinearRole::QkvProjection:
        return {metrics::kEngineRoleQkvCcsS, metrics::kEngineRoleQkvLutS};
    case LinearRole::OutProjection:
        return {metrics::kEngineRoleOCcsS, metrics::kEngineRoleOLutS};
    case LinearRole::Ffn1:
        return {metrics::kEngineRoleFfn1CcsS,
                metrics::kEngineRoleFfn1LutS};
    case LinearRole::Ffn2:
        return {metrics::kEngineRoleFfn2CcsS,
                metrics::kEngineRoleFfn2LutS};
    }
    throw std::logic_error("unknown LinearRole");
}

/** Publishes the metrics the seed engine exported for PIM-DL runs. */
void
publishPimDlMetrics(const InferenceEstimate &est)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    // Per-LinearRole CCS/LUT split (the Figure 11-(b) breakdown),
    // published as gauges holding the most recent estimate.
    for (const LinearLatency &layer : est.per_linear) {
        const RoleGauges gauges = roleGauges(layer.role);
        reg.gauge(gauges.ccs_s).set(layer.ccs_s);
        reg.gauge(gauges.lut_s).set(layer.lut_s);
    }
    static obs::Counter &estimates =
        reg.counter(metrics::kEngineEstimates);
    static obs::Histogram &h_ccs = reg.histogram(metrics::kEngineCcsS);
    static obs::Histogram &h_lut = reg.histogram(metrics::kEngineLutS);
    static obs::Histogram &h_total = reg.histogram(metrics::kEngineTotalS);
    estimates.add();
    h_ccs.record(est.ccs_s);
    h_lut.record(est.lut_s);
    h_total.record(est.total_s);
}

} // namespace

Plan
PimDlEngine::lower(const TransformerConfig &model,
                   const LutNnParams &params, ExecutionMode mode,
                   HostDtype dtype,
                   const LutMapping *mapping_override) const
{
    obs::TraceSpan span("plan.lower");
    span.attr("model", model.name);
    span.attr("mode", executionModeName(mode));

    LoweringOptions options;
    options.platform = &platform_;
    options.dtype = dtype;
    Plan plan = lowerTransformer(model, params, mode, options);
    if (mode == ExecutionMode::PimDl) {
        if (mapping_override)
            attachMappingOverride(plan, *mapping_override);
        else
            attachTunedMappings(plan, tune_memo_);
    }
    span.attr("nodes", static_cast<std::uint64_t>(plan.nodes.size()));
    return plan;
}

CostedPlan
PimDlEngine::cost(const Plan &plan) const
{
    // Lowering validates the structural graph, but mapping attachment
    // mutates nodes afterwards — re-validate every plan entering the
    // cost model, and run the full verifier pipeline when enabled.
    plan.validate();
    if (verify::verifyPlansEnabled())
        verify::verifyPlanOrThrow(plan, &platform_);

    return backend_->cost(plan);
}

InferenceEstimate
PimDlEngine::estimate(const TransformerConfig &model,
                      const LutNnParams &params, ExecutionMode mode,
                      const Scheduler &scheduler, HostDtype dtype,
                      const LutMapping *mapping_override) const
{
    obs::TraceSpan top("engine.estimate");
    top.attr("model", model.name);
    top.attr("batch", static_cast<std::uint64_t>(model.batch));
    top.attr("platform", platform_.name);
    top.attr("mode", executionModeName(mode));
    top.attr("scheduler", scheduler.name());

    const Plan plan = lower(model, params, mode, dtype, mapping_override);
    const CostedPlan costed = cost(plan);

    ScheduleResult scheduled;
    {
        obs::TraceSpan span("plan.schedule");
        span.attr("scheduler", scheduler.name());
        span.attr("nodes",
                  static_cast<std::uint64_t>(plan.nodes.size()));
        scheduled = scheduler.schedule(costed);
    }
    obs::MetricsRegistry::instance()
        .counter(metrics::kPlanNodesScheduled)
        .add(plan.nodes.size());
    if (verify::verifyPlansEnabled()) {
        verify::requireClean(verify::verifyScheduleResult(
                                 costed, scheduled, scheduler.policy()),
                             "schedule verification");
    }

    InferenceEstimate est = std::move(scheduled.estimate);
    switch (mode) {
    case ExecutionMode::PimDl:
        est.label = "PIM-DL(V=" + std::to_string(params.subvec_len) +
                    ",CT=" + std::to_string(params.centroids) + ")@" +
                    platform_.name;
        break;
    case ExecutionMode::PimGemm:
        est.label = "PIM-GEMM@" + platform_.name;
        break;
    case ExecutionMode::HostOnly:
        est.label = host_.config().name + "(" + hostDtypeLabel(dtype) +
                    ")";
        break;
    }
    if (scheduler.policy() != SchedulePolicy::Sequential)
        est.label += std::string("+") + scheduler.name();

    if (mode == ExecutionMode::HostOnly) {
        est.energy.host_joules = host_.config().power_w * est.total_s;
    } else {
        // PIM-DIMMs stay powered for the whole inference (no DVFS), so
        // PIM energy integrates static power over total wall time.
        const EnergyModel energy_model(platform_);
        est.energy = energy_model.energy(est.total_s, est.host_busy_s,
                                         est.link_bytes);
    }

    if (mode == ExecutionMode::PimDl)
        publishPimDlMetrics(est);
    top.attr("total_s", est.total_s);
    return est;
}

InferenceEstimate
PimDlEngine::estimatePimDl(const TransformerConfig &model,
                           const LutNnParams &params) const
{
    return estimate(model, params, ExecutionMode::PimDl,
                    schedulerFor(SchedulePolicy::Sequential));
}

InferenceEstimate
PimDlEngine::estimatePimDlWithMapping(const TransformerConfig &model,
                                      const LutNnParams &params,
                                      const LutMapping &mapping) const
{
    return estimate(model, params, ExecutionMode::PimDl,
                    schedulerFor(SchedulePolicy::Sequential),
                    HostDtype::Fp32, &mapping);
}

InferenceEstimate
PimDlEngine::estimatePimDlPipelined(const TransformerConfig &model,
                                    const LutNnParams &params) const
{
    return estimate(model, params, ExecutionMode::PimDl,
                    schedulerFor(SchedulePolicy::Pipelined));
}

InferenceEstimate
PimDlEngine::estimatePimGemm(const TransformerConfig &model,
                             HostDtype dtype) const
{
    return estimate(model, {}, ExecutionMode::PimGemm,
                    schedulerFor(SchedulePolicy::Sequential), dtype);
}

InferenceEstimate
PimDlEngine::estimateHostOnly(const TransformerConfig &model,
                              HostDtype dtype) const
{
    return estimate(model, {}, ExecutionMode::HostOnly,
                    schedulerFor(SchedulePolicy::Sequential), dtype);
}

InferenceEstimate
estimateHostInference(const HostProcessorConfig &host,
                      const TransformerConfig &model, HostDtype dtype)
{
    const HostModel hm(host);
    LoweringOptions options;
    options.dtype = dtype;
    const Plan plan =
        lowerTransformer(model, {}, ExecutionMode::HostOnly, options);

    CostedPlan costed;
    costed.plan = plan;
    costed.costs.reserve(plan.nodes.size());
    for (const PlanNode &node : plan.nodes)
        costed.costs.push_back(
            {analyticalHostNodeSeconds(hm, plan, node), 0.0});

    ScheduleResult scheduled =
        schedulerFor(SchedulePolicy::Sequential).schedule(costed);
    if (verify::verifyPlansEnabled()) {
        verify::verifyPlanOrThrow(plan);
        verify::requireClean(
            verify::verifyScheduleResult(costed, scheduled,
                                         SchedulePolicy::Sequential),
            "schedule verification");
    }
    InferenceEstimate est = std::move(scheduled.estimate);
    est.label = host.name + "(" + hostDtypeLabel(dtype) + ")";
    est.energy.host_joules = host.power_w * est.total_s;
    return est;
}

} // namespace pimdl
