#include "verify/verify.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pimdl {
namespace verify {

const char *
severityName(Severity severity)
{
    switch (severity) {
    case Severity::Note:
        return "note";
    case Severity::Warning:
        return "warning";
    case Severity::Error:
        return "error";
    }
    return "?";
}

std::string
Diagnostic::str() const
{
    std::ostringstream out;
    out << "[" << pass << "] " << severityName(severity);
    if (has_node)
        out << " node " << node;
    out << ": " << message;
    return out.str();
}

void
VerifyResult::add(Diagnostic diag)
{
    diags_.push_back(std::move(diag));
}

void
VerifyResult::addNodeDiag(Severity severity, const std::string &pass,
                          std::size_t node, std::string message)
{
    Diagnostic diag;
    diag.severity = severity;
    diag.pass = pass;
    diag.has_node = true;
    diag.node = node;
    diag.message = std::move(message);
    diags_.push_back(std::move(diag));
}

void
VerifyResult::addPlanDiag(Severity severity, const std::string &pass,
                          std::string message)
{
    Diagnostic diag;
    diag.severity = severity;
    diag.pass = pass;
    diag.message = std::move(message);
    diags_.push_back(std::move(diag));
}

std::size_t
VerifyResult::count(Severity severity) const
{
    std::size_t n = 0;
    for (const Diagnostic &diag : diags_) {
        if (diag.severity == severity)
            ++n;
    }
    return n;
}

bool
VerifyResult::hasNodeDiag(const std::string &pass,
                          std::size_t node) const
{
    for (const Diagnostic &diag : diags_) {
        if (diag.has_node && diag.node == node && diag.pass == pass)
            return true;
    }
    return false;
}

std::string
VerifyResult::summary(std::size_t max_lines) const
{
    // Errors first so a truncated summary never hides the failure.
    std::vector<const Diagnostic *> ordered;
    ordered.reserve(diags_.size());
    for (const Diagnostic &diag : diags_) {
        if (diag.severity == Severity::Error)
            ordered.push_back(&diag);
    }
    for (const Diagnostic &diag : diags_) {
        if (diag.severity != Severity::Error)
            ordered.push_back(&diag);
    }

    std::ostringstream out;
    std::size_t lines = 0;
    for (const Diagnostic *diag : ordered) {
        if (lines == max_lines) {
            out << "... (" << (ordered.size() - lines) << " more)\n";
            break;
        }
        out << diag->str() << "\n";
        ++lines;
    }
    return out.str();
}

void
PassManager::addPass(std::unique_ptr<VerifyPass> pass)
{
    PIMDL_REQUIRE(pass != nullptr, "null verifier pass");
    passes_.push_back(std::move(pass));
}

PassManager
PassManager::withDefaultPasses()
{
    PassManager pm;
    pm.addPass(std::make_unique<GraphWellFormednessPass>());
    pm.addPass(std::make_unique<ShapeDtypeFlowPass>());
    pm.addPass(std::make_unique<DevicePlacementPass>());
    pm.addPass(std::make_unique<CapacityPass>());
    pm.addPass(std::make_unique<ScheduleHazardPass>());
    return pm;
}

VerifyResult
PassManager::run(const Plan &plan,
                 const PimPlatformConfig *platform) const
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &c_plans =
        reg.counter(metrics::kVerifyPlansVerified);
    static obs::Counter &c_passes = reg.counter(metrics::kVerifyPassesRun);
    static obs::Counter &c_diags =
        reg.counter(metrics::kVerifyDiagnostics);
    static obs::Counter &c_errors = reg.counter(metrics::kVerifyErrors);
    static obs::Histogram &h_wall = reg.histogram(metrics::kVerifyWallS);

    obs::TraceSpan span("verify.plan");
    span.attr("nodes", static_cast<std::uint64_t>(plan.nodes.size()));
    span.attr("passes", static_cast<std::uint64_t>(passes_.size()));

    const auto start = std::chrono::steady_clock::now();
    VerifyContext ctx;
    ctx.plan = &plan;
    ctx.platform = platform;

    VerifyResult result;
    for (const std::unique_ptr<VerifyPass> &pass : passes_)
        pass->run(ctx, result);

    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    c_plans.add();
    c_passes.add(passes_.size());
    c_diags.add(result.diagnostics().size());
    c_errors.add(result.errorCount());
    h_wall.record(wall);
    span.attr("diagnostics",
              static_cast<std::uint64_t>(result.diagnostics().size()));
    span.attr("errors",
              static_cast<std::uint64_t>(result.errorCount()));
    return result;
}

namespace {

/** -1 = unset (use env/build default), 0 = off, 1 = on. */
std::atomic<int> g_verify_override{-1};

bool
verifyDefault()
{
    if (const char *env = std::getenv("PIMDL_VERIFY_PLANS")) {
        return !(std::strcmp(env, "0") == 0 ||
                 std::strcmp(env, "off") == 0 ||
                 std::strcmp(env, "false") == 0 ||
                 std::strcmp(env, "no") == 0);
    }
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

} // namespace

bool
verifyPlansEnabled()
{
    const int override = g_verify_override.load(std::memory_order_relaxed);
    if (override >= 0)
        return override != 0;
    static const bool build_default = verifyDefault();
    return build_default;
}

void
setVerifyPlansEnabled(bool enabled)
{
    g_verify_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void
verifyPlanOrThrow(const Plan &plan, const PimPlatformConfig *platform)
{
    static const PassManager pm = PassManager::withDefaultPasses();
    requireClean(pm.run(plan, platform), "plan verification");
}

void
requireClean(const VerifyResult &result, const char *what)
{
    if (result.ok())
        return;
    fatalError(std::string(what) + " failed with " +
               std::to_string(result.errorCount()) + " error(s):\n" +
               result.summary());
}

namespace {

constexpr const char *kSchedulePass = "schedule-result";
constexpr const char *kRemapPass = "degraded-remap";

bool
nearlyLe(double a, double b)
{
    // a <= b up to relative/absolute rounding slack.
    const double slack =
        1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
    return a <= b + slack;
}

bool
nearlyEq(double a, double b)
{
    return nearlyLe(a, b) && nearlyLe(b, a);
}

} // namespace

VerifyResult
verifyScheduleResult(const CostedPlan &costed,
                     const ScheduleResult &result, SchedulePolicy policy)
{
    VerifyResult out;
    const InferenceEstimate &est = result.estimate;

    if (!std::isfinite(est.total_s) || est.total_s < 0.0) {
        out.addPlanDiag(Severity::Error, kSchedulePass,
                        "estimate total is negative or non-finite");
        return out;
    }

    double step_sum = 0.0;
    for (std::size_t i = 0; i < result.steps.size(); ++i) {
        const ScheduleStep &step = result.steps[i];
        const std::string where = "step " + std::to_string(i);
        if (!std::isfinite(step.host_s) || step.host_s < 0.0 ||
            !std::isfinite(step.pim_s) || step.pim_s < 0.0 ||
            !std::isfinite(step.total_s) || step.total_s < 0.0) {
            out.addPlanDiag(Severity::Error, kSchedulePass,
                            where +
                                " carries a negative or non-finite "
                                "duration");
            continue;
        }
        const double lo = std::max(step.host_s, step.pim_s);
        const double hi = step.host_s + step.pim_s;
        if (!nearlyLe(lo, step.total_s) ||
            !nearlyLe(step.total_s, hi)) {
            out.addPlanDiag(
                Severity::Error, kSchedulePass,
                where +
                    " violates the overlap bounds max(host, pim) <= "
                    "total <= host + pim");
        }
        step_sum += step.total_s;
    }

    if (!result.steps.empty() && !nearlyEq(step_sum, est.total_s)) {
        out.addPlanDiag(Severity::Error, kSchedulePass,
                        "step totals do not sum to the estimate total");
    }

    // Device busy time can never exceed the wall-clock total a
    // schedule reports (per forward; holds for all built-in policies).
    if (!nearlyLe(est.host_busy_s, est.total_s) ||
        !nearlyLe(est.pim_busy_s, est.total_s)) {
        out.addPlanDiag(Severity::Error, kSchedulePass,
                        std::string(schedulePolicyName(policy)) +
                            " schedule reports device busy time "
                            "exceeding its wall-clock total");
    }

    // A schedule cannot beat the critical (sequential) host+PIM work
    // split: total >= max over devices of that device's busy time is
    // checked above; totals beyond the full serial sum indicate a
    // costing bug for the step-producing policies.
    if (result.steps.empty() && policy != SchedulePolicy::Overlap) {
        out.addPlanDiag(Severity::Warning, kSchedulePass,
                        "step-producing policy returned no steps");
    }

    (void)costed;
    return out;
}

VerifyResult
verifyDegradedRemap(const LutWorkloadShape &shape,
                    const LutMapping &mapping,
                    const std::vector<bool> &failed,
                    const DegradedLutRemap &remap)
{
    VerifyResult out;

    const std::size_t total = mapping.totalPes(shape);
    if (remap.total_tiles != total) {
        out.addPlanDiag(Severity::Error, kRemapPass,
                        "remap covers " +
                            std::to_string(remap.total_tiles) +
                            " tiles but the mapping prescribes " +
                            std::to_string(total));
    }

    std::size_t healthy = 0;
    const std::size_t pool = std::min(failed.size(), total);
    for (std::size_t pe = 0; pe < pool; ++pe) {
        if (!failed[pe])
            ++healthy;
    }
    if (remap.healthy_pes != healthy) {
        out.addPlanDiag(Severity::Error, kRemapPass,
                        "remap claims " +
                            std::to_string(remap.healthy_pes) +
                            " healthy PEs but the liveness vector has " +
                            std::to_string(healthy));
    }

    if (!remap.legal) {
        if (healthy != 0) {
            out.addPlanDiag(Severity::Error, kRemapPass,
                            "remap declared illegal despite surviving "
                            "PEs");
        }
        return out;
    }

    if (healthy == 0) {
        out.addPlanDiag(Severity::Error, kRemapPass,
                        "remap declared legal with no surviving PE");
        return out;
    }

    const std::size_t want_waves = (total + healthy - 1) / healthy;
    if (remap.waves != want_waves) {
        out.addPlanDiag(Severity::Error, kRemapPass,
                        "wave count " + std::to_string(remap.waves) +
                            " is not ceil(tiles / healthy) = " +
                            std::to_string(want_waves));
    }

    if (remap.tile_owner.size() != remap.total_tiles) {
        out.addPlanDiag(Severity::Error, kRemapPass,
                        "tile_owner size does not match total_tiles");
        return out;
    }

    std::vector<std::size_t> load(failed.size(), 0);
    for (std::size_t tile = 0; tile < remap.tile_owner.size(); ++tile) {
        const std::size_t owner = remap.tile_owner[tile];
        if (owner >= failed.size() || failed[owner]) {
            out.addPlanDiag(Severity::Error, kRemapPass,
                            "tile " + std::to_string(tile) +
                                " remapped onto dead PE " +
                                std::to_string(owner));
            continue;
        }
        ++load[owner];
    }
    for (std::size_t pe = 0; pe < load.size(); ++pe) {
        if (load[pe] > remap.waves) {
            out.addPlanDiag(Severity::Error, kRemapPass,
                            "PE " + std::to_string(pe) + " owns " +
                                std::to_string(load[pe]) +
                                " tiles, more than the " +
                                std::to_string(remap.waves) +
                                " schedule waves");
        }
    }
    return out;
}

} // namespace verify
} // namespace pimdl
