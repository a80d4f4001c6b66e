#include "snapshot.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/lockorder.h"
#include "json.h"
#include "metrics.h"
#include "trace.h"

namespace pimdl {
namespace obs {

namespace {

/**
 * Mirrors the lock-order tracker's monotonic totals into the
 * analysis.lockorder.* metrics. The tracker (src/analysis) sits below
 * obs in the layering and cannot publish directly — its own hooks run
 * inside every annotated Mutex, including the registry's — so the
 * snapshot path pulls instead: counters advance by the delta since
 * the last publish (and the baseline resets with resetAll(), keeping
 * the mirrored counters aligned with the zeroed registry).
 */
struct LockOrderMirror
{
    Mutex mu{"obs.snapshot.lockorder_mirror"};
    analysis::LockOrderStats last PIMDL_GUARDED_BY(mu);

    void
    publish() PIMDL_EXCLUDES(mu)
    {
        MutexLock lock(mu);
        MetricsRegistry &reg = MetricsRegistry::instance();
        const analysis::LockOrderStats now = analysis::lockOrderStats();
        reg.counter(metrics::kLockOrderAcquisitions)
            .add(now.acquisitions - last.acquisitions);
        reg.counter(metrics::kLockOrderEdges)
            .add(now.edges_added - last.edges_added);
        reg.counter(metrics::kLockOrderCycles)
            .add(now.cycles - last.cycles);
        reg.counter(metrics::kLockOrderSelfLock)
            .add(now.self_locks - last.self_locks);
        reg.counter(metrics::kLockOrderWaitWhileHolding)
            .add(now.wait_while_holding - last.wait_while_holding);
        reg.counter(metrics::kLockOrderHoldBudgetExceeded)
            .add(now.hold_budget_exceeded - last.hold_budget_exceeded);
        reg.gauge(metrics::kLockOrderEnabled)
            .set(analysis::deadlockCheckEnabled() ? 1.0 : 0.0);
        reg.gauge(metrics::kLockOrderLocksLive)
            .set(static_cast<double>(now.locks_live));
        reg.gauge(metrics::kLockOrderEdgesLive)
            .set(static_cast<double>(now.edges_live));
        last = now;
    }
};

LockOrderMirror &
lockOrderMirror()
{
    static LockOrderMirror mirror;
    return mirror;
}

} // namespace

std::string
snapshotJson()
{
    lockOrderMirror().publish();
    MetricsRegistry &registry = MetricsRegistry::instance();
    Tracer &tracer = Tracer::instance();

    // Splice the registry's {"counters":...} object into the envelope.
    const std::string metrics = registry.toJson();

    std::ostringstream out;
    out << "{\"schema\":" << jsonString(kSnapshotSchema) << ","
        << metrics.substr(1, metrics.size() - 2) << ",\"trace\":{"
        << "\"recorded\":" << tracer.recorded()
        << ",\"retained\":" << tracer.events().size()
        << ",\"dropped\":" << tracer.dropped() << "}}";
    return out.str();
}

void
writeSnapshotJson(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot open metrics output file: " +
                                 path);
    out << snapshotJson() << "\n";
    if (!out)
        throw std::runtime_error("failed writing metrics output file: " +
                                 path);
}

void
writeChromeTrace(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot open trace output file: " + path);
    out << Tracer::instance().toChromeJson() << "\n";
    if (!out)
        throw std::runtime_error("failed writing trace output file: " +
                                 path);
}

void
resetAll()
{
    MetricsRegistry::instance().reset();
    Tracer::instance().clear();
    // Re-baseline the lock-order mirror: the registry's zeroed
    // counters must accumulate deltas from this point, not since
    // process start.
    LockOrderMirror &mirror = lockOrderMirror();
    MutexLock lock(mirror.mu);
    mirror.last = analysis::lockOrderStats();
}

} // namespace obs
} // namespace pimdl
