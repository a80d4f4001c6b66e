/**
 * @file
 * Resilience control-plane tests: circuit breaker, chaos injector,
 * watchdog seizure/respawn, poison bisection, admission shedding, and
 * the AIMD in-flight limit. Every timing-sensitive assertion runs on a
 * ManualClock — the watchdog polls real time but decides on virtual
 * time, so hangs are declared by clock.advance(), never by CI load.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "fault/chaos.h"
#include "obs/metrics.h"
#include "runtime/resilience.h"
#include "runtime/serving_live.h"

namespace pimdl {
namespace {

Tensor
requestTensor(std::size_t seq, std::size_t hidden, std::uint64_t seed)
{
    Tensor t(seq, hidden);
    Rng rng(seed);
    for (std::size_t r = 0; r < seq; ++r)
        for (std::size_t c = 0; c < hidden; ++c)
            t(r, c) = rng.uniform() - 0.5f;
    return t;
}

bool
tensorsBitExact(const Tensor &a, const Tensor &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    return std::memcmp(a.rowPtr(0), b.rowPtr(0),
                       a.rows() * a.cols() * sizeof(float)) == 0;
}

/** Identity executor whose first-ever call blocks until released
 * (the hung worker of the watchdog tests). */
class HangOnceExecutor final : public BatchExecutor
{
  public:
    Tensor
    execute(const Tensor &tokens, std::size_t seq_len,
            bool degraded) override
    {
        (void)seq_len;
        (void)degraded;
        calls_.fetch_add(1, std::memory_order_relaxed);
        if (first_.exchange(false, std::memory_order_acq_rel)) {
            entered_.store(true, std::memory_order_release);
            while (!released_.load(std::memory_order_acquire))
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        }
        return tokens;
    }

    void
    awaitEntered() const
    {
        while (!entered_.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    void release() { released_.store(true, std::memory_order_release); }
    std::size_t calls() const { return calls_.load(); }

  private:
    std::atomic<bool> first_{true};
    std::atomic<bool> entered_{false};
    std::atomic<bool> released_{false};
    std::atomic<std::size_t> calls_{0};
};

/** Identity executor that throws (every attempt, degraded or not)
 * whenever the batch contains the poison marker value. */
class PoisonExecutor final : public BatchExecutor
{
  public:
    static constexpr float kPoison = 1234.5f;

    Tensor
    execute(const Tensor &tokens, std::size_t seq_len,
            bool degraded) override
    {
        (void)seq_len;
        (void)degraded;
        const float *data = tokens.rowPtr(0);
        for (std::size_t i = 0; i < tokens.rows() * tokens.cols(); ++i)
            if (data[i] == kPoison)
                throw std::runtime_error("poison request");
        return tokens;
    }
};

/** Identity executor whose primary path can be broken at runtime;
 * the degraded path always works (the breaker's target scenario). */
class BreakableExecutor final : public BatchExecutor
{
  public:
    Tensor
    execute(const Tensor &tokens, std::size_t seq_len,
            bool degraded) override
    {
        (void)seq_len;
        if (degraded)
            degraded_calls_.fetch_add(1, std::memory_order_relaxed);
        else
            primary_calls_.fetch_add(1, std::memory_order_relaxed);
        if (!degraded && broken_.load(std::memory_order_acquire))
            throw std::runtime_error("primary path down");
        return tokens;
    }

    void setBroken(bool broken) { broken_.store(broken); }
    std::size_t primaryCalls() const { return primary_calls_.load(); }
    std::size_t degradedCalls() const { return degraded_calls_.load(); }

  private:
    std::atomic<bool> broken_{false};
    std::atomic<std::size_t> primary_calls_{0};
    std::atomic<std::size_t> degraded_calls_{0};
};

/** Executor that blocks until released (queue-delay tests). */
class GateExecutor final : public BatchExecutor
{
  public:
    Tensor
    execute(const Tensor &tokens, std::size_t seq_len,
            bool degraded) override
    {
        (void)seq_len;
        (void)degraded;
        while (!released_.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return tokens;
    }

    void release() { released_.store(true, std::memory_order_release); }

  private:
    std::atomic<bool> released_{false};
};

/** Executor throwing a non-std::exception type (catch-all audit). */
class NonStdThrowExecutor final : public BatchExecutor
{
  public:
    Tensor
    execute(const Tensor &, std::size_t, bool) override
    {
        throw 42; // NOLINT: deliberately not an exception type
    }
};

/** Identity executor. */
class EchoExecutor final : public BatchExecutor
{
  public:
    Tensor
    execute(const Tensor &tokens, std::size_t, bool degraded) override
    {
        if (degraded)
            degraded_calls_.fetch_add(1, std::memory_order_relaxed);
        return tokens;
    }

    std::size_t degradedCalls() const { return degraded_calls_.load(); }

  private:
    std::atomic<std::size_t> degraded_calls_{0};
};

// ---------------------------------------------------------------------
// CircuitBreaker unit tests.
// ---------------------------------------------------------------------

CircuitBreakerConfig
breakerConfig()
{
    CircuitBreakerConfig cfg;
    cfg.enabled = true;
    cfg.window = 4;
    cfg.min_samples = 2;
    cfg.failure_threshold = 0.5;
    cfg.open_cooldown_s = 1.0;
    cfg.half_open_probes = 2;
    cfg.half_open_successes = 2;
    return cfg;
}

TEST(CircuitBreakerTest, OpensOnFailureRateThenRecoversViaProbes)
{
    ManualClock clock;
    CircuitBreaker breaker(breakerConfig(), &clock);

    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_TRUE(breaker.allowPrimary());
    breaker.recordFailure();
    EXPECT_EQ(breaker.state(), BreakerState::Closed)
        << "below min_samples the breaker must not trip";
    breaker.recordFailure();
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    EXPECT_EQ(breaker.opens(), 1u);
    EXPECT_FALSE(breaker.allowPrimary()) << "open short-circuits";

    clock.advance(0.5);
    EXPECT_FALSE(breaker.allowPrimary()) << "cooldown not elapsed";
    clock.advance(0.6);
    EXPECT_TRUE(breaker.allowPrimary()) << "half-open probe 1";
    EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
    EXPECT_TRUE(breaker.allowPrimary()) << "half-open probe 2";
    EXPECT_FALSE(breaker.allowPrimary()) << "probe budget exhausted";
    breaker.recordSuccess();
    EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
    breaker.recordSuccess();
    EXPECT_EQ(breaker.state(), BreakerState::Closed)
        << "enough probe successes must close the breaker";
    EXPECT_TRUE(breaker.allowPrimary());
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens)
{
    ManualClock clock;
    CircuitBreaker breaker(breakerConfig(), &clock);
    breaker.recordFailure();
    breaker.recordFailure();
    ASSERT_EQ(breaker.state(), BreakerState::Open);
    clock.advance(1.1);
    ASSERT_TRUE(breaker.allowPrimary());
    breaker.recordFailure();
    EXPECT_EQ(breaker.state(), BreakerState::Open)
        << "failed probe restarts the cooldown";
    EXPECT_EQ(breaker.opens(), 2u);
    EXPECT_FALSE(breaker.allowPrimary());
    clock.advance(1.1);
    EXPECT_TRUE(breaker.allowPrimary()) << "second cooldown elapses";
}

TEST(CircuitBreakerTest, SlidingWindowForgetsOldFailures)
{
    ManualClock clock;
    CircuitBreakerConfig cfg = breakerConfig();
    cfg.window = 4;
    cfg.min_samples = 4;
    CircuitBreaker windowed(cfg, &clock);
    windowed.recordFailure();
    windowed.recordSuccess();
    windowed.recordSuccess();
    windowed.recordSuccess();
    // Window is [F S S S]: 25% < 50% threshold.
    EXPECT_EQ(windowed.state(), BreakerState::Closed);
    windowed.recordSuccess();
    windowed.recordFailure();
    // Window slid to [S S S F] then [S S F ...]; still under.
    EXPECT_EQ(windowed.state(), BreakerState::Closed);
}

TEST(CircuitBreakerTest, DisabledBreakerAlwaysAllows)
{
    ManualClock clock;
    CircuitBreakerConfig cfg; // enabled = false
    CircuitBreaker breaker(cfg, &clock);
    for (int i = 0; i < 32; ++i)
        breaker.recordFailure();
    EXPECT_TRUE(breaker.allowPrimary());
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_EQ(breaker.opens(), 0u);
}

TEST(CircuitBreakerTest, ConfigValidationNamesBadFields)
{
    CircuitBreakerConfig cfg = breakerConfig();
    cfg.min_samples = 10; // > window
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = breakerConfig();
    cfg.failure_threshold = 1.5;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = breakerConfig();
    cfg.half_open_successes = 5; // > probes
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = breakerConfig();
    cfg.open_cooldown_s = 0.0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

// ---------------------------------------------------------------------
// ChaosInjector unit tests.
// ---------------------------------------------------------------------

TEST(ChaosInjectorTest, SameSeedReplaysIdentically)
{
    ChaosConfig cfg;
    cfg.seed = 77;
    cfg.worker_stall_rate = 0.3;
    cfg.exception_rate = 0.3;
    cfg.slow_rate = 0.3;
    cfg.heartbeat_loss_rate = 0.3;
    ChaosInjector a(cfg);
    ChaosInjector b(cfg);
    for (std::uint64_t batch = 0; batch < 64; ++batch) {
        for (std::uint64_t attempt = 0; attempt < 4; ++attempt) {
            EXPECT_EQ(a.stallSeconds(batch, attempt),
                      b.stallSeconds(batch, attempt));
            EXPECT_EQ(a.injectException(batch, attempt, false),
                      b.injectException(batch, attempt, false));
            EXPECT_EQ(a.slowExtraSeconds(batch, attempt),
                      b.slowExtraSeconds(batch, attempt));
        }
        EXPECT_EQ(a.dropHeartbeat(1, batch), b.dropHeartbeat(1, batch));
    }
}

TEST(ChaosInjectorTest, EventSetsAreMonotoneInRate)
{
    // Coupled draws: an event firing at rate r must also fire at any
    // rate r' > r — the monotone-degradation assertion of bench_chaos
    // rests on this.
    ChaosConfig lo;
    lo.exception_rate = 0.2;
    lo.worker_stall_rate = 0.2;
    ChaosConfig hi = lo;
    hi.exception_rate = 0.6;
    hi.worker_stall_rate = 0.6;
    ChaosInjector a(lo);
    ChaosInjector b(hi);
    for (std::uint64_t batch = 0; batch < 256; ++batch) {
        if (a.injectException(batch, 0, false)) {
            EXPECT_TRUE(b.injectException(batch, 0, false));
        }
        if (a.stallSeconds(batch, 0) > 0.0) {
            EXPECT_GT(b.stallSeconds(batch, 0), 0.0);
        }
    }
}

TEST(ChaosInjectorTest, PrimaryOnlyExceptionsSpareDegradedAttempts)
{
    ChaosConfig cfg;
    cfg.exception_rate = 1.0;
    cfg.exceptions_primary_only = true;
    ChaosInjector chaos(cfg);
    EXPECT_TRUE(chaos.injectException(7, 0, /*degraded=*/false));
    EXPECT_FALSE(chaos.injectException(7, 1, /*degraded=*/true))
        << "primary-only storms must leave the fallback path healthy";
    ChaosConfig blind = cfg;
    blind.exceptions_primary_only = false;
    ChaosInjector blind_chaos(blind);
    EXPECT_TRUE(blind_chaos.injectException(7, 1, /*degraded=*/true));
}

TEST(ChaosInjectorTest, ValidationRejectsBadRates)
{
    ChaosConfig cfg;
    cfg.exception_rate = 1.5;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = ChaosConfig{};
    cfg.worker_stall_rate = -0.1;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = ChaosConfig{};
    cfg.slow_extra_s = 0.0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

// ---------------------------------------------------------------------
// Watchdog supervision.
// ---------------------------------------------------------------------

TEST(ServingLiveResilience, WatchdogSeizesHungWorkerAndRespawns)
{
    ManualClock clock;
    HangOnceExecutor executor;
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    cfg.workers = 1;
    cfg.faults.backoff_base_s = 0.0;
    cfg.faults.backoff_cap_s = 0.0;
    cfg.resilience.watchdog.enabled = true;
    cfg.resilience.watchdog.expected_batch_latency_s = 1.0;
    cfg.resilience.watchdog.hang_timeout_factor = 2.0;
    cfg.resilience.watchdog.min_hang_timeout_s = 1e-3;
    cfg.resilience.watchdog.poll_slice_s = 1e-3;
    LiveServingRuntime runtime(cfg, executor, &clock);

    auto f = runtime.submit(requestTensor(2, 4, 1));
    ASSERT_TRUE(f.has_value());
    executor.awaitEntered(); // worker published its heartbeat and hung
    clock.advance(3.0);      // past factor x expected = 2.0 s

    // The watchdog (real-time polls, virtual-time decisions) seizes
    // the batch, respawns the slot, and the replacement worker serves
    // the retry — the future resolves while the first worker is still
    // stuck in the executor.
    const LiveRequestResult result = f->get();
    EXPECT_EQ(result.status, LiveRequestStatus::Completed);

    executor.release(); // let the hung worker exit so drain can join
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.watchdog_hangs, 1u);
    EXPECT_EQ(stats.watchdog_respawns, 1u);
    EXPECT_EQ(stats.watchdog_discarded, 1u)
        << "the hung worker's late result must be discarded";
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_GE(stats.batch_retries, 1u);
    EXPECT_EQ(executor.calls(), 2u)
        << "hung attempt + replacement worker's retry";
}

// ---------------------------------------------------------------------
// Poison-batch bisection.
// ---------------------------------------------------------------------

TEST(ServingLiveResilience, BisectionIsolatesPoisonRequest)
{
    ManualClock clock;
    PoisonExecutor executor;
    LiveServingConfig cfg;
    cfg.max_batch = 4;
    cfg.max_wait_s = 10.0; // collect the full batch (virtual time
                           // never advances, so the wait never trips)
    cfg.faults.max_retries = 1;
    cfg.faults.backoff_base_s = 0.0;
    cfg.faults.backoff_cap_s = 0.0;
    LiveServingRuntime runtime(cfg, executor, &clock);

    Tensor poison(2, 4);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            poison(r, c) = PoisonExecutor::kPoison;
    std::vector<Tensor> innocents;
    innocents.push_back(requestTensor(2, 4, 11));
    innocents.push_back(requestTensor(2, 4, 12));
    innocents.push_back(requestTensor(2, 4, 13));

    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    const std::uint64_t batches0 =
        reg.counter("serving.live.batches").value();
    const std::uint64_t sizes0 =
        reg.histogram("serving.live.batch_size").count();
    const std::uint64_t services0 =
        reg.histogram("serving.live.batch_service_s").count();

    auto fp = runtime.submit(poison);
    auto f1 = runtime.submit(innocents[0]);
    auto f2 = runtime.submit(innocents[1]);
    auto f3 = runtime.submit(innocents[2]);
    ASSERT_TRUE(fp.has_value() && f1.has_value() && f2.has_value() &&
                f3.has_value());

    EXPECT_EQ(fp->get().status, LiveRequestStatus::Failed)
        << "exactly the poisoned request must fail";
    const LiveRequestResult r1 = f1->get();
    const LiveRequestResult r2 = f2->get();
    const LiveRequestResult r3 = f3->get();
    EXPECT_EQ(r1.status, LiveRequestStatus::Completed);
    EXPECT_EQ(r2.status, LiveRequestStatus::Completed);
    EXPECT_EQ(r3.status, LiveRequestStatus::Completed);
    EXPECT_TRUE(tensorsBitExact(r1.output, innocents[0]))
        << "innocents must complete bit-exact through the bisection";
    EXPECT_TRUE(tensorsBitExact(r2.output, innocents[1]));
    EXPECT_TRUE(tensorsBitExact(r3.output, innocents[2]));

    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.bisections, 2u)
        << "batch of 4 -> halves -> poison singleton";
    EXPECT_EQ(stats.poison_isolated, 1u);
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.failed_requests, 1u);
    EXPECT_EQ(stats.failed_batches, 1u)
        << "only the isolated poison singleton is a terminal failure";
    // Bisected parents are batches too: each records its size and
    // service time like any other executed batch.
    const std::uint64_t batches =
        reg.counter("serving.live.batches").value() - batches0;
    EXPECT_EQ(batches, stats.batches);
    EXPECT_EQ(reg.histogram("serving.live.batch_size").count() - sizes0,
              batches);
    EXPECT_EQ(
        reg.histogram("serving.live.batch_service_s").count() - services0,
        batches);
}

TEST(ServingLiveResilience, BisectionOffFailsWholeBatch)
{
    ManualClock clock;
    PoisonExecutor executor;
    LiveServingConfig cfg;
    // max_batch matches the submit count: under a ManualClock the
    // batcher waits for a full batch (virtual wait time never
    // elapses on its own).
    cfg.max_batch = 2;
    cfg.max_wait_s = 10.0;
    cfg.faults.max_retries = 1;
    cfg.faults.backoff_base_s = 0.0;
    cfg.faults.backoff_cap_s = 0.0;
    cfg.resilience.bisect_poison = false;
    LiveServingRuntime runtime(cfg, executor, &clock);

    Tensor poison(2, 4);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            poison(r, c) = PoisonExecutor::kPoison;
    auto fp = runtime.submit(poison);
    auto f1 = runtime.submit(requestTensor(2, 4, 21));
    ASSERT_TRUE(fp.has_value() && f1.has_value());
    EXPECT_EQ(fp->get().status, LiveRequestStatus::Failed);
    EXPECT_EQ(f1->get().status, LiveRequestStatus::Failed)
        << "without bisection one poison takes the innocents with it";
    runtime.drain();
    EXPECT_EQ(runtime.stats().bisections, 0u);
    EXPECT_EQ(runtime.stats().failed_requests, 2u);
}

// ---------------------------------------------------------------------
// Circuit breaker wired into the runtime.
// ---------------------------------------------------------------------

TEST(ServingLiveResilience, BreakerPinsTrafficDegradedThenRecovers)
{
    ManualClock clock;
    BreakableExecutor executor;
    executor.setBroken(true);
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    cfg.faults.max_retries = 1;
    cfg.faults.backoff_base_s = 0.0;
    cfg.faults.backoff_cap_s = 0.0;
    cfg.resilience.breaker.enabled = true;
    cfg.resilience.breaker.window = 4;
    cfg.resilience.breaker.min_samples = 2;
    cfg.resilience.breaker.failure_threshold = 0.5;
    cfg.resilience.breaker.open_cooldown_s = 1.0;
    cfg.resilience.breaker.half_open_probes = 1;
    cfg.resilience.breaker.half_open_successes = 1;
    LiveServingRuntime runtime(cfg, executor, &clock);

    // Two broken-primary batches trip the breaker (each fails its
    // primary attempt, then succeeds degraded on the retry ladder).
    for (int i = 0; i < 2; ++i) {
        auto f = runtime.submit(requestTensor(2, 4, 30 + i));
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(f->get().status, LiveRequestStatus::Completed);
    }
    EXPECT_EQ(runtime.breakerState(), BreakerState::Open);
    const std::size_t primary_before = executor.primaryCalls();

    // While open, batches short-circuit to the degraded path: no
    // primary attempt, no retry burned.
    auto f3 = runtime.submit(requestTensor(2, 4, 33));
    ASSERT_TRUE(f3.has_value());
    EXPECT_EQ(f3->get().status, LiveRequestStatus::Completed);
    EXPECT_EQ(executor.primaryCalls(), primary_before)
        << "open breaker must not touch the primary path";
    EXPECT_EQ(runtime.breakerState(), BreakerState::Open);

    // Cooldown elapses, the primary path heals, one probe closes it.
    clock.advance(1.1);
    executor.setBroken(false);
    auto f4 = runtime.submit(requestTensor(2, 4, 34));
    ASSERT_TRUE(f4.has_value());
    EXPECT_EQ(f4->get().status, LiveRequestStatus::Completed);
    EXPECT_EQ(runtime.breakerState(), BreakerState::Closed);
    EXPECT_GT(executor.primaryCalls(), primary_before);

    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.breaker_opens, 1u);
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_EQ(stats.degraded_batches, 2u)
        << "only the two pre-trip batches needed the retry ladder";
}

// ---------------------------------------------------------------------
// Admission shedding and overload control.
// ---------------------------------------------------------------------

TEST(ServingLiveResilience, ExpiredBudgetShedsAtAdmission)
{
    ManualClock clock;
    EchoExecutor executor;
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    LiveServingRuntime runtime(cfg, executor, &clock);

    // Budget 0: the deadline has already passed at admission. The
    // request must not consume a queue slot or batcher work.
    auto doomed = runtime.submit(requestTensor(2, 4, 40), 0,
                                 /*deadline_budget_s=*/0.0);
    ASSERT_TRUE(doomed.has_value())
        << "an admission shed still returns a (resolved) future";
    EXPECT_EQ(doomed->wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(doomed->get().status, LiveRequestStatus::Shed);

    auto healthy = runtime.submit(requestTensor(2, 4, 41));
    ASSERT_TRUE(healthy.has_value());
    EXPECT_EQ(healthy->get().status, LiveRequestStatus::Completed);

    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.shed_admission, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.rejected, 0u)
        << "a shed is a resolved outcome, not an admission rejection";
}

TEST(ServingLiveResilience, CodelShedsWhenQueueDelayDoomsBudget)
{
    ManualClock clock;
    EchoExecutor executor;
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    cfg.resilience.overload.admission_shedding = true;
    cfg.resilience.overload.assumed_batch_latency_s = 1.0;
    cfg.resilience.overload.shed_delay_factor = 1.0;
    LiveServingRuntime runtime(cfg, executor, &clock);

    // Even an idle runtime owes one batch service time (~1 s assumed):
    // a 0.9 s budget is doomed before it queues.
    EXPECT_DOUBLE_EQ(runtime.estimatedQueueDelayS(), 1.0);
    auto doomed = runtime.submit(requestTensor(2, 4, 50), 0, 0.9);
    ASSERT_TRUE(doomed.has_value());
    EXPECT_EQ(doomed->get().status, LiveRequestStatus::Shed);

    // A generous budget passes the same estimate.
    auto fine = runtime.submit(requestTensor(2, 4, 51), 0, 5.0);
    ASSERT_TRUE(fine.has_value());
    EXPECT_EQ(fine->get().status, LiveRequestStatus::Completed);

    runtime.drain();
    EXPECT_EQ(runtime.stats().shed_admission, 1u);

    // Control: with admission shedding off the same doomed budget is
    // admitted and only shed later, at dispatch.
    ManualClock clock2;
    EchoExecutor executor2;
    LiveServingConfig cfg2 = cfg;
    cfg2.resilience.overload.admission_shedding = false;
    LiveServingRuntime control(cfg2, executor2, &clock2);
    auto f = control.submit(requestTensor(2, 4, 52), 0, 0.9);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->get().status, LiveRequestStatus::Completed)
        << "without CoDel shedding the 0.9 s budget is admitted (and "
           "met, since virtual time never advances)";
    control.drain();
    EXPECT_EQ(control.stats().shed_admission, 0u);
}

TEST(ServingLiveResilience, AimdLimitRejectsFloodAndDecaysOnFailure)
{
    ManualClock clock;
    GateExecutor executor;
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    cfg.workers = 1;
    cfg.resilience.overload.aimd = true;
    cfg.resilience.overload.aimd_min_inflight = 1;
    cfg.resilience.overload.aimd_max_inflight = 2;
    LiveServingRuntime runtime(cfg, executor, &clock);

    auto a = runtime.submit(requestTensor(2, 4, 60));
    auto b = runtime.submit(requestTensor(2, 4, 61));
    ASSERT_TRUE(a.has_value() && b.has_value());
    auto c = runtime.submit(requestTensor(2, 4, 62));
    EXPECT_FALSE(c.has_value())
        << "third in-flight request exceeds the AIMD limit of 2";
    executor.release();
    EXPECT_EQ(a->get().status, LiveRequestStatus::Completed);
    EXPECT_EQ(b->get().status, LiveRequestStatus::Completed);
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.overload_rejected, 1u);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_DOUBLE_EQ(stats.inflight_limit, 2.0)
        << "clean batches keep the limit at its cap";

    // Multiplicative decrease on a failed batch.
    ManualClock clock2;
    NonStdThrowExecutor failing;
    LiveServingConfig cfg2 = cfg;
    cfg2.faults.max_retries = 0;
    LiveServingRuntime decay(cfg2, failing, &clock2);
    auto f = decay.submit(requestTensor(2, 4, 63));
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->get().status, LiveRequestStatus::Failed);
    decay.drain();
    EXPECT_DOUBLE_EQ(decay.stats().inflight_limit, 1.0)
        << "2 * aimd_decrease(0.5), floored at aimd_min_inflight";
}

// ---------------------------------------------------------------------
// Exception safety and chaos storms.
// ---------------------------------------------------------------------

TEST(ServingLiveResilience, NonStdExceptionStillResolvesEveryFuture)
{
    ManualClock clock;
    NonStdThrowExecutor executor;
    LiveServingConfig cfg;
    cfg.max_batch = 2;
    cfg.max_wait_s = 10.0;
    cfg.faults.max_retries = 1;
    cfg.faults.backoff_base_s = 0.0;
    cfg.faults.backoff_cap_s = 0.0;
    LiveServingRuntime runtime(cfg, executor, &clock);

    auto f1 = runtime.submit(requestTensor(2, 4, 70));
    auto f2 = runtime.submit(requestTensor(2, 4, 71));
    ASSERT_TRUE(f1.has_value() && f2.has_value());
    // get() must return (status Failed), not throw or hang on a
    // broken promise, even though the executor throws an int.
    EXPECT_EQ(f1->get().status, LiveRequestStatus::Failed);
    EXPECT_EQ(f2->get().status, LiveRequestStatus::Failed);
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    EXPECT_EQ(stats.failed_requests, 2u);
    // Both singletons bottomed out of bisection as "poisonous".
    EXPECT_EQ(stats.bisections, 1u);
    EXPECT_EQ(stats.poison_isolated, 2u);
}

TEST(ServingLiveResilience, ChaosExceptionStormConservesRequests)
{
    ManualClock clock;
    EchoExecutor executor;
    ChaosConfig chaos_cfg;
    chaos_cfg.seed = 99;
    chaos_cfg.exception_rate = 1.0;
    chaos_cfg.exceptions_primary_only = true;
    ChaosInjector chaos(chaos_cfg);
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    cfg.faults.max_retries = 1;
    cfg.faults.backoff_base_s = 0.0;
    cfg.faults.backoff_cap_s = 0.0;
    LiveServingRuntime runtime(cfg, executor, &clock, &chaos);

    constexpr std::size_t kRequests = 16;
    std::vector<std::future<LiveRequestResult>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
        auto f = runtime.submit(requestTensor(2, 4, 80 + i));
        ASSERT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, LiveRequestStatus::Completed)
            << "a primary-only storm always recovers on the fallback";
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    const std::size_t admitted = stats.submitted - stats.rejected;
    EXPECT_EQ(stats.completed + stats.timed_out + stats.shed +
                  stats.failed_requests,
              admitted)
        << "conservation invariant";
    EXPECT_EQ(stats.degraded_batches, kRequests)
        << "every batch needed its fallback retry";
    EXPECT_EQ(executor.degradedCalls(), kRequests);
}

TEST(ServingLiveResilience, HeartbeatLossStormStillConserves)
{
    // heartbeat_loss_rate=1 backdates every published heartbeat, so
    // the watchdog seizes healthy workers (false positives). Outcome
    // counts are racy by design; the conservation invariant and full
    // future resolution are not.
    ManualClock clock;
    EchoExecutor executor;
    ChaosConfig chaos_cfg;
    chaos_cfg.heartbeat_loss_rate = 1.0;
    ChaosInjector chaos(chaos_cfg);
    LiveServingConfig cfg;
    cfg.max_batch = 1;
    cfg.max_wait_s = 0.0;
    cfg.workers = 2;
    cfg.faults.backoff_base_s = 0.0;
    cfg.faults.backoff_cap_s = 0.0;
    cfg.resilience.watchdog.enabled = true;
    cfg.resilience.watchdog.expected_batch_latency_s = 1.0;
    cfg.resilience.watchdog.hang_timeout_factor = 2.0;
    cfg.resilience.watchdog.min_hang_timeout_s = 1e-3;
    cfg.resilience.watchdog.poll_slice_s = 1e-3;
    LiveServingRuntime runtime(cfg, executor, &clock, &chaos);

    constexpr std::size_t kRequests = 8;
    std::vector<std::future<LiveRequestResult>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
        auto f = runtime.submit(requestTensor(2, 4, 90 + i));
        ASSERT_TRUE(f.has_value());
        futures.push_back(std::move(*f));
    }
    std::size_t resolved = 0;
    for (auto &f : futures) {
        const LiveRequestResult r = f.get(); // must not hang or throw
        (void)r;
        ++resolved;
    }
    EXPECT_EQ(resolved, kRequests);
    runtime.drain();
    const LiveServingStats stats = runtime.stats();
    const std::size_t admitted = stats.submitted - stats.rejected;
    EXPECT_EQ(stats.completed + stats.timed_out + stats.shed +
                  stats.failed_requests,
              admitted);
}

TEST(ServingLiveResilience, ResilienceConfigValidation)
{
    LiveServingConfig cfg;
    cfg.resilience.watchdog.hang_timeout_factor = 0.0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = LiveServingConfig{};
    cfg.resilience.overload.aimd_decrease = 1.5;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = LiveServingConfig{};
    cfg.resilience.overload.aimd_max_inflight = 2;
    cfg.resilience.overload.aimd_min_inflight = 4;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

} // namespace
} // namespace pimdl
