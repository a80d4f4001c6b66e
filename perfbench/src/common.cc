#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/rng.h"
#include "obs/trace.h"

namespace perfbench {

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::uint64_t
stealTicks()
{
    std::ifstream in("/proc/stat");
    std::string label;
    // cpu user nice system idle iowait irq softirq steal ...
    if (!(in >> label) || label != "cpu")
        return 0;
    std::uint64_t field = 0;
    for (int i = 0; i < 8; ++i)
        if (!(in >> field))
            return 0;
    return field;
}

pimdl::Tensor
gaussian(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    pimdl::Rng rng(seed);
    pimdl::Tensor t(rows, cols);
    t.fillGaussian(rng);
    return t;
}

bool
sameBits(const pimdl::Tensor &a, const pimdl::Tensor &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

pimdl::FunctionalTransformerConfig
functionalConfig(std::size_t hidden, std::size_t ffn, std::size_t layers,
                 std::size_t heads)
{
    pimdl::FunctionalTransformerConfig cfg;
    cfg.hidden = hidden;
    cfg.ffn = ffn;
    cfg.layers = layers;
    cfg.heads = heads;
    cfg.subvec_len = 4;
    cfg.centroids = 16;
    return cfg;
}

double
Samples::quantile(double q) const
{
    if (v_.empty())
        return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double rank = std::clamp(q, 0.0, 1.0) *
                        static_cast<double>(s.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (rank - static_cast<double>(lo));
}

double
Samples::tailPercentile() const
{
    const double n = static_cast<double>(v_.size());
    for (double p : {99.0, 95.0, 90.0, 75.0})
        if (n * (100.0 - p) / 100.0 >= 10.0)
            return p;
    if (v_.size() <= 10)
        return 0.0;
    return 100.0 * (n - 11.0) / (n - 1.0);
}

double
Samples::tail() const
{
    return quantile(tailPercentile() / 100.0);
}

void
StealTaggedSamples::add(double seconds, std::uint64_t steal_ticks)
{
    all_.add(seconds);
    steal_.push_back(steal_ticks);
}

std::size_t
StealTaggedSamples::stealFree() const
{
    return static_cast<std::size_t>(
        std::count(steal_.begin(), steal_.end(), std::uint64_t{0}));
}

double
StealTaggedSamples::median() const
{
    std::vector<std::size_t> order(steal_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return steal_[a] < steal_[b];
                     });
    const std::size_t keep =
        std::max({stealFree(), order.size() / 4, std::size_t{1}});
    Samples kept;
    for (std::size_t i = 0; i < keep && i < order.size(); ++i)
        kept.add(all_.values()[order[i]]);
    return kept.median();
}

void
RunResult::add(const std::string &name, double value,
               const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
RunResult::fail(const std::string &why)
{
    ++failed;
    // Keep the log readable when a defect repeats on every operation.
    if (violations.size() < 20)
        violations.push_back(why);
}

void
RunResult::addLatency(const std::string &prefix, const StealTaggedSamples &s,
                      const std::string &stem, const std::string &suffix)
{
    const Samples &all = s.all();
    add(prefix + "_ms_p50", s.median() * 1e3, "ms");
    named.push_back({stem + "_p50" + suffix, all.median() * 1e3, "ms"});
    named.push_back({stem + "_tail" + suffix, all.tail() * 1e3, "ms"});
    named.push_back(
        {stem + "_p50_steal_free" + suffix, s.median() * 1e3, "ms"});
    std::ostringstream note;
    note << "n=" << all.size() << " steal_free=" << s.stealFree()
         << " tail=p" << all.tailPercentile();
    info[prefix] = note.str();
}

void
SpanLog::add(const std::string &name, double seconds)
{
    spans_[name] += seconds;
}

double
SpanLog::seconds(const std::string &name) const
{
    auto it = spans_.find(name);
    return it == spans_.end() ? 0.0 : it->second;
}

double
SpanLog::total() const
{
    double t = 0.0;
    for (const auto &[name, s] : spans_)
        t += s;
    return t;
}

void
setProgramTracing(bool on)
{
    pimdl::obs::Tracer::instance().setEnabled(on);
}

void
sizeProgramTracer(std::size_t capacity)
{
    pimdl::obs::Tracer::instance().setCapacity(capacity);
}

ProgramSpans
takeProgramSpans()
{
    pimdl::obs::Tracer &tracer = pimdl::obs::Tracer::instance();
    if (tracer.dropped() != 0)
        throw std::runtime_error("program tracer dropped " +
                                 std::to_string(tracer.dropped()) + " spans");
    ProgramSpans out;
    for (const pimdl::obs::TraceEvent &ev : tracer.events()) {
        out.seconds[ev.name] += static_cast<double>(ev.dur_us) * 1e-6;
        ++out.calls[ev.name];
    }
    tracer.clear();
    return out;
}

std::uint64_t
programCounter(const std::string &name)
{
    return pimdl::obs::MetricsRegistry::instance().counter(name).value();
}

pimdl::obs::HistogramSnapshot
programHistogram(const std::string &name)
{
    return pimdl::obs::MetricsRegistry::instance().histogram(name).snapshot();
}

double
parallelUtilizationP50()
{
    return pimdl::obs::MetricsRegistry::instance()
        .histogram("parallel.worker_utilization")
        .percentile(0.5);
}

void
resetProgramMetrics()
{
    pimdl::obs::MetricsRegistry::instance().reset();
}

} // namespace perfbench
