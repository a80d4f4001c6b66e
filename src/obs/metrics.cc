#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "json.h"

namespace pimdl {
namespace obs {

Histogram::Histogram(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
    samples_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void
Histogram::record(double sample)
{
    MutexLock guard(mutex_);
    if (count_ == 0) {
        min_ = sample;
        max_ = sample;
    } else {
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }
    sum_ += sample;
    if (samples_.size() < capacity_) {
        samples_.push_back(sample);
    } else {
        // Keyed reservoir: a cheap deterministic hash of the arrival
        // index spreads replacements across the buffer, so the retained
        // set stays a representative mix of old and new samples.
        const std::uint64_t slot = (count_ * 2654435761ULL) % capacity_;
        samples_[static_cast<std::size_t>(slot)] = sample;
    }
    ++count_;
}

double
Histogram::percentileLocked(std::vector<double> sorted, double p) const
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    p = std::min(1.0, std::max(0.0, p));
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double
Histogram::percentile(double p) const
{
    MutexLock guard(mutex_);
    return percentileLocked(samples_, p);
}

HistogramSnapshot
Histogram::snapshot() const
{
    MutexLock guard(mutex_);
    HistogramSnapshot s;
    s.count = count_;
    s.sum = sum_;
    s.min = min_;
    s.max = max_;
    s.mean = count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    auto pct = [&](double p) {
        if (sorted.empty())
            return 0.0;
        const double rank = p * static_cast<double>(sorted.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(rank);
        const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
        const double frac = rank - static_cast<double>(lo);
        return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
    };
    s.p50 = pct(0.50);
    s.p95 = pct(0.95);
    s.p99 = pct(0.99);
    return s;
}

std::uint64_t
Histogram::count() const
{
    MutexLock guard(mutex_);
    return count_;
}

void
Histogram::reset()
{
    MutexLock guard(mutex_);
    samples_.clear();
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry(metrics::kDeclared);
    return registry;
}

MetricsRegistry::MetricsRegistry(std::span<const MetricDef> declared)
{
    for (const MetricDef &def : declared)
        if (!declared_.emplace(def.name, def).second)
            throw std::logic_error(std::string("metric '") + def.name +
                                   "' is declared twice");
}

namespace {

/** The metric @p name in @p metrics, created on first lookup once the
 * declaration table confirms the name and its kind. */
template <typename Metric>
Metric &
findOrCreate(std::map<std::string, std::unique_ptr<Metric>> &metrics,
             const std::map<std::string, MetricDef> &declared,
             const std::string &name, MetricKind kind)
{
    auto it = metrics.find(name);
    if (it != metrics.end())
        return *it->second;
    const auto row = declared.find(name);
    if (row == declared.end())
        throw std::logic_error("metric '" + name +
                               "' is not declared in obs/schema.h");
    if (row->second.kind != kind)
        throw std::logic_error(
            "metric '" + name + "' is declared as a " +
            metricKindName(row->second.kind) + ", not a " +
            metricKindName(kind));
    return *metrics.emplace(name, std::make_unique<Metric>())
                .first->second;
}

} // namespace

Counter &
MetricsRegistry::counter(const std::string &name)
{
    MutexLock guard(mutex_);
    return findOrCreate(counters_, declared_, name, MetricKind::Counter);
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    MutexLock guard(mutex_);
    return findOrCreate(gauges_, declared_, name, MetricKind::Gauge);
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    MutexLock guard(mutex_);
    return findOrCreate(histograms_, declared_, name,
                        MetricKind::Histogram);
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counters() const
{
    MutexLock guard(mutex_);
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto &[name, c] : counters_)
        out.emplace_back(name, c->value());
    return out;
}

std::vector<std::pair<std::string, double>>
MetricsRegistry::gauges() const
{
    MutexLock guard(mutex_);
    std::vector<std::pair<std::string, double>> out;
    out.reserve(gauges_.size());
    for (const auto &[name, g] : gauges_)
        out.emplace_back(name, g->value());
    return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
MetricsRegistry::histograms() const
{
    MutexLock guard(mutex_);
    std::vector<std::pair<std::string, HistogramSnapshot>> out;
    out.reserve(histograms_.size());
    for (const auto &[name, h] : histograms_)
        out.emplace_back(name, h->snapshot());
    return out;
}

void
MetricsRegistry::reset()
{
    MutexLock guard(mutex_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

std::string
MetricsRegistry::toJson() const
{
    const auto cs = counters();
    const auto gs = gauges();
    const auto hs = histograms();

    std::ostringstream out;
    out << "{\"counters\":{";
    for (std::size_t i = 0; i < cs.size(); ++i) {
        if (i)
            out << ",";
        out << jsonString(cs[i].first) << ":" << cs[i].second;
    }
    out << "},\"gauges\":{";
    for (std::size_t i = 0; i < gs.size(); ++i) {
        if (i)
            out << ",";
        out << jsonString(gs[i].first) << ":" << jsonNumber(gs[i].second);
    }
    out << "},\"histograms\":{";
    for (std::size_t i = 0; i < hs.size(); ++i) {
        if (i)
            out << ",";
        const HistogramSnapshot &s = hs[i].second;
        out << jsonString(hs[i].first) << ":{"
            << "\"count\":" << s.count << ",\"sum\":" << jsonNumber(s.sum)
            << ",\"min\":" << jsonNumber(s.min)
            << ",\"max\":" << jsonNumber(s.max)
            << ",\"mean\":" << jsonNumber(s.mean)
            << ",\"p50\":" << jsonNumber(s.p50)
            << ",\"p95\":" << jsonNumber(s.p95)
            << ",\"p99\":" << jsonNumber(s.p99) << "}";
    }
    out << "},\"declared\":{";
    bool first = true;
    for (const auto &[name, def] : declared_) {
        out << (first ? "" : ",") << jsonString(name) << ":{\"kind\":"
            << jsonString(metricKindName(def.kind))
            << ",\"unit\":" << jsonString(def.unit)
            << ",\"gate\":" << jsonString(metricGateName(def.gate))
            << ",\"help\":" << jsonString(def.help) << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}

} // namespace obs
} // namespace pimdl
