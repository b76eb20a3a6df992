#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hh"

namespace mflstm {
namespace obs {

Histogram::Histogram(std::vector<double> edges)
    : edges_(std::move(edges)), buckets_(edges_.size() + 1, 0)
{
    if (edges_.empty())
        throw std::invalid_argument("Histogram: no bucket edges");
    if (!std::is_sorted(edges_.begin(), edges_.end()) ||
        std::adjacent_find(edges_.begin(), edges_.end()) != edges_.end())
        throw std::invalid_argument(
            "Histogram: edges must be strictly ascending");
}

std::vector<double>
Histogram::exponentialEdges(double lo, double hi, std::size_t count)
{
    if (lo <= 0.0 || hi <= lo || count < 2)
        throw std::invalid_argument("exponentialEdges: bad range");
    std::vector<double> edges(count);
    const double step =
        std::log(hi / lo) / static_cast<double>(count - 1);
    for (std::size_t i = 0; i < count; ++i)
        edges[i] = lo * std::exp(step * static_cast<double>(i));
    edges.back() = hi;  // exact despite rounding
    return edges;
}

void
Histogram::observe(double v)
{
    std::lock_guard<std::mutex> lock(mu_);
    // First bucket whose upper edge is >= v; past-the-end = overflow.
    const auto it = std::lower_bound(edges_.begin(), edges_.end(), v);
    ++buckets_[static_cast<std::size_t>(it - edges_.begin())];
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
}

std::uint64_t
Histogram::count() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
}

double
Histogram::sum() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
}

double
Histogram::min() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return min_;
}

double
Histogram::max() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return max_;
}

Histogram::Snapshot
Histogram::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Snapshot s;
    s.count = count_;
    s.sum = sum_;
    s.min = min_;
    s.max = max_;
    s.buckets = buckets_;
    return s;
}

double
Histogram::quantile(double q) const
{
    if (q < 0.0 || q > 1.0)
        throw std::invalid_argument("Histogram::quantile: q outside 0..1");
    const Snapshot s = snapshot();
    if (s.count == 0)
        return 0.0;

    const double rank = q * static_cast<double>(s.count);
    double seen = 0.0;
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
        const double in_bucket = static_cast<double>(s.buckets[i]);
        if (seen + in_bucket < rank || in_bucket == 0.0) {
            seen += in_bucket;
            continue;
        }
        if (i >= edges_.size())
            return edges_.back();  // overflow bucket clamps
        // Linear interpolation inside [lower, edges_[i]].
        const double hi = edges_[i];
        const double lo = i == 0 ? std::min(s.min, hi) : edges_[i - 1];
        const double frac =
            in_bucket > 0.0 ? (rank - seen) / in_bucket : 1.0;
        return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    return edges_.back();
}

namespace {

/** Canonical series key: labels sorted by name. */
SeriesKey
makeKey(const std::string &name, Labels labels)
{
    std::sort(labels.begin(), labels.end());
    return SeriesKey{name, std::move(labels)};
}

} // anonymous namespace

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return counter(name, {});
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return gauge(name, {});
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::vector<double> &edges)
{
    return histogram(name, {}, edges);
}

Counter &
MetricsRegistry::counter(const std::string &name, Labels labels)
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_[makeKey(name, std::move(labels))];
}

Gauge &
MetricsRegistry::gauge(const std::string &name, Labels labels)
{
    std::lock_guard<std::mutex> lock(mu_);
    return gauges_[makeKey(name, std::move(labels))];
}

Histogram &
MetricsRegistry::histogram(const std::string &name, Labels labels,
                           const std::vector<double> &edges)
{
    std::lock_guard<std::mutex> lock(mu_);
    SeriesKey key = makeKey(name, std::move(labels));
    const auto it = histograms_.find(key);
    if (it != histograms_.end())
        return it->second;
    return histograms_.try_emplace(std::move(key), edges)
        .first->second;
}

const Counter *
MetricsRegistry::findCounter(const std::string &name) const
{
    return findCounter(name, {});
}

const Gauge *
MetricsRegistry::findGauge(const std::string &name) const
{
    return findGauge(name, {});
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    return findHistogram(name, {});
}

const Counter *
MetricsRegistry::findCounter(const std::string &name,
                             Labels labels) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = counters_.find(makeKey(name, std::move(labels)));
    return it == counters_.end() ? nullptr : &it->second;
}

const Gauge *
MetricsRegistry::findGauge(const std::string &name, Labels labels) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = gauges_.find(makeKey(name, std::move(labels)));
    return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &name,
                               Labels labels) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = histograms_.find(makeKey(name, std::move(labels)));
    return it == histograms_.end() ? nullptr : &it->second;
}

bool
MetricsRegistry::empty() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.empty() && gauges_.empty() && histograms_.empty();
}

namespace {

/**
 * Display key for JSON/table dumps: bare name for the unlabeled
 * series, name{k="v",...} otherwise. JsonWriter escapes the whole key
 * string, so raw label values are safe here.
 */
std::string
displayKey(const SeriesKey &key)
{
    if (key.labels.empty())
        return key.name;
    std::string out = key.name;
    out.push_back('{');
    bool first = true;
    for (const auto &[k, v] : key.labels) {
        if (!first)
            out.push_back(',');
        first = false;
        out += k;
        out += "=\"";
        out += v;
        out.push_back('"');
    }
    out.push_back('}');
    return out;
}

} // anonymous namespace

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    JsonWriter w(os);
    w.beginObject();

    w.key("counters").beginObject();
    for (const auto &[key, c] : counters_)
        w.key(displayKey(key)).value(c.value());
    w.endObject();

    w.key("gauges").beginObject();
    for (const auto &[key, g] : gauges_)
        w.key(displayKey(key)).value(g.value());
    w.endObject();

    w.key("histograms").beginObject();
    for (const auto &[key, h] : histograms_) {
        const Histogram::Snapshot s = h.snapshot();
        w.key(displayKey(key)).beginObject();
        w.key("count").value(static_cast<std::uint64_t>(s.count));
        w.key("sum").value(s.sum);
        w.key("min").value(s.min);
        w.key("max").value(s.max);
        w.key("edges").beginArray();
        for (double e : h.edges())
            w.value(e);
        w.endArray();
        w.key("buckets").beginArray();
        for (std::uint64_t b : s.buckets)
            w.value(b);
        w.endArray();
        w.endObject();
    }
    w.endObject();

    w.endObject();
    os << '\n';
}

namespace {

/** Map an instrument name onto the Prometheus charset. */
std::string
promName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    if (out.empty() || (out.front() >= '0' && out.front() <= '9'))
        out.insert(out.begin(), '_');
    return out;
}

/** Prometheus renders numbers like Go's strconv: +Inf for infinity. */
std::string
promNumber(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0.0 ? "+Inf" : "-Inf";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/** Exposition-format label value escaping: backslash, quote, newline. */
std::string
promLabelValue(const std::string &v)
{
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"':  out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default:   out.push_back(c);
        }
    }
    return out;
}

/**
 * Label block for one series: `{k="v",...}` or empty. @p extra appends
 * one pre-rendered pair (the histogram `le` label) after the series
 * labels.
 */
std::string
promLabels(const Labels &labels, const std::string &extra = {})
{
    if (labels.empty() && extra.empty())
        return {};
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            out.push_back(',');
        first = false;
        out += promName(k);
        out += "=\"";
        out += promLabelValue(v);
        out.push_back('"');
    }
    if (!extra.empty()) {
        if (!first)
            out.push_back(',');
        out += extra;
    }
    out.push_back('}');
    return out;
}

} // anonymous namespace

void
MetricsRegistry::writePrometheus(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);

    // Map ordering sorts by name first, so every series of one family
    // is contiguous and one # TYPE line covers them all.
    std::string last;
    for (const auto &[key, c] : counters_) {
        const std::string n = promName(key.name);
        if (n != last)
            os << "# TYPE " << n << " counter\n";
        last = n;
        os << n << promLabels(key.labels) << " "
           << promNumber(c.value()) << "\n";
    }
    last.clear();
    for (const auto &[key, g] : gauges_) {
        const std::string n = promName(key.name);
        if (n != last)
            os << "# TYPE " << n << " gauge\n";
        last = n;
        os << n << promLabels(key.labels) << " "
           << promNumber(g.value()) << "\n";
    }
    last.clear();
    for (const auto &[key, h] : histograms_) {
        const std::string n = promName(key.name);
        const Histogram::Snapshot s = h.snapshot();
        if (n != last)
            os << "# TYPE " << n << " histogram\n";
        last = n;
        // Buckets are cumulative in the exposition format; the
        // internal representation is per-bucket.
        std::uint64_t cumulative = 0;
        const std::vector<double> &edges = h.edges();
        for (std::size_t i = 0; i < edges.size(); ++i) {
            cumulative += s.buckets[i];
            os << n << "_bucket"
               << promLabels(key.labels, "le=\"" +
                             promLabelValue(promNumber(edges[i])) + "\"")
               << " " << cumulative << "\n";
        }
        cumulative += s.buckets.back();  // overflow bucket
        os << n << "_bucket" << promLabels(key.labels, "le=\"+Inf\"")
           << " " << cumulative << "\n";
        os << n << "_sum" << promLabels(key.labels) << " "
           << promNumber(s.sum) << "\n";
        os << n << "_count" << promLabels(key.labels) << " "
           << s.count << "\n";
    }
}

std::string
MetricsRegistry::formatTable() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(3);

    std::size_t width = 0;
    for (const auto &[key, c] : counters_)
        width = std::max(width, displayKey(key).size());
    for (const auto &[key, g] : gauges_)
        width = std::max(width, displayKey(key).size());
    for (const auto &[key, h] : histograms_)
        width = std::max(width, displayKey(key).size());

    const auto pad = [&](const std::string &name) {
        os << "  " << name
           << std::string(width - name.size() + 2, ' ');
    };

    for (const auto &[key, c] : counters_) {
        pad(displayKey(key));
        os << "counter  " << c.value() << "\n";
    }
    for (const auto &[key, g] : gauges_) {
        pad(displayKey(key));
        os << "gauge    " << g.value() << "\n";
    }
    for (const auto &[key, h] : histograms_) {
        const Histogram::Snapshot s = h.snapshot();
        pad(displayKey(key));
        os << "hist     count=" << s.count << " sum=" << s.sum
           << " min=" << s.min << " max=" << s.max << "\n";
    }
    return os.str();
}

} // namespace obs
} // namespace mflstm
