#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <fstream>

namespace hostbench {

namespace {

thread_local std::int64_t tlParent = -1;

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local const int index = next++;
    return index;
}

} // anonymous namespace

SpanRecorder::Scope::Scope(SpanRecorder *rec, const char *layer,
                           const char *name, std::uint64_t request_id)
    : rec_(rec)
{
    if (!rec_)
        return;
    SpanRecord s;
    s.name = name;
    s.layer = layer;
    s.parent = tlParent;
    s.requestId = request_id;
    s.thread = threadIndex();
    s.startUs = rec_->nowUs();
    savedParent_ = tlParent;
    index_ = rec_->add(std::move(s));
    tlParent = index_;
}

SpanRecorder::Scope::~Scope()
{
    if (!rec_)
        return;
    const double end = rec_->nowUs();
    {
        std::lock_guard<std::mutex> lk(rec_->mu_);
        rec_->spans_[static_cast<std::size_t>(index_)].endUs = end;
    }
    tlParent = savedParent_;
}

std::int64_t
SpanRecorder::add(SpanRecord span)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::size_t
SpanRecorder::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

std::map<std::string, double>
SpanRecorder::selfMsByLayer(double from_us) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].endUs - spans_[i].startUs;
    for (const SpanRecord &s : spans_) {
        if (s.parent < 0)
            continue;
        const SpanRecord &p = spans_[static_cast<std::size_t>(s.parent)];
        const double covered = std::min(s.endUs, p.endUs) -
                               std::max(s.startUs, p.startUs);
        if (covered > 0.0)
            self[static_cast<std::size_t>(s.parent)] -= covered;
    }
    std::map<std::string, double> out;
    for (const char *layer : kLayers)
        out[layer] = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].startUs >= from_us)
            out[spans_[i].layer] += std::max(self[i], 0.0) / 1000.0;
    }
    return out;
}

std::vector<double>
SpanRecorder::durationsMs(const std::string &name, double from_us) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (const SpanRecord &s : spans_) {
        if (s.name == name && s.startUs >= from_us)
            out.push_back((s.endUs - s.startUs) / 1000.0);
    }
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
           << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":1"
           << ",\"tid\":" << s.thread << ",\"ts\":" << s.startUs
           << ",\"dur\":" << (s.endUs - s.startUs)
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"request\":" << s.requestId << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace hostbench
