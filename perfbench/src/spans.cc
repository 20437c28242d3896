#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
SpanLog::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.startNs = nowNs();
    spans_.push_back(s);
    int idx = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(idx);
    return idx;
}

void
SpanLog::close(int idx)
{
    spans_[static_cast<std::size_t>(idx)].endNs = nowNs();
    if (!stack_.empty() && stack_.back() == idx)
        stack_.pop_back();
}

void
SpanLog::absorb(const SpanLog &other, int parent)
{
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
        s.parent = s.parent < 0 ? parent : s.parent + base;
        spans_.push_back(s);
    }
}

double
SpanLog::total(const std::string &name) const
{
    double t = 0;
    for (const Span &s : spans_)
        if (name == s.name)
            t += s.seconds();
    return t;
}

double
SpanLog::self(const std::string &name) const
{
    double t = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (name == s.name)
            t += s.seconds();
        if (s.parent >= 0 &&
            name == spans_[static_cast<std::size_t>(s.parent)].name)
            t -= s.seconds();
    }
    return t;
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::vector<double> d;
    for (const Span &s : spans_)
        if (name == s.name)
            d.push_back(s.seconds());
    return d;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

} // namespace perfbench
