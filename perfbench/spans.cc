#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench
{

std::uint32_t
SpanRecorder::add(std::string name, double start, double end,
                  std::uint32_t parent, std::uint64_t job, unsigned track)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.job = job;
    s.name = std::move(name);
    s.start = start;
    s.end = end;
    s.track = track;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::uint32_t
SpanRecorder::open(std::string name, std::uint32_t parent)
{
    const double t = now();
    return add(std::move(name), t, t, parent);
}

void
SpanRecorder::close(std::uint32_t id)
{
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(id - 1).end = t;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, double>
SpanRecorder::layerSelfSeconds() const
{
    const std::vector<Span> all = spans();
    std::vector<std::vector<std::pair<double, double>>> children(
        all.size() + 1);
    for (const Span &s : all)
        children[s.parent].emplace_back(s.start, s.end);

    std::map<std::string, double> self;
    for (const Span &s : all) {
        // Union of the children's intervals, clipped to this span.
        auto &kids = children[s.id];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start;
        for (const auto &[a, b] : kids) {
            const double lo = std::max(a, reach);
            const double hi = std::min(b, s.end);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        const std::string layer = s.name.substr(0, s.name.find('.'));
        self[layer] += std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

void
SpanRecorder::writeChromeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write span file " + path);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    char buf[96];
    for (const Span &s : spans()) {
        os << (first ? "" : ",\n");
        first = false;
        std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f",
                      s.start * 1e6, (s.end - s.start) * 1e6);
        os << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", " << buf
           << ", \"pid\": 1, \"tid\": " << s.track
           << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
           << ", \"job\": " << s.job << "}}";
    }
    os << "\n]}\n";
    if (!os)
        throw std::runtime_error("error writing span file " + path);
}

} // namespace perfbench
