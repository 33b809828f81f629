#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "support/json.h"

namespace perfbench {

namespace {

std::int64_t
toNs(std::chrono::steady_clock::time_point t)
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
}

std::int64_t
nowNs()
{
    return toNs(std::chrono::steady_clock::now());
}

int
threadIndex()
{
    static std::mutex mu;
    static std::map<std::thread::id, int> ids;
    thread_local int idx = [] {
        std::lock_guard<std::mutex> lk(mu);
        return ids.emplace(std::this_thread::get_id(),
                           static_cast<int>(ids.size()))
            .first->second;
    }();
    return idx;
}

thread_local std::vector<int> openSpans;

} // namespace

Tracer&
Tracer::instance()
{
    static Tracer t;
    return t;
}

int
Tracer::begin(const std::string& name, const std::string& tag,
              int parent)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.tag = tag;
    s.parent = parent != -2 ? parent : current();
    s.thread = threadIndex();
    s.startNs = nowNs();
    int id;
    {
        std::lock_guard<std::mutex> lk(mu_);
        id = static_cast<int>(spans_.size());
        spans_.push_back(std::move(s));
    }
    openSpans.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (!enabled_ || id < 0)
        return;
    std::int64_t t = nowNs();
    {
        std::lock_guard<std::mutex> lk(mu_);
        spans_[static_cast<std::size_t>(id)].endNs = t;
    }
    if (!openSpans.empty() && openSpans.back() == id)
        openSpans.pop_back();
}

void
Tracer::addChild(int parent, const std::string& name,
                 const std::string& tag, double millis)
{
    if (!enabled_ || parent < 0)
        return;
    std::lock_guard<std::mutex> lk(mu_);
    Span s;
    s.name = name;
    s.tag = tag;
    s.parent = parent;
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    s.thread = p.thread;
    s.startNs = p.startNs;
    s.endNs = p.startNs + static_cast<std::int64_t>(millis * 1e6);
    spans_.push_back(std::move(s));
}

void
Tracer::add(int parent, const std::string& name, const std::string& tag,
            std::chrono::steady_clock::time_point start,
            std::chrono::steady_clock::time_point end)
{
    if (!enabled_)
        return;
    Span s;
    s.name = name;
    s.tag = tag;
    s.parent = parent;
    s.thread = threadIndex();
    s.startNs = toNs(start);
    s.endNs = toNs(end);
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
}

int
Tracer::current() const
{
    return openSpans.empty() ? -1 : openSpans.back();
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

std::vector<double>
Tracer::selfMillis() const
{
    std::vector<Span> all = spans();
    std::vector<double> self(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        self[i] = static_cast<double>(all[i].endNs - all[i].startNs) / 1e6;
    // Children on the parent's own thread are nested inside it; work
    // handed to other threads overlaps it and is not subtracted.
    for (const Span& s : all) {
        if (s.parent >= 0 &&
            all[static_cast<std::size_t>(s.parent)].thread == s.thread)
            self[static_cast<std::size_t>(s.parent)] -=
                static_cast<double>(s.endNs - s.startNs) / 1e6;
    }
    return self;
}

double
Tracer::minCoverage(const std::string& root) const
{
    std::vector<Span> all = spans();
    std::vector<double> self = selfMillis();
    std::vector<std::vector<int>> children(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        if (all[i].parent >= 0)
            children[static_cast<std::size_t>(all[i].parent)].push_back(
                static_cast<int>(i));
    std::function<double(int)> descendantsSelf = [&](int id) {
        double sum = 0.0;
        for (int c : children[static_cast<std::size_t>(id)])
            sum += self[static_cast<std::size_t>(c)] + descendantsSelf(c);
        return sum;
    };
    double worst = 0.0;
    bool any = false;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i].name != root)
            continue;
        double wall = static_cast<double>(all[i].endNs - all[i].startNs) /
                      1e6;
        if (wall <= 0)
            continue;
        double cov = descendantsSelf(static_cast<int>(i)) / wall;
        worst = any ? std::min(worst, cov) : cov;
        any = true;
    }
    return worst;
}

void
Tracer::writeChrome(const std::string& path,
                    const std::string& metadataJson) const
{
    using macross::json::Value;
    std::vector<Span> all = spans();
    Value events = Value::array();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        Value e = Value::object();
        e["name"] = s.name;
        e["cat"] = s.name.substr(0, s.name.find('.'));
        e["ph"] = "X";
        e["pid"] = 1;
        e["tid"] = s.thread;
        e["ts"] = static_cast<double>(s.startNs) / 1e3;
        e["dur"] = static_cast<double>(s.endNs - s.startNs) / 1e3;
        Value args = Value::object();
        args["id"] = static_cast<std::int64_t>(i);
        args["parent"] = s.parent;
        if (!s.tag.empty())
            args["tag"] = s.tag;
        e["args"] = std::move(args);
        events.push(std::move(e));
    }
    Value root = Value::object();
    root["traceEvents"] = std::move(events);
    root["displayTimeUnit"] = "ms";
    root["metadata"] = macross::json::parse(metadataJson);
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << root.dump() << "\n";
}

ScopedSpan::ScopedSpan(const std::string& name, const std::string& tag,
                       int parent)
    : id_(Tracer::instance().begin(name, tag, parent))
{
}

ScopedSpan::~ScopedSpan()
{
    Tracer::instance().end(id_);
}

} // namespace perfbench
