/**
 * @file
 * In-memory spans for the benchmark's traced mode.
 *
 * The benchmark records a span around each call it makes into a
 * library layer (name = "<layer>.<what>", e.g. "native.load"), with
 * the span that caused it as parent and the program or request it
 * belongs to as tag. Spans stay in memory and are written once, at
 * exit, as Chrome trace-event JSON (load it in chrome://tracing or
 * Perfetto). A layer's self time is its spans' durations minus the
 * parts covered by child spans on the same thread.
 *
 * When tracing is off every call is a cheap no-op, so untraced runs —
 * the only ones end-to-end metrics come from — pay nothing.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
    std::string name;
    std::string tag;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
    int thread = 0;
};

class Tracer {
  public:
    static Tracer& instance();

    void enable() { enabled_ = true; }
    bool enabled() const { return enabled_; }

    /** Open a span; its parent is this thread's innermost open span,
     *  or @p parent when given (for work handed to another thread). */
    int begin(const std::string& name, const std::string& tag,
              int parent = -2);
    void end(int id);
    /** Record a span whose length is known but whose position inside
     *  @p parent is not (placed at the parent's start). */
    void addChild(int parent, const std::string& name,
                  const std::string& tag, double millis);
    /** Record a finished span at an explicit time (steady clock). */
    void add(int parent, const std::string& name, const std::string& tag,
             std::chrono::steady_clock::time_point start,
             std::chrono::steady_clock::time_point end);
    /** Innermost open span on this thread (-1 if none). */
    int current() const;

    std::vector<Span> spans() const;

    /** Self time per span id, in milliseconds. */
    std::vector<double> selfMillis() const;

    /**
     * For every root span named @p root: the share of its duration
     * covered by the self time of its descendants. The minimum over
     * roots is the "layers add up to the wall" check.
     */
    double minCoverage(const std::string& root) const;

    /** Write all spans as Chrome trace-event JSON. */
    void writeChrome(const std::string& path,
                     const std::string& metadataJson) const;

  private:
    bool enabled_ = false;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op when tracing is off. */
class ScopedSpan {
  public:
    ScopedSpan(const std::string& name, const std::string& tag = "",
               int parent = -2);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int id() const { return id_; }

  private:
    int id_ = -1;
};

} // namespace perfbench
