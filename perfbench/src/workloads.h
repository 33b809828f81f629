/**
 * @file
 * The benchmark's workloads (see README.md for why each exists).
 */
#pragma once

#include <string>

#include "common.h"
#include "trace.h"

namespace perfbench {

/** Empty private .so cache → loaded shared object and first verified
 *  output, for the suite (both Fig. 10a forms), the .str examples and
 *  a seeded draw of random graphs. */
Result runColdCompile(const Options& opt);

/** Warm set-up, then long steady-state runs of every suite program as
 *  macro-SIMD, auto-vectorized scalar, and partitioned at 2/4 threads. */
Result runSuiteSteady(const Options& opt);

/** In-process macrossd under an open-loop, seeded Poisson mix that
 *  steps through a ladder of rates. */
Result runServiceOpen(const Options& opt);

/**
 * The short open-loop phase every other workload ends with: warm
 * tenants over programs the workload already compiled into
 * @p cacheDir, at the service workload's nominal rate. Fills the
 * request-latency metrics and the service per-layer metrics.
 */
void runServiceProbe(const Options& opt, const std::string& cacheDir,
                     Result& res);

/** Time @p f into @p ms (accumulated) inside a span named @p name. */
template <class F>
auto
timed(const char* name, const std::string& tag, double* ms, F&& f)
{
    struct Acc {
        double* ms;
        Clock::time_point t0 = Clock::now();
        ~Acc()
        {
            if (ms)
                *ms += secondsSince(t0) * 1e3;
        }
    };
    ScopedSpan span(name, tag);
    Acc acc{ms};
    return f();
}

} // namespace perfbench
