/**
 * @file
 * Shared pieces of the MacroSS benchmark driver: options, the result
 * every workload fills, the metric tables (names and units, mirrored
 * by BENCHMARK.json), small statistics helpers, and the calls into the
 * library that more than one workload makes (compiling a program in
 * the two forms the paper compares, the bytecode-VM reference, the
 * modeled cycle count).
 *
 * Everything here runs in the benchmark's own process; the library is
 * used only through its public headers.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/stream.h"
#include "interp/value.h"
#include "support/json.h"
#include "vectorizer/pipeline.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Command-line options (see main.cpp for the flags). */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    /** Tiny configuration for the self-check: few programs, short
     *  phases. Same code paths as a full run. */
    bool smoke = false;
    /** Private per-run scratch directory (caches, socket). */
    std::string runDir;
    /** Where traces and detailed results are written. */
    std::string outDir;
};

/** What one workload run produces. */
struct Result {
    std::map<std::string, double> metrics;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    /** First few failure messages (all are counted in `failed`). */
    std::vector<std::string> failures;
    /** Detailed tables for the results file (not the summary line). */
    macross::json::Value details = macross::json::Value::object();

    void fail(const std::string& msg);
};

/** One metric as BENCHMARK.json names it. */
struct MetricSpec {
    std::string name;
    std::string unit;
};

/** End-to-end metrics, printed by untraced runs. */
const std::vector<MetricSpec>& endToEndMetrics();
/** Per-layer metrics, printed by traced runs. */
const std::vector<MetricSpec>& perLayerMetrics();

// ---- statistics -------------------------------------------------------

double median(std::vector<double> v);
/** Linear-interpolated quantile, @p q in [0, 1]. */
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);
/** Spearman rank correlation (average ranks for ties). */
double spearman(const std::vector<double>& a,
                const std::vector<double>& b);

// ---- programs -----------------------------------------------------------

/** A program the workloads compile, with where it came from. */
struct Program {
    std::string name;
    /** "suite", "str" (parsed by the frontend) or "random". */
    std::string origin;
    /** .str source text (origin "str" only). */
    std::string source;
    macross::graph::StreamPtr stream;
};

/** The 12-program suite of Figs. 10-13, in paper order. */
std::vector<Program> suitePrograms();
/** Names of the suite programs, in paper order. */
const std::vector<std::string>& suiteNames();

/** `.str` example files under examples/programs, sorted by name. */
std::vector<std::string> strExamplePaths();
std::string readFile(const std::string& path);

/** The two forms Fig. 10a compares. */
enum class Form { Macro, Autovec };
const char* formName(Form f);

/**
 * Compile @p stream in @p form: macro-SIMDized with the default
 * options, or the scalar graph (which the native engine emits at
 * W=1 and the host compiler auto-vectorizes).
 */
macross::vectorizer::CompiledProgram compileForm(
    const macross::graph::StreamPtr& stream, Form form);

/** SIMD lane width the native engine emits for @p form. */
int laneWidthFor(Form form);

/** Steady iterations that produce at least @p elements. */
int itersForElements(const macross::vectorizer::CompiledProgram& p,
                     std::int64_t elements);

/** Raw 32-bit lanes of a captured stream, in stream order. */
std::vector<std::uint32_t> rawLanes(
    const std::vector<macross::interp::Value>& values);

/**
 * Bytecode-VM reference: init plus @p iters steady iterations of
 * @p p, as raw lanes (what every native output is compared against).
 */
std::vector<std::uint32_t> vmReference(
    const macross::vectorizer::CompiledProgram& p, int iters);

/** Length of the longest common prefix of @p a and @p b. */
std::size_t commonPrefix(const std::vector<std::uint32_t>& a,
                         const std::vector<std::uint32_t>& b);

/**
 * Modeled steady-state cycles per sink element on the bytecode VM
 * with a CostSink, optionally with the GCC-like auto-vectorizer model
 * applied (the Fig. 10a baseline). Deterministic.
 */
double modeledCyclesPerElement(
    const macross::vectorizer::CompiledProgram& p, bool gccAutovec);

// ---- host ----------------------------------------------------------------

/** Peak resident set of this process, in MiB. */
double peakRssMb();
/** Hardware threads available (>= 1). */
int hostThreads();
/** Size of a file in bytes (0 if missing). */
std::int64_t fileBytes(const std::string& path);
/** Create @p path (and parents) with mode 0700. */
void makeDirs(const std::string& path);

} // namespace perfbench
