/**
 * @file
 * cold_compile: every program from an empty private .so cache to a
 * loaded shared object and its first verified output.
 *
 * Per program the timed region is frontend (for .str sources) →
 * vectorizer → native construction (emit, host compile, dlopen) →
 * init → a short first run → capture → bitwise check against the
 * bytecode-VM reference computed in set-up. Compile work dominates;
 * emitted code runs only enough iterations for ~8k output elements.
 * Outside that region, fresh instances of every suite program load
 * from the new cache and run warm timed windows: the steady-state
 * speed of the code this workload just compiled.
 */
#include <algorithm>
#include <cstdio>
#include <random>

#include "benchmarks/random_graph.h"
#include "codegen/emit_cpp.h"
#include "frontend/parser.h"
#include "native/native_engine.h"
#include "service/protocol.h"
#include "workloads.h"

using namespace macross;

namespace perfbench {

namespace {

/** Output elements each first run produces (at least). */
constexpr std::int64_t kFirstRunElements = 8192;
/** Warm-up and timed windows of a steady measurement, in output
 *  elements. The capture buffer doubles as it grows; once it holds at
 *  least as many elements as the timed windows add, it reallocates in
 *  at most one of them, and their median is a window that did not. */
constexpr std::int64_t kWarmUpElements = 32768;
constexpr std::int64_t kWindowElements = 8192;
constexpr int kWindows = 5;

struct Job {
    Program prog;
    Form form = Form::Macro;
    int iters = 1;
    /** VM output of init plus the first run's iterations. */
    std::vector<std::uint32_t> reference;
    std::string label() const
    {
        return prog.name + "/" + formName(form);
    }
};

/** Per-pass sums of the per-layer times and sizes. */
struct PassTotals {
    double wallS = 0;
    double parseMs = 0, vectorizeMs = 0, emitMs = 0, compileMs = 0,
           loadMs = 0;
    double sourceKb = 0, soKb = 0;
    int applied[4] = {0, 0, 0, 0};
    /** Steady ns/element per suite program and form. */
    std::map<std::string, double> steadyNs;
};

/** The inputs: suite in both forms, .str examples, random draws. */
std::vector<Job>
makeJobs(const Options& opt)
{
    std::vector<Job> jobs;
    std::vector<Program> suite = suitePrograms();
    if (opt.smoke)
        suite.resize(2);
    for (const Program& p : suite)
        for (Form f : {Form::Macro, Form::Autovec})
            jobs.push_back({p, f, 1, {}});
    for (const std::string& path : strExamplePaths()) {
        Program p;
        p.name = path.substr(path.rfind('/') + 1);
        p.origin = "str";
        p.source = readFile(path);
        jobs.push_back({p, Form::Macro, 1, {}});
    }
    // Random graphs vary rates, statefulness and split-join width.
    std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ull + 17);
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const int randomCount = opt.smoke ? 1 : 4;
    for (int i = 0; i < randomCount; ++i) {
        benchmarks::RandomGraphOptions ro;
        ro.maxPipelineLength = pick(3, 6);
        ro.maxRate = pick(2, 5);
        ro.allowStateful = pick(0, 1) == 1;
        ro.splitJoinLanes = pick(0, 1) == 1 ? 4 : 2;
        std::uint64_t seed = rng();
        Program p;
        p.name = "random-" + service::hex64(seed).substr(0, 8);
        p.origin = "random";
        p.stream = benchmarks::randomProgram(seed, ro);
        jobs.push_back({p, Form::Macro, 1, {}});
    }
    return jobs;
}

graph::StreamPtr
streamOf(const Program& p)
{
    return p.origin == "str" ? frontend::parseProgram(p.source) : p.stream;
}

/** Set-up: draw the inputs and compute every VM reference. */
std::vector<Job>
setUp(const Options& opt)
{
    ScopedSpan span("bench.setup");
    std::vector<Job> jobs = makeJobs(opt);
    for (Job& j : jobs) {
        vectorizer::CompiledProgram cp =
            compileForm(streamOf(j.prog), j.form);
        j.iters = itersForElements(cp, kFirstRunElements);
        j.reference = vmReference(cp, j.iters);
    }
    return jobs;
}

/**
 * Run @p j's first steady iterations on a loaded, initialized program
 * and check the whole capture against the VM reference.
 */
void
firstVerifiedOutput(native::NativeProgram& np, const Job& j, Result& res)
{
    timed("native.first_run", j.label(), nullptr,
          [&] { np.runSteady(j.iters); });
    std::vector<std::uint32_t> out =
        timed("native.capture", j.label(), nullptr,
              [&] { return rawLanes(np.captured()); });
    ScopedSpan verify("bench.verify", j.label());
    if (out != j.reference)
        res.fail(j.label() + ": native output differs from the bytecode "
                 "VM at lane " + std::to_string(commonPrefix(out, j.reference)) +
                 " of " + std::to_string(j.reference.size()));
}

/**
 * Steady-state ns/element of @p np (initialized, first run verified):
 * a warm-up, then the median of kWindows timed windows.
 */
double
steadyNsPerElement(native::NativeProgram& np,
                   const vectorizer::CompiledProgram& cp, const Job& j)
{
    ScopedSpan span("native.steady", j.label());
    np.runSteady(itersForElements(cp, kWarmUpElements));
    const int iters = itersForElements(cp, kWindowElements);
    std::vector<double> perElem;
    for (int w = 0; w < kWindows; ++w) {
        const std::size_t before = np.capturedSize();
        const Clock::time_point t0 = Clock::now();
        np.runSteady(iters);
        const double ns = secondsSince(t0) * 1e9;
        perElem.push_back(ns / static_cast<double>(np.capturedSize() - before));
    }
    return median(perElem);
}

/** One cold pass over all jobs into the empty cache @p cacheDir. */
PassTotals
coldPass(const std::vector<Job>& jobs, const std::string& cacheDir,
         int instances, Result& res)
{
    PassTotals t;
    native::NativeOptions nopts;
    nopts.cacheDir = cacheDir;
    for (const Job& j : jobs) {
        ++res.attempted;
        const Clock::time_point t0 = Clock::now();
        vectorizer::CompiledProgram cp;
        codegen::SimdSpec spec;
        spec.laneWidth = laneWidthFor(j.form);
        std::string soPath;
        {
            ScopedSpan root("program", j.label());
            graph::StreamPtr stream =
                j.prog.origin == "str"
                    ? timed("frontend.parse", j.label(), &t.parseMs,
                            [&] { return frontend::parseProgram(
                                      j.prog.source); })
                    : j.prog.stream;
            cp = timed("vectorizer.compile", j.label(), &t.vectorizeMs,
                       [&] { return compileForm(stream, j.form); });
            int loadSpan = Tracer::instance().begin("native.load",
                                                    j.label());
            const Clock::time_point c0 = Clock::now();
            auto np = std::make_unique<native::NativeProgram>(
                cp.graph, cp.schedule, nopts, spec);
            const double constructMs = secondsSince(c0) * 1e3;
            Tracer::instance().addChild(loadSpan, "native.host_compile",
                                        j.label(),
                                        np->stats().compileMillis);
            Tracer::instance().end(loadSpan);
            t.compileMs += np->stats().compileMillis;
            t.loadMs += constructMs - np->stats().compileMillis;
            soPath = np->stats().soPath;
            timed("native.init", j.label(), &t.loadMs, [&] { np->init(); });
            firstVerifiedOutput(*np, j, res);
            timed("native.unload", j.label(), nullptr, [&] { np.reset(); });
        }
        t.wallS += secondsSince(t0);
        if (j.prog.origin == "suite") {
            // One instance's speed depends on where the heap put its
            // tapes. A program's number is the median over a few fresh
            // instances loaded from the cache just filled, all alive at
            // once so that each gets its own placement.
            std::vector<std::unique_ptr<native::NativeProgram>> live;
            for (int i = 0; i < instances; ++i) {
                ++res.attempted;
                ScopedSpan span("bench.instance", j.label());
                live.push_back(std::make_unique<native::NativeProgram>(
                    cp.graph, cp.schedule, nopts, spec));
                live.back()->init();
                firstVerifiedOutput(*live.back(), j, res);
            }
            std::vector<double> runs;
            for (auto& np : live)
                runs.push_back(steadyNsPerElement(*np, cp, j));
            t.steadyNs[j.label()] = median(runs);
        }
        t.soKb += static_cast<double>(fileBytes(soPath)) / 1024.0;
        if (j.form == Form::Macro) {
            using report::TransformKind;
            t.applied[0] += cp.report.countKind(TransformKind::SingleActor);
            t.applied[1] +=
                cp.report.countKind(TransformKind::VerticalFusion);
            t.applied[2] += cp.report.countKind(TransformKind::Horizontal);
            for (const auto& d : cp.report.decisions)
                if (d.accepted &&
                    (d.inMode == report::TapeAccess::PermutedVector ||
                     d.outMode == report::TapeAccess::PermutedVector))
                    ++t.applied[3];
        }
        // Emit once more, outside the program's timed region, to give
        // the codegen layer its own number (the constructor's emit is
        // inside native.load).
        codegen::EmitOptions eo;
        eo.mode = codegen::EmitMode::Library;
        eo.simd.laneWidth = laneWidthFor(j.form);
        std::string src =
            timed("codegen.emit", j.label(), &t.emitMs,
                  [&] { return codegen::emitCpp(cp.graph, cp.schedule,
                                                eo); });
        t.sourceKb += static_cast<double>(src.size()) / 1024.0;
    }
    return t;
}

} // namespace

Result
runColdCompile(const Options& opt)
{
    Result res;

    // Set-up five times; the median is setup_s.
    std::vector<double> setups;
    std::vector<Job> jobs;
    for (int i = 0; i < 5; ++i) {
        const Clock::time_point t0 = Clock::now();
        jobs = setUp(opt);
        setups.push_back(secondsSince(t0));
    }
    res.metrics["setup_s"] = median(setups);

    // Cold passes until the time budget is used (at least one), each
    // into its own empty cache.
    std::vector<PassTotals> passes;
    std::string lastCache;
    const Clock::time_point start = Clock::now();
    do {
        lastCache = opt.runDir + "/cold-cache-" +
                    std::to_string(passes.size());
        makeDirs(lastCache);
        ScopedSpan span("bench.cold_pass");
        passes.push_back(coldPass(jobs, lastCache, opt.smoke ? 1 : 4, res));
    } while (!opt.trace && secondsSince(start) < opt.seconds);

    auto med = [&](auto field) {
        std::vector<double> v;
        for (const PassTotals& p : passes)
            v.push_back(field(p));
        return median(v);
    };
    res.metrics["cold_s_total"] = med([](const PassTotals& p) {
        return p.wallS;
    });
    for (Form f : {Form::Macro, Form::Autovec}) {
        std::vector<double> perProgram;
        for (const auto& [label, ns] : passes.front().steadyNs) {
            if (label.size() > 6 &&
                label.substr(label.rfind('/') + 1) == formName(f))
                perProgram.push_back(med([&](const PassTotals& p) {
                    return p.steadyNs.at(label);
                }));
        }
        res.metrics[std::string(formName(f)) + "_ns_per_elem"] =
            geomean(perProgram);
    }

    const PassTotals& p0 = passes.front();
    res.metrics["frontend.parse_ms"] = med([](const PassTotals& p) {
        return p.parseMs;
    });
    res.metrics["vectorizer.compile_ms"] = med([](const PassTotals& p) {
        return p.vectorizeMs;
    });
    res.metrics["codegen.emit_ms"] = med([](const PassTotals& p) {
        return p.emitMs;
    });
    res.metrics["native.host_compile_ms"] = med([](const PassTotals& p) {
        return p.compileMs;
    });
    res.metrics["native.load_ms"] = med([](const PassTotals& p) {
        return p.loadMs;
    });
    res.metrics["vectorizer.single_actor_applied"] = p0.applied[0];
    res.metrics["vectorizer.vertical_applied"] = p0.applied[1];
    res.metrics["vectorizer.horizontal_applied"] = p0.applied[2];
    res.metrics["vectorizer.permute_applied"] = p0.applied[3];
    res.metrics["codegen.source_kb"] = p0.sourceKb;
    res.metrics["native.so_kb"] = p0.soKb;

    macross::json::Value programs = macross::json::Value::array();
    for (const Job& j : jobs) {
        macross::json::Value v = macross::json::Value::object();
        v["program"] = j.prog.name;
        v["origin"] = j.prog.origin;
        v["form"] = formName(j.form);
        v["firstRunIterations"] = j.iters;
        programs.push(std::move(v));
    }
    res.details["programs"] = std::move(programs);
    res.details["coldPasses"] = static_cast<std::int64_t>(passes.size());
    macross::json::Value steady = macross::json::Value::object();
    for (const auto& [label, ns] : p0.steadyNs)
        steady[label] = ns;
    res.details["nsPerElement"] = std::move(steady);

    runServiceProbe(opt, lastCache, res);
    return res;
}

} // namespace perfbench
