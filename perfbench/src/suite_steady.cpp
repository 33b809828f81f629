/**
 * @file
 * suite_steady: warm set-up, then long steady-state runs of every
 * suite program in the forms the paper compares.
 *
 *   macro   macro-SIMDized graph, emitted at the default lane width
 *   autovec scalar graph emitted at W=1 and left to the host
 *           compiler's -O3 auto-vectorizer (the Fig. 10a baseline)
 *   t1/t2/t4 the macro graph on the partitioned native runtime at
 *           1, 2 and 4 threads (t1 only in traced runs)
 *
 * Each run starts from an empty private .so cache: the first set-up
 * compiles every form in parallel (its wall time is cold_s_total
 * here), five more set-ups load from the now-warm cache (their
 * median is setup_s), and the last one's loaded programs start the
 * measured rounds. The seed rotates program order.
 */
#include <algorithm>
#include <atomic>
#include <thread>

#include "codegen/emit_cpp.h"
#include "interp/parallel_runner.h"
#include "machine/cost_sink.h"
#include "multicore/partition.h"
#include "native/native_engine.h"
#include "workloads.h"

using namespace macross;

namespace perfbench {

namespace {

enum class SForm { Macro, Autovec, T1, T2, T4 };

const char*
name(SForm f)
{
    switch (f) {
      case SForm::Macro: return "macro";
      case SForm::Autovec: return "autovec";
      case SForm::T1: return "t1";
      case SForm::T2: return "t2";
      case SForm::T4: return "t4";
    }
    return "?";
}

int
threadsOf(SForm f)
{
    return f == SForm::T1 ? 1 : f == SForm::T2 ? 2 : f == SForm::T4 ? 4 : 0;
}

/** Warm-up and timed windows, in output elements. The capture buffer
 *  doubles as it grows; once it holds at least as many elements as the
 *  timed windows add, it reallocates in at most one of them, and their
 *  median is a window that did not. */
constexpr std::int64_t kWarmUpElements = 40960;
constexpr std::int64_t kWindowElements = 8192;
constexpr int kWindows = 5;
/** Output elements the VM reference covers. */
constexpr std::int64_t kReferenceElements = 2048;

/** Compiled forms, partitions and VM reference of one program. */
struct Prepared {
    std::string name;
    vectorizer::CompiledProgram macro, scalar;
    std::map<int, multicore::Partition> parts;  ///< By thread count.
    std::vector<std::uint32_t> reference;
};

/** Per-layer sums of one set-up pass. */
struct SetupTotals {
    double vectorizeMs = 0, profileMs = 0, partitionMs = 0;
    double compileMs = 0, loadMs = 0;
    int applied[4] = {0, 0, 0, 0};
};

/** One loaded, initialized configuration. */
struct Loaded {
    int prog = 0;
    SForm form = SForm::Macro;
    std::unique_ptr<native::NativeProgram> serial;
    std::unique_ptr<interp::ParallelRunner> parallel;
    std::string soPath;

    const vectorizer::CompiledProgram& graphOf(const Prepared& p) const
    {
        return form == SForm::Autovec ? p.scalar : p.macro;
    }
    std::size_t capturedSize() const
    {
        return serial ? serial->capturedSize()
                      : parallel->captured().size();
    }
    /** Steady-state wall time of running @p iters iterations, in ns.
     *  The parallel runtime's own steady timer excludes the capture
     *  snapshot it takes after each call. */
    double run(int iters)
    {
        if (serial) {
            Clock::time_point t0 = Clock::now();
            serial->runSteady(iters);
            return secondsSince(t0) * 1e9;
        }
        double before = parallel->steadyWallMicros();
        parallel->runSteady(iters);
        return (parallel->steadyWallMicros() - before) * 1e3;
    }
    std::vector<std::uint32_t> output() const
    {
        return rawLanes(serial ? serial->captured()
                               : parallel->captured());
    }
};

std::vector<SForm>
formsFor(const Options& opt)
{
    if (opt.trace)
        return {SForm::Macro, SForm::Autovec, SForm::T1, SForm::T2,
                SForm::T4};
    return {SForm::Macro, SForm::Autovec, SForm::T2, SForm::T4};
}

/** Vectorize, profile and partition one program. */
Prepared
prepare(const Program& prog, const std::vector<SForm>& forms,
        SetupTotals& t)
{
    Prepared p;
    p.name = prog.name;
    p.macro = timed("vectorizer.compile", prog.name, &t.vectorizeMs,
                    [&] { return compileForm(prog.stream, Form::Macro); });
    p.scalar = timed("vectorizer.compile", prog.name, &t.vectorizeMs, [&] {
        return compileForm(prog.stream, Form::Autovec);
    });
    using report::TransformKind;
    t.applied[0] += p.macro.report.countKind(TransformKind::SingleActor);
    t.applied[1] += p.macro.report.countKind(TransformKind::VerticalFusion);
    t.applied[2] += p.macro.report.countKind(TransformKind::Horizontal);
    for (const auto& d : p.macro.report.decisions)
        if (d.accepted && (d.inMode == report::TapeAccess::PermutedVector ||
                           d.outMode == report::TapeAccess::PermutedVector))
            ++t.applied[3];

    // Partition weights come from a short modeled bytecode profile, as
    // `macross --engine native --threads N` does.
    std::vector<double> cycles =
        timed("interp.profile", prog.name, &t.profileMs, [&] {
            const vectorizer::CompiledProgram& m = p.macro;
            const machine::MachineDesc machine =
                vectorizer::SimdizeOptions{}.machine;
            machine::CostSink cost(machine);
            interp::Runner r(m.graph, m.schedule, &cost);
            r.runInit();
            r.runSteady(12);
            std::vector<double> out(m.graph.actors.size(), 0.0);
            for (const auto& a : m.graph.actors)
                out[static_cast<std::size_t>(a.id)] = cost.actorCycles(a.id);
            return out;
        });
    for (SForm f : forms) {
        if (int th = threadsOf(f))
            p.parts[th] = timed("multicore.partition", prog.name,
                                &t.partitionMs, [&] {
                                    return multicore::partitionGreedy(
                                        p.macro.graph, p.macro.schedule,
                                        cycles, th);
                                });
    }
    return p;
}

/** Construct (emit, compile or cache-load, dlopen) and init. */
std::unique_ptr<Loaded>
load(const Prepared& p, int prog, SForm form, const std::string& cacheDir,
     SetupTotals& t, std::mutex& mu, int parent)
{
    auto l = std::make_unique<Loaded>();
    l->prog = prog;
    l->form = form;
    const std::string tag = p.name + "/" + name(form);
    interp::EngineConfig ec(interp::ExecEngine::Native);
    ec.native.cacheDir = cacheDir;
    ec.simd.laneWidth =
        laneWidthFor(form == SForm::Autovec ? Form::Autovec : Form::Macro);
    const vectorizer::CompiledProgram& g = l->graphOf(p);

    int span = Tracer::instance().begin("native.load", tag, parent);
    const Clock::time_point t0 = Clock::now();
    const native::NativeStats* stats;
    if (threadsOf(form) == 0) {
        l->serial = std::make_unique<native::NativeProgram>(
            g.graph, g.schedule, ec.native, ec.simd);
        stats = &l->serial->stats();
    } else {
        l->parallel = std::make_unique<interp::ParallelRunner>(
            g.graph, g.schedule, p.parts.at(threadsOf(form)), nullptr, ec);
        stats = l->parallel->nativeStats();
    }
    double constructMs = secondsSince(t0) * 1e3;
    Tracer::instance().addChild(span, "native.host_compile", tag,
                                stats->compileMillis);
    Tracer::instance().end(span);
    l->soPath = stats->soPath;
    double initMs = 0;
    timed("native.init", tag, &initMs, [&] {
        if (l->serial)
            l->serial->init();
        else
            l->parallel->runInit();
    });
    std::lock_guard<std::mutex> lk(mu);
    t.compileMs += stats->compileMillis;
    t.loadMs += constructMs - stats->compileMillis + initMs;
    return l;
}

/** Max over mean of the partitions' steady wall time. */
double
imbalanceOf(const interp::ParallelRunner& r)
{
    json::Value st = r.statsToJson();
    std::vector<double> wall;
    for (const json::Value& v :
         st["parallel"]["native"]["partitionWallMicros"].items())
        wall.push_back(v.asDouble());
    if (wall.empty())
        return 0.0;
    double mean = 0;
    for (double w : wall)
        mean += w / static_cast<double>(wall.size());
    return mean > 0 ? *std::max_element(wall.begin(), wall.end()) / mean
                    : 0.0;
}

/** One full set-up: prepare every program, load every configuration
 *  on @p threads threads. */
std::vector<std::unique_ptr<Loaded>>
setUp(const std::vector<Program>& progs, const std::vector<SForm>& forms,
      const std::string& cacheDir, int threads,
      std::vector<Prepared>& prepared, SetupTotals& t)
{
    prepared.clear();
    for (const Program& prog : progs)
        prepared.push_back(prepare(prog, forms, t));

    // Biggest jobs first: the threaded forms compile the most code.
    std::vector<std::pair<int, SForm>> jobs;
    for (SForm f : {SForm::T4, SForm::T2, SForm::T1, SForm::Macro,
                    SForm::Autovec})
        if (std::find(forms.begin(), forms.end(), f) != forms.end())
            for (int i = 0; i < static_cast<int>(progs.size()); ++i)
                jobs.push_back({i, f});
    std::vector<std::unique_ptr<Loaded>> loaded(jobs.size());
    std::atomic<std::size_t> next{0};
    std::mutex mu, errMu;
    std::exception_ptr error;
    const int parent = Tracer::instance().current();
    auto work = [&] {
        for (std::size_t i; (i = next++) < jobs.size();) {
            try {
                const auto& [prog, form] = jobs[i];
                loaded[i] = load(prepared[static_cast<std::size_t>(prog)],
                                 prog, form, cacheDir, t, mu, parent);
            } catch (...) {
                std::lock_guard<std::mutex> lk(errMu);
                if (!error)
                    error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    for (int i = 1; i < threads; ++i)
        pool.emplace_back(work);
    work();
    for (std::thread& th : pool)
        th.join();
    if (error)
        std::rethrow_exception(error);
    return loaded;
}

} // namespace

Result
runSuiteSteady(const Options& opt)
{
    Result res;
    std::vector<Program> progs = suitePrograms();
    if (opt.smoke)
        progs.resize(2);
    const std::vector<SForm> forms = formsFor(opt);
    const std::string cacheDir = opt.runDir + "/suite-cache";
    makeDirs(cacheDir);

    // VM references, outside every timed region.
    std::vector<std::vector<std::uint32_t>> refs;
    {
        ScopedSpan span("bench.reference");
        for (const Program& p : progs) {
            vectorizer::CompiledProgram s = compileForm(p.stream,
                                                        Form::Autovec);
            refs.push_back(
                vmReference(s, itersForElements(s, kReferenceElements)));
        }
    }

    // Cold set-up into the empty cache, compiling on every core.
    std::vector<Prepared> prepared;
    SetupTotals cold;
    {
        ScopedSpan span("bench.cold_setup");
        const Clock::time_point t0 = Clock::now();
        setUp(progs, forms, cacheDir, hostThreads(), prepared, cold);
        res.metrics["cold_s_total"] = secondsSince(t0);
    }

    // Warm set-ups (median of five); the last one's programs are
    // measured.
    std::vector<double> setups;
    SetupTotals warm;
    std::vector<std::unique_ptr<Loaded>> loaded;
    for (int i = 0; i < 5; ++i) {
        ScopedSpan span("bench.setup");
        loaded.clear();
        warm = SetupTotals{};
        const Clock::time_point t0 = Clock::now();
        loaded = setUp(progs, forms, cacheDir, 1, prepared, warm);
        setups.push_back(secondsSince(t0));
    }
    res.metrics["setup_s"] = median(setups);

    // Steady state in rounds: every round runs every form of every
    // program (seeded rotation) on a fresh instance, a warm-up and
    // kWindows timed windows each. A form's number is the median over
    // rounds of each round's median window. Fresh instances matter
    // because where the heap puts an emitted program's tapes moves one
    // instance's speed by up to 2x; rounds matter because a shared
    // host's speed drifts over seconds, and spreading each form over the
    // whole phase keeps a slow stretch from landing on one form only.
    const int rounds = opt.smoke ? 2 : std::max(3, opt.seconds / 2);
    const std::size_t n = progs.size();
    const std::size_t rot = static_cast<std::size_t>(opt.seed % n);
    std::map<std::string, std::vector<double>> samples;  // "<prog>.<form>"
    std::map<std::string, std::vector<double>> imbalances;
    std::vector<std::vector<std::uint32_t>> macroOut(n);
    double soKb = 0;
    SetupTotals scratch;
    std::mutex scratchMu;
    for (int r = 0; r < rounds; ++r) {
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t pi = (k + rot) % n;
            const Prepared& p = prepared[pi];
            for (SForm f : forms) {
                const std::string tag = p.name + "/" + name(f);
                std::unique_ptr<Loaded> l;
                if (r == 0) {
                    auto it = std::find_if(
                        loaded.begin(), loaded.end(), [&](const auto& x) {
                            return x && x->prog == static_cast<int>(pi) &&
                                   x->form == f;
                        });
                    l = std::move(*it);
                    soKb += static_cast<double>(fileBytes(l->soPath)) / 1024.0;
                } else {
                    l = load(p, static_cast<int>(pi), f, cacheDir, scratch,
                             scratchMu, -2);
                }
                ++res.attempted;
                const int iters =
                    itersForElements(l->graphOf(p), kWindowElements);
                std::vector<double> perElem;
                {
                    ScopedSpan span("native.steady", tag);
                    l->run(itersForElements(l->graphOf(p),
                                            kWarmUpElements));
                    for (int w = 0; w < kWindows; ++w) {
                        std::size_t before = l->capturedSize();
                        double dt = l->run(iters);
                        perElem.push_back(
                            dt /
                            static_cast<double>(l->capturedSize() - before));
                    }
                }
                samples[p.name + "." + name(f)].push_back(median(perElem));
                if (f == SForm::T4)
                    imbalances[p.name].push_back(imbalanceOf(*l->parallel));

                ScopedSpan verify("bench.verify", tag);
                std::vector<std::uint32_t> out = l->output();
                const std::vector<std::uint32_t>& ref = refs[pi];
                if (out.size() < ref.size() ||
                    commonPrefix(out, ref) != ref.size())
                    res.fail(tag + ": output differs from the bytecode VM");
                if (macroOut[pi].empty())
                    macroOut[pi] = std::move(out);
                else if (commonPrefix(out, macroOut[pi]) !=
                         std::min(out.size(), macroOut[pi].size()))
                    res.fail(tag + ": output differs from the macro form");
            }
        }
    }
    std::map<std::string, double> ns;  // "<prog>.<form>" -> ns/elem
    for (const auto& [key, v] : samples)
        ns[key] = median(v);
    std::map<std::string, double> imbalance;
    for (const auto& [prog, v] : imbalances)
        imbalance[prog] = median(v);

    auto geo = [&](SForm f) {
        std::vector<double> v;
        for (const Prepared& p : prepared)
            v.push_back(ns.at(p.name + "." + name(f)));
        return geomean(v);
    };
    res.metrics["macro_ns_per_elem"] = geo(SForm::Macro);
    res.metrics["autovec_ns_per_elem"] = geo(SForm::Autovec);
    for (SForm f : forms)
        if (threadsOf(f))
            res.metrics[std::string(name(f)) + "_ns_per_elem"] = geo(f);
    for (const auto& [key, v] : ns)
        res.metrics["suite_steady." + key + "_ns"] = v;
    for (const auto& [prog, v] : imbalance)
        res.metrics["parallel." + prog + ".imbalance"] = v;

    double crossing = 0;
    for (const Prepared& p : prepared)
        if (p.parts.count(4))
            crossing += static_cast<double>(p.parts.at(4).commWords);
    res.metrics["parallel.crossing_words"] = crossing;
    res.metrics["vectorizer.compile_ms"] = warm.vectorizeMs;
    res.metrics["interp.profile_ms"] = warm.profileMs;
    res.metrics["multicore.partition_ms"] = warm.partitionMs;
    res.metrics["native.host_compile_ms"] = cold.compileMs;
    res.metrics["native.load_ms"] = warm.loadMs;
    res.metrics["native.so_kb"] = soKb;
    res.metrics["vectorizer.single_actor_applied"] = warm.applied[0];
    res.metrics["vectorizer.vertical_applied"] = warm.applied[1];
    res.metrics["vectorizer.horizontal_applied"] = warm.applied[2];
    res.metrics["vectorizer.permute_applied"] = warm.applied[3];

    if (opt.trace) {
        // Codegen on its own: emit every measured shape once more.
        double emitMs = 0, sourceKb = 0;
        for (const Prepared& p : prepared) {
            for (SForm f : forms) {
                codegen::EmitOptions eo;
                const vectorizer::CompiledProgram& g =
                    f == SForm::Autovec ? p.scalar : p.macro;
                eo.simd.laneWidth = laneWidthFor(
                    f == SForm::Autovec ? Form::Autovec : Form::Macro);
                eo.mode = codegen::EmitMode::Library;
                if (int th = threadsOf(f)) {
                    eo.mode = codegen::EmitMode::PartitionedLibrary;
                    eo.partitionCores = th;
                    eo.partitionCoreOf = p.parts.at(th).coreOf;
                }
                std::string src = timed(
                    "codegen.emit", p.name + "/" + name(f), &emitMs,
                    [&] { return codegen::emitCpp(g.graph, g.schedule, eo); });
                sourceKb += static_cast<double>(src.size()) / 1024.0;
            }
        }
        res.metrics["codegen.emit_ms"] = emitMs;
        res.metrics["codegen.source_kb"] = sourceKb;

        // The cost model's error as a number: modeled Fig. 10a speedup
        // (macro over GCC-like auto-vectorized scalar) beside the
        // measured one.
        std::vector<double> modeled, measured;
        json::Value table = json::Value::array();
        for (const Prepared& p : prepared) {
            double m = timed("machine.model", p.name, nullptr, [&] {
                return modeledCyclesPerElement(p.scalar, true) /
                       modeledCyclesPerElement(p.macro, false);
            });
            double meas = ns.at(p.name + ".autovec") / ns.at(p.name + ".macro");
            res.metrics["machine." + p.name + ".modeled_speedup"] = m;
            modeled.push_back(m);
            measured.push_back(meas);
            json::Value row = json::Value::object();
            row["program"] = p.name;
            row["modeledSpeedup"] = m;
            row["measuredSpeedup"] = meas;
            table.push(std::move(row));
        }
        res.metrics["machine.model_rank_corr"] = spearman(modeled, measured);
        res.details["modeledVsMeasured"] = std::move(table);
    }

    json::Value perProgram = json::Value::object();
    for (const auto& [key, v] : ns)
        perProgram[key] = v;
    res.details["nsPerElement"] = std::move(perProgram);
    res.details["roundsPerForm"] = rounds;

    loaded.clear();
    runServiceProbe(opt, cacheDir, res);
    return res;
}

} // namespace perfbench
