#include "tuner/tuner.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "interp/parallel_runner.h"
#include "interp/runner.h"
#include "machine/cost_sink.h"
#include "multicore/partition.h"
#include "native/native_fault.h"
#include "native/simd_probe.h"
#include "support/diagnostics.h"

namespace macross::tuner {

namespace {

/** Steady iterations of the bytecode profiling run behind the
 *  cost-model prune (short: the model only ranks). */
constexpr int kProfileIters = 2;

/** estimateMulticore calibration: cycles per crossing word (ring
 *  push + pop, amortized) and per-iteration barrier overhead. The
 *  values only need to rank thread counts sanely; the measurement
 *  stage owns the truth. */
constexpr double kPerWordCycles = 4.0;
constexpr double kSyncCycles = 400.0;

double
wallMicrosSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

json::Value
Measurement::toJson() const
{
    json::Value v = json::Value::object();
    v["config"] = config.toJson();
    v["key"] = config.key();
    v["modeledCyclesPerElement"] = modeledCyclesPerElement;
    v["microsPerElement"] = microsPerElement;
    v["isDefault"] = isDefault;
    v["failed"] = failed;
    if (failed)
        v["error"] = error;
    return v;
}

json::Value
TuneResult::toJson() const
{
    json::Value v = json::Value::object();
    v["cacheHit"] = cacheHit;
    v["cachePath"] = cachePath;
    v["candidatesEnumerated"] = candidatesEnumerated;
    v["candidatesMeasured"] = candidatesMeasured;
    v["best"] = best.toJson();
    v["bestKey"] = best.key();
    v["default"] = defaultConfig.toJson();
    v["bestMicrosPerElement"] = bestMicrosPerElement;
    v["defaultMicrosPerElement"] = defaultMicrosPerElement;
    v["speedupOverDefault"] = speedupOverDefault();
    json::Value ms = json::Value::array();
    for (const Measurement& m : measurements)
        ms.push(m.toJson());
    v["measurements"] = std::move(ms);
    return v;
}

NativeMeasurer::NativeMeasurer(int warmup_iters, int measure_iters,
                               int repetitions)
    : warmupIters_(warmup_iters), measureIters_(measure_iters),
      repetitions_(repetitions)
{
    panicIf(measure_iters < 1 || repetitions < 1 || warmup_iters < 0,
            "NativeMeasurer protocol must be positive");
}

double
NativeMeasurer::measure(vectorizer::CompileService& service,
                        const TuneConfig& config)
{
    const vectorizer::CompiledProgram& p =
        service.compile(config.simdizeOptions(), config.simd);
    interp::EngineConfig ec = config.engineConfig();

    // Timed window helper shared by both runner shapes: warm up,
    // then best-of-R windows of measureIters_ steady iterations,
    // normalized per sink element produced inside the window.
    auto timeWindows = [&](auto& runner) {
        runner.runInit();
        if (warmupIters_ > 0)
            runner.runSteady(warmupIters_);
        double best = 0.0;
        for (int rep = 0; rep < repetitions_; ++rep) {
            const std::size_t before = runner.capturedSize();
            const auto t0 = std::chrono::steady_clock::now();
            runner.runSteady(measureIters_);
            const double micros = wallMicrosSince(t0);
            const std::size_t produced =
                runner.capturedSize() - before;
            fatalIf(produced == 0,
                    "tuner measurement produced no sink elements in ",
                    measureIters_, " steady iterations");
            const double perElement =
                micros / static_cast<double>(produced);
            if (rep == 0 || perElement < best)
                best = perElement;
        }
        return best;
    };

    if (config.threads <= 1) {
        interp::Runner r(p.graph, p.schedule, nullptr, ec);
        return timeWindows(r);
    }

    // Parallel candidate: greedy-partition on a short modeled
    // profile (the same weights the CLI's --threads path uses), then
    // run the partitioned native program over the worker pool.
    machine::MachineDesc m =
        machine::machineByName(config.machine, config.sagu);
    machine::CostSink prof(m);
    interp::Runner profiler(
        p.graph, p.schedule, &prof,
        interp::EngineConfig(interp::ExecEngine::Bytecode));
    profiler.enableCapture(false);
    profiler.runInit();
    profiler.runSteady(kProfileIters);
    std::vector<double> actorCycles(p.graph.actors.size(), 0.0);
    for (const auto& a : p.graph.actors)
        actorCycles[a.id] = prof.actorCycles(a.id);
    multicore::Partition part = multicore::partitionGreedy(
        p.graph, p.schedule, actorCycles, config.threads);
    interp::ParallelRunner par(p.graph, p.schedule, part, nullptr,
                               ec);
    return timeWindows(par);
}

Tuner::Tuner(graph::StreamPtr program, std::string name,
             TunerOptions opt, Measurer* measurer)
    : program_(std::move(program)), name_(std::move(name)),
      opt_(opt), measurer_(measurer), service_(program_)
{
    fatalIf(opt_.measureBudget < 1, "tuner needs a measurement "
            "budget of at least 1");
    fatalIf(opt_.measureIterations < 1 || opt_.repetitions < 1,
            "tuner measurement protocol must be positive");
    if (!measurer_) {
        ownedMeasurer_ = std::make_unique<NativeMeasurer>(
            opt_.warmupIterations, opt_.measureIterations,
            opt_.repetitions);
        measurer_ = ownedMeasurer_.get();
    }
    hostMaxLanes_ = opt_.maxLaneWidthOverride > 0
                        ? opt_.maxLaneWidthOverride
                        : native::probeMaxLaneWidth();
    hostThreads_ = opt_.maxThreads > 0
                       ? opt_.maxThreads
                       : native::hostFingerprint().hardwareThreads;
}

TuneConfig
Tuner::defaultConfig() const
{
    // What `--engine native` does with no tuning flags: the
    // Nehalem-calibrated model picks the transforms, W = the
    // SimdSpec default clipped to the host, serial execution.
    TuneConfig c;
    c.laneWidth = std::min(codegen::SimdSpec{}.laneWidth,
                           hostMaxLanes_);
    return c;
}

std::vector<TuneConfig>
Tuner::enumerate() const
{
    std::vector<TuneConfig> out;
    std::vector<std::string> seen;
    auto add = [&](TuneConfig c) {
        const std::string k = c.key();
        if (std::find(seen.begin(), seen.end(), k) != seen.end())
            return;
        seen.push_back(k);
        out.push_back(std::move(c));
    };

    const TuneConfig def = defaultConfig();
    add(def);

    // The scalar baseline: SIMDization is a bet, not an axiom.
    {
        TuneConfig c = def;
        c.simd = false;
        c.laneWidth = 1;
        add(c);
    }

    // Machine descriptions × emitted lane widths. Each machine's
    // natural pairing (SW == W) comes first; nehalem additionally
    // sweeps the scalar-emitted and narrower widths so the W axis is
    // covered even when the wide machines lose at the IR level.
    struct MachineRow {
        const char* name;
        int simdWidth;
    };
    static const MachineRow kMachines[] = {
        {"nehalem", 4}, {"wide8", 8}, {"wide16", 16}};
    for (const MachineRow& mr : kMachines) {
        std::vector<int> widths;
        const int paired = std::min(mr.simdWidth, hostMaxLanes_);
        widths.push_back(paired);
        if (std::string(mr.name) == "nehalem") {
            widths.push_back(1);
            if (hostMaxLanes_ >= 8)
                widths.push_back(std::min(8, hostMaxLanes_));
        }
        for (int w : widths) {
            TuneConfig c = def;
            c.machine = mr.name;
            c.laneWidth = w;
            add(c);
        }
        // Tape-strategy and segment-formation variants at the
        // machine's paired width: SAGU transposed tapes, no permuted
        // tapes, vertical-only, horizontal-only.
        TuneConfig base = def;
        base.machine = mr.name;
        base.laneWidth = paired;
        TuneConfig c = base;
        c.sagu = true;
        add(c);
        c = base;
        c.permute = false;
        add(c);
        c = base;
        c.horizontal = false;
        add(c);
        c = base;
        c.vertical = false;
        add(c);
    }

    // Explicit -march levels for the probed ISA (the "auto" default
    // is -march=native; the explicit levels answer whether a
    // portable flag set leaves performance behind).
    if (opt_.exploreIsa) {
        std::vector<std::string> isas;
        const std::string probed = native::probeIsaName();
        if (probed == "avx512") {
            isas.push_back("x86-64-v4");
            isas.push_back("x86-64-v3");
        } else if (probed == "avx2") {
            isas.push_back("x86-64-v3");
            isas.push_back("x86-64-v2");
        } else if (probed == "sse2") {
            isas.push_back("x86-64-v2");
        }
        for (const std::string& isa : isas) {
            TuneConfig c = def;
            c.isa = isa;
            add(c);
        }
    }

    // Thread counts (with batch/ring variants at the smallest
    // parallel count, where barrier overhead is the most sensitive).
    for (int t = 2; t <= hostThreads_ && t <= 4; t *= 2) {
        TuneConfig c = def;
        c.threads = t;
        add(c);
        if (t == 2) {
            c.batchIterations = 8;
            add(c);
            c.batchIterations = 128;
            c.ringCapacity = 1024;
            add(c);
        }
    }
    return out;
}

const Tuner::ModelProfile&
Tuner::profileFor(const TuneConfig& config)
{
    // One bytecode profiling run per distinct vectorizer output;
    // configs differing only in execution knobs (W, isa, threads,
    // batch, ring) share it.
    const vectorizer::SimdizeOptions opts = config.simdizeOptions();
    const std::string key =
        vectorizer::CompileService::optionsKey(opts, config.simd);
    auto it = profiles_.find(key);
    if (it != profiles_.end())
        return it->second;

    const vectorizer::CompiledProgram& p =
        service_.compile(opts, config.simd);
    machine::CostSink cost(opts.machine);
    interp::Runner r(
        p.graph, p.schedule, &cost,
        interp::EngineConfig(interp::ExecEngine::Bytecode));
    r.runInit();
    const std::size_t before = r.captured().size();
    r.runSteady(kProfileIters);
    const std::size_t produced = r.captured().size() - before;
    ModelProfile prof;
    prof.elementsPerIter =
        static_cast<double>(produced) / kProfileIters;
    prof.cyclesPerElement =
        produced ? cost.totalCycles() / static_cast<double>(produced)
                 : 0.0;
    prof.actorCyclesPerIter.resize(p.graph.actors.size(), 0.0);
    for (const auto& a : p.graph.actors)
        prof.actorCyclesPerIter[a.id] =
            cost.actorCycles(a.id) / kProfileIters;
    return profiles_.emplace(key, std::move(prof)).first->second;
}

double
Tuner::modeledScore(const TuneConfig& config)
{
    const ModelProfile& prof = profileFor(config);
    if (config.threads <= 1 || prof.elementsPerIter <= 0.0)
        return prof.cyclesPerElement;

    // Thread-count candidates: greedy partition on the profiled
    // per-iteration weights, then the analytic multicore estimate
    // (same scale: cycles per steady iteration on both sides).
    const vectorizer::CompiledProgram& p =
        service_.compile(config.simdizeOptions(), config.simd);
    multicore::Partition part = multicore::partitionGreedy(
        p.graph, p.schedule, prof.actorCyclesPerIter,
        config.threads);
    multicore::MulticoreEstimate est = multicore::estimateMulticore(
        p.graph, p.schedule, part, kPerWordCycles, kSyncCycles);
    return est.cycles / prof.elementsPerIter;
}

std::vector<Candidate>
Tuner::prune(const std::vector<TuneConfig>& cs)
{
    const std::string defKey = defaultConfig().key();
    std::vector<Candidate> scored;
    scored.reserve(cs.size());
    for (const TuneConfig& c : cs) {
        Candidate cand;
        cand.config = c;
        cand.isDefault = c.key() == defKey;
        cand.modeledCyclesPerElement = modeledScore(c);
        scored.push_back(std::move(cand));
    }
    // Default first (it is always measured: the tuned result must be
    // comparable to — and never worse than — it), then ascending
    // model score; stable so enumeration order breaks ties.
    std::stable_sort(scored.begin(), scored.end(),
                     [](const Candidate& a, const Candidate& b) {
                         if (a.isDefault != b.isDefault)
                             return a.isDefault;
                         return a.modeledCyclesPerElement <
                                b.modeledCyclesPerElement;
                     });
    if (static_cast<int>(scored.size()) > opt_.measureBudget)
        scored.resize(opt_.measureBudget);
    return scored;
}

TuneResult
Tuner::tune()
{
    support::Trace* tr = opt_.trace;
    support::Trace::Scope total(tr, "tuner.tune");

    TuneResult result;
    result.defaultConfig = defaultConfig();

    const native::HostFingerprint& host = native::hostFingerprint();
    std::optional<TuneCache> cache;
    if (opt_.useCache) {
        cache.emplace(opt_.cacheDir);
        result.cachePath =
            cache->pathFor(service_.programHash(), host);
        std::optional<TuneCacheEntry> hit =
            cache->load(service_.programHash(), host);
        // A cached winner the current host cannot execute (edited
        // file, shrunken container) is stale, not authoritative.
        if (hit && (hit->config.laneWidth > hostMaxLanes_ ||
                    hit->config.threads > hostThreads_))
            hit.reset();
        if (hit) {
            result.cacheHit = true;
            result.best = hit->config;
            result.bestMicrosPerElement = hit->tunedMicrosPerElement;
            result.defaultMicrosPerElement =
                hit->defaultMicrosPerElement;
            result.candidatesMeasured = hit->candidatesMeasured;
            if (tr && tr->enabled()) {
                json::Value payload = json::Value::object();
                payload["program"] = name_;
                payload["cachePath"] = result.cachePath;
                payload["bestKey"] = result.best.key();
                tr->event("tuner", "cacheHit", std::move(payload));
            }
            return result;
        }
    }

    std::vector<TuneConfig> all;
    {
        support::Trace::Scope s(tr, "tuner.enumerate");
        all = enumerate();
    }
    result.candidatesEnumerated = static_cast<int>(all.size());

    std::vector<Candidate> survivors;
    {
        support::Trace::Scope s(tr, "tuner.prune");
        survivors = prune(all);
    }

    {
        support::Trace::Scope s(tr, "tuner.measure");
        for (const Candidate& cand : survivors) {
            Measurement m;
            m.config = cand.config;
            m.modeledCyclesPerElement = cand.modeledCyclesPerElement;
            m.isDefault = cand.isDefault;
            try {
                m.microsPerElement =
                    measurer_->measure(service_, cand.config);
            } catch (const native::NativeFaultError& e) {
                // A typed native fault (compile timeout, crash under
                // the signal guards, quarantined cache entry) is a
                // property of this candidate's configuration, not of
                // the host: mark it failed, keep searching. The
                // default still must measure — see below.
                if (cand.isDefault)
                    throw;
                m.failed = true;
                m.error = "native fault (" +
                          native::toString(e.record().kind) +
                          "): " + e.record().message;
            } catch (const FatalError& e) {
                // The default must measure: without the baseline
                // there is nothing sound to compare against (and its
                // failure usually means "no host compiler", which
                // every other candidate would hit too).
                if (cand.isDefault)
                    throw;
                m.failed = true;
                m.error = e.what();
            }
            if (tr && tr->enabled()) {
                json::Value payload = json::Value::object();
                payload["key"] = m.config.key();
                payload["modeledCyclesPerElement"] =
                    m.modeledCyclesPerElement;
                payload["microsPerElement"] = m.microsPerElement;
                payload["failed"] = m.failed;
                tr->event("tuner", "measured", std::move(payload));
            }
            result.measurements.push_back(std::move(m));
        }
    }
    result.candidatesMeasured =
        static_cast<int>(result.measurements.size());

    const Measurement* best = nullptr;
    for (const Measurement& m : result.measurements) {
        if (m.isDefault)
            result.defaultMicrosPerElement = m.microsPerElement;
        if (m.failed)
            continue;
        if (!best || m.microsPerElement < best->microsPerElement)
            best = &m;
    }
    panicIf(!best, "tuner measured no candidate successfully");
    result.best = best->config;
    result.bestMicrosPerElement = best->microsPerElement;

    if (cache) {
        TuneCacheEntry entry;
        entry.program = name_;
        entry.programHash = service_.programHash();
        entry.host = host;
        entry.config = result.best;
        entry.tunedMicrosPerElement = result.bestMicrosPerElement;
        entry.defaultMicrosPerElement =
            result.defaultMicrosPerElement;
        entry.candidatesMeasured = result.candidatesMeasured;
        cache->store(entry);
    }
    return result;
}

std::optional<TuneCacheEntry>
loadTunedConfig(vectorizer::CompileService& service,
                const std::string& cache_dir)
{
    TuneCache cache(cache_dir);
    return cache.load(service.programHash(),
                      native::hostFingerprint());
}

} // namespace macross::tuner
