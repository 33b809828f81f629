#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <dirent.h>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "autovec/gcc_like.h"
#include "benchmarks/suite.h"
#include "interp/runner.h"
#include "lowering/lowered.h"
#include "machine/cost_sink.h"

using namespace macross;

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
Result::fail(const std::string& msg)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(msg);
}

const std::vector<std::string>&
suiteNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto& b : benchmarks::standardSuite())
            out.push_back(b.name);
        return out;
    }();
    return names;
}

const std::vector<MetricSpec>&
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"cold_s_total", "s"},
        {"macro_ns_per_elem", "ns"},
        {"autovec_ns_per_elem", "ns"},
        {"req_service_us_p50", "us"},
    };
    return specs;
}

const std::vector<MetricSpec>&
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s = {
            {"frontend.parse_ms", "ms"},
            {"vectorizer.compile_ms", "ms"},
            {"vectorizer.single_actor_applied", "count"},
            {"vectorizer.vertical_applied", "count"},
            {"vectorizer.horizontal_applied", "count"},
            {"vectorizer.permute_applied", "count"},
            {"codegen.emit_ms", "ms"},
            {"codegen.source_kb", "KB"},
            {"native.host_compile_ms", "ms"},
            {"native.load_ms", "ms"},
            {"native.so_kb", "KB"},
        };
        for (const std::string& p : suiteNames())
            for (const char* f : {"macro", "autovec", "t1", "t2", "t4"})
                s.push_back({"suite_steady." + p + "." + f + "_ns",
                             "ns"});
        s.push_back({"t1_ns_per_elem", "ns"});
        s.push_back({"t2_ns_per_elem", "ns"});
        s.push_back({"t4_ns_per_elem", "ns"});
        for (const std::string& p : suiteNames())
            s.push_back({"parallel." + p + ".imbalance", "ratio"});
        s.push_back({"parallel.crossing_words", "words"});
        s.push_back({"interp.profile_ms", "ms"});
        s.push_back({"multicore.partition_ms", "ms"});
        for (const std::string& p : suiteNames())
            s.push_back({"machine." + p + ".modeled_speedup", "x"});
        s.push_back({"machine.model_rank_corr", "ratio"});
        for (const char* n :
             {"service.queue_us_p50", "service.queue_us_p99",
              "service.native_run_us_p50",
              "service.wire_us_p50", "protocol.parse_us"})
            s.push_back({n, "us"});
        for (const char* n : {"service.compiles", "service.cache_hits",
                              "service.coalesced", "service.overloaded"})
            s.push_back({n, "count"});
        s.push_back({"service.batch_fill", "ratio"});
        s.push_back({"generator.late_us_p99", "us"});
        s.push_back({"req_p50_us", "us"});
        s.push_back({"req_p95_us", "us"});
        s.push_back({"req_p99_us", "us"});
        s.push_back({"req_samples", "count"});
        s.push_back({"max_rps_at_slo", "1/s"});
        s.push_back({"error_rate", "ratio"});
        s.push_back({"trace.self_time_coverage", "ratio"});
        return s;
    }();
    return specs;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : v)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(v.size()));
}

namespace {

std::vector<double>
ranks(const std::vector<double>& v)
{
    std::vector<std::size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (std::size_t i = 0; i < idx.size();) {
        std::size_t j = i;
        while (j + 1 < idx.size() && v[idx[j + 1]] == v[idx[i]])
            ++j;
        double avg = (static_cast<double>(i + j) / 2.0) + 1.0;
        for (std::size_t k = i; k <= j; ++k)
            r[idx[k]] = avg;
        i = j + 1;
    }
    return r;
}

} // namespace

double
spearman(const std::vector<double>& a, const std::vector<double>& b)
{
    if (a.size() != b.size() || a.size() < 2)
        return 0.0;
    std::vector<double> ra = ranks(a), rb = ranks(b);
    double ma = std::accumulate(ra.begin(), ra.end(), 0.0) /
                static_cast<double>(ra.size());
    double mb = std::accumulate(rb.begin(), rb.end(), 0.0) /
                static_cast<double>(rb.size());
    double num = 0, da = 0, db = 0;
    for (std::size_t i = 0; i < ra.size(); ++i) {
        num += (ra[i] - ma) * (rb[i] - mb);
        da += (ra[i] - ma) * (ra[i] - ma);
        db += (rb[i] - mb) * (rb[i] - mb);
    }
    return (da > 0 && db > 0) ? num / std::sqrt(da * db) : 0.0;
}

std::vector<Program>
suitePrograms()
{
    std::vector<Program> out;
    for (auto& b : benchmarks::standardSuite())
        out.push_back({b.name, "suite", "", b.program});
    return out;
}

std::vector<std::string>
strExamplePaths()
{
    const std::string dir = "examples/programs";
    std::vector<std::string> out;
    if (DIR* d = ::opendir(dir.c_str())) {
        while (dirent* e = ::readdir(d)) {
            std::string n = e->d_name;
            if (n.size() > 4 && n.substr(n.size() - 4) == ".str")
                out.push_back(dir + "/" + n);
        }
        ::closedir(d);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

const char*
formName(Form f)
{
    return f == Form::Macro ? "macro" : "autovec";
}

vectorizer::CompiledProgram
compileForm(const graph::StreamPtr& stream, Form form)
{
    if (form == Form::Autovec)
        return vectorizer::compileScalar(stream);
    return vectorizer::macroSimdize(stream, vectorizer::SimdizeOptions{});
}

int
laneWidthFor(Form form)
{
    return form == Form::Autovec ? 1 : codegen::SimdSpec{}.laneWidth;
}

namespace {

/** Sink elements one steady iteration of @p p produces (>= 1). */
std::int64_t
sinkElementsPerSteady(const vectorizer::CompiledProgram& p)
{
    for (const auto& a : p.graph.actors) {
        if (a.isFilter() && a.outputs.empty() && !a.inputs.empty()) {
            return std::max<std::int64_t>(
                1, p.schedule.reps[a.id] * a.def->pop);
        }
    }
    return 1;
}

} // namespace

int
itersForElements(const vectorizer::CompiledProgram& p,
                 std::int64_t elements)
{
    std::int64_t per = sinkElementsPerSteady(p);
    return static_cast<int>(std::max<std::int64_t>(
        1, (elements + per - 1) / per));
}

std::vector<std::uint32_t>
rawLanes(const std::vector<interp::Value>& values)
{
    std::vector<std::uint32_t> out;
    out.reserve(values.size());
    for (const auto& v : values)
        for (int lane = 0; lane < v.lanes(); ++lane)
            out.push_back(v.rawBits(lane));
    return out;
}

std::vector<std::uint32_t>
vmReference(const vectorizer::CompiledProgram& p, int iters)
{
    interp::Runner r(p.graph, p.schedule);
    r.runInit();
    r.runSteady(iters);
    return rawLanes(r.captured());
}

std::size_t
commonPrefix(const std::vector<std::uint32_t>& a,
             const std::vector<std::uint32_t>& b)
{
    std::size_t n = std::min(a.size(), b.size());
    auto [ia, ib] = std::mismatch(a.begin(), a.begin() + n, b.begin());
    return static_cast<std::size_t>(ia - a.begin());
}

double
modeledCyclesPerElement(const vectorizer::CompiledProgram& p,
                        bool gccAutovec)
{
    const machine::MachineDesc m = vectorizer::SimdizeOptions{}.machine;
    machine::CostSink cost(m);
    interp::Runner r(p.graph, p.schedule, &cost);
    if (gccAutovec) {
        lowering::LoweredProgram lp = lowering::lower(p.graph, p.schedule);
        for (auto& [id, cfg] : autovec::gccAutovectorize(lp, m).configs)
            r.setActorConfig(id, cfg);
    }
    r.runInit();
    std::size_t before = r.captured().size();
    r.runSteady(12);
    std::size_t produced = r.captured().size() - before;
    return produced ? cost.totalCycles() / static_cast<double>(produced)
                    : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

int
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

std::int64_t
fileBytes(const std::string& path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0 ? st.st_size : 0;
}

void
makeDirs(const std::string& path)
{
    for (std::size_t i = 1; i <= path.size(); ++i) {
        if (i == path.size() || path[i] == '/') {
            std::string prefix = path.substr(0, i);
            if (::mkdir(prefix.c_str(), 0700) != 0 && errno != EEXIST)
                throw std::runtime_error("cannot create " + prefix);
        }
    }
}

} // namespace perfbench
