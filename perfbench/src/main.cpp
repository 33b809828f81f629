/**
 * @file
 * Benchmark driver entry point.
 *
 *   perfbench --workload cold_compile|suite_steady|service_open
 *             --seed N --seconds S --trace 0|1
 *             [--smoke] [--run-dir DIR] [--out-dir DIR]
 *
 * Prints every metric of the run by name and unit, then, as the last
 * line, one JSON object {correct, attempted, failed, metrics}: the
 * end-to-end metrics when --trace 0, the per-layer metrics when
 * --trace 1. Writes a detailed results file (with the host
 * fingerprint) and, when tracing, the spans as Chrome trace-event
 * JSON under --out-dir. Exits 1 if any output disagreed with the
 * bytecode VM or any operation failed.
 */
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "native/host_fingerprint.h"
#include "workloads.h"

using namespace perfbench;

namespace {

std::string
number(double v)
{
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--seconds")
            o.seconds = std::stoi(value());
        else if (a == "--trace")
            o.trace = std::stoi(value()) != 0;
        else if (a == "--smoke")
            o.smoke = true;
        else if (a == "--run-dir")
            o.runDir = value();
        else if (a == "--out-dir")
            o.outDir = value();
        else
            throw std::invalid_argument("unknown argument " + a);
    }
    if (o.workload.empty())
        throw std::invalid_argument("--workload is required");
    if (o.seconds < 1)
        throw std::invalid_argument("--seconds must be >= 1");
    if (o.runDir.empty())
        o.runDir = ".bench_build/runs/" + o.workload + "-" +
                   std::to_string(::getpid());
    if (o.outDir.empty())
        o.outDir = ".bench_build/results";
    return o;
}

Result
runWorkload(const Options& opt)
{
    if (opt.workload == "cold_compile")
        return runColdCompile(opt);
    if (opt.workload == "suite_steady")
        return runSuiteSteady(opt);
    if (opt.workload == "service_open")
        return runServiceOpen(opt);
    throw std::invalid_argument("unknown workload " + opt.workload);
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    try {
        opt = parseArgs(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    // A run never sees another run's caches or sockets.
    std::filesystem::remove_all(opt.runDir);
    makeDirs(opt.runDir);
    makeDirs(opt.outDir);
    if (opt.trace)
        Tracer::instance().enable();

    Result res;
    try {
        ScopedSpan span("bench.workload", opt.workload);
        res = runWorkload(opt);
    } catch (const std::exception& e) {
        res.fail(std::string("workload aborted: ") + e.what());
        res.attempted = std::max<std::int64_t>(res.attempted, 1);
    }
    res.metrics["peak_rss_mb"] = peakRssMb();
    res.metrics["error_rate"] =
        res.attempted ? static_cast<double>(res.failed) /
                            static_cast<double>(res.attempted)
                      : 0.0;
    if (opt.trace)
        res.metrics["trace.self_time_coverage"] =
            Tracer::instance().minCoverage("program");

    // Every end-to-end number must be a real, positive measurement.
    for (const MetricSpec& m : endToEndMetrics()) {
        double v = res.metrics.count(m.name) ? res.metrics[m.name] : 0.0;
        if (!opt.trace && !(std::isfinite(v) && v > 0))
            res.fail("end-to-end metric " + m.name + " was not measured");
    }

    const std::string stem = opt.workload + "-seed" +
                             std::to_string(opt.seed);
    const std::string host = macross::native::hostFingerprint().toJson().dump();
    if (opt.trace)
        Tracer::instance().writeChrome(opt.outDir + "/trace-" + stem +
                                           ".json",
                                       host);
    {
        macross::json::Value all = macross::json::Value::object();
        all["workload"] = opt.workload;
        all["seed"] = static_cast<std::int64_t>(opt.seed);
        all["seconds"] = opt.seconds;
        all["trace"] = opt.trace;
        all["host"] = macross::json::parse(host);
        macross::json::Value m = macross::json::Value::object();
        for (const auto& [k, v] : res.metrics)
            m[k] = std::isfinite(v) ? v : 0.0;
        all["metrics"] = std::move(m);
        all["details"] = res.details;
        macross::json::Value f = macross::json::Value::array();
        for (const std::string& s : res.failures)
            f.push(s);
        all["failures"] = std::move(f);
        std::ofstream(opt.outDir + "/results-" + stem + "-trace" +
                      (opt.trace ? "1" : "0") + ".json")
            << all.dump(2) << "\n";
    }

    for (const std::string& f : res.failures)
        std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());

    const std::vector<MetricSpec>& specs =
        opt.trace ? perLayerMetrics() : endToEndMetrics();
    std::string json = "{\"correct\": ";
    json += res.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(res.attempted);
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto it = res.metrics.find(specs[i].name);
        double v = it != res.metrics.end() && std::isfinite(it->second)
                       ? it->second
                       : 0.0;
        std::printf("%-40s %16s %s\n", specs[i].name.c_str(),
                    number(v).c_str(), specs[i].unit.c_str());
        json += (i ? ", \"" : "\"") + specs[i].name +
                "\": {\"value\": " + number(v) + ", \"unit\": \"" +
                specs[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return res.failed == 0 ? 0 : 1;
}
