/**
 * @file
 * service_open: an in-process macrossd driven by an open-loop, seeded
 * Poisson generator that steps through a fixed ladder of rates.
 *
 * The mix at every step:
 *  - warm run requests from several tenants (1-4 iterations each);
 *  - first requests of new tenants on programs already compiled;
 *  - one never-seen (program, TuneConfig) pair that forces a host
 *    compile while the warm traffic continues.
 * Latency counts from each request's scheduled send time. The same
 * machinery, cut down to warm tenants at the nominal rate, is the
 * probe the other workloads end with (runServiceProbe).
 */
#include <algorithm>
#include <cmath>
#include <random>

#include "native/simd_probe.h"
#include "service_load.h"
#include "workloads.h"

using namespace macross;

namespace perfbench {

namespace {

/** Programs the warm tenants run. Small iteration counts keep most
 *  requests dominated by per-request overhead; MP3Decoder's larger
 *  output per iteration makes per-tenant capture growth visible. */
const std::vector<std::string> kServicePrograms = {
    "FMRadio", "BeamFormer", "MP3Decoder", "FilterBank"};
/** Tenants per (program, form): each tenant keeps its own context. */
constexpr int kReplicas = 4;

/** Offered rates of the ladder (requests/s) and the nominal one. */
const std::vector<double> kLadder = {200, 400, 600};
constexpr std::size_t kNominalStep = 1;
constexpr double kStepSeconds = 4.0;
/** Length of the probe the other workloads end with. */
constexpr double kProbeSeconds = 3.0;
/** Latency limit on the warm requests' p99. */
constexpr double kSloUs = 5000;

tuner::TuneConfig
configFor(Form f)
{
    tuner::TuneConfig c;
    if (f == Form::Autovec) {
        c.simd = false;
        c.laneWidth = 1;
    }
    return c;
}

/** Warm tenants of daemon generation @p gen. */
std::vector<Tenant>
warmTenants(bool withStr, int gen)
{
    std::vector<Tenant> out;
    auto add = [&](const std::string& bench, const std::string& source,
                   const std::string& program) {
        for (int r = 0; r < kReplicas; ++r)
        for (Form f : {Form::Macro, Form::Autovec}) {
            Tenant t;
            t.key = "w-" + program + "-" + formName(f) + "-" +
                    std::to_string(r) + "#" + std::to_string(gen);
            t.bench = bench;
            t.source = source;
            t.program = program;
            t.form = formName(f);
            t.config = configFor(f);
            out.push_back(std::move(t));
        }
    };
    for (const std::string& p : kServicePrograms)
        add(p, "", p);
    if (withStr) {
        std::vector<std::string> paths = strExamplePaths();
        if (!paths.empty())
            add("", readFile(paths.front()),
                paths.front().substr(paths.front().rfind('/') + 1));
    }
    return out;
}

/** Everything one workload sent to its daemons, for the metrics and
 *  the per-tenant VM check. */
struct Ledger {
    std::vector<Tenant> tenants;
    std::vector<TenantTotals> totals;
    /** Every request and what came back. */
    struct Entry {
        Planned plan;
        Outcome out;
    };
    std::vector<Entry> entries;

    int addTenant(Tenant t)
    {
        tenants.push_back(std::move(t));
        totals.emplace_back();
        return static_cast<int>(tenants.size()) - 1;
    }

    void record(const Planned& p, const Outcome& o, Result& res)
    {
        ++res.attempted;
        if (!o.answered || !o.ok) {
            res.fail("request for tenant " +
                     tenants[static_cast<std::size_t>(p.tenant)].key +
                     (o.answered ? " failed: " + o.errorKind
                                 : std::string(" was never answered")));
        } else {
            TenantTotals& t = totals[static_cast<std::size_t>(p.tenant)];
            t.iters += p.iters;
            t.elements += o.elements;
            t.checksum += o.checksum;
        }
        entries.push_back({p, o});
    }
};

/** Sequential first request of every tenant in @p ids. */
void
warmUp(ServiceHarness& h, Ledger& ledger, const std::vector<int>& ids,
       Result& res)
{
    for (int id : ids) {
        Planned p;
        p.tenant = id;
        p.kind = RequestKind::NewTenant;
        p.step = -1;
        const Tenant& t = ledger.tenants[static_cast<std::size_t>(id)];
        Outcome o = timed("service.warmup", t.key, nullptr,
                          [&] { return h.call(t, p.iters); });
        ledger.record(p, o, res);
    }
}

/**
 * Poisson arrivals at @p rate over [@p from, @p from + @p seconds).
 * Tenants take turns in a seeded order, so every tenant's history
 * (and with it the daemon's per-tenant state) grows at the same pace
 * whatever the seed.
 */
void
poisson(std::mt19937_64& rng, double rate, double from, double seconds,
        std::vector<int> tenants, int step, std::vector<Planned>& plan)
{
    std::exponential_distribution<double> gap(rate);
    std::uniform_int_distribution<int> iters(1, 4);
    std::shuffle(tenants.begin(), tenants.end(), rng);
    std::size_t turn = 0;
    for (double t = from + gap(rng); t < from + seconds; t += gap(rng)) {
        Planned p;
        p.atSeconds = t;
        p.tenant = tenants[turn++ % tenants.size()];
        p.iters = iters(rng);
        p.kind = RequestKind::Warm;
        p.step = step;
        plan.push_back(p);
    }
}

void
playPlan(ServiceHarness& h, Ledger& ledger, std::vector<Planned> plan,
         Result& res)
{
    std::sort(plan.begin(), plan.end(),
              [](const Planned& a, const Planned& b) {
                  return a.atSeconds < b.atSeconds;
              });
    std::vector<Outcome> outs;
    {
        ScopedSpan span("service.load");
        outs = h.play(ledger.tenants, plan, 120.0);
    }
    for (std::size_t i = 0; i < plan.size(); ++i)
        ledger.record(plan[i], outs[i], res);
    // One span per request, from scheduled send to answer.
    if (Tracer::instance().enabled()) {
        for (std::size_t i = 0; i < plan.size(); ++i) {
            const Tenant& t =
                ledger.tenants[static_cast<std::size_t>(plan[i].tenant)];
            const Clock::time_point end =
                outs[i].scheduled +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::micro>(
                        outs[i].latencyUs));
            Tracer::instance().add(Tracer::instance().current(),
                                   "service.request", t.key,
                                   outs[i].scheduled, end);
        }
    }
}

/** Per-request native run time and ns/element from the tenants'
 *  cumulative steady wall clock (consecutive runs of one context). */
struct NativeRun {
    std::map<std::size_t, double> runUs;       ///< By entry index.
    std::map<int, std::vector<double>> nsPerElem;  ///< By tenant.
};

NativeRun
nativeRuns(const Ledger& ledger)
{
    NativeRun nr;
    std::map<int, std::vector<std::size_t>> byTenant;
    for (std::size_t i = 0; i < ledger.entries.size(); ++i)
        if (ledger.entries[i].out.ok)
            byTenant[ledger.entries[i].plan.tenant].push_back(i);
    for (auto& [tenant, idx] : byTenant) {
        std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
            return ledger.entries[a].out.tenantRuns <
                   ledger.entries[b].out.tenantRuns;
        });
        for (std::size_t k = 0; k < idx.size(); ++k) {
            const Outcome& o = ledger.entries[idx[k]].out;
            double us;
            if (o.tenantRuns == 1)
                us = o.nativeWallUs;
            else if (k > 0 && ledger.entries[idx[k - 1]].out.tenantRuns ==
                                  o.tenantRuns - 1)
                us = o.nativeWallUs - ledger.entries[idx[k - 1]].out.nativeWallUs;
            else
                continue;
            nr.runUs[idx[k]] = us;
            if (o.elements > 0)
                nr.nsPerElem[tenant].push_back(
                    us * 1e3 / static_cast<double>(o.elements));
        }
    }
    return nr;
}

/**
 * Latency and per-layer service metrics over the warm requests of
 * @p step (scheduled in [@p from, @p from + @p seconds)), plus the
 * daemon-side counters. Request latency percentiles are taken per
 * quarter of the step and the median quarter is reported, so one
 * burst of host preemption moves the tail of one quarter, not the
 * reported number.
 */
void
serviceMetrics(const Ledger& ledger, int step, double from, double seconds,
               const json::Value& counters, Result& res)
{
    constexpr int kWindows = 4;
    NativeRun nr = nativeRuns(ledger);
    std::vector<double> lat, queue, svc, run, wire, late;
    std::vector<std::vector<double>> windows(kWindows);
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < ledger.entries.size(); ++i) {
        const auto& e = ledger.entries[i];
        if (e.plan.step >= 0)
            late.push_back(e.out.lateUs);
        if (e.plan.step != step || e.plan.kind != RequestKind::Warm ||
            !e.out.ok)
            continue;
        lat.push_back(e.out.latencyUs);
        int w = static_cast<int>((e.plan.atSeconds - from) / seconds *
                                 kWindows);
        windows[static_cast<std::size_t>(std::clamp(w, 0, kWindows - 1))]
            .push_back(e.out.latencyUs);
        queue.push_back(e.out.queueUs);
        svc.push_back(e.out.serviceUs);
        wire.push_back(e.out.latencyUs - e.out.queueUs - e.out.serviceUs);
        if (nr.runUs.count(i))
            run.push_back(nr.runUs.at(i));
        if (lines.size() < 2000)
            lines.push_back(ServiceHarness::requestLine(
                ledger.tenants[static_cast<std::size_t>(e.plan.tenant)],
                e.plan.iters,
                "p" + std::to_string(i)));
    }
    std::vector<double> p50s, p95s, p99s;
    for (const std::vector<double>& w : windows) {
        p50s.push_back(quantile(w, 0.5));
        p95s.push_back(quantile(w, 0.95));
        p99s.push_back(quantile(w, 0.99));
    }
    res.metrics["req_p50_us"] = median(p50s);
    res.metrics["req_p95_us"] = median(p95s);
    res.metrics["req_p99_us"] = median(p99s);
    res.metrics["req_samples"] = static_cast<double>(lat.size());
    res.metrics["service.queue_us_p50"] = quantile(queue, 0.5);
    res.metrics["service.queue_us_p99"] = quantile(queue, 0.99);
    res.metrics["req_service_us_p50"] = quantile(svc, 0.5);
    res.metrics["service.native_run_us_p50"] = quantile(run, 0.5);
    res.metrics["service.wire_us_p50"] = quantile(wire, 0.5);
    res.metrics["generator.late_us_p99"] = quantile(late, 0.99);
    res.metrics["protocol.parse_us"] = ServiceHarness::parseMicros(lines);

    json::Value c = counters;
    res.metrics["service.compiles"] = c["compiles"].asDouble();
    res.metrics["service.cache_hits"] = c["cacheHits"].asDouble();
    res.metrics["service.coalesced"] = c["coalesced"].asDouble();
    res.metrics["service.overloaded"] = c["overloaded"].asDouble();
    double batches = c["batchesAdmitted"].asDouble();
    res.metrics["service.batch_fill"] =
        batches > 0 ? c["jobsAdmitted"].asDouble() / batches : 0.0;
    res.details["daemonCounters"] = c;
    res.details["reqSamples"] = static_cast<std::int64_t>(lat.size());

    // The slowest requests with their own record, so a tail can be
    // explained without re-running.
    std::vector<std::size_t> order(ledger.entries.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return ledger.entries[a].out.latencyUs > ledger.entries[b].out.latencyUs;
    });
    json::Value slow = json::Value::array();
    for (std::size_t k = 0; k < std::min<std::size_t>(20, order.size()); ++k) {
        const auto& e = ledger.entries[order[k]];
        json::Value r = json::Value::object();
        r["tenant"] =
            ledger.tenants[static_cast<std::size_t>(e.plan.tenant)].key;
        r["step"] = e.plan.step;
        r["atSeconds"] = e.plan.atSeconds;
        r["latencyUs"] = e.out.latencyUs;
        r["lateUs"] = e.out.lateUs;
        r["queueUs"] = e.out.queueUs;
        r["serviceUs"] = e.out.serviceUs;
        r["compileMs"] = e.out.compileMs;
        r["tenantRuns"] = e.out.tenantRuns;
        slow.push(std::move(r));
    }
    res.details["slowestRequests"] = std::move(slow);
}

/** Check every tenant against the bytecode VM. */
void
verify(const Ledger& ledger, Result& res)
{
    ScopedSpan span("bench.verify");
    std::vector<std::string> errors;
    verifyTenants(ledger.tenants, ledger.totals, &errors);
    for (const std::string& e : errors)
        res.fail(e);
}

} // namespace

void
runServiceProbe(const Options& opt, const std::string& cacheDir,
                Result& res)
{
    ScopedSpan span("bench.service_probe");
    ServiceHarness h(opt.runDir + "/probe.sock", cacheDir);
    Ledger ledger;
    std::vector<int> warm;
    for (Tenant& t : warmTenants(false, 0))
        warm.push_back(ledger.addTenant(std::move(t)));
    h.start();
    warmUp(h, ledger, warm, res);

    std::mt19937_64 rng(opt.seed * 0x2545f4914f6cdd1dull + 5);
    std::vector<Planned> plan;
    const double seconds = opt.smoke ? 1.0 : kProbeSeconds;
    poisson(rng, kLadder[kNominalStep], 0.0, seconds, warm, 0, plan);
    playPlan(h, ledger, std::move(plan), res);
    json::Value counters = h.counters();
    h.stop();
    serviceMetrics(ledger, 0, 0.0, seconds, counters, res);
    verify(ledger, res);
}

Result
runServiceOpen(const Options& opt)
{
    Result res;
    const std::string cacheDir = opt.runDir + "/service-cache";
    makeDirs(cacheDir);
    ServiceHarness h(opt.runDir + "/open.sock", cacheDir);
    Ledger ledger;

    // Cold set-up: a fresh daemon on an empty cache; every warm
    // tenant's first request pays its host compile. Measured twice:
    // here (its cache serves the rest of the run) and after the ladder
    // on a cache and ledger of its own, so one slow stretch of a
    // shared host does not set the number alone.
    std::vector<double> colds;
    auto coldSetUp = [&](ServiceHarness& harness, Ledger& into, int gen) {
        ScopedSpan span("bench.cold_setup");
        const Clock::time_point t0 = Clock::now();
        std::vector<int> ids;
        for (Tenant& t : warmTenants(true, gen))
            ids.push_back(into.addTenant(std::move(t)));
        harness.start();
        warmUp(harness, into, ids, res);
        colds.push_back(secondsSince(t0));
    };
    coldSetUp(h, ledger, 0);
    double coldCompileMs = 0;
    for (const auto& e : ledger.entries)
        coldCompileMs += e.out.compileMs;

    // Warm set-ups (median of five): restart the daemon on the warm
    // cache; the last one serves the load.
    std::vector<double> setups;
    std::vector<int> warm;
    for (int gen = 1; gen <= 5; ++gen) {
        ScopedSpan span("bench.setup");
        const Clock::time_point t0 = Clock::now();
        warm.clear();
        for (Tenant& t : warmTenants(true, gen))
            warm.push_back(ledger.addTenant(std::move(t)));
        h.start();
        warmUp(h, ledger, warm, res);
        setups.push_back(secondsSince(t0));
    }
    res.metrics["setup_s"] = median(setups);

    // The ladder. Every step mixes warm traffic with new tenants on
    // compiled programs and one never-seen (program, config) pair.
    std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ull + 3);
    std::vector<std::pair<std::string, int>> variants;
    for (const std::string& p : kServicePrograms)
        for (int w : {1, 2, 8})
            if (w <= native::probeMaxLaneWidth())
                variants.push_back({p, w});
    std::shuffle(variants.begin(), variants.end(), rng);

    const std::size_t steps = opt.smoke ? 2 : kLadder.size();
    const double stepSeconds = opt.smoke ? 1.0 : kStepSeconds;
    std::vector<Planned> plan;
    std::uniform_real_distribution<double> within(0.1, 0.9);
    // Compile-bearing requests land early in their step, so one
    // finishes before the next step's starts: two host compiles at once
    // would take both workers and overflow the run queue.
    std::uniform_real_distribution<double> early(0.1, 0.3);
    for (std::size_t s = 0; s < steps; ++s) {
        const double from = static_cast<double>(s) * stepSeconds;
        poisson(rng, kLadder[s], from, stepSeconds, warm,
                static_cast<int>(s), plan);
        for (int k = 0; k < 2; ++k) {
            Tenant t = ledger.tenants[static_cast<std::size_t>(
                warm[rng() % warm.size()])];
            t.key = "new-" + std::to_string(s) + "-" + std::to_string(k);
            Planned p;
            p.atSeconds = from + within(rng) * stepSeconds;
            p.tenant = ledger.addTenant(std::move(t));
            p.kind = RequestKind::NewTenant;
            p.step = static_cast<int>(s);
            plan.push_back(p);
        }
        if (s < variants.size() && (!opt.smoke || s == 0)) {
            Tenant t;
            t.bench = variants[s].first;
            t.program = variants[s].first;
            t.form = "w" + std::to_string(variants[s].second);
            t.config.laneWidth = variants[s].second;
            t.key = "compile-" + t.program + "-" + t.form;
            Planned p;
            p.atSeconds = from + early(rng) * stepSeconds;
            p.tenant = ledger.addTenant(std::move(t));
            p.kind = RequestKind::Compile;
            p.step = static_cast<int>(s);
            plan.push_back(p);
        }
    }
    playPlan(h, ledger, std::move(plan), res);
    json::Value counters = h.counters();
    h.stop();

    Ledger coldLedger;
    {
        const std::string dir = opt.runDir + "/service-cold";
        makeDirs(dir);
        ServiceHarness cold(opt.runDir + "/cold.sock", dir);
        coldSetUp(cold, coldLedger, 1);
    }
    res.metrics["cold_s_total"] = median(colds);
    json::Value coldSeconds = json::Value::array();
    for (double c : colds)
        coldSeconds.push(c);
    res.details["coldSetupSeconds"] = std::move(coldSeconds);

    // Per step: p99 of warm requests within the limit, every request
    // answered, and no growing backlog (the last quarter's median
    // latency within twice the first quarter's).
    double maxRps = 0;
    json::Value ladder = json::Value::array();
    for (std::size_t s = 0; s < steps; ++s) {
        std::vector<double> lat, first, last;
        bool allOk = true;
        const double from = static_cast<double>(s) * stepSeconds;
        for (const auto& e : ledger.entries) {
            if (e.plan.step != static_cast<int>(s))
                continue;
            allOk = allOk && e.out.ok;
            if (e.plan.kind != RequestKind::Warm || !e.out.ok)
                continue;
            lat.push_back(e.out.latencyUs);
            double at = (e.plan.atSeconds - from) / stepSeconds;
            if (at < 0.25)
                first.push_back(e.out.latencyUs);
            else if (at >= 0.75)
                last.push_back(e.out.latencyUs);
        }
        double p99 = quantile(lat, 0.99);
        bool backlog = median(last) > 2.0 * median(first);
        bool meets = allOk && p99 <= kSloUs && !backlog;
        if (meets)
            maxRps = kLadder[s];
        json::Value row = json::Value::object();
        row["rate"] = kLadder[s];
        row["samples"] = static_cast<std::int64_t>(lat.size());
        row["p50Us"] = quantile(lat, 0.5);
        row["p99Us"] = p99;
        row["growingBacklog"] = backlog;
        row["meetsSlo"] = meets;
        ladder.push(std::move(row));
    }
    res.metrics["max_rps_at_slo"] = maxRps;
    res.details["ladder"] = std::move(ladder);
    res.details["sloUs"] = kSloUs;

    serviceMetrics(ledger, static_cast<int>(kNominalStep),
                   static_cast<double>(kNominalStep) * stepSeconds,
                   stepSeconds, counters, res);

    // Native ns/element as the daemon serves it, per form.
    NativeRun nr = nativeRuns(ledger);
    for (Form f : {Form::Macro, Form::Autovec}) {
        std::map<std::string, std::vector<double>> byProgram;
        for (const auto& [tenant, v] : nr.nsPerElem) {
            const Tenant& t = ledger.tenants[static_cast<std::size_t>(tenant)];
            if (t.form == formName(f))
                byProgram[t.program].insert(byProgram[t.program].end(),
                                            v.begin(), v.end());
        }
        std::vector<double> perProgram;
        for (const auto& [prog, v] : byProgram)
            perProgram.push_back(median(v));
        res.metrics[std::string(formName(f)) + "_ns_per_elem"] =
            geomean(perProgram);
    }
    double compileMs = 0;
    for (const auto& e : ledger.entries)
        compileMs += e.out.compileMs;
    res.metrics["native.host_compile_ms"] = compileMs;
    res.details["coldSetupCompileMs"] = coldCompileMs;

    verify(ledger, res);
    verify(coldLedger, res);
    return res;
}

} // namespace perfbench
