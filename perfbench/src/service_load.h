/**
 * @file
 * Open-loop load against an in-process macrossd (service::Daemon).
 *
 * The daemon runs in the benchmark's process on a private socket and
 * a private .so cache under the run directory. The load comes from
 * this process too: one generator thread sends pre-serialized request
 * lines at their scheduled times over a few pipelined connections,
 * and one reader thread per connection matches responses by id.
 * Latency is measured from each request's *scheduled* send time, so a
 * stall shows up in every request it delays, and the generator's own
 * lateness is recorded beside it.
 *
 * Daemon workers plus client connections never exceed the host's
 * hardware threads.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "support/json.h"

namespace perfbench {

/** One tenant: a (program, configuration) the daemon keeps warm. */
struct Tenant {
    std::string key;
    /** Built-in benchmark name, or empty when `source` is set. */
    std::string bench;
    std::string source;
    /** Label for reports ("FMRadio", "equalizer.str"). */
    std::string program;
    /** "macro", "autovec" or a variant label. */
    std::string form;
    macross::tuner::TuneConfig config;
};

/** Why a request is in the mix. */
enum class RequestKind { Warm, NewTenant, Compile };

/** One scheduled request of an open-loop plan. */
struct Planned {
    double atSeconds = 0.0;  ///< Offset from the start of play().
    int tenant = 0;          ///< Index into the tenant table.
    int iters = 1;
    RequestKind kind = RequestKind::Warm;
    int step = 0;            ///< Ladder step (rate index).
};

/** What came back for one request. */
struct Outcome {
    bool answered = false;
    std::chrono::steady_clock::time_point scheduled;
    bool ok = false;
    std::string errorKind;
    std::int64_t elements = 0;
    std::uint64_t checksum = 0;
    std::int64_t tenantRuns = 0;
    double latencyUs = 0.0;  ///< Receive time minus scheduled time.
    double lateUs = 0.0;     ///< Actual send minus scheduled send.
    double queueUs = 0.0;
    double serviceUs = 0.0;
    double nativeWallUs = 0.0;  ///< Tenant's cumulative steady wall.
    double compileMs = 0.0;
};

class DaemonHolder;

class ServiceHarness {
  public:
    /**
     * @param socketPath Unix socket path for the daemon (relative to
     *                   the working directory keeps it short).
     * @param cacheDir   Private .so cache directory.
     */
    ServiceHarness(std::string socketPath, std::string cacheDir);
    ~ServiceHarness();

    ServiceHarness(const ServiceHarness&) = delete;
    ServiceHarness& operator=(const ServiceHarness&) = delete;

    /** Start a fresh daemon and connect the clients. */
    void start();
    /** Disconnect, shut the daemon down and join all threads. */
    void stop();

    /** Send one request for @p tenant and wait for its answer. */
    Outcome call(const Tenant& tenant, int iters);

    /**
     * Play @p plan open-loop over @p tenants; returns one outcome per
     * planned request (unanswered ones after @p drainSeconds past the
     * last send stay `answered == false`).
     */
    std::vector<Outcome> play(const std::vector<Tenant>& tenants,
                              const std::vector<Planned>& plan,
                              double drainSeconds);

    /** The daemon's `stats` counters. */
    macross::json::Value counters();

    /** Median microseconds to parse one request line the way the
     *  daemon does (json::parse + Request::fromJson). */
    static double parseMicros(const std::vector<std::string>& lines);

    /** The request line for (tenant, iters) with correlation @p id. */
    static std::string requestLine(const Tenant& t, int iters,
                                   const std::string& id);

  private:
    struct Connection;
    struct Inflight;

    std::string socketPath_;
    std::string cacheDir_;
    int workers_ = 1;
    int connections_ = 1;
    std::unique_ptr<DaemonHolder> daemon_;
    std::vector<std::unique_ptr<Connection>> conns_;
    std::atomic<std::int64_t> nextId_{0};
};

/** Per-tenant totals over a set of outcomes (for the VM check). */
struct TenantTotals {
    std::int64_t iters = 0;
    std::int64_t elements = 0;
    std::uint64_t checksum = 0;
};

/**
 * Check every tenant's concatenated per-request results against a
 * serial bytecode-VM run of the same total iterations. Returns the
 * number of tenants whose totals disagree; messages go to @p errors.
 */
int verifyTenants(const std::vector<Tenant>& tenants,
                  const std::vector<TenantTotals>& totals,
                  std::vector<std::string>* errors);

} // namespace perfbench
