#include "service_load.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "benchmarks/suite.h"
#include "common.h"
#include "frontend/parser.h"
#include "interp/runner.h"
#include "service/client.h"
#include "service/daemon.h"
#include "vectorizer/compile_service.h"

using namespace macross;

namespace perfbench {

class DaemonHolder {
  public:
    explicit DaemonHolder(service::DaemonOptions opts) : d(std::move(opts))
    {
        d.start();
    }
    ~DaemonHolder()
    {
        d.requestShutdown();
        d.wait();
    }
    service::Daemon d;
};

/** A request in flight: where its answer goes. */
struct ServiceHarness::Inflight {
    Outcome* out = nullptr;
    Clock::time_point scheduled;
};

struct ServiceHarness::Connection {
    int fd = -1;
    std::thread reader;
    std::mutex writeMu;
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::string, Inflight> pending;  ///< Under mu.

    void send(const std::string& line)
    {
        std::lock_guard<std::mutex> lk(writeMu);
        std::size_t off = 0;
        while (off < line.size()) {
            ssize_t n = ::send(fd, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("send to daemon failed");
            off += static_cast<std::size_t>(n);
        }
    }

    void readLoop()
    {
        std::string buf;
        char chunk[65536];
        for (;;) {
            ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            Clock::time_point now = Clock::now();
            buf.append(chunk, static_cast<std::size_t>(n));
            std::size_t nl;
            while ((nl = buf.find('\n')) != std::string::npos) {
                std::string line = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                deliver(line, now);
            }
        }
        std::lock_guard<std::mutex> lk(mu);
        cv.notify_all();
    }

    void deliver(const std::string& line, Clock::time_point now)
    {
        json::Value v;
        try {
            v = json::parse(line);
        } catch (const std::exception&) {
            return;  // Unmatched: the request stays unanswered.
        }
        const json::Value* id = v.find("id");
        if (!id || id->kind() != json::Value::Kind::String)
            return;
        std::lock_guard<std::mutex> lk(mu);
        auto it = pending.find(id->asString());
        if (it == pending.end())
            return;
        Outcome& o = *it->second.out;
        o.answered = true;
        o.latencyUs = std::chrono::duration<double, std::micro>(
                          now - it->second.scheduled)
                          .count();
        const json::Value* ok = v.find("ok");
        o.ok = ok && ok->kind() == json::Value::Kind::Bool && ok->asBool();
        if (!o.ok) {
            const json::Value* k = v.find("kind");
            o.errorKind = k ? k->asString() : "unknown";
        } else {
            o.elements = v["elements"].asInt();
            o.checksum = std::stoull(v["checksum"].asString(), nullptr, 16);
            o.tenantRuns = v["tenantRuns"].asInt();
            o.queueUs = v["queueMicros"].asDouble();
            o.serviceUs = v["serviceMicros"].asDouble();
            if (const json::Value* nat = v.find("native")) {
                json::Value n = *nat;
                o.nativeWallUs = n["steadyWallMicros"].asDouble();
                o.compileMs = n["compileMillis"].asDouble();
            }
        }
        pending.erase(it);
        cv.notify_all();
    }
};

ServiceHarness::ServiceHarness(std::string socketPath,
                               std::string cacheDir)
    : socketPath_(std::move(socketPath)), cacheDir_(std::move(cacheDir))
{
    // Half the hardware threads serve, the other half carry load.
    const int n = hostThreads();
    workers_ = std::max(1, n / 2);
    connections_ = std::max(1, n - workers_);
}

ServiceHarness::~ServiceHarness()
{
    stop();
}

void
ServiceHarness::start()
{
    stop();
    service::DaemonOptions o;
    o.socketPath = socketPath_;
    o.workers = workers_;
    o.native.cacheDir = cacheDir_;
    daemon_ = std::make_unique<DaemonHolder>(std::move(o));
    for (int i = 0; i < connections_; ++i) {
        auto c = std::make_unique<Connection>();
        c->fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (c->fd < 0)
            throw std::runtime_error("socket() failed");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, socketPath_.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(c->fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof addr) != 0) {
            ::close(c->fd);
            throw std::runtime_error("cannot connect to " + socketPath_);
        }
        Connection* raw = c.get();
        c->reader = std::thread([raw] { raw->readLoop(); });
        conns_.push_back(std::move(c));
    }
}

void
ServiceHarness::stop()
{
    for (auto& c : conns_) {
        ::shutdown(c->fd, SHUT_RDWR);
        if (c->reader.joinable())
            c->reader.join();
        ::close(c->fd);
    }
    conns_.clear();
    daemon_.reset();
}

std::string
ServiceHarness::requestLine(const Tenant& t, int iters,
                            const std::string& id)
{
    service::Request r;
    r.op = service::RequestOp::Run;
    r.id = id;
    r.tenant = t.key;
    r.bench = t.bench;
    r.source = t.source;
    r.iters = iters;
    r.config = t.config;
    return r.toJson().dump() + "\n";
}

Outcome
ServiceHarness::call(const Tenant& tenant, int iters)
{
    Outcome out;
    std::string id = "c" + std::to_string(nextId_++);
    std::string line = requestLine(tenant, iters, id);
    Connection& c = *conns_.front();
    {
        std::lock_guard<std::mutex> lk(c.mu);
        c.pending[id] = Inflight{&out, Clock::now()};
    }
    c.send(line);
    std::unique_lock<std::mutex> lk(c.mu);
    c.cv.wait_for(lk, std::chrono::seconds(150),
                  [&] { return out.answered; });
    c.pending.erase(id);
    return out;
}

std::vector<Outcome>
ServiceHarness::play(const std::vector<Tenant>& tenants,
                     const std::vector<Planned>& plan,
                     double drainSeconds)
{
    std::vector<Outcome> out(plan.size());
    std::vector<std::string> ids(plan.size()), lines(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        ids[i] = "p" + std::to_string(nextId_++);
        lines[i] = requestLine(tenants[static_cast<std::size_t>(
                                   plan[i].tenant)],
                               plan[i].iters, ids[i]);
    }
    // A tenant always uses the same connection, so its requests reach
    // the daemon in schedule order.
    auto connOf = [&](std::size_t i) -> Connection& {
        return *conns_[static_cast<std::size_t>(plan[i].tenant) %
                       conns_.size()];
    };

    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < plan.size(); ++i) {
        Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(plan[i].atSeconds));
        std::this_thread::sleep_until(due);
        Connection& c = connOf(i);
        {
            std::lock_guard<std::mutex> lk(c.mu);
            c.pending[ids[i]] = Inflight{&out[i], due};
            out[i].scheduled = due;
        }
        out[i].lateUs =
            std::chrono::duration<double, std::micro>(Clock::now() - due)
                .count();
        c.send(lines[i]);
    }

    // Drain: wait for every answer, up to the deadline.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(drainSeconds));
    for (auto& c : conns_) {
        std::unique_lock<std::mutex> lk(c->mu);
        c->cv.wait_until(lk, deadline, [&] { return c->pending.empty(); });
    }
    for (auto& c : conns_) {
        std::lock_guard<std::mutex> lk(c->mu);
        c->pending.clear();
    }
    return out;
}

json::Value
ServiceHarness::counters()
{
    service::Client client(socketPath_);
    json::Value v = client.stats();
    return v["counters"];
}

double
ServiceHarness::parseMicros(const std::vector<std::string>& lines)
{
    std::vector<double> us;
    us.reserve(lines.size());
    for (const std::string& l : lines) {
        Clock::time_point t0 = Clock::now();
        service::Request r = service::Request::fromJson(json::parse(l));
        us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
        if (r.iters < 1)
            throw std::runtime_error("request line lost its iters");
    }
    return median(std::move(us));
}

int
verifyTenants(const std::vector<Tenant>& tenants,
              const std::vector<TenantTotals>& totals,
              std::vector<std::string>* errors)
{
    int bad = 0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const Tenant& t = tenants[i];
        const TenantTotals& tot = totals[i];
        if (tot.iters == 0)
            continue;
        graph::StreamPtr stream =
            t.bench.empty() ? frontend::parseProgram(t.source)
                            : benchmarks::benchmarkByName(t.bench);
        vectorizer::CompileService svc(stream);
        const vectorizer::CompiledProgram& p =
            svc.compile(t.config.simdizeOptions(), t.config.simd);
        interp::Runner r(p.graph, p.schedule);
        r.runInit();
        std::size_t first = r.captured().size();
        r.runSteady(static_cast<int>(tot.iters));
        std::uint64_t sum = service::checksumLanes(r.captured(), first);
        std::int64_t elements =
            static_cast<std::int64_t>(r.captured().size() - first);
        if (sum != tot.checksum || elements != tot.elements) {
            ++bad;
            errors->push_back(
                "tenant " + t.key + ": " + std::to_string(tot.iters) +
                " iterations gave " + std::to_string(tot.elements) +
                " elements, checksum " + service::hex64(tot.checksum) +
                "; the bytecode VM gives " + std::to_string(elements) +
                ", " + service::hex64(sum));
        }
    }
    return bad;
}

} // namespace perfbench
