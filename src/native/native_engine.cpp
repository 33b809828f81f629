/**
 * @file
 * Native engine implementation: emit → host compile → cache → dlopen.
 */
#include "native/native_engine.h"

#include <dlfcn.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>

#include "codegen/emit_cpp.h"
#include "native/compile_exec.h"
#include "native/native_cache.h"
#include "native/quarantine.h"
#include "native/signal_guard.h"
#include "native/simd_probe.h"
#include "support/diagnostics.h"
#include "support/env.h"
#include "support/fault.h"

namespace macross::native {

namespace fs = std::filesystem;

namespace {

/**
 * Probe for a working compiler through the same hardened spawn the
 * compile itself uses: no inherited stdout/stderr (std::system's
 * `command -v` probe leaked both), a real timeout so a wedged
 * toolchain wrapper cannot hang engine construction, and one retry
 * for transient spawn failures.
 */
bool
commandExists(const std::string& cmd)
{
    if (cmd.empty())
        return false;
    SpawnLimits limits;
    limits.wallMs = 15000;
    limits.maxAttempts = 2;
    return runCommand({cmd, "--version"}, limits).ok();
}

/**
 * The fail() callback emitted wait loops call when a ring wait is
 * aborted (watchdog shutdown) or times out. ctx carries the tape id.
 * PanicError unwinds through the emitted frames into the worker's
 * batch loop, which parks the worker — the same path an interp
 * worker takes out of SpscRing::waitSlow.
 */
[[noreturn]] void
ringFail(void* ctx, const char* msg)
{
    panic("native partition ring (tape ",
          static_cast<long long>(reinterpret_cast<std::intptr_t>(ctx)),
          "): ", msg);
}

} // namespace

std::uint64_t
fnv1a64(const std::string& data)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : data) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

json::Value
NativeStats::toJson() const
{
    json::Value v = json::Value::object();
    v["compiler"] = compiler;
    v["flags"] = flags;
    v["soPath"] = soPath;
    v["sourceHash"] = static_cast<std::int64_t>(sourceHash);
    v["cacheHit"] = cacheHit;
    v["coalesced"] = coalesced;
    v["compileMillis"] = compileMillis;
    v["compileAttempts"] = compileAttempts;
    v["steadyWallMicros"] = steadyWallMicros;
    v["abiVersion"] = abiVersion;
    v["exact"] = exact;
    json::Value simd = json::Value::object();
    simd["laneWidth"] = simdLanes;
    simd["isa"] = simdIsa;
    simd["fallback"] = simdFallback;
    v["simd"] = std::move(simd);
    if (quarantineFailures > 0) {
        json::Value q = json::Value::object();
        q["failures"] = quarantineFailures;
        q["reason"] = quarantineReason;
        v["quarantine"] = std::move(q);
    }
    return v;
}

std::string
detectHostCompiler(const std::string& preferred)
{
    if (!preferred.empty()) {
        fatalIf(!commandExists(preferred),
                "native engine: host compiler '", preferred,
                "' not found on PATH");
        return preferred;
    }
    // MACROSS_NATIVE_CXX is an explicit pin, not a hint: if it names
    // a missing compiler, fail rather than silently measuring with a
    // different toolchain (the CI matrix relies on this).
    if (const char* env = std::getenv("MACROSS_NATIVE_CXX")) {
        if (*env) {
            fatalIf(!commandExists(env),
                    "native engine: $MACROSS_NATIVE_CXX compiler '",
                    env, "' not found on PATH");
            return env;
        }
    }
    std::vector<std::string> candidates;
    if (const char* env = std::getenv("CXX"))
        candidates.push_back(env);
    candidates.push_back("c++");
    candidates.push_back("g++");
    candidates.push_back("clang++");
    for (const auto& c : candidates) {
        if (commandExists(c))
            return c;
    }
    fatal("native engine: no host C++ compiler found (tried $CXX, "
          "c++, g++, clang++); install one or point "
          "MACROSS_NATIVE_CXX at it");
}

std::string
resolveCacheDir(const NativeOptions& opts)
{
    std::string dir = opts.cacheDir;
    if (dir.empty()) {
        if (const char* env = std::getenv("MACROSS_CACHE_DIR"))
            dir = env;
    }
    if (dir.empty()) {
        // The predictable per-euid default is the path a hostile
        // local user could pre-create or symlink; the .so cache is
        // worse than the tuning cache (we dlopen and *execute* what
        // we find there), so it gets the same 0700 +
        // ownership/symlink verification with mkdtemp fallback.
        // Explicitly configured directories are taken as given.
        const char* tmp = std::getenv("TMPDIR");
        dir = std::string(tmp && *tmp ? tmp : "/tmp") +
              "/macross-native-cache-" +
              std::to_string(static_cast<long>(::geteuid()));
        return support::ensurePrivateDir(dir, "native object cache");
    }
    std::error_code ec;
    fs::create_directories(dir, ec);
    fatalIf(static_cast<bool>(ec),
            "native engine: cannot create cache directory ", dir, ": ",
            ec.message());
    return dir;
}

NativeProgram::NativeProgram(const graph::FlatGraph& g,
                             const schedule::Schedule& s,
                             const NativeOptions& opts,
                             const codegen::SimdSpec& spec)
    : NativeProgram(g, s, 1, {}, opts, spec)
{
    wholeProgram_ = true;
}

NativeProgram::NativeProgram(const graph::FlatGraph& g,
                             const schedule::Schedule& s, int cores,
                             const std::vector<int>& core_of,
                             const NativeOptions& opts,
                             const codegen::SimdSpec& spec)
    : cores_(cores)
{
    fatalIf(cores_ < 1, "native engine: cores must be >= 1");
    for (const auto& a : g.actors) {
        if (a.isFilter() && a.outputs.empty() && !a.inputs.empty())
            sinkElem_ = g.tape(a.inputs[0]).elem;
    }

    // Runtime ISA dispatch: refuse a width the host cannot execute
    // and fall back to the scalar layer, visibly (stats), not with a
    // SIGILL three calls later.
    codegen::validateSimdSpec(spec);
    spec_ = spec;
    const int hostMax = opts.maxLaneWidthOverride > 0
                            ? opts.maxLaneWidthOverride
                            : probeMaxLaneWidth();
    if (spec_.laneWidth > hostMax) {
        spec_.laneWidth = 1;
        stats_.simdFallback = true;
    }
    stats_.simdLanes = spec_.laneWidth;
    stats_.simdIsa = spec_.isa;
    stats_.exact = !spec_.allowUlpDivergence;

    codegen::EmitOptions eo;
    eo.mode = codegen::EmitMode::Library;
    eo.simd = spec_;
    eo.partitionCores = cores_;
    eo.partitionCoreOf = core_of;
    detail::compileOrLoadCached(
        opts, spec_, codegen::emitCpp(g, s, eo), &stats_,
        [this](const std::string& so, int* abi) {
            return tryBind(so, abi);
        });
    wallMicros_.assign(static_cast<std::size_t>(cores_), 0.0);
    batches_.assign(static_cast<std::size_t>(cores_), 0);
}

NativeProgram::~NativeProgram()
{
    unload();
}

void
NativeProgram::unload()
{
    if (destroyPartition_) {
        for (void* p : parts_) {
            // A program that already crashed may crash again in its
            // destructor; swallow it — the state is abandoned anyway.
            if (p)
                (void)signal_guard::run(
                    [&] { destroyPartition_(p); });
        }
    }
    parts_.clear();
    if (handle_)
        ::dlclose(handle_);
    handle_ = nullptr;
    destroyPartition_ = nullptr;
    ringBind_ = nullptr;
    initAll_ = nullptr;
    runSteadyPartition_ = nullptr;
    captureSize_ = nullptr;
    captureData_ = nullptr;
    sinkCore_ = -1;
}

detail::BindStatus
NativeProgram::tryBind(const std::string& so_path, int* found_abi)
{
    using detail::BindStatus;
    unload();
    if (found_abi)
        *found_abi = 0;
    // Chaos hook: a failed dlopen is indistinguishable from a
    // truncated cache entry — the recompile path must absorb it.
    if (support::FaultInjector::fire("native.dlopen.fail"))
        return BindStatus::LoadFailed;
    handle_ = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!handle_)
        return BindStatus::LoadFailed;
    auto sym = [&](const char* name) {
        return ::dlsym(handle_, name);
    };
    auto* abi = reinterpret_cast<int (*)()>(sym("macross_abi_version"));
    if (!abi) {
        unload();
        return BindStatus::LoadFailed;
    }
    const int version = abi();
    if (found_abi)
        *found_abi = version;
    if (version != codegen::kNativeAbiVersion) {
        // An object that loads but speaks a different ABI version is
        // reported upward, not recompiled over: the cache key covers
        // the emitted source, so this is version skew, not staleness.
        unload();
        return BindStatus::AbiMismatch;
    }
    auto* simdLanes =
        reinterpret_cast<int (*)()>(sym("macross_simd_lanes"));
    auto* simdIsa = reinterpret_cast<const char* (*)()>(
        sym("macross_simd_isa"));
    auto* exact = reinterpret_cast<int (*)()>(sym("macross_exact"));
    auto* numPartitions =
        reinterpret_cast<int (*)()>(sym("macross_num_partitions"));
    auto* createPartition = reinterpret_cast<void* (*)(int)>(
        sym("macross_create_partition"));
    auto* sinkPartition =
        reinterpret_cast<int (*)()>(sym("macross_sink_partition"));
    destroyPartition_ = reinterpret_cast<void (*)(void*)>(
        sym("macross_destroy_partition"));
    ringBind_ = reinterpret_cast<int (*)(void*, int, void*)>(
        sym("macross_ring_bind"));
    initAll_ = reinterpret_cast<void (*)(void**, int)>(
        sym("macross_init_all"));
    runSteadyPartition_ = reinterpret_cast<void (*)(void*, int)>(
        sym("macross_run_steady_partition"));
    captureSize_ = reinterpret_cast<unsigned long long (*)(void*)>(
        sym("macross_capture_size"));
    captureData_ = reinterpret_cast<const unsigned int* (*)(void*)>(
        sym("macross_capture_data"));
    if (!simdLanes || !simdIsa || !exact || !numPartitions ||
        !createPartition || !sinkPartition || !destroyPartition_ ||
        !ringBind_ || !initAll_ || !runSteadyPartition_ ||
        !captureSize_ || !captureData_ || numPartitions() != cores_) {
        unload();
        return BindStatus::LoadFailed;
    }
    // create_partition() is the first entry into the object's code; a
    // crash here (corrupted object, hostile static data) maps to a
    // plain load failure so the recompile-once path absorbs it.
    parts_.assign(static_cast<std::size_t>(cores_), nullptr);
    const auto crash = signal_guard::run([&] {
        for (int k = 0; k < cores_; ++k)
            parts_[static_cast<std::size_t>(k)] = createPartition(k);
    });
    for (void* p : parts_) {
        if (crash || !p) {
            unload();
            return BindStatus::LoadFailed;
        }
    }
    sinkCore_ = sinkPartition();
    // Record the lowering the object itself reports — the loaded .so,
    // not the request, is the ground truth for stats.
    stats_.abiVersion = version;
    stats_.simdLanes = simdLanes();
    stats_.simdIsa = simdIsa();
    stats_.exact = exact() != 0;
    return BindStatus::Ok;
}

void
NativeProgram::bindRing(int tape_id, interp::SpscRing* ring)
{
    panicIf(initDone_, "native engine: bindRing after init");
    bindings_.push_back(RingBinding{
        ring->slotsData(),
        static_cast<long long>(ring->mask()),
        // atomic<int64_t> is layout-transparent plain 64-bit storage
        // (static_asserts in spsc_queue.h); emitted code accesses it
        // with __atomic builtins at the same acquire/release orders
        // the interpreter uses.
        reinterpret_cast<long long*>(ring->tailAtomic()),
        reinterpret_cast<long long*>(ring->headAtomic()),
        static_cast<long long>(ring->headBlock()),
        static_cast<long long>(ring->tailBlock()),
        reinterpret_cast<unsigned char*>(ring->abortedFlag()),
        reinterpret_cast<void*>(static_cast<std::intptr_t>(tape_id)),
        &ringFail,
    });
    int bound = 0;
    for (void* p : parts_)
        bound += ringBind_(p, tape_id, &bindings_.back());
    panicIf(bound != 2, "native engine: tape ", tape_id, " bound by ",
            bound, " partitions (expected producer + consumer)");
}

void
NativeProgram::init()
{
    panicIf(initDone_, "NativeProgram::init called twice");
    initDone_ = true;
    detail::runEmittedGuarded("init", /*partition=*/-1,
                              /*batch_index=*/-1, stats_.soPath,
                              [&] { initAll_(parts_.data(), cores_); });
}

void
NativeProgram::runSteady(int iterations)
{
    panicIf(cores_ != 1, "NativeProgram::runSteady on a ", cores_,
            "-partition program (use runSteadyPartition)");
    if (!initDone_)
        init();
    runSteadyPartition(0, iterations);
    stats_.steadyWallMicros = wallMicros_[0];
    liftQuarantine();
}

void
NativeProgram::runSteadyPartition(int core, int iterations)
{
    panicIf(!initDone_, "native engine: runSteadyPartition before init");
    const auto k = static_cast<std::size_t>(core);
    auto t0 = std::chrono::steady_clock::now();
    detail::runEmittedGuarded(
        "steady", faultPartition(core), batches_[k], stats_.soPath,
        [&] {
            // Chaos hook: the armed action crashes this thread inside
            // the guarded region, before emitted state mutates — the
            // captured prefix stays a clean batch boundary. The
            // payload carries the partition (-1 = whole program) so a
            // test can target one partition of many.
            std::int64_t part = faultPartition(core);
            support::FaultInjector::fire("native.steady.crash",
                                         &part);
            runSteadyPartition_(parts_[k], iterations);
        });
    ++batches_[k];
    wallMicros_[k] += std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
}

void
NativeProgram::liftQuarantine()
{
    if (quarantineCleared_ || stats_.quarantineFailures == 0)
        return;
    quarantine::clear(stats_.soPath);
    quarantineCleared_ = true;
}

std::size_t
NativeProgram::capturedSize() const
{
    return capturedLanes().size();
}

std::span<const std::uint32_t>
NativeProgram::capturedLanes() const
{
    if (sinkCore_ < 0)
        return {};
    void* sink = parts_[static_cast<std::size_t>(sinkCore_)];
    return {captureData_(sink),
            static_cast<std::size_t>(captureSize_(sink))};
}

void
NativeProgram::appendCaptured(std::size_t first, std::size_t last,
                              std::vector<interp::Value>& out) const
{
    const std::span<const std::uint32_t> lanes =
        capturedLanes().subspan(first, last - first);
    for (std::uint32_t lane : lanes) {
        interp::Value v = interp::Value::zero(sinkElem_);
        v.setRawBits(0, lane);
        out.push_back(v);
    }
}

std::vector<interp::Value>
NativeProgram::captured() const
{
    const std::size_t n = capturedSize();
    std::vector<interp::Value> out;
    out.reserve(n);
    appendCaptured(0, n, out);
    return out;
}

} // namespace macross::native
