/**
 * @file
 * Native execution engine: run MacroSS-emitted C++ through the host
 * compiler as a real machine-code backend.
 *
 * The paper's evaluation compiles MacroSS output with ICC and runs it
 * on real hardware; this engine closes the same loop for the
 * reproduction. A NativeProgram takes a compiled (possibly SIMDized)
 * flat graph plus its schedule, a codegen::SimdSpec and optionally a
 * multicore partition, emits the library-shaped translation unit
 * (codegen::EmitMode::Library) with the spec's true-SIMD vector
 * layer, invokes the host C++ compiler (`-O3 -march=native` by
 * default; SimdSpec.isa != "auto" appends an explicit -march),
 * dlopen()s the resulting shared object, and drives it through the
 * stable C ABI v3 partition surface:
 *
 *     int   macross_abi_version();                  // == 3
 *     int   macross_simd_lanes() / _simd_isa() / _exact();
 *     int   macross_num_partitions();
 *     void* macross_create_partition(int core);     // PartitionBase*
 *     void  macross_destroy_partition(void*);
 *     int   macross_ring_bind(void*, int tape, void* ring);
 *     void  macross_init_all(void** handles, int n);
 *     void  macross_run_steady_partition(void*, int iters);
 *     void  macross_flush_partition(void*);
 *     int   macross_sink_partition();               // -1 = no sink
 *     u64   macross_capture_size(void* sink_handle);
 *     const u32* macross_capture_data(void* sink_handle);
 *
 * A serial program is the one-partition case, exactly as a MacroSS
 * multicore run partitions the same SIMDized graph a single core runs:
 * init() and runSteady() drive partition 0, and a 1-core partition
 * emits the same source, so it shares the serial program's cached
 * object. For a multicore partition the host (ParallelRunner) binds
 * every cross-core tape to an in-process interp::SpscRing via
 * bindRing() — which materializes the ABI's MacrossRing binding
 * struct from the ring's raw accessors — runs the warm-up
 * single-threaded via init(), and then calls runSteadyPartition() for
 * each core from that core's worker thread. Emitted code follows the
 * interpreter's ring protocol exactly, so the output stream is
 * bit-identical to every serial engine. On shutdown,
 * SpscRing::abortWaits() makes emitted wait loops call the binding's
 * fail() callback, which panics host-side; the PanicError unwinds
 * through the emitted frames (compiled with exceptions enabled) into
 * the worker's batch loop, exactly like an interp worker parked by
 * the watchdog.
 *
 * Runtime ISA dispatch: before emitting, the engine probes the host
 * (simd_probe.h) and, if the requested lane width exceeds what the
 * CPU can execute, falls back to the scalar W=1 layer — recorded as
 * NativeStats.simdFallback, never silent, never a SIGILL.
 *
 * Shared objects are cached by a 64-bit content hash of the emitted
 * source, the compiler, the flags, and the effective SimdSpec, in a
 * directory resolved from MACROSS_CACHE_DIR (default: a per-user
 * directory under the system temp dir). A cache hit skips the compile
 * entirely; an unloadable, symbol-incomplete or create-crashing entry
 * is deleted and recompiled once, but an entry that loads and then
 * reports a foreign ABI version is a FatalError naming both versions
 * — the cache key covers the emitted source, so version skew at the
 * expected path means toolchain or cache tampering, not staleness.
 * Compiles go through a unique temp file plus an atomic rename, so
 * concurrent processes sharing one cache directory race benignly.
 *
 * The captured sink stream stays in the emitted sink buffer as raw
 * 32-bit lanes. capturedLanes() reads it in place at a batch barrier
 * (no copy, no boxing), so a caller that wants only the latest batch
 * pays only for that batch. captured() boxes the lanes into
 * interp::Value with the sink tape's element type, so the comparison
 * against the bytecode VM and the tree executor is bit-exact, not
 * approximate.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "codegen/simd_spec.h"
#include "graph/flat_graph.h"
#include "interp/spsc_queue.h"
#include "interp/value.h"
#include "schedule/steady_state.h"
#include "support/json.h"

namespace macross::native {

namespace detail {
enum class BindStatus;  // native_cache.h
} // namespace detail

/** Host-compilation options. */
struct NativeOptions {
    /**
     * Host C++ compiler command. Empty auto-detects:
     * $MACROSS_NATIVE_CXX if set (authoritative — fatal if it names a
     * missing compiler, so CI pins can't silently degrade), else the
     * first of $CXX, c++, g++, clang++ that resolves on PATH. A
     * non-empty value here is used as-is and is fatal if missing.
     */
    std::string compiler;
    /**
     * Optimization/codegen flags (one shell word list). Two of these
     * are load-bearing for bit-identity against the interpreter:
     * -ffp-contract=off, because -march=native exposes FMA and the
     * compiler would otherwise contract a*b+c into one fused rounding
     * (the interpreter rounds the multiply and the add separately);
     * and -frounding-math, because after full unrolling the compiler
     * constant-folds libm calls on constant arguments (e.g. the IMDCT
     * cosine bank) with its own correctly-rounded MPFR evaluation,
     * which can differ by 1 ULP from the runtime libm the interpreter
     * calls.
     */
    std::string flags =
        "-O3 -march=native -ffp-contract=off -frounding-math";
    /**
     * Object-cache directory. Empty resolves $MACROSS_CACHE_DIR, then
     * a per-user default under the system temp directory.
     */
    std::string cacheDir;
    /**
     * Test hook: pretend the host supports at most this many lanes
     * (0 = use the real probe). Lets the refuse-and-fallback path be
     * exercised on machines that support every width.
     */
    int maxLaneWidthOverride = 0;
    /**
     * Wall-clock budget for one host-compiler invocation, in
     * milliseconds. 0 resolves $MACROSS_COMPILE_TIMEOUT_MS, then the
     * 120 s default (compile_exec.h). Past the budget the compiler's
     * process group is killed and the build surfaces as a
     * NativeFaultKind::CompileTimeout fault.
     */
    std::int64_t compileTimeoutMs = 0;
};

/** Everything a report wants to know about one native build/run. */
struct NativeStats {
    std::string compiler;       ///< Resolved compiler command.
    std::string flags;          ///< Flags the object was built with.
    std::string soPath;         ///< Cached shared object path.
    std::uint64_t sourceHash = 0;  ///< Content hash (source+compiler+flags).
    bool cacheHit = false;      ///< Loaded without recompiling.
    /** Cache hit after waiting on another thread's or process's
     *  in-flight compile of the same hash (single-flight coalescing:
     *  this request paid a wait, not a compile). */
    bool coalesced = false;
    double compileMillis = 0.0; ///< Host-compiler wall time (0 on hit).
    int compileAttempts = 0;    ///< Spawn attempts (retries included).
    double steadyWallMicros = 0.0;  ///< Accumulated native steady time.
    int abiVersion = 0;         ///< ABI version the loaded .so reports.
    int simdLanes = 0;          ///< Lane width the .so was built with.
    std::string simdIsa;        ///< ISA selector the .so was built with.
    bool simdFallback = false;  ///< Requested width refused; W=1 used.
    bool exact = true;          ///< Bit-identical contract (see SimdSpec).
    /** Quarantine failures recorded against this cache entry when it
     *  was consulted (1 = recompiled fresh on the retry path). */
    std::int64_t quarantineFailures = 0;
    std::string quarantineReason;  ///< Last recorded crash diagnostic.

    /** The run.stats.native build block (the caller adds its engine
     *  policy and fault records). */
    json::Value toJson() const;
};

/**
 * Resolve the host compiler for @p preferred (see
 * NativeOptions::compiler). Fatal (FatalError) if no candidate
 * resolves — the native engine cannot degrade gracefully without a
 * compiler, and silently falling back to an interpreter would
 * misreport measured numbers.
 */
std::string detectHostCompiler(const std::string& preferred = {});

/** Resolve (and create) the object-cache directory for @p opts. */
std::string resolveCacheDir(const NativeOptions& opts);

/** FNV-1a 64-bit hash used for cache keys (exposed for tests). */
std::uint64_t fnv1a64(const std::string& data);

/** One emitted program, compiled to machine code and loaded. */
class NativeProgram {
  public:
    /**
     * The whole program as one partition: emit with @p spec (after
     * probe-based fallback, see file comment), compile (or
     * cache-load), and bind @p g under @p s. Fault records and the
     * `native.steady.crash` payload report partition -1. Fatal on a
     * missing compiler, a failed host compile (with the compiler's
     * diagnostics in the message), or an ABI-version mismatch in the
     * loaded object.
     */
    NativeProgram(const graph::FlatGraph& g,
                  const schedule::Schedule& s,
                  const NativeOptions& opts = {},
                  const codegen::SimdSpec& spec = {});
    /**
     * The multicore partition @p core_of over @p cores: one partition
     * instance per core, each driven by runSteadyPartition(). Same
     * fallback and failure modes as the whole-program constructor.
     */
    NativeProgram(const graph::FlatGraph& g,
                  const schedule::Schedule& s, int cores,
                  const std::vector<int>& core_of,
                  const NativeOptions& opts = {},
                  const codegen::SimdSpec& spec = {});
    ~NativeProgram();

    NativeProgram(const NativeProgram&) = delete;
    NativeProgram& operator=(const NativeProgram&) = delete;

    int partitions() const { return cores_; }

    /**
     * Bind cross-core tape @p tape_id to @p ring on every partition
     * that touches it (producer and consumer side each hold their own
     * emitted endpoint). Must happen before init(); panics if the
     * emitted object does not know the tape as a crossing tape.
     */
    void bindRing(int tape_id, interp::SpscRing* ring);

    /**
     * Run the init phase (actor init bodies + warm-up firings in
     * schedule order across all partitions, on this thread). Panics
     * if called twice.
     */
    void init();

    bool initDone() const { return initDone_; }

    /**
     * Run @p iterations steady-state iterations of a one-partition
     * program (running init() first if needed), then lift the
     * quarantine. Panics on a multicore program.
     */
    void runSteady(int iterations);

    /**
     * Run @p iterations steady iterations of core @p core's slice
     * (ends with an exact ring flush). Called from that core's worker
     * thread; different cores may run concurrently, the same core may
     * not.
     */
    void runSteadyPartition(int core, int iterations);

    /**
     * Lift the crash quarantine on this object's cache entry once it
     * has run a clean steady batch on every partition, so future runs
     * cache-hit again. A no-op unless the entry was recompiled fresh
     * on the quarantine retry path.
     */
    void liftQuarantine();

    /** Sink elements captured so far (init phase included). Safe
     *  only at batch barriers. */
    std::size_t capturedSize() const;

    /**
     * The captured sink stream as raw 32-bit lanes, read in place from
     * the emitted sink buffer. Valid at a batch barrier until the next
     * init(), runSteady() or runSteadyPartition() call, which may grow
     * and move the buffer.
     */
    std::span<const std::uint32_t> capturedLanes() const;

    /**
     * Append captured elements [@p first, @p last) to @p out, boxed as
     * interp::Value with the sink tape's element type (bit-exact
     * against the interpreter). Safe only at batch barriers.
     */
    void appendCaptured(std::size_t first, std::size_t last,
                        std::vector<interp::Value>& out) const;

    /** The whole captured sink stream, boxed (see appendCaptured). */
    std::vector<interp::Value> captured() const;

    const NativeStats& stats() const { return stats_; }

    /** The spec actually emitted (after probe fallback). */
    const codegen::SimdSpec& effectiveSpec() const { return spec_; }

    /** Accumulated native steady wall time of @p core's partition. */
    double steadyWallMicros(int core) const
    {
        return wallMicros_[static_cast<std::size_t>(core)];
    }

  private:
    /** Host mirror of the emitted MacrossRing (layout-matched). */
    struct RingBinding {
        std::uint32_t* slots;
        long long mask;
        long long* tail;
        long long* head;
        long long head_block;
        long long tail_block;
        unsigned char* aborted;
        void* ctx;
        void (*fail)(void* ctx, const char* msg);
    };

    /** Partition label of @p core in fault records (-1 when the
     *  program was built whole-program). */
    int faultPartition(int core) const
    {
        return wholeProgram_ ? -1 : core;
    }
    detail::BindStatus tryBind(const std::string& so_path,
                               int* found_abi);
    void unload();

    void* handle_ = nullptr;    ///< dlopen handle.
    std::vector<void*> parts_;  ///< One PartitionBase* per core.

    // Bound ABI entry points.
    void (*destroyPartition_)(void*) = nullptr;
    int (*ringBind_)(void*, int, void*) = nullptr;
    void (*initAll_)(void**, int) = nullptr;
    void (*runSteadyPartition_)(void*, int) = nullptr;
    unsigned long long (*captureSize_)(void*) = nullptr;
    const unsigned int* (*captureData_)(void*) = nullptr;
    int sinkCore_ = -1;  ///< Partition holding the capture (-1 = none).

    /** Binding structs live here: the emitted side keeps the pointer
     *  for the program's lifetime, so storage must never move. */
    std::deque<RingBinding> bindings_;

    std::vector<double> wallMicros_;  ///< Per-core steady wall time.
    /** Per-core runSteadyPartition calls completed (the batch index a
     *  crash on that core reports). */
    std::vector<std::int64_t> batches_;
    int cores_ = 1;
    bool wholeProgram_ = false;
    ir::Type sinkElem_{ir::Scalar::Int32, 1};
    bool initDone_ = false;
    /** Quarantine sidecar cleared after the first clean steady run. */
    bool quarantineCleared_ = false;
    codegen::SimdSpec spec_;
    NativeStats stats_;
};

} // namespace macross::native
