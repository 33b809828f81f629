/**
 * @file
 * C++ code generation: the final Emit-Intermediate-Code phase of
 * Algorithm 1.
 *
 * Emits one self-contained C++17 translation unit for a compiled
 * (possibly SIMDized) program: a portable fixed-width vector type
 * whose operations correspond 1:1 to SSE/AltiVec/NEON instructions
 * (including extract_even/odd and unpack) and — at SimdSpec lane
 * widths > 1 — are lowered onto real GCC/Clang extension vectors
 * (`ext_vector_type` on Clang, `vector_size` on GCC) rather than
 * scalar per-lane loops, tape FIFOs with the SAGU transposed
 * addressing where annotated (and contiguous vector copies on
 * untransposed vector endpoints), one struct per actor, and the
 * runtime state (tapes, actor instances, firing functions) gathered
 * into one `struct Partition<k>` per core of a multicore partition.
 * A serial program is the one-partition case (an empty
 * EmitOptions::partitionCoreOf): Partition0 owns every tape and actor
 * and no tape crosses, so the ring endpoint code is compiled out
 * (`MACROSS_RING` is defined to 1 only when some tape crosses cores).
 * Two output shapes share that core:
 *
 *  - Standalone: a main() that drives Partition0 through the init
 *    phase plus N steady iterations and prints the first K sink
 *    outputs and an order-independent 64-bit checksum over the raw
 *    lane bits.
 *  - Library: the stable `extern "C"` ABI v3 partition surface for
 *    the native execution engine, which compiles the TU with the
 *    host compiler and dlopen()s it. The host creates one partition
 *    instance per core through the ABI (instances are heap-allocated,
 *    so one loaded shared object serves any number of independent
 *    runs), binds each crossing tape to an in-process SPSC ring
 *    (interp/spsc_queue.h) via the `MacrossRing` binding struct, runs
 *    the warm-up single-threaded through `macross_init_all`, and then
 *    drives each partition's steady slice — from its own worker
 *    thread when there are several. Ring traffic follows the
 *    interpreter's protocol exactly: monotonic 64-bit logical
 *    indexes, acquire/release index publication, block-granular
 *    publication on SAGU-transposed endpoints, and an exact flush at
 *    batch barriers.
 *
 * All shapes must produce exactly the same output stream as the
 * interpreter (enforced by end-to-end tests and the native engine's
 * differential suites) unless the SimdSpec explicitly opts into
 * ULP-bounded divergence (see simd_spec.h for the exactness
 * taxonomy).
 */
#pragma once

#include <string>
#include <vector>

#include "codegen/simd_spec.h"
#include "graph/flat_graph.h"
#include "schedule/steady_state.h"

namespace macross::codegen {

/** Shape of the emitted translation unit. */
enum class EmitMode {
    Standalone,  ///< Self-contained one-partition program with a main().
    Library,     ///< ABI v3 partition surface for the native engine.
    /** Alias of Library, kept for callers that name the multicore
     *  case: the partition is given by EmitOptions::partitionCoreOf. */
    PartitionedLibrary = Library,
};

/**
 * Version of the emitted `extern "C"` ABI (Library mode).
 *
 * v1: abi_version / create / destroy / init / run_steady /
 *     capture_size / capture_data.
 * v2: everything in v1, plus the SIMD lowering the object was built
 *     with — macross_simd_lanes() (lane width), macross_simd_isa()
 *     (ISA selector string), and macross_exact() (1 = bit-identical
 *     contract, 0 = ULP-bounded).
 * v3: the partition surface replaces the whole-program entry points:
 *     macross_num_partitions / macross_create_partition /
 *     macross_destroy_partition / macross_ring_bind /
 *     macross_init_all / macross_run_steady_partition /
 *     macross_flush_partition / macross_sink_partition, with the
 *     capture exports taking the sink partition handle. It is the
 *     only symbol set; a serial program exports it with one
 *     partition. Any other version is refused with a FatalError
 *     naming both.
 */
inline constexpr int kNativeAbiVersion = 3;

/** Code-generation options. */
struct EmitOptions {
    int steadyIterations = 4;  ///< Default for the emitted main().
    int printFirst = 32;       ///< Sink elements echoed by main().
    EmitMode mode = EmitMode::Standalone;
    SimdSpec simd;             ///< Vector lowering (see simd_spec.h).
    /** Number of cores of partitionCoreOf (>= 1 when it is set). */
    int partitionCores = 0;
    /** Core of each actor id (the greedy partition's coreOf; size
     *  must equal the actor count). Empty = one partition holding
     *  every actor, the only choice for Standalone. Kept as plain
     *  values so codegen does not depend on multicore/. */
    std::vector<int> partitionCoreOf;
};

/** Emit the full translation unit. */
std::string emitCpp(const graph::FlatGraph& g,
                    const schedule::Schedule& s,
                    const EmitOptions& opts = {});

} // namespace macross::codegen
