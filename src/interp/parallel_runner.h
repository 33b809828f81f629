/**
 * @file
 * Parallel steady-state runtime: executes a multicore partition
 * (multicore/partition.h) of a scheduled stream graph on a pool of
 * worker threads, one per core.
 *
 * Each worker owns the actors its core was assigned and fires them in
 * the single-appearance schedule order, batch after batch of steady
 * iterations. Tapes whose endpoints live on the same core keep the
 * ordinary growable Tape storage and cost one predictable branch;
 * tapes that cross cores are re-backed by bounded lock-free SPSC rings
 * (interp/spsc_queue.h) sized so a producer can run a whole batch
 * ahead of its consumer without wrapping — producers never block, only
 * consumers wait, and on an acyclic graph that makes deadlock
 * impossible by topological induction.
 *
 * Engines: the interpreting engines (tree, bytecode) fire through a
 * shared Runner with per-worker VM state. ExecEngine::Native instead
 * compiles ONE shared object for the partition (native::NativeProgram
 * with the partition's coreOf): each worker drives its core's emitted
 * sub-program, and the same SPSC rings back the cross-core tapes —
 * emitted code follows the interpreter's ring protocol instruction for
 * instruction, so the watchdog, fault injection, and serial-fallback
 * machinery below work unchanged (the fallback replays through the
 * serial native engine and is verified bitwise against the parallel
 * prefix). A 1-core partition emits the serial program itself and
 * shares its cached object.
 *
 * Determinism: output bytes and modeled per-actor cycles are
 * bit-identical to the single-threaded Runner at any thread count.
 * Each actor fires on exactly one thread, so its tape traffic and its
 * floating-point charge sequence are exactly the serial ones; the sink
 * actor's worker appends captures in serial order; and per-thread
 * CostSinks merge at batch barriers through
 * CostSink::assignDisjointUnion, which recomputes cross-actor
 * aggregates in canonical actor-id order (compare against the serial
 * runner's CostSink::attributedCycles()).
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "interp/runner.h"
#include "interp/spsc_queue.h"
#include "multicore/partition.h"
#include "native/native_engine.h"

namespace macross::interp {

/**
 * One detected parallel-runtime fault: what the watchdog saw, and what
 * the recovery achieved. Reported under run.stats.parallel.faults.
 */
struct ParallelFault {
    /** "workerStall" (batch timeout) or "workerError" (exception). */
    std::string kind;
    /** Batch generation that faulted. */
    std::int64_t generation = 0;
    /** Iterations the faulted batch was dispatched with. */
    int batchIterations = 0;
    /** Wall-clock from dispatch to detection. */
    double detectedAfterMs = 0.0;
    /** Workers that had not finished the batch at detection. */
    std::vector<int> pendingWorkers;
    /** Human-readable diagnostic (exception text for workerError). */
    std::string message;
    /** All workers parked within the grace period (no detach). */
    bool cleanShutdown = false;
    /** Serial fallback was run. */
    bool fallbackUsed = false;
    /**
     * The parallel run's captured prefix was bitwise re-verified
     * against the serial fallback (only attempted after a clean
     * shutdown; a detached worker could still be appending).
     */
    bool fallbackVerified = false;
    /** Elements the prefix verification covered (0 unless
     *  fallbackVerified). */
    std::int64_t verifiedElements = 0;
};

/** Executes a partitioned stream graph on worker threads. */
class ParallelRunner {
  public:
    /**
     * @param g      Graph to run (must outlive the runner).
     * @param s      Schedule for @p g.
     * @param part   Core assignment from partitionGreedy (cores >= 1).
     * @param cost   Cycle sink, or null to run without costing. Merged
     *               deterministically at the end of every runSteady.
     *               Native runs measure wall clock instead of modeling
     *               cycles, so the sink is left untouched there.
     * @param config Engine configuration. ExecEngine::Native compiles
     *               one shared object for @p part (native::NativeProgram)
     *               whose per-core sub-programs the workers drive over
     *               the same SPSC rings the interpreting engines use.
     *               batchIterations, ringCapacity and watchdogMs shape
     *               the pool; worker k is pinned to CPU k when the host
     *               has a CPU per worker.
     */
    ParallelRunner(const graph::FlatGraph& g,
                   const schedule::Schedule& s,
                   const multicore::Partition& part,
                   machine::CostSink* cost = nullptr,
                   EngineConfig config = {});
    ~ParallelRunner();

    ParallelRunner(const ParallelRunner&) = delete;
    ParallelRunner& operator=(const ParallelRunner&) = delete;

    /** Install an execution config for one actor (before runInit). */
    void setActorConfig(int actor_id, ActorExecConfig cfg);

    /** Record every element the sink consumes. On by default. */
    void enableCapture(bool on) { runner_.enableCapture(on); }

    /** Run all init bodies and warm-up firings, single-threaded. */
    void runInit();

    /** Run @p iterations steady-state iterations across the pool. */
    void runSteady(int iterations);

    /**
     * Run steady iterations until at least @p n elements are captured
     * (fatal after @p max_iters iterations).
     */
    void runUntilCaptured(std::int64_t n, int max_iters = 100000);

    /**
     * The captured sink stream. Under ExecEngine::Native this boxes,
     * on demand, only the elements the emitted sink buffer gained
     * since the last call, up to the last batch barrier.
     */
    const std::vector<Value>& captured() const;

    /** captured().size() in O(1), without boxing anything. */
    std::size_t capturedSize() const;

    /** Native build/run stats (null unless running Native). After
     *  degradation this is the partitioned build; the serial replay's
     *  stats live in statsToJson()["native"] via the fallback. */
    const native::NativeStats* nativeStats() const
    {
        return native_ ? &native_->stats() : nullptr;
    }

    /** Faults detected so far (empty on a healthy run). */
    const std::vector<ParallelFault>& faults() const { return faults_; }

    /**
     * Native faults surfaced by the partitioned program's workers
     * (signal-guard crashes, keyed by partition), oldest first. The
     * serial fallback's own faults, if it also degrades, live in its
     * Runner::nativeFaults().
     */
    const std::vector<native::NativeFaultRecord>& nativeFaults() const
    {
        return nativeFaults_;
    }

    /** True once a fault degraded this runner to the serial path. */
    bool degradedToSerial() const { return fallback_ != nullptr; }

    /** The serial fallback runner after degradation (null before).
     *  Lets callers see whether the fallback itself degraded further
     *  down the ladder and whether that step verified. */
    const Runner* fallbackRunner() const { return fallback_.get(); }

    /** Merged modeled cycles so far (0 without a sink). */
    double totalCycles() const;

    int threads() const { return part_.cores; }

    const Runner& runner() const { return runner_; }

    /** Attach a trace for phase events (main-thread use only). */
    void setTrace(support::Trace* t) { trace_ = t; }

    /** Wall-clock microseconds spent inside runSteady so far. */
    double steadyWallMicros() const { return steadyWallMicros_; }

    /**
     * Provide the single-threaded wall time for the same steady work;
     * statsToJson then reports measuredSpeedup = baseline / parallel.
     */
    void setBaselineWallMicros(double micros)
    {
        baselineWallMicros_ = micros;
    }

    /**
     * Runner stats (per-actor firing counts/cycles, tape traffic,
     * engine, dispatcher) plus a "parallel" object: thread count,
     * batch size, core assignment and per-core modeled load, ring
     * capacities and traffic, steady wall-clock, and measured speedup
     * when a baseline was provided.
     */
    json::Value statsToJson() const;

  private:
    /** Firing slice of one worker: (actor id, repetitions). */
    struct SliceEntry {
        int actorId = 0;
        std::int64_t reps = 0;
    };

    struct Worker {
        std::vector<SliceEntry> slice;
        Vm vm;
        std::unique_ptr<machine::CostSink> sink;
        /** Ring-backed tapes this worker produces into / consumes
         *  from — flushed exactly at batch end. */
        std::vector<Tape*> producedRings;
        std::vector<Tape*> consumedRings;
        std::thread thread;
        std::exception_ptr error;
        /** Last generation this worker finished (under mu_). */
        std::int64_t doneGen = 0;
        /** workerLoop returned; the thread is joinable fast. */
        bool exited = false;
    };

    void workerLoop(int worker_id);
    void runBatch(int worker_id, Worker& w, int iterations);
    bool initDone() const
    {
        return native_ ? native_->initDone() : runner_.initDone();
    }
    /** Returns the detected fault, or nullopt when the batch ran. */
    std::optional<ParallelFault> dispatchBatch(int iterations);
    /**
     * Stop the pool, abort ring waits so blocked workers park, then
     * join them (or, past the grace period, detach the wedged ones).
     * Returns true when every worker exited within the grace period.
     */
    bool shutdownPool();
    /**
     * Watchdog recovery: stop the pool, abort ring waits so blocked
     * workers park, join (or, past the grace period, detach) them,
     * then replay @p target_iters steady iterations from scratch on a
     * fresh serial Runner (Runner::replayAndVerify) and verify the
     * parallel captured prefix bitwise against it. Afterwards all
     * reads route through the fallback runner.
     */
    void degradeToSerial(ParallelFault fault, std::int64_t target_iters);

    const graph::FlatGraph* graph_;
    const schedule::Schedule* sched_;
    multicore::Partition part_;
    machine::CostSink* cost_;
    /** With batchIterations and ringCapacity resolved to the values
     *  the pool runs with (0 replaced by the runtime default). */
    EngineConfig config_;
    support::Trace* trace_ = nullptr;

    /** Interpreting execution state. Under ExecEngine::Native the
     *  runner is constructed with the engine downgraded to Bytecode
     *  and never fired — it only provides the shared stats/config
     *  plumbing — while native_ owns the compiled partitions. */
    Runner runner_;
    std::vector<std::unique_ptr<SpscRing>> rings_;  ///< By tape id
                                                    ///< (null when
                                                    ///< intra-core).
    std::vector<std::unique_ptr<Worker>> workers_;

    /** Compiled per-core sub-programs (ExecEngine::Native only). */
    std::unique_ptr<native::NativeProgram> native_;
    /** Lazy boxed mirror of native_'s sink buffer, extended by
     *  captured() up to nativeClean_. */
    mutable std::vector<Value> nativeCaptured_;
    /** Sink elements at the last batch barrier (ExecEngine::Native). */
    std::size_t nativeClean_ = 0;

    /** Fault records + the serial fallback state after degradation. */
    std::vector<ParallelFault> faults_;
    /** Structured native faults from the partitioned program. */
    std::vector<native::NativeFaultRecord> nativeFaults_;
    std::unique_ptr<machine::CostSink> fallbackCost_;
    std::unique_ptr<Runner> fallback_;

    /** Generation-counted batch barrier: the main thread bumps
     *  generation_ to release workers, each worker reports into
     *  doneCount_, and the final worker wakes the main thread. Both
     *  edges run through mu_, which also carries the happens-before
     *  for the main thread's reads of captures and per-thread sinks. */
    std::mutex mu_;
    std::condition_variable cv_;
    std::int64_t generation_ = 0;
    int batchIters_ = 0;
    int doneCount_ = 0;
    /** Workers that finished the current batch with an exception
     *  (under mu_). Native dispatch waits on this too: a crashed
     *  partition's siblings block in emitted ring waits forever, so
     *  the main thread must wake on the first error, not on allDone. */
    int erroredCount_ = 0;
    int exitedCount_ = 0;
    bool stop_ = false;

    double steadyWallMicros_ = 0.0;
    double baselineWallMicros_ = 0.0;
    std::int64_t steadyIterations_ = 0;
};

} // namespace macross::interp
