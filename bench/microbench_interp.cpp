/**
 * @file
 * google-benchmark microbenchmarks of the library's own hot paths:
 * interpreter firing throughput, tape operations, and the transform
 * passes themselves (compilation speed).
 */
#include <benchmark/benchmark.h>

#include <thread>

#include "benchmarks/common.h"
#include "benchmarks/suite.h"
#include "interp/compile_actor.h"
#include "interp/parallel_runner.h"
#include "interp/runner.h"
#include "interp/spsc_queue.h"
#include "interp/verify.h"
#include "machine/machine_desc.h"
#include "machine/permutation.h"
#include "machine/sagu.h"
#include "multicore/partition.h"
#include "vectorizer/pipeline.h"

using namespace macross;

namespace {

/**
 * Firing throughput of one execution engine on one benchmark; the
 * tree/bytecode pairs below are the engine-vs-engine comparison the
 * two-engine stack is judged by (bytecode must win by >= 3x on the
 * scalar FMRadio configuration in Release builds).
 */
void
BM_SteadyStateInterpretation(benchmark::State& state,
                             graph::StreamPtr (*make)(),
                             interp::ExecEngine engine)
{
    auto compiled = vectorizer::compileScalar(make());
    interp::Runner r(compiled.graph, compiled.schedule, nullptr,
                     interp::EngineConfig(engine));
    r.enableCapture(false);
    r.runInit();
    for (auto _ : state)
        r.runSteady(1);
}
BENCHMARK_CAPTURE(BM_SteadyStateInterpretation, fmradio_tree,
                  benchmarks::makeFmRadio, interp::ExecEngine::Tree);
BENCHMARK_CAPTURE(BM_SteadyStateInterpretation, fmradio_bytecode,
                  benchmarks::makeFmRadio,
                  interp::ExecEngine::Bytecode);
BENCHMARK_CAPTURE(BM_SteadyStateInterpretation, filterbank_tree,
                  benchmarks::makeFilterBank,
                  interp::ExecEngine::Tree);
BENCHMARK_CAPTURE(BM_SteadyStateInterpretation, filterbank_bytecode,
                  benchmarks::makeFilterBank,
                  interp::ExecEngine::Bytecode);

void
BM_SimdizedInterpretation(benchmark::State& state,
                          interp::ExecEngine engine)
{
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    auto compiled =
        vectorizer::macroSimdize(benchmarks::makeFmRadio(), opts);
    interp::Runner r(compiled.graph, compiled.schedule, nullptr,
                     interp::EngineConfig(engine));
    r.enableCapture(false);
    r.runInit();
    for (auto _ : state)
        r.runSteady(1);
}
BENCHMARK_CAPTURE(BM_SimdizedInterpretation, tree,
                  interp::ExecEngine::Tree);
BENCHMARK_CAPTURE(BM_SimdizedInterpretation, bytecode,
                  interp::ExecEngine::Bytecode);

/**
 * The bytecode verifier's full cost. It runs once per actor at
 * compile time (Runner::ensureCompiled); steady-state firing pays
 * zero for it — BM_SteadyStateInterpretation above measures runs that
 * were all verified and shows no per-instruction overhead versus
 * pre-verifier builds. This benchmark bounds the one-time cost.
 */
void
BM_BytecodeVerify(benchmark::State& state)
{
    machine::MachineDesc m = machine::coreI7();
    interp::bytecode::CompileOptions opts;
    opts.machine = &m;
    auto def = benchmarks::firFilter("fir", 8, 1, 0.3f);
    auto ca = interp::bytecode::compileActor(*def, opts);
    for (auto _ : state) {
        auto errs = interp::bytecode::verifyActor(ca, *def);
        benchmark::DoNotOptimize(errs.size());
    }
}
BENCHMARK(BM_BytecodeVerify);

void
BM_MacroSimdizePass(benchmark::State& state)
{
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    for (auto _ : state) {
        auto compiled = vectorizer::macroSimdize(
            benchmarks::makeRunningExample(), opts);
        benchmark::DoNotOptimize(compiled.graph.actors.size());
    }
}
BENCHMARK(BM_MacroSimdizePass);

void
BM_TapeThroughput(benchmark::State& state)
{
    interp::Tape t(ir::kFloat32);
    interp::Value v = interp::Value::makeFloat(1.0f);
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i)
            t.push(v);
        for (int i = 0; i < 1024; ++i)
            benchmark::DoNotOptimize(t.pop());
    }
    state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_TapeThroughput);

/** Raw-lane scalar path (the bytecode VM's push/pop). */
void
BM_TapeThroughputRaw(benchmark::State& state)
{
    interp::Tape t(ir::kFloat32);
    const std::uint32_t bits = 0x3f800000u;  // 1.0f
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i)
            t.pushRaw(bits);
        for (int i = 0; i < 1024; ++i)
            benchmark::DoNotOptimize(t.popRaw());
    }
    state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_TapeThroughputRaw);

void
BM_TapeVectorThroughput(benchmark::State& state)
{
    interp::Tape t(ir::kFloat32);
    ir::Type vec{ir::Scalar::Float32, 4};
    interp::Value v = interp::Value::zero(vec);
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i)
            t.vpush(v);
        for (int i = 0; i < 256; ++i)
            benchmark::DoNotOptimize(t.vpop(4));
    }
    state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_TapeVectorThroughput);

/** Raw-lane vector path (the bytecode VM's vpush/vpop). */
void
BM_TapeVectorThroughputRaw(benchmark::State& state)
{
    interp::Tape t(ir::kFloat32);
    std::uint32_t lanes[4] = {0, 0, 0, 0};
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i)
            t.vpushRaw(lanes, 4);
        for (int i = 0; i < 256; ++i) {
            t.vpopRaw(lanes, 4);
            benchmark::DoNotOptimize(lanes[0]);
        }
    }
    state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_TapeVectorThroughputRaw);

/**
 * SPSC ring push/pop on one thread: the pure per-element cost of the
 * publication protocol with no contention and a hot cache.
 */
void
BM_SpscRingPushPop(benchmark::State& state)
{
    interp::SpscRing r(2048);
    std::int64_t idx = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i) {
            r.waitWritable(idx + i);
            r.slot(idx + i) = static_cast<std::uint32_t>(i);
            r.publishTail(idx + i + 1);
        }
        std::uint32_t sum = 0;
        for (int i = 0; i < 1024; ++i) {
            r.waitReadable(idx + i);
            sum += r.slot(idx + i);
            r.publishHead(idx + i + 1);
        }
        benchmark::DoNotOptimize(sum);
        idx += 1024;
    }
    state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_SpscRingPushPop);

/**
 * Cross-thread SPSC transfer through a small ring: the steady-state
 * cost model of a cross-core tape, including cache-line ping-pong on
 * the published indexes. Hardware-dependent; on a single-CPU host the
 * threads time-slice and the number mostly measures yield latency.
 */
void
BM_SpscRingCrossThread(benchmark::State& state)
{
    constexpr std::int64_t kChunk = 4096;
    for (auto _ : state) {
        interp::SpscRing r(256);
        std::thread producer([&] {
            for (std::int64_t i = 0; i < kChunk; ++i) {
                r.waitWritable(i);
                r.slot(i) = static_cast<std::uint32_t>(i);
                r.publishTail(i + 1);
            }
        });
        std::uint32_t sum = 0;
        for (std::int64_t i = 0; i < kChunk; ++i) {
            r.waitReadable(i);
            sum += r.slot(i);
            r.publishHead(i + 1);
        }
        producer.join();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * kChunk);
}
BENCHMARK(BM_SpscRingCrossThread)->UseRealTime();

/**
 * Parallel steady state vs. the thread count (1 = serial Runner,
 * matching the baseline the speedup claims divide by). Uncosted and
 * capture-off. Compare e.g. fmradio/1 against fmradio/4.
 */
void
BM_ParallelSteadyState(benchmark::State& state,
                       graph::StreamPtr (*make)())
{
    const int threads = static_cast<int>(state.range(0));
    auto compiled = vectorizer::compileScalar(make());
    if (threads == 1) {
        interp::Runner r(compiled.graph, compiled.schedule);
        r.enableCapture(false);
        r.runInit();
        for (auto _ : state)
            r.runSteady(8);
        return;
    }
    machine::MachineDesc m = machine::coreI7();
    machine::CostSink cost(m);
    interp::Runner prof(compiled.graph, compiled.schedule, &cost);
    prof.runInit();
    prof.runSteady(8);
    std::vector<double> cycles(compiled.graph.actors.size(), 0.0);
    for (const auto& a : compiled.graph.actors)
        cycles[a.id] = cost.actorCycles(a.id);
    auto part = multicore::partitionGreedy(
        compiled.graph, compiled.schedule, cycles, threads);
    interp::ParallelRunner pr(compiled.graph, compiled.schedule, part);
    pr.enableCapture(false);
    pr.runInit();
    for (auto _ : state)
        pr.runSteady(8);
}
BENCHMARK_CAPTURE(BM_ParallelSteadyState, fmradio,
                  benchmarks::makeFmRadio)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ParallelSteadyState, filterbank,
                  benchmarks::makeFilterBank)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

/**
 * One 2-iteration native steady batch on a Runner that has already
 * captured Arg() sink elements. The capture is read in place and
 * boxed only on demand, and the emitted tapes drop consumed history
 * every steady iteration, so the batch costs the same after 1k and
 * after 1M elements; only the sink capture itself grows. A fixed
 * iteration count keeps the history growth during timing (8 elements
 * per batch) small against Arg().
 */
void
BM_NativeRunnerBatchAfterHistory(benchmark::State& state)
{
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    opts.machine = machine::coreI7();
    auto compiled =
        vectorizer::macroSimdize(benchmarks::makeFmRadio(), opts);
    interp::Runner r(compiled.graph, compiled.schedule, nullptr,
                     interp::EngineConfig(interp::ExecEngine::Native));
    r.runInit();
    const std::size_t init = r.capturedSize();
    r.runSteady(1);
    const auto perIter =
        static_cast<std::int64_t>(r.capturedSize() - init);
    r.runSteady(static_cast<int>(state.range(0) / perIter));
    for (auto _ : state)
        r.runSteady(2);
    state.counters["history"] =
        static_cast<double>(r.capturedSize());
}
BENCHMARK(BM_NativeRunnerBatchAfterHistory)
    ->Arg(1000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Iterations(200);

void
BM_SaguWalk(benchmark::State& state)
{
    machine::SaguUnit unit(3, 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(unit.next());
}
BENCHMARK(BM_SaguWalk);

void
BM_PermutationNetworkBuild(benchmark::State& state)
{
    for (auto _ : state) {
        auto net = machine::deinterleaveNetwork(
            static_cast<int>(state.range(0)));
        benchmark::DoNotOptimize(net.steps.size());
    }
}
BENCHMARK(BM_PermutationNetworkBuild)->Arg(4)->Arg(16)->Arg(64);

} // namespace

BENCHMARK_MAIN();
