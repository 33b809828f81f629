/**
 * @file
 * Emitted tapes drop consumed history at every steady-iteration
 * boundary (Tape::rebase in the emitted runtime). The cut must be a
 * multiple of the SAGU transpose block, or the block-transposed
 * address walk of a scalar endpoint changes under the data. These
 * programs are chosen so that walk is mid-block at every iteration
 * boundary: the init schedule leaves a transposed endpoint's cursor
 * off a multiple of rate × simdWidth, and each steady iteration moves
 * it by whole blocks, so the boundary offset never realigns.
 *
 * Each program runs a few hundred steady iterations in odd batch
 * sizes as serial native and as the partitioned native runtime at
 * 1/2/4 threads, and every capture must be bit-identical to the
 * bytecode VM. The objects compile into a private cache directory
 * (nested under MACROSS_CACHE_DIR when that is set), so a sanitized
 * run with MACROSS_NATIVE_EXTRA_FLAGS builds its own instrumented
 * code rather than reusing a plain object.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "../test_util.h"
#include "benchmarks/random_graph.h"
#include "interp/parallel_runner.h"
#include "multicore/partition.h"

namespace macross::interp {
namespace {

constexpr int kIters = 300;
const int kBatches[] = {1, 3, 2, 7, 5, 11, 4, 9};

/** Random programs whose SAGU walk is mid-block at every boundary. */
const std::uint64_t kSeeds[] = {7104, 7126, 7127, 7132, 7133};

vectorizer::CompiledProgram
saguProgram(std::uint64_t seed)
{
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    opts.enableSagu = true;
    opts.machine = machine::coreI7WithSagu();
    return vectorizer::macroSimdize(benchmarks::randomProgram(seed),
                                    opts);
}

/**
 * True if some transposed (scalar-walker) endpoint's cursor sits off
 * a block boundary after init. Steady iterations move it by whole
 * blocks, so it then does at every steady-iteration boundary.
 */
bool
walkIsMidBlockAtBoundaries(const vectorizer::CompiledProgram& p)
{
    for (const auto& t : p.graph.tapes) {
        const std::int64_t block =
            t.transpose.rate * t.transpose.simdWidth;
        const std::int64_t popped =
            p.schedule.initFires[t.dst] *
            p.graph.actor(t.dst).popRate(t.dstPort);
        const std::int64_t pushed =
            p.schedule.initFires[t.src] *
            p.graph.actor(t.src).pushRate(t.srcPort);
        if ((t.transpose.readSide && popped % block != 0) ||
            (t.transpose.writeSide && pushed % block != 0))
            return true;
    }
    return false;
}

std::string
privateCacheDir(const std::string& tag)
{
    const char* root = std::getenv("MACROSS_CACHE_DIR");
    std::string dir =
        (root && *root ? std::string(root) + "/"
                       : ::testing::TempDir()) +
        "macross_tape_rebase_" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

/** Run kIters steady iterations in the odd kBatches sizes. */
template <typename R>
void
runInOddBatches(R& r)
{
    r.runInit();
    int done = 0;
    for (int i = 0; done < kIters; ++i) {
        int n = std::min(kBatches[i % std::size(kBatches)],
                         kIters - done);
        r.runSteady(n);
        done += n;
    }
}

class TapeRebase : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TapeRebase, OddBatchesStayBitIdenticalToVm)
{
    const std::uint64_t seed = GetParam();
    auto p = saguProgram(seed);
    ASSERT_TRUE(walkIsMidBlockAtBoundaries(p))
        << "seed " << seed << " no longer exercises a mid-block cut";

    const machine::MachineDesc m = machine::coreI7WithSagu();
    machine::CostSink cost(m);
    Runner vm(p.graph, p.schedule, &cost,
              EngineConfig(ExecEngine::Bytecode));
    vm.runInit();
    vm.runSteady(kIters);
    ASSERT_FALSE(vm.captured().empty());
    std::vector<double> weights(p.graph.actors.size());
    for (const auto& a : p.graph.actors)
        weights[a.id] = cost.actorCycles(a.id);

    EngineConfig config(ExecEngine::Native);
    config.native.cacheDir = privateCacheDir(std::to_string(seed));

    Runner serial(p.graph, p.schedule, nullptr, config);
    runInOddBatches(serial);
    testutil::expectSameStream(vm.captured(), serial.captured());

    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        multicore::Partition part = multicore::partitionGreedy(
            p.graph, p.schedule, weights, threads);
        ParallelRunner pr(p.graph, p.schedule, part, nullptr, config);
        runInOddBatches(pr);
        EXPECT_FALSE(pr.degradedToSerial());
        testutil::expectSameStream(vm.captured(), pr.captured());
    }
}

INSTANTIATE_TEST_SUITE_P(
    SaguSeeds, TapeRebase, ::testing::ValuesIn(kSeeds),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
        return "seed" + std::to_string(info.param);
    });

} // namespace
} // namespace macross::interp
