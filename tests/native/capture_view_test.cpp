/**
 * @file
 * The native capture is read in place and boxed lazily: Runner and
 * ParallelRunner record a clean boundary after each batch and box
 * only the elements past what captured() already boxed. These tests
 * pin that this changes nothing observable — after batches of mixed
 * sizes the stream equals the bytecode VM's bit for bit whether
 * captured() is read between batches or only at the end, the O(1)
 * sizes agree with the boxed ones, and a crash absorbed under
 * DegradeMode::Auto verifies exactly the clean batches' prefix even
 * when nothing was boxed before it.
 */
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <memory>
#include <numeric>

#include "../test_util.h"
#include "benchmarks/suite.h"
#include "interp/parallel_runner.h"
#include "interp/runner.h"
#include "machine/cost_sink.h"
#include "multicore/partition.h"
#include "support/diagnostics.h"
#include "support/fault.h"
#include "vectorizer/pipeline.h"

namespace macross::interp {
namespace {

/** Steady batch sizes: uneven, so boundaries fall mid-pattern. */
constexpr std::array<int, 6> kBatches = {1, 3, 2, 7, 1, 5};
constexpr int kTotalIters =
    std::accumulate(kBatches.begin(), kBatches.end(), 0);

vectorizer::CompiledProgram
macroFmRadio()
{
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    opts.machine = machine::coreI7();
    return vectorizer::macroSimdize(benchmarks::makeFmRadio(), opts);
}

vectorizer::CompiledProgram
scalarRunningExample()
{
    return vectorizer::compileScalar(benchmarks::makeRunningExample());
}

/** The bytecode VM's stream after init plus @p iters steady ones. */
std::vector<Value>
vmStream(const vectorizer::CompiledProgram& p, int iters)
{
    Runner vm(p.graph, p.schedule, nullptr,
              EngineConfig(ExecEngine::Bytecode));
    vm.runInit();
    vm.runSteady(iters);
    return vm.captured();
}

EngineConfig
nativeConfig()
{
    EngineConfig config(ExecEngine::Native);
    config.simd.laneWidth = 4;
    return config;
}

/** Drive @p r through kBatches; when @p read_between, read and check
 *  captured() against @p want after every batch. */
template <typename R>
void
runMixedBatches(R& r, const std::vector<Value>& want, bool read_between)
{
    r.runInit();
    for (int b : kBatches) {
        r.runSteady(b);
        if (!read_between)
            continue;
        const std::vector<Value>& got = r.captured();
        ASSERT_EQ(r.capturedSize(), got.size());
        ASSERT_LE(got.size(), want.size());
        testutil::expectSameStream(
            std::vector<Value>(want.begin(),
                               want.begin() +
                                   static_cast<std::ptrdiff_t>(
                                       got.size())),
            got);
    }
    EXPECT_EQ(r.capturedSize(), want.size());
    testutil::expectSameStream(want, r.captured());
    EXPECT_EQ(r.capturedSize(), r.captured().size());
}

class CaptureView : public ::testing::TestWithParam<int> {
  protected:
    vectorizer::CompiledProgram program() const
    {
        return GetParam() == 0 ? macroFmRadio() : scalarRunningExample();
    }
};

TEST_P(CaptureView, SerialRunnerMatchesVmReadBetweenBatches)
{
    auto p = program();
    Runner r(p.graph, p.schedule, nullptr, nativeConfig());
    runMixedBatches(r, vmStream(p, kTotalIters), /*read_between=*/true);
}

TEST_P(CaptureView, SerialRunnerMatchesVmReadOnlyAtEnd)
{
    auto p = program();
    Runner r(p.graph, p.schedule, nullptr, nativeConfig());
    runMixedBatches(r, vmStream(p, kTotalIters), /*read_between=*/false);
}

// degrade=always checks each batch against the bytecode shadow as it
// lands; with the lazy mirror that check boxes only the new batch.
TEST_P(CaptureView, AlwaysShadowChecksEveryBatch)
{
    auto p = program();
    EngineConfig config = nativeConfig();
    config.degrade = DegradeMode::Always;
    Runner r(p.graph, p.schedule, nullptr, config);
    runMixedBatches(r, vmStream(p, kTotalIters), /*read_between=*/false);
    EXPECT_FALSE(r.degradedFromNative());
}

TEST_P(CaptureView, LanesAreTheBoxedStreamReadInPlace)
{
    auto p = program();
    Runner r(p.graph, p.schedule, nullptr, nativeConfig());
    r.runInit();
    r.runSteady(3);
    const std::size_t seen = r.capturedSize();
    r.runSteady(4);
    std::span<const std::uint32_t> lanes = r.capturedLanes();
    ASSERT_EQ(lanes.size(), r.capturedSize());
    const std::vector<Value>& boxed = r.captured();
    ASSERT_EQ(boxed.size(), lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i)
        ASSERT_EQ(boxed[i].rawBits(0), lanes[i]) << "element " << i;
    EXPECT_GT(lanes.size(), seen);
}

TEST_P(CaptureView, ParallelRunnerMatchesVmAtEveryThreadCount)
{
    auto p = program();
    const machine::MachineDesc m = machine::coreI7();
    machine::CostSink cost(m);
    Runner prof(p.graph, p.schedule, &cost,
                EngineConfig(ExecEngine::Bytecode));
    prof.runInit();
    prof.runSteady(4);
    std::vector<double> weights(p.graph.actors.size());
    for (const auto& a : p.graph.actors)
        weights[a.id] = cost.actorCycles(a.id);
    const std::vector<Value> want = vmStream(p, kTotalIters);

    for (int threads : {1, 2, 4}) {
        for (bool between : {true, false}) {
            SCOPED_TRACE(std::to_string(threads) + " threads, " +
                         (between ? "read between batches"
                                  : "read at end"));
            multicore::Partition part = multicore::partitionGreedy(
                p.graph, p.schedule, weights, threads);
            EngineConfig config = nativeConfig();
            config.batchIterations = 2;  // The 7-iteration call spans 4.
            ParallelRunner pr(p.graph, p.schedule, part, nullptr,
                              config);
            runMixedBatches(pr, want, between);
            EXPECT_FALSE(pr.degradedToSerial());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Programs, CaptureView, ::testing::Values(0, 1),
                         [](const auto& info) {
                             return info.param == 0
                                        ? std::string("FMRadioMacro")
                                        : std::string("RunningExample");
                         });

TEST(CaptureViewLanes, PanicsOffTheNativePath)
{
    auto p = scalarRunningExample();
    Runner vm(p.graph, p.schedule, nullptr,
              EngineConfig(ExecEngine::Bytecode));
    vm.runInit();
    EXPECT_THROW(vm.capturedLanes(), PanicError);
}

class CaptureViewCrash
    : public ::testing::TestWithParam<std::tuple<int, DegradeMode>> {
  protected:
    void SetUp() override { support::FaultInjector::instance().reset(); }
    void TearDown() override
    {
        support::FaultInjector::instance().reset();
    }
};

// A crash in steady batch k (0-based), with captured() never called
// before it (Auto) or called only by the per-batch shadow check
// (Always): the verified prefix is exactly init plus the first k clean
// batches, and the run continues on the bytecode VM bit for bit.
TEST_P(CaptureViewCrash, VerifiedPrefixIsTheCleanBatches)
{
    const auto [k, mode] = GetParam();
    auto p = macroFmRadio();
    auto fired = std::make_shared<std::atomic<bool>>(false);
    support::FaultInjector::instance().arm(
        "native.steady.crash",
        [fired](std::int64_t*) {
            if (!fired->exchange(true))
                raise(SIGSEGV);
        },
        /*max_fires=*/1, /*skip_fires=*/k);

    // A fresh cache: each crash is recorded against the cached object,
    // and a second recorded crash would quarantine it for good.
    EngineConfig config = nativeConfig();
    config.degrade = mode;
    config.native.cacheDir = ::testing::TempDir() +
                             "macross_capture_view_crash_" +
                             std::to_string(k) + "_" + toString(mode);
    std::filesystem::remove_all(config.native.cacheDir);
    Runner r(p.graph, p.schedule, nullptr, config);
    r.runInit();
    int cleanIters = 0;
    for (int i = 0; i < static_cast<int>(kBatches.size()); ++i) {
        r.runSteady(kBatches[i]);
        if (i < k)
            cleanIters += kBatches[i];
    }

    ASSERT_TRUE(r.degradedFromNative());
    ASSERT_EQ(r.nativeFaults().size(), 1u);
    EXPECT_EQ(r.nativeFaults()[0].batchIndex, k);
    EXPECT_TRUE(r.degradeVerified());
    EXPECT_EQ(r.verifiedElements(),
              static_cast<std::int64_t>(
                  vmStream(p, cleanIters).size()));
    const std::vector<Value> want = vmStream(p, kTotalIters);
    EXPECT_EQ(r.capturedSize(), want.size());
    testutil::expectSameStream(want, r.captured());
    EXPECT_THROW(r.capturedLanes(), PanicError);
}

INSTANTIATE_TEST_SUITE_P(
    Batches, CaptureViewCrash,
    ::testing::Combine(::testing::Values(0, 2, 4),
                       ::testing::Values(DegradeMode::Auto,
                                         DegradeMode::Always)),
    [](const auto& info) {
        return "CrashInBatch" + std::to_string(std::get<0>(info.param)) +
               "_" + toString(std::get<1>(info.param));
    });

} // namespace
} // namespace macross::interp
