/**
 * @file
 * Unit tests for the program runner: end-to-end execution of flat
 * graphs, sink capture, splitter/joiner semantics.
 */
#include "interp/runner.h"

#include <gtest/gtest.h>

#include "support/diagnostics.h"
#include "benchmarks/common.h"
#include "vectorizer/pipeline.h"

namespace macross::interp {
namespace {

using namespace graph;
using benchmarks::floatSink;
using benchmarks::floatSource;
using benchmarks::gain;
using benchmarks::identity;

std::vector<float>
runAndCapture(const StreamPtr& program, std::int64_t n)
{
    auto compiled = vectorizer::compileScalar(program);
    Runner r(compiled.graph, compiled.schedule);
    r.runUntilCaptured(n);
    std::vector<float> out;
    for (std::int64_t i = 0; i < n; ++i)
        out.push_back(r.captured()[i].f());
    return out;
}

TEST(Runner, GainPipelineScalesSource)
{
    auto doubled = runAndCapture(pipeline({
        filterStream(floatSource("src", 4, 5)),
        filterStream(gain("g", 2.0f)),
        filterStream(floatSink("snk", 1)),
    }), 32);
    auto plain = runAndCapture(pipeline({
        filterStream(floatSource("src", 4, 5)),
        filterStream(floatSink("snk", 1)),
    }), 32);
    for (int i = 0; i < 32; ++i)
        EXPECT_FLOAT_EQ(doubled[i], plain[i] * 2.0f);
}

TEST(Runner, RoundRobinSplitJoinPreservesOrderWithIdentities)
{
    // rr-split into identities and rr-join must be the identity.
    auto split = runAndCapture(pipeline({
        filterStream(floatSource("src", 4, 9)),
        splitJoinRoundRobin({2, 2},
                            {filterStream(identity("a")),
                             filterStream(identity("b"))},
                            {2, 2}),
        filterStream(floatSink("snk", 1)),
    }), 64);
    auto direct = runAndCapture(pipeline({
        filterStream(floatSource("src", 4, 9)),
        filterStream(floatSink("snk", 1)),
    }), 64);
    EXPECT_EQ(split, direct);
}

TEST(Runner, DuplicateSplitterCopiesToAllBranches)
{
    // duplicate -> (x1, x2) -> join(1,1): output alternates x and 2x.
    auto out = runAndCapture(pipeline({
        filterStream(floatSource("src", 1, 3)),
        splitJoinDuplicate({filterStream(gain("one", 1.0f)),
                            filterStream(gain("two", 2.0f))},
                           {1, 1}),
        filterStream(floatSink("snk", 1)),
    }), 32);
    for (int i = 0; i + 1 < 32; i += 2)
        EXPECT_FLOAT_EQ(out[i + 1], out[i] * 2.0f);
}

TEST(Runner, CapturedStreamIsDeterministic)
{
    auto a = runAndCapture(pipeline({
                               filterStream(floatSource("s", 2, 77)),
                               filterStream(floatSink("k", 1)),
                           }),
                           16);
    auto b = runAndCapture(pipeline({
                               filterStream(floatSource("s", 2, 77)),
                               filterStream(floatSink("k", 1)),
                           }),
                           16);
    EXPECT_EQ(a, b);
}

TEST(Runner, CyclesAccumulatePerActor)
{
    auto compiled = vectorizer::compileScalar(pipeline({
        filterStream(floatSource("src", 2, 5)),
        filterStream(gain("g", 2.0f)),
        filterStream(floatSink("snk", 2)),
    }));
    machine::MachineDesc m = machine::coreI7();
    machine::CostSink cost(m);
    Runner r(compiled.graph, compiled.schedule, &cost);
    r.runInit();
    EXPECT_DOUBLE_EQ(cost.totalCycles(), 0.0);  // init is uncosted
    r.runSteady(10);
    EXPECT_GT(cost.totalCycles(), 0.0);
    double sum = 0.0;
    for (const auto& a : compiled.graph.actors)
        sum += cost.actorCycles(a.id);
    EXPECT_DOUBLE_EQ(sum, cost.totalCycles());
}

TEST(Runner, RunUntilCapturedFailsOnStarvedSink)
{
    auto compiled = vectorizer::compileScalar(pipeline({
        filterStream(floatSource("src", 1, 5)),
        filterStream(floatSink("snk", 1)),
    }));
    Runner r(compiled.graph, compiled.schedule);
    EXPECT_THROW(r.runUntilCaptured(1000, /*max_iters=*/2),
                 FatalError);
}

/**
 * The serial replay-and-verify helper behind both fallback paths (the
 * native degrade ladder and the parallel watchdog), run in-process on
 * the bytecode VM: a source run's captured stream is checked against a
 * fresh replay of the same graph.
 */
class ReplayAndVerify : public ::testing::Test {
  protected:
    ReplayAndVerify()
        : compiled(vectorizer::compileScalar(pipeline({
              filterStream(floatSource("src", 2, 5)),
              filterStream(gain("g", 2.0f)),
              filterStream(floatSink("snk", 2)),
          }))),
          source(compiled.graph, compiled.schedule)
    {
        source.runInit();
        source.runSteady(4);
    }

    ReplayOutcome replayTo(std::int64_t iterations,
                           std::span<const Value> prefix)
    {
        return source.replayAndVerify(replay,
                                      EngineConfig(ExecEngine::Bytecode),
                                      nullptr, iterations, prefix);
    }

    vectorizer::CompiledProgram compiled;
    Runner source;
    std::unique_ptr<Runner> replay;
};

TEST_F(ReplayAndVerify, EmptyPrefixIsTriviallyVerified)
{
    const ReplayOutcome out = replayTo(4, {});
    EXPECT_TRUE(out.verified);
    EXPECT_EQ(out.verifiedElements, 0);
    ASSERT_NE(replay, nullptr);
    EXPECT_EQ(replay->capturedSize(), source.capturedSize());
}

TEST_F(ReplayAndVerify, MatchingPrefixCountsEveryElement)
{
    const std::vector<Value>& want = source.captured();
    ASSERT_FALSE(want.empty());
    const ReplayOutcome out = replayTo(4, want);
    EXPECT_TRUE(out.verified);
    EXPECT_EQ(out.verifiedElements,
              static_cast<std::int64_t>(want.size()));
    // A shorter prefix of the same run verifies against a longer
    // replay, and an existing replay only runs the missing iterations.
    const ReplayOutcome longer = replayTo(6, want);
    EXPECT_TRUE(longer.verified);
    EXPECT_GT(replay->capturedSize(), want.size());
}

TEST_F(ReplayAndVerify, MismatchAtElementKVerifiesNothing)
{
    std::vector<Value> prefix = source.captured();
    ASSERT_GT(prefix.size(), 3u);
    const std::size_t k = prefix.size() / 2;
    prefix[k] = Value::makeFloat(prefix[k].f() + 1.0f);
    const ReplayOutcome out = replayTo(4, prefix);
    EXPECT_FALSE(out.verified);
    EXPECT_EQ(out.verifiedElements, 0);
}

TEST_F(ReplayAndVerify, PrefixLongerThanReplayVerifiesNothing)
{
    source.runSteady(4);
    const std::vector<Value>& prefix = source.captured();
    const ReplayOutcome out = replayTo(4, prefix);
    EXPECT_LT(replay->capturedSize(), prefix.size());
    EXPECT_FALSE(out.verified);
    EXPECT_EQ(out.verifiedElements, 0);
}

} // namespace
} // namespace macross::interp
