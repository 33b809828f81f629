/**
 * @file
 * Unit tests for the parallel steady-state runtime: deterministic
 * CostSink merging, basic multithreaded execution against the serial
 * runner, stats reporting, and repeated-run accumulation.
 */
#include "interp/parallel_runner.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "benchmarks/suite.h"
#include "machine/machine_desc.h"

namespace macross::interp {
namespace {

std::vector<double>
profileActorCycles(const vectorizer::CompiledProgram& p,
                   const machine::MachineDesc& m, int iters = 8)
{
    machine::CostSink cost(m);
    Runner r(p.graph, p.schedule, &cost);
    r.runInit();
    r.runSteady(iters);
    std::vector<double> out(p.graph.actors.size(), 0.0);
    for (const auto& a : p.graph.actors)
        out[a.id] = cost.actorCycles(a.id);
    return out;
}

TEST(CostSinkMerge, AttributedCyclesSumsActorCells)
{
    machine::MachineDesc m = machine::coreI7();
    machine::CostSink s(m);
    s.setCurrentActor(0);
    s.charge(machine::OpClass::IntAlu);
    s.setCurrentActor(2);
    s.charge(machine::OpClass::ScalarLoad, 1, 3);
    EXPECT_EQ(s.attributedCycles(),
              s.actorCycles(0) + s.actorCycles(2));
    EXPECT_EQ(s.attributedCycles(), s.totalCycles());
}

TEST(CostSinkMerge, DisjointUnionIsOrderIndependent)
{
    machine::MachineDesc m = machine::coreI7();
    machine::CostSink a(m);
    a.setCurrentActor(0);
    a.charge(machine::OpClass::IntAlu, 1, 7);
    a.setCurrentActor(3);
    a.charge(machine::OpClass::FpMul, 4, 2);
    machine::CostSink b(m);
    b.setCurrentActor(1);
    b.charge(machine::OpClass::ScalarLoad, 1, 5);
    b.chargeCycles(2.5);

    machine::CostSink ab(m);
    ab.assignDisjointUnion({&a, &b});
    machine::CostSink ba(m);
    ba.assignDisjointUnion({&b, &a});

    EXPECT_EQ(ab.totalCycles(), ba.totalCycles());
    EXPECT_EQ(ab.totalCycles(), ab.attributedCycles());
    for (int id = 0; id < 4; ++id) {
        EXPECT_EQ(ab.actorCycles(id), ba.actorCycles(id));
        EXPECT_EQ(ab.actorClassCycles(id, machine::OpClass::IntAlu),
                  ba.actorClassCycles(id, machine::OpClass::IntAlu));
    }
    const int alu = static_cast<int>(machine::OpClass::IntAlu);
    EXPECT_EQ(ab.classOps()[alu], 7);
    EXPECT_EQ(ab.actorCycles(1), b.actorCycles(1));
}

TEST(CostSinkMerge, OverlappingActorsPanic)
{
    machine::MachineDesc m = machine::coreI7();
    machine::CostSink a(m);
    a.setCurrentActor(1);
    a.charge(machine::OpClass::IntAlu);
    machine::CostSink b(m);
    b.setCurrentActor(1);
    b.charge(machine::OpClass::IntAlu);
    machine::CostSink out(m);
    EXPECT_THROW(out.assignDisjointUnion({&a, &b}), PanicError);
}

TEST(ParallelRunner, MatchesSerialOutputOnTwoThreads)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    machine::MachineDesc m = machine::coreI7();

    machine::CostSink serialCost(m);
    Runner serial(p.graph, p.schedule, &serialCost);
    serial.runInit();
    serial.runSteady(12);

    auto cycles = profileActorCycles(p, m);
    multicore::Partition part =
        multicore::partitionGreedy(p.graph, p.schedule, cycles, 2);
    machine::CostSink parCost(m);
    EngineConfig config(ExecEngine::Bytecode);
    config.batchIterations = 5;  // Exercise batch barriers: 5 + 5 + 2.
    ParallelRunner pr(p.graph, p.schedule, part, &parCost, config);
    pr.runInit();
    pr.runSteady(12);

    testutil::expectSameStream(serial.captured(), pr.captured());
    for (const auto& a : p.graph.actors)
        EXPECT_EQ(serialCost.actorCycles(a.id),
                  parCost.actorCycles(a.id));
    EXPECT_EQ(serialCost.attributedCycles(), parCost.totalCycles());
}

TEST(ParallelRunner, RepeatedRunsAccumulateLikeSerial)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFilterBank());
    machine::MachineDesc m = machine::coreI7();

    machine::CostSink serialCost(m);
    Runner serial(p.graph, p.schedule, &serialCost);
    serial.runInit();
    serial.runSteady(3);
    serial.runSteady(4);

    auto cycles = profileActorCycles(p, m);
    multicore::Partition part =
        multicore::partitionGreedy(p.graph, p.schedule, cycles, 4);
    machine::CostSink parCost(m);
    ParallelRunner pr(p.graph, p.schedule, part, &parCost);
    pr.runInit();
    pr.runSteady(3);
    pr.runSteady(4);

    testutil::expectSameStream(serial.captured(), pr.captured());
    EXPECT_EQ(serialCost.attributedCycles(), parCost.totalCycles());
}

TEST(ParallelRunner, RunUntilCapturedDeliversEnough)
{
    auto p = vectorizer::compileScalar(benchmarks::makeDct());
    machine::MachineDesc m = machine::coreI7();
    auto cycles = profileActorCycles(p, m);
    multicore::Partition part =
        multicore::partitionGreedy(p.graph, p.schedule, cycles, 2);
    ParallelRunner pr(p.graph, p.schedule, part);
    pr.runUntilCaptured(100);
    EXPECT_GE(static_cast<std::int64_t>(pr.captured().size()), 100);
}

TEST(ParallelRunner, StatsReportParallelSection)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    machine::MachineDesc m = machine::coreI7();
    auto cycles = profileActorCycles(p, m);
    multicore::Partition part =
        multicore::partitionGreedy(p.graph, p.schedule, cycles, 2);
    machine::CostSink cost(m);
    ParallelRunner pr(p.graph, p.schedule, part, &cost);
    pr.runInit();
    pr.runSteady(4);
    pr.setBaselineWallMicros(1000.0);

    json::Value stats = pr.statsToJson();
    ASSERT_TRUE(stats.contains("parallel"));
    const json::Value& par = *stats.find("parallel");
    EXPECT_EQ(par.find("threads")->asInt(), 2);
    EXPECT_EQ(par.find("coreLoad")->size(), 2u);
    EXPECT_EQ(par.find("coreOf")->size(), p.graph.actors.size());
    ASSERT_TRUE(par.contains("rings"));
    ASSERT_TRUE(par.contains("measuredSpeedup"));
    EXPECT_GT(par.find("measuredSpeedup")->asDouble(), 0.0);
    // The dispatcher satellite: the VM records which dispatch loop
    // this build runs.
    ASSERT_TRUE(stats.contains("vmDispatcher"));
    std::string d = stats.find("vmDispatcher")->asString();
    EXPECT_EQ(d, vmDispatcherName());
    EXPECT_TRUE(d == "computed-goto" || d == "switch");
}

TEST(ParallelRunner, SingleCoreNeedsNoRings)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    machine::MachineDesc m = machine::coreI7();
    auto cycles = profileActorCycles(p, m);
    multicore::Partition part =
        multicore::partitionGreedy(p.graph, p.schedule, cycles, 1);
    ParallelRunner pr(p.graph, p.schedule, part);
    pr.runInit();
    pr.runSteady(5);
    json::Value stats = pr.statsToJson();
    // One worker, no cross-core tapes: the rings array is empty.
    EXPECT_EQ(stats.find("parallel")->find("rings")->size(), 0u);
    for (std::size_t i = 0; i < p.graph.tapes.size(); ++i)
        EXPECT_FALSE(pr.runner().tapeAt(static_cast<int>(i))
                         .ringBacked());
}

TEST(ParallelRunner, RejectsBadPartition)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    multicore::Partition part;
    part.cores = 2;
    part.coreOf.assign(p.graph.actors.size() - 1, 0);  // Too short.
    part.coreLoad.assign(2, 0.0);
    EXPECT_THROW(ParallelRunner(p.graph, p.schedule, part),
                 FatalError);
}

TEST(ParallelRunner, RejectsNegativePoolKnobs)
{
    auto p = vectorizer::compileScalar(benchmarks::makeFmRadio());
    std::vector<double> w(p.graph.actors.size(), 1.0);
    multicore::Partition part =
        multicore::partitionGreedy(p.graph, p.schedule, w, 2);
    EngineConfig batch, ring, watchdog;
    batch.batchIterations = -1;
    ring.ringCapacity = -1;
    watchdog.watchdogMs = -1;
    for (const EngineConfig& config : {batch, ring, watchdog})
        EXPECT_THROW(ParallelRunner(p.graph, p.schedule, part, nullptr,
                                    config),
                     FatalError);
}

} // namespace
} // namespace macross::interp
