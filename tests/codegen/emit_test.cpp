/**
 * @file
 * Code-generation tests: structural checks on the emitted C++, plus
 * an end-to-end test that compiles the emitted translation unit with
 * the host compiler and compares its output against the interpreter.
 */
#include "codegen/emit_cpp.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>

#include "../test_util.h"
#include "benchmarks/suite.h"
#include "frontend/parser.h"

namespace macross::codegen {
namespace {

TEST(Codegen, EmitsVectorIntrinsicsForSimdizedGraph)
{
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    auto compiled =
        vectorizer::macroSimdize(benchmarks::makeRunningExample(),
                                 opts);
    std::string src = emitCpp(compiled.graph, compiled.schedule);
    EXPECT_NE(src.find("Vec<float, 4>"), std::string::npos);
    EXPECT_NE(src.find("vpush"), std::string::npos);
    EXPECT_NE(src.find("rpush"), std::string::npos);
    EXPECT_NE(src.find("advance_in"), std::string::npos);
    EXPECT_NE(src.find("int main"), std::string::npos);
}

TEST(Codegen, SimdSpecSelectsTheVectorLayer)
{
    vectorizer::SimdizeOptions vopts;
    vopts.forceSimdize = true;
    auto compiled = vectorizer::macroSimdize(
        benchmarks::makeRunningExample(), vopts);

    // Default spec (W=4): the true-SIMD layer, built on the
    // compiler's vector extensions, chunked at kLaneWidth.
    EmitOptions w4;
    ASSERT_EQ(w4.simd.laneWidth, 4);
    std::string simd =
        emitCpp(compiled.graph, compiled.schedule, w4);
    EXPECT_NE(simd.find("SIMD lowering: w4:auto:exact"),
              std::string::npos);
    EXPECT_NE(simd.find("kLaneWidth = 4"), std::string::npos);
    EXPECT_NE(simd.find("ext_vector_type"), std::string::npos);
    EXPECT_NE(simd.find("vector_size"), std::string::npos);

    // W=1: the scalar fallback layer — no vector extensions at all,
    // same Vec/Tape interface.
    EmitOptions w1;
    w1.simd.laneWidth = 1;
    std::string scalar =
        emitCpp(compiled.graph, compiled.schedule, w1);
    EXPECT_NE(scalar.find("SIMD lowering: w1:auto:exact"),
              std::string::npos);
    EXPECT_EQ(scalar.find("ext_vector_type"), std::string::npos);
    EXPECT_EQ(scalar.find("vector_size"), std::string::npos);
    EXPECT_NE(scalar.find("Vec<float, 4>"), std::string::npos);

    // The actor bodies are lowering-independent: only the preamble's
    // Vec/Tape layer changes between specs.
    EXPECT_NE(simd, scalar);
}

TEST(Codegen, InvalidSimdSpecIsRejected)
{
    auto compiled =
        vectorizer::compileScalar(benchmarks::makeRunningExample());
    EmitOptions opts;
    opts.simd.laneWidth = 3;
    EXPECT_THROW(emitCpp(compiled.graph, compiled.schedule, opts),
                 PanicError);
    opts.simd.laneWidth = 4;
    opts.simd.isa = "native; rm -rf /";
    EXPECT_THROW(emitCpp(compiled.graph, compiled.schedule, opts),
                 PanicError);
}

TEST(Codegen, EmitsScalarGraphWithoutVectors)
{
    auto compiled =
        vectorizer::compileScalar(benchmarks::makeMatrixMultBlock());
    std::string src = emitCpp(compiled.graph, compiled.schedule);
    // No vector tape accesses outside the runtime preamble.
    EXPECT_EQ(src.find("->vpush("), std::string::npos);
    EXPECT_EQ(src.find(".vpush("), std::string::npos);
    EXPECT_NE(src.find("struct Actor0"), std::string::npos);
}

TEST(Codegen, EmitOptionsControlMainDefaults)
{
    auto compiled =
        vectorizer::compileScalar(benchmarks::makeRunningExample());
    EmitOptions opts;
    opts.steadyIterations = 77;
    opts.printFirst = 9;
    std::string src =
        emitCpp(compiled.graph, compiled.schedule, opts);
    // The CLI's --run N / --emit-print K land verbatim in main(),
    // argv[1] overriding the baked default via validated strtol
    // (junk counts exit with a usage message, never atoi-to-0).
    EXPECT_NE(src.find("long iters = 77;"), std::string::npos);
    EXPECT_NE(src.find("std::strtol(argv[1]"), std::string::npos);
    EXPECT_NE(src.find("usage: %s [ITERATIONS]"), std::string::npos);
    EXPECT_EQ(src.find("std::atoi"), std::string::npos);
    EXPECT_NE(src.find("i < rec.size() && i < 9"), std::string::npos);
}

/** Names of the `macross_*` functions @p src defines. */
std::set<std::string>
definedAbiSymbols(const std::string& src)
{
    std::set<std::string> names;
    const std::regex def(R"(\b(macross_\w+)\()");
    for (auto it = std::sregex_iterator(src.begin(), src.end(), def);
         it != std::sregex_iterator(); ++it)
        names.insert((*it)[1]);
    return names;
}

TEST(Codegen, LibraryModeEmitsAbiInsteadOfMain)
{
    auto compiled =
        vectorizer::compileScalar(benchmarks::makeRunningExample());
    EmitOptions opts;
    opts.mode = EmitMode::Library;
    std::string src =
        emitCpp(compiled.graph, compiled.schedule, opts);
    EXPECT_EQ(src.find("int main"), std::string::npos);
    EXPECT_NE(src.find("extern \"C\""), std::string::npos);
    // Exactly the v3 partition surface: a serial program is the
    // one-partition case, with no whole-program entry points.
    const std::set<std::string> v3 = {
        "macross_abi_version",          "macross_simd_lanes",
        "macross_simd_isa",             "macross_exact",
        "macross_num_partitions",       "macross_create_partition",
        "macross_destroy_partition",    "macross_ring_bind",
        "macross_init_all",             "macross_run_steady_partition",
        "macross_flush_partition",      "macross_sink_partition",
        "macross_capture_size",         "macross_capture_data"};
    EXPECT_EQ(definedAbiSymbols(src), v3);
    for (const char* gone :
         {"macross_create(", "macross_init(", "macross_run_steady("})
        EXPECT_EQ(src.find(gone), std::string::npos) << gone;
    EXPECT_EQ(src.find("struct Program"), std::string::npos);
    EXPECT_NE(src.find("int macross_num_partitions() { return 1; }"),
              std::string::npos);
    // The introspection symbols report the spec this object was
    // emitted under.
    EXPECT_NE(src.find("int macross_abi_version() { return 3; }"),
              std::string::npos);
    EXPECT_NE(src.find("int macross_simd_lanes() { return 4; }"),
              std::string::npos);
    EXPECT_NE(src.find("return \"auto\""), std::string::npos);
    EXPECT_NE(src.find("int macross_exact() { return 1; }"),
              std::string::npos);

    EmitOptions ulp = opts;
    ulp.simd.allowUlpDivergence = true;
    std::string inexact =
        emitCpp(compiled.graph, compiled.schedule, ulp);
    EXPECT_NE(inexact.find("int macross_exact() { return 0; }"),
              std::string::npos);

    // Ring endpoint code is compiled in only when a tape crosses
    // cores. A 1-core partition is the serial program, byte for byte.
    const graph::FlatGraph& g = compiled.graph;
    EXPECT_EQ(src.find("#define MACROSS_RING 1"), std::string::npos);
    EmitOptions oneCore = opts;
    oneCore.partitionCores = 1;
    oneCore.partitionCoreOf.assign(g.actors.size(), 0);
    EXPECT_EQ(emitCpp(g, compiled.schedule, oneCore), src);

    // Two cores, with the first tape's producer and consumer split.
    ASSERT_FALSE(g.tapes.empty());
    ASSERT_NE(g.tapes[0].src, g.tapes[0].dst);
    EmitOptions twoCore = opts;
    twoCore.partitionCores = 2;
    twoCore.partitionCoreOf.assign(g.actors.size(), 0);
    twoCore.partitionCoreOf[g.tapes[0].dst] = 1;
    const std::string twoSrc = emitCpp(g, compiled.schedule, twoCore);
    EXPECT_NE(twoSrc.find("#define MACROSS_RING 1"), std::string::npos);
    EXPECT_NE(twoSrc.find("int macross_num_partitions() { return 2; }"),
              std::string::npos);
    EXPECT_EQ(definedAbiSymbols(twoSrc), v3);
}

/** Tape ids whose rebase() Partition<k>'s run_steady calls. */
std::set<int>
rebasedTapes(const std::string& src, int k)
{
    const std::string head = "struct Partition" + std::to_string(k) +
                             " : PartitionBase {";
    std::size_t begin = src.find(head);
    EXPECT_NE(begin, std::string::npos) << head;
    begin = src.find("void run_steady(int iters) {", begin);
    const std::size_t end = src.find("void flush() {", begin);
    EXPECT_NE(end, std::string::npos);
    const std::string body = src.substr(begin, end - begin);
    std::set<int> ids;
    const std::regex call(R"(tape(\d+)\.rebase\(\);)");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), call);
         it != std::sregex_iterator(); ++it)
        ids.insert(std::stoi((*it)[1]));
    return ids;
}

TEST(Codegen, SteadyLoopRebasesOnlyCorePrivateTapes)
{
    vectorizer::SimdizeOptions vopts;
    vopts.forceSimdize = true;
    auto compiled =
        vectorizer::macroSimdize(benchmarks::makeFmRadio(), vopts);
    const graph::FlatGraph& g = compiled.graph;

    // Serial: every tape is private to the one partition.
    EmitOptions opts;
    opts.mode = EmitMode::Library;
    std::set<int> all;
    for (const auto& t : g.tapes)
        all.insert(t.id);
    EXPECT_EQ(rebasedTapes(emitCpp(g, compiled.schedule, opts), 0),
              all);

    // Two cores split in topological order: each core rebases exactly
    // the tapes with both endpoints on it, never a ring-bound one.
    EmitOptions twoCore = opts;
    twoCore.partitionCores = 2;
    twoCore.partitionCoreOf.assign(g.actors.size(), 0);
    const std::vector<int> topo = g.topoOrder();
    for (std::size_t i = topo.size() / 2; i < topo.size(); ++i)
        twoCore.partitionCoreOf[topo[i]] = 1;
    const std::string src = emitCpp(g, compiled.schedule, twoCore);
    ASSERT_NE(src.find("#define MACROSS_RING 1"), std::string::npos);
    std::set<int> crossing;
    std::set<int> priv[2];
    for (const auto& t : g.tapes) {
        const int a = twoCore.partitionCoreOf[t.src];
        const int b = twoCore.partitionCoreOf[t.dst];
        (a == b ? priv[a] : crossing).insert(t.id);
    }
    ASSERT_FALSE(crossing.empty());
    ASSERT_FALSE(priv[0].empty());
    ASSERT_FALSE(priv[1].empty());
    for (int k = 0; k < 2; ++k) {
        SCOPED_TRACE("Partition" + std::to_string(k));
        EXPECT_EQ(rebasedTapes(src, k), priv[k]);
    }
}

/** Compile @p source with the host compiler and run it. */
std::string
compileAndRun(const std::string& source, const std::string& tag,
              int iters)
{
    std::string base = ::testing::TempDir() + "macross_emit_" + tag;
    std::string cppPath = base + ".cpp";
    std::string binPath = base + ".bin";
    {
        std::ofstream out(cppPath);
        out << source;
    }
    std::string compile = "c++ -std=c++17 -O1 -o " + binPath + " " +
                          cppPath + " 2> " + base + ".log";
    if (std::system(compile.c_str()) != 0) {
        std::ifstream log(base + ".log");
        std::string msg((std::istreambuf_iterator<char>(log)),
                        std::istreambuf_iterator<char>());
        ADD_FAILURE() << "host compile failed:\n" << msg;
        return {};
    }
    std::string cmd = binPath + " " + std::to_string(iters);
    FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string output;
    char buf[256];
    while (fgets(buf, sizeof(buf), pipe))
        output += buf;
    pclose(pipe);
    return output;
}

/** First line of the emitted program's report: element count +
 * checksum, which must match the interpreter's capture. */
void
expectEmittedMatchesInterpreter(const graph::StreamPtr& program,
                                bool simdize, const std::string& tag)
{
    vectorizer::CompiledProgram compiled;
    if (simdize) {
        vectorizer::SimdizeOptions opts;
        opts.forceSimdize = true;
        compiled = vectorizer::macroSimdize(program, opts);
    } else {
        compiled = vectorizer::compileScalar(program);
    }
    const int iters = 3;
    std::string output = compileAndRun(
        emitCpp(compiled.graph, compiled.schedule), tag, iters);
    ASSERT_FALSE(output.empty());

    // Interpreter reference: same order-independent sum of raw lane
    // bits the emitted main() prints.
    interp::Runner r(compiled.graph, compiled.schedule);
    r.runInit();
    r.runSteady(iters);
    unsigned long long checksum = 0;
    for (const auto& v : r.captured())
        checksum += v.rawBits(0);

    char expected[128];
    std::snprintf(expected, sizeof(expected),
                  "elements %zu checksum %016llx",
                  r.captured().size(), checksum);
    EXPECT_EQ(output.substr(0, output.find('\n')),
              std::string(expected));
}

TEST(Codegen, EmittedScalarProgramMatchesInterpreter)
{
    expectEmittedMatchesInterpreter(
        benchmarks::makeRunningExample(), false, "scalar");
}

TEST(Codegen, EmittedSimdizedProgramMatchesInterpreter)
{
    expectEmittedMatchesInterpreter(
        benchmarks::makeRunningExample(), true, "simd");
}

TEST(Codegen, EmittedDctWithPermutedTapesMatches)
{
    expectEmittedMatchesInterpreter(benchmarks::makeDct(), true,
                                    "dct");
}

TEST(Codegen, EmittedBitonicIntProgramMatches)
{
    expectEmittedMatchesInterpreter(benchmarks::makeBitonicSort(),
                                    true, "bitonic");
}

TEST(Codegen, EmittedHorizontalProgramMatches)
{
    expectEmittedMatchesInterpreter(benchmarks::makeFilterBank(),
                                    true, "filterbank");
}

TEST(Codegen, EmittedFusedChainMatches)
{
    expectEmittedMatchesInterpreter(benchmarks::makeMatrixMultBlock(),
                                    true, "mmb");
}

TEST(Codegen, EmittedSaguTransposedTapesMatch)
{
    // MatrixMult under the SAGU config: the emitted Tape must apply
    // the block-transpose walk on the scalar endpoints.
    vectorizer::SimdizeOptions opts;
    opts.forceSimdize = true;
    opts.enableSagu = true;
    opts.machine = machine::coreI7WithSagu();
    auto compiled =
        vectorizer::macroSimdize(benchmarks::makeMatrixMult(), opts);
    bool transposed = false;
    for (const auto& t : compiled.graph.tapes) {
        transposed |= t.transpose.readSide || t.transpose.writeSide;
    }
    ASSERT_TRUE(transposed);

    const int iters = 3;
    std::string output = compileAndRun(
        emitCpp(compiled.graph, compiled.schedule), "sagu", iters);
    ASSERT_FALSE(output.empty());

    interp::Runner r(compiled.graph, compiled.schedule);
    r.runInit();
    r.runSteady(iters);
    unsigned long long checksum = 0;
    for (const auto& v : r.captured())
        checksum += v.rawBits(0);
    char expected[128];
    std::snprintf(expected, sizeof(expected),
                  "elements %zu checksum %016llx", r.captured().size(),
                  checksum);
    EXPECT_EQ(output.substr(0, output.find('\n')),
              std::string(expected));
}

TEST(Codegen, ScalarFallbackLayerMatchesInterpreter)
{
    // W=1 standalone build of a SIMDized program with permuted tapes:
    // the scalar fallback layer must stay bit-identical to the
    // interpreter even when the default lowering is the vector layer.
    vectorizer::SimdizeOptions vopts;
    vopts.forceSimdize = true;
    auto compiled =
        vectorizer::macroSimdize(benchmarks::makeDct(), vopts);
    EmitOptions opts;
    opts.simd.laneWidth = 1;
    const int iters = 3;
    std::string output = compileAndRun(
        emitCpp(compiled.graph, compiled.schedule, opts), "w1", iters);
    ASSERT_FALSE(output.empty());

    interp::Runner r(compiled.graph, compiled.schedule);
    r.runInit();
    r.runSteady(iters);
    unsigned long long checksum = 0;
    for (const auto& v : r.captured())
        checksum += v.rawBits(0);
    char expected[128];
    std::snprintf(expected, sizeof(expected),
                  "elements %zu checksum %016llx", r.captured().size(),
                  checksum);
    EXPECT_EQ(output.substr(0, output.find('\n')),
              std::string(expected));
}

TEST(Codegen, FullStackFromStreamLanguage)
{
    // The whole toolchain in one test: textual program -> parser ->
    // macro-SIMDization -> C++ emission -> host compiler -> output
    // identical to the interpreter.
    const char* src = R"(
void->float filter Src() {
    int s;
    init { s = 41; }
    work push 4 {
        for (int i = 0; i < 4; i++) {
            s = s * 1103515245 + 12345;
            push(float((s >> 16) & 32767) * 0.0005);
        }
    }
}
float->float filter Blend(float k) {
    work pop 2 push 2 {
        float a = pop();
        float b = pop();
        push(a * k + b * (1.0 - k));
        push(b * k - a * (1.0 - k));
    }
}
float->void filter Out() {
    float acc;
    work pop 1 { acc = acc + pop(); }
}
void->void pipeline Main() {
    add Src();
    add splitjoin {
        split roundrobin(2, 2, 2, 2);
        add Blend(0.25);
        add Blend(0.5);
        add Blend(0.75);
        add Blend(0.9);
        join roundrobin(2, 2, 2, 2);
    };
    add Out();
}
)";
    expectEmittedMatchesInterpreter(frontend::parseProgram(src), true,
                                    "dsl");
}

} // namespace
} // namespace macross::codegen
