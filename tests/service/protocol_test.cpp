/**
 * @file
 * Unit tests for the macrossd wire protocol: request round-trips,
 * structural validation, the checksum/lane-flattening contract, and
 * typed error construction.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "service/protocol.h"
#include "support/diagnostics.h"

namespace macross::service {
namespace {

TEST(Protocol, RunRequestRoundTrips)
{
    Request req;
    req.op = RequestOp::Run;
    req.id = "req-42";
    req.tenant = "alice";
    req.bench = "FMRadio";
    req.iters = 7;
    req.wantOutput = true;
    req.config.laneWidth = 8;
    req.config.sagu = true;
    req.injectFault = "native-crash";

    Request back = Request::fromJson(req.toJson());
    EXPECT_EQ(back.op, RequestOp::Run);
    EXPECT_EQ(back.id, "req-42");
    EXPECT_EQ(back.tenant, "alice");
    EXPECT_EQ(back.bench, "FMRadio");
    EXPECT_EQ(back.iters, 7);
    EXPECT_TRUE(back.wantOutput);
    EXPECT_EQ(back.config.key(), req.config.key());
    EXPECT_EQ(back.injectFault, "native-crash");
}

TEST(Protocol, MinimalRequestsDefaultSanely)
{
    Request r = Request::fromJson(json::parse("{\"op\":\"ping\"}"));
    EXPECT_EQ(r.op, RequestOp::Ping);
    EXPECT_TRUE(r.id.empty());

    r = Request::fromJson(
        json::parse("{\"op\":\"run\",\"bench\":\"DCT\"}"));
    EXPECT_EQ(r.op, RequestOp::Run);
    EXPECT_EQ(r.iters, 1);
    EXPECT_FALSE(r.wantOutput);
    EXPECT_EQ(r.config.key(), tuner::TuneConfig{}.key());
}

TEST(Protocol, StructurallyInvalidRequestsAreFatal)
{
    EXPECT_THROW(Request::fromJson(json::Value("not an object")),
                 FatalError);
    EXPECT_THROW(
        Request::fromJson(json::parse("{\"op\":\"explode\"}")),
        FatalError);
    EXPECT_THROW(Request::fromJson(json::parse(
                     "{\"op\":\"run\",\"bench\":1}")),
                 FatalError);
    EXPECT_THROW(Request::fromJson(json::parse(
                     "{\"op\":\"run\",\"bench\":\"DCT\","
                     "\"iters\":0}")),
                 FatalError);
    EXPECT_THROW(Request::fromJson(json::parse(
                     "{\"op\":\"run\",\"bench\":\"DCT\","
                     "\"iters\":-3}")),
                 FatalError);
    EXPECT_THROW(Request::fromJson(json::parse(
                     "{\"op\":\"run\",\"config\":[]}")),
                 FatalError);
}

TEST(Protocol, ChecksumMatchesEmittedMainConvention)
{
    // The emitted standalone main() sums raw 32-bit lane bits into a
    // u64; the daemon must report the same digest for the same
    // stream.
    std::vector<interp::Value> vals;
    vals.push_back(interp::Value::makeInt(3));
    vals.push_back(interp::Value::makeFloat(1.5f));
    std::uint64_t want =
        static_cast<std::uint32_t>(3) +
        static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(1.5f));
    EXPECT_EQ(checksumLanes(vals), want);
    // Skipping already-reported elements drops their contribution.
    EXPECT_EQ(checksumLanes(vals, 1),
              std::bit_cast<std::uint32_t>(1.5f));

    std::vector<std::uint32_t> lanes = flattenLanes(vals);
    ASSERT_EQ(lanes.size(), 2u);
    EXPECT_EQ(lanes[0], 3u);
    EXPECT_EQ(lanes[1], std::bit_cast<std::uint32_t>(1.5f));
    EXPECT_EQ(flattenLanes(vals, 1).size(), 1u);

    // The raw-lane form (the daemon's in-place read) is the same
    // digest, including the u32 -> u64 carry.
    EXPECT_EQ(checksumLanes(std::span<const std::uint32_t>(lanes)), want);
    const std::uint32_t big[] = {0xffffffffu, 0xffffffffu};
    EXPECT_EQ(checksumLanes(big), 0x1fffffffeull);
}

TEST(Protocol, Hex64IsFixedWidthLowercase)
{
    EXPECT_EQ(hex64(0), "0000000000000000");
    EXPECT_EQ(hex64(0xdeadbeefULL), "00000000deadbeef");
    EXPECT_EQ(hex64(~0ULL), "ffffffffffffffff");
}

TEST(Protocol, MakeErrorCarriesTypedKind)
{
    json::Value e = makeError("id-1", kind::kOverloaded, "busy");
    EXPECT_EQ(e.find("op")->asString(), "error");
    EXPECT_EQ(e.find("id")->asString(), "id-1");
    EXPECT_FALSE(e.find("ok")->asBool());
    EXPECT_EQ(e.find("kind")->asString(), "overloaded");
    EXPECT_EQ(e.find("message")->asString(), "busy");
}

} // namespace
} // namespace macross::service
