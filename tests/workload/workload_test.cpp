// Coverage for the workload frontend layer: deterministic generation under
// each shape (uniform, Zipfian, bursty), Zipf head skew, bursty on/off
// pacing, the trace record/replay round trip (RFC-4180 quoting, comments,
// malformed-line rejection), and the replayer's cyclic iteration.
#include "workload/workload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/check.h"

namespace osel::workload {
namespace {

std::vector<Candidate> makeCandidates(std::size_t count) {
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<symbolic::Bindings> choices;
    for (const std::int64_t n : {32, 64, 128}) {
      choices.push_back(symbolic::Bindings{{"n", n}});
    }
    candidates.push_back({"region" + std::to_string(i), choices});
  }
  return candidates;
}

TEST(WorkloadShape, ParsesAndPrintsAllShapes) {
  EXPECT_EQ(parseShape("uniform"), Shape::Uniform);
  EXPECT_EQ(parseShape("zipfian"), Shape::Zipfian);
  EXPECT_EQ(parseShape("bursty"), Shape::Bursty);
  EXPECT_EQ(toString(Shape::Uniform), "uniform");
  EXPECT_EQ(toString(Shape::Zipfian), "zipfian");
  EXPECT_EQ(toString(Shape::Bursty), "bursty");
  EXPECT_THROW((void)parseShape("poisson"), support::PreconditionError);
}

TEST(WorkloadGenerator, RejectsEmptyCandidateSets) {
  EXPECT_THROW(Generator(Shape::Uniform, {}, {}), support::PreconditionError);
  std::vector<Candidate> noChoices{{"region0", {}}};
  EXPECT_THROW(Generator(Shape::Uniform, noChoices, {}),
               support::PreconditionError);
}

TEST(WorkloadGenerator, SameSeedSameStreamDifferentSeedDiffers) {
  GeneratorOptions options;
  options.seed = 7;
  Generator a(Shape::Zipfian, makeCandidates(6), options);
  Generator b(Shape::Zipfian, makeCandidates(6), options);
  const std::vector<Item> streamA = a.take(200);
  const std::vector<Item> streamB = b.take(200);
  ASSERT_EQ(streamA.size(), streamB.size());
  for (std::size_t i = 0; i < streamA.size(); ++i) {
    EXPECT_EQ(streamA[i].region, streamB[i].region);
    EXPECT_EQ(streamA[i].bindings, streamB[i].bindings);
    EXPECT_EQ(streamA[i].gapSeconds, streamB[i].gapSeconds);
  }
  options.seed = 8;
  Generator c(Shape::Zipfian, makeCandidates(6), options);
  const std::vector<Item> streamC = c.take(200);
  bool anyDiffers = false;
  for (std::size_t i = 0; i < streamC.size(); ++i) {
    if (streamC[i].region != streamA[i].region ||
        streamC[i].bindings != streamA[i].bindings) {
      anyDiffers = true;
      break;
    }
  }
  EXPECT_TRUE(anyDiffers);
}

TEST(WorkloadGenerator, UniformTouchesEveryCandidateAndChoice) {
  Generator generator(Shape::Uniform, makeCandidates(4), {});
  std::map<std::string, int> regionCounts;
  std::map<std::int64_t, int> sizeCounts;
  for (const Item& item : generator.take(600)) {
    regionCounts[item.region]++;
    sizeCounts[item.bindings.at("n")]++;
    EXPECT_EQ(item.gapSeconds, 0.0);
  }
  EXPECT_EQ(regionCounts.size(), 4u);
  EXPECT_EQ(sizeCounts.size(), 3u);
  // Uniform: no candidate should hoard the stream (expected 150 each).
  for (const auto& [region, count] : regionCounts) {
    EXPECT_GT(count, 60) << region;
    EXPECT_LT(count, 300) << region;
  }
}

TEST(WorkloadGenerator, ZipfianSkewsTowardTheHead) {
  GeneratorOptions options;
  options.zipfExponent = 1.2;
  Generator generator(Shape::Zipfian, makeCandidates(8), options);
  std::map<std::string, int> counts;
  for (const Item& item : generator.take(2000)) counts[item.region]++;
  // Rank 1 gets p ∝ 1, rank 8 gets p ∝ 1/8^1.2 ≈ 0.082: the head must
  // dominate the tail by a wide margin.
  EXPECT_GT(counts["region0"], 4 * counts["region7"]);
  EXPECT_GT(counts["region0"], counts["region1"]);
}

TEST(WorkloadGenerator, BurstyPacesFirstItemOfEachBurst) {
  GeneratorOptions options;
  options.burstLength = 16;
  options.burstGapSeconds = 2.5e-3;
  Generator generator(Shape::Bursty, makeCandidates(3), options);
  const std::vector<Item> items = generator.take(64);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i % 16 == 0) {
      EXPECT_EQ(items[i].gapSeconds, 2.5e-3) << "item " << i;
    } else {
      EXPECT_EQ(items[i].gapSeconds, 0.0) << "item " << i;
    }
  }
}

TEST(WorkloadTrace, RoundTripsItemsIncludingQuotedRegions) {
  std::vector<Item> items;
  items.push_back({"plain_region", symbolic::Bindings{{"n", 64}, {"m", -3}},
                   0.0});
  items.push_back({"needs,quoting", symbolic::Bindings{{"k", 7}}, 1.25e-3});
  items.push_back({"has\"quote", symbolic::Bindings{}, 0.5});
  const std::string text = serializeTrace(items);
  const std::vector<Item> parsed = parseTrace(text);
  ASSERT_EQ(parsed.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(parsed[i].region, items[i].region) << i;
    EXPECT_EQ(parsed[i].bindings, items[i].bindings) << i;
    EXPECT_DOUBLE_EQ(parsed[i].gapSeconds, items[i].gapSeconds) << i;
  }
}

TEST(WorkloadTrace, SkipsCommentsAndBlankLines) {
  const std::vector<Item> parsed = parseTrace(
      "# recorded by suite_batch_decide\n"
      "\n"
      "0,gemm_k1,n=64\n"
      "# trailing comment\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].region, "gemm_k1");
  EXPECT_EQ(parsed[0].bindings.at("n"), 64);
}

TEST(WorkloadTrace, RejectsMalformedLines) {
  EXPECT_THROW(parseTrace("notanumber,gemm_k1,n=64\n"),
               support::PreconditionError);
  EXPECT_THROW(parseTrace("0,,n=64\n"), support::PreconditionError);
  EXPECT_THROW(parseTrace("0,gemm_k1,n\n"), support::PreconditionError);
  EXPECT_THROW(parseTrace("0,gemm_k1,n=sixtyfour\n"),
               support::PreconditionError);
  EXPECT_THROW(parseTrace("0,\"unterminated,n=64\n"),
               support::PreconditionError);
}

TEST(WorkloadTrace, WritesAndReportsTheVersionedHeader) {
  std::vector<Item> items;
  items.push_back({"gemm_k1", symbolic::Bindings{{"n", 64}}, 0.0});
  const std::string text = serializeTrace(items, {.seed = 2019});
  EXPECT_EQ(text.rfind("#!osel-trace v1 seed=2019\n", 0), 0u)
      << "trace must open with the versioned header, got: " << text;
  TraceHeader header;
  const std::vector<Item> parsed = parseTrace(text, &header);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(header.version, kTraceFormatVersion);
  EXPECT_EQ(header.seed, 2019u);
}

TEST(WorkloadTrace, HeaderlessInputIsLegacyNotAnError) {
  TraceHeader header;
  const std::vector<Item> parsed = parseTrace("0,gemm_k1,n=64\n", &header);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(header.version, 0u) << "legacy traces report version 0";
}

TEST(WorkloadTrace, RejectsMismatchedHeaderVersions) {
  try {
    (void)parseTrace("#!osel-trace v99 seed=1\n0,gemm_k1,n=64\n");
    FAIL() << "v99 trace was accepted";
  } catch (const support::PreconditionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("v99"), std::string::npos) << what;
    EXPECT_NE(what.find("v1"), std::string::npos) << what;
  }
  EXPECT_THROW((void)parseTrace("#!osel-trace vNaN\n"),
               support::PreconditionError);
  // The replayer path enforces the same contract.
  EXPECT_THROW((void)TraceReplayer::fromText("#!osel-trace v2 seed=0\n"),
               support::PreconditionError);
}

TEST(WorkloadTrace, RejectsHeaderTrailingGarbage) {
  // A header that is not exactly `#!osel-trace v<N>[ seed=<M>]` is a hard
  // error — before the %n full-consumption check, 'sed=5' and 'seed=5junk'
  // were silently accepted with seed=0.
  for (const char* header :
       {"#!osel-trace v1 sed=5", "#!osel-trace v1 seed=5junk",
        "#!osel-trace v1 seed=", "#!osel-trace v1x",
        "#!osel-trace v1 seed=5 extra"}) {
    EXPECT_THROW((void)parseTrace(std::string(header) + "\n0,gemm_k1,n=64\n"),
                 support::PreconditionError)
        << header;
  }
  // A seedless versioned header stays legal; the seed defaults to 0.
  TraceHeader header;
  const std::vector<Item> parsed =
      parseTrace("#!osel-trace v1\n0,gemm_k1,n=64\n", &header);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(header.version, kTraceFormatVersion);
  EXPECT_EQ(header.seed, 0u);
}

TEST(WorkloadTrace, SerializeRefusesForeignVersions) {
  std::vector<Item> items;
  items.push_back({"gemm_k1", symbolic::Bindings{{"n", 64}}, 0.0});
  EXPECT_THROW((void)serializeTrace(items, {.version = 2, .seed = 0}),
               support::PreconditionError);
}

TEST(WorkloadTrace, ReplayerFromTextParsesAndCycles) {
  TraceReplayer replayer = TraceReplayer::fromText(
      "#!osel-trace v1 seed=7\n0,a,n=1\n0,b,n=2\n");
  EXPECT_EQ(replayer.size(), 2u);
  EXPECT_EQ(replayer.next().region, "a");
  EXPECT_EQ(replayer.next().region, "b");
  EXPECT_EQ(replayer.next().region, "a");
}

TEST(WorkloadTrace, ReplayerCyclesAndRejectsEmptyTraces) {
  EXPECT_THROW(TraceReplayer(std::vector<Item>{}), support::PreconditionError);
  std::vector<Item> items;
  items.push_back({"a", symbolic::Bindings{{"n", 1}}, 0.0});
  items.push_back({"b", symbolic::Bindings{{"n", 2}}, 0.0});
  TraceReplayer replayer(items);
  EXPECT_EQ(replayer.size(), 2u);
  EXPECT_EQ(replayer.next().region, "a");
  EXPECT_EQ(replayer.next().region, "b");
  EXPECT_EQ(replayer.next().region, "a");  // wraps
}

}  // namespace
}  // namespace osel::workload
