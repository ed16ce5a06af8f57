// DecisionExplain records and the ExplainRing: inline-label truncation,
// seq stamping, wrap-around with drop counting, and newest-record lookup —
// the same ring contract the TraceEvent ring pins in trace_test.cpp.
#include "obs/explain.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/trace.h"
#include "support/check.h"

namespace osel::obs {
namespace {

DecisionExplain record(std::string_view region, double speedup = 1.0) {
  DecisionExplain out;
  out.setRegion(region);
  out.predictedSpeedup = speedup;
  return out;
}

TEST(DecisionPathNames, AreStable) {
  EXPECT_STREQ(toString(DecisionPath::Compiled), "compiled");
  EXPECT_STREQ(toString(DecisionPath::Degenerate), "degenerate");
}

TEST(DecisionExplain, SetRegionTruncatesIntoInlineLabel) {
  DecisionExplain explain;
  explain.setRegion("gemm_k1");
  EXPECT_EQ(explain.regionView(), "gemm_k1");

  const std::string oversized(100, 'x');
  explain.setRegion(oversized);
  EXPECT_EQ(explain.regionView().size(), DecisionExplain::kLabelCapacity - 1);
  EXPECT_EQ(explain.regionView(),
            oversized.substr(0, DecisionExplain::kLabelCapacity - 1));

  explain.setRegion("");
  EXPECT_EQ(explain.regionView(), "");
}

TEST(ExplainRing, RejectsZeroCapacity) {
  EXPECT_THROW(ExplainRing(0), support::PreconditionError);
}

TEST(ExplainRing, PushStampsSequenceAndSnapshotIsOldestFirst) {
  ExplainRing ring(4);
  ring.push(record("a"));
  ring.push(record("b"));
  ring.push(record("c"));
  const std::vector<DecisionExplain> snapshot = ring.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].regionView(), "a");
  EXPECT_EQ(snapshot[0].seq, 0u);
  EXPECT_EQ(snapshot[1].seq, 1u);
  EXPECT_EQ(snapshot[2].regionView(), "c");
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(ExplainRing, WrapsOverwritingOldestAndCountsDrops) {
  ExplainRing ring(2);
  for (int i = 0; i < 5; ++i) {
    ring.push(record("r" + std::to_string(i)));
  }
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 3u);
  const std::vector<DecisionExplain> snapshot = ring.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].regionView(), "r3");
  EXPECT_EQ(snapshot[1].regionView(), "r4");
}

TEST(ExplainRing, LatestForFindsNewestSurvivingRecordPerRegion) {
  ExplainRing ring(8);
  ring.push(record("gemm_k1", 1.0));
  ring.push(record("atax_k1", 2.0));
  ring.push(record("gemm_k1", 3.0));
  DecisionExplain out;
  ASSERT_TRUE(ring.latestFor("gemm_k1", out));
  EXPECT_DOUBLE_EQ(out.predictedSpeedup, 3.0);
  ASSERT_TRUE(ring.latestFor("atax_k1", out));
  EXPECT_DOUBLE_EQ(out.predictedSpeedup, 2.0);
  EXPECT_FALSE(ring.latestFor("mvt_k1", out));
}

TEST(ExplainRing, ClearEmptiesBufferButKeepsCapacity) {
  ExplainRing ring(4);
  ring.push(record("a"));
  ring.clear();
  EXPECT_TRUE(ring.snapshot().empty());
  EXPECT_EQ(ring.capacity(), 4u);
  DecisionExplain out;
  EXPECT_FALSE(ring.latestFor("a", out));
}

TEST(TraceSessionExplain, RecordStampsTimestampOnlyWhenUnset) {
  TraceSession session({.explainCapacity = 4});
  DecisionExplain fresh = record("gemm_k1");
  ASSERT_EQ(fresh.atNs, 0);
  session.recordExplain(fresh);

  DecisionExplain stamped = record("atax_k1");
  stamped.atNs = 777;
  session.recordExplain(stamped);

  DecisionExplain out;
  ASSERT_TRUE(session.explainRing().latestFor("gemm_k1", out));
  EXPECT_GT(out.atNs, 0);  // session stamped nowNs()
  ASSERT_TRUE(session.explainRing().latestFor("atax_k1", out));
  EXPECT_EQ(out.atNs, 777);  // caller-provided timestamp preserved
}

}  // namespace
}  // namespace osel::obs
