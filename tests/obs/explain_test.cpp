// DecisionExplain records and the ExplainRing: inline-label truncation,
// seq stamping, wrap-around with drop counting, and newest-record lookup —
// the same ring contract the TraceEvent ring pins in trace_test.cpp — plus
// pushMany()'s equivalence to repeated push() and its shared timestamp.
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

/// findNewest() matcher for one region's records.
auto inRegion(std::string_view region) {
  return [region](const DecisionExplain& r) {
    return r.regionView() == region;
  };
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
    ring.push(record(std::string("r").append(std::to_string(i))));
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
  ASSERT_TRUE(ring.findNewest(inRegion("gemm_k1"), out));
  EXPECT_DOUBLE_EQ(out.predictedSpeedup, 3.0);
  ASSERT_TRUE(ring.findNewest(inRegion("atax_k1"), out));
  EXPECT_DOUBLE_EQ(out.predictedSpeedup, 2.0);
  EXPECT_FALSE(ring.findNewest(inRegion("mvt_k1"), out));
}

TEST(ExplainRing, ClearEmptiesBufferButKeepsCapacity) {
  ExplainRing ring(4);
  ring.push(record("a"));
  ring.clear();
  EXPECT_TRUE(ring.snapshot().empty());
  EXPECT_EQ(ring.capacity(), 4u);
  DecisionExplain out;
  EXPECT_FALSE(ring.findNewest(inRegion("a"), out));
}

/// Everything pushMany() must leave exactly as repeated push() does.
void expectSameRing(const ExplainRing& many, const ExplainRing& single) {
  EXPECT_EQ(many.recorded(), single.recorded());
  EXPECT_EQ(many.dropped(), single.dropped());
  const std::vector<DecisionExplain> a = many.snapshot();
  const std::vector<DecisionExplain> b = single.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].regionView(), b[i].regionView()) << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << i;
    EXPECT_EQ(a[i].atNs, b[i].atNs) << i;
    EXPECT_EQ(a[i].predictedSpeedup, b[i].predictedSpeedup) << i;
  }
  for (const char* region : {"gemm_k1", "atax_k1", "mvt_k1", "absent"}) {
    DecisionExplain fromMany;
    DecisionExplain fromSingle;
    const bool foundMany = many.findNewest(inRegion(region), fromMany);
    ASSERT_EQ(foundMany, single.findNewest(inRegion(region), fromSingle))
        << region;
    if (foundMany) {
      EXPECT_EQ(fromMany.seq, fromSingle.seq) << region;
      EXPECT_EQ(fromMany.predictedSpeedup, fromSingle.predictedSpeedup);
    }
  }
}

TEST(ExplainRing, PushManyMatchesRepeatedPush) {
  // Batches below, at and above capacity, pushed into rings that already
  // wrapped: seq order, contents, recorded/dropped and findNewest must match
  // one push() per record — including records a later record of the same
  // call overwrites, which pushMany counts without copying.
  const char* regions[] = {"gemm_k1", "atax_k1", "mvt_k1"};
  for (const std::size_t capacity : {1u, 3u, 8u}) {
    ExplainRing many(capacity);
    ExplainRing single(capacity);
    double speedup = 0.0;
    for (const std::size_t count : {0u, 1u, 2u, 3u, 5u, 8u, 9u, 17u, 4u}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " count " +
                   std::to_string(count));
      std::vector<DecisionExplain> records;
      for (std::size_t i = 0; i < count; ++i) {
        speedup += 1.0;
        records.push_back(record(regions[i % 3], speedup));
      }
      many.pushMany(records);
      for (const DecisionExplain& one : records) single.push(one);
      expectSameRing(many, single);
    }
  }
}

TEST(ExplainRing, PushManyStampsOnlyUnsetTimestamps) {
  ExplainRing ring(4);
  std::vector<DecisionExplain> records{record("a"), record("b"), record("c")};
  records[1].atNs = 777;
  ring.pushMany(records, 1234);
  const std::vector<DecisionExplain> snapshot = ring.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].atNs, 1234);
  EXPECT_EQ(snapshot[1].atNs, 777);  // caller-provided timestamp preserved
  EXPECT_EQ(snapshot[2].atNs, 1234);
  EXPECT_EQ(snapshot[2].seq, 2u);
  // A lone push() stamps nothing.
  ring.push(record("d"));
  DecisionExplain out;
  ASSERT_TRUE(ring.findNewest(inRegion("d"), out));
  EXPECT_EQ(out.atNs, 0);
}

TEST(TraceSessionExplain, RecordExplainsSharesOneTimestamp) {
  TraceSession session({.explainCapacity = 8});
  std::vector<DecisionExplain> group{record("gemm_k1"), record("atax_k1"),
                                     record("mvt_k1")};
  group[2].atNs = 5;
  session.recordExplains(group);
  session.recordExplains({});  // an empty group publishes nothing
  const std::vector<DecisionExplain> snapshot =
      session.explainRing().snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_GT(snapshot[0].atNs, 0);
  EXPECT_EQ(snapshot[1].atNs, snapshot[0].atNs);
  EXPECT_EQ(snapshot[2].atNs, 5);
  EXPECT_EQ(session.explainRing().recorded(), 3u);
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
  ASSERT_TRUE(session.explainRing().findNewest(inRegion("gemm_k1"), out));
  EXPECT_GT(out.atNs, 0);  // session stamped nowNs()
  ASSERT_TRUE(session.explainRing().findNewest(inRegion("atax_k1"), out));
  EXPECT_EQ(out.atNs, 777);  // caller-provided timestamp preserved
}

}  // namespace
}  // namespace osel::obs
