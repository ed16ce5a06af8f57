// The BoundedRing contract on every record type a TraceSession captures
// (trace events, DecisionExplain, SlowRequestRecord): capacity
// precondition, seq stamping and oldest-first snapshots, wrap-around drop
// counting, clear(), pushMany()'s equivalence to repeated push(), the
// stamp-only-unset timestamp rule and newest-match lookup; plus the shared
// inline label's zero-filled tail.
#include "obs/ring.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/explain.h"
#include "obs/slow.h"
#include "obs/trace.h"
#include "support/check.h"

namespace osel::obs {
namespace {

// Per-type access to the label and the ring's timestamp field.
template <class Record>
constexpr bool kIsEvent =
    std::is_same_v<std::remove_const_t<Record>, TraceEvent>;

template <class Record>
auto& labelOf(Record& r) {
  if constexpr (kIsEvent<Record>) {
    return r.label;
  } else {
    return r.region;
  }
}

template <class Record>
auto& timeOf(Record& r) {
  if constexpr (kIsEvent<Record>) {
    return r.startNs;
  } else {
    return r.atNs;
  }
}

template <class Record>
std::string_view nameOf(const Record& r) {
  return labelOf(r).data();
}

template <class Record>
Record named(std::string_view name) {
  Record out;
  setLabel(labelOf(out), name);
  return out;
}

template <class Ring>
class BoundedRingContract : public ::testing::Test {
 protected:
  static std::vector<std::string> names(const Ring& ring) {
    std::vector<std::string> out;
    for (const auto& r : ring.snapshot()) out.emplace_back(nameOf(r));
    return out;
  }

  static bool newest(const Ring& ring, std::string_view name,
                     typename Ring::value_type& out) {
    return ring.findNewest(
        [name](const auto& r) { return nameOf(r) == name; }, out);
  }
};

struct RingNames {
  template <class Ring>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<Ring, EventRing>) return "EventRing";
    if constexpr (std::is_same_v<Ring, ExplainRing>) return "ExplainRing";
    return "SlowRing";
  }
};

using RingTypes = ::testing::Types<EventRing, ExplainRing, SlowRing>;
TYPED_TEST_SUITE(BoundedRingContract, RingTypes, RingNames);

TYPED_TEST(BoundedRingContract, RejectsZeroCapacity) {
  EXPECT_THROW(TypeParam(0), support::PreconditionError);
}

TYPED_TEST(BoundedRingContract, StampsSeqAndSnapshotsOldestFirst) {
  using Record = typename TypeParam::value_type;
  TypeParam ring(4);
  for (const char* name : {"a", "b", "c"}) ring.push(named<Record>(name));
  const std::vector<Record> snapshot = ring.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].seq, i);
  }
  EXPECT_EQ(TestFixture::names(ring),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TYPED_TEST(BoundedRingContract, WrapOverwritesOldestAndCountsDrops) {
  using Record = typename TypeParam::value_type;
  TypeParam ring(3);
  for (int i = 0; i < 7; ++i) {
    ring.push(named<Record>(std::string("r").append(std::to_string(i))));
  }
  EXPECT_EQ(ring.recorded(), 7u);
  EXPECT_EQ(ring.dropped(), 4u);
  EXPECT_EQ(ring.capacity(), 3u);
  const std::vector<Record> snapshot = ring.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot.front().seq, 4u);
  EXPECT_EQ(snapshot.back().seq, 6u);
  EXPECT_EQ(TestFixture::names(ring),
            (std::vector<std::string>{"r4", "r5", "r6"}));
}

TYPED_TEST(BoundedRingContract, ClearEmptiesButKeepsCapacity) {
  using Record = typename TypeParam::value_type;
  TypeParam ring(2);
  for (const char* name : {"a", "b", "c"}) ring.push(named<Record>(name));
  ring.clear();
  EXPECT_TRUE(ring.snapshot().empty());
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.capacity(), 2u);
  Record out;
  EXPECT_FALSE(TestFixture::newest(ring, "c", out));
  ring.push(named<Record>("d"));
  ASSERT_EQ(ring.snapshot().size(), 1u);
  EXPECT_EQ(ring.snapshot()[0].seq, 0u);
}

TYPED_TEST(BoundedRingContract, FindNewestReturnsNewestSurvivingMatch) {
  using Record = typename TypeParam::value_type;
  TypeParam ring(3);
  Record first = named<Record>("gemm");
  timeOf(first) = 1;
  Record second = named<Record>("gemm");
  timeOf(second) = 2;
  ring.push(first);
  ring.push(named<Record>("atax"));
  ring.push(second);
  Record out;
  ASSERT_TRUE(TestFixture::newest(ring, "gemm", out));
  EXPECT_EQ(timeOf(out), 2);
  EXPECT_EQ(out.seq, 2u);
  ASSERT_TRUE(TestFixture::newest(ring, "atax", out));
  EXPECT_EQ(out.seq, 1u);
  EXPECT_FALSE(TestFixture::newest(ring, "mvt", out));
  // Overwritten records are gone from the lookup.
  ring.push(named<Record>("mvt"));
  ring.push(named<Record>("mvt"));
  EXPECT_FALSE(TestFixture::newest(ring, "atax", out));
}

TYPED_TEST(BoundedRingContract, PushManyMatchesRepeatedPush) {
  // Batches below, at and above capacity, into rings that already wrapped;
  // records a later record of the same call overwrites are counted but
  // never copied.
  using Record = typename TypeParam::value_type;
  const char* names[] = {"gemm", "atax", "mvt"};
  for (const std::size_t capacity : {1u, 3u, 8u}) {
    TypeParam many(capacity);
    TypeParam single(capacity);
    std::int64_t tick = 0;
    for (const std::size_t count : {0u, 1u, 2u, 3u, 5u, 8u, 9u, 17u, 4u}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " count " +
                   std::to_string(count));
      std::vector<Record> records;
      for (std::size_t i = 0; i < count; ++i) {
        records.push_back(named<Record>(names[i % 3]));
        timeOf(records.back()) = ++tick;
      }
      many.pushMany(records);
      for (const Record& one : records) single.push(one);
      EXPECT_EQ(many.recorded(), single.recorded());
      EXPECT_EQ(many.dropped(), single.dropped());
      std::vector<Record> a = many.snapshot();
      std::vector<Record> b = single.snapshot();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(nameOf(a[i]), nameOf(b[i])) << i;
        EXPECT_EQ(a[i].seq, b[i].seq) << i;
        EXPECT_EQ(timeOf(a[i]), timeOf(b[i])) << i;
      }
      for (const char* name : names) {
        Record fromMany;
        Record fromSingle;
        const bool found = TestFixture::newest(many, name, fromMany);
        ASSERT_EQ(found, TestFixture::newest(single, name, fromSingle));
        if (found) {
          EXPECT_EQ(fromMany.seq, fromSingle.seq) << name;
        }
      }
    }
  }
}

TYPED_TEST(BoundedRingContract, StampFillsOnlyUnsetTimestamps) {
  using Record = typename TypeParam::value_type;
  TypeParam ring(4);
  std::vector<Record> records{named<Record>("a"), named<Record>("b"),
                              named<Record>("c")};
  timeOf(records[1]) = 777;
  ring.pushMany(records, 1234);
  std::vector<Record> snapshot = ring.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(timeOf(snapshot[0]), 1234);
  EXPECT_EQ(timeOf(snapshot[1]), 777);  // caller's timestamp kept
  EXPECT_EQ(timeOf(snapshot[2]), 1234);
  // A lone push() stamps nothing.
  ring.push(named<Record>("d"));
  snapshot = ring.snapshot();
  EXPECT_EQ(timeOf(snapshot.back()), 0);
}

TEST(SlowRequestRecord, SetRegionZeroFillsTailAfterLongerName) {
  SlowRequestRecord record;
  record.setRegion(std::string(100, 'x'));
  record.setRegion("gemm_k1");
  EXPECT_EQ(record.regionView(), "gemm_k1");
  for (std::size_t i = record.regionView().size(); i < record.region.size();
       ++i) {
    EXPECT_EQ(record.region[i], '\0') << "byte " << i;
  }
}

}  // namespace
}  // namespace osel::obs
