// compileAll analyzes regions on several threads; these tests pin that the
// database it returns, and the error it throws, are the ones a serial
// analyzeRegion loop over the same regions produces. They live in
// test_concurrency so the tsan preset runs the fan-out under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <array>
#include <exception>
#include <span>
#include <string>
#include <typeinfo>
#include <vector>

#include "compiler/compiler.h"
#include "polybench/polybench.h"
#include "support/check.h"

namespace osel::compiler {
namespace {

std::vector<ir::TargetRegion> suiteRegions() {
  std::vector<ir::TargetRegion> regions;
  for (const polybench::Benchmark& benchmark : polybench::suite())
    for (const ir::TargetRegion& kernel : benchmark.kernels())
      regions.push_back(kernel);
  return regions;
}

const std::array<mca::MachineModel, 2>& hosts() {
  static const std::array<mca::MachineModel, 2> models{
      mca::MachineModel::power9(), mca::MachineModel::power8()};
  return models;
}

/// The reference: one analyzeRegion after another, inserted in order.
std::string serialPad(std::span<const ir::TargetRegion> regions) {
  pad::AttributeDatabase db;
  for (const ir::TargetRegion& region : regions)
    db.insert(analyzeRegion(region, hosts()));
  return db.serialize();
}

TEST(CompileAll, MatchesASerialLoopOverTheWholeSuite) {
  const std::vector<ir::TargetRegion> regions = suiteRegions();
  ASSERT_EQ(regions.size(), 24U);
  const std::string expected = serialPad(regions);
  // Repeated so the workers claim regions in different interleavings.
  for (int round = 0; round < 4; ++round)
    EXPECT_EQ(compileAll(regions, hosts()).serialize(), expected)
        << "round " << round;
}

TEST(CompileAll, MatchesASerialLoopOverZeroOneAndTwoRegions) {
  const std::vector<ir::TargetRegion> regions = suiteRegions();
  for (const std::size_t count : {0U, 1U, 2U}) {
    const std::span<const ir::TargetRegion> prefix(regions.data(), count);
    const pad::AttributeDatabase db = compileAll(prefix, hosts());
    EXPECT_EQ(db.size(), count);
    EXPECT_EQ(db.serialize(), serialPad(prefix)) << count << " regions";
  }
}

TEST(CompileAll, ALaterRegionWithTheSameNameWinsAsInASerialLoop) {
  const std::vector<ir::TargetRegion> suite = suiteRegions();
  std::vector<ir::TargetRegion> regions{suite[0], suite[13], suite[16]};
  for (ir::TargetRegion& region : regions) region.name = "shared";
  const pad::AttributeDatabase db = compileAll(regions, hosts());
  EXPECT_EQ(db.size(), 1U);
  EXPECT_EQ(db.serialize(), serialPad(regions));
  EXPECT_EQ(db.serialize(), serialPad(std::span(regions).last(1)));
}

TEST(CompileAll, ThrowsTheErrorOfTheLowestIndexedFailingRegion) {
  std::vector<ir::TargetRegion> regions = suiteRegions();
  regions[3].arrays.clear();          // reads of undeclared arrays
  regions[17].parallelDims.clear();   // no parallel dims

  const auto failureOf = [](const auto& call) -> std::exception_ptr {
    try {
      call();
    } catch (...) {
      return std::current_exception();
    }
    return nullptr;
  };
  const auto describe = [](const std::exception_ptr& error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      return std::string(typeid(e).name()) + ": " + e.what();
    } catch (...) {
      return std::string("non-std exception");
    }
  };

  const std::exception_ptr third =
      failureOf([&] { (void)analyzeRegion(regions[3], hosts()); });
  const std::exception_ptr seventeenth =
      failureOf([&] { (void)analyzeRegion(regions[17], hosts()); });
  ASSERT_TRUE(third);
  ASSERT_TRUE(seventeenth);
  ASSERT_NE(describe(third), describe(seventeenth));

  for (int round = 0; round < 4; ++round) {
    const std::exception_ptr thrown =
        failureOf([&] { (void)compileAll(regions, hosts()); });
    ASSERT_TRUE(thrown) << "round " << round;
    EXPECT_EQ(describe(thrown), describe(third)) << "round " << round;
    EXPECT_THROW(std::rethrow_exception(thrown), support::PreconditionError);
  }
}

}  // namespace
}  // namespace osel::compiler
