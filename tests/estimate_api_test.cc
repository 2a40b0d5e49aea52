// Tests for fgr::Estimate (fgr/estimate.h), the unified estimation entry
// point: route selection (in-memory, in-core .fgrbin, streamed .fgrbin
// under a budget), bit-identity across routes in serial runs, exact
// equivalence of the legacy wrappers, and the error contract for
// malformed DatasetRefs.

#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "fgr/fgr.h"

namespace fgr {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

struct Fixture {
  LabeledGraph data;
  Labeling seeds;
  std::string path;
};

Fixture MakeFixture(const std::string& name, std::uint64_t seed = 91,
                    std::int64_t nodes = 400) {
  Rng rng(seed);
  auto planted =
      GeneratePlantedGraph(MakeSkewConfig(nodes, 8.0, 3, 3.0), rng);
  FGR_CHECK(planted.ok());
  Fixture fixture;
  fixture.data.name = name;
  fixture.data.graph = std::move(planted.value().graph);
  fixture.seeds = SampleStratifiedSeeds(planted.value().labels, 0.05, rng);
  fixture.data.labels = fixture.seeds;
  fixture.path = TempPath(name + ".fgrbin");
  FGR_CHECK(WriteFgrBin(fixture.data, fixture.path).ok());
  return fixture;
}

EstimateOptions TestOptions() {
  EstimateOptions options;
  options.dce.restarts = 3;
  options.dce.max_path_length = 4;
  return options;
}

TEST(EstimateApiTest, InMemoryRouteMatchesTheExplicitPipeline) {
  Fixture fixture = MakeFixture("api_inmemory");
  const EstimateOptions options = TestOptions();
  // The router against the pipeline it should be routing to.
  const GraphStatistics stats = ComputeGraphStatistics(
      fixture.data.graph, fixture.seeds, options.dce.max_path_length,
      options.dce.path_type, options.dce.variant);
  const EstimationResult expected = EstimateDceFromStatistics(
      stats, fixture.seeds.num_classes(), options.dce);

  auto routed = Estimate(
      DatasetRef::InMemory(fixture.data.graph, fixture.seeds), options);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed.value().h.data(), expected.h.data());
  EXPECT_EQ(routed.value().energy, expected.energy);
}

TEST(EstimateApiTest, EstimateDceWrapperIsTheRouter) {
  Fixture fixture = MakeFixture("api_wrapper");
  const EstimateOptions options = TestOptions();
  const EstimationResult wrapped =
      EstimateDce(fixture.data.graph, fixture.seeds, options.dce);
  auto routed = Estimate(
      DatasetRef::InMemory(fixture.data.graph, fixture.seeds), options);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value().h.data(), wrapped.h.data());
}

TEST(EstimateApiTest, PathRouteSeedsFromEmbeddedLabels) {
  SetNumThreads(1);
  Fixture fixture = MakeFixture("api_path");
  auto in_memory = Estimate(
      DatasetRef::InMemory(fixture.data.graph, fixture.seeds), TestOptions());
  auto from_path = Estimate(DatasetRef::FgrBin(fixture.path), TestOptions());
  SetNumThreads(0);
  ASSERT_TRUE(in_memory.ok());
  ASSERT_TRUE(from_path.ok()) << from_path.status().ToString();
  // Serial in-core runs over the same graph + seeds are bit-identical.
  EXPECT_EQ(from_path.value().h.data(), in_memory.value().h.data());
}

TEST(EstimateApiTest, BudgetRouteStreamsBitIdenticallyWhenSerial) {
  SetNumThreads(1);
  Fixture fixture = MakeFixture("api_budget");
  auto in_core = Estimate(DatasetRef::FgrBin(fixture.path), TestOptions());
  EstimateOptions streamed_options = TestOptions();
  streamed_options.memory_budget_bytes = 8192;  // force multiple panels
  auto streamed =
      Estimate(DatasetRef::FgrBin(fixture.path), streamed_options);
  SetNumThreads(0);
  ASSERT_TRUE(in_core.ok());
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed.value().h.data(), in_core.value().h.data());
}

TEST(EstimateApiTest, StreamingWrapperRoundTripsExactly) {
  SetNumThreads(1);
  Fixture fixture = MakeFixture("api_streaming_wrapper");
  BlockRowReaderOptions reader;
  reader.memory_budget_bytes = 8192;
  auto wrapped = EstimateDceStreaming(fixture.path, fixture.seeds,
                                      TestOptions().dce, reader);
  EstimateOptions unified = TestOptions();
  unified.memory_budget_bytes = reader.memory_budget_bytes;
  unified.reader = reader;
  auto routed =
      Estimate(DatasetRef::FgrBin(fixture.path, &fixture.seeds), unified);
  SetNumThreads(0);
  ASSERT_TRUE(wrapped.ok()) << wrapped.status().ToString();
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed.value().h.data(), wrapped.value().h.data());
}

TEST(EstimateApiTest, RejectsMalformedDatasetRefs) {
  Fixture fixture = MakeFixture("api_errors");

  // Both routes set at once.
  DatasetRef both = DatasetRef::InMemory(fixture.data.graph, fixture.seeds);
  both.path = fixture.path;
  auto ambiguous = Estimate(both, TestOptions());
  ASSERT_FALSE(ambiguous.ok());
  EXPECT_EQ(ambiguous.status().code(), StatusCode::kInvalidArgument);

  // Neither route set.
  auto empty = Estimate(DatasetRef{}, TestOptions());
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  // An in-memory graph without seeds.
  DatasetRef seedless;
  seedless.graph = &fixture.data.graph;
  auto no_seeds = Estimate(seedless, TestOptions());
  ASSERT_FALSE(no_seeds.ok());
  EXPECT_EQ(no_seeds.status().code(), StatusCode::kInvalidArgument);

  // A memory budget makes no sense for an already-resident graph.
  EstimateOptions budgeted = TestOptions();
  budgeted.memory_budget_bytes = 1 << 20;
  auto resident = Estimate(
      DatasetRef::InMemory(fixture.data.graph, fixture.seeds), budgeted);
  ASSERT_FALSE(resident.ok());
  EXPECT_EQ(resident.status().code(), StatusCode::kInvalidArgument);

  // A missing file surfaces the I/O error.
  EXPECT_FALSE(
      Estimate(DatasetRef::FgrBin(TempPath("absent.fgrbin")), TestOptions())
          .ok());
}

TEST(EstimateApiTest, LabelFreeCachesNeedExplicitSeeds) {
  auto graph = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  ASSERT_TRUE(graph.ok());
  const std::string path = TempPath("api_no_labels.fgrbin");
  ASSERT_TRUE(WriteFgrBin(graph.value(), nullptr, nullptr, path).ok());
  const Labeling seeds = Labeling::FromVector({0, -1, 1, -1}, 2);

  // Every path route — Estimate and Label, in core and streamed — seeds
  // from the embedded labels the same way.
  for (const bool label : {false, true}) {
    for (const bool budgeted : {false, true}) {
      SCOPED_TRACE(std::string(label ? "Label" : "Estimate") +
                   (budgeted ? ", budgeted" : ", in core"));
      LabelOptions options;
      options.estimate = TestOptions();
      if (budgeted) options.estimate.memory_budget_bytes = 8192;
      const auto run = [&](const DatasetRef& ref) {
        return label ? Label(ref, options).status()
                     : Estimate(ref, options.estimate).status();
      };

      // Embedded-label seeding fails with a precise precondition...
      const Status unseeded = run(DatasetRef::FgrBin(path));
      ASSERT_FALSE(unseeded.ok());
      EXPECT_EQ(unseeded.code(), StatusCode::kFailedPrecondition);
      EXPECT_NE(unseeded.message().find("no label section"),
                std::string::npos);

      // ...while caller-supplied seeds work over the same cache.
      const Status seeded = run(DatasetRef::FgrBin(path, &seeds));
      EXPECT_TRUE(seeded.ok()) << seeded.ToString();
    }
  }
}

}  // namespace
}  // namespace fgr
