// SpatialIndex edge cases and build/adopt parity: empty networks, queries
// far outside the grid, exact-tie handling, and the guarantee that an index
// built from a network and one adopted zero-copy from a format-v3 file answer
// every query bitwise identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "roadnet/grid_city.h"
#include "roadnet/io.h"
#include "roadnet/road_network.h"
#include "roadnet/spatial_index.h"
#include "util/rng.h"

namespace deepst {
namespace {

// Two parallel horizontal bidirectional streets 100 m apart.
roadnet::RoadNetwork MakeParallelStreets() {
  roadnet::RoadNetwork net;
  net.AddVertex({0.0, 0.0});
  net.AddVertex({200.0, 0.0});
  net.AddVertex({0.0, 100.0});
  net.AddVertex({200.0, 100.0});
  net.AddSegment(0, 1, 13.9);
  net.AddSegment(2, 3, 13.9);
  net.Finalize();
  return net;
}

TEST(SpatialIndexEdgeTest, EmptyNetworkYieldsNoCandidates) {
  roadnet::RoadNetwork net;
  net.Finalize();
  const roadnet::SpatialIndex index(net);
  EXPECT_EQ(index.Nearest({0.0, 0.0}).segment, roadnet::kInvalidSegment);
  EXPECT_TRUE(index.SegmentsNear({3.0, 4.0}, 1000.0).empty());
  EXPECT_TRUE(index.NearestSegments({-50.0, 7.0}, 5).empty());
}

TEST(SpatialIndexEdgeTest, FarOutsideQueryStillFindsTrueNearest) {
  const roadnet::RoadNetwork net = MakeParallelStreets();
  const roadnet::SpatialIndex index(net, /*cell_size_m=*/50.0);
  // ~1e7 m outside a ~200 m grid: clamping routes the query to a border
  // cell and the ring expansion must still terminate with the true nearest.
  const geo::Point far{1e7, -5e6};
  const auto got = index.Nearest(far);
  ASSERT_NE(got.segment, roadnet::kInvalidSegment);
  double best = 1e30;
  roadnet::SegmentId best_seg = roadnet::kInvalidSegment;
  for (roadnet::SegmentId s = 0; s < net.num_segments(); ++s) {
    const double d = net.ProjectToSegment(far, s).distance;
    if (d < best) {
      best = d;
      best_seg = s;
    }
  }
  EXPECT_EQ(got.segment, best_seg);
  EXPECT_EQ(got.projection.distance, best);
}

TEST(SpatialIndexEdgeTest, ExactTiesAreReturnedDeterministically) {
  const roadnet::RoadNetwork net = MakeParallelStreets();
  const roadnet::SpatialIndex index(net, /*cell_size_m=*/50.0);
  // Equidistant from both streets: a 2-NN query must return both, with
  // exactly equal distances, in an order that is stable across repeated
  // queries.
  const geo::Point mid{100.0, 50.0};
  const auto a = index.NearestSegments(mid, 2);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].projection.distance, 50.0);
  EXPECT_EQ(a[1].projection.distance, 50.0);
  EXPECT_NE(a[0].segment, a[1].segment);

  const auto again = index.NearestSegments(mid, 2);
  ASSERT_EQ(again.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a[i].segment, again[i].segment);
  }
}

TEST(SpatialIndexEdgeTest, RingExpansionPastEmptyCellsFindsFarSegment) {
  // One short segment, one far segment: the k=2 query must keep expanding
  // rings past many empty cells to reach the second one.
  roadnet::RoadNetwork net;
  net.AddVertex({0.0, 0.0});
  net.AddVertex({50.0, 0.0});
  net.AddVertex({5000.0, 0.0});
  net.AddVertex({5050.0, 0.0});
  net.AddSegment(0, 1, 13.9);
  net.AddSegment(2, 3, 13.9);
  net.Finalize();
  const roadnet::SpatialIndex index(net, /*cell_size_m=*/50.0);
  const auto got = index.NearestSegments({10.0, 10.0}, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].segment, 0);
  EXPECT_EQ(got[1].segment, 1);
}

// Built vs zero-copy-adopted: both serve identical per-cell lists, so query
// results must match bitwise (ids and projection distances), including tie
// ordering.
TEST(SpatialIndexParityTest, AllLayoutsAnswerBitwiseIdentically) {
  const auto net = roadnet::BuildGridCity(roadnet::ChengduMiniConfig());
  const double kCell = 250.0;
  const roadnet::SpatialIndex csr(*net, kCell);

  const std::string path = testing::TempDir() + "/deepst_sidx_parity.bin";
  ASSERT_TRUE(roadnet::SaveRoadNetworkV3(*net, path, &csr).ok());
  auto city = roadnet::LoadCity(path, kCell);
  ASSERT_TRUE(city.ok()) << city.status().ToString();
  ASSERT_TRUE(city.value().index->zero_copy());

  const geo::BoundingBox box = roadnet::SpatialIndexPaddedBounds(*net);
  util::Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    // Mostly inside the city, some far outside.
    const double margin = (i % 10 == 0) ? 5e4 : 0.0;
    const geo::Point p{rng.Uniform(box.min.x - margin, box.max.x + margin),
                       rng.Uniform(box.min.y - margin, box.max.y + margin)};
    const auto a = csr.NearestSegments(p, 4);
    const auto c = city.value().index->NearestSegments(p, 4);
    ASSERT_EQ(a.size(), c.size()) << i;
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].segment, c[j].segment) << i;
      EXPECT_EQ(a[j].projection.distance, c[j].projection.distance) << i;
    }
    const auto ra = csr.SegmentsNear(p, 400.0);
    const auto rc = city.value().index->SegmentsNear(p, 400.0);
    ASSERT_EQ(ra.size(), rc.size()) << i;
    for (size_t j = 0; j < ra.size(); ++j) {
      EXPECT_EQ(ra[j].segment, rc[j].segment) << i;
    }
  }
}

}  // namespace
}  // namespace deepst
