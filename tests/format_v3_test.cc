// Format-v3 (docs/formats.md) behavior tests: zero-copy loads that do no
// per-segment heap allocation, cross-version parity (a v1/v2/v3 file of the
// same network answers every query bitwise identically), converter round
// trips, the buffered mmap fallback, and the `deepst_cli inspect` report
// functions.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "roadnet/grid_city.h"
#include "roadnet/io.h"
#include "roadnet/road_network.h"
#include "roadnet/spatial_index.h"
#include "traj/io.h"
#include "traj/types.h"
#include "util/rng.h"

// Counting operator new (alloc_counter.h) lets the zero-copy test assert an
// O(1) allocation count for a v3 load.
#include "alloc_counter.h"

namespace deepst {
namespace {

constexpr double kCell = 250.0;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/deepst_v3_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::unique_ptr<roadnet::RoadNetwork> MakeCity(int rows) {
  roadnet::GridCityConfig cfg = roadnet::ChengduMiniConfig();
  cfg.rows = rows;
  cfg.cols = rows;
  return roadnet::BuildGridCity(cfg);
}

void ExpectSameTopology(const roadnet::RoadNetwork& a,
                        const roadnet::RoadNetwork& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_segments(), b.num_segments());
  for (roadnet::VertexId v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.vertex(v).pos.x, b.vertex(v).pos.x);
    EXPECT_EQ(a.vertex(v).pos.y, b.vertex(v).pos.y);
  }
  for (roadnet::SegmentId s = 0; s < a.num_segments(); ++s) {
    EXPECT_EQ(a.segment(s).from, b.segment(s).from);
    EXPECT_EQ(a.segment(s).to, b.segment(s).to);
    EXPECT_EQ(a.segment(s).speed_limit_mps, b.segment(s).speed_limit_mps);
    EXPECT_EQ(a.segment(s).road_class, b.segment(s).road_class);
    EXPECT_EQ(a.segment(s).reverse, b.segment(s).reverse);
    const auto pa = a.polyline(s);
    const auto pb = b.polyline(s);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].x, pb[i].x);
      EXPECT_EQ(pa[i].y, pb[i].y);
    }
  }
}

void ExpectSameQueries(const roadnet::SpatialIndexBase& a,
                       const roadnet::SpatialIndexBase& b,
                       const geo::BoundingBox& box) {
  util::Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const geo::Point p{rng.Uniform(box.min.x, box.max.x),
                       rng.Uniform(box.min.y, box.max.y)};
    const auto qa = a.NearestSegments(p, 4);
    const auto qb = b.NearestSegments(p, 4);
    ASSERT_EQ(qa.size(), qb.size()) << i;
    for (size_t j = 0; j < qa.size(); ++j) {
      EXPECT_EQ(qa[j].segment, qb[j].segment) << i;
      EXPECT_EQ(qa[j].projection.distance, qb[j].projection.distance) << i;
    }
  }
}

#if DEEPST_COUNT_ALLOCS
long CountLoadAllocs(const std::string& path) {
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  auto city = roadnet::LoadCity(path, kCell);
  g_count_allocs.store(false);
  EXPECT_TRUE(city.ok()) << city.status().ToString();
  EXPECT_TRUE(city.value().index->zero_copy());
  return g_alloc_count.load();
}

TEST(FormatV3Test, LoadDoesNoPerSegmentAllocation) {
  // Two city sizes an order of magnitude apart: the allocation count of a
  // zero-copy load must be small and must not grow with the network.
  const auto small = MakeCity(6);
  const auto big = MakeCity(20);
  ASSERT_GT(big->num_segments(), 4 * small->num_segments());
  const roadnet::SpatialIndex small_idx(*small, kCell);
  const roadnet::SpatialIndex big_idx(*big, kCell);
  const std::string small_path = TempPath("alloc_small.bin");
  const std::string big_path = TempPath("alloc_big.bin");
  ASSERT_TRUE(
      roadnet::SaveRoadNetworkV3(*small, small_path, &small_idx).ok());
  ASSERT_TRUE(roadnet::SaveRoadNetworkV3(*big, big_path, &big_idx).ok());

  const long small_allocs = CountLoadAllocs(small_path);
  const long big_allocs = CountLoadAllocs(big_path);
  EXPECT_LT(small_allocs, 512) << "v3 load allocates too much";
  EXPECT_LE(big_allocs, small_allocs + 64)
      << "v3 load allocation count scales with the network (" << small_allocs
      << " -> " << big_allocs << ")";
}
#endif  // DEEPST_COUNT_ALLOCS

TEST(FormatV3Test, CrossVersionFilesAnswerBitwiseIdentically) {
  const auto net = MakeCity(10);
  const std::string v2_path = TempPath("xver_v2.bin");
  ASSERT_TRUE(roadnet::SaveRoadNetwork(*net, v2_path).ok());

  // Hand-patch a v1 file out of the v2 bytes: version 1 at offset 4, no
  // CRC footer (v1 predates the checksum).
  std::string v1_bytes = ReadFileBytes(v2_path);
  ASSERT_GT(v1_bytes.size(), 12u);
  const uint32_t kOne = 1;
  std::memcpy(v1_bytes.data() + 4, &kOne, sizeof(kOne));
  v1_bytes.resize(v1_bytes.size() - 4);
  const std::string v1_path = TempPath("xver_v1.bin");
  WriteFileBytes(v1_path, v1_bytes);

  // Convert v2 -> v3 the way `deepst_cli convert` does: load, then write the
  // fixed layout with an embedded index.
  auto from_v2 = roadnet::LoadCity(v2_path, kCell);
  ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();
  const std::string v3_path = TempPath("xver_v3.bin");
  ASSERT_TRUE(roadnet::SaveRoadNetworkV3(*from_v2.value().net, v3_path,
                                         from_v2.value().index.get())
                  .ok());

  auto from_v1 = roadnet::LoadCity(v1_path, kCell);
  auto from_v3 = roadnet::LoadCity(v3_path, kCell);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  ASSERT_TRUE(from_v3.ok()) << from_v3.status().ToString();
  EXPECT_FALSE(from_v2.value().index->zero_copy());
  EXPECT_TRUE(from_v3.value().index->zero_copy());

  ExpectSameTopology(*net, *from_v1.value().net);
  ExpectSameTopology(*net, *from_v2.value().net);
  ExpectSameTopology(*net, *from_v3.value().net);

  const geo::BoundingBox box = roadnet::SpatialIndexPaddedBounds(*net);
  ExpectSameQueries(*from_v2.value().index, *from_v1.value().index, box);
  ExpectSameQueries(*from_v2.value().index, *from_v3.value().index, box);
}

TEST(FormatV3Test, EmbeddedIndexWithOtherCellSizeIsRebuilt) {
  const auto net = MakeCity(8);
  const roadnet::SpatialIndex idx(*net, kCell);
  const std::string path = TempPath("cellsize.bin");
  ASSERT_TRUE(roadnet::SaveRoadNetworkV3(*net, path, &idx).ok());
  // Embedded CSR is for 250 m cells; asking for 100 m must rebuild instead
  // of adopting, and still serve correct results.
  auto city = roadnet::LoadCity(path, 100.0);
  ASSERT_TRUE(city.ok()) << city.status().ToString();
  EXPECT_FALSE(city.value().index->zero_copy());
  const roadnet::SpatialIndex fresh(*net, 100.0);
  ExpectSameQueries(fresh, *city.value().index,
                    roadnet::SpatialIndexPaddedBounds(*net));
}

TEST(FormatV3Test, NoMmapEnvFallsBackToBufferedLoad) {
  const auto net = MakeCity(8);
  const roadnet::SpatialIndex idx(*net, kCell);
  const std::string path = TempPath("nommap.bin");
  ASSERT_TRUE(roadnet::SaveRoadNetworkV3(*net, path, &idx).ok());
  ::setenv("DEEPST_NO_MMAP", "1", 1);
  auto buffered = roadnet::LoadCity(path, kCell);
  ::unsetenv("DEEPST_NO_MMAP");
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  // Still zero-copy over the buffered bytes, just not a mapping.
  EXPECT_TRUE(buffered.value().index->zero_copy());
  ExpectSameTopology(*net, *buffered.value().net);
  ExpectSameQueries(idx, *buffered.value().index,
                    roadnet::SpatialIndexPaddedBounds(*net));
}

// Handcrafted multi-trip dataset: routes follow real adjacency (first
// successor each hop) so ValidateDataset-style invariants hold, with
// irrational-ish doubles to make bitwise round-trip checks meaningful.
std::vector<traj::TripRecord> MakeDataset(const roadnet::RoadNetwork& net) {
  std::vector<traj::TripRecord> records;
  for (int t = 0; t < 8; ++t) {
    traj::TripRecord rec;
    rec.trip.day = t % 3;
    rec.trip.start_time_s = 3600.0 * t + 42.51 + t / 7.0;
    rec.trip.route.push_back(t % net.num_segments());
    for (int hop = 0; hop < 5; ++hop) {
      const auto outs = net.OutSegments(rec.trip.route.back());
      if (outs.empty()) break;
      rec.trip.route.push_back(outs[hop % outs.size()]);
    }
    rec.trip.destination = net.SegmentEnd(rec.trip.route.back());
    double clock = rec.trip.start_time_s;
    for (roadnet::SegmentId s : rec.trip.route) {
      traj::GpsPoint p;
      p.pos = net.SegmentStart(s);
      p.time_s = clock;
      p.speed_mps = 7.3 + t / 3.0;
      rec.gps.push_back(p);
      clock += 15.0 + t / 11.0;
    }
    records.push_back(std::move(rec));
  }
  return records;
}

void ExpectSameRecords(const std::vector<traj::TripRecord>& a,
                       const std::vector<traj::TripRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trip.route, b[i].trip.route);
    EXPECT_EQ(a[i].trip.day, b[i].trip.day);
    EXPECT_EQ(a[i].trip.start_time_s, b[i].trip.start_time_s);
    EXPECT_EQ(a[i].trip.destination.x, b[i].trip.destination.x);
    EXPECT_EQ(a[i].trip.destination.y, b[i].trip.destination.y);
    ASSERT_EQ(a[i].gps.size(), b[i].gps.size());
    for (size_t j = 0; j < a[i].gps.size(); ++j) {
      EXPECT_EQ(a[i].gps[j].pos.x, b[i].gps[j].pos.x);
      EXPECT_EQ(a[i].gps[j].pos.y, b[i].gps[j].pos.y);
      EXPECT_EQ(a[i].gps[j].time_s, b[i].gps[j].time_s);
      EXPECT_EQ(a[i].gps[j].speed_mps, b[i].gps[j].speed_mps);
    }
  }
}

TEST(FormatV3Test, TrajDatasetConvertsAcrossVersionsLosslessly) {
  const auto net = MakeCity(8);
  const auto records = MakeDataset(*net);
  ASSERT_FALSE(records.empty());
  const std::string v2_path = TempPath("traj_v2.bin");
  const std::string v3_path = TempPath("traj_v3.bin");
  ASSERT_TRUE(traj::SaveDataset(records, v2_path).ok());

  auto v2_loaded = traj::LoadDataset(v2_path);
  ASSERT_TRUE(v2_loaded.ok()) << v2_loaded.status().ToString();
  ASSERT_TRUE(traj::SaveDatasetV3(v2_loaded.value(), v3_path).ok());
  auto v3_loaded = traj::LoadDataset(v3_path);
  ASSERT_TRUE(v3_loaded.ok()) << v3_loaded.status().ToString();

  ExpectSameRecords(records, v2_loaded.value());
  ExpectSameRecords(records, v3_loaded.value());
}

TEST(FormatV3Test, DescribeReportsVersionCountsAndCrc) {
  const auto net = MakeCity(6);
  const roadnet::SpatialIndex idx(*net, kCell);
  const std::string v2_path = TempPath("desc_v2.bin");
  const std::string v3_path = TempPath("desc_v3.bin");
  ASSERT_TRUE(roadnet::SaveRoadNetwork(*net, v2_path).ok());
  ASSERT_TRUE(roadnet::SaveRoadNetworkV3(*net, v3_path, &idx).ok());

  auto v2_desc = roadnet::DescribeRoadNetworkFile(v2_path);
  ASSERT_TRUE(v2_desc.ok()) << v2_desc.status().ToString();
  EXPECT_NE(v2_desc.value().find("v2"), std::string::npos);
  EXPECT_NE(v2_desc.value().find("crc: ok"), std::string::npos);

  auto v3_desc = roadnet::DescribeRoadNetworkFile(v3_path);
  ASSERT_TRUE(v3_desc.ok()) << v3_desc.status().ToString();
  EXPECT_NE(v3_desc.value().find("v3"), std::string::npos);
  EXPECT_NE(v3_desc.value().find("crc: ok"), std::string::npos);
  EXPECT_NE(v3_desc.value().find(std::to_string(net->num_segments())),
            std::string::npos);

  const auto records = MakeDataset(*net);
  const std::string traj_path = TempPath("desc_traj.bin");
  ASSERT_TRUE(traj::SaveDatasetV3(records, traj_path).ok());
  auto traj_desc = traj::DescribeDatasetFile(traj_path);
  ASSERT_TRUE(traj_desc.ok()) << traj_desc.status().ToString();
  EXPECT_NE(traj_desc.value().find("v3"), std::string::npos);
  EXPECT_NE(traj_desc.value().find(std::to_string(records.size())),
            std::string::npos);
}

TEST(FormatV3Test, DescribeProbesRejectForeignMagicsWithInvalidArgument) {
  const auto net = MakeCity(6);
  const auto records = MakeDataset(*net);
  const std::string net_path = TempPath("probe_net.bin");
  const std::string traj_path = TempPath("probe_traj.bin");
  ASSERT_TRUE(roadnet::SaveRoadNetworkV3(*net, net_path, nullptr).ok());
  ASSERT_TRUE(traj::SaveDatasetV3(records, traj_path).ok());

  // Each Describe* must bow out with InvalidArgument on the other kind's
  // magic, so the CLI probe chain can try the next file kind.
  auto wrong1 = roadnet::DescribeRoadNetworkFile(traj_path);
  ASSERT_FALSE(wrong1.ok());
  EXPECT_EQ(wrong1.status().code(), util::Status::Code::kInvalidArgument);
  auto wrong2 = traj::DescribeDatasetFile(net_path);
  ASSERT_FALSE(wrong2.ok());
  EXPECT_EQ(wrong2.status().code(), util::Status::Code::kInvalidArgument);
}

TEST(FormatV3Test, ChengduFullScalesAndStaysConnectedEnoughToSave) {
  // A shrunken chengdu-full: rings/radials/rivers present, round-trips
  // through v3 exactly. (The >= 100k preset runs in bench_scale, not here.)
  roadnet::ChengduFullConfig cfg = roadnet::ChengduFullCityConfig();
  cfg.base.rows = 40;
  cfg.base.cols = 40;
  const auto net = roadnet::BuildChengduFull(cfg);
  ASSERT_GT(net->num_segments(), 4000);
  // All three road classes appear.
  bool has_local = false, has_arterial = false, has_highway = false;
  for (roadnet::SegmentId s = 0; s < net->num_segments(); ++s) {
    switch (net->segment(s).road_class) {
      case roadnet::RoadClass::kLocal: has_local = true; break;
      case roadnet::RoadClass::kArterial: has_arterial = true; break;
      case roadnet::RoadClass::kHighway: has_highway = true; break;
    }
  }
  EXPECT_TRUE(has_local);
  EXPECT_TRUE(has_arterial);
  EXPECT_TRUE(has_highway);

  const roadnet::SpatialIndex idx(*net, kCell);
  const std::string path = TempPath("full_city.bin");
  ASSERT_TRUE(roadnet::SaveRoadNetworkV3(*net, path, &idx).ok());
  auto city = roadnet::LoadCity(path, kCell);
  ASSERT_TRUE(city.ok()) << city.status().ToString();
  ExpectSameTopology(*net, *city.value().net);
}

}  // namespace
}  // namespace deepst
