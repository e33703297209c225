// Format-v3 (docs/formats.md) behavior tests: zero-copy loads that do no
// per-segment heap allocation, parity (a loaded file answers every query
// bitwise like the network it was saved from), bitwise round trips, the
// buffered mmap fallback, the refusal of other format versions, and the
// `deepst_cli inspect` report functions.

#include <gtest/gtest.h>

#include <cstddef>
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
#include "v3_image.h"

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

void ExpectSameQueries(const roadnet::SpatialIndex& a,
                       const roadnet::SpatialIndex& b,
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

TEST(FormatV3Test, FileAnswersBitwiseLikeTheNetworkItWasSavedFrom) {
  const auto net = MakeCity(10);
  const roadnet::SpatialIndex idx(*net, kCell);
  const std::string embedded_path = TempPath("parity_embedded.bin");
  const std::string built_path = TempPath("parity_built.bin");
  ASSERT_TRUE(roadnet::SaveRoadNetworkV3(*net, embedded_path, &idx).ok());
  ASSERT_TRUE(roadnet::SaveRoadNetworkV3(*net, built_path).ok());

  // One file adopts its embedded index, the other builds one at load.
  auto embedded = roadnet::LoadCity(embedded_path, kCell);
  auto built = roadnet::LoadCity(built_path, kCell);
  ASSERT_TRUE(embedded.ok()) << embedded.status().ToString();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_TRUE(embedded.value().index->zero_copy());
  EXPECT_FALSE(built.value().index->zero_copy());

  ExpectSameTopology(*net, *embedded.value().net);
  ExpectSameTopology(*net, *built.value().net);
  const geo::BoundingBox box = roadnet::SpatialIndexPaddedBounds(*net);
  ExpectSameQueries(idx, *embedded.value().index, box);
  ExpectSameQueries(idx, *built.value().index, box);
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

TEST(FormatV3Test, TrajDatasetRoundTripsBitwise) {
  const auto net = MakeCity(8);
  const auto records = MakeDataset(*net);
  ASSERT_FALSE(records.empty());
  const std::string path = TempPath("traj_roundtrip.bin");
  const std::string again_path = TempPath("traj_roundtrip_again.bin");
  ASSERT_TRUE(traj::SaveDatasetV3(records, path).ok());
  auto loaded = traj::LoadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameRecords(records, loaded.value());
  // Saving what was loaded writes the same bytes.
  ASSERT_TRUE(traj::SaveDatasetV3(loaded.value(), again_path).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(again_path));
}

// A file the loader rejects is reported unhealthy, with the loader's error,
// even when its CRC is valid.
template <typename Describe>
void ExpectUnhealthy(Describe describe, const std::string& path,
                     const std::string& why) {
  bool healthy = true;
  const util::StatusOr<std::string> desc = describe(path, &healthy);
  ASSERT_TRUE(desc.ok()) << desc.status().ToString();
  EXPECT_FALSE(healthy) << desc.value();
  EXPECT_NE(desc.value().find(why), std::string::npos) << desc.value();
  EXPECT_EQ(desc.value().find("crc: ok"), std::string::npos) << desc.value();
}

TEST(FormatV3Test, DescribeReportsVersionCountsAndCrc) {
  const auto net = MakeCity(6);
  const roadnet::SpatialIndex idx(*net, kCell);
  const std::string net_path = TempPath("desc_net.bin");
  ASSERT_TRUE(roadnet::SaveRoadNetworkV3(*net, net_path, &idx).ok());

  bool healthy = false;
  auto net_desc = roadnet::DescribeRoadNetworkFile(net_path, &healthy);
  ASSERT_TRUE(net_desc.ok()) << net_desc.status().ToString();
  EXPECT_TRUE(healthy) << net_desc.value();
  EXPECT_NE(net_desc.value().find("v3"), std::string::npos);
  EXPECT_NE(net_desc.value().find("crc: ok"), std::string::npos);
  EXPECT_NE(net_desc.value().find(std::to_string(net->num_segments())),
            std::string::npos);

  // Segment 0's `to` out of range, the CRC re-sealed over it.
  v3::Image bad_net(net_path, v3::kRoadnetHeaderBytes);
  bad_net.Put(bad_net.Section(v3::kSecSegments) +
                  offsetof(roadnet::Segment, to),
              roadnet::VertexId{9999});
  const std::string bad_net_path = TempPath("desc_net_bad.bin");
  bad_net.ResealTo(bad_net_path);
  ExpectUnhealthy(roadnet::DescribeRoadNetworkFile, bad_net_path,
                  "endpoint out of range");

  const auto records = MakeDataset(*net);
  const std::string traj_path = TempPath("desc_traj.bin");
  ASSERT_TRUE(traj::SaveDatasetV3(records, traj_path).ok());
  auto traj_desc = traj::DescribeDatasetFile(traj_path, &healthy);
  ASSERT_TRUE(traj_desc.ok()) << traj_desc.status().ToString();
  EXPECT_TRUE(healthy) << traj_desc.value();
  EXPECT_NE(traj_desc.value().find("v3"), std::string::npos);
  EXPECT_NE(traj_desc.value().find(std::to_string(records.size())),
            std::string::npos);

  // Trip 0's route runs past the end of the route-id pool, re-sealed.
  v3::Image bad_traj(traj_path, v3::kTrajHeaderBytes);
  bad_traj.Put(bad_traj.Section(v3::kSecTrips) + v3::kTripRouteLenAt,
               bad_traj.Get<uint32_t>(v3::kNumRouteIdsAt) + 1);
  const std::string bad_traj_path = TempPath("desc_traj_bad.bin");
  bad_traj.ResealTo(bad_traj_path);
  ExpectUnhealthy(traj::DescribeDatasetFile, bad_traj_path,
                  "pool range out of bounds");
}

TEST(FormatV3Test, OtherVersionsFailNamingTheRemedy) {
  const auto net = MakeCity(6);
  const std::string net_path = TempPath("oldver_net.bin");
  const std::string traj_path = TempPath("oldver_traj.bin");
  ASSERT_TRUE(roadnet::SaveRoadNetworkV3(*net, net_path).ok());
  ASSERT_TRUE(traj::SaveDatasetV3(MakeDataset(*net), traj_path).ok());
  for (uint32_t version : {1u, 2u, 4u}) {
    SCOPED_TRACE(version);
    const std::string want =
        "unsupported version " + std::to_string(version);
    const auto expect_refused = [&](const util::Status& s) {
      EXPECT_FALSE(s.ok());
      EXPECT_NE(s.message().find(want), std::string::npos) << s.ToString();
      EXPECT_NE(s.message().find("deepst_cli generate"), std::string::npos)
          << s.ToString();
    };
    v3::Image old_net(net_path, v3::kRoadnetHeaderBytes);
    old_net.Put(v3::kVersionAt, version);
    const std::string old_net_path = TempPath("oldver_net_case.bin");
    old_net.ResealTo(old_net_path);
    expect_refused(roadnet::LoadCity(old_net_path).status());
    expect_refused(roadnet::LoadRoadNetwork(old_net_path).status());
    ExpectUnhealthy(roadnet::DescribeRoadNetworkFile, old_net_path, want);

    v3::Image old_traj(traj_path, v3::kTrajHeaderBytes);
    old_traj.Put(v3::kVersionAt, version);
    const std::string old_traj_path = TempPath("oldver_traj_case.bin");
    old_traj.ResealTo(old_traj_path);
    expect_refused(traj::LoadDataset(old_traj_path).status());
    ExpectUnhealthy(traj::DescribeDatasetFile, old_traj_path, want);
  }
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
