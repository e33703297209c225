#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "roadnet/grid_city.h"
#include "roadnet/io.h"
#include "traj/ascii_map.h"
#include "traj/generator.h"
#include "traj/io.h"

namespace deepst {
namespace {

TEST(RoadNetworkIoTest, RoundTripPreservesTopologyAndGeometry) {
  auto net = roadnet::BuildGridCity(roadnet::ChengduMiniConfig());
  const std::string path = testing::TempDir() + "/deepst_net.bin";
  ASSERT_TRUE(roadnet::SaveRoadNetworkV3(*net, path).ok());
  auto loaded = roadnet::LoadRoadNetwork(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& net2 = *loaded.value();
  ASSERT_EQ(net2.num_vertices(), net->num_vertices());
  ASSERT_EQ(net2.num_segments(), net->num_segments());
  EXPECT_EQ(net2.MaxOutDegree(), net->MaxOutDegree());
  for (roadnet::SegmentId s = 0; s < net->num_segments(); s += 13) {
    EXPECT_EQ(net2.segment(s).from, net->segment(s).from);
    EXPECT_EQ(net2.segment(s).to, net->segment(s).to);
    EXPECT_EQ(net2.segment(s).reverse, net->segment(s).reverse);
    EXPECT_EQ(net2.segment(s).road_class, net->segment(s).road_class);
    EXPECT_DOUBLE_EQ(net2.segment(s).length_m, net->segment(s).length_m);
    EXPECT_EQ(net2.OutSegments(s), net->OutSegments(s));
  }
  std::remove(path.c_str());
}

TEST(RoadNetworkIoTest, RejectsGarbage) {
  const std::string path = testing::TempDir() + "/deepst_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a road network";
  }
  auto loaded = roadnet::LoadRoadNetwork(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::Status::Code::kIoError);
  std::remove(path.c_str());
  EXPECT_FALSE(roadnet::LoadRoadNetwork("/nonexistent/x.bin").ok());
}

class DatasetIoTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    roadnet::GridCityConfig city;
    city.rows = 6;
    city.cols = 6;
    city.seed = 3;
    net_ = roadnet::BuildGridCity(city).release();
    field_ = new traffic::CongestionField(*net_, {});
    traj::GeneratorConfig cfg;
    cfg.num_days = 2;
    cfg.trips_per_day = 20;
    cfg.seed = 5;
    traj::TripGenerator gen(*net_, *field_, cfg);
    records_ = new std::vector<traj::TripRecord>(gen.GenerateDataset());
  }

  static roadnet::RoadNetwork* net_;
  static traffic::CongestionField* field_;
  static std::vector<traj::TripRecord>* records_;
};

roadnet::RoadNetwork* DatasetIoTest::net_ = nullptr;
traffic::CongestionField* DatasetIoTest::field_ = nullptr;
std::vector<traj::TripRecord>* DatasetIoTest::records_ = nullptr;

TEST_F(DatasetIoTest, BinaryRoundTrip) {
  const std::string path = testing::TempDir() + "/deepst_dataset.bin";
  ASSERT_TRUE(traj::SaveDatasetV3(*records_, path).ok());
  auto loaded = traj::LoadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& back = loaded.value();
  ASSERT_EQ(back.size(), records_->size());
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].trip.route, (*records_)[i].trip.route);
    EXPECT_EQ(back[i].trip.day, (*records_)[i].trip.day);
    EXPECT_DOUBLE_EQ(back[i].trip.start_time_s,
                     (*records_)[i].trip.start_time_s);
    ASSERT_EQ(back[i].gps.size(), (*records_)[i].gps.size());
    if (!back[i].gps.empty()) {
      EXPECT_DOUBLE_EQ(back[i].gps.back().time_s,
                       (*records_)[i].gps.back().time_s);
    }
  }
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, CsvExportsHaveHeaderAndRows) {
  const std::string gps_path = testing::TempDir() + "/deepst_gps.csv";
  const std::string trips_path = testing::TempDir() + "/deepst_trips.csv";
  ASSERT_TRUE(traj::ExportGpsCsv(*records_, gps_path).ok());
  ASSERT_TRUE(traj::ExportTripsCsv(*records_, trips_path).ok());
  std::ifstream trips(trips_path);
  std::string header;
  std::getline(trips, header);
  EXPECT_NE(header.find("trip_id"), std::string::npos);
  int rows = 0;
  std::string line;
  while (std::getline(trips, line)) ++rows;
  EXPECT_EQ(rows, static_cast<int>(records_->size()));
  std::remove(gps_path.c_str());
  std::remove(trips_path.c_str());
}

TEST_F(DatasetIoTest, AsciiMapRendersNetworkAndRoute) {
  traj::AsciiMap map(*net_, 12, 24);
  map.DrawNetwork();
  const std::string plain = map.Render();
  EXPECT_EQ(plain.size(), 12u * 25u);  // rows * (cols + newline)
  EXPECT_NE(plain.find('.'), std::string::npos);
  // Overlay a route; '#' must appear and outrank strokes.
  const auto& route = records_->front().trip.route;
  map.DrawRoute(route, '#');
  map.MarkPoint(records_->front().trip.destination, 'X');
  const std::string overlay = map.Render();
  EXPECT_NE(overlay.find('#'), std::string::npos);
  EXPECT_NE(overlay.find('X'), std::string::npos);
}

}  // namespace
}  // namespace deepst
