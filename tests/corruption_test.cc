// Hardened-ingestion corpus: every corrupted input (truncated, bit-flipped,
// out-of-range ids, implausible counts, non-finite values) must come back as
// a non-OK Status -- the process never dies on external bytes. Also covers
// the deterministic fault injector itself and the fault points wired into
// the roadnet/traj/traffic/checkpoint loaders.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "roadnet/io.h"
#include "roadnet/road_network.h"
#include "roadnet/spatial_index.h"
#include "traffic/snapshot.h"
#include "traj/io.h"
#include "util/fault_injector.h"
#include "v3_image.h"

namespace deepst {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/deepst_corrupt_" + name;
}

// A 2x2 grid network with bidirectional edges: enough structure for routes,
// reverse links and polylines without dragging in the world fixture.
roadnet::RoadNetwork MakeTinyNetwork() {
  roadnet::RoadNetwork net;
  const double kSpacing = 500.0;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      net.AddVertex(geo::Point{c * kSpacing, r * kSpacing});
    }
  }
  auto add_pair = [&net](roadnet::VertexId a, roadnet::VertexId b) {
    const roadnet::SegmentId ab = net.AddSegment(a, b, 13.9);
    const roadnet::SegmentId ba = net.AddSegment(b, a, 13.9);
    net.LinkReverse(ab, ba);
  };
  add_pair(0, 1);
  add_pair(0, 2);
  add_pair(1, 3);
  add_pair(2, 3);
  net.Finalize();
  return net;
}

std::vector<traj::TripRecord> MakeTinyDataset(
    const roadnet::RoadNetwork& net) {
  std::vector<traj::TripRecord> records;
  traj::TripRecord rec;
  rec.trip.start_time_s = 3600.0;
  rec.trip.day = 0;
  // Segment 0 is 0->1; a successor continues from vertex 1.
  rec.trip.route = {0};
  const auto& outs = net.OutSegments(0);
  EXPECT_FALSE(outs.empty());
  rec.trip.route.push_back(outs.front());
  rec.trip.destination = net.SegmentEnd(outs.front());
  traj::GpsPoint p;
  p.pos = net.SegmentStart(0);
  p.time_s = 3600.0;
  p.speed_mps = 9.0;
  rec.gps = {p, p};
  records.push_back(rec);
  return records;
}

class FaultInjectorTest : public testing::Test {
 protected:
  void TearDown() override { util::FaultInjector::Instance().Reset(); }
};

TEST_F(FaultInjectorTest, DisabledPathReturnsOkAndCountsNothing) {
  util::FaultInjector& fi = util::FaultInjector::Instance();
  EXPECT_FALSE(fi.enabled());
  EXPECT_TRUE(util::CheckFaultPoint("nonexistent.point").ok());
  EXPECT_EQ(fi.fires(), 0);
}

TEST_F(FaultInjectorTest, ArmedPointFiresThenDisarms) {
  util::FaultInjector& fi = util::FaultInjector::Instance();
  fi.Arm("p", util::FaultKind::kIoError, /*after=*/1, /*count=*/2);
  EXPECT_TRUE(util::CheckFaultPoint("p").ok());   // after=1: first passes
  EXPECT_FALSE(util::CheckFaultPoint("p").ok());  // fires
  EXPECT_FALSE(util::CheckFaultPoint("p").ok());  // fires
  EXPECT_TRUE(util::CheckFaultPoint("p").ok());   // count exhausted
  EXPECT_EQ(fi.fires(), 2);
  EXPECT_EQ(fi.hits("p"), 4);
}

TEST_F(FaultInjectorTest, AllocFailureMapsToResourceExhausted) {
  util::FaultInjector::Instance().Arm("p", util::FaultKind::kAllocFailure);
  util::Status s = util::CheckFaultPoint("p");
  EXPECT_EQ(s.code(), util::Status::Code::kResourceExhausted);
}

TEST_F(FaultInjectorTest, SpecGrammarRoundTrip) {
  util::FaultInjector& fi = util::FaultInjector::Instance();
  ASSERT_TRUE(fi.ArmFromSpec("a:io_error, b:alloc@1x2, c:partial_read").ok());
  EXPECT_FALSE(util::CheckFaultPoint("a").ok());
  EXPECT_TRUE(util::CheckFaultPoint("b").ok());
  EXPECT_FALSE(util::CheckFaultPoint("b").ok());
  EXPECT_FALSE(util::CheckFaultPoint("b").ok());
  EXPECT_TRUE(util::CheckFaultPoint("b").ok());
  EXPECT_FALSE(util::CheckFaultPoint("c").ok());
}

TEST_F(FaultInjectorTest, SpecGrammarRejectsMalformedEntries) {
  util::FaultInjector& fi = util::FaultInjector::Instance();
  EXPECT_FALSE(fi.ArmFromSpec("no-colon").ok());
  EXPECT_FALSE(fi.ArmFromSpec("p:not_a_kind").ok());
  EXPECT_FALSE(fi.ArmFromSpec("p:io_error@abc").ok());
  EXPECT_FALSE(fi.ArmFromSpec("p:io_errorxzz").ok());
}

TEST_F(FaultInjectorTest, ThrowingPointThrowsRuntimeError) {
  util::FaultInjector::Instance().Arm("p", util::FaultKind::kIoError);
  EXPECT_THROW(util::ThrowIfFaultPoint("p"), std::runtime_error);
  EXPECT_NO_THROW(util::ThrowIfFaultPoint("p"));  // count exhausted
}

class IngestionFaultPointTest : public FaultInjectorTest {};

TEST_F(IngestionFaultPointTest, LoaderFaultPointsReturnStatus) {
  const roadnet::RoadNetwork net = MakeTinyNetwork();
  const std::string net_path = TempPath("faultpoint_net.bin");
  ASSERT_TRUE(roadnet::SaveRoadNetworkV3(net, net_path).ok());
  const auto records = MakeTinyDataset(net);
  const std::string ds_path = TempPath("faultpoint_ds.bin");
  ASSERT_TRUE(traj::SaveDatasetV3(records, ds_path).ok());

  util::FaultInjector& fi = util::FaultInjector::Instance();
  ASSERT_TRUE(fi.ArmFromSpec("roadnet.load:io_error, traj.load:io_error, "
                             "traffic.load:io_error, roadnet.save:io_error, "
                             "traj.save:alloc")
                  .ok());
  EXPECT_FALSE(roadnet::LoadRoadNetwork(net_path).ok());
  EXPECT_FALSE(traj::LoadDataset(ds_path).ok());
  EXPECT_FALSE(traffic::LoadObservationsCsv("unused.csv").ok());
  EXPECT_FALSE(roadnet::SaveRoadNetworkV3(net, net_path).ok());
  EXPECT_FALSE(traj::SaveDatasetV3(records, ds_path).ok());
  fi.Reset();
  // Disarmed, the same calls succeed: the faults were injected, not real.
  EXPECT_TRUE(roadnet::LoadRoadNetwork(net_path).ok());
  EXPECT_TRUE(traj::LoadDataset(ds_path).ok());
}

TEST_F(IngestionFaultPointTest, CheckpointFaultPointsReturnStatus) {
  util::FaultInjector& fi = util::FaultInjector::Instance();
  fi.Arm("checkpoint.save", util::FaultKind::kIoError);
  core::TrainingCheckpoint ckpt;
  const std::string path = TempPath("faultpoint_ckpt.bin");
  EXPECT_FALSE(core::SaveTrainingCheckpoint(ckpt, path).ok());
  fi.Reset();
  ASSERT_TRUE(core::SaveTrainingCheckpoint(ckpt, path).ok());
  fi.Arm("checkpoint.load", util::FaultKind::kPartialRead);
  EXPECT_FALSE(core::LoadTrainingCheckpoint(path).ok());
  fi.Reset();
  EXPECT_TRUE(core::LoadTrainingCheckpoint(path).ok());
}

// -- Road-network and dataset corpus (docs/formats.md) ----------------------
// The whole file is validated against the mapping, so truncation, bit flips,
// malformed section tables and malformed fields must all fail before any
// struct view is handed out.

std::string SaveTinyNetworkV3(const std::string& name) {
  const roadnet::RoadNetwork net = MakeTinyNetwork();
  const roadnet::SpatialIndex index(net, /*cell_size_m=*/250.0);
  const std::string path = TempPath(name);
  EXPECT_TRUE(roadnet::SaveRoadNetworkV3(net, path, &index).ok());
  return path;
}

TEST(RoadnetCorpusTest, RoundTripSurvives) {
  const roadnet::RoadNetwork net = MakeTinyNetwork();
  auto loaded = roadnet::LoadRoadNetwork(SaveTinyNetworkV3("roundtrip.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->num_vertices(), net.num_vertices());
  EXPECT_EQ(loaded.value()->num_segments(), net.num_segments());
  EXPECT_EQ(loaded.value()->segment(0).reverse, net.segment(0).reverse);
}

// One malformed field: `patch` edits a valid image, the CRC is re-sealed
// over the edit, and the load must fail with `why` -- never abort.
struct Malformed {
  const char* why;
  std::function<void(v3::Image*)> patch;
};

// Byte offset of `field` in segment 0 of a tiny-network image.
size_t Segment0(const v3::Image& img, size_t field) {
  return img.Section(v3::kSecSegments) + field;
}

TEST(RoadnetCorpusTest, MalformedRecordsReturnStatusNotAbort) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const size_t kFrom = offsetof(roadnet::Segment, from);
  const size_t kTo = offsetof(roadnet::Segment, to);
  const size_t kReverse = offsetof(roadnet::Segment, reverse);
  const size_t kClass = offsetof(roadnet::Segment, road_class);
  const size_t kLength = offsetof(roadnet::Segment, length_m);
  const size_t kSpeed = offsetof(roadnet::Segment, speed_limit_mps);
  const size_t kPolyStart = offsetof(roadnet::Segment, poly_start);
  const size_t kPolyLen = offsetof(roadnet::Segment, poly_len);
  using v3::Image;
  // The tiny network: segment 0 is 0->1 and its twin 1; segment 2 is 0->2,
  // twin 3. Vertex 0's out-adjacency is {0, 2}.
  const std::vector<Malformed> cases = {
      {"section 1 size mismatch",  // vertex count beyond the file size
       [&](Image* m) { m->Put(v3::kNumVerticesAt, uint64_t{1} << 30); }},
      {"implausible element counts",
       [&](Image* m) { m->Put(v3::kNumSegmentsAt, uint64_t{1} << 31); }},
      {"non-finite vertex coordinate",
       [&](Image* m) { m->Put(m->Section(v3::kSecVertices), kNan); }},
      {"non-finite polyline point",
       [&](Image* m) { m->Put(m->Section(v3::kSecPoints) + 8, kInf); }},
      {"endpoint out of range",
       [&](Image* m) { m->Put(Segment0(*m, kTo), int32_t{9999}); }},
      {"endpoint out of range",  // negative
       [&](Image* m) { m->Put(Segment0(*m, kFrom), int32_t{-3}); }},
      {"speed limit not positive",
       [&](Image* m) { m->Put(Segment0(*m, kSpeed), 0.0); }},
      {"unknown road class",
       [&](Image* m) { m->Put(Segment0(*m, kClass), uint8_t{9}); }},
      {"reverse link out of range or asymmetric",
       [&](Image* m) { m->Put(Segment0(*m, kReverse), int32_t{44}); }},
      {"reverse link out of range or asymmetric",  // 0 -> 2, but 2 -> 3
       [&](Image* m) { m->Put(Segment0(*m, kReverse), int32_t{2}); }},
      {"non-positive length",  // zero-length polyline
       [&](Image* m) { m->Put(Segment0(*m, kLength), 0.0); }},
      {"polyline range out of bounds",  // one point
       [&](Image* m) { m->Put(Segment0(*m, kPolyLen), uint32_t{1}); }},
      {"polyline range out of bounds",  // longer than the file
       [&](Image* m) { m->Put(Segment0(*m, kPolyLen), uint32_t{1} << 28); }},
      {"polyline range out of bounds",  // runs past the point pool
       [&](Image* m) { m->Put(Segment0(*m, kPolyStart), uint64_t{1} << 40); }},
      {"adjacency offsets corrupt",
       [&](Image* m) { m->Put(m->Section(v3::kSecVoutOff), uint64_t{1}); }},
      {"adjacency ids corrupt",  // vertex 0's {0, 2} unsorted
       [&](Image* m) {
         m->Put(m->Section(v3::kSecVoutIds), int32_t{2});
         m->Put(m->Section(v3::kSecVoutIds) + 4, int32_t{0});
       }},
      {"adjacency ids corrupt",  // out of range
       [&](Image* m) { m->Put(m->Section(v3::kSecVoutIds), int32_t{99}); }},
      {"adjacency ids corrupt",  // segment 1 leaves vertex 1, not 0
       [&](Image* m) { m->Put(m->Section(v3::kSecVoutIds), int32_t{1}); }},
      {"spatial offsets corrupt",
       [&](Image* m) { m->Put(m->Section(v3::kSecCellOff), uint64_t{1}); }},
      {"spatial offsets corrupt",  // not monotone
       [&](Image* m) {
         m->Put(m->Section(v3::kSecCellOff) + 8, uint64_t{1} << 40);
       }},
      {"spatial ids corrupt",
       [&](Image* m) { m->Put(m->Section(v3::kSecCellIds), int32_t{99}); }},
      {"spatial ids corrupt",
       [&](Image* m) { m->Put(m->Section(v3::kSecCellIds), int32_t{-1}); }},
  };
  const std::string good = SaveTinyNetworkV3("malformed.bin");
  const std::string path = TempPath("malformed_case.bin");
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "case " << i << ": " << cases[i].why);
    v3::Image img(good, v3::kRoadnetHeaderBytes);
    cases[i].patch(&img);
    img.ResealTo(path);
    const util::Status net = roadnet::LoadRoadNetwork(path).status();
    EXPECT_FALSE(net.ok());
    EXPECT_NE(net.message().find(cases[i].why), std::string::npos)
        << net.ToString();
    EXPECT_FALSE(roadnet::LoadCity(path).ok());
  }
}

TEST(FormatV3CorpusTest, EveryTruncatedMappingFailsCleanly) {
  const std::string bytes = ReadFile(SaveTinyNetworkV3("v3_trunc.bin"));
  ASSERT_GT(bytes.size(), 64u);
  const std::string trunc_path = TempPath("v3_trunc_case.bin");
  for (size_t keep = 0; keep < bytes.size(); keep += 3) {
    WriteFile(trunc_path, bytes.substr(0, keep));
    EXPECT_FALSE(roadnet::LoadRoadNetwork(trunc_path).ok()) << keep;
  }
}

TEST(FormatV3CorpusTest, EveryBitFlipIsCaughtByCrcFooter) {
  const std::string bytes = ReadFile(SaveTinyNetworkV3("v3_flip.bin"));
  const std::string flip_path = TempPath("v3_flip_case.bin");
  // Step through header, section table, payloads and the footer itself --
  // including the stored CRC (last 8 bytes), which is outside the checksummed
  // range but must still invalidate the file.
  for (size_t i = 8; i < bytes.size(); i += 5) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x10);
    WriteFile(flip_path, mutated);
    EXPECT_FALSE(roadnet::LoadRoadNetwork(flip_path).ok()) << i;
  }
}

TEST(FormatV3CorpusTest, MisalignedSectionOffsetIsRejectedDespiteValidCrc) {
  v3::Image img(SaveTinyNetworkV3("v3_misalign.bin"), v3::kRoadnetHeaderBytes);
  // Entry 0 of the section table, right after the header, keeps its absolute
  // offset at entry bytes [8, 16). Knock it off 8-byte alignment; the CRC is
  // re-sealed, so only the alignment check can reject the file.
  const size_t entry0_offset = v3::kRoadnetHeaderBytes + 8;
  img.Put(entry0_offset, img.Get<uint64_t>(entry0_offset) + 4);
  const std::string bad_path = TempPath("v3_misalign_case.bin");
  img.ResealTo(bad_path);
  auto loaded = roadnet::LoadRoadNetwork(bad_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("misaligned"), std::string::npos)
      << loaded.status().ToString();
}

TEST(FormatV3CorpusTest, TrajV3TruncationAndBitFlipFailCleanly) {
  const roadnet::RoadNetwork net = MakeTinyNetwork();
  const std::string path = TempPath("v3_traj.bin");
  ASSERT_TRUE(traj::SaveDatasetV3(MakeTinyDataset(net), path).ok());
  const std::string bytes = ReadFile(path);
  const std::string case_path = TempPath("v3_traj_case.bin");
  for (size_t keep = 0; keep < bytes.size(); keep += 3) {
    WriteFile(case_path, bytes.substr(0, keep));
    EXPECT_FALSE(traj::LoadDataset(case_path).ok()) << "keep=" << keep;
  }
  for (size_t i = 8; i < bytes.size(); i += 5) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    WriteFile(case_path, mutated);
    EXPECT_FALSE(traj::LoadDataset(case_path).ok()) << "flip=" << i;
  }
}

TEST(FormatV3CorpusTest, MmapFaultFallsBackToBufferedLoad) {
  util::FaultInjector& fi = util::FaultInjector::Instance();
  const std::string path = SaveTinyNetworkV3("v3_fault.bin");

  // mmap.open failing means no bytes at all: the load must error out.
  fi.Arm("mmap.open", util::FaultKind::kIoError);
  EXPECT_FALSE(roadnet::LoadRoadNetwork(path).ok());
  fi.Reset();

  // mmap.map failing only loses the zero-copy mapping: the buffered fallback
  // must still produce an identical network.
  fi.Arm("mmap.map", util::FaultKind::kIoError, /*after=*/0, /*count=*/100);
  auto buffered = roadnet::LoadRoadNetwork(path);
  fi.Reset();
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  auto mapped = roadnet::LoadRoadNetwork(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ(buffered.value()->num_segments(), mapped.value()->num_segments());
  for (int s = 0; s < mapped.value()->num_segments(); ++s) {
    EXPECT_EQ(buffered.value()->segment(s).from, mapped.value()->segment(s).from);
    EXPECT_EQ(buffered.value()->segment(s).to, mapped.value()->segment(s).to);
  }
}

// -- Grid guard ----------------------------------------------------------------
// A grid's size comes from a file's vertex extent and a cell size. Every grid
// built from them passes geo::GridSpec::Validate first, so a valid file or a
// bad cell size cannot ask for billions of cells or wrap the int cell count.

TEST(GridGuardTest, CityBeyondTheCellCapIsInvalidArgument) {
  // Three vertices 16,384,100 m apart: a 250 m grid of 65,537 x 65,537
  // cells, whose int cell count would wrap to 131,073.
  roadnet::RoadNetwork net;
  net.AddVertex({0.0, 0.0});
  net.AddVertex({16384100.0, 0.0});
  net.AddVertex({16384100.0, 16384100.0});
  net.AddSegment(0, 1, 13.9);
  net.AddSegment(1, 2, 13.9);
  net.Finalize();
  const std::string path = TempPath("huge_city_v3.bin");
  ASSERT_TRUE(roadnet::SaveRoadNetworkV3(net, path).ok());
  ASSERT_TRUE(roadnet::LoadRoadNetwork(path).ok());  // the file is valid
  auto city = roadnet::LoadCity(path);
  ASSERT_FALSE(city.ok());
  EXPECT_EQ(city.status().code(), util::Status::Code::kInvalidArgument)
      << city.status().ToString();
}

TEST(GridGuardTest, NonPositiveOrNonFiniteCellSizeIsInvalidArgument) {
  const std::string path = SaveTinyNetworkV3("grid_cell_size.bin");
  ASSERT_TRUE(roadnet::LoadCity(path, 250.0).ok());
  for (double cell : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity()}) {
    auto city = roadnet::LoadCity(path, cell);
    ASSERT_FALSE(city.ok()) << cell;
    EXPECT_EQ(city.status().code(), util::Status::Code::kInvalidArgument)
        << cell << ": " << city.status().ToString();
  }
}

TEST(GridGuardTest, EmbeddedIndexWithTinyCellsIsRejected) {
  v3::Image img(SaveTinyNetworkV3("grid_embedded.bin"),
                v3::kRoadnetHeaderBytes);
  // At a 1e-3 m embedded cell the 502 m padded extent needs 2.5e11 cells.
  // The CRC is re-sealed, so only the grid guard can reject the file.
  img.Put(v3::kCellSizeAt, 1e-3);
  const std::string bad_path = TempPath("grid_embedded_case.bin");
  img.ResealTo(bad_path);
  auto city = roadnet::LoadCity(bad_path);
  ASSERT_FALSE(city.ok());
  EXPECT_EQ(city.status().code(), util::Status::Code::kInvalidArgument)
      << city.status().ToString();
  EXPECT_FALSE(roadnet::LoadRoadNetwork(bad_path).ok());
}

std::string SaveTinyDatasetV3(const std::string& name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(traj::SaveDatasetV3(MakeTinyDataset(MakeTinyNetwork()), path)
                  .ok());
  return path;
}

TEST(TrajCorpusTest, RoundTripSurvives) {
  const roadnet::RoadNetwork net = MakeTinyNetwork();
  const auto records = MakeTinyDataset(net);
  auto loaded = traj::LoadDataset(SaveTinyDatasetV3("ds_roundtrip.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), records.size());
  EXPECT_EQ(loaded.value()[0].trip.route, records[0].trip.route);
  EXPECT_EQ(loaded.value()[0].gps.size(), records[0].gps.size());
}

// Byte offset of `field` in trip 0's record.
size_t Trip0(const v3::Image& img, size_t field) {
  return img.Section(v3::kSecTrips) + field;
}

TEST(TrajCorpusTest, MalformedRecordsReturnStatusNotAbort) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const size_t kGpsTime = offsetof(traj::GpsPoint, time_s);
  using v3::Image;
  // The tiny dataset: one trip, a 2-segment route and 2 GPS points.
  const std::vector<Malformed> cases = {
      {"section 1 size mismatch",  // trip count beyond the file size
       [&](Image* m) { m->Put(v3::kNumTripsAt, uint64_t{1} << 30); }},
      {"implausible element counts",
       [&](Image* m) { m->Put(v3::kNumGpsPointsAt, uint64_t{1} << 40); }},
      {"bad header fields",  // non-finite start time
       [&](Image* m) { m->Put(Trip0(*m, v3::kTripStartTimeAt), kNan); }},
      {"bad header fields",  // non-finite destination
       [&](Image* m) { m->Put(Trip0(*m, v3::kTripDestXAt), kInf); }},
      {"bad header fields",  // negative day
       [&](Image* m) { m->Put(Trip0(*m, v3::kTripDayAt), int32_t{-4}); }},
      {"negative segment id",
       [&](Image* m) {
         m->Put(m->Section(v3::kSecRouteIds) + 4, int32_t{-9});
       }},
      {"non-finite gps point",
       [&](Image* m) {
         m->Put(m->Section(v3::kSecGpsPoints) + kGpsTime, kInf);
       }},
      {"pool range out of bounds",  // route longer than the file
       [&](Image* m) {
         m->Put(Trip0(*m, v3::kTripRouteLenAt), uint32_t{1} << 29);
       }},
      {"pool range out of bounds",  // route runs past the route-id pool
       [&](Image* m) {
         m->Put(Trip0(*m, v3::kTripRouteStartAt), uint64_t{1});
       }},
      {"pool range out of bounds",  // GPS trace longer than the file
       [&](Image* m) {
         m->Put(Trip0(*m, v3::kTripGpsLenAt), uint32_t{1} << 29);
       }},
      {"pool range out of bounds",  // GPS trace runs past the point pool
       [&](Image* m) { m->Put(Trip0(*m, v3::kTripGpsStartAt), uint64_t{1}); }},
  };
  const std::string good = SaveTinyDatasetV3("ds_malformed.bin");
  const std::string path = TempPath("ds_malformed_case.bin");
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "case " << i << ": " << cases[i].why);
    v3::Image img(good, v3::kTrajHeaderBytes);
    cases[i].patch(&img);
    img.ResealTo(path);
    const util::Status s = traj::LoadDataset(path).status();
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.message().find(cases[i].why), std::string::npos)
        << s.ToString();
  }
}

TEST(TrajCorpusTest, ValidateDatasetCatchesReferentialBreakage) {
  const roadnet::RoadNetwork net = MakeTinyNetwork();
  auto records = MakeTinyDataset(net);
  EXPECT_TRUE(traj::ValidateDataset(records, net).ok());

  auto out_of_range = records;
  out_of_range[0].trip.route.back() = net.num_segments() + 3;
  util::Status s = traj::ValidateDataset(out_of_range, net);
  EXPECT_EQ(s.code(), util::Status::Code::kOutOfRange);

  auto non_adjacent = records;
  // Segment 0 (vertex 0->1) cannot be followed by its own id.
  non_adjacent[0].trip.route = {0, 0};
  EXPECT_FALSE(traj::ValidateDataset(non_adjacent, net).ok());
}

TEST(TrafficCsvCorpusTest, ValidCsvLoads) {
  const std::string path = TempPath("traffic_ok.csv");
  WriteFile(path,
            "trip_id,time_s,x,y,speed_mps\n"
            "0,3600,100.5,200.5,8.5\n"
            "1,3610,110.0,210.0,9.5\n");
  auto obs = traffic::LoadObservationsCsv(path);
  ASSERT_TRUE(obs.ok()) << obs.status().ToString();
  ASSERT_EQ(obs.value().size(), 2u);
  EXPECT_DOUBLE_EQ(obs.value()[0].time_s, 3600.0);
  EXPECT_DOUBLE_EQ(obs.value()[1].speed_mps, 9.5);
}

TEST(TrafficCsvCorpusTest, MalformedRowsReturnStatus) {
  const std::string path = TempPath("traffic_bad.csv");
  const std::vector<std::string> bad_bodies = {
      "0,3600,100.5\n",                   // too few fields
      "0,3600,100.5,200.5,8.5,extra\n",   // too many fields
      "0,abc,100.5,200.5,8.5\n",          // non-numeric
      "0,nan,100.5,200.5,8.5\n",          // non-finite
      "0,3600,100.5,200.5,-3.0\n",        // negative speed
      "0,-5,100.5,200.5,3.0\n",           // negative time
  };
  for (size_t i = 0; i < bad_bodies.size(); ++i) {
    WriteFile(path, "trip_id,time_s,x,y,speed_mps\n" + bad_bodies[i]);
    EXPECT_FALSE(traffic::LoadObservationsCsv(path).ok()) << i;
  }
  EXPECT_FALSE(traffic::LoadObservationsCsv(TempPath("missing.csv")).ok());
}

}  // namespace
}  // namespace deepst
