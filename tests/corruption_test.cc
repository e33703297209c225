// Hardened-ingestion corpus: every corrupted input (truncated, bit-flipped,
// out-of-range ids, implausible counts, non-finite values) must come back as
// a non-OK Status -- the process never dies on external bytes. Also covers
// the deterministic fault injector itself and the fault points wired into
// the roadnet/traj/traffic/checkpoint loaders.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
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
#include "util/crc32.h"
#include "util/fault_injector.h"
#include "util/fixed_format.h"

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

template <typename T>
void Append(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
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
  ASSERT_TRUE(roadnet::SaveRoadNetwork(net, net_path).ok());
  const auto records = MakeTinyDataset(net);
  const std::string ds_path = TempPath("faultpoint_ds.bin");
  ASSERT_TRUE(traj::SaveDataset(records, ds_path).ok());

  util::FaultInjector& fi = util::FaultInjector::Instance();
  ASSERT_TRUE(fi.ArmFromSpec("roadnet.load:io_error, traj.load:io_error, "
                             "traffic.load:io_error, roadnet.save:io_error, "
                             "traj.save:alloc")
                  .ok());
  EXPECT_FALSE(roadnet::LoadRoadNetwork(net_path).ok());
  EXPECT_FALSE(traj::LoadDataset(ds_path).ok());
  EXPECT_FALSE(traffic::LoadObservationsCsv("unused.csv").ok());
  EXPECT_FALSE(roadnet::SaveRoadNetwork(net, net_path).ok());
  EXPECT_FALSE(traj::SaveDataset(records, ds_path).ok());
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

TEST(RoadnetCorpusTest, RoundTripSurvives) {
  const roadnet::RoadNetwork net = MakeTinyNetwork();
  const std::string path = TempPath("net_roundtrip.bin");
  ASSERT_TRUE(roadnet::SaveRoadNetwork(net, path).ok());
  auto loaded = roadnet::LoadRoadNetwork(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->num_vertices(), net.num_vertices());
  EXPECT_EQ(loaded.value()->num_segments(), net.num_segments());
  EXPECT_EQ(loaded.value()->segment(0).reverse, net.segment(0).reverse);
}

TEST(RoadnetCorpusTest, EveryTruncationFailsCleanly) {
  const roadnet::RoadNetwork net = MakeTinyNetwork();
  const std::string path = TempPath("net_trunc.bin");
  ASSERT_TRUE(roadnet::SaveRoadNetwork(net, path).ok());
  const std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 16u);
  const std::string trunc_path = TempPath("net_trunc_case.bin");
  for (size_t keep = 0; keep < bytes.size(); keep += 3) {
    WriteFile(trunc_path, bytes.substr(0, keep));
    EXPECT_FALSE(roadnet::LoadRoadNetwork(trunc_path).ok()) << keep;
  }
}

TEST(RoadnetCorpusTest, EveryBitFlipIsCaughtByCrc) {
  const roadnet::RoadNetwork net = MakeTinyNetwork();
  const std::string path = TempPath("net_flip.bin");
  ASSERT_TRUE(roadnet::SaveRoadNetwork(net, path).ok());
  const std::string bytes = ReadFile(path);
  const std::string flip_path = TempPath("net_flip_case.bin");
  for (size_t i = 0; i < bytes.size(); i += 7) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    WriteFile(flip_path, mutated);
    EXPECT_FALSE(roadnet::LoadRoadNetwork(flip_path).ok()) << i;
  }
}

// Hand-written v1 images (no CRC) reach the field validators directly.
struct RoadnetV1Builder {
  std::string bytes;

  RoadnetV1Builder() {
    Append(&bytes, static_cast<uint32_t>(0x0AD2E701));
    Append(&bytes, static_cast<uint32_t>(1));  // legacy version, no CRC
  }
  void Vertices(const std::vector<geo::Point>& vs) {
    Append(&bytes, static_cast<uint32_t>(vs.size()));
    for (const auto& v : vs) {
      Append(&bytes, v.x);
      Append(&bytes, v.y);
    }
  }
  void SegmentCount(uint32_t n) { Append(&bytes, n); }
  void Segment(int32_t from, int32_t to, double speed, uint8_t road_class,
               int32_t reverse, const std::vector<geo::Point>& poly) {
    Append(&bytes, from);
    Append(&bytes, to);
    Append(&bytes, speed);
    Append(&bytes, road_class);
    Append(&bytes, reverse);
    Append(&bytes, static_cast<uint32_t>(poly.size()));
    for (const auto& p : poly) {
      Append(&bytes, p.x);
      Append(&bytes, p.y);
    }
  }
};

util::Status LoadV1(const RoadnetV1Builder& b, const std::string& name) {
  const std::string path = TempPath(name);
  WriteFile(path, b.bytes);
  return roadnet::LoadRoadNetwork(path).status();
}

TEST(RoadnetCorpusTest, MalformedRecordsReturnStatusNotAbort) {
  const std::vector<geo::Point> two = {{0.0, 0.0}, {100.0, 0.0}};
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  {
    RoadnetV1Builder b;  // vertex count far beyond the file size
    b.Vertices({});
    b.bytes.resize(8);
    Append(&b.bytes, static_cast<uint32_t>(1u << 30));
    EXPECT_FALSE(LoadV1(b, "v1_hugevcount.bin").ok());
  }
  {
    RoadnetV1Builder b;  // non-finite vertex coordinate
    b.Vertices({{kNan, 0.0}, {100.0, 0.0}});
    b.SegmentCount(0);
    EXPECT_FALSE(LoadV1(b, "v1_nanvertex.bin").ok());
  }
  {
    RoadnetV1Builder b;  // endpoint out of range
    b.Vertices(two);
    b.SegmentCount(1);
    b.Segment(0, 7, 13.9, 0, -1, two);
    EXPECT_FALSE(LoadV1(b, "v1_badendpoint.bin").ok());
  }
  {
    RoadnetV1Builder b;  // negative endpoint
    b.Vertices(two);
    b.SegmentCount(1);
    b.Segment(-3, 1, 13.9, 0, -1, two);
    EXPECT_FALSE(LoadV1(b, "v1_negendpoint.bin").ok());
  }
  {
    RoadnetV1Builder b;  // non-positive speed
    b.Vertices(two);
    b.SegmentCount(1);
    b.Segment(0, 1, 0.0, 0, -1, two);
    EXPECT_FALSE(LoadV1(b, "v1_zerospeed.bin").ok());
  }
  {
    RoadnetV1Builder b;  // unknown road class
    b.Vertices(two);
    b.SegmentCount(1);
    b.Segment(0, 1, 13.9, 9, -1, two);
    EXPECT_FALSE(LoadV1(b, "v1_badclass.bin").ok());
  }
  {
    RoadnetV1Builder b;  // reverse link out of range
    b.Vertices(two);
    b.SegmentCount(1);
    b.Segment(0, 1, 13.9, 0, 44, two);
    EXPECT_FALSE(LoadV1(b, "v1_badreverse.bin").ok());
  }
  {
    RoadnetV1Builder b;  // zero-length polyline (would abort AddSegment)
    b.Vertices(two);
    b.SegmentCount(1);
    b.Segment(0, 1, 13.9, 0, -1, {{0.0, 0.0}, {0.0, 0.0}});
    EXPECT_FALSE(LoadV1(b, "v1_zerolen.bin").ok());
  }
  {
    RoadnetV1Builder b;  // polyline length larger than the file
    b.Vertices(two);
    b.SegmentCount(1);
    Append(&b.bytes, static_cast<int32_t>(0));
    Append(&b.bytes, static_cast<int32_t>(1));
    Append(&b.bytes, 13.9);
    Append(&b.bytes, static_cast<uint8_t>(0));
    Append(&b.bytes, static_cast<int32_t>(-1));
    Append(&b.bytes, static_cast<uint32_t>(1u << 28));
    EXPECT_FALSE(LoadV1(b, "v1_hugepoly.bin").ok());
  }
}

// -- Format-v3 corpus (docs/formats.md) -------------------------------------
// The mmap'ed fixed-layout format has its own failure surface: the whole
// file is validated against the mapping, so truncation, bit flips and
// malformed section tables must all fail before any struct view is handed
// out.

std::string SaveTinyNetworkV3(const std::string& name) {
  const roadnet::RoadNetwork net = MakeTinyNetwork();
  const roadnet::SpatialIndex index(net, /*cell_size_m=*/250.0);
  const std::string path = TempPath(name);
  EXPECT_TRUE(roadnet::SaveRoadNetworkV3(net, path, &index).ok());
  return path;
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
  const std::string path = SaveTinyNetworkV3("v3_misalign.bin");
  std::string bytes = ReadFile(path);
  // Section table starts right after the 48-byte header; entry 0's absolute
  // offset lives at bytes [56, 64). Knock it off 8-byte alignment, then
  // re-seal the CRC so only the alignment check can reject the file.
  ASSERT_GT(bytes.size(), 64u + util::kFooterBytes);
  uint64_t off = 0;
  std::memcpy(&off, bytes.data() + 56, sizeof(off));
  off += 4;
  std::memcpy(bytes.data() + 56, &off, sizeof(off));
  const uint32_t crc =
      util::Crc32(bytes.data(), bytes.size() - util::kFooterBytes);
  std::memcpy(bytes.data() + bytes.size() - util::kFooterBytes, &crc,
              sizeof(crc));
  const std::string bad_path = TempPath("v3_misalign_case.bin");
  WriteFile(bad_path, bytes);
  auto loaded = roadnet::LoadRoadNetwork(bad_path);
  EXPECT_FALSE(loaded.ok());
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
  std::string bytes = ReadFile(SaveTinyNetworkV3("grid_embedded.bin"));
  // The embedded index's cell size sits at header bytes [40, 48). At 1e-3 m
  // the 502 m padded extent needs 2.5e11 cells. The CRC is re-sealed, so
  // only the grid guard can reject the file.
  ASSERT_GT(bytes.size(), 48u + util::kFooterBytes);
  const double tiny = 1e-3;
  std::memcpy(bytes.data() + 40, &tiny, sizeof(tiny));
  const uint32_t crc =
      util::Crc32(bytes.data(), bytes.size() - util::kFooterBytes);
  std::memcpy(bytes.data() + bytes.size() - util::kFooterBytes, &crc,
              sizeof(crc));
  const std::string bad_path = TempPath("grid_embedded_case.bin");
  WriteFile(bad_path, bytes);
  auto city = roadnet::LoadCity(bad_path);
  ASSERT_FALSE(city.ok());
  EXPECT_EQ(city.status().code(), util::Status::Code::kInvalidArgument)
      << city.status().ToString();
  EXPECT_FALSE(roadnet::LoadRoadNetwork(bad_path).ok());
}

TEST(TrajCorpusTest, RoundTripSurvives) {
  const roadnet::RoadNetwork net = MakeTinyNetwork();
  const auto records = MakeTinyDataset(net);
  const std::string path = TempPath("ds_roundtrip.bin");
  ASSERT_TRUE(traj::SaveDataset(records, path).ok());
  auto loaded = traj::LoadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), records.size());
  EXPECT_EQ(loaded.value()[0].trip.route, records[0].trip.route);
  EXPECT_EQ(loaded.value()[0].gps.size(), records[0].gps.size());
}

TEST(TrajCorpusTest, EveryTruncationAndBitFlipFailsCleanly) {
  const roadnet::RoadNetwork net = MakeTinyNetwork();
  const std::string path = TempPath("ds_corrupt.bin");
  ASSERT_TRUE(traj::SaveDataset(MakeTinyDataset(net), path).ok());
  const std::string bytes = ReadFile(path);
  const std::string case_path = TempPath("ds_corrupt_case.bin");
  for (size_t keep = 0; keep < bytes.size(); keep += 3) {
    WriteFile(case_path, bytes.substr(0, keep));
    EXPECT_FALSE(traj::LoadDataset(case_path).ok()) << "trunc " << keep;
  }
  for (size_t i = 0; i < bytes.size(); i += 5) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x11);
    WriteFile(case_path, mutated);
    EXPECT_FALSE(traj::LoadDataset(case_path).ok()) << "flip " << i;
  }
}

struct TrajV1Builder {
  std::string bytes;

  TrajV1Builder() {
    Append(&bytes, static_cast<uint32_t>(0x0DA7A701));
    Append(&bytes, static_cast<uint32_t>(1));
  }
  void Count(uint64_t n) { Append(&bytes, n); }
  void TripHeader(double start, geo::Point dest, int32_t day,
                  uint32_t route_len) {
    Append(&bytes, start);
    Append(&bytes, dest.x);
    Append(&bytes, dest.y);
    Append(&bytes, day);
    Append(&bytes, route_len);
  }
};

util::Status LoadTrajV1(const TrajV1Builder& b, const std::string& name) {
  const std::string path = TempPath(name);
  WriteFile(path, b.bytes);
  return traj::LoadDataset(path).status();
}

TEST(TrajCorpusTest, MalformedRecordsReturnStatusNotAbort) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  {
    TrajV1Builder b;  // trip count far beyond the file size
    b.Count(1ull << 40);
    EXPECT_FALSE(LoadTrajV1(b, "traj_hugecount.bin").ok());
  }
  {
    TrajV1Builder b;  // non-finite start time
    b.Count(1);
    b.TripHeader(kNan, {0.0, 0.0}, 0, 2);
    EXPECT_FALSE(LoadTrajV1(b, "traj_nanstart.bin").ok());
  }
  {
    TrajV1Builder b;  // negative day
    b.Count(1);
    b.TripHeader(0.0, {0.0, 0.0}, -4, 2);
    EXPECT_FALSE(LoadTrajV1(b, "traj_negday.bin").ok());
  }
  {
    TrajV1Builder b;  // route length far beyond the file size
    b.Count(1);
    b.TripHeader(0.0, {0.0, 0.0}, 0, 1u << 29);
    EXPECT_FALSE(LoadTrajV1(b, "traj_hugeroute.bin").ok());
  }
  {
    TrajV1Builder b;  // negative segment id
    b.Count(1);
    b.TripHeader(0.0, {0.0, 0.0}, 0, 2);
    Append(&b.bytes, static_cast<int32_t>(0));
    Append(&b.bytes, static_cast<int32_t>(-9));
    Append(&b.bytes, static_cast<uint32_t>(0));  // gps_len
    EXPECT_FALSE(LoadTrajV1(b, "traj_negsegment.bin").ok());
  }
  {
    TrajV1Builder b;  // gps length far beyond the file size
    b.Count(1);
    b.TripHeader(0.0, {0.0, 0.0}, 0, 0);
    Append(&b.bytes, static_cast<uint32_t>(1u << 29));
    EXPECT_FALSE(LoadTrajV1(b, "traj_hugegps.bin").ok());
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
