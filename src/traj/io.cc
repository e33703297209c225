#include "traj/io.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "util/fault_injector.h"
#include "util/fixed_format.h"
#include "util/mapped_file.h"
#include "util/string_util.h"

namespace deepst {
namespace traj {
namespace {

constexpr uint32_t kMagic = 0x0DA7A701;

// Fixed 40-byte header, section table, 8-aligned payloads, CRC footer
// (util/fixed_format.h). Trips are fixed 56-byte records indexing into
// shared route-id and GPS-point pools. Byte layout in docs/formats.md.
struct TrajHeaderV3 {
  uint32_t magic = kMagic;
  uint32_t version = util::kFormatVersion;
  uint64_t num_trips = 0;
  uint64_t num_route_ids = 0;
  uint64_t num_gps_points = 0;
  uint32_t num_sections = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(TrajHeaderV3) == 40);

struct TripRecV3 {
  double start_time_s = 0.0;
  double dest_x = 0.0;
  double dest_y = 0.0;
  uint64_t route_start = 0;  // into the route-id pool
  uint64_t gps_start = 0;    // into the GPS-point pool
  int32_t day = 0;
  uint32_t route_len = 0;
  uint32_t gps_len = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(TripRecV3) == 56);

// GpsPoint is written as a raw struct view; its memory layout is the pool's
// on-disk record (x, y, time_s, speed_mps).
static_assert(sizeof(GpsPoint) == 32);
static_assert(std::is_trivially_copyable_v<GpsPoint>);

constexpr uint32_t kSecTrips = 1;
constexpr uint32_t kSecRouteIds = 2;
constexpr uint32_t kSecGpsPoints = 3;

// Validated views over a mapped dataset image.
struct DatasetImage {
  TrajHeaderV3 hdr;
  const TripRecV3* trips = nullptr;
  const roadnet::SegmentId* route_ids = nullptr;
  const GpsPoint* gps = nullptr;
};

// Checks the version, the CRC, the section table, the pools and every trip
// record against the mapping, so that materializing the trips cannot fail.
util::Status ParseDatasetImage(const util::MappedFile& file,
                               const std::string& path, DatasetImage* image) {
  const char* data = file.data();
  const size_t size = file.size();
  DEEPST_RETURN_IF_ERROR(util::CheckMagicAndVersion(data, size, kMagic, path));
  DEEPST_RETURN_IF_ERROR(util::CheckCrcFooter(data, size, path));
  if (size < sizeof(TrajHeaderV3) + util::kFooterBytes) {
    return util::Status::IoError("file too short: " + path);
  }
  TrajHeaderV3& hdr = image->hdr;
  std::memcpy(&hdr, data, sizeof(hdr));
  if (hdr.num_trips >= (1ull << 40) || hdr.num_route_ids >= (1ull << 40) ||
      hdr.num_gps_points >= (1ull << 40)) {
    return util::Status::InvalidArgument("implausible element counts in " +
                                         path);
  }
  auto sections = util::SectionMap::Parse(data, size, sizeof(TrajHeaderV3),
                                          hdr.num_sections, path);
  DEEPST_RETURN_IF_ERROR(sections.status());
  const util::SectionMap& map = sections.value();
  DEEPST_RETURN_IF_ERROR(map.View(kSecTrips, hdr.num_trips, &image->trips));
  DEEPST_RETURN_IF_ERROR(
      map.View(kSecRouteIds, hdr.num_route_ids, &image->route_ids));
  DEEPST_RETURN_IF_ERROR(
      map.View(kSecGpsPoints, hdr.num_gps_points, &image->gps));
  for (uint64_t i = 0; i < hdr.num_route_ids; ++i) {
    if (image->route_ids[i] < 0) {
      return util::Status::InvalidArgument("negative segment id in " + path);
    }
  }
  for (uint64_t i = 0; i < hdr.num_gps_points; ++i) {
    const GpsPoint& p = image->gps[i];
    if (!std::isfinite(p.pos.x) || !std::isfinite(p.pos.y) ||
        !std::isfinite(p.time_s) || !std::isfinite(p.speed_mps)) {
      return util::Status::InvalidArgument("non-finite gps point in " + path);
    }
  }
  for (uint64_t i = 0; i < hdr.num_trips; ++i) {
    const TripRecV3& t = image->trips[i];
    if (!std::isfinite(t.start_time_s) || !std::isfinite(t.dest_x) ||
        !std::isfinite(t.dest_y) || t.day < 0) {
      return util::Status::InvalidArgument(
          util::StrFormat("trip %llu has bad header fields in %s",
                          static_cast<unsigned long long>(i), path.c_str()));
    }
    if (t.route_start > hdr.num_route_ids ||
        t.route_len > hdr.num_route_ids - t.route_start ||
        t.gps_start > hdr.num_gps_points ||
        t.gps_len > hdr.num_gps_points - t.gps_start) {
      return util::Status::IoError(
          util::StrFormat("trip %llu pool range out of bounds in %s",
                          static_cast<unsigned long long>(i), path.c_str()));
    }
  }
  return util::Status::Ok();
}

}  // namespace

util::Status SaveDatasetV3(const std::vector<TripRecord>& records,
                           const std::string& path) {
  DEEPST_RETURN_IF_ERROR(util::CheckFaultPoint("traj.save"));
  TrajHeaderV3 hdr;
  hdr.num_trips = records.size();
  hdr.num_sections = 3;
  std::vector<TripRecV3> trips;
  trips.reserve(records.size());
  std::vector<roadnet::SegmentId> route_pool;
  std::vector<GpsPoint> gps_pool;
  for (const auto& rec : records) {
    TripRecV3 t;
    t.start_time_s = rec.trip.start_time_s;
    t.dest_x = rec.trip.destination.x;
    t.dest_y = rec.trip.destination.y;
    t.day = rec.trip.day;
    t.route_start = route_pool.size();
    t.route_len = static_cast<uint32_t>(rec.trip.route.size());
    t.gps_start = gps_pool.size();
    t.gps_len = static_cast<uint32_t>(rec.gps.size());
    route_pool.insert(route_pool.end(), rec.trip.route.begin(),
                      rec.trip.route.end());
    gps_pool.insert(gps_pool.end(), rec.gps.begin(), rec.gps.end());
    trips.push_back(t);
  }
  hdr.num_route_ids = route_pool.size();
  hdr.num_gps_points = gps_pool.size();
  util::SectionWriter sections(sizeof(hdr), hdr.num_sections);
  sections.Add(kSecTrips, trips.data(), trips.size());
  sections.Add(kSecRouteIds, route_pool.data(), route_pool.size());
  sections.Add(kSecGpsPoints, gps_pool.data(), gps_pool.size());
  std::string bytes;
  util::AppendPod(&bytes, &hdr, 1);
  sections.AppendTo(&bytes);
  util::AppendCrcFooter(&bytes);
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) return util::Status::IoError("cannot open " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) return util::Status::IoError("write failed for " + path);
  return util::Status::Ok();
}

util::StatusOr<std::vector<TripRecord>> LoadDataset(const std::string& path) {
  DEEPST_RETURN_IF_ERROR(util::CheckFaultPoint("traj.load"));
  auto opened = util::MappedFile::Open(path);
  DEEPST_RETURN_IF_ERROR(opened.status());
  const util::MappedFile file = std::move(opened).value();
  DatasetImage image;
  DEEPST_RETURN_IF_ERROR(ParseDatasetImage(file, path, &image));
  // Each trip is two bulk copies out of the validated pools.
  std::vector<TripRecord> records;
  records.reserve(image.hdr.num_trips);
  for (uint64_t i = 0; i < image.hdr.num_trips; ++i) {
    const TripRecV3& t = image.trips[i];
    TripRecord rec;
    rec.trip.start_time_s = t.start_time_s;
    rec.trip.destination = geo::Point{t.dest_x, t.dest_y};
    rec.trip.day = t.day;
    rec.trip.route.assign(image.route_ids + t.route_start,
                          image.route_ids + t.route_start + t.route_len);
    rec.gps.assign(image.gps + t.gps_start,
                   image.gps + t.gps_start + t.gps_len);
    records.push_back(std::move(rec));
  }
  return records;
}

util::StatusOr<std::string> DescribeDatasetFile(const std::string& path,
                                                bool* healthy) {
  if (healthy != nullptr) *healthy = true;
  auto opened = util::MappedFile::Open(path);
  DEEPST_RETURN_IF_ERROR(opened.status());
  const util::MappedFile file = std::move(opened).value();
  uint32_t magic = 0, version = 0;
  if (!util::ReadMagicAndVersion(file.data(), file.size(), &magic,
                                 &version) ||
      magic != kMagic) {
    return util::Status::InvalidArgument("not a dataset file: " + path);
  }
  std::string out = util::StrFormat(
      "trajectory dataset  %s\n  format: v%u  size: %llu bytes\n",
      path.c_str(), version, static_cast<unsigned long long>(file.size()));
  // The verdict is LoadDataset's: every check it makes runs here, only the
  // trips are not copied out.
  DatasetImage image;
  const util::Status parsed = ParseDatasetImage(file, path, &image);
  if (!parsed.ok()) {
    if (healthy != nullptr) *healthy = false;
    out += "  load: " + parsed.ToString() + "\n";
    return out;
  }
  out += util::StrFormat(
      "  crc: ok  load: ok\n"
      "  trips: %llu  route ids: %llu  gps points: %llu\n",
      static_cast<unsigned long long>(image.hdr.num_trips),
      static_cast<unsigned long long>(image.hdr.num_route_ids),
      static_cast<unsigned long long>(image.hdr.num_gps_points));
  out += util::StrFormat("  zero-copy pools: yes (%s this open)\n",
                         file.is_mapped() ? "mmap'ed" : "buffered fallback");
  return out;
}

util::Status ValidateDataset(const std::vector<TripRecord>& records,
                             const roadnet::RoadNetwork& net) {
  for (size_t i = 0; i < records.size(); ++i) {
    const Trip& trip = records[i].trip;
    for (roadnet::SegmentId s : trip.route) {
      if (s < 0 || s >= net.num_segments()) {
        return util::Status::OutOfRange(
            util::StrFormat("trip %zu references segment %d; network has %d",
                            i, static_cast<int>(s), net.num_segments()));
      }
    }
    for (size_t j = 0; j + 1 < trip.route.size(); ++j) {
      if (!net.AreConsecutive(trip.route[j], trip.route[j + 1])) {
        return util::Status::InvalidArgument(util::StrFormat(
            "trip %zu route segments %d -> %d not adjacent", i,
            static_cast<int>(trip.route[j]),
            static_cast<int>(trip.route[j + 1])));
      }
    }
  }
  return util::Status::Ok();
}

util::Status ExportGpsCsv(const std::vector<TripRecord>& records,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return util::Status::IoError("cannot open " + path);
  out << "trip_id,time_s,x,y,speed_mps\n";
  for (size_t i = 0; i < records.size(); ++i) {
    for (const auto& p : records[i].gps) {
      out << i << ',' << p.time_s << ',' << p.pos.x << ',' << p.pos.y << ','
          << p.speed_mps << '\n';
    }
  }
  if (!out.good()) return util::Status::IoError("write failed for " + path);
  return util::Status::Ok();
}

util::Status ExportTripsCsv(const std::vector<TripRecord>& records,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return util::Status::IoError("cannot open " + path);
  out << "trip_id,day,start_time_s,dest_x,dest_y,num_segments,route\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const Trip& trip = records[i].trip;
    out << i << ',' << trip.day << ',' << trip.start_time_s << ','
        << trip.destination.x << ',' << trip.destination.y << ','
        << trip.route.size() << ',';
    for (size_t j = 0; j < trip.route.size(); ++j) {
      if (j > 0) out << '|';
      out << trip.route[j];
    }
    out << '\n';
  }
  if (!out.good()) return util::Status::IoError("write failed for " + path);
  return util::Status::Ok();
}

}  // namespace traj
}  // namespace deepst
