#include "roadnet/io.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <utility>

#include "util/fault_injector.h"
#include "util/fixed_format.h"
#include "util/mapped_file.h"
#include "util/string_util.h"

namespace deepst {
namespace roadnet {
namespace {

constexpr uint32_t kMagic = 0x0AD2E701;
constexpr uint32_t kMaxPolylinePoints = 1u << 20;

// Fixed 48-byte header, then the section table, then 8-aligned payloads,
// then the CRC footer (util/fixed_format.h). Byte layout in docs/formats.md.
struct RoadnetHeaderV3 {
  uint32_t magic = kMagic;
  uint32_t version = util::kFormatVersion;
  uint64_t num_vertices = 0;
  uint64_t num_segments = 0;
  uint64_t num_points = 0;
  uint32_t num_sections = 0;
  uint32_t flags = 0;  // bit 0: spatial-index sections present
  double spatial_cell_size_m = 0.0;
};
static_assert(sizeof(RoadnetHeaderV3) == 48);

constexpr uint32_t kFlagSpatialIndex = 1u;

// Section ids.
constexpr uint32_t kSecVertices = 1;
constexpr uint32_t kSecSegments = 2;
constexpr uint32_t kSecPoints = 3;
constexpr uint32_t kSecVoutOff = 4;
constexpr uint32_t kSecVoutIds = 5;
constexpr uint32_t kSecVinOff = 6;
constexpr uint32_t kSecVinIds = 7;
constexpr uint32_t kSecCellOff = 8;
constexpr uint32_t kSecCellIds = 9;

// Alloc-free validation of mapped v3 sections: pure scans over the views.
// Everything a CHECK in the query path could trip on is rejected here.
// Same predicate as std::isfinite (IEEE-754 exponent bits not all ones) in a
// form the compiler can vectorize: the v3 load validates every coordinate of
// a mapped city, so these scans sit on the cold-load critical path
// (docs/formats.md).
inline bool IsFiniteBits(double d) {
  return (std::bit_cast<uint64_t>(d) & 0x7FF0000000000000ull) !=
         0x7FF0000000000000ull;
}

// True when all 2*n doubles starting at `xy` are finite.
bool AllFinite(const geo::Point* xy, uint64_t n) {
  const auto* p = reinterpret_cast<const double*>(xy);
  uint64_t bad = 0;
  for (uint64_t i = 0; i < 2 * n; ++i) {
    bad |= static_cast<uint64_t>(!IsFiniteBits(p[i]));
  }
  return bad == 0;
}

util::Status ValidateFlatNetwork(const RoadNetwork::FlatStorageRefs& r,
                                 const std::string& path) {
  const int64_t nv = static_cast<int64_t>(r.num_vertices);
  const int64_t ns = static_cast<int64_t>(r.num_segments);
  static_assert(sizeof(Vertex) == sizeof(geo::Point),
                "vertex scan reads vertices as bare points");
  if (!AllFinite(reinterpret_cast<const geo::Point*>(r.vertices),
                 r.num_vertices)) {
    return util::Status::InvalidArgument("non-finite vertex coordinate in " +
                                         path);
  }
  if (!AllFinite(r.points, r.num_points)) {
    return util::Status::InvalidArgument("non-finite polyline point in " +
                                         path);
  }
  for (uint64_t s = 0; s < r.num_segments; ++s) {
    const Segment& seg = r.segments[s];
    const auto fail = [&](const char* why) {
      return util::Status::InvalidArgument(
          util::StrFormat("segment %llu %s in %s",
                          static_cast<unsigned long long>(s), why,
                          path.c_str()));
    };
    if (seg.from < 0 || seg.from >= nv || seg.to < 0 || seg.to >= nv) {
      return fail("endpoint out of range");
    }
    if (!std::isfinite(seg.speed_limit_mps) || seg.speed_limit_mps <= 0.0) {
      return fail("speed limit not positive");
    }
    if (static_cast<uint8_t>(seg.road_class) >
        static_cast<uint8_t>(RoadClass::kHighway)) {
      return fail("unknown road class");
    }
    if (seg.reverse != kInvalidSegment &&
        (seg.reverse < 0 || seg.reverse >= ns ||
         r.segments[seg.reverse].reverse != static_cast<SegmentId>(s))) {
      return fail("reverse link out of range or asymmetric");
    }
    if (seg.poly_len < 2 || seg.poly_len > kMaxPolylinePoints ||
        seg.poly_start > r.num_points ||
        seg.poly_len > r.num_points - seg.poly_start) {
      return fail("polyline range out of bounds");
    }
    if (!std::isfinite(seg.length_m) || seg.length_m <= 0.0) {
      return fail("non-positive length");
    }
  }
  // CSR adjacency: offsets must be monotone and exhaustive, ids must be the
  // segments actually incident to the vertex, ascending (the slot order the
  // softmax head depends on).
  const auto check_csr = [&](const uint64_t* off, const SegmentId* ids,
                             bool out_dir) -> util::Status {
    if (off[0] != 0 || off[r.num_vertices] != r.num_segments) {
      return util::Status::InvalidArgument("adjacency offsets corrupt in " +
                                           path);
    }
    for (uint64_t v = 0; v < r.num_vertices; ++v) {
      if (off[v + 1] < off[v] || off[v + 1] > r.num_segments) {
        return util::Status::InvalidArgument("adjacency offsets corrupt in " +
                                             path);
      }
      for (uint64_t i = off[v]; i < off[v + 1]; ++i) {
        const SegmentId s = ids[i];
        if (s < 0 || s >= ns || (i > off[v] && ids[i - 1] >= s)) {
          return util::Status::InvalidArgument(
              "adjacency ids corrupt in " + path);
        }
        const VertexId anchor = out_dir ? r.segments[s].from : r.segments[s].to;
        if (anchor != static_cast<VertexId>(v)) {
          return util::Status::InvalidArgument(
              "adjacency ids corrupt in " + path);
        }
      }
    }
    return util::Status::Ok();
  };
  DEEPST_RETURN_IF_ERROR(check_csr(r.vout_off, r.vout_ids, true));
  DEEPST_RETURN_IF_ERROR(check_csr(r.vin_off, r.vin_ids, false));
  return util::Status::Ok();
}

// Parses and validates a mapped v3 image, populating `net` (zero-copy) and,
// when the file embeds a spatial CSR, handing its views back via the out
// params for LoadCity to adopt.
struct SpatialSections {
  bool present = false;
  double cell_size_m = 0.0;
  const uint64_t* cell_off = nullptr;
  const SegmentId* cell_ids = nullptr;
};

util::Status LoadV3(std::shared_ptr<util::MappedFile> file,
                    const std::string& path, RoadNetwork* net,
                    SpatialSections* spatial) {
  const char* data = file->data();
  const size_t size = file->size();
  DEEPST_RETURN_IF_ERROR(util::CheckMagicAndVersion(data, size, kMagic, path));
  DEEPST_RETURN_IF_ERROR(util::CheckCrcFooter(data, size, path));
  if (size < sizeof(RoadnetHeaderV3) + util::kFooterBytes) {
    return util::Status::IoError("file too short: " + path);
  }
  RoadnetHeaderV3 hdr;
  std::memcpy(&hdr, data, sizeof(hdr));
  // Counts are CRC-protected but still sanity-bounded: ids are int32 and
  // section byte maths must not overflow.
  constexpr uint64_t kMaxCount = 1ull << 31;
  if (hdr.num_vertices >= kMaxCount || hdr.num_segments >= kMaxCount ||
      hdr.num_points >= (1ull << 40)) {
    return util::Status::InvalidArgument("implausible element counts in " +
                                         path);
  }
  auto sections = util::SectionMap::Parse(data, size, sizeof(RoadnetHeaderV3),
                                          hdr.num_sections, path);
  DEEPST_RETURN_IF_ERROR(sections.status());
  const util::SectionMap& map = sections.value();

  RoadNetwork::FlatStorageRefs refs;
  refs.num_vertices = hdr.num_vertices;
  refs.num_segments = hdr.num_segments;
  refs.num_points = hdr.num_points;
  DEEPST_RETURN_IF_ERROR(
      map.View(kSecVertices, hdr.num_vertices, &refs.vertices));
  DEEPST_RETURN_IF_ERROR(
      map.View(kSecSegments, hdr.num_segments, &refs.segments));
  DEEPST_RETURN_IF_ERROR(map.View(kSecPoints, hdr.num_points, &refs.points));
  DEEPST_RETURN_IF_ERROR(
      map.View(kSecVoutOff, hdr.num_vertices + 1, &refs.vout_off));
  DEEPST_RETURN_IF_ERROR(
      map.View(kSecVoutIds, hdr.num_segments, &refs.vout_ids));
  DEEPST_RETURN_IF_ERROR(
      map.View(kSecVinOff, hdr.num_vertices + 1, &refs.vin_off));
  DEEPST_RETURN_IF_ERROR(
      map.View(kSecVinIds, hdr.num_segments, &refs.vin_ids));
  DEEPST_RETURN_IF_ERROR(ValidateFlatNetwork(refs, path));
  net->AdoptFlatStorage(refs, file);

  if ((hdr.flags & kFlagSpatialIndex) != 0) {
    const geo::BoundingBox box = SpatialIndexPaddedBounds(*net);
    const util::Status valid =
        geo::GridSpec::Validate(box, hdr.spatial_cell_size_m);
    if (!valid.ok()) {
      return util::Status::InvalidArgument("bad spatial index in " + path +
                                           ": " + valid.message());
    }
    const geo::GridSpec grid(box, hdr.spatial_cell_size_m);
    const uint64_t nc = static_cast<uint64_t>(grid.num_cells());
    const uint64_t* cell_off = nullptr;
    DEEPST_RETURN_IF_ERROR(map.View(kSecCellOff, nc + 1, &cell_off));
    if (cell_off[0] != 0) {
      return util::Status::InvalidArgument("spatial offsets corrupt in " +
                                           path);
    }
    for (uint64_t cell = 0; cell < nc; ++cell) {
      if (cell_off[cell + 1] < cell_off[cell]) {
        return util::Status::InvalidArgument("spatial offsets corrupt in " +
                                             path);
      }
    }
    const SegmentId* cell_ids = nullptr;
    DEEPST_RETURN_IF_ERROR(map.View(kSecCellIds, cell_off[nc], &cell_ids));
    for (uint64_t i = 0; i < cell_off[nc]; ++i) {
      if (cell_ids[i] < 0 ||
          cell_ids[i] >= static_cast<SegmentId>(hdr.num_segments)) {
        return util::Status::InvalidArgument("spatial ids corrupt in " + path);
      }
    }
    spatial->present = true;
    spatial->cell_size_m = hdr.spatial_cell_size_m;
    spatial->cell_off = cell_off;
    spatial->cell_ids = cell_ids;
  }
  return util::Status::Ok();
}

// Maps `path` for one of the loaders below.
util::StatusOr<std::shared_ptr<util::MappedFile>> OpenNetworkFile(
    const std::string& path) {
  DEEPST_RETURN_IF_ERROR(util::CheckFaultPoint("roadnet.load"));
  auto opened = util::MappedFile::Open(path);
  DEEPST_RETURN_IF_ERROR(opened.status());
  return std::make_shared<util::MappedFile>(std::move(opened).value());
}

// LoadCity over an already mapped image; the network and an adopted index
// keep the mapping alive.
util::StatusOr<LoadedCity> CityFromImage(std::shared_ptr<util::MappedFile> file,
                                         const std::string& path,
                                         double cell_size_m) {
  LoadedCity city;
  city.net = std::make_unique<RoadNetwork>();
  SpatialSections spatial;
  DEEPST_RETURN_IF_ERROR(LoadV3(file, path, city.net.get(), &spatial));
  const util::Status valid = geo::GridSpec::Validate(
      SpatialIndexPaddedBounds(*city.net), cell_size_m);
  if (!valid.ok()) {
    return util::Status::InvalidArgument("spatial index for " + path + ": " +
                                         valid.message());
  }
  if (spatial.present && spatial.cell_size_m == cell_size_m) {
    city.index = std::make_unique<SpatialIndex>(
        *city.net, spatial.cell_size_m, spatial.cell_off, spatial.cell_ids,
        std::move(file));
  } else {
    city.index = std::make_unique<SpatialIndex>(*city.net, cell_size_m);
  }
  return city;
}

}  // namespace

util::Status SaveRoadNetworkV3(const RoadNetwork& net, const std::string& path,
                               const SpatialIndex* index) {
  DEEPST_RETURN_IF_ERROR(util::CheckFaultPoint("roadnet.save"));
  if (!net.finalized()) {
    return util::Status::FailedPrecondition("network not finalized");
  }
  RoadnetHeaderV3 hdr;
  hdr.num_vertices = net.vertices_span().size();
  hdr.num_segments = net.segments_span().size();
  hdr.num_points = net.points_span().size();
  hdr.num_sections = index != nullptr ? 9 : 7;
  if (index != nullptr) {
    hdr.flags |= kFlagSpatialIndex;
    hdr.spatial_cell_size_m = index->cell_size();
  }
  util::SectionWriter sections(sizeof(hdr), hdr.num_sections);
  sections.Add(kSecVertices, net.vertices_span().data(), hdr.num_vertices);
  sections.Add(kSecSegments, net.segments_span().data(), hdr.num_segments);
  sections.Add(kSecPoints, net.points_span().data(), hdr.num_points);
  sections.Add(kSecVoutOff, net.vout_offsets_span().data(),
               net.vout_offsets_span().size());
  sections.Add(kSecVoutIds, net.vout_ids_span().data(),
               net.vout_ids_span().size());
  sections.Add(kSecVinOff, net.vin_offsets_span().data(),
               net.vin_offsets_span().size());
  sections.Add(kSecVinIds, net.vin_ids_span().data(),
               net.vin_ids_span().size());
  if (index != nullptr) {
    sections.Add(kSecCellOff, index->cell_offsets_span().data(),
                 index->cell_offsets_span().size());
    sections.Add(kSecCellIds, index->cell_ids_span().data(),
                 index->cell_ids_span().size());
  }
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

util::StatusOr<std::unique_ptr<RoadNetwork>> LoadRoadNetwork(
    const std::string& path) {
  auto file = OpenNetworkFile(path);
  DEEPST_RETURN_IF_ERROR(file.status());
  auto net = std::make_unique<RoadNetwork>();
  SpatialSections spatial;
  DEEPST_RETURN_IF_ERROR(
      LoadV3(std::move(file).value(), path, net.get(), &spatial));
  return net;
}

util::StatusOr<LoadedCity> LoadCity(const std::string& path,
                                    double cell_size_m) {
  auto file = OpenNetworkFile(path);
  DEEPST_RETURN_IF_ERROR(file.status());
  return CityFromImage(std::move(file).value(), path, cell_size_m);
}

util::StatusOr<std::string> DescribeRoadNetworkFile(const std::string& path,
                                                    bool* healthy) {
  if (healthy != nullptr) *healthy = true;
  auto opened = util::MappedFile::Open(path);
  DEEPST_RETURN_IF_ERROR(opened.status());
  auto file = std::make_shared<util::MappedFile>(std::move(opened).value());
  uint32_t magic = 0, version = 0;
  if (!util::ReadMagicAndVersion(file->data(), file->size(), &magic,
                                 &version) ||
      magic != kMagic) {
    return util::Status::InvalidArgument("not a road-network file: " + path);
  }
  std::string out = util::StrFormat(
      "road network  %s\n  format: v%u  size: %llu bytes\n", path.c_str(),
      version, static_cast<unsigned long long>(file->size()));
  // The verdict is the load every command runs: version, CRC, section
  // table, every field, and the spatial grid at the default cell size.
  auto city = CityFromImage(file, path, kDefaultCellSizeM);
  if (!city.ok()) {
    if (healthy != nullptr) *healthy = false;
    out += "  load: " + city.status().ToString() + "\n";
    return out;
  }
  RoadnetHeaderV3 hdr;
  std::memcpy(&hdr, file->data(), sizeof(hdr));
  out += util::StrFormat(
      "  crc: ok  load: ok\n"
      "  vertices: %llu  segments: %llu  polyline points: %llu\n",
      static_cast<unsigned long long>(hdr.num_vertices),
      static_cast<unsigned long long>(hdr.num_segments),
      static_cast<unsigned long long>(hdr.num_points));
  if ((hdr.flags & kFlagSpatialIndex) != 0) {
    out += util::StrFormat("  spatial index: embedded (cell %.0f m)\n",
                           hdr.spatial_cell_size_m);
  } else {
    out += "  spatial index: none (built on load)\n";
  }
  out += util::StrFormat("  zero-copy: yes (%s this open)\n",
                         file->is_mapped() ? "mmap'ed" : "buffered fallback");
  return out;
}

}  // namespace roadnet
}  // namespace deepst
