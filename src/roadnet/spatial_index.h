#ifndef DEEPST_ROADNET_SPATIAL_INDEX_H_
#define DEEPST_ROADNET_SPATIAL_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "geo/grid.h"
#include "roadnet/road_network.h"
#include "util/span.h"

namespace deepst {
namespace roadnet {

// A segment candidate returned by a nearest-segment query.
struct SegmentCandidate {
  SegmentId segment = kInvalidSegment;
  geo::Projection projection;  // projection of the query point
};

// Grid bounds of the index: network bounds padded by 1 m against degenerate
// boxes. The format-v3 loader recomputes the identical grid from the mapped
// vertices, so a precomputed CSR stays valid.
geo::BoundingBox SpatialIndexPaddedBounds(const RoadNetwork& net);

// Uniform-grid index over segment polylines, used by map matching (candidate
// generation) and destination snapping (WSP baseline, stop model). Each
// segment is registered in every cell its polyline's bounding box overlaps.
//
// One layout, a flat CSR: the segment ids of cell c live at
// ids[off[c], off[c+1]), ascending. The two arrays are either built here or
// adopted zero-copy from an mmap'ed format-v3 file (docs/formats.md). Both
// hold the same per-cell lists, and every query walks them in the same ring
// order, so a built and an adopted index answer bitwise identically, tie
// order included.
//
// The grid over SpatialIndexPaddedBounds(net) must pass
// geo::GridSpec::Validate; LoadCity checks it for networks read from files.
class SpatialIndex {
 public:
  explicit SpatialIndex(const RoadNetwork& net, double cell_size_m = 250.0);

  // Zero-copy layout: adopts a precomputed CSR. `cell_off` has
  // grid.num_cells() + 1 entries and `cell_ids` has cell_off[num_cells]
  // entries; `backing` (the mapped file) is held alive. The caller (the v3
  // loader) validates shape before constructing.
  SpatialIndex(const RoadNetwork& net, double cell_size_m,
               const uint64_t* cell_off, const SegmentId* cell_ids,
               std::shared_ptr<const void> backing);

  // Segments whose projection distance to `p` is <= radius_m, sorted by
  // ascending distance.
  std::vector<SegmentCandidate> SegmentsNear(const geo::Point& p,
                                             double radius_m) const;

  // Up to `k` nearest segments (expanding ring search), sorted ascending.
  std::vector<SegmentCandidate> NearestSegments(const geo::Point& p,
                                                int k) const;

  // Single nearest segment (kInvalidSegment only for an empty network).
  SegmentCandidate Nearest(const geo::Point& p) const;

  const geo::GridSpec& grid() const { return grid_; }

  // -- Raw flat sections (format-v3 writer, docs/formats.md) -----------------
  util::Span<uint64_t> cell_offsets_span() const { return cell_off_.span(); }
  util::Span<SegmentId> cell_ids_span() const { return cell_ids_.span(); }
  double cell_size() const { return grid_.cell_size(); }
  bool zero_copy() const { return backing_ != nullptr; }

 private:
  // Segment ids registered in cell (row, col), ascending.
  util::Span<SegmentId> CellSegments(int row, int col) const;
  void CollectRing(const geo::Point& p, int ring,
                   std::vector<SegmentCandidate>* out) const;

  const RoadNetwork& net_;
  geo::GridSpec grid_;
  util::ArrayView<uint64_t> cell_off_;  // num_cells + 1
  util::ArrayView<SegmentId> cell_ids_;
  std::shared_ptr<const void> backing_;
};

}  // namespace roadnet
}  // namespace deepst

#endif  // DEEPST_ROADNET_SPATIAL_INDEX_H_
