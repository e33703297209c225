#include "roadnet/spatial_index.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace deepst {
namespace roadnet {
namespace {

// Cells covered by segment `s`: every cell its polyline bounding box
// overlaps. Calls fn(row, col) for each.
template <typename Fn>
void ForEachCoveredCell(const RoadNetwork& net, const geo::GridSpec& grid,
                        SegmentId s, Fn&& fn) {
  geo::BoundingBox sb;
  for (const geo::Point& p : net.polyline(s)) sb.Extend(p);
  const int r0 = grid.RowOf(sb.min);
  const int r1 = grid.RowOf(sb.max);
  const int c0 = grid.ColOf(sb.min);
  const int c1 = grid.ColOf(sb.max);
  for (int r = r0; r <= r1; ++r) {
    for (int c = c0; c <= c1; ++c) {
      fn(r, c);
    }
  }
}

}  // namespace

geo::BoundingBox SpatialIndexPaddedBounds(const RoadNetwork& net) {
  geo::BoundingBox box = net.bounds();
  if (box.min.x > box.max.x || box.min.y > box.max.y) {
    // Empty network: bounds() is still the inverted sentinel box, and
    // padding it would produce a ~2e18 m wide grid. Any small grid serves
    // the (necessarily empty) queries.
    box = geo::BoundingBox();
    box.Extend({-1.0, -1.0});
    box.Extend({1.0, 1.0});
    return box;
  }
  // Guard against degenerate boxes.
  box.Extend({box.min.x - 1.0, box.min.y - 1.0});
  box.Extend({box.max.x + 1.0, box.max.y + 1.0});
  return box;
}

void SpatialIndex::CollectRing(const geo::Point& p, int ring,
                                   std::vector<SegmentCandidate>* out) const {
  const int pr = grid_.RowOf(p);
  const int pc = grid_.ColOf(p);
  for (int r = pr - ring; r <= pr + ring; ++r) {
    if (r < 0 || r >= grid_.rows()) continue;
    for (int c = pc - ring; c <= pc + ring; ++c) {
      if (c < 0 || c >= grid_.cols()) continue;
      // Only the ring boundary (interior already collected).
      if (ring > 0 && std::abs(r - pr) != ring && std::abs(c - pc) != ring) {
        continue;
      }
      for (SegmentId s : CellSegments(r, c)) {
        out->push_back({s, net_.ProjectToSegment(p, s)});
      }
    }
  }
}

std::vector<SegmentCandidate> SpatialIndex::SegmentsNear(
    const geo::Point& p, double radius_m) const {
  const int max_ring =
      static_cast<int>(radius_m / grid_.cell_size()) + 1;
  std::unordered_set<SegmentId> seen;
  std::vector<SegmentCandidate> out;
  std::vector<SegmentCandidate> ring_out;
  for (int ring = 0; ring <= max_ring; ++ring) {
    ring_out.clear();
    CollectRing(p, ring, &ring_out);
    for (auto& cand : ring_out) {
      if (!seen.insert(cand.segment).second) continue;
      if (cand.projection.distance <= radius_m) {
        out.push_back(std::move(cand));
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SegmentCandidate& a, const SegmentCandidate& b) {
              return a.projection.distance < b.projection.distance;
            });
  return out;
}

std::vector<SegmentCandidate> SpatialIndex::NearestSegments(
    const geo::Point& p, int k) const {
  DEEPST_CHECK_GE(k, 1);
  std::unordered_set<SegmentId> seen;
  std::vector<SegmentCandidate> out;
  std::vector<SegmentCandidate> ring_out;
  const int max_ring = std::max(grid_.rows(), grid_.cols());
  for (int ring = 0; ring <= max_ring; ++ring) {
    ring_out.clear();
    CollectRing(p, ring, &ring_out);
    for (auto& cand : ring_out) {
      if (seen.insert(cand.segment).second) out.push_back(std::move(cand));
    }
    // Once we have k candidates AND the next ring cannot contain anything
    // closer than the current k-th distance, stop. A segment in ring r+1 is
    // at least r * cell_size away.
    if (static_cast<int>(out.size()) >= k) {
      std::sort(out.begin(), out.end(),
                [](const SegmentCandidate& a, const SegmentCandidate& b) {
                  return a.projection.distance < b.projection.distance;
                });
      const double kth = out[static_cast<size_t>(k) - 1].projection.distance;
      if (kth <= ring * grid_.cell_size()) break;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SegmentCandidate& a, const SegmentCandidate& b) {
              return a.projection.distance < b.projection.distance;
            });
  if (static_cast<int>(out.size()) > k) out.resize(static_cast<size_t>(k));
  return out;
}

SegmentCandidate SpatialIndex::Nearest(const geo::Point& p) const {
  auto v = NearestSegments(p, 1);
  if (v.empty()) return {};
  return v.front();
}

SpatialIndex::SpatialIndex(const RoadNetwork& net, double cell_size_m)
    : net_(net), grid_(SpatialIndexPaddedBounds(net), cell_size_m) {
  DEEPST_CHECK(net.finalized());
  const size_t nc = static_cast<size_t>(grid_.num_cells());
  // Two-pass CSR build: count, prefix-sum, fill. Filling with s ascending
  // keeps every per-cell list sorted by id, matching the order queries (and
  // the v2 per-cell-vector layout) always saw.
  auto& off = cell_off_.vec();
  off.assign(nc + 1, 0);
  for (SegmentId s = 0; s < net.num_segments(); ++s) {
    ForEachCoveredCell(net, grid_, s, [&](int r, int c) {
      ++off[static_cast<size_t>(r) * grid_.cols() + c + 1];
    });
  }
  for (size_t cell = 0; cell < nc; ++cell) off[cell + 1] += off[cell];
  auto& ids = cell_ids_.vec();
  ids.resize(off[nc]);
  std::vector<uint64_t> cursor(off.begin(), off.end() - 1);
  for (SegmentId s = 0; s < net.num_segments(); ++s) {
    ForEachCoveredCell(net, grid_, s, [&](int r, int c) {
      ids[cursor[static_cast<size_t>(r) * grid_.cols() + c]++] = s;
    });
  }
  cell_off_.Freeze();
  cell_ids_.Freeze();
}

SpatialIndex::SpatialIndex(const RoadNetwork& net, double cell_size_m,
                           const uint64_t* cell_off, const SegmentId* cell_ids,
                           std::shared_ptr<const void> backing)
    : net_(net), grid_(SpatialIndexPaddedBounds(net), cell_size_m) {
  DEEPST_CHECK(net.finalized());
  const size_t nc = static_cast<size_t>(grid_.num_cells());
  cell_off_.Adopt(cell_off, nc + 1);
  cell_ids_.Adopt(cell_ids, cell_off[nc]);
  backing_ = std::move(backing);
}

util::Span<SegmentId> SpatialIndex::CellSegments(int row, int col) const {
  const size_t cell = static_cast<size_t>(row) * grid_.cols() + col;
  return util::Span<SegmentId>(cell_ids_.data() + cell_off_[cell],
                               cell_off_[cell + 1] - cell_off_[cell]);
}

}  // namespace roadnet
}  // namespace deepst
