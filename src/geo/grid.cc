#include "geo/grid.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/string_util.h"

namespace deepst {
namespace geo {
namespace {

// Cells along an extent of `extent` meters, at least one. Counted in double,
// so no extent or cell size can overflow before the cap is checked; a NaN
// extent stays NaN and fails the cap.
double CellsAlong(double extent, double cell_size) {
  const double n = std::ceil(extent / cell_size);
  return n < 1.0 ? 1.0 : n;
}

}  // namespace

util::Status GridSpec::Validate(const BoundingBox& box, double cell_size) {
  if (!(std::isfinite(cell_size) && cell_size > 0.0)) {
    return util::Status::InvalidArgument(util::StrFormat(
        "grid cell size must be finite and > 0, got %g m", cell_size));
  }
  const double cells = CellsAlong(box.Height(), cell_size) *
                       CellsAlong(box.Width(), cell_size);
  if (!(cells <= static_cast<double>(kMaxGridCells))) {
    return util::Status::InvalidArgument(util::StrFormat(
        "grid of %g m cells over a %g x %g m box has %g cells, more than "
        "the %lld allowed",
        cell_size, box.Width(), box.Height(), cells,
        static_cast<long long>(kMaxGridCells)));
  }
  return util::Status::Ok();
}

GridSpec::GridSpec(const BoundingBox& box, double cell_size)
    : box_(box), cell_size_(cell_size) {
  const util::Status valid = Validate(box, cell_size);
  DEEPST_CHECK_MSG(valid.ok(), valid.message().c_str());
  rows_ = static_cast<int>(CellsAlong(box.Height(), cell_size));
  cols_ = static_cast<int>(CellsAlong(box.Width(), cell_size));
}

int GridSpec::RowOf(const Point& p) const {
  const int r = static_cast<int>((p.y - box_.min.y) / cell_size_);
  return std::clamp(r, 0, rows_ - 1);
}

int GridSpec::ColOf(const Point& p) const {
  const int c = static_cast<int>((p.x - box_.min.x) / cell_size_);
  return std::clamp(c, 0, cols_ - 1);
}

Point GridSpec::CellCenter(int row, int col) const {
  return {box_.min.x + (col + 0.5) * cell_size_,
          box_.min.y + (row + 0.5) * cell_size_};
}

}  // namespace geo
}  // namespace deepst
