#ifndef DEEPST_GEO_GRID_H_
#define DEEPST_GEO_GRID_H_

#include <cstdint>

#include "geo/point.h"
#include "util/status.h"

namespace deepst {
namespace geo {

// Most cells a grid may have. At this cap a spatial index's cell offsets and
// one traffic tensor take 32 MiB each, and rows * cols fits an int.
constexpr int64_t kMaxGridCells = int64_t{1} << 22;

// Uniform cell partition of a bounding box, used by (a) the traffic tensor
// builder (the paper partitions the city into cells of 100-200 m and
// averages vehicle speed per cell, Section V-A) and (b) the road-network
// spatial index.
class GridSpec {
 public:
  // Checks a grid sized by outside input (a loaded network's extent, a cell
  // size from a flag or a file header) before it is built: InvalidArgument
  // when `cell_size` is not finite and positive, or when the grid would have
  // more than kMaxGridCells cells.
  static util::Status Validate(const BoundingBox& box, double cell_size);

  // Builds a grid covering `box` with square cells of `cell_size` meters.
  // Aborts where Validate returns an error.
  GridSpec(const BoundingBox& box, double cell_size);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  double cell_size() const { return cell_size_; }
  int num_cells() const { return rows_ * cols_; }
  const BoundingBox& box() const { return box_; }

  // Row/col of the cell containing p, clamped to the grid.
  int RowOf(const Point& p) const;
  int ColOf(const Point& p) const;
  // Flat cell index (row-major).
  int CellOf(const Point& p) const { return RowOf(p) * cols_ + ColOf(p); }

  // Center of a cell.
  Point CellCenter(int row, int col) const;

 private:
  BoundingBox box_;
  double cell_size_;
  int rows_;
  int cols_;
};

}  // namespace geo
}  // namespace deepst

#endif  // DEEPST_GEO_GRID_H_
