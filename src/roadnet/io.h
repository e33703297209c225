#ifndef DEEPST_ROADNET_IO_H_
#define DEEPST_ROADNET_IO_H_

#include <memory>
#include <string>

#include "roadnet/road_network.h"
#include "roadnet/spatial_index.h"
#include "util/status.h"

namespace deepst {
namespace roadnet {

// Binary (de)serialization of road networks, so a generated network can be
// stored once and shared across runs and tools. The one format is the fixed-layout, mmap-able v3
// (docs/formats.md): flat sections for vertices, segments, the polyline
// point pool, CSR adjacency, and optionally a precomputed spatial-index CSR.
// Loading maps the file and serves topology straight out of the mapping --
// no per-segment heap allocation. A file of any other version fails to load
// with "unsupported version N in PATH", naming `deepst_cli generate`.

// Cell size of the spatial index every command loads with.
constexpr double kDefaultCellSizeM = 250.0;

// Writes the v3 format. When `index` is non-null its cell CSR is embedded
// so loads skip spatial-index construction entirely.
util::Status SaveRoadNetworkV3(const RoadNetwork& net, const std::string& path,
                               const SpatialIndex* index = nullptr);

// Maps a v3 file zero-copy (with a buffered fallback, util::MappedFile).
util::StatusOr<std::unique_ptr<RoadNetwork>> LoadRoadNetwork(
    const std::string& path);

// A network plus its spatial index, sharing one file mapping when the index
// was embedded in the file.
struct LoadedCity {
  std::unique_ptr<RoadNetwork> net;
  std::unique_ptr<SpatialIndex> index;
};

// Loads the network and a spatial index with `cell_size_m` cells. If the
// file embeds a spatial CSR with the same cell size, the index is adopted
// zero-copy from the mapping; otherwise it is built from the loaded
// network. A grid that fails geo::GridSpec::Validate -- a cell size that is
// not finite and positive, or more than geo::kMaxGridCells cells over the
// network's extent -- is InvalidArgument, for the requested and for an
// embedded index alike.
util::StatusOr<LoadedCity> LoadCity(const std::string& path,
                                    double cell_size_m = kDefaultCellSizeM);

// Human-readable report for `deepst_cli inspect`: format version, element
// counts, and whether the file loads zero-copy from an mmap. Returns
// InvalidArgument (without reading further) when the magic is not a
// road-network file's, so the CLI can probe file kinds in sequence. The
// verdict is LoadCity's at the default cell size: when `healthy` is given,
// it is set false for a file that LoadCity rejects (an unsupported version,
// a CRC mismatch, a bad field, an oversized grid), and the report names the
// error -- `deepst inspect` exits nonzero on it.
util::StatusOr<std::string> DescribeRoadNetworkFile(const std::string& path,
                                                    bool* healthy = nullptr);

}  // namespace roadnet
}  // namespace deepst

#endif  // DEEPST_ROADNET_IO_H_
