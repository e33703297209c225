#ifndef DEEPST_ROADNET_IO_H_
#define DEEPST_ROADNET_IO_H_

#include <memory>
#include <string>

#include "roadnet/road_network.h"
#include "roadnet/spatial_index.h"
#include "util/status.h"

namespace deepst {
namespace roadnet {

// Binary (de)serialization of road networks, so a procedurally generated (or
// externally converted) network can be stored once and shared across runs
// and tools. The format is versioned; Load rejects unknown versions.
//
// v1/v2 are the streaming record formats (v2 adds a CRC32 footer). v3 is the
// fixed-layout mmap-able format (docs/formats.md): flat sections for
// vertices, segments, the polyline point pool, CSR adjacency, and optionally
// a precomputed spatial-index CSR. Loading a v3 file maps it and serves
// topology straight out of the mapping -- no per-segment heap allocation.

// Writes the streaming v2 format.
util::Status SaveRoadNetwork(const RoadNetwork& net, const std::string& path);

// Writes the fixed-layout v3 format. When `index` is non-null its cell CSR
// is embedded so loads skip spatial-index construction entirely.
util::Status SaveRoadNetworkV3(const RoadNetwork& net, const std::string& path,
                               const SpatialIndex* index = nullptr);

// Loads any supported version; a v3 file is mapped zero-copy (with a
// buffered fallback, util::MappedFile).
util::StatusOr<std::unique_ptr<RoadNetwork>> LoadRoadNetwork(
    const std::string& path);

// A network plus its spatial index, sharing one file mapping when both came
// out of a v3 file.
struct LoadedCity {
  std::unique_ptr<RoadNetwork> net;
  std::unique_ptr<SpatialIndex> index;
};

// Loads the network and a spatial index with `cell_size_m` cells. If the
// file is v3 and embeds a spatial CSR with the same cell size, the index is
// adopted zero-copy from the mapping; otherwise it is built from the loaded
// network. A grid that fails geo::GridSpec::Validate -- a cell size that is
// not finite and positive, or more than geo::kMaxGridCells cells over the
// network's extent -- is InvalidArgument, for the requested and for an
// embedded index alike.
util::StatusOr<LoadedCity> LoadCity(const std::string& path,
                                    double cell_size_m = 250.0);

// Human-readable report for `deepst_cli inspect`: format version, element
// counts, CRC status, and whether the file loads zero-copy from an mmap.
// Returns InvalidArgument (without reading further) when the magic is not a
// road-network file's, so the CLI can probe file kinds in sequence. When
// `healthy` is given, it is set false for files that describe but fail
// validation (CRC mismatch, unsupported version), so probes can gate on the
// file being servable -- `deepst inspect` exits nonzero on it.
util::StatusOr<std::string> DescribeRoadNetworkFile(const std::string& path,
                                                    bool* healthy = nullptr);

}  // namespace roadnet
}  // namespace deepst

#endif  // DEEPST_ROADNET_IO_H_
