#ifndef DEEPST_TRAJ_IO_H_
#define DEEPST_TRAJ_IO_H_

#include <string>
#include <vector>

#include "roadnet/road_network.h"
#include "traj/types.h"
#include "util/status.h"

namespace deepst {
namespace traj {

// Dataset persistence: binary for exact round-trips of generated datasets
// (so training runs are reproducible without regenerating), and CSV exports
// in the common trajectory-dataset layout (one GPS point per line:
// trip_id, time_s, x, y, speed_mps) for external analysis/plotting.

// Writes the fixed-layout mmap-able v3 format (docs/formats.md): one flat
// trip-record section plus shared route-id and GPS-point pools, 8-byte
// aligned with a CRC footer. Loads validate against the mapping and
// materialize each trip with two bulk copies instead of per-element reads.
util::Status SaveDatasetV3(const std::vector<TripRecord>& records,
                           const std::string& path);
// Loads a v3 file. Any other version fails with "unsupported version N in
// PATH", naming `deepst_cli generate`.
util::StatusOr<std::vector<TripRecord>> LoadDataset(const std::string& path);

// Human-readable report for `deepst_cli inspect`: format version, element
// counts, mmap-ability. InvalidArgument on a non-dataset magic. The verdict
// is LoadDataset's: `healthy` (optional) is set false for a file it rejects
// (an unsupported version, a CRC mismatch, a bad record), and the report
// names the error.
util::StatusOr<std::string> DescribeDatasetFile(const std::string& path,
                                                bool* healthy = nullptr);

// Referential-integrity check against a road network: every route segment id
// must be in range and consecutive segments adjacent. Loaders validate
// structure; this validates the dataset against the graph it will be used
// with (they may come from different files).
util::Status ValidateDataset(const std::vector<TripRecord>& records,
                             const roadnet::RoadNetwork& net);

// CSV of GPS points (one row per point).
util::Status ExportGpsCsv(const std::vector<TripRecord>& records,
                          const std::string& path);
// CSV of trips (one row per trip: id, day, start_time, dest_x, dest_y,
// segment count, route as '|'-joined segment ids).
util::Status ExportTripsCsv(const std::vector<TripRecord>& records,
                            const std::string& path);

}  // namespace traj
}  // namespace deepst

#endif  // DEEPST_TRAJ_IO_H_
