// Shared definitions of the end-to-end serving benchmark: the two prepared
// worlds, the three workloads, and the request stream the prepare step
// writes for one (workload, seed) and the run step replays.
//
// A change to anything in this file changes the prepared inputs, so run.py
// folds it into the cache keys of both worlds and streams.
#ifndef DEEPST_PERFBENCH_COMMON_H_
#define DEEPST_PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/deepst_model.h"
#include "traffic/snapshot.h"
#include "traj/types.h"
#include "util/status.h"

namespace perfbench {

using namespace deepst;

// One generated city + dataset + trained model. The world is fixed (its
// generator seeds are constants of the world), so every run seed serves the
// same trained weights; the run seed only draws the request stream.
struct WorldSpec {
  std::string name;      // "mini" or "full"
  int train_days = 0;    // SplitByDay boundaries of the saved dataset
  int val_days = 0;
  double traffic_cell_m = 0.0;
  double slot_seconds = 1200.0;
  double window_seconds = 1800.0;
  int train_epochs = 0;
};
util::StatusOr<WorldSpec> WorldByName(const std::string& name);

// The configuration `deepst_cli serve` ships: DeepST variant, double
// precision, transition memo on, GEMM blocking on, beam width 4,
// K = max(16, segments / 6).
core::DeepSTConfig ServedModelConfig(int num_segments);

// Share of --seconds spent in the closed-loop capacity phase; the paced
// phase gets the rest, or longer when its rate needs it for 1000+ samples.
inline constexpr double kCapacityShare = 0.3;

enum class Workload { kMiniHot, kFullCold, kMiniLive };

struct WorkloadSpec {
  Workload id = Workload::kMiniHot;
  std::string name;
  std::string world;
  double paced_rate = 0.0;        // Poisson arrivals per second
  double latency_limit_ms = 0.0;  // goodput limit
  int warmup_requests = 0;        // closed loop, untimed
  int capacity_stream = 0;        // entries cycled by the capacity phase
  int min_paced_requests = 0;     // p99 needs >= 1000 samples
  int replay_requests = 0;        // traced direct-layer replay
  int digest_capacity_prefix = 0; // capacity ids covered by the digest
  int setups = 0;                 // set-up repetitions per run
  // The request mix. These are workload assumptions, not measurements of
  // any deployment; README.md ("Assumptions") says what each one is for.
  int pool_trips = 0;             // test trips the repeated queries come from
  double fresh_share = 0.0;       // mini_hot: queries outside the pool
  double score_share = 0.0;       // mini_live: score requests
  double ingest_share = 0.0;      // mini_live: ingest batches
  int ingest_rows = 0;            // mini_live: rows per ingest batch
  int swap_every_requests = 0;    // mini_live: a swap after every this many
                                  // requests, in every phase
};
util::StatusOr<WorkloadSpec> WorkloadByName(const std::string& name);

enum class Kind : uint8_t { kPredict = 0, kScore = 1, kIngest = 2, kSwap = 3 };

// One entry of a request stream. kSwap entries are not sent to the server:
// the load generator calls SnapshotStore::SwapNow when it reaches them.
struct Request {
  Kind kind = Kind::kPredict;
  // Identity of the query for repeat-consistency checks: equal keys mean
  // equal queries (same origin, destination, start time).
  uint64_t key = 0;
  core::RouteQuery query;
  std::vector<traj::Route> routes;                 // kScore
  std::vector<traffic::SpeedObservation> rows;     // kIngest
};

struct Stream {
  std::vector<Request> warmup;
  std::vector<Request> capacity;
  std::vector<Request> paced;
  std::vector<double> paced_due_s;  // arrival offsets from the phase start
  // mini_live: rows already in the WAL when the server starts; set-up
  // replays them into generation 2.
  std::vector<traffic::SpeedObservation> recovered_rows;
};

util::Status SaveStream(const Stream& stream, const std::string& path);
util::StatusOr<Stream> LoadStream(const std::string& path);

// File names inside a prepared world directory.
inline std::string CityPath(const std::string& dir) {
  return dir + "/city.v3";
}
inline std::string DatasetPath(const std::string& dir) {
  return dir + "/dataset.v3";
}
inline std::string ModelPath(const std::string& dir) {
  return dir + "/model.bin";
}

// Prepare steps (world.cc, stream.cc).
util::Status PrepareWorld(const WorldSpec& world, const std::string& out_dir,
                          int threads);
util::Status PrepareStream(const WorkloadSpec& workload, uint64_t seed,
                           double seconds, const std::string& world_dir,
                           const std::string& out_path);

}  // namespace perfbench

#endif  // DEEPST_PERFBENCH_COMMON_H_
