// deepst_cli -- command-line front end for the DeepST library.
//
//   deepst_cli generate --out-dir data [--city chengdu|harbin] [--days N]
//       [--trips-per-day N] [--seed S]
//     Writes network.bin (with its spatial index embedded) and dataset.bin
//     in the fixed-layout v3 format (docs/formats.md), plus trips.csv. The
//     other commands load them, so experiments are reproducible without
//     regenerating; a file of any other format version is refused, naming
//     `generate` as the remedy.
//   deepst_cli train --data-dir data --model model.bin
//       [--variant deepst|deepst_c|cssrnn|rnn] [--epochs N] [--hidden N]
//       [--proxies K] [--seed S] [--shard-size N]
//       [--checkpoint-dir D] [--checkpoint-every N] [--resume]
//     --shard-size enables data-parallel training: each minibatch is split
//     into micro-shards of N trips that run concurrently on the --threads
//     workers (bitwise identical for every thread count; 16 pairs well with
//     4 threads). 0 (default) trains on a single graph per batch.
//   deepst_cli evaluate --data-dir data --model model.bin [--variant ...]
//       [--max-trips N]
//   deepst_cli predict --data-dir data --model model.bin --trip INDEX
//       [--variant ...] [--map] [--deadline-ms MS] [--strict]
//       [--overlay SPEC]
//     --overlay answers the query under a what-if traffic scenario (see
//     `serve` below and docs/streaming.md for the close@/scale@ grammar).
//   deepst_cli predict --data-dir data --model model.bin --queries FILE
//       [--variant ...] [--deadline-ms MS] [--strict]
//     FILE holds one test-trip index per line ('#' comments and blank lines
//     ignored); the model is loaded once and every query is predicted in
//     sequence, with a per-query line and an aggregate summary.
//     Prediction runs through the fault-tolerant serving layer
//     (docs/robustness.md): --deadline-ms caps per-query beam-search wall
//     time (best-so-far route, flagged degraded), --strict turns graceful
//     degradations (missing traffic, unresolvable destination) into errors.
//   deepst_cli recover --data-dir data --model model.bin --trip INDEX
//       [--interval-s SECONDS]
//   deepst_cli serve --data-dir data --model model.bin [--variant ...]
//       [--workers N] [--queue-capacity N] [--max-batch N]
//       [--batch-window-us N] [--deadline-ms MS] [--strict]
//       [--watchdog-ms MS] [--hung-ms MS] [--retry-after-ms MS]
//       [--traffic-wal PATH] [--swap-interval-ms MS] [--wal-fsync-bytes N]
//     Long-lived serving daemon (docs/serving.md): requests arrive on stdin
//     (one per line), responses leave on stdout tagged `#<id>`. Commands:
//       predict <origin> <dest_x> <dest_y> <start_t>
//       predict_whatif <origin> <dest_x> <dest_y> <start_t> <overlay>
//       predict_trip <test trip index>
//       score_trip <test trip index>
//       ingest <t,x,y,speed[;t,x,y,speed...]>
//       swap | stats | quit
//     Requests from the stdin stream are pipelined: up to --queue-capacity
//     are in flight at once, so worker batches coalesce across them. The
//     daemon health-checks its input files at startup (exiting nonzero on a
//     failed probe, like `inspect`), sheds load when the bounded queue
//     fills, enforces --deadline-ms end-to-end (queue wait included), and
//     drains gracefully on SIGTERM/SIGINT or `quit` (exit 0).
//     --traffic-wal turns on the live traffic pipeline (docs/streaming.md):
//     `ingest` rows are WAL-appended (the `ok` response is the durability
//     ack) and folded into a fresh snapshot generation on each swap --
//     every --swap-interval-ms in the background, or on the synchronous
//     `swap` command when the cadence is 0. Every query pins one generation
//     at admission (response field gen=G); an existing WAL is replayed at
//     startup into a snapshot bitwise identical to the pre-crash one, and
//     shutdown fsyncs the WAL tail before exiting. `predict_whatif` answers
//     under a counterfactual overlay (close@x0,y0,x1,y1 /
//     scale@x0,y0,x1,y1*F joined by ';') applied to a copy of the pinned
//     snapshot; the response carries what_if=1.
//   deepst_cli inspect FILE [FILE...]
//     Reports each file's kind (road network / dataset / training checkpoint
//     / model parameters / traffic WAL), format version, element counts,
//     CRC status and whether it loads zero-copy from an mmap
//     (docs/formats.md). Exits nonzero when any probed file fails
//     validation (a network or dataset its loader rejects, a CRC mismatch,
//     an unsupported version, a WAL body whose tail was torn or corrupted),
//     so startup health checks can gate on it.
//
// Every command accepts `--threads N` (default 1): compute threads for the
// nn backend. Results are identical for every N; see docs/parallelism.md.
//
// Every model-loading command also accepts `--memo-capacity N`
// (transition-memo cache entries shared across the session pool, default
// 16384, 0 disables; hits are bitwise identical to recomputing).
//
// Every command that reads --data-dir also takes `--train-days N
// --val-days N` (the split) and `--traffic-cell-m M --traffic-slot-s S
// --traffic-window-s S` (the traffic grid and slots: finite and positive, at
// most geo::kMaxGridCells cells over the network, and slots long enough that
// every time in the dataset has an int slot index).
//
// An option that a command does not read is an error: the command exits 1
// naming it, before it loads or writes anything.
//
// Fault injection (tools/check_fault.sh, docs/robustness.md): `--faults
// SPEC` or the DEEPST_FAULTS environment variable arms deterministic fault
// points before the command runs. SPEC is a comma-separated list of
// point:kind[@after][xcount], e.g. `roadnet.load:io_error`.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/mmi.h"
#include "baselines/neural_router.h"
#include "core/checkpoint.h"
#include "core/infer/session.h"
#include "core/serving.h"
#include "core/trainer.h"
#include "eval/metrics.h"
#include "eval/world.h"
#include "nn/backend.h"
#include "nn/serialize.h"
#include "recovery/strs.h"
#include "roadnet/io.h"
#include "serve/server.h"
#include "traffic/overlay.h"
#include "traffic/snapshot.h"
#include "traffic/store.h"
#include "traffic/wal.h"
#include "traj/ascii_map.h"
#include "traj/dataset.h"
#include "traj/io.h"
#include "traj/segment_stats.h"
#include "util/fault_injector.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/shutdown.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace deepst {
namespace cli {
namespace {

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: deepst_cli "
               "<generate|train|evaluate|predict|recover|serve|inspect> "
               "[options]\n"
               "see the header of cli/deepst_cli.cc for per-command "
               "options\n");
  return 2;
}

// Everything the post-generate commands need, loaded from --data-dir.
struct LoadedData {
  std::unique_ptr<roadnet::RoadNetwork> net;
  std::vector<traj::TripRecord> records;
  traj::DatasetSplit split;
  std::unique_ptr<roadnet::SpatialIndex> index;
  std::unique_ptr<traffic::TrafficTensorCache> cache;
  std::unique_ptr<traj::SegmentStatsTable> stats;
  int train_days = 12;
  int val_days = 2;
};

util::StatusOr<LoadedData> LoadData(const util::Flags& flags) {
  const std::string dir = flags.GetString("data-dir");
  if (dir.empty()) {
    return util::Status::InvalidArgument("--data-dir is required");
  }
  LoadedData data;
  // LoadCity checks the spatial index's grid against the network's extent
  // and adopts a v3 file's embedded index.
  auto city = roadnet::LoadCity(dir + "/network.bin");
  if (!city.ok()) return city.status();
  data.net = std::move(city.value().net);
  data.index = std::move(city.value().index);
  auto records = traj::LoadDataset(dir + "/dataset.bin");
  if (!records.ok()) return records.status();
  data.records = std::move(records).value();
  // The two files load independently; cross-check the dataset's segment
  // references against the network it will actually be used with.
  DEEPST_RETURN_IF_ERROR(traj::ValidateDataset(data.records, *data.net));

  auto train_days = flags.GetInt("train-days", 12);
  if (!train_days.ok()) return train_days.status();
  auto val_days = flags.GetInt("val-days", 2);
  if (!val_days.ok()) return val_days.status();
  data.train_days = static_cast<int>(train_days.value());
  data.val_days = static_cast<int>(val_days.value());
  data.split =
      traj::SplitByDay(data.records, data.train_days, data.val_days);

  auto cell = flags.GetDouble("traffic-cell-m", 350.0);
  if (!cell.ok()) return cell.status();
  auto slot = flags.GetDouble("traffic-slot-s", 1200.0);
  if (!slot.ok()) return slot.status();
  auto window = flags.GetDouble("traffic-window-s", 1800.0);
  if (!window.ok()) return window.status();
  if (!(std::isfinite(slot.value()) && slot.value() > 0.0 &&
        std::isfinite(window.value()) && window.value() > 0.0)) {
    return util::Status::InvalidArgument(
        "--traffic-slot-s and --traffic-window-s must be finite and > 0");
  }
  const util::Status grid_ok =
      geo::GridSpec::Validate(data.net->bounds(), cell.value());
  if (!grid_ok.ok()) {
    return util::Status::InvalidArgument("--traffic-cell-m: " +
                                         grid_ok.message());
  }
  geo::GridSpec grid(data.net->bounds(), cell.value());
  data.cache = std::make_unique<traffic::TrafficTensorCache>(
      grid, slot.value(), window.value());
  const std::vector<traffic::SpeedObservation> observations =
      traj::CollectObservations(data.records);
  // Every time the dataset feeds or queries the cache must fall in a slot
  // that --traffic-slot-s can number.
  double latest = 0.0;
  for (const traffic::SpeedObservation& o : observations) {
    latest = std::max(latest, std::abs(o.time_s));
  }
  for (const traj::TripRecord& rec : data.records) {
    latest = std::max(latest, std::abs(rec.trip.start_time_s));
  }
  const util::Status slots_ok = data.cache->CheckSlotRange(latest);
  if (!slots_ok.ok()) {
    return util::Status::InvalidArgument("--traffic-slot-s: " +
                                         slots_ok.message());
  }
  data.cache->AddObservations(observations);
  data.stats =
      std::make_unique<traj::SegmentStatsTable>(*data.net, data.split.train);
  return data;
}

util::StatusOr<core::DeepSTConfig> ModelConfigFromFlags(
    const util::Flags& flags, const LoadedData& data) {
  core::DeepSTConfig base;
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  auto hidden = flags.GetInt("hidden", base.gru_hidden);
  if (!hidden.ok()) return hidden.status();
  if (hidden.value() < 1 || hidden.value() > kIntMax) {
    return util::Status::InvalidArgument(
        "--hidden must be an integer in [1, 2147483647]");
  }
  base.gru_hidden = static_cast<int>(hidden.value());
  auto proxies =
      flags.GetInt("proxies", std::max(16, data.net->num_segments() / 6));
  if (!proxies.ok()) return proxies.status();
  if (proxies.value() < 2 || proxies.value() > kIntMax) {
    return util::Status::InvalidArgument(
        "--proxies must be an integer in [2, 2147483647]");
  }
  base.num_proxies = static_cast<int>(proxies.value());

  auto memo = flags.GetInt("memo-capacity", base.memo_cache_capacity);
  if (!memo.ok()) return memo.status();
  if (memo.value() < 0) {
    return util::Status::InvalidArgument("--memo-capacity must be >= 0");
  }
  base.memo_cache_capacity = memo.value();

  const std::string variant = flags.GetString("variant", "deepst");
  if (variant == "deepst") return baselines::DeepStConfigOf(base);
  if (variant == "deepst_c") return baselines::DeepStCConfigOf(base);
  if (variant == "cssrnn") return baselines::CssrnnConfigOf(base);
  if (variant == "rnn") return baselines::RnnConfigOf(base);
  return util::Status::InvalidArgument("unknown --variant '" + variant + "'");
}

int CmdGenerate(const util::Flags& flags) {
  const std::string dir = flags.GetString("out-dir");
  if (dir.empty()) return Fail(util::Status::InvalidArgument(
      "--out-dir is required"));
  const std::string city = flags.GetString("city", "chengdu");
  eval::WorldConfig cfg = city == "harbin" ? eval::HarbinMiniWorld()
                                           : eval::ChengduMiniWorld();
  auto days = flags.GetInt("days", cfg.generator.num_days);
  if (!days.ok()) return Fail(days.status());
  cfg.generator.num_days = static_cast<int>(days.value());
  auto tpd = flags.GetInt("trips-per-day", cfg.generator.trips_per_day);
  if (!tpd.ok()) return Fail(tpd.status());
  cfg.generator.trips_per_day = static_cast<int>(tpd.value());
  auto seed = flags.GetInt("seed", static_cast<int64_t>(cfg.generator.seed));
  if (!seed.ok()) return Fail(seed.status());
  cfg.generator.seed = static_cast<uint64_t>(seed.value());

  eval::World world(cfg);
  util::Status s = roadnet::SaveRoadNetworkV3(
      world.net(), dir + "/network.bin", &world.index());
  if (!s.ok()) return Fail(s);
  s = traj::SaveDatasetV3(world.records(), dir + "/dataset.bin");
  if (!s.ok()) return Fail(s);
  s = traj::ExportTripsCsv(world.records(), dir + "/trips.csv");
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s/network.bin (%d segments), dataset.bin (%zu trips), "
              "trips.csv\n",
              dir.c_str(), world.net().num_segments(),
              world.records().size());
  return 0;
}

int CmdTrain(const util::Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());
  auto cfg = ModelConfigFromFlags(flags, data.value());
  if (!cfg.ok()) return Fail(cfg.status());
  const std::string model_path = flags.GetString("model");
  if (model_path.empty()) {
    return Fail(util::Status::InvalidArgument("--model is required"));
  }
  core::DeepSTModel model(*data.value().net, cfg.value(),
                          data.value().cache.get());
  core::TrainerConfig tcfg;
  auto epochs = flags.GetInt("epochs", tcfg.max_epochs);
  if (!epochs.ok()) return Fail(epochs.status());
  tcfg.max_epochs = static_cast<int>(epochs.value());
  auto seed = flags.GetInt("seed", static_cast<int64_t>(tcfg.seed));
  if (!seed.ok()) return Fail(seed.status());
  tcfg.seed = static_cast<uint64_t>(seed.value());
  tcfg.checkpoint_dir = flags.GetString("checkpoint-dir");
  auto every = flags.GetInt("checkpoint-every", tcfg.checkpoint_every);
  if (!every.ok()) return Fail(every.status());
  tcfg.checkpoint_every = static_cast<int>(every.value());
  tcfg.resume = flags.GetBool("resume");
  if (tcfg.resume && tcfg.checkpoint_dir.empty()) {
    return Fail(util::Status::InvalidArgument(
        "--resume requires --checkpoint-dir"));
  }
  auto shard = flags.GetInt("shard-size", tcfg.micro_shard_size);
  if (!shard.ok()) return Fail(shard.status());
  if (shard.value() < 0) {
    return Fail(util::Status::InvalidArgument("--shard-size must be >= 0"));
  }
  tcfg.micro_shard_size = static_cast<int>(shard.value());
  tcfg.verbose = true;
  // Graceful stop: SIGTERM/SIGINT rolls the partial epoch back to the last
  // epoch boundary, flushes a final checkpoint, and exits 0 -- the same
  // signal plumbing the serve daemon drains on (util/shutdown.h).
  util::InstallShutdownHandlers();
  tcfg.stop_requested = [] { return util::ShutdownRequested(); };
  core::Trainer trainer(&model, tcfg);
  core::TrainResult result =
      trainer.Fit(data.value().split.train, data.value().split.validation);
  if (!result.status.ok()) {
    // The model still holds the last good parameters; save them so the run
    // is not a total loss, but report the failure.
    (void)nn::SaveParameters(model, model_path);
    return Fail(result.status);
  }
  util::Status s = nn::SaveParameters(model, model_path);
  if (!s.ok()) return Fail(s);
  if (result.interrupted) {
    const std::string flushed =
        tcfg.checkpoint_dir.empty()
            ? std::string("no checkpoint flushed (no --checkpoint-dir)")
            : "flushed " + tcfg.checkpoint_dir + "/ckpt_latest.bin";
    std::printf("interrupted (signal %d) after %zu epochs: rolled back to "
                "the last epoch boundary, %s, saved params to %s; rerun "
                "with --resume to continue\n",
                util::ShutdownSignal(), result.epochs.size(), flushed.c_str(),
                model_path.c_str());
    return 0;
  }
  // Aggregate training throughput across the run (batch loops only, no
  // validation): each epoch reports transitions and transitions/sec.
  int64_t transitions = 0;
  double train_seconds = 0.0;
  for (const auto& e : result.epochs) {
    transitions += e.transitions;
    if (e.transitions_per_sec > 0.0) {
      train_seconds +=
          static_cast<double>(e.transitions) / e.transitions_per_sec;
    }
  }
  std::printf("trained %lld params in %.1fs (%zu epochs, best %d), "
              "saved to %s\n",
              static_cast<long long>(model.NumParams()),
              result.total_seconds, result.epochs.size(), result.best_epoch,
              model_path.c_str());
  if (transitions > 0 && train_seconds > 0.0) {
    std::printf("throughput: %lld transitions in %.1fs training time "
                "(%.0f transitions/s)\n",
                static_cast<long long>(transitions), train_seconds,
                static_cast<double>(transitions) / train_seconds);
  }
  return 0;
}

util::StatusOr<std::unique_ptr<core::DeepSTModel>> LoadModel(
    const util::Flags& flags, const LoadedData& data) {
  auto cfg = ModelConfigFromFlags(flags, data);
  if (!cfg.ok()) return cfg.status();
  // O(params) path: no random-init draws for parameters the file overwrites.
  return core::DeepSTModel::LoadFromFile(*data.net, cfg.value(),
                                         data.cache.get(),
                                         flags.GetString("model"));
}

int CmdEvaluate(const util::Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());
  auto model = LoadModel(flags, data.value());
  if (!model.ok()) return Fail(model.status());
  auto max_trips = flags.GetInt("max-trips", 500);
  if (!max_trips.ok()) return Fail(max_trips.status());
  util::Rng rng(7);
  eval::MetricAccumulator acc;
  for (const auto* rec : data.value().split.test) {
    if (acc.count >= max_trips.value()) break;
    if (rec->trip.route.size() < 2) continue;
    auto route =
        model.value()->PredictRoute(eval::QueryFor(rec->trip), &rng);
    acc.Add(rec->trip.route, route);
  }
  std::printf("test trips: %d\nrecall@n: %.3f\naccuracy: %.3f\n", acc.count,
              acc.mean_recall(), acc.mean_accuracy());
  return 0;
}

util::StatusOr<core::ServingConfig> ServingConfigFromFlags(
    const util::Flags& flags) {
  core::ServingConfig scfg;
  auto deadline = flags.GetDouble("deadline-ms", 0.0);
  if (!deadline.ok()) return deadline.status();
  scfg.deadline_ms = deadline.value();
  scfg.strict = flags.GetBool("strict");
  return scfg;
}

// Batch prediction: one model load amortized over a file of test-trip
// indices. Each line prints the query's accuracy; the footer aggregates.
int PredictBatch(const LoadedData& data, core::ServingContext* serving,
                 const std::string& queries_path) {
  std::ifstream in(queries_path);
  if (!in) {
    return Fail(util::Status::NotFound("cannot open --queries file '" +
                                       queries_path + "'"));
  }
  const auto& test = data.split.test;
  if (test.empty()) return Fail(util::Status::NotFound("empty test split"));
  std::vector<size_t> indices;
  std::string line;
  while (std::getline(in, line)) {
    const size_t b = line.find_first_not_of(" \t\r\n");
    if (b == std::string::npos || line[b] == '#') continue;
    const size_t e = line.find_last_not_of(" \t\r\n");
    const std::string trimmed = line.substr(b, e - b + 1);
    char* endp = nullptr;
    const long long idx = std::strtoll(trimmed.c_str(), &endp, 10);
    if (endp == trimmed.c_str() || *endp != '\0' || idx < 0) {
      return Fail(util::Status::InvalidArgument(
          "bad trip index '" + trimmed + "' in " + queries_path));
    }
    indices.push_back(static_cast<size_t>(idx) % test.size());
  }
  if (indices.empty()) {
    return Fail(util::Status::InvalidArgument(
        "no trip indices in '" + queries_path + "'"));
  }
  util::Stopwatch watch;
  eval::MetricAccumulator acc;
  for (size_t idx : indices) {
    const auto* rec = test[idx];
    core::RouteQuery query = eval::QueryFor(rec->trip);
    auto result = serving->Predict(query);
    if (!result.ok()) return Fail(result.status());
    const traj::Route& route = result.value().route;
    acc.Add(rec->trip.route, route);
    std::printf("trip %4zu: truth %2zu predicted %2zu accuracy %.3f%s%s\n",
                idx, rec->trip.route.size(), route.size(),
                eval::Accuracy(rec->trip.route, route),
                result.value().degraded() ? " degraded: " : "",
                result.value().degraded()
                    ? core::DegradationsToString(result.value().degradations)
                          .c_str()
                    : "");
  }
  const double seconds = watch.ElapsedSeconds();
  std::printf("queries: %zu\nrecall@n: %.3f\naccuracy: %.3f\n"
              "prediction time: %.3fs (%.1f queries/s)\n",
              indices.size(), acc.mean_recall(), acc.mean_accuracy(), seconds,
              static_cast<double>(indices.size()) / std::max(seconds, 1e-9));
  return 0;
}

int CmdPredict(const util::Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());
  auto model = LoadModel(flags, data.value());
  if (!model.ok()) return Fail(model.status());
  auto scfg = ServingConfigFromFlags(flags);
  if (!scfg.ok()) return Fail(scfg.status());
  core::ServingContext serving(model.value().get(),
                               data.value().index.get(), scfg.value());
  const std::string queries_path = flags.GetString("queries");
  if (!queries_path.empty()) {
    return PredictBatch(data.value(), &serving, queries_path);
  }
  auto trip_index = flags.GetInt("trip", 0);
  if (!trip_index.ok()) return Fail(trip_index.status());
  const auto& test = data.value().split.test;
  if (test.empty()) return Fail(util::Status::NotFound("empty test split"));
  const auto* rec =
      test[static_cast<size_t>(trip_index.value()) % test.size()];
  core::RouteQuery query = eval::QueryFor(rec->trip);
  const std::string overlay_spec = flags.GetString("overlay");
  if (!overlay_spec.empty()) {
    auto overlay = traffic::ParseOverlaySpec(overlay_spec);
    if (!overlay.ok()) return Fail(overlay.status());
    query.overlay = std::move(overlay).value();
  }
  auto result = serving.Predict(query);
  if (!result.ok()) return Fail(result.status());
  const traj::Route& route = result.value().route;
  std::printf("query: origin %d -> (%.0f, %.0f) at t=%.0fs%s\n", query.origin,
              query.destination.x, query.destination.y, query.start_time_s,
              result.value().what_if ? " (what-if overlay applied)" : "");
  std::printf("truth    (%2zu):", rec->trip.route.size());
  for (auto s : rec->trip.route) std::printf(" %d", s);
  std::printf("\npredicted(%2zu):", route.size());
  for (auto s : route) std::printf(" %d", s);
  std::printf("\naccuracy: %.3f\n",
              eval::Accuracy(rec->trip.route, route));
  if (result.value().degraded()) {
    std::printf("degraded: %s\n",
                core::DegradationsToString(result.value().degradations)
                    .c_str());
  }
  if (flags.GetBool("map")) {
    traj::AsciiMap map(*data.value().net, 22, 46);
    map.DrawNetwork();
    map.DrawRoute(rec->trip.route, '+');
    map.DrawRoute(route, '#');
    map.MarkPoint(query.destination, 'X');
    std::printf("%s('#' predicted, '+' truth, 'X' destination)\n",
                map.Render().c_str());
  }
  return 0;
}

int CmdRecover(const util::Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());
  auto model = LoadModel(flags, data.value());
  if (!model.ok()) return Fail(model.status());
  auto trip_index = flags.GetInt("trip", 0);
  if (!trip_index.ok()) return Fail(trip_index.status());
  auto interval = flags.GetDouble("interval-s", 240.0);
  if (!interval.ok()) return Fail(interval.status());
  const auto& test = data.value().split.test;
  if (test.empty()) return Fail(util::Status::NotFound("empty test split"));
  const auto* rec =
      test[static_cast<size_t>(trip_index.value()) % test.size()];
  auto sparse = traj::DownsampleByInterval(rec->gps, interval.value());
  recovery::DeepStSpatialScorer scorer(model.value().get());
  recovery::StrsRecovery strs_plus(*data.value().net, *data.value().index,
                                   *data.value().stats, &scorer);
  util::Rng rng(7);
  auto recovered = strs_plus.RecoverTrajectory(
      sparse, rec->trip.destination, rec->trip.start_time_s, &rng);
  if (!recovered.ok()) return Fail(recovered.status());
  std::printf("sparse points: %zu (of %zu)\ntruth    (%2zu):",
              sparse.size(), rec->gps.size(), rec->trip.route.size());
  for (auto s : rec->trip.route) std::printf(" %d", s);
  std::printf("\nrecovered(%2zu):", recovered.value().size());
  for (auto s : recovered.value()) std::printf(" %d", s);
  std::printf("\naccuracy: %.3f\n",
              eval::Accuracy(rec->trip.route, recovered.value()));
  return 0;
}

// Probes the file against each known format in turn; a wrong-magic probe
// returns InvalidArgument and falls through to the next kind. `healthy`
// (optional) is set false when the file is recognized and describable but
// fails validation (CRC mismatch, unsupported version, unloadable payload)
// -- each probe re-initializes it, so only the winning probe's verdict
// sticks.
util::StatusOr<std::string> DescribeAnyFile(const std::string& path,
                                            bool* healthy = nullptr) {
  if (healthy != nullptr) *healthy = true;
  auto probe = roadnet::DescribeRoadNetworkFile(path, healthy);
  if (probe.ok() || probe.status().code() != util::Status::Code::kInvalidArgument)
    return probe;
  probe = traj::DescribeDatasetFile(path, healthy);
  if (probe.ok() || probe.status().code() != util::Status::Code::kInvalidArgument)
    return probe;
  probe = core::DescribeCheckpointFile(path, healthy);
  if (probe.ok() || probe.status().code() != util::Status::Code::kInvalidArgument)
    return probe;
  probe = nn::DescribeParamsFile(path, healthy);
  if (probe.ok() || probe.status().code() != util::Status::Code::kInvalidArgument)
    return probe;
  probe = traffic::DescribeWalFile(path, healthy);
  if (probe.ok() || probe.status().code() != util::Status::Code::kInvalidArgument)
    return probe;
  if (healthy != nullptr) *healthy = true;  // unrecognized, not unhealthy
  return util::Status::InvalidArgument(
      "unrecognized file (not a road network, dataset, checkpoint, "
      "parameter, or traffic WAL file): " + path);
}

int CmdInspect(const util::Flags& flags) {
  if (flags.positional().empty()) {
    return Fail(util::Status::InvalidArgument(
        "inspect needs at least one file argument"));
  }
  int failures = 0;
  for (const std::string& path : flags.positional()) {
    bool healthy = true;
    auto report = DescribeAnyFile(path, &healthy);
    if (!report.ok()) {
      std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
      ++failures;
      continue;
    }
    std::fputs(report.value().c_str(), stdout);
    if (!healthy) {
      // The report itself names what failed (CRC mismatch, version); the
      // exit status is what health checks gate on.
      std::fprintf(stderr, "error: %s failed validation\n", path.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

// -- serve -------------------------------------------------------------------

bool ParseI64(const std::string& s, int64_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseF64(const std::string& s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

// `ingest` row blob: rows joined by ';', each exactly `t,x,y,speed_mps`.
// Semantic validation (finite, non-negative) is the store's job; this only
// rejects rows that do not parse as four numbers.
bool ParseIngestRows(const std::string& blob,
                     std::vector<traffic::SpeedObservation>* rows) {
  std::stringstream frames(blob);
  std::string row;
  while (std::getline(frames, row, ';')) {
    if (row.empty()) continue;
    std::stringstream fields(row);
    std::string field;
    double f[4] = {0.0, 0.0, 0.0, 0.0};
    int n = 0;
    while (std::getline(fields, field, ',')) {
      if (n >= 4 || !ParseF64(field, &f[n])) return false;
      ++n;
    }
    if (n != 4) return false;
    traffic::SpeedObservation obs;
    obs.time_s = f[0];
    obs.pos = {f[1], f[2]};
    obs.speed_mps = f[3];
    rows->push_back(obs);
  }
  return !rows->empty();
}

// One response line per request, tagged with the request id so pipelined
// clients can match them up: `#<id> ok ...` or `#<id> error ...`.
void PrintServeResult(int64_t id,
                      util::StatusOr<core::ServingResult> outcome) {
  if (!outcome.ok()) {
    std::printf("#%lld error %s\n", static_cast<long long>(id),
                outcome.status().ToString().c_str());
    std::fflush(stdout);
    return;
  }
  const core::ServingResult& res = outcome.value();
  std::string line = util::StrFormat("#%lld ok", static_cast<long long>(id));
  if (!res.route.empty()) {
    line += util::StrFormat(" route_len=%zu route=", res.route.size());
    for (size_t i = 0; i < res.route.size(); ++i) {
      if (i > 0) line += ',';
      line += std::to_string(res.route[i]);
    }
  }
  if (!res.scores.empty()) {
    line += " scores=";
    for (size_t i = 0; i < res.scores.size(); ++i) {
      if (i > 0) line += ',';
      line += util::StrFormat("%.6f", res.scores[i]);
    }
  }
  if (res.ingested > 0 || res.ingest_rejected > 0) {
    line += util::StrFormat(" ingested=%lld rejected=%lld",
                            static_cast<long long>(res.ingested),
                            static_cast<long long>(res.ingest_rejected));
  }
  if (res.snapshot_generation > 0) {
    line += util::StrFormat(
        " gen=%llu", static_cast<unsigned long long>(res.snapshot_generation));
  }
  if (res.what_if) line += " what_if=1";
  line += util::StrFormat(" latency_ms=%.3f", res.latency_ms);
  if (res.degraded()) {
    line += " degraded=" + core::DegradationsToString(res.degradations);
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// Long-lived serving daemon: bounded queue + cross-client batching workers
// (serve::Server) behind a stdin line protocol. See the header comment for
// the protocol and docs/serving.md for the architecture.
int CmdServe(const util::Flags& flags) {
  const std::string dir = flags.GetString("data-dir");
  const std::string model_path = flags.GetString("model");
  if (dir.empty() || model_path.empty()) {
    return Fail(util::Status::InvalidArgument(
        "serve requires --data-dir and --model"));
  }
  // Startup health check: refuse to serve from files `deepst inspect` would
  // flag (CRC mismatch, unsupported version, unreadable payload).
  for (const std::string& path :
       {dir + "/network.bin", dir + "/dataset.bin", model_path}) {
    bool healthy = true;
    auto report = DescribeAnyFile(path, &healthy);
    if (!report.ok()) return Fail(report.status());
    if (!healthy) {
      std::fprintf(stderr,
                   "error: startup health check failed for %s:\n%s",
                   path.c_str(), report.value().c_str());
      return 1;
    }
  }
  auto data = LoadData(flags);
  if (!data.ok()) return Fail(data.status());
  auto model = LoadModel(flags, data.value());
  if (!model.ok()) return Fail(model.status());
  auto scfg = ServingConfigFromFlags(flags);
  if (!scfg.ok()) return Fail(scfg.status());
  // The server owns the deadline end-to-end (queue wait counts against it)
  // and forwards each request's remaining budget, so the context itself
  // runs without a second, overlapping budget.
  core::ServingConfig sc = scfg.value();
  const double deadline_ms = sc.deadline_ms;
  sc.deadline_ms = 0.0;

  // Live traffic pipeline (docs/streaming.md): --traffic-wal arms ingest.
  // The store's generation 1 is a clone of the dataset-seeded cache (the
  // same bytes static serving reads), the WAL replays into generation 2
  // before the first query is admitted, and every published swap bumps the
  // transition-memo epoch so memoized logits never cross generations.
  std::unique_ptr<traffic::SnapshotStore> store;
  const std::string wal_path = flags.GetString("traffic-wal");
  if (!wal_path.empty()) {
    traffic::ObservationWal::Options wal_opts;
    auto fsync_bytes =
        flags.GetInt("wal-fsync-bytes", wal_opts.fsync_interval_bytes);
    if (!fsync_bytes.ok()) return Fail(fsync_bytes.status());
    if (fsync_bytes.value() < 0) {
      return Fail(
          util::Status::InvalidArgument("--wal-fsync-bytes must be >= 0"));
    }
    wal_opts.fsync_interval_bytes = fsync_bytes.value();
    auto swap_ms = flags.GetDouble("swap-interval-ms", 0.0);
    if (!swap_ms.ok()) return Fail(swap_ms.status());

    std::vector<traffic::SpeedObservation> replayed;
    traffic::WalReplayReport report;
    auto wal = traffic::ObservationWal::Open(wal_path, wal_opts, &replayed,
                                             &report);
    if (!wal.ok()) return Fail(wal.status());
    traffic::SnapshotStoreConfig store_cfg;
    store_cfg.swap_interval_ms = swap_ms.value();
    store = std::make_unique<traffic::SnapshotStore>(
        data.value().cache->Clone(), std::move(wal).value(), store_cfg);
    core::DeepSTModel* served_model = model.value().get();
    store->set_on_swap(
        [served_model](uint64_t) { served_model->InvalidateTransitionCache(); });
    if (!replayed.empty()) {
      store->QueueRecovered(std::move(replayed));
      store->SwapNow();
    }
    store->Start();
    std::fprintf(
        stderr,
        "live traffic: wal %s replayed %llu frames / %llu rows%s, "
        "generation %llu, swap %s\n",
        wal_path.c_str(), static_cast<unsigned long long>(report.frames),
        static_cast<unsigned long long>(report.rows),
        report.torn_tail
            ? util::StrFormat(" (torn tail: %llu bytes dropped at offset "
                              "%llu)",
                              static_cast<unsigned long long>(
                                  report.dropped_bytes),
                              static_cast<unsigned long long>(
                                  report.torn_tail_offset))
                  .c_str()
            : "",
        static_cast<unsigned long long>(store->generation()),
        store_cfg.swap_interval_ms > 0.0
            ? util::StrFormat("every %.0f ms", store_cfg.swap_interval_ms)
                  .c_str()
            : "on demand");
  }

  core::ServingContext serving(model.value().get(), data.value().index.get(),
                               sc, store.get());

  serve::ServeOptions opts;
  auto workers = flags.GetInt("workers", opts.workers);
  if (!workers.ok()) return Fail(workers.status());
  opts.workers = static_cast<int>(workers.value());
  auto capacity = flags.GetInt("queue-capacity",
                               static_cast<int64_t>(opts.queue_capacity));
  if (!capacity.ok()) return Fail(capacity.status());
  auto max_batch =
      flags.GetInt("max-batch", static_cast<int64_t>(opts.max_batch));
  if (!max_batch.ok()) return Fail(max_batch.status());
  auto window = flags.GetInt("batch-window-us", opts.batch_window_us);
  if (!window.ok()) return Fail(window.status());
  auto retry_after = flags.GetDouble("retry-after-ms", opts.retry_after_ms);
  if (!retry_after.ok()) return Fail(retry_after.status());
  auto watchdog = flags.GetDouble("watchdog-ms", opts.watchdog_period_ms);
  if (!watchdog.ok()) return Fail(watchdog.status());
  auto hung = flags.GetDouble("hung-ms", opts.hung_query_ms);
  if (!hung.ok()) return Fail(hung.status());
  if (workers.value() < 1 || capacity.value() < 1 || max_batch.value() < 1) {
    return Fail(util::Status::InvalidArgument(
        "--workers, --queue-capacity and --max-batch must be >= 1"));
  }
  opts.queue_capacity = static_cast<size_t>(capacity.value());
  opts.max_batch = static_cast<size_t>(max_batch.value());
  opts.batch_window_us = window.value();
  opts.retry_after_ms = retry_after.value();
  opts.watchdog_period_ms = watchdog.value();
  opts.hung_query_ms = hung.value();
  opts.default_deadline_ms = deadline_ms;

  serve::Server server(&serving, opts);
  util::InstallShutdownHandlers();
  server.Start();
  std::fprintf(stderr,
               "serving: %d workers, queue %zu, batch <=%zu (window %lld us)"
               ", deadline %.1f ms, watchdog hung>%.1f ms\n",
               opts.workers, opts.queue_capacity, opts.max_batch,
               static_cast<long long>(opts.batch_window_us),
               opts.default_deadline_ms, opts.hung_query_ms);
  // Force weight packing now (instead of on the first query) and log the
  // active inference configuration next to the health-gate banner.
  {
    const auto packed = model.value()->shared_infer_weights();
    const auto memo_stats = model.value()->transition_memo_stats();
    std::fprintf(
        stderr,
        "inference: packed weights %.2f MiB, GEMM panels %.2f MiB, "
        "transition memo capacity %lld entries\n",
        static_cast<double>(packed->packed_weight_bytes) / (1024.0 * 1024.0),
        static_cast<double>(packed->packed_panel_bytes) / (1024.0 * 1024.0),
        static_cast<long long>(memo_stats.capacity));
  }

  const auto& test = data.value().split.test;
  struct InFlight {
    int64_t id = 0;
    std::future<util::StatusOr<core::ServingResult>> future;
  };
  std::deque<InFlight> inflight;
  // Print every already-resolved response in submission order (all = block
  // for the rest too, the drain path).
  auto flush_responses = [&inflight](bool all) {
    while (!inflight.empty()) {
      InFlight& f = inflight.front();
      if (!all && f.future.wait_for(std::chrono::seconds(0)) !=
                      std::future_status::ready) {
        break;
      }
      PrintServeResult(f.id, f.future.get());
      inflight.pop_front();
    }
  };
  int64_t next_id = 0;
  std::string line;
  while (!util::ShutdownRequested()) {
    if (!std::getline(std::cin, line)) {
      if (util::ShutdownRequested() || std::cin.eof() || std::cin.bad()) {
        break;
      }
      std::cin.clear();  // EINTR from an unrelated signal: retry the read
      continue;
    }
    std::istringstream iss(line);
    std::vector<std::string> tok;
    for (std::string t; iss >> t;) tok.push_back(t);
    if (tok.empty() || tok[0][0] == '#') continue;
    const std::string& cmd = tok[0];
    if (cmd == "quit") break;
    if (cmd == "stats") {
      const core::ServingStats st = serving.stats();
      std::printf("%s\n", server.snapshot().ToJson().c_str());
      std::printf("{\"queries\": %lld, \"failures\": %lld, \"degraded\": "
                  "%lld, \"outstanding_leases\": %lld}\n",
                  static_cast<long long>(st.queries),
                  static_cast<long long>(st.failures),
                  static_cast<long long>(st.degraded),
                  static_cast<long long>(
                      model.value()->outstanding_session_leases()));
      std::fflush(stdout);
      continue;
    }
    if (cmd == "swap") {
      // Synchronous: drain the pipeline first so every ingest acked above
      // this line is folded in, then publish. The next admitted query pins
      // the new generation.
      if (store == nullptr) {
        std::printf("error swap unavailable (serve without --traffic-wal)\n");
      } else {
        flush_responses(/*all=*/true);
        std::printf("swap generation=%llu\n",
                    static_cast<unsigned long long>(store->SwapNow()));
      }
      std::fflush(stdout);
      continue;
    }
    const int64_t id = next_id++;
    core::ServingRequest req;
    bool parsed = false;
    int64_t trip = 0;
    if ((cmd == "predict" && tok.size() == 5) ||
        (cmd == "predict_whatif" && tok.size() == 6)) {
      int64_t origin = 0;
      parsed = ParseI64(tok[1], &origin) &&
               ParseF64(tok[2], &req.query.destination.x) &&
               ParseF64(tok[3], &req.query.destination.y) &&
               ParseF64(tok[4], &req.query.start_time_s);
      req.query.origin = static_cast<roadnet::SegmentId>(origin);
      if (parsed && cmd == "predict_whatif") {
        auto overlay = traffic::ParseOverlaySpec(tok[5]);
        if (!overlay.ok()) {
          std::printf("#%lld error %s\n", static_cast<long long>(id),
                      overlay.status().ToString().c_str());
          std::fflush(stdout);
          continue;
        }
        req.query.overlay = std::move(overlay).value();
      }
    } else if (cmd == "ingest" && tok.size() == 2) {
      req.kind = core::ServingRequest::Kind::kIngest;
      parsed = ParseIngestRows(tok[1], &req.observations);
    } else if ((cmd == "predict_trip" || cmd == "score_trip") &&
               tok.size() == 2 && !test.empty() &&
               ParseI64(tok[1], &trip) && trip >= 0) {
      const auto* rec = test[static_cast<size_t>(trip) % test.size()];
      req.query = eval::QueryFor(rec->trip);
      if (cmd == "score_trip") {
        req.kind = core::ServingRequest::Kind::kScore;
        req.routes = {rec->trip.route};
      }
      parsed = true;
    }
    if (!parsed) {
      std::printf("#%lld error bad request '%s'\n",
                  static_cast<long long>(id), line.c_str());
      std::fflush(stdout);
      continue;
    }
    inflight.push_back({id, server.Submit(std::move(req))});
    flush_responses(/*all=*/false);
    // Backpressure: cap outstanding responses at the queue depth so the
    // pipeline still coalesces batches without growing without bound.
    while (inflight.size() > opts.queue_capacity) {
      PrintServeResult(inflight.front().id, inflight.front().future.get());
      inflight.pop_front();
    }
  }
  // Shutdown order: force the WAL tail durable first (a SIGTERM must not
  // lose acked ingests even if the drain stalls), drain in-flight requests
  // (late ingests re-dirty the tail), stop the aggregator, then sync once
  // more so everything acked in the meantime is on disk at exit.
  if (store != nullptr) (void)store->SyncWal();
  flush_responses(/*all=*/true);
  server.Shutdown();
  if (store != nullptr) {
    store->Stop();
    const util::Status wal_sync = store->SyncWal();
    if (!wal_sync.ok()) {
      std::fprintf(stderr, "error: wal sync at shutdown: %s\n",
                   wal_sync.ToString().c_str());
    }
  }
  std::fprintf(stderr, "drained: %s\n", server.snapshot().ToJson().c_str());
  const int64_t leaked = model.value()->outstanding_session_leases();
  if (leaked != 0) {
    std::fprintf(stderr, "error: %lld session leases leaked\n",
                 static_cast<long long>(leaked));
    return 1;
  }
  return 0;
}

// A command and the options it reads. Every command also takes --threads
// and --faults; Main rejects any other option before the command loads or
// writes anything.
struct Command {
  const char* name;
  int (*run)(const util::Flags&);
  std::vector<std::vector<std::string>> flag_groups;
};

int Main(int argc, const char* const* argv) {
  if (argc < 2) return Usage();
  const std::vector<std::string> data_flags = {
      "data-dir",       "train-days",     "val-days",
      "traffic-cell-m", "traffic-slot-s", "traffic-window-s"};
  const std::vector<std::string> model_flags = {"model", "variant", "hidden",
                                                "proxies", "memo-capacity"};
  const std::vector<std::string> serving_flags = {"deadline-ms", "strict"};
  const Command commands[] = {
      {"generate",
       CmdGenerate,
       {{"out-dir", "city", "days", "trips-per-day", "seed"}}},
      {"train",
       CmdTrain,
       {data_flags, model_flags,
        {"epochs", "seed", "checkpoint-dir", "checkpoint-every", "resume",
         "shard-size"}}},
      {"evaluate", CmdEvaluate, {data_flags, model_flags, {"max-trips"}}},
      {"predict",
       CmdPredict,
       {data_flags, model_flags, serving_flags,
        {"queries", "trip", "overlay", "map"}}},
      {"recover",
       CmdRecover,
       {data_flags, model_flags, {"trip", "interval-s"}}},
      {"serve",
       CmdServe,
       {data_flags, model_flags, serving_flags,
        {"traffic-wal", "wal-fsync-bytes", "swap-interval-ms", "workers",
         "queue-capacity", "max-batch", "batch-window-us", "retry-after-ms",
         "watchdog-ms", "hung-ms"}}},
      {"inspect", CmdInspect, {}},
  };
  const std::string name = argv[1];
  const Command* command = nullptr;
  for (const Command& c : commands) {
    if (name == c.name) command = &c;
  }
  if (command == nullptr) return Usage();
  auto flags = util::Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) return Fail(flags.status());
  std::vector<std::string> known = {"threads", "faults"};
  for (const auto& group : command->flag_groups) {
    known.insert(known.end(), group.begin(), group.end());
  }
  util::Status s = flags.value().RejectUnknown(known);
  if (!s.ok()) return Fail(s);
  auto threads = flags.value().GetInt("threads", 1);
  if (!threads.ok()) return Fail(threads.status());
  nn::SetBackendThreads(static_cast<int>(threads.value()));
  // Deterministic fault injection for robustness testing: both channels arm
  // the same process-wide injector (the flag wins on conflicting points).
  if (const char* env = std::getenv("DEEPST_FAULTS");
      env != nullptr && env[0] != '\0') {
    s = util::FaultInjector::Instance().ArmFromSpec(env);
    if (!s.ok()) return Fail(s);
  }
  const std::string faults = flags.value().GetString("faults");
  if (!faults.empty()) {
    s = util::FaultInjector::Instance().ArmFromSpec(faults);
    if (!s.ok()) return Fail(s);
  }
  return command->run(flags.value());
}

}  // namespace
}  // namespace cli
}  // namespace deepst

int main(int argc, char** argv) { return deepst::cli::Main(argc, argv); }
