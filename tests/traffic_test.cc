#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "roadnet/grid_city.h"
#include "traffic/congestion_field.h"
#include "traffic/snapshot.h"
#include "traj/generator.h"
#include "util/rng.h"

namespace deepst {
namespace traffic {
namespace {

std::unique_ptr<roadnet::RoadNetwork> SmallCity() {
  roadnet::GridCityConfig cfg;
  cfg.rows = 6;
  cfg.cols = 6;
  cfg.removal_prob = 0.0;
  cfg.oneway_prob = 0.0;
  cfg.seed = 5;
  return roadnet::BuildGridCity(cfg);
}

TEST(CongestionFieldTest, FactorAtLeastOne) {
  auto net = SmallCity();
  CongestionField field(*net, {});
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto s = static_cast<roadnet::SegmentId>(
        rng.UniformInt(static_cast<uint64_t>(net->num_segments())));
    const double t = rng.Uniform(0.0, 10 * kSecondsPerDay);
    EXPECT_GE(field.CongestionFactor(s, t), 1.0);
  }
}

TEST(CongestionFieldTest, RushHourSlowerThanNight) {
  auto net = SmallCity();
  CongestionConfig cfg;
  cfg.noise_level = 0.0;
  cfg.incident_prob = 0.0;
  CongestionField field(*net, cfg);
  // Average factor over all segments at 8am vs 3am, same day.
  double rush = 0.0, night = 0.0;
  for (roadnet::SegmentId s = 0; s < net->num_segments(); ++s) {
    rush += field.CongestionFactor(s, 8 * 3600.0);
    night += field.CongestionFactor(s, 3 * 3600.0);
  }
  EXPECT_GT(rush, night * 1.1);
}

TEST(CongestionFieldTest, RushLevelProfileShape) {
  auto net = SmallCity();
  CongestionField field(*net, {});
  EXPECT_GT(field.RushLevel(8 * 3600.0), field.RushLevel(12 * 3600.0));
  EXPECT_GT(field.RushLevel(18 * 3600.0), field.RushLevel(3 * 3600.0));
  EXPECT_NEAR(field.RushLevel(8 * 3600.0), 1.0, 0.05);
}

TEST(CongestionFieldTest, HotspotsSlowerThanPeriphery) {
  auto net = SmallCity();
  CongestionConfig cfg;
  cfg.noise_level = 0.0;
  cfg.incident_prob = 0.0;
  cfg.num_hotspots = 1;
  CongestionField field(*net, cfg);
  const geo::Point hub = field.hotspot_centers()[0];
  // Closest and farthest segment from the hotspot.
  roadnet::SegmentId close = 0, far = 0;
  double dmin = 1e18, dmax = -1;
  for (roadnet::SegmentId s = 0; s < net->num_segments(); ++s) {
    const double d = net->SegmentMidpoint(s).DistanceTo(hub);
    if (d < dmin) {
      dmin = d;
      close = s;
    }
    if (d > dmax) {
      dmax = d;
      far = s;
    }
  }
  const double t = 8 * 3600.0;
  EXPECT_GT(field.CongestionFactor(close, t),
            field.CongestionFactor(far, t) + 0.2);
}

TEST(CongestionFieldTest, VariesAcrossDaysAtSameTimeOfDay) {
  auto net = SmallCity();
  CongestionConfig cfg;
  cfg.noise_level = 0.0;
  cfg.incident_prob = 0.0;
  CongestionField field(*net, cfg);
  // Same 8am slot on different days must differ somewhere (real-time-ness).
  double max_diff = 0.0;
  for (roadnet::SegmentId s = 0; s < net->num_segments(); ++s) {
    const double a = field.CongestionFactor(s, 8 * 3600.0);
    const double b =
        field.CongestionFactor(s, kSecondsPerDay * 3 + 8 * 3600.0);
    max_diff = std::max(max_diff, std::fabs(a - b));
  }
  EXPECT_GT(max_diff, 0.05);
}

TEST(CongestionFieldTest, SpeedAndTravelTimeConsistent) {
  auto net = SmallCity();
  CongestionField field(*net, {});
  const roadnet::SegmentId s = 3;
  const double t = 9 * 3600.0;
  EXPECT_NEAR(field.TravelTime(s, t),
              net->segment(s).length_m / field.SpeedAt(s, t), 1e-9);
  EXPECT_LE(field.SpeedAt(s, t), net->segment(s).speed_limit_mps + 1e-9);
}

TEST(CongestionFieldTest, DeterministicForSeed) {
  auto net = SmallCity();
  CongestionField a(*net, {});
  CongestionField b(*net, {});
  EXPECT_EQ(a.CongestionFactor(5, 12345.0), b.CongestionFactor(5, 12345.0));
}

TEST(TrafficTensorBuilderTest, ShapeAndEmpty) {
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({1000, 1000});
  geo::GridSpec grid(box, 250.0);
  TrafficTensorBuilder builder(grid);
  nn::Tensor t = builder.Build({});
  EXPECT_EQ(t.ndim(), 3);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 4);
  EXPECT_EQ(t.dim(2), 4);
  EXPECT_DOUBLE_EQ(t.Sum(), 0.0);
}

TEST(TrafficTensorBuilderTest, AveragesSpeedsPerCell) {
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({400, 400});
  geo::GridSpec grid(box, 200.0);
  TrafficTensorBuilder builder(grid, /*speed_norm_mps=*/10.0);
  std::vector<SpeedObservation> obs = {
      {{50, 50}, 0.0, 5.0},   // cell (0,0)
      {{60, 40}, 1.0, 15.0},  // cell (0,0)
      {{350, 350}, 2.0, 10.0}  // cell (1,1)
  };
  nn::Tensor t = builder.Build(obs);
  const int cols = grid.cols();
  // Cell (0,0): avg 10 m/s -> 1.0 normalized.
  EXPECT_NEAR(t[0 * cols + 0], 1.0f, 1e-5);
  // Cell (1,1): avg 10 -> 1.0.
  EXPECT_NEAR(t[1 * cols + 1], 1.0f, 1e-5);
  // Count channel nonzero only where observed.
  EXPECT_GT(t[grid.num_cells() + 0], 0.0f);
  EXPECT_FLOAT_EQ(t[grid.num_cells() + 1], 0.0f);  // cell (0,1) empty
}

TEST(TrafficTensorBuilderTest, SpeedChannelSaturates) {
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({100, 100});
  geo::GridSpec grid(box, 100.0);
  TrafficTensorBuilder builder(grid, 10.0);
  nn::Tensor t = builder.Build({{{50, 50}, 0.0, 1000.0}});
  EXPECT_LE(t[0], 2.0f);
}

TEST(TrafficTensorCacheTest, SlotSharingAndWindow) {
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({400, 400});
  geo::GridSpec grid(box, 200.0);
  TrafficTensorCache cache(grid, /*slot_seconds=*/1200.0,
                           /*window_seconds=*/1800.0);
  // Observation at t=500 in cell (0,0).
  cache.AddObservations({{{50, 50}, 500.0, 10.0}});
  // Slot of t=1500 is [1200,2400); its window is [-600,1200) -> includes the
  // observation.
  const nn::Tensor& t1 = cache.TensorForTime(1500.0);
  EXPECT_GT(t1.Sum(), 0.0);
  // Two times in the same slot share the same tensor object.
  const nn::Tensor& t2 = cache.TensorForTime(2000.0);
  EXPECT_EQ(&t1, &t2);
  // A much later slot has an empty window.
  const nn::Tensor& t3 = cache.TensorForTime(10 * 3600.0);
  EXPECT_DOUBLE_EQ(t3.Sum(), 0.0);
}

TEST(TrafficTensorCacheTest, SlotIndexSaturatesInsteadOfOverflowing) {
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({400, 400});
  TrafficTensorCache cache(geo::GridSpec(box, 200.0), /*slot_seconds=*/1200.0,
                           /*window_seconds=*/1800.0);
  constexpr int kMax = TrafficTensorCache::kMaxSlot;
  EXPECT_EQ(cache.SlotOf(0.0), 0);
  EXPECT_EQ(cache.SlotOf(3599.0), 2);
  EXPECT_EQ(cache.SlotOf(1200.0 * (kMax - 1) + 600.0), kMax - 1);
  EXPECT_EQ(cache.SlotOf(1e300), kMax);
  EXPECT_EQ(cache.SlotOf(std::numeric_limits<double>::infinity()), kMax);
  EXPECT_EQ(cache.SlotOf(-1e300), -kMax);
  EXPECT_TRUE(cache.CheckSlotRange(86400.0).ok());
  EXPECT_EQ(cache.CheckSlotRange(1e300).code(),
            util::Status::Code::kInvalidArgument);
  EXPECT_FALSE(cache.CheckSlotRange(-1e300).ok());
  // A day of 10-microsecond slots does not fit in an int.
  TrafficTensorCache tiny_slots(geo::GridSpec(box, 200.0), 1e-5, 1800.0);
  EXPECT_FALSE(tiny_slots.CheckSlotRange(86400.0).ok());

  // A far-future row lands in the saturated slot; the others keep theirs.
  cache.AddObservations({{{50, 50}, 500.0, 10.0}, {{50, 50}, 1e300, 10.0}});
  EXPECT_TRUE(cache.HasObservations(1500.0));
  EXPECT_GT(cache.TensorForTime(1500.0).Sum(), 0.0);
  EXPECT_FALSE(cache.HasObservations(1e300));
  EXPECT_DOUBLE_EQ(cache.TensorForTime(1e300).Sum(), 0.0);
}

TEST(TrafficTensorCacheTest, CloneBitIdenticalAndIndependent) {
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({800, 800});
  geo::GridSpec grid(box, 200.0);
  TrafficTensorCache cache(grid, 1200.0, 1800.0);
  cache.AddObservations({{{50, 50}, 500.0, 10.0},
                         {{350, 650}, 900.0, 4.0},
                         {{700, 100}, 2500.0, 12.0}});
  auto clone = cache.Clone();
  EXPECT_EQ(clone->latest_observation_time(),
            cache.latest_observation_time());
  for (double t : {1500.0, 3600.0, 7200.0}) {
    const nn::Tensor& a = cache.TensorForTime(t);
    const nn::Tensor& b = clone->TensorForTime(t);
    ASSERT_EQ(a.numel(), b.numel());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             static_cast<size_t>(a.numel()) * sizeof(float)));
  }
  // Mutating the clone must not leak into the source: a new observation in
  // a slot the source has not memoized yet only shows up in the clone.
  clone->AddObservations({{{450, 450}, 5000.0, 2.0}});
  EXPECT_GT(clone->TensorForTime(6500.0).Sum(), 0.0);
  EXPECT_DOUBLE_EQ(cache.TensorForTime(6500.0).Sum(), 0.0);
}

// TSan regression for the published-snapshot reader contract: once
// ingestion is done, any number of threads may call the read API
// concurrently -- including racing to lazily build the SAME slot tensor
// for the first time. Run under tools/check_tsan.sh.
TEST(TrafficTensorCacheTest, ConcurrentReadersAreSafe) {
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({1000, 1000});
  geo::GridSpec grid(box, 125.0);
  TrafficTensorCache cache(grid, 600.0, 1200.0);
  std::vector<SpeedObservation> obs;
  for (int i = 0; i < 500; ++i) {
    const double t = 37.0 * i;
    obs.push_back({{(i * 73) % 1000 + 0.5, (i * 131) % 1000 + 0.5}, t,
                   3.0 + (i % 11)});
  }
  cache.AddObservations(obs);
  constexpr int kThreads = 8;
  std::vector<std::thread> readers;
  std::vector<double> sums(kThreads, 0.0);
  for (int w = 0; w < kThreads; ++w) {
    readers.emplace_back([&cache, &sums, w] {
      double acc = 0.0;
      for (int round = 0; round < 20; ++round) {
        // Every thread walks the same slot sequence, so first builds race.
        for (double t = 700.0; t < 20000.0; t += 600.0) {
          acc += cache.TensorForTime(t).Sum();
          acc += cache.HasObservations(t) ? 1.0 : 0.0;
        }
        acc += cache.latest_observation_time();
      }
      sums[static_cast<size_t>(w)] = acc;
    });
  }
  for (auto& r : readers) r.join();
  for (int w = 1; w < kThreads; ++w) {
    EXPECT_DOUBLE_EQ(sums[0], sums[static_cast<size_t>(w)]);
  }
}

// Reference check for the cache's bucket store. Whatever order and batches
// observations arrive in, each slot's tensor must equal
// TrafficTensorBuilder::Build over that slot's window, with the window's
// observations stably sorted by slot: the accumulation order the cache
// documents.
TEST(TrafficTensorCacheTest, EveryWindowMatchesTheBuilderReference) {
  auto net = SmallCity();
  CongestionField field(*net, {});
  traj::GeneratorConfig gen_cfg;
  gen_cfg.num_days = 2;
  gen_cfg.trips_per_day = 30;
  gen_cfg.seed = 11;
  traj::TripGenerator gen(*net, field, gen_cfg);
  std::vector<SpeedObservation> obs =
      traj::CollectObservations(gen.GenerateDataset());
  ASSERT_GT(obs.size(), 500u);
  util::Rng rng(17);
  rng.Shuffle(&obs);

  constexpr double kSlot = 1200.0;
  constexpr double kWindow = 1800.0;
  const geo::GridSpec grid(net->bounds(), 300.0);
  const TrafficTensorBuilder builder(grid);
  const std::vector<SpeedObservation> last(obs.end() - obs.size() / 7,
                                           obs.end());
  obs.resize(obs.size() - last.size());

  // The shuffle must make some cell's observations arrive out of slot order.
  bool out_of_order = false;
  std::map<int, int> latest_slot;  // cell -> highest slot seen so far
  for (const auto& o : obs) {
    const int slot = static_cast<int>(o.time_s / kSlot);
    auto [it, fresh] = latest_slot.emplace(grid.CellOf(o.pos), slot);
    if (!fresh && slot < it->second) out_of_order = true;
    if (!fresh) it->second = std::max(it->second, slot);
  }
  ASSERT_TRUE(out_of_order);

  // Uneven batches: 1, 3, 9, ... observations.
  TrafficTensorCache cache(grid, kSlot, kWindow);
  for (size_t begin = 0, n = 1; begin < obs.size(); n *= 3) {
    const size_t end = std::min(obs.size(), begin + n);
    cache.AddObservations({obs.begin() + begin, obs.begin() + end});
    begin = end;
  }
  auto clone = cache.Clone();
  clone->AddObservations(last);
  std::vector<SpeedObservation> clone_obs = obs;
  clone_obs.insert(clone_obs.end(), last.begin(), last.end());

  auto expect_reference = [&](TrafficTensorCache* c,
                              const std::vector<SpeedObservation>& arrived) {
    double latest = 0.0;
    for (const auto& o : arrived) latest = std::max(latest, o.time_s);
    int nonempty = 0;
    for (int slot = 0; slot <= c->SlotOf(latest) + 2; ++slot) {
      const double start = slot * kSlot;
      std::vector<SpeedObservation> window;
      for (const auto& o : arrived) {
        if (o.time_s >= start - kWindow && o.time_s < start) {
          window.push_back(o);
        }
      }
      std::stable_sort(window.begin(), window.end(),
                       [c](const SpeedObservation& a,
                           const SpeedObservation& b) {
                         return c->SlotOf(a.time_s) < c->SlotOf(b.time_s);
                       });
      const nn::Tensor want = builder.Build(window);
      const double t = start + 0.5 * kSlot;
      const nn::Tensor& got = c->TensorForTime(t);
      ASSERT_EQ(got.numel(), want.numel());
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                               static_cast<size_t>(got.numel()) *
                                   sizeof(float)))
          << "slot " << slot;
      EXPECT_EQ(c->HasObservations(t), !window.empty()) << "slot " << slot;
      nonempty += window.empty() ? 0 : 1;
    }
    EXPECT_GT(nonempty, 10);
  };
  expect_reference(&cache, obs);
  expect_reference(clone.get(), clone_obs);
}

TEST(TrafficTensorCacheTest, ObservationInOwnSlotExcluded) {
  // The window is [slot_start - w, slot_start): observations *inside* the
  // current slot must not leak into its tensor.
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({100, 100});
  geo::GridSpec grid(box, 100.0);
  TrafficTensorCache cache(grid, 1200.0, 1800.0);
  cache.AddObservations({{{50, 50}, 1300.0, 8.0}});
  const nn::Tensor& t = cache.TensorForTime(1500.0);  // same slot [1200,2400)
  EXPECT_DOUBLE_EQ(t.Sum(), 0.0);
}

}  // namespace
}  // namespace traffic
}  // namespace deepst
