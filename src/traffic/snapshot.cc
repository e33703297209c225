#include "traffic/snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <fstream>
#include <sstream>

#include "util/check.h"
#include "util/fault_injector.h"
#include "util/string_util.h"

namespace deepst {
namespace traffic {

TrafficTensorBuilder::TrafficTensorBuilder(const geo::GridSpec& grid,
                                           double speed_norm_mps,
                                           int count_cap)
    : grid_(grid), speed_norm_mps_(speed_norm_mps), count_cap_(count_cap) {
  DEEPST_CHECK_GT(speed_norm_mps, 0.0);
  DEEPST_CHECK_GT(count_cap, 0);
}

nn::Tensor TrafficTensorBuilder::Build(
    const std::vector<SpeedObservation>& observations) const {
  const int rows = grid_.rows();
  const int cols = grid_.cols();
  std::vector<double> speed_sum(static_cast<size_t>(rows * cols), 0.0);
  std::vector<int> count(static_cast<size_t>(rows * cols), 0);
  for (const auto& obs : observations) {
    const int cell = grid_.CellOf(obs.pos);
    speed_sum[static_cast<size_t>(cell)] += obs.speed_mps;
    ++count[static_cast<size_t>(cell)];
  }
  nn::Tensor out = nn::Tensor::Zeros({2, rows, cols});
  const double count_norm = std::log1p(static_cast<double>(count_cap_));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const size_t i = static_cast<size_t>(r * cols + c);
      if (count[i] > 0) {
        const double avg = speed_sum[i] / count[i];
        out[r * cols + c] =
            static_cast<float>(std::min(avg / speed_norm_mps_, 2.0));
        out[rows * cols + r * cols + c] = static_cast<float>(
            std::min(std::log1p(static_cast<double>(count[i])) / count_norm,
                     1.0));
      }
    }
  }
  return out;
}

TrafficTensorCache::TrafficTensorCache(const geo::GridSpec& grid,
                                       double slot_seconds,
                                       double window_seconds)
    : builder_(grid),
      slot_seconds_(slot_seconds),
      window_seconds_(window_seconds) {
  DEEPST_CHECK_GT(slot_seconds, 0.0);
  DEEPST_CHECK_GT(window_seconds, 0.0);
}

TrafficTensorCache::TrafficTensorCache(const TrafficTensorCache& other,
                                       CloneTag)
    : builder_(other.builder_),
      slot_seconds_(other.slot_seconds_),
      window_seconds_(other.window_seconds_),
      buckets_(other.buckets_),
      latest_time_(other.latest_time_) {}

std::unique_ptr<TrafficTensorCache> TrafficTensorCache::Clone() const {
  return std::unique_ptr<TrafficTensorCache>(
      new TrafficTensorCache(*this, CloneTag{}));
}

void TrafficTensorCache::AddObservations(
    const std::vector<SpeedObservation>& observations) {
  if (observations.empty()) return;
  // Sort (slot, arrival index) pairs so each touched bucket gets one reserve
  // and one contiguous append. The index keeps arrival order inside a
  // bucket -- the accumulation order the tensors are built in.
  std::vector<std::pair<int, uint32_t>> keyed;
  keyed.reserve(observations.size());
  for (uint32_t i = 0; i < observations.size(); ++i) {
    keyed.emplace_back(SlotOf(observations[i].time_s), i);
    latest_time_ = std::max(latest_time_, observations[i].time_s);
  }
  std::sort(keyed.begin(), keyed.end());
  size_t i = 0;
  while (i < keyed.size()) {
    const int slot = keyed[i].first;
    size_t j = i;
    while (j < keyed.size() && keyed[j].first == slot) ++j;
    auto it = std::lower_bound(
        buckets_.begin(), buckets_.end(), slot,
        [](const SlotBucket& b, int s) { return b.slot < s; });
    if (it == buckets_.end() || it->slot != slot) {
      it = buckets_.insert(it, SlotBucket{slot, {}});
    }
    it->obs.reserve(it->obs.size() + (j - i));
    for (size_t k = i; k < j; ++k) {
      it->obs.push_back(observations[keyed[k].second]);
    }
    i = j;
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_.clear();
}

util::Status TrafficTensorCache::CheckSlotRange(double time_s) const {
  const double slot = time_s / slot_seconds_;
  if (slot < kMaxSlot && slot > -kMaxSlot) return util::Status::Ok();
  return util::Status::InvalidArgument(util::StrFormat(
      "time %g s lies past the last of %d traffic slots of %g s", time_s,
      kMaxSlot, slot_seconds_));
}

template <typename Fn>
void TrafficTensorCache::ForEachInWindow(double window_start,
                                         double window_end, Fn&& fn) const {
  const int first_slot = SlotOf(std::max(0.0, window_start));
  const int last_slot = SlotOf(window_end);
  auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), first_slot,
      [](const SlotBucket& b, int s) { return b.slot < s; });
  for (; it != buckets_.end() && it->slot <= last_slot; ++it) {
    for (const auto& obs : it->obs) {
      if (obs.time_s >= window_start && obs.time_s < window_end) fn(obs);
    }
  }
}

bool TrafficTensorCache::HasObservations(double time_s) const {
  // Mirror of the window logic in TensorForTime: [slot_start - window,
  // slot_start) over the slot containing time_s.
  const int slot = SlotOf(time_s);
  const double slot_start = slot * slot_seconds_;
  const double window_start = slot_start - window_seconds_;
  bool found = false;
  ForEachInWindow(window_start, slot_start,
                  [&](const SpeedObservation&) { found = true; });
  return found;
}

const nn::Tensor& TrafficTensorCache::TensorForTime(double time_s) {
  const int slot = SlotOf(time_s);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(slot);
    if (it != cache_.end()) return it->second;
  }
  // Build outside the lock (the expensive part); concurrent builders of the
  // same slot produce identical tensors and the first insert wins.
  // Window [slot_start - window, slot_start).
  const double slot_start = slot * slot_seconds_;
  const double window_start = slot_start - window_seconds_;
  std::vector<SpeedObservation> window_obs;
  ForEachInWindow(window_start, slot_start, [&](const SpeedObservation& obs) {
    window_obs.push_back(obs);
  });
  nn::Tensor built = builder_.Build(window_obs);
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto [pos, inserted] = cache_.emplace(slot, std::move(built));
  (void)inserted;  // A racing builder may have inserted the same content.
  return pos->second;
}

util::StatusOr<std::vector<SpeedObservation>> LoadObservationsCsv(
    const std::string& path) {
  DEEPST_RETURN_IF_ERROR(util::CheckFaultPoint("traffic.load"));
  std::ifstream in(path);
  if (!in.is_open()) return util::Status::IoError("cannot open " + path);
  std::vector<SpeedObservation> observations;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line_no == 1 && line.rfind("trip_id", 0) == 0) continue;  // header
    std::istringstream row(line);
    std::string field;
    double values[4];
    // Field 0 is trip_id (ignored); fields 1..4 are time_s, x, y, speed_mps.
    if (!std::getline(row, field, ',')) {
      return util::Status::InvalidArgument(
          util::StrFormat("%s:%d: empty row", path.c_str(), line_no));
    }
    for (int f = 0; f < 4; ++f) {
      if (!std::getline(row, field, ',')) {
        return util::Status::InvalidArgument(util::StrFormat(
            "%s:%d: expected 5 fields", path.c_str(), line_no));
      }
      char* end = nullptr;
      values[f] = std::strtod(field.c_str(), &end);
      if (end == field.c_str() || *end != '\0' ||
          !std::isfinite(values[f])) {
        return util::Status::InvalidArgument(util::StrFormat(
            "%s:%d: non-numeric field '%s'", path.c_str(), line_no,
            field.c_str()));
      }
    }
    if (std::getline(row, field, ',')) {
      return util::Status::InvalidArgument(util::StrFormat(
          "%s:%d: expected 5 fields, got more", path.c_str(), line_no));
    }
    if (values[0] < 0.0 || values[3] < 0.0) {
      return util::Status::InvalidArgument(util::StrFormat(
          "%s:%d: negative time or speed", path.c_str(), line_no));
    }
    SpeedObservation obs;
    obs.time_s = values[0];
    obs.pos = geo::Point{values[1], values[2]};
    obs.speed_mps = values[3];
    observations.push_back(obs);
  }
  return observations;
}

}  // namespace traffic
}  // namespace deepst
