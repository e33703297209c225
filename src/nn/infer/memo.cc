#include "nn/infer/memo.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace deepst {
namespace nn {
namespace infer {

namespace {

// splitmix64 finalizer: full-avalanche 64-bit mix.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

MemoKey MixKey(const MemoKey& k, uint64_t v) {
  MemoKey r;
  r.a = Mix64(k.a + 0x9e3779b97f4a7c15ull * (v + 1));
  r.b = Mix64(k.b ^ (0xc2b2ae3d27d4eb4full * (v + 2)));
  return r;
}

MemoKey HashBytesKey(const void* data, size_t len, const MemoKey& seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  // Two FNV-1a streams with decorrelated seeds, finalized through Mix64.
  uint64_t h1 = 0xcbf29ce484222325ull ^ seed.a;
  uint64_t h2 = 0xaf63bd4c8601b7dfull ^ seed.b;
  for (size_t i = 0; i < len; ++i) {
    h1 = (h1 ^ p[i]) * 0x100000001b3ull;
    h2 = (h2 + p[i] + 1) * 0x100000001b3ull;
  }
  MemoKey r;
  r.a = Mix64(h1 ^ len);
  r.b = Mix64(h2 + (static_cast<uint64_t>(len) << 32));
  return r;
}

TransitionMemoCache::TransitionMemoCache(int64_t logits_len, int num_layers,
                                         int64_t hidden_dim, int64_t capacity)
    : logits_len_(logits_len),
      num_layers_(num_layers),
      hidden_dim_(hidden_dim),
      entry_floats_(logits_len + static_cast<int64_t>(num_layers) * hidden_dim),
      sets_(std::max<int64_t>(1, capacity / (kShards * kWays))),
      shards_(new Shard[kShards]) {
  DEEPST_CHECK(logits_len > 0 && num_layers > 0 && hidden_dim > 0);
  for (int s = 0; s < kShards; ++s) {
    shards_[s].ways.resize(static_cast<size_t>(sets_ * kWays));
    shards_[s].data.resize(static_cast<size_t>(sets_ * kWays * entry_floats_));
  }
}

void TransitionMemoCache::Invalidate() {
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

void TransitionMemoCache::CopyOut(const Shard& shard, int64_t way_index,
                                  float* logits_out,
                                  float* const* states_out) const {
  const float* src = shard.data.data() + way_index * entry_floats_;
  std::memcpy(logits_out, src, static_cast<size_t>(logits_len_) *
                                   sizeof(float));
  src += logits_len_;
  for (int l = 0; l < num_layers_; ++l, src += hidden_dim_) {
    std::memcpy(states_out[l], src,
                static_cast<size_t>(hidden_dim_) * sizeof(float));
  }
}

void TransitionMemoCache::CopyIn(Shard* shard, int64_t way_index,
                                 const float* logits,
                                 const float* const* states) {
  float* dst = shard->data.data() + way_index * entry_floats_;
  std::memcpy(dst, logits, static_cast<size_t>(logits_len_) * sizeof(float));
  dst += logits_len_;
  for (int l = 0; l < num_layers_; ++l, dst += hidden_dim_) {
    std::memcpy(dst, states[l],
                static_cast<size_t>(hidden_dim_) * sizeof(float));
  }
}

bool TransitionMemoCache::Lookup(const MemoKey& key, uint64_t epoch,
                                 float* logits_out,
                                 float* const* states_out) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = ShardOf(key);
  const int64_t base = SetOf(key) * kWays;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (int w = 0; w < kWays; ++w) {
      Way& way = shard.ways[static_cast<size_t>(base + w)];
      if (way.epoch == epoch && way.key == key) {
        way.tick = ++shard.tick;
        CopyOut(shard, base + w, logits_out, states_out);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void TransitionMemoCache::Insert(const MemoKey& key, uint64_t epoch,
                                 const float* logits,
                                 const float* const* states) {
  Shard& shard = ShardOf(key);
  const int64_t base = SetOf(key) * kWays;
  std::lock_guard<std::mutex> lock(shard.mu);
  // Reuse the way already holding this key, else an empty way, else evict
  // the set's LRU tick.
  int64_t victim = -1;
  for (int w = 0; w < kWays && victim < 0; ++w) {
    const Way& way = shard.ways[static_cast<size_t>(base + w)];
    if (way.epoch != 0 && way.key == key) victim = base + w;
  }
  for (int w = 0; w < kWays && victim < 0; ++w) {
    if (shard.ways[static_cast<size_t>(base + w)].epoch == 0) {
      victim = base + w;
    }
  }
  if (victim < 0) {
    victim = base;
    for (int w = 1; w < kWays; ++w) {
      if (shard.ways[static_cast<size_t>(base + w)].tick <
          shard.ways[static_cast<size_t>(victim)].tick) {
        victim = base + w;
      }
    }
  }
  Way& way = shard.ways[static_cast<size_t>(victim)];
  if (epoch > shard.live_epoch) {
    shard.live_epoch = epoch;
    shard.live = 0;
  }
  if (way.epoch == shard.live_epoch) --shard.live;
  if (epoch == shard.live_epoch) ++shard.live;
  way.key = key;
  way.epoch = epoch;
  way.tick = ++shard.tick;
  CopyIn(&shard, victim, logits, states);
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

MemoStats TransitionMemoCache::stats() const {
  MemoStats s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.epoch = epoch_.load(std::memory_order_acquire);
  s.capacity = sets_ * kWays * kShards;
  for (int i = 0; i < kShards; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    if (shards_[i].live_epoch == s.epoch) s.entries += shards_[i].live;
  }
  return s;
}

}  // namespace infer
}  // namespace nn
}  // namespace deepst
