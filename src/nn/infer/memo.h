#ifndef DEEPST_NN_INFER_MEMO_H_
#define DEEPST_NN_INFER_MEMO_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace deepst {
namespace nn {
namespace infer {

// 128-bit memoization key. A transition distribution is a pure function of
// (model weights, context tensors, token prefix), so the key is built as an
// incremental hash chain: a context signature over the exact context tensor
// bytes, then one MixKey per token fed. Hashing the raw float bytes means a
// traffic-snapshot change produces new keys by construction; weight changes
// are covered by the epoch (DeepSTModel invalidates on pool retirement).
struct MemoKey {
  uint64_t a = 0;
  uint64_t b = 0;

  bool operator==(const MemoKey& o) const { return a == o.a && b == o.b; }
};

// Extends a key by one 64-bit value (e.g. a token); splitmix64-style
// finalizers on both halves keep the chain well mixed.
MemoKey MixKey(const MemoKey& k, uint64_t v);
// Folds `len` raw bytes into a key (context tensor signatures).
MemoKey HashBytesKey(const void* data, size_t len, const MemoKey& seed);

// Counter snapshot; hits + misses == lookups holds exactly (each Lookup
// increments lookups and exactly one of hits/misses before returning).
struct MemoStats {
  int64_t lookups = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t invalidations = 0;
  uint64_t epoch = 0;
  int64_t capacity = 0;  // entries (0 = cache disabled/absent)
  int64_t entries = 0;   // entries of the current epoch, <= capacity
};

// Shared transition-distribution cache for the inference fast path: maps a
// MemoKey to the post-step value of one hypothesis — the [N_max] logits row
// plus the [layers, H] hidden state — so a hit skips every GEMV of the step
// AND leaves a state the next step can continue from. Entries are copies of
// kernel outputs, so a hit is bitwise identical to recomputing (the kernels
// are row-local and batch-invariant; parity is asserted in quant_test).
//
// Layout: `kShards` independently-locked shards, each a 2-way
// set-associative array with per-way LRU ticks. Lock hold times are one
// entry copy (~(N_max + layers*H) floats), so a session pool hammering the
// cache contends only on same-set probes.
//
// Epochs: every entry carries the epoch it was inserted under. Invalidate()
// bumps the global epoch (O(1) wholesale invalidation — no sweep); Lookup
// and Insert both take the epoch the *query* pinned at PrepareContexts time,
// so an in-flight query keeps a self-consistent view across a swap and a
// stale-epoch entry is never served to a new-epoch query. Epoch 0 is
// reserved for empty ways.
class TransitionMemoCache {
 public:
  // `capacity` is the total entry budget; rounded up so each shard holds at
  // least one 2-way set.
  TransitionMemoCache(int64_t logits_len, int num_layers, int64_t hidden_dim,
                      int64_t capacity);

  int64_t logits_len() const { return logits_len_; }
  int num_layers() const { return num_layers_; }
  int64_t hidden_dim() const { return hidden_dim_; }

  // Epoch queries pin at PrepareContexts time.
  uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  // Wholesale invalidation (traffic-snapshot or model-weight swap): bumps
  // the epoch so every existing entry stops matching.
  void Invalidate();

  // On hit, copies the entry into logits_out ([logits_len] floats) and
  // states_out[l] ([hidden_dim] floats per layer) and refreshes LRU.
  bool Lookup(const MemoKey& key, uint64_t epoch, float* logits_out,
              float* const* states_out);
  // Inserts (or refreshes) an entry under `epoch`, evicting the set's LRU
  // way. An insert tagged with an already-stale epoch is harmless: no
  // current-epoch lookup can match it.
  void Insert(const MemoKey& key, uint64_t epoch, const float* logits,
              const float* const* states);

  MemoStats stats() const;

 private:
  static constexpr int kShards = 8;
  static constexpr int kWays = 2;

  struct Way {
    MemoKey key;
    uint64_t epoch = 0;  // 0 = empty
    uint64_t tick = 0;
  };
  struct Shard {
    std::mutex mu;
    std::vector<Way> ways;    // [sets * kWays]
    std::vector<float> data;  // [sets * kWays, entry_floats]
    uint64_t tick = 0;
    // Number of ways holding live_epoch, the newest epoch inserted here;
    // they are the shard's entries while live_epoch is the current epoch.
    uint64_t live_epoch = 0;
    int64_t live = 0;
  };

  Shard& ShardOf(const MemoKey& key) {
    return shards_[static_cast<size_t>(key.a % kShards)];
  }
  int64_t SetOf(const MemoKey& key) const {
    return static_cast<int64_t>(key.b % static_cast<uint64_t>(sets_));
  }
  void CopyOut(const Shard& shard, int64_t way_index, float* logits_out,
               float* const* states_out) const;
  void CopyIn(Shard* shard, int64_t way_index, const float* logits,
              const float* const* states);

  int64_t logits_len_;
  int num_layers_;
  int64_t hidden_dim_;
  int64_t entry_floats_;
  int64_t sets_;  // per shard
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> epoch_{1};
  mutable std::atomic<int64_t> lookups_{0};
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  mutable std::atomic<int64_t> insertions_{0};
  mutable std::atomic<int64_t> invalidations_{0};
};

}  // namespace infer
}  // namespace nn
}  // namespace deepst

#endif  // DEEPST_NN_INFER_MEMO_H_
