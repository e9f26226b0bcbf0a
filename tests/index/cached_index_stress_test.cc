// Mixed lookup/remember/evict stress on the sharded CachedIndex at
// 1/2/4/8 threads. Run under TSAN and ASAN by scripts/check_sanitizers.sh
// (ctest labels: concurrency, cache). Correctness oracle: every entry's
// payload is a pure function of its key, so any hit whose content does
// not match its key proves a torn read, a cross-key mixup, or a
// use-after-evict.

#include "index/cached_index.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace netout {
namespace {

TwoStepKey MakeKey(EdgeTypeId id) {
  const EdgeStep step{id, Direction::kForward};
  return TwoStepKey{step, step};
}

// The oracle payload for (key id, row): nnz and values derive from both.
SparseVector OracleVec(EdgeTypeId id, LocalId row) {
  const std::size_t n = 1 + (static_cast<std::size_t>(id) + row) % 24;
  std::vector<LocalId> indices(n);
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    indices[i] = static_cast<LocalId>(i);
    values[i] = static_cast<double>(id) * 100000.0 +
                static_cast<double>(row) * 100.0 + static_cast<double>(i);
  }
  return SparseVector::FromSorted(std::move(indices), std::move(values));
}

void CheckHit(const IndexHit& hit, EdgeTypeId id, LocalId row) {
  const SparseVector expect = OracleVec(id, row);
  ASSERT_EQ(hit.nnz(), expect.nnz());
  for (std::size_t i = 0; i < hit.nnz(); ++i) {
    ASSERT_EQ(hit.indices[i], expect.indices()[i]);
    ASSERT_EQ(hit.values[i], expect.values()[i]);
  }
}

// Each thread walks its own deterministic sequence of (key, row) pairs
// over a shared key space: lookup first, remember on miss, and hold
// every Nth hit across subsequent operations so pinned reads overlap
// concurrent evictions. The tiny budget keeps the cache thrashing.
void RunStress(std::size_t num_threads, std::size_t num_shards) {
  CachedIndex::Options options;
  options.capacity_bytes = 48 * 1024;  // small: constant eviction
  options.num_shards = num_shards;
  CachedIndex tiny(nullptr, options);

  constexpr std::size_t kOpsPerThread = 4000;
  constexpr EdgeTypeId kKeySpace = 37;
  constexpr LocalId kRowSpace = 17;
  std::atomic<std::uint64_t> checked{0};

  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<IndexHit> held;  // pins overlapping later evictions
      std::uint64_t state = 0x9e3779b9u * (t + 1);
      for (std::size_t op = 0; op < kOpsPerThread; ++op) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const EdgeTypeId id = static_cast<EdgeTypeId>(
            (state >> 33) % kKeySpace);
        const LocalId row = static_cast<LocalId>((state >> 17) % kRowSpace);
        const std::optional<IndexHit> hit = tiny.Lookup(MakeKey(id), row);
        if (hit.has_value()) {
          CheckHit(*hit, id, row);
          checked.fetch_add(1, std::memory_order_relaxed);
          if (op % 16 == 0) held.push_back(*hit);
        } else {
          tiny.Remember(MakeKey(id), row, OracleVec(id, row));
        }
        if (held.size() > 64) held.clear();
      }
      // Held pins must still read correctly after all the churn.
      for (const IndexHit& pinned : held) {
        ASSERT_GE(pinned.nnz(), 1u);
        (void)pinned.values[pinned.nnz() - 1];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const CachedIndex::Stats stats = tiny.stats();
  EXPECT_EQ(stats.hits, checked.load());
  EXPECT_GE(stats.insertions, stats.evictions);
  EXPECT_EQ(stats.insertions - stats.evictions, tiny.num_entries());
  EXPECT_LE(tiny.MemoryBytes(), options.capacity_bytes);
}

TEST(CachedIndexStress, MixedOps1Thread) { RunStress(1, 8); }
TEST(CachedIndexStress, MixedOps2Threads) { RunStress(2, 8); }
TEST(CachedIndexStress, MixedOps4Threads) { RunStress(4, 8); }
TEST(CachedIndexStress, MixedOps8Threads) { RunStress(8, 8); }
// Worst-case contention: every thread hammering one mutex-guarded shard.
TEST(CachedIndexStress, MixedOps8ThreadsSingleShard) { RunStress(8, 1); }

// Regression for the Remember() admission check: it reads shard.budget,
// which the shard protocol puts under shard.mu, but used to do so
// without the lock — an unlocked read racing the writers that mutate
// shard state under mu. Oversized inserts (bigger than any shard's
// whole budget) race normal lookup/remember churn: every one must be
// rejected and accounted, none may be admitted, and the per-shard byte
// ceiling must hold throughout. Runs under TSAN via the cache label.
TEST(CachedIndexStress, OversizedRemembersRejectedUnderRace) {
  CachedIndex::Options options;
  options.capacity_bytes = 8 * 1024;  // 2 KiB per shard
  options.num_shards = 4;
  CachedIndex cache(nullptr, options);

  // ~16 KiB payload: never admissible in any shard.
  const auto oversized = [](EdgeTypeId id) {
    const std::size_t n = 1024;
    std::vector<LocalId> indices(n);
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      indices[i] = static_cast<LocalId>(i);
      values[i] = static_cast<double>(id);
    }
    return SparseVector::FromSorted(std::move(indices), std::move(values));
  };

  // Disjoint key spaces so a wrongly admitted oversized entry could only
  // surface as an unexpected hit on an id >= 100.
  constexpr EdgeTypeId kOversizedBase = 100;
  std::atomic<std::uint64_t> oversized_attempts{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t op = 0; op < 1500; ++op) {
        if ((op + t) % 3 == 0) {
          const EdgeTypeId id =
              static_cast<EdgeTypeId>(kOversizedBase + (op + t) % 7);
          cache.Remember(MakeKey(id), 0, oversized(id));
          oversized_attempts.fetch_add(1, std::memory_order_relaxed);
          EXPECT_FALSE(cache.Lookup(MakeKey(id), 0).has_value());
        } else {
          const EdgeTypeId id = static_cast<EdgeTypeId>((op + t) % 13);
          const LocalId row = static_cast<LocalId>(op % 7);
          const std::optional<IndexHit> hit = cache.Lookup(MakeKey(id), row);
          if (hit.has_value()) {
            CheckHit(*hit, id, row);
          } else {
            cache.Remember(MakeKey(id), row, OracleVec(id, row));
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const CachedIndex::Stats stats = cache.stats();
  EXPECT_EQ(stats.rejected_too_large, oversized_attempts.load());
  EXPECT_LE(cache.MemoryBytes(), options.capacity_bytes);
  EXPECT_EQ(stats.insertions - stats.evictions, cache.num_entries());
}

// Concurrent Clear() against readers/writers: pins must keep payloads
// valid and the cache must stay internally consistent.
TEST(CachedIndexStress, ClearWhileReadingAndWriting) {
  CachedIndex::Options options;
  options.capacity_bytes = 48 * 1024;
  options.num_shards = 4;
  CachedIndex cache(nullptr, options);

  std::atomic<bool> stop{false};
  std::thread clearer([&] {
    while (!stop.load(std::memory_order_relaxed)) cache.Clear();
  });
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t op = 0; op < 2000; ++op) {
        const EdgeTypeId id = static_cast<EdgeTypeId>((op + t) % 13);
        const LocalId row = static_cast<LocalId>(op % 7);
        const std::optional<IndexHit> hit = cache.Lookup(MakeKey(id), row);
        if (hit.has_value()) {
          CheckHit(*hit, id, row);
        } else {
          cache.Remember(MakeKey(id), row, OracleVec(id, row));
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  stop.store(true);
  clearer.join();
  cache.Clear();
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(cache.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace netout
