#ifndef NETOUT_TESTS_THREAD_RECORDING_INDEX_H_
#define NETOUT_TESTS_THREAD_RECORDING_INDEX_H_

// A MetaPathIndex decorator that records every thread that looked
// something up, then forwards to the wrapped index (or misses, when it
// wraps none). Materialize evaluates every row through the index, so
// the recorded set shows whether an operator stayed on the calling
// thread or fanned out over a pool — the check that keeps a
// thread-count grid from quietly running serial in every cell.

#include <chrono>
#include <cstdint>
#include <optional>
#include <set>
#include <string_view>
#include <thread>

#include "common/sync.h"
#include "metapath/index_iface.h"

namespace netout {

class ThreadRecordingIndex : public MetaPathIndex {
 public:
  /// `inner` (borrowed, may be null: every lookup misses) answers the
  /// lookups; `concurrent` is what SupportsConcurrentUse() reports.
  ///
  /// A caller that drains a fanned-out operator's shards itself before
  /// the pool's workers are scheduled (common on a loaded host, where a
  /// shard of index hits is tens of microseconds) leaves one thread in
  /// the set. With `patience`, the thread that built the recorder sleeps
  /// kDawdle on each lookup while it is the only thread seen, up to
  /// `patience` in total, which gives the workers time to take a shard.
  /// An operator that never fans out costs at most `patience`.
  static constexpr std::chrono::microseconds kDawdle{50};
  /// Patience for a run expected to fan out: a few hundred rows' worth.
  static constexpr std::chrono::microseconds kFanOutPatience{100'000};
  explicit ThreadRecordingIndex(
      const MetaPathIndex* inner = nullptr, bool concurrent = true,
      std::chrono::microseconds patience = std::chrono::microseconds{0})
      : inner_(inner),
        concurrent_(concurrent),
        owner_(std::this_thread::get_id()),
        patience_left_(patience) {}

  std::optional<IndexHit> Lookup(const TwoStepKey& key,
                                 LocalId row) const override {
    Record();
    return inner_ == nullptr ? std::nullopt : inner_->Lookup(key, row);
  }
  std::optional<IndexHit> LookupAt(const TwoStepKey& key, LocalId row,
                                   std::uint64_t reader_epoch) const override {
    Record();
    return inner_ == nullptr ? std::nullopt
                             : inner_->LookupAt(key, row, reader_epoch);
  }
  void Remember(const TwoStepKey& key, LocalId row,
                const SparseVector& vector) const override {
    if (inner_ != nullptr) inner_->Remember(key, row, vector);
  }
  void RememberAt(const TwoStepKey& key, LocalId row,
                  const SparseVector& vector,
                  std::uint64_t writer_epoch) const override {
    if (inner_ != nullptr) inner_->RememberAt(key, row, vector, writer_epoch);
  }
  std::size_t MemoryBytes() const override {
    return inner_ == nullptr ? 0 : inner_->MemoryBytes();
  }
  std::uint64_t epoch() const override {
    return inner_ == nullptr ? 0 : inner_->epoch();
  }
  std::string_view Name() const override {
    return inner_ == nullptr ? MetaPathIndex::Name() : inner_->Name();
  }
  bool SupportsConcurrentUse() const override { return concurrent_; }

  std::set<std::thread::id> threads() const {
    MutexLock lock(mutex_);
    return threads_;
  }

 private:
  void Record() const {
    const std::thread::id self = std::this_thread::get_id();
    bool dawdle = false;
    {
      MutexLock lock(mutex_);
      threads_.insert(self);
      if (self == owner_ && threads_.size() < 2 &&
          patience_left_ >= kDawdle) {
        patience_left_ -= kDawdle;
        dawdle = true;
      }
    }
    if (dawdle) std::this_thread::sleep_for(kDawdle);
  }

  const MetaPathIndex* const inner_;
  const bool concurrent_;
  const std::thread::id owner_;
  mutable Mutex mutex_;
  mutable std::set<std::thread::id> threads_ NETOUT_GUARDED_BY(mutex_);
  mutable std::chrono::microseconds patience_left_ NETOUT_GUARDED_BY(mutex_);
};

}  // namespace netout

#endif  // NETOUT_TESTS_THREAD_RECORDING_INDEX_H_
