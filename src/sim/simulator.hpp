#pragma once
// Discrete-event simulation kernel.
//
// Everything time-dependent in the reproduction — traffic demand
// evolution, link-capacity fading, monitoring sampling, orchestration
// cycles, slice arrivals/expiries, EPC deployment delays — is driven by
// one Simulator instance. Events at equal timestamps execute in
// scheduling order (a strict total order), which makes whole runs
// reproducible bit-for-bit from a seed.

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace slices::sim {

/// Handle to a scheduled event; usable to cancel it before it fires.
struct EventId {
  std::uint64_t value = 0;
  friend constexpr auto operator<=>(EventId, EventId) noexcept = default;
};

/// Single-threaded discrete-event simulator.
///
/// The pending queue is a binary min-heap ordered by (time, seq) — the
/// same strict total order the original std::map kernel used, so runs
/// remain bit-for-bit reproducible — with O(log n) push/pop instead of
/// balanced-tree rebalancing and per-event index bookkeeping. cancel()
/// is lazy: the entry stays in the heap and is dropped when it reaches
/// the top (or at the next compaction), which makes cancellation O(1).
class Simulator {
 public:
  using Callback = std::function<void()>;
  using PeriodicCallback = std::function<void(SimTime)>;

  /// Current simulated time. Advances only while run_* executes events.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `cb` at absolute time `t` (>= now, else fires immediately
  /// at now — the kernel never travels backwards).
  EventId schedule_at(SimTime t, Callback cb);

  /// Schedule `cb` after `d` (>= 0) from now.
  EventId schedule_after(Duration d, Callback cb) {
    assert(d >= Duration::zero());
    return schedule_at(now_ + d, std::move(cb));
  }

  /// Cancel a pending event; returns false if it already fired/was
  /// cancelled.
  bool cancel(EventId id);

  /// Register a task firing every `period` (> 0), first at now+offset,
  /// for the life of the simulator. The callback receives the firing
  /// time.
  void add_periodic(Duration period, PeriodicCallback cb, Duration offset = Duration::zero());

  /// Execute the next pending event; false when the queue is empty.
  bool step();

  /// Run all events with time <= `t`, then set now = t.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime t);

  /// Run for a duration from the current time.
  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  /// Time of the earliest pending event, nullopt when none is pending.
  /// Drops cancelled entries off the heap top, so it is not const.
  [[nodiscard]] std::optional<SimTime> next_event_at();

  /// Number of scheduled-and-not-yet-fired events (cancelled events do
  /// not count, even while their heap entry lingers).
  [[nodiscard]] std::size_t pending_events() const noexcept { return live_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const noexcept { return executed_; }

 private:
  struct QueueKey {
    SimTime time;
    std::uint64_t seq;  // tiebreaker: FIFO among same-time events
    friend constexpr auto operator<=>(const QueueKey&, const QueueKey&) noexcept = default;
  };

  struct HeapEntry {
    QueueKey key;
    Callback callback;
  };

  /// std::push_heap builds a max-heap; ordering by *greater* key makes
  /// the heap top the earliest (time, seq).
  static bool heap_after(const HeapEntry& a, const HeapEntry& b) noexcept {
    return b.key < a.key;
  }

  /// Drop cancelled entries sitting on top of the heap.
  void prune_cancelled();
  /// Rebuild the heap when cancelled entries dominate it.
  void maybe_compact();

  void schedule_periodic_firing(std::size_t periodic_index, SimTime at);

  struct PeriodicTask {
    Duration period;
    PeriodicCallback callback;
  };

  SimTime now_ = SimTime::origin();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<HeapEntry> heap_;
  std::unordered_set<std::uint64_t> live_;  // seqs scheduled, not yet fired/cancelled
  std::deque<PeriodicTask> periodics_;  // deque: growth never moves a task
};

}  // namespace slices::sim
