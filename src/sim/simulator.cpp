#include "sim/simulator.hpp"

#include <algorithm>

namespace slices::sim {

namespace {
/// Below this size the compaction heuristic never kicks in — a tiny
/// heap costs nothing to scan and rebuilds would dominate.
constexpr std::size_t kCompactionFloor = 64;
}  // namespace

EventId Simulator::schedule_at(SimTime t, Callback cb) {
  if (t < now_) t = now_;  // never schedule in the past
  const QueueKey key{t, next_seq_++};
  heap_.push_back(HeapEntry{key, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), heap_after);
  live_.insert(key.seq);
  return EventId{key.seq};
}

bool Simulator::cancel(EventId id) {
  if (live_.erase(id.value) == 0) return false;
  maybe_compact();
  return true;
}

void Simulator::prune_cancelled() {
  while (!heap_.empty() && !live_.contains(heap_.front().key.seq)) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_after);
    heap_.pop_back();
  }
}

void Simulator::maybe_compact() {
  if (heap_.size() < kCompactionFloor || heap_.size() <= 2 * live_.size()) return;
  std::erase_if(heap_, [this](const HeapEntry& e) { return !live_.contains(e.key.seq); });
  std::make_heap(heap_.begin(), heap_.end(), heap_after);
}

void Simulator::add_periodic(Duration period, PeriodicCallback cb, Duration offset) {
  assert(period > Duration::zero());
  periodics_.push_back(PeriodicTask{period, std::move(cb)});
  schedule_periodic_firing(periodics_.size() - 1, now_ + offset);
}

void Simulator::schedule_periodic_firing(std::size_t periodic_index, SimTime at) {
  schedule_at(at, [this, periodic_index, at] {
    PeriodicTask& task = periodics_[periodic_index];
    // The next firing is queued before the callback runs, so it keeps
    // its place ahead of whatever the callback schedules at that time.
    schedule_periodic_firing(periodic_index, at + task.period);
    task.callback(at);
  });
}

std::optional<SimTime> Simulator::next_event_at() {
  prune_cancelled();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().key.time;
}

bool Simulator::step() {
  prune_cancelled();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), heap_after);
  const QueueKey key = heap_.back().key;
  Callback cb = std::move(heap_.back().callback);
  heap_.pop_back();
  live_.erase(key.seq);
  now_ = key.time;
  ++executed_;
  cb();
  return true;
}

std::size_t Simulator::run_until(SimTime t) {
  std::size_t executed = 0;
  while (true) {
    prune_cancelled();
    if (heap_.empty() || heap_.front().key.time > t) break;
    step();
    ++executed;
  }
  if (now_ < t) now_ = t;
  return executed;
}

}  // namespace slices::sim
