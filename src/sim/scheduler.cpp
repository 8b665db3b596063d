#include "sim/scheduler.hpp"

#include <algorithm>
#include <chrono>

namespace malnet::sim {

namespace {

// Heap order: the earliest (t, seq) on top.
struct Later {
  template <typename K>
  bool operator()(const K& a, const K& b) const {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }
};

}  // namespace

EventScheduler::~EventScheduler() {
  // Indexed, not iterated: a capture's destructor may still schedule.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (s.destroy == nullptr) continue;
    const Thunk destroy = s.destroy;
    s.invoke = s.destroy = nullptr;
    destroy(s.buf);
  }
}

void EventScheduler::Lane::push(const Key& k) {
  if (size == ring.size()) {
    std::vector<Key> bigger(std::max<std::size_t>(16, ring.size() * 2));
    for (std::size_t i = 0; i < size; ++i) {
      bigger[i] = ring[(head + i) & (ring.size() - 1)];
    }
    ring.swap(bigger);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = k;
  ++size;
}

std::uint32_t EventScheduler::lane_for(std::int64_t delay_us) {
  std::uint32_t spare = kNoLane;
  for (std::uint32_t i = 0; i < kLanes; ++i) {
    if (lane_delay_us_[i] == delay_us) return i;
    if (spare == kNoLane && lanes_[i].empty()) spare = i;
  }
  // Re-keying only an empty lane keeps every lane sorted by (t, seq).
  if (spare != kNoLane) lane_delay_us_[spare] = delay_us;
  return spare;
}

std::uint32_t EventScheduler::free_slot() {
  if (free_.empty()) {
    slots_.emplace_back();
    free_.push_back(static_cast<std::uint32_t>(slots_.size() - 1));
  }
  return free_.back();
}

EventId EventScheduler::commit(SimTime t, std::int64_t delay_us, std::uint32_t slot,
                               Thunk invoke, Thunk destroy) {
  free_.pop_back();
  Slot& s = slots_[slot];
  s.invoke = invoke;
  s.destroy = destroy;
  s.tag = current_tag_;
  const Key k{std::max(t, now_), seq_++, slot, s.gen};
  // The lane is chosen here, with no user code (a capture's constructor)
  // left to run before the push that follows.
  const std::uint32_t lane = delay_us < 0 ? kNoLane : lane_for(delay_us);
  if (lane == kNoLane) {
    heap_.push_back(k);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  } else {
    Lane& l = lanes_[lane];
    if (l.empty()) {
      heap_.push_back(Key{k.t, k.seq, kLaneKey, lane});
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
    l.push(k);
  }
  ++live_;
  // The low word is slot + 1, so no live event's id is 0.
  return (static_cast<EventId>(s.gen) << 32) | (static_cast<EventId>(slot) + 1);
}

void EventScheduler::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const Thunk destroy = s.destroy;
  s.invoke = s.destroy = nullptr;
  // The slot rejoins the free list only after the captures are gone, so a
  // destructor that schedules cannot be handed this buffer.
  destroy(s.buf);
  free_.push_back(slot);
}

void EventScheduler::cancel(EventId id) {
  const auto low = static_cast<std::uint32_t>(id);
  if (low == 0 || low > slots_.size()) return;
  Slot& s = slots_[low - 1];
  if (s.invoke == nullptr || s.gen != static_cast<std::uint32_t>(id >> 32)) return;
  ++s.gen;  // the heap key goes stale; prune() drops it when it surfaces
  --live_;
  release(low - 1);
}

const EventScheduler::Key& EventScheduler::top_key() const {
  const Key& top = heap_.front();
  return top.slot == kLaneKey ? lanes_[top.gen].front() : top;
}

EventScheduler::Key EventScheduler::take_top() {
  const Key top = heap_.front();
  if (top.slot == kLaneKey) {
    Lane& l = lanes_[top.gen];
    const Key k = l.front();
    l.pop();
    if (!l.empty()) {
      replace_top(Key{l.front().t, l.front().seq, kLaneKey, top.gen});
      return k;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    return k;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  return top;
}

void EventScheduler::replace_top(const Key& k) {
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (std::size_t c = 1; c < n; c = 2 * i + 1) {
    if (c + 1 < n && Later{}(heap_[c], heap_[c + 1])) ++c;
    if (!Later{}(k, heap_[c])) break;
    heap_[i] = heap_[c];
    i = c;
  }
  heap_[i] = k;
}

void EventScheduler::prune() {
  while (!heap_.empty()) {
    const Key& k = top_key();
    if (slots_[k.slot].gen == k.gen) return;
    take_top();
  }
}

bool EventScheduler::pop_one() {
  prune();
  if (heap_.empty()) return false;
  const Key k = take_top();
  Slot& s = slots_[k.slot];
  // Stale from here on, so cancel() from inside the callback is a no-op.
  // The slot stays off the free list until the callback returns: nothing it
  // schedules can overwrite the running closure, and deque growth never
  // moves it.
  ++s.gen;
  now_ = k.t;
  --live_;
  ++executed_;
  // Restore the event's phase as ambient so anything it schedules inherits
  // the causality chain's attribution.
  const PhaseTag tag = s.tag;
  current_tag_ = tag;
  ++executed_by_tag_[tag];
  try {
    if (wall_profiling_) {
      const auto t0 = std::chrono::steady_clock::now();
      s.invoke(s.buf);
      wall_ns_by_tag_[tag] += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    } else {
      s.invoke(s.buf);
    }
  } catch (...) {
    release(k.slot);
    throw;
  }
  release(k.slot);
  return true;
}

std::size_t EventScheduler::run(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && pop_one()) ++n;
  return n;
}

std::size_t EventScheduler::run_until(SimTime t) {
  std::size_t n = 0;
  prune();
  while (!heap_.empty() && heap_.front().t <= t) {
    if (!pop_one()) break;
    ++n;
    prune();
  }
  now_ = std::max(now_, t);
  return n;
}

}  // namespace malnet::sim
