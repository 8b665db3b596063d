// Discrete-event scheduler: the single source of time for the simulation.
//
// Events are (time, sequence, callback) triples. Equal-time events fire in
// insertion order, which makes every run deterministic.
//
// Storage is allocation-free in steady state:
// - Callbacks live in a pool of slots that never move (a deque grown at the
//   back, recycled through a free list). Each slot has an inline buffer that
//   holds the callable itself plus its type-erased invoke/destroy pointers;
//   only a callable larger than the buffer goes on the heap.
// - The priority queue is a binary min-heap of 24-byte POD keys
//   {t, seq, slot, gen}, ordered by (t, seq).
// - after(d) with d >= 0 appends its key to a FIFO lane keyed by d instead
//   (kLanes lanes, each a ring buffer; an empty lane may be re-keyed to a
//   new delay, and a delay that finds no lane goes to the heap). Within a
//   lane both t = now + d and seq only grow, so a lane is already sorted and
//   the heap needs only its head: the heap holds the ordinary keys plus one
//   stand-in key per non-empty lane. Popping a stand-in fires the lane's
//   head and re-keys the stand-in to the next one. Firing order is exactly
//   (t, seq), as with one heap; the heap stays small when most events share
//   a few fixed delays (timeouts).
// - An EventId encodes (gen, slot). Every release of a slot (fire or cancel)
//   bumps its generation, so cancel() is a generation check: a stale id —
//   already fired, already cancelled, or bogus — is a no-op, and a heap key
//   whose generation no longer matches its slot is skipped when it surfaces.
//   Cancelling destroys the callback's captures at once.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/simtime.hpp"

namespace malnet::sim {

using util::Duration;
using util::SimTime;

/// Token used to cancel a scheduled event; 0 never names an event.
using EventId = std::uint64_t;

/// Phase attribution tag (see obs/profile.hpp for the pipeline's mapping).
/// Events inherit the ambient tag at schedule time, and firing an event
/// restores its tag as ambient — so an asynchronous causality chain keeps
/// the tag of whatever phase started it.
using PhaseTag = std::uint8_t;
inline constexpr std::size_t kMaxPhaseTags = 8;

class EventScheduler {
 public:
  /// Capacity of a slot's inline callable buffer. It must hold the hot
  /// closures (a packet delivery and a TCP connect timeout); their call
  /// sites static_assert `stores_inline`.
  static constexpr std::size_t kInlineBytes = 80;

  /// True if a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t);

  EventScheduler() = default;
  ~EventScheduler();
  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` (any void() callable, moved or copied into the slot) at
  /// absolute time `t`, clamped to now if in the past.
  template <typename F>
  EventId at(SimTime t, F&& fn) {
    return schedule(t, /*delay_us=*/-1, std::forward<F>(fn));
  }
  /// Schedules `fn` after `d` from now.
  template <typename F>
  EventId after(Duration d, F&& fn) {
    return schedule(now_ + d, d.us, std::forward<F>(fn));
  }

  /// Cancels a pending event and destroys its callback. No-op if the event
  /// already fired (including from inside its own callback), was already
  /// cancelled, or `id` is 0 or bogus.
  void cancel(EventId id);

  /// Runs events until the queue is empty or `limit` events fired.
  /// Returns the number of events executed. An exception thrown by a
  /// callback propagates; the scheduler stays usable.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs all events with time <= t, then advances the clock to exactly t.
  std::size_t run_until(SimTime t);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  // --- Phase attribution (observability) ---------------------------------
  [[nodiscard]] PhaseTag phase_tag() const { return current_tag_; }
  /// Sets the ambient tag stamped onto subsequently scheduled events.
  /// Out-of-range tags fold into tag 0 ("other").
  void set_phase_tag(PhaseTag tag) {
    current_tag_ = tag < kMaxPhaseTags ? tag : PhaseTag{0};
  }
  /// Per-event wall-clock attribution (two steady_clock reads per event);
  /// off by default — per-tag *event counts* are always maintained.
  void set_wall_profiling(bool on) { wall_profiling_ = on; }
  [[nodiscard]] std::uint64_t executed_by_tag(PhaseTag tag) const {
    return tag < kMaxPhaseTags ? executed_by_tag_[tag] : 0;
  }
  [[nodiscard]] std::uint64_t wall_ns_by_tag(PhaseTag tag) const {
    return tag < kMaxPhaseTags ? wall_ns_by_tag_[tag] : 0;
  }

 private:
  using Thunk = void (*)(void*);

  struct Slot {
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
    Thunk invoke = nullptr;  // null while the slot is free
    Thunk destroy = nullptr;
    std::uint32_t gen = 0;   // bumped on every release
    PhaseTag tag = 0;
  };

  struct Key {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;  // kLaneKey: a lane's stand-in, `gen` is the lane
    std::uint32_t gen;
  };
  static_assert(sizeof(Key) == 24);

  static constexpr std::size_t kLanes = 8;
  static constexpr std::uint32_t kNoLane = UINT32_MAX;
  static constexpr std::uint32_t kLaneKey = UINT32_MAX;

  /// FIFO of keys sharing one delay: a power-of-two ring that only grows.
  struct Lane {
    std::vector<Key> ring;
    std::size_t head = 0;
    std::size_t size = 0;

    [[nodiscard]] bool empty() const { return size == 0; }
    [[nodiscard]] const Key& front() const { return ring[head]; }
    void pop() {
      head = (head + 1) & (ring.size() - 1);
      --size;
    }
    void push(const Key& k);
  };

  /// Heap-held stand-in for a callable too large for the inline buffer.
  template <typename Fn>
  struct Boxed {
    std::unique_ptr<Fn> fn;
    void operator()() { (*fn)(); }
  };

  /// `delay_us` is after()'s delay, which may pick a lane; at() passes -1.
  template <typename F>
  EventId schedule(SimTime t, std::int64_t delay_us, F&& fn);
  /// The lane keyed by `delay_us`, else an empty lane re-keyed to it, else
  /// kNoLane.
  std::uint32_t lane_for(std::int64_t delay_us);
  std::uint32_t free_slot();  // a free slot index; stays on the free list
  EventId commit(SimTime t, std::int64_t delay_us, std::uint32_t slot, Thunk invoke,
                 Thunk destroy);
  void release(std::uint32_t slot);  // destroys the callback, frees the slot
  /// The key the heap's top stands for: itself, or its lane's head.
  [[nodiscard]] const Key& top_key() const;
  Key take_top();  // removes top_key() from the queue and returns it
  void replace_top(const Key& k);  // overwrites the heap's top, sifts down
  void prune();    // drops stale keys from the head of the queue
  bool pop_one();  // fires the earliest event; false if queue empty

  std::deque<Slot> slots_;  // never shrinks; elements never move
  std::vector<std::uint32_t> free_;
  std::vector<Key> heap_;
  std::array<Lane, kLanes> lanes_;
  std::array<std::int64_t, kLanes> lane_delay_us_{};  // lane i's after() delay
  SimTime now_{0};
  std::uint64_t seq_ = 0;
  std::size_t live_ = 0;
  std::uint64_t executed_ = 0;
  PhaseTag current_tag_ = 0;
  bool wall_profiling_ = false;
  std::array<std::uint64_t, kMaxPhaseTags> executed_by_tag_{};
  std::array<std::uint64_t, kMaxPhaseTags> wall_ns_by_tag_{};
};

template <typename F>
EventId EventScheduler::schedule(SimTime t, std::int64_t delay_us, F&& fn) {
  using Fn = std::decay_t<F>;
  if constexpr (!stores_inline<Fn>) {
    return schedule(t, delay_us, Boxed<Fn>{std::make_unique<Fn>(std::forward<F>(fn))});
  } else {
    const std::uint32_t slot = free_slot();
    // The slot leaves the free list in commit(), after construction, so a
    // throwing copy or move leaves the pool intact.
    ::new (static_cast<void*>(slots_[slot].buf)) Fn(std::forward<F>(fn));
    return commit(t, delay_us, slot, [](void* p) { (*static_cast<Fn*>(p))(); },
                  [](void* p) { static_cast<Fn*>(p)->~Fn(); });
  }
}

/// RAII ambient-tag switch: events scheduled inside the scope (and their
/// whole downstream chains) are attributed to `tag`.
class ScopedPhaseTag {
 public:
  ScopedPhaseTag(EventScheduler& sched, PhaseTag tag)
      : sched_(sched), prev_(sched.phase_tag()) {
    sched_.set_phase_tag(tag);
  }
  ~ScopedPhaseTag() { sched_.set_phase_tag(prev_); }
  ScopedPhaseTag(const ScopedPhaseTag&) = delete;
  ScopedPhaseTag& operator=(const ScopedPhaseTag&) = delete;

 private:
  EventScheduler& sched_;
  PhaseTag prev_;
};

}  // namespace malnet::sim
