#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/simtime.h"

namespace mscope::sim {

using util::SimTime;

namespace detail {
template <class T>
inline constexpr bool kIsStdFunction = false;
template <class R, class... A>
inline constexpr bool kIsStdFunction<std::function<R(A...)>> = true;
}  // namespace detail

/// A move-only `void()` callable: the type of every simulator continuation
/// (scheduled events, CPU and disk completions, network deliveries, server
/// responses).
///
/// The callable lives inside the Callback itself, so building, moving and
/// firing one allocates nothing. Only a callable of at most kInlineBytes,
/// aligned no stricter than std::max_align_t, whose move cannot throw
/// converts: a larger closure does not compile, and should hold its bulk
/// behind a pointer. An empty std::function or null function pointer
/// yields an empty Callback, as does `nullptr`.
class Callback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

 private:
  template <class D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

 public:
  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT: implicit, like std::function

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                     std::is_invocable_r_v<void, D&> &&
                                     kFitsInline<D>>>
  Callback(F&& f) {  // NOLINT: implicit, like std::function
    if constexpr (std::is_pointer_v<D> || detail::kIsStdFunction<D>) {
      if (!f) return;
    }
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    ops_ = &kInlineOps<D>;
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Runs the callable; an empty Callback throws std::bad_function_call.
  void operator()() {
    if (ops_ == nullptr) throw std::bad_function_call();
    ops_->invoke(storage_);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs into `dst` and destroys `src`; null = copy the bytes.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null = nothing to destroy.
    void (*destroy)(void* storage) noexcept;
  };

  template <class D>
  static D* inline_ptr(void* storage) {
    return std::launder(static_cast<D*>(storage));
  }

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* s) { (*inline_ptr<D>(s))(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              D* from = inline_ptr<D>(src);
              ::new (dst) D(std::move(*from));
              from->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* s) noexcept { inline_ptr<D>(s)->~D(); }};

  void take(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kInlineBytes);
    }
    other.ops_ = nullptr;
  }
  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Discrete-event simulation kernel: a virtual clock plus a time-ordered
/// event queue. Events at the same timestamp fire in scheduling order
/// (stable), which keeps runs bit-for-bit reproducible.
///
/// The queue is a binary min-heap of small (time, seq, slot) keys; each
/// event's callback waits in a free-listed slab slot, so a firing moves
/// keys, never closures, and a steady-state run allocates nothing.
class Simulation {
 public:
  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` to run `delay` microseconds from now (delay >= 0).
  void schedule(SimTime delay, Callback cb);

  /// Schedules `cb` at absolute time `t` (>= now()). `cb` must not be empty.
  void schedule_at(SimTime t, Callback cb);

  /// Runs events until the queue empties or virtual time would pass `until`.
  /// The clock is left at `until` (or at the last event if earlier and the
  /// queue drained).
  void run_until(SimTime until);

  /// Executes the single next event; returns false if the queue is empty.
  bool step();

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Total events executed so far (for perf reporting).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;  ///< scheduling order: breaks same-time ties
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Key, std::vector<Key>, Later> queue_;
  std::vector<Callback> slab_;  ///< slab_[key.slot]: the event's callback
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace mscope::sim
