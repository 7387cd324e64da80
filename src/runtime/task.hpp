// One coroutine type for every resumable layer (DESIGN.md §6e). A layer
// serves a request by co_awaiting the layer below it — UI → Synthesis →
// Controller → Broker → resource — and a Task is that call: lazy (its
// body starts when awaited), move-only, with a single awaiter.
//
// Inline completions do not nest. The awaiter starts the child on the
// awaiting thread and suspends only if the child really parked at a leaf
// awaitable (a stage hop, a loop timer, an async resource attempt):
// await_suspend returns bool, and the child's final suspend and the
// awaiter race on one `turn` word. Whoever arrives second owns the
// continuation, so a loop of a million awaited calls that each complete
// at once runs in constant stack, and a parked child resumes its parent
// on the thread that settled it. Symmetric transfer alone would resume
// the parent from inside the child's final suspend, one frame deeper per
// call. A child that completes while its awaiter is still running it on
// the same thread has nobody to race, and skips the atomic.
//
// A layer's entry may do its synchronous part when called and hand back
// the coroutine of the layer below, or a ready() task when it refuses.
// A Task's reference parameters must outlive it: await it in the same
// full-expression, or keep the referents alive in the awaiting frame or
// in the root that owns the request.
#pragma once

#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define MDSM_FRAME_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define MDSM_FRAME_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define MDSM_FRAME_POISON(p, n) ((void)(p), (void)(n))
#define MDSM_FRAME_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace mdsm::runtime {
namespace detail {

/// Coroutine frames, recycled per thread. GCC allocates every frame (it
/// elides none behind a virtual call or across layers), so without this
/// each awaited layer call would cost a heap allocation. Frames are
/// binned by power-of-two size from 128 B to 4 KiB, and each bin keeps
/// at most kFramesPerBin free frames; larger frames and the overflow go
/// to the heap. A frame freed on another thread joins that thread's bins.
class FramePool {
 public:
  static void* allocate(std::size_t size) {
    const int bin = bin_of(size);
    if (bin < 0) return ::operator new(size);
    FramePool& pool = local();
    Free* frame = pool.free_[bin];
    if (frame == nullptr) return ::operator new(kMinFrame << bin);
    MDSM_FRAME_UNPOISON(frame, kMinFrame << bin);
    pool.free_[bin] = frame->next;
    --pool.count_[bin];
    return frame;
  }

  static void release(void* frame, std::size_t size) noexcept {
    const int bin = bin_of(size);
    FramePool& pool = local();
    if (bin < 0 || pool.count_[bin] == kFramesPerBin) {
      ::operator delete(frame);
      return;
    }
    auto* node = static_cast<Free*>(frame);
    node->next = pool.free_[bin];
    pool.free_[bin] = node;
    ++pool.count_[bin];
    MDSM_FRAME_POISON(node, kMinFrame << bin);
  }

  ~FramePool() {
    for (int bin = 0; bin < kBins; ++bin) {
      while (Free* frame = free_[bin]) {
        MDSM_FRAME_UNPOISON(frame, kMinFrame << bin);
        free_[bin] = frame->next;
        ::operator delete(frame);
      }
    }
  }

 private:
  struct Free {
    Free* next;
  };
  static constexpr std::size_t kMinFrame = 128;
  static constexpr int kBins = 6;  ///< 128 B .. 4 KiB
  static constexpr std::size_t kFramesPerBin = 32;

  static int bin_of(std::size_t size) noexcept {
    int bin = 0;
    for (std::size_t cap = kMinFrame; cap < size; cap <<= 1) {
      if (++bin == kBins) return -1;
    }
    return bin;
  }
  static FramePool& local() noexcept {
    thread_local FramePool pool;
    return pool;
  }

  Free* free_[kBins] = {};
  std::size_t count_[kBins] = {};
};

/// Frames of every coroutine type below come from the pool.
struct PooledFrame {
  static void* operator new(std::size_t size) {
    return FramePool::allocate(size);
  }
  static void operator delete(void* frame, std::size_t size) noexcept {
    FramePool::release(frame, size);
  }
};

/// The `turn` word a child and its awaiter race on.
enum Turn : int { kRunning = 0, kParked = 1, kDone = 2 };

/// The frame an awaiter on this thread is running inline, if any.
inline thread_local void* t_running = nullptr;

struct PromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;  ///< the awaiting coroutine
  std::atomic<int> turn{kRunning};
  bool done_inline = false;  ///< completed inside its awaiter's resume()
  std::exception_ptr error;

  /// Run `self` until it completes or parks; true when it completed.
  /// Called by the one party that starts the frame, on its thread.
  bool start(std::coroutine_handle<> self) noexcept {
    void* outer = std::exchange(t_running, self.address());
    self.resume();
    t_running = outer;
    return done_inline ||
           turn.exchange(kParked, std::memory_order_acq_rel) == kDone;
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> self) noexcept {
      PromiseBase& promise = self.promise();
      // Still the frame its starter runs on this thread: it continues
      // on its own stack when resume() returns.
      if (t_running == self.address()) {
        promise.done_inline = true;
        return std::noop_coroutine();
      }
      // Resumed after it parked: whichever of this and the starter's
      // start() comes second owns the continuation.
      if (promise.turn.exchange(kDone, std::memory_order_acq_rel) ==
          kParked) {
        return promise.continuation;
      }
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { error = std::current_exception(); }
};

template <typename T>
struct ValueSlot {
  std::optional<T> value;
  template <typename U>
  void return_value(U&& result) {
    value.emplace(std::forward<U>(result));
  }
  T take() { return std::move(*value); }
};

template <>
struct ValueSlot<void> {
  void return_void() noexcept {}
  void take() noexcept {}
};

/// The root of a detached chain: starts at once and frees itself.
struct Detached {
  struct promise_type : PooledFrame {
    Detached get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { throw; }
  };
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase, detail::ValueSlot<T> {
    Task get_return_object() noexcept {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    T result() {
      if (error) std::rethrow_exception(error);
      return this->take();
    }
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (handle_) handle_.destroy();
  }

  struct Awaiter {
    Task* task;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> parent) noexcept {
      task->handle_.promise().continuation = parent;
      return !task->handle_.promise().start(task->handle_);
    }
    T await_resume() { return task->handle_.promise().result(); }
  };
  Awaiter operator co_await() && noexcept { return Awaiter{this}; }

 private:
  explicit Task(Handle handle) noexcept : handle_(handle) {}

  template <typename U>
  friend U run_inline(Task<U> task);

  Handle handle_;
};

/// Run `task` to completion on the calling thread and return its result:
/// the sync door of every layer. A task that parks here is a logic error
/// (nothing on an inline path may park); the process aborts rather than
/// return with the frame still referencing this stack.
template <typename T>
T run_inline(Task<T> task) {
  if (!task.handle_.promise().start(task.handle_)) {
    std::fputs("runtime::run_inline: an inline task parked\n", stderr);
    std::abort();
  }
  return task.handle_.promise().result();
}

/// A task that completes with `value` as soon as it is awaited: what a
/// layer's entry hands back when it refuses a request before calling the
/// layer below (the refusal is the rare path; its frame is pooled).
template <typename T>
Task<T> ready(T value) {
  co_return std::move(value);
}

/// Start `task` detached: it runs on the calling thread until it
/// completes or parks, and `done` receives its result (nothing, for a
/// Task<void>) on whichever thread finishes it. The chain owns itself;
/// `done` should own whatever the task's references point into.
template <typename T, typename Done>
detail::Detached start_detached(Task<T> task, Done done) {
  if constexpr (std::is_void_v<T>) {
    co_await std::move(task);
    done();
  } else {
    done(co_await std::move(task));
  }
}

}  // namespace mdsm::runtime
