#include "runtime/task_pool.h"

#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace aimetro::runtime {

namespace {
/// The pool (if any) the current thread is executing a task for. Lets
/// submit() recognize recursive submissions and bypass the queue bound.
thread_local const TaskPool* t_current_pool = nullptr;

class CurrentPoolScope {
 public:
  explicit CurrentPoolScope(const TaskPool* pool) : saved_(t_current_pool) {
    t_current_pool = pool;
  }
  ~CurrentPoolScope() { t_current_pool = saved_; }

 private:
  const TaskPool* saved_;
};

/// Best-effort affinity pin (see TaskPoolConfig::cpus). Out-of-range or
/// rejected cpus are ignored: the OS scheduler keeps working either way.
void pin_thread(std::thread& thread, std::int32_t cpu) {
#ifdef __linux__
  if (cpu < 0 || cpu >= CPU_SETSIZE) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  (void)pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
#else
  (void)thread;
  (void)cpu;
#endif
}
}  // namespace

struct TaskPool::Handle::State {
  TaskPool::Task fn;
  /// Set by whichever thread claims the task (worker or waiting caller);
  /// losers skip it. This is the entire inline-claiming mechanism.
  std::atomic<bool> claimed{false};

  common::Mutex m{"task_pool.handle"};
  common::CondVar cv;
  bool done GUARDED_BY(m) = false;
  std::exception_ptr error GUARDED_BY(m);
};

void TaskPool::Handle::wait() const {
  AIM_CHECK_MSG(state_ != nullptr, "wait() on an empty TaskPool::Handle");
  common::MutexLock lock(state_->m);
  while (!state_->done) state_->cv.wait(state_->m);
  if (state_->error) std::rethrow_exception(state_->error);
}

TaskPool::TaskPool(TaskPoolConfig config) : max_queued_(config.max_queued) {
  AIM_CHECK(config.n_workers >= 1);
  threads_.reserve(static_cast<std::size_t>(config.n_workers));
  for (std::int32_t i = 0; i < config.n_workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
    if (!config.cpus.empty()) {
      pin_thread(threads_.back(),
                 config.cpus[static_cast<std::size_t>(i) % config.cpus.size()]);
    }
  }
}

TaskPool::~TaskPool() { shutdown(); }

TaskPool::Handle TaskPool::submit(std::int64_t priority, Task fn) {
  AIM_CHECK(fn != nullptr);
  auto state = std::make_shared<Handle::State>();
  state->fn = std::move(fn);
  enqueue(priority, Item{nullptr, state});
  return Handle(std::move(state));
}

void TaskPool::post(std::int64_t priority, Task fn) {
  AIM_CHECK(fn != nullptr);
  enqueue(priority, Item{std::move(fn), nullptr});
}

void TaskPool::enqueue(std::int64_t priority, Item item) {
  // Counted in flight before the push, so a worker can never finish (and
  // decrement) a task that was not yet counted.
  const std::uint64_t now = in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  std::uint64_t peak = peak_in_flight_.load(std::memory_order_relaxed);
  while (now > peak && !peak_in_flight_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  bool accepted = false;
  if (max_queued_ > 0) {
    common::MutexLock lock(mutex_);
    if (!shut_down_ && t_current_pool != this) {
      while (queued_ >= max_queued_ && !shut_down_) space_cv_.wait(mutex_);
    }
    // Pushed under mutex_: shutdown() flips shut_down_ under it before
    // closing the queue, so a push that passes this check is drained.
    if (!shut_down_) {
      ++queued_;
      accepted = queue_.push(priority, std::move(item));
    }
  } else {
    // The queue refuses pushes once shutdown() closed it, under its own
    // lock: an accepted task always lands before the workers' final drain.
    accepted = queue_.push(priority, std::move(item));
  }
  if (!accepted) {
    release_in_flight();
    AIM_CHECK_MSG(false, "submit() on a shut-down TaskPool");
  }
}

void TaskPool::submit_and_wait(std::vector<Task> tasks,
                               std::int64_t priority) {
  // Marking the whole batch as pool-internal bypasses the queue bound:
  // the caller is about to help drain whatever it enqueues.
  CurrentPoolScope scope(this);
  std::vector<Handle> handles;
  handles.reserve(tasks.size());
  for (Task& task : tasks) {
    handles.push_back(submit(priority, std::move(task)));
  }
  // Run-or-wait: claim our own tasks so the batch makes progress even when
  // no worker is free (or every worker is itself waiting on a batch).
  for (const Handle& h : handles) {
    try_execute(h.state_, /*inline_run=*/true);
  }
  std::exception_ptr first;
  for (const Handle& h : handles) {
    try {
      h.wait();
    } catch (...) {
      if (first == nullptr) first = std::current_exception();
    }
  }
  if (first != nullptr) std::rethrow_exception(first);
}

void TaskPool::wait_idle() const {
  common::MutexLock lock(mutex_);
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    idle_cv_.wait(mutex_);
  }
}

void TaskPool::shutdown() {
  {
    common::MutexLock lock(mutex_);
    shut_down_ = true;
  }
  space_cv_.notify_all();
  queue_.close();  // workers drain the backlog, then exit
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

TaskPoolStats TaskPool::stats() const {
  TaskPoolStats out;
  out.tasks_executed = tasks_executed_.load(std::memory_order_acquire);
  out.tasks_inlined = tasks_inlined_.load(std::memory_order_acquire);
  out.peak_in_flight = peak_in_flight_.load(std::memory_order_acquire);
  return out;
}

void TaskPool::worker_loop() {
  CurrentPoolScope scope(this);
  while (std::optional<Item> item = queue_.pop(kIdleSpin)) {
    if (max_queued_ > 0) {
      {
        common::MutexLock lock(mutex_);
        --queued_;
      }
      space_cv_.notify_one();
    }
    if (item->state != nullptr) {
      try_execute(item->state, /*inline_run=*/false);
    } else {
      // Destroy the closure before the task counts as finished, as
      // try_execute does: wait_idle() then really means nothing is left.
      Task fn = std::move(item->fn);
      item.reset();
      fn();
      fn = nullptr;
      finish_one(/*inline_run=*/false);
    }
  }
}

bool TaskPool::try_execute(const StatePtr& state, bool inline_run) {
  if (state->claimed.exchange(true)) return false;
  std::exception_ptr error;
  {
    Task fn = std::move(state->fn);
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  }
  {
    common::MutexLock lock(state->m);
    state->done = true;
    state->error = error;
  }
  state->cv.notify_all();
  finish_one(inline_run);
  return true;
}

void TaskPool::finish_one(bool inline_run) {
  (inline_run ? tasks_inlined_ : tasks_executed_)
      .fetch_add(1, std::memory_order_relaxed);
  release_in_flight();
}

void TaskPool::release_in_flight() {
  // The decrement that empties the pool notifies under mutex_, so a
  // wait_idle() caller between its check and its wait cannot miss it.
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    common::MutexLock lock(mutex_);
    idle_cv_.notify_all();
  }
}

}  // namespace aimetro::runtime
