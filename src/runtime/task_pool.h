// The shared execution layer: a persistent worker pool for every surface
// that runs blocking agent work (engine cluster tasks, scenario-driver
// member chains, gym member chains).
//
// The paper's speedup depends on keeping the controller's critical path
// light and the workers saturated (§3.1/§3.6). Before this layer existed,
// each execution surface rolled its own concurrency — the engine owned a
// private thread vector, and the scenario driver and gym Env constructed
// and joined short-lived std::threads inside the *timed* region of every
// dispatch, paying thread spawn/teardown on the critical path. TaskPool
// centralizes that: workers are spawned once per run (outside the timed
// region) and tasks are handed over through a step-priority queue, so the
// per-dispatch cost is a queue push instead of a pthread_create.
//
// Design points:
//   - submit() returns a waitable Handle; the task's exception (if any) is
//     captured and rethrown from Handle::wait(), never lost to terminate().
//   - post() is the fire-and-forget form for callers that track
//     completion themselves (the engine): no Handle state is allocated,
//     and a hand-off costs one queue push and one pop.
//   - an idle worker spins briefly (kIdleSpin, at most one spinner per
//     pool) before parking, so a task posted moments after the previous
//     one finished is picked up without a futex sleep/wake round trip.
//   - submit(priority, ...) orders the backlog by ascending priority (FIFO
//     within equal priority), which is how the engine preserves the
//     earliest-step-first dispatch rule (§3.5) on a shared pool.
//   - submit_and_wait() submits a batch and lets the *calling thread claim
//     and run* any task a worker has not started yet. A saturated (or even
//     zero-spare-worker) pool therefore degrades to inline execution
//     instead of deadlocking, which makes nested waits — a pool task
//     waiting on a batch it submitted to the same pool — safe by
//     construction.
//   - an optional queue bound applies backpressure to external submitters;
//     pool workers and submit_and_wait batches bypass it so the pool can
//     never wedge itself.
//   - shutdown() (and the destructor) drains queued tasks before joining:
//     work accepted is work executed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/sync_queue.h"
#include "common/thread_annotations.h"

namespace aimetro::runtime {

struct TaskPoolConfig {
  /// Persistent worker threads, spawned in the constructor.
  std::int32_t n_workers = 4;
  /// Backpressure bound on tasks waiting for a worker; 0 = unbounded.
  /// submit() from outside the pool blocks while the backlog is full.
  /// Submissions from a pool worker or inside submit_and_wait bypass the
  /// bound (blocking them could deadlock the pool against itself).
  std::size_t max_queued = 0;
  /// CPU-affinity pinning: worker i is pinned to cpus[i % cpus.size()]
  /// (empty = no pinning, the default). Linux only
  /// (pthread_setaffinity_np); silently a no-op elsewhere, and pin
  /// failures (e.g. a cpuset-restricted container) are ignored — pinning
  /// is a placement hint, never a correctness requirement. The engine
  /// uses this to keep each strip's pool on one core group so strip-local
  /// scoreboard state stays in one cache/NUMA domain.
  std::vector<std::int32_t> cpus;
};

struct TaskPoolStats {
  /// Tasks completed, by who ran them: pool workers vs. waiting callers
  /// that claimed their own batch tasks inline.
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_inlined = 0;
  /// Largest number of tasks simultaneously in flight (submitted but not
  /// finished) over the pool's lifetime.
  std::uint64_t peak_in_flight = 0;
};

class TaskPool {
 public:
  using Task = std::function<void()>;

  /// Waitable handle for one submitted task. Copyable (shared state);
  /// dropping every copy detaches the task (it still runs; an exception
  /// it throws is then unobservable).
  class Handle {
   public:
    Handle() = default;

    /// Block until the task has run; rethrows the task's exception.
    void wait() const;
    bool valid() const { return state_ != nullptr; }

   private:
    friend class TaskPool;
    struct State;
    explicit Handle(std::shared_ptr<State> state) : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  explicit TaskPool(TaskPoolConfig config);
  /// Convenience: a pool of `n_workers` with an unbounded queue.
  explicit TaskPool(std::int32_t n_workers)
      : TaskPool(TaskPoolConfig{n_workers, 0, {}}) {}
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueue `fn` at the given priority (smaller runs first, FIFO within
  /// equal priority; plain submit() uses priority 0). Blocks only when a
  /// queue bound is configured and the caller is outside the pool.
  Handle submit(std::int64_t priority, Task fn);
  Handle submit(Task fn) { return submit(0, std::move(fn)); }

  /// Fire-and-forget submit(): same ordering, queue bound and shutdown
  /// rules, but no Handle — nothing can wait on the task or observe its
  /// exception, so `fn` must not throw (an escaping exception terminates
  /// the process).
  void post(std::int64_t priority, Task fn);

  /// Submit every task in `tasks` at `priority`, then run-or-wait: the
  /// caller claims and executes tasks no worker has started, so the batch
  /// completes even when every worker is busy (including busy waiting on
  /// batches of their own — nested use is deadlock-free). Rethrows the
  /// first exception after the whole batch has settled.
  void submit_and_wait(std::vector<Task> tasks, std::int64_t priority = 0);

  /// Block until no task is queued or running. Does not prevent further
  /// submissions; meant for quiescing between phases.
  void wait_idle() const;

  /// Drain queued tasks, then join the workers. Idempotent; called by the
  /// destructor. Submitting after shutdown is a checked error.
  void shutdown();

  /// Lock-free, possibly stale hint: the smallest priority waiting in
  /// the queue (numeric_limits max when it looks empty). Lets a worker
  /// that could run a task inline see whether earlier work is queued.
  std::int64_t front_priority_hint() const {
    return queue_.front_priority_hint();
  }

  std::int32_t workers() const {
    return static_cast<std::int32_t>(threads_.size());
  }
  /// The configured queue bound (0 = unbounded). Lets a borrower that
  /// submits while holding its own locks (e.g. runtime::Engine) refuse
  /// bounded pools up front instead of deadlocking against backpressure.
  std::size_t max_queued() const { return max_queued_; }
  /// Exact once the pool is idle (after wait_idle() or shutdown());
  /// a snapshot of relaxed counters while tasks are still running.
  TaskPoolStats stats() const;

  /// How long an idle worker spins for new work before parking.
  static constexpr std::chrono::microseconds kIdleSpin{50};

 private:
  using StatePtr = std::shared_ptr<Handle::State>;
  /// A queued task: submit() tasks live in their Handle state (so a
  /// waiting caller can claim them); post() tasks carry `fn` directly.
  struct Item {
    Task fn;
    StatePtr state;
  };

  void enqueue(std::int64_t priority, Item item);
  void worker_loop();
  /// Claim and run `state` unless another thread already has. Returns
  /// whether this thread ran it. `inline_run` tags the stats bucket.
  bool try_execute(const StatePtr& state, bool inline_run);
  void finish_one(bool inline_run);
  void release_in_flight();

  /// Internally synchronized; its lock nests inside mutex_ only in a
  /// bounded pool's enqueue(), and workers never hold it while taking
  /// mutex_, so there is no inversion.
  SyncPriorityQueue<Item, std::int64_t> queue_;
  std::vector<std::thread> threads_;

  mutable common::Mutex mutex_{"task_pool"};
  mutable common::CondVar idle_cv_;
  common::CondVar space_cv_;
  std::size_t max_queued_ = 0;  // immutable after construction
  /// Submitted, not yet popped by a worker. Tracked only for the queue
  /// bound (max_queued_ > 0).
  std::size_t queued_ GUARDED_BY(mutex_) = 0;
  /// Submitted, not yet finished. Lock-free on the hot path; the
  /// decrement that reaches zero notifies idle_cv_ under mutex_, so
  /// wait_idle() cannot miss it.
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> tasks_inlined_{0};
  std::atomic<std::uint64_t> peak_in_flight_{0};
  bool shut_down_ GUARDED_BY(mutex_) = false;
};

/// Default pool size for a surface that feeds member LLM chains from
/// `workers` concurrent dispatches: two chain slots per worker, plus the
/// waiting dispatcher itself running one chain inline, covers the typical
/// cluster-size distribution without spawning a thread per member.
inline std::int32_t derive_pool_workers(std::int32_t workers) {
  return workers * 2;
}

}  // namespace aimetro::runtime
