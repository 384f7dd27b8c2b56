#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.h"
#include "runtime/task_pool.h"

namespace aimetro::runtime {
namespace {

TEST(TaskPool, RunsEverySubmittedTask) {
  TaskPool pool(4);
  std::atomic<int> sum{0};
  std::vector<TaskPool::Handle> handles;
  for (int i = 1; i <= 100; ++i) {
    handles.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (const auto& h : handles) h.wait();
  EXPECT_EQ(sum.load(), 5050);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed + stats.tasks_inlined, 100u);
  EXPECT_GE(stats.peak_in_flight, 1u);
}

TEST(TaskPool, PriorityOrdersTheBacklog) {
  // One worker, blocked by a gate task while the backlog builds up: the
  // queued tasks must then run in ascending priority order (FIFO within
  // equal priority), the rule the engine relies on for earliest-step-first
  // dispatch.
  TaskPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  TaskPool::Handle gate_handle = pool.submit([open] { open.wait(); });

  std::mutex order_mutex;
  std::vector<int> order;
  std::vector<TaskPool::Handle> handles;
  for (int priority : {5, 1, 3, 1}) {
    handles.push_back(pool.submit(priority, [&order_mutex, &order, priority] {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(priority);
    }));
  }
  gate.set_value();
  for (const auto& h : handles) h.wait();
  gate_handle.wait();
  EXPECT_EQ(order, (std::vector<int>{1, 1, 3, 5}));
}

TEST(TaskPool, HandleWaitRethrowsTheTaskException) {
  TaskPool pool(2);
  TaskPool::Handle ok = pool.submit([] {});
  TaskPool::Handle boom =
      pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_NO_THROW(ok.wait());
  EXPECT_THROW(boom.wait(), std::runtime_error);
  // The pool survives a throwing task; later work still runs.
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; }).wait();
  EXPECT_TRUE(ran.load());
}

TEST(TaskPool, SubmitAndWaitRethrowsAfterTheBatchSettles) {
  TaskPool pool(2);
  std::atomic<int> completed{0};
  std::vector<TaskPool::Task> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&completed, i]() {
      if (i == 3) throw std::invalid_argument("bad member");
      completed.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.submit_and_wait(std::move(tasks)), std::invalid_argument);
  // Every non-throwing member of the batch still ran to completion.
  EXPECT_EQ(completed.load(), 7);
}

TEST(TaskPool, ShutdownDrainsQueuedTasks) {
  // Work accepted is work executed: tasks still queued at shutdown run
  // before the workers exit.
  std::atomic<int> ran{0};
  {
    TaskPool pool(1);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    pool.submit([open] { open.wait(); });
    for (int i = 0; i < 20; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    gate.set_value();
    // Destructor drains + joins.
  }
  EXPECT_EQ(ran.load(), 20);
}

TEST(TaskPool, SubmitAfterShutdownIsACheckedError) {
  TaskPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), CheckError);
}

TEST(TaskPool, WaitIdleBlocksUntilAllTasksFinish) {
  TaskPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 10);
}

TEST(TaskPool, NestedSubmitAndWaitCannotDeadlock) {
  // Every worker submits a sub-batch to the *same* pool and waits on it.
  // With inline claiming the waiting workers run their own sub-tasks, so
  // this completes even though the pool has no spare workers at all.
  TaskPool pool(2);
  std::atomic<int> leaf{0};
  std::vector<TaskPool::Task> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&pool, &leaf] {
      std::vector<TaskPool::Task> inner;
      for (int j = 0; j < 4; ++j) {
        inner.push_back([&leaf] { leaf.fetch_add(1); });
      }
      pool.submit_and_wait(std::move(inner));
    });
  }
  pool.submit_and_wait(std::move(outer));
  EXPECT_EQ(leaf.load(), 16);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed + stats.tasks_inlined, 20u);
}

TEST(TaskPool, BoundedQueueAppliesBackpressureToExternalSubmitters) {
  TaskPoolConfig cfg;
  cfg.n_workers = 1;
  cfg.max_queued = 1;
  TaskPool pool(cfg);

  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  pool.submit([open] { open.wait(); });  // occupies the only worker
  pool.submit([] {});                    // fills the one queue slot

  std::atomic<bool> third_submitted{false};
  std::thread submitter([&pool, &third_submitted] {
    pool.submit([] {});  // must block until the worker drains a slot
    third_submitted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_submitted.load());
  gate.set_value();
  submitter.join();
  EXPECT_TRUE(third_submitted.load());
  pool.wait_idle();
}

TEST(TaskPool, PeakInFlightTracksTheBacklogHighWaterMark) {
  TaskPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  pool.submit([open] { open.wait(); });
  for (int i = 0; i < 7; ++i) pool.submit([] {});
  gate.set_value();
  pool.wait_idle();
  EXPECT_EQ(pool.stats().peak_in_flight, 8u);
}

TEST(TaskPool, DerivedPoolSizeDoublesTheWorkerCount) {
  EXPECT_EQ(derive_pool_workers(1), 2);
  EXPECT_EQ(derive_pool_workers(4), 8);
}

TEST(TaskPool, ManyProducersManyTasks) {
  // Hammer the queue from several producer threads at mixed priorities;
  // every task must run exactly once.
  TaskPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &ran, p] {
      for (int i = 0; i < 250; ++i) {
        pool.submit(/*priority=*/(p + i) % 3, [&ran] { ran.fetch_add(1); });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1000);
}

TEST(TaskPool, PostRunsInPriorityOrderAndCountsInStats) {
  // Fire-and-forget posts follow the same backlog order as submit(), and
  // stats() still counts them: one worker held by a gate task while the
  // backlog builds, then every post runs in ascending priority.
  TaskPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  pool.post(0, [open] { open.wait(); });
  std::mutex order_mutex;
  std::vector<int> order;
  for (int priority : {5, 1, 3, 1}) {
    pool.post(priority, [&order_mutex, &order, priority] {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(priority);
    });
  }
  gate.set_value();
  pool.wait_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 1, 3, 5}));
  const auto stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed, 5u);
  EXPECT_EQ(stats.tasks_inlined, 0u);
  EXPECT_EQ(stats.peak_in_flight, 5u);
}

TEST(TaskPool, ShutdownRacingASpinningWorkerDrainsEveryPost) {
  // An idle worker spins (kIdleSpin) before parking. Posts that land
  // while it spins, and a shutdown() racing it, must still leave every
  // posted task run exactly once; a post after shutdown is refused.
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> ran{0};
    TaskPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.post(i, [&ran] { ran.fetch_add(1); });
      if (i % 5 == 4) {
        std::this_thread::sleep_for(std::chrono::microseconds(round % 7 * 10));
      }
    }
    pool.shutdown();
    EXPECT_EQ(ran.load(), 20) << "round " << round;
    EXPECT_EQ(pool.stats().tasks_executed, 20u);
    EXPECT_THROW(pool.post(0, [] {}), CheckError);
  }
}

TEST(TaskPool, FrontPriorityHintTracksTheBacklog) {
  TaskPool pool(1);
  EXPECT_EQ(pool.front_priority_hint(),
            std::numeric_limits<std::int64_t>::max());
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  pool.post(0, [open] { open.wait(); });
  pool.post(7, [] {});
  pool.post(4, [] {});
  // The gate may or may not have been popped yet; 4 is queued either way.
  EXPECT_LE(pool.front_priority_hint(), 4);
  gate.set_value();
  pool.wait_idle();
  EXPECT_EQ(pool.front_priority_hint(),
            std::numeric_limits<std::int64_t>::max());
}

}  // namespace
}  // namespace aimetro::runtime
