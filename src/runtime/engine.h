// The real (threaded) AI Metropolis engine — Algorithm 3 with live agents.
//
// Architecture mirrors §3.1/§3.6: a controller on a light critical path
// exchanges work with persistent worker pools (runtime::TaskPool); every
// ready cluster becomes one pool task, posted at its step as the
// priority so the earliest-step cluster always runs first (§3.5). Workers
// run every agent in a cluster, call the LLM through the blocking client
// shim, commit writes to the world and the dependency scoreboard, and
// dispatch whatever clusters the commit released — so dispatch is a queue
// push, never a thread spawn, and the controller only sleeps until the
// in-flight count drains. With kv_instrumentation, shared simulation
// state is additionally mirrored into the in-memory kv store (the paper
// keeps it in Redis): agent rows are updated transactionally at each
// commit and an instrumentation log records every cluster dispatch.
//
// Locking discipline (boundary-lag commit protocol): there is no single
// engine-wide state lock. World writes serialize on the world's own
// shared_mutex and the kv mirror uses the store's internal shard locks,
// both outside any engine lock. Scoreboard graph maintenance uses a
// two-mode protocol over the region partition (config.shards):
//
//   interior commit — the scoreboard proves the commit's influence region
//     sits inside one strip s with no cross-strip couplings
//     (Scoreboard::local_commit_shard); the worker then holds
//     topology_mutex_ SHARED plus shard_mutexes_[s] and commits, popping
//     released clusters from strip s only. Interior commits in different
//     strips run fully concurrently.
//   cross-shard commit — anything near a strip border (or with shards=1,
//     everything, unclassified) is appended to cross_queue_ under
//     cross_mutex_. The first committer to find no combiner active
//     becomes the combiner: it swaps out the whole queue, applies the
//     batch under ONE exclusive topology_mutex_ hold (which excludes
//     every interior commit, as the old global commit lock did),
//     refreshes min_floor_ — the monotonic lower bound on min_step()
//     that interior commits use to bound their probe radii — runs any
//     due reshard, pops the released clusters once, and repeats until
//     the queue is empty. Every other committer returns to its pool
//     instead of sleeping on the lock.
//
// Dispatch: released clusters are posted fire-and-forget
// (TaskPool::post); after an interior commit the worker instead keeps the
// earliest-step released cluster homed on its own pool and runs it inline
// next, unless earlier work is queued there. A cluster counts in
// inflight_clusters_ from release until its commit is applied; only the
// decrement that may reach zero takes control_mutex_ and wakes the
// controller.
//
// Lock order: engine.topology -> engine.shard -> engine.stats;
// engine.cross, task_pool and engine.control are taken alone (see
// docs/ARCHITECTURE.md, "Sharded world", for the full inventory). The
// scoreboard object itself carries no capability annotation: its guard
// is the protocol above, which Clang TSA cannot express (shared-mode
// writers striped by a runtime index); the runtime lock-order validator
// and the TSan suite check it instead.
//
// The paper uses processes to dodge the Python GIL; C++ threads carry no
// such penalty, so workers are pool threads here. The scheduling policy
// objects (Scoreboard, clustering, priorities) are the same code the
// discrete-event benchmarks use.
#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/scoreboard.h"
#include "kv/store.h"
#include "runtime/task_pool.h"
#include "world/world_state.h"

namespace aimetro::runtime {

struct EngineConfig {
  core::DependencyParams params;
  Step target_step = 100;
  std::int32_t n_workers = 4;
  /// Scoreboard neighbor-scan implementation (spatial-index probes by
  /// default; kBruteForce is the full-scan reference path for
  /// differential testing).
  core::ScanMode scan_mode = core::ScanMode::kIndexed;
  /// Distance model for the dependency rules. Null = Euclidean (the
  /// historical default). Graph worlds pass a core::GraphMetric here so
  /// the scoreboard measures hops; must outlive the engine.
  std::shared_ptr<const core::Metric> metric;
  /// Mirror agent state and an instrumentation stream into the kv store
  /// (the paper's Redis copy of simulation state). Off by default: nothing
  /// in the engine reads the mirror back, and it costs a kv transaction
  /// per commit. Tests that inspect store() turn it on.
  bool kv_instrumentation = false;
  /// Run cluster tasks on an externally owned pool instead of a private
  /// one (the pool must outlive the engine and have no queue bound —
  /// workers dispatch the clusters their own commits release, so
  /// backpressure would deadlock them against each other; checked at
  /// construction). Cluster concurrency is then bounded by that pool's
  /// worker count, not n_workers — share a pool only when that is what
  /// you mean. Ignored when shard_pools is set.
  TaskPool* pool = nullptr;
  /// Region partition of the world (1..core::kMaxShards). Values > 1
  /// activate the boundary-lag commit protocol; the scoreboard may still
  /// collapse to one strip (graph metrics, brute-force scans), in which
  /// case every commit takes the cross-shard path and behavior matches
  /// shards=1 exactly.
  std::int32_t shards = 1;
  /// Pool-per-shard seam: clusters homed in strip s run on
  /// shard_pools[s]. Must be empty or hold at least `shards` pools, all
  /// unbounded and outliving the engine. When empty and shards > 1, the
  /// engine spawns one private pool per strip, splitting n_workers
  /// between them.
  std::vector<TaskPool*> shard_pools;
  /// Initial strip-boundary placement, passed through to the scoreboard:
  /// equal-width strips, or boundaries at population quantiles of the
  /// initial agent positions. Affects only which commits classify as
  /// interior — never any observable result.
  world::PartitionKind partition = world::PartitionKind::kEqualWidth;
  /// Rebalance points (sorted ascending, each > 0): engine-relative steps
  /// — in practice the episode (midnight) boundaries between `days` —
  /// at which the partition is re-quantiled against the per-strip
  /// contention rows accumulated since the previous rebalance. Near a
  /// boundary B, commits of clusters at step B-1 or later are forced onto
  /// the cross-shard (exclusive) path; the cross commit that raises
  /// min_step() past B then repartitions the scoreboard in place while
  /// still holding the topology lock exclusively. Empty = never reshard.
  std::vector<Step> reshard_at;
  /// Pin each privately spawned per-strip pool to a contiguous CPU core
  /// group (strip s gets cores [s*C/shards, (s+1)*C/shards)), keeping a
  /// strip's scoreboard slice in one cache/NUMA domain. Linux only;
  /// ignored for external pools (pin those where they are constructed)
  /// and with shards = 1.
  bool pin_cores = false;
};

struct EngineStats {
  std::uint64_t clusters_executed = 0;
  std::uint64_t agent_steps = 0;
  std::uint64_t kv_transactions = 0;
  std::uint64_t kv_conflicts = 0;
  /// Commit-lock contention: total scoreboard commits, total microseconds
  /// from each commit's start until its graph maintenance began, total
  /// microseconds of graph maintenance (commit + pop, under the commit
  /// locks), and the worst single wait. An interior commit waits for its
  /// strip lock. A cross-shard commit is combined: its wait runs from
  /// enqueue until the combiner's batch takes the topology lock, and the
  /// hold is charged once per batch, not per commit. wait >> hold means
  /// commits queue behind graph maintenance; both near zero means the
  /// LLM calls dominate, as designed. These are rollups of the per-strip
  /// rows plus the cross-shard row (sums, except max_commit_wait_us
  /// which is the max).
  std::uint64_t commits = 0;
  std::uint64_t commit_wait_us = 0;
  std::uint64_t commit_hold_us = 0;
  std::uint64_t max_commit_wait_us = 0;
  /// Partition rebalances performed (config.reshard_at boundaries whose
  /// trigger actually fired). Aggregate only; zero in the per-strip rows.
  std::uint64_t reshards = 0;
};

class Engine {
 public:
  /// Computes the intents of every member of `cluster` for its step. Runs
  /// on worker threads; implementations may issue blocking LLM calls. Must
  /// be thread-safe and deterministic given the world snapshot.
  using StepFn = std::function<std::vector<world::StepIntent>(
      const core::AgentCluster& cluster, const world::WorldState& world)>;

  /// Spawns the private worker pool(s) (when config.pool / shard_pools
  /// are unset) here, so a caller timing run() never measures thread
  /// creation.
  Engine(world::WorldState* world, EngineConfig config, StepFn step_fn);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Run the simulation to target_step. Blocking; returns aggregate stats.
  /// Rethrows the first exception a cluster task raised (the run stops
  /// dispatching and drains in-flight work first).
  EngineStats run();

  /// Post-run inspection only: callers read the scoreboard after run()
  /// returned (or before it started), when no worker can be mutating it.
  const core::Scoreboard& scoreboard() const { return *scoreboard_; }
  kv::Store& store() { return store_; }
  /// The first cluster pool (the only one with shards=1).
  const TaskPool& pool() const { return *pool_; }
  /// Effective strip count (after the scoreboard's collapse rules).
  std::int32_t shards() const { return shards_; }
  /// Per-strip commit contention rows, index shards() = the cross-shard
  /// (boundary-reconciliation) row. Only the commit* fields are
  /// populated; kv/cluster totals live in the aggregate. Post-run only.
  std::vector<EngineStats> shard_commit_stats() const;

 private:
  /// A popped cluster plus its home strip, resolved while the popping
  /// thread still held the topology lock — the partition may move at
  /// reshard points, so routing must never read it unlocked.
  struct RoutedCluster {
    std::int32_t strip = 0;
    core::AgentCluster cluster;
  };
  /// A cross-shard commit waiting in cross_queue_ for the combiner.
  struct PendingCommit {
    Step step = 0;
    std::size_t members = 0;
    std::vector<std::pair<AgentId, Pos>> moves;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Pool task body: runs `first`, then keeps running the released
  /// clusters it keeps inline (see dispatch()) until none is left.
  void execute_cluster(RoutedCluster first);
  /// StepFn plus the world write (and kv mirror) for one cluster. Returns
  /// false, leaving `moves` empty, when the run has already failed.
  bool step_and_write(const core::AgentCluster& cluster,
                      std::vector<std::pair<AgentId, Pos>>* moves);
  /// The interior (one-strip) commit path. Returns false, having done
  /// nothing, when the commit must take the cross-shard path instead.
  bool commit_interior(const core::AgentCluster& cluster,
                       const std::vector<std::pair<AgentId, Pos>>& moves,
                       std::chrono::steady_clock::time_point wait_begin,
                       std::vector<RoutedCluster>* released);
  /// Combiner loop: drain cross_queue_ a batch at a time, applying each
  /// batch under one exclusive topology hold. Entered only by the worker
  /// that set combining_; clears it (under cross_mutex_) on finding the
  /// queue empty.
  void combine_cross_commits();
  /// Count `released` in flight and post each to its home strip's pool
  /// at step priority; drops them all once the run has failed. With
  /// `next`, the earliest-step cluster homed on `home` goes there instead
  /// (inline continuation) unless earlier work is queued on `home`.
  void dispatch(std::vector<RoutedCluster> released, TaskPool* home = nullptr,
                std::optional<RoutedCluster>* next = nullptr);
  void post(RoutedCluster rc);
  /// Resolve each cluster's home strip under the current partition.
  /// Caller must hold topology_mutex_ (shared suffices: routing only
  /// reads) — a guard TSA cannot express for either-mode holds.
  std::vector<RoutedCluster> route_clusters(
      std::vector<core::AgentCluster> ready);
  /// Record the first task failure; later ones are dropped.
  void record_error(std::exception_ptr error);
  /// Retire `n` in-flight units. Only the decrement that may reach zero
  /// takes control_mutex_ (and wakes the controller): a waiter in
  /// ~Engine may destroy done_cv_ the instant it sees zero. The caller
  /// must not touch the engine afterwards unless it still holds a unit.
  void retire(std::int64_t n);
  /// Fire the next reshard boundary if min_step() has cleared it:
  /// re-quantile the partition against the contention deltas since the
  /// last rebalance and repartition the scoreboard in place. Caller must
  /// hold topology_mutex_ exclusively (the cross-shard commit path).
  void maybe_reshard();

  world::WorldState* world_;
  EngineConfig config_;
  StepFn step_fn_;
  /// Set once in the constructor. The pointed-to graph is mutated under
  /// the boundary-lag protocol described in the header comment (shared
  /// topology + one strip lock, or exclusive topology) — a guard Clang
  /// TSA cannot express, so the pointer is deliberately unannotated.
  std::unique_ptr<core::Scoreboard> scoreboard_;
  kv::Store store_;

  std::unique_ptr<TaskPool> owned_pool_;
  std::vector<std::unique_ptr<TaskPool>> owned_shard_pools_;
  TaskPool* pool_ = nullptr;
  /// Routing table, size shards(): per-strip pools or aliases of pool_.
  std::vector<TaskPool*> shard_pools_;

  std::int32_t shards_ = 1;
  /// Cross-shard commits hold this exclusively; interior commits hold it
  /// shared plus one shard mutex. Acquired before any other engine lock.
  common::SharedMutex topology_mutex_{"engine.topology"};
  std::vector<std::unique_ptr<common::Mutex>> shard_mutexes_;
  /// Monotonic lower bound on scoreboard min_step(); refreshed only by
  /// cross-shard commits (the only ones that may read every strip's
  /// live-step table). Bounds interior commits' probe radii.
  std::atomic<Step> min_floor_{0};
  /// The next unapplied config.reshard_at boundary (max() when none
  /// remain). Read lock-free by every commit to force the near-boundary
  /// commits cross-shard; advanced only under topology-exclusive. Only
  /// ever advances, so a stale read is merely conservative.
  std::atomic<Step> next_reshard_step_;
  /// Index into config_.reshard_at of the boundary above. Mutated and
  /// read only under topology-exclusive (maybe_reshard).
  std::size_t next_reshard_idx_ = 0;

  /// Cross-shard commits queue here for the combiner. Taken alone —
  /// never while holding topology_mutex_ or a shard mutex — and the
  /// combining_ flag shares it with the queue, so a commit is either
  /// seen by the active combiner or makes its pusher the next one.
  common::Mutex cross_mutex_{"engine.cross"};
  std::vector<PendingCommit> cross_queue_ GUARDED_BY(cross_mutex_);
  bool combining_ GUARDED_BY(cross_mutex_) = false;

  /// Control plane: run()/~Engine() wait here for in-flight cluster
  /// tasks to drain. Never held while acquiring topology/shard locks.
  common::Mutex control_mutex_{"engine.control"};
  common::CondVar done_cv_;
  /// Clusters released but not yet committed: queued on a pool, running,
  /// kept for inline continuation, or waiting in cross_queue_. A
  /// cluster's unit is added before the unit of the commit that released
  /// it is retired, so zero means the run has drained.
  std::atomic<std::int64_t> inflight_clusters_{0};
  /// First task failure; stops dispatch.
  std::exception_ptr error_ GUARDED_BY(control_mutex_);
  /// Lock-free mirror of `error_ != nullptr` so workers can skip the
  /// world commit on failed runs without touching the control lock.
  std::atomic<bool> failed_{false};
  mutable common::Mutex stats_mutex_{"engine.stats"};
  EngineStats stats_ GUARDED_BY(stats_mutex_);
  /// Commit contention per strip + the cross-shard row (size shards+1).
  std::vector<EngineStats> shard_rows_ GUARDED_BY(stats_mutex_);
  /// Snapshot of shard_rows_ at the last rebalance; maybe_reshard weighs
  /// strips by the delta against it.
  std::vector<EngineStats> reshard_base_ GUARDED_BY(stats_mutex_);
};

}  // namespace aimetro::runtime
