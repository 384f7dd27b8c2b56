#include "runtime/engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/strings.h"

namespace aimetro::runtime {

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

/// Sentinel for "no reshard boundary left".
constexpr Step kNoReshard = std::numeric_limits<Step>::max();

void check_unbounded(const TaskPool& pool) {
  // Workers dispatch the clusters their own commits release: a bounded
  // queue's backpressure would block a submitting worker on queue space
  // that only workers (possibly all blocked the same way) can free.
  // Refuse loudly.
  AIM_CHECK_MSG(pool.max_queued() == 0,
                "Engine requires unbounded TaskPools (workers dispatch "
                "released clusters; backpressure would deadlock)");
}

}  // namespace

Engine::Engine(world::WorldState* world, EngineConfig config, StepFn step_fn)
    : world_(world), config_(config), step_fn_(std::move(step_fn)) {
  AIM_CHECK(world_ != nullptr);
  AIM_CHECK(step_fn_ != nullptr);
  AIM_CHECK(config_.n_workers >= 1);
  AIM_CHECK_MSG(config_.shards >= 1 && config_.shards <= core::kMaxShards,
                "EngineConfig::shards out of range");
  std::vector<Pos> initial;
  initial.reserve(world_->agent_count());
  for (std::size_t i = 0; i < world_->agent_count(); ++i) {
    initial.push_back(world_->pos_of(static_cast<AgentId>(i)));
  }
  for (std::size_t i = 0; i < config_.reshard_at.size(); ++i) {
    AIM_CHECK_MSG(config_.reshard_at[i] > 0 &&
                      (i == 0 || config_.reshard_at[i - 1] < config_.reshard_at[i]),
                  "EngineConfig::reshard_at must be positive and strictly "
                  "ascending");
  }
  next_reshard_step_.store(
      config_.reshard_at.empty() ? kNoReshard : config_.reshard_at.front(),
      std::memory_order_release);
  scoreboard_ = std::make_unique<core::Scoreboard>(
      config_.params,
      config_.metric ? config_.metric : core::make_euclidean(),
      std::move(initial), config_.target_step, config_.scan_mode,
      config_.shards, config_.partition);
  // The scoreboard may collapse the partition (graph metrics, brute
  // scans); size everything to what it actually runs.
  shards_ = scoreboard_->shards();
  shard_rows_.assign(static_cast<std::size_t>(shards_) + 1, EngineStats{});
  reshard_base_ = shard_rows_;
  shard_mutexes_.reserve(static_cast<std::size_t>(shards_));
  for (std::int32_t s = 0; s < shards_; ++s) {
    shard_mutexes_.push_back(std::make_unique<common::Mutex>("engine.shard"));
  }

  if (!config_.shard_pools.empty()) {
    AIM_CHECK_MSG(config_.shard_pools.size() >=
                      static_cast<std::size_t>(shards_),
                  "EngineConfig::shard_pools must cover every shard");
    for (std::int32_t s = 0; s < shards_; ++s) {
      TaskPool* p = config_.shard_pools[static_cast<std::size_t>(s)];
      AIM_CHECK(p != nullptr);
      check_unbounded(*p);
      shard_pools_.push_back(p);
    }
  } else if (config_.pool != nullptr) {
    check_unbounded(*config_.pool);
    shard_pools_.assign(static_cast<std::size_t>(shards_), config_.pool);
  } else if (shards_ > 1) {
    // Private pool per strip, splitting n_workers between them so the
    // total thread budget matches the unsharded configuration. With
    // pin_cores, strip s's workers are pinned to the s-th contiguous
    // core group so its scoreboard slice stays in one cache/NUMA domain
    // (wrapping when there are more strips than cores).
    const std::int32_t per_shard =
        std::max<std::int32_t>(1, (config_.n_workers + shards_ - 1) / shards_);
    const std::int32_t n_cpus =
        static_cast<std::int32_t>(std::thread::hardware_concurrency());
    const std::int32_t group =
        n_cpus > 0 ? std::max<std::int32_t>(1, n_cpus / shards_) : 0;
    for (std::int32_t s = 0; s < shards_; ++s) {
      TaskPoolConfig pool_cfg;
      pool_cfg.n_workers = per_shard;
      if (config_.pin_cores && n_cpus > 0) {
        pool_cfg.cpus.reserve(static_cast<std::size_t>(group));
        for (std::int32_t c = 0; c < group; ++c) {
          pool_cfg.cpus.push_back((s * group + c) % n_cpus);
        }
      }
      owned_shard_pools_.push_back(std::make_unique<TaskPool>(pool_cfg));
      shard_pools_.push_back(owned_shard_pools_.back().get());
    }
  } else {
    owned_pool_ = std::make_unique<TaskPool>(config_.n_workers);
    shard_pools_.assign(1, owned_pool_.get());
  }
  pool_ = shard_pools_.front();

  if (config_.kv_instrumentation) {
    for (std::size_t i = 0; i < world_->agent_count(); ++i) {
      const Tile t = world_->tile_of(static_cast<AgentId>(i));
      const std::string key = strformat("agent:%zu", i);
      store_.hset(key, "step", "0");
      store_.hset(key, "x", std::to_string(t.x));
      store_.hset(key, "y", std::to_string(t.y));
    }
  }
}

Engine::~Engine() {
  // In-flight cluster tasks reference this engine; when the pools are
  // external we cannot rely on the pool destructors to join them, so
  // drain explicitly either way.
  common::MutexLock lock(control_mutex_);
  while (inflight_clusters_.load(std::memory_order_acquire) != 0) {
    done_cv_.wait(control_mutex_);
  }
}

std::vector<Engine::RoutedCluster> Engine::route_clusters(
    std::vector<core::AgentCluster> ready) {
  // Home strip of a cluster = strip of its first (smallest-id) member.
  // Members are running between pop and commit, so the position is
  // stable; the partition itself may move at reshard points, which is why
  // the caller resolves routing here, still under the topology lock.
  std::vector<RoutedCluster> routed;
  routed.reserve(ready.size());
  for (core::AgentCluster& cluster : ready) {
    const std::int32_t s =
        shards_ == 1 ? 0
                     : scoreboard_->shard_of_pos(
                           scoreboard_->pos_of(cluster.members.front()));
    routed.push_back(RoutedCluster{s, std::move(cluster)});
  }
  return routed;
}

void Engine::post(RoutedCluster rc) {
  // Released clusters become pool tasks at their step as the priority, so
  // a backlogged pool still hands the earliest step to the next free
  // worker (§3.5). The caller already counted the task in flight.
  TaskPool* pool = shard_pools_[static_cast<std::size_t>(rc.strip)];
  const Step step = rc.cluster.step;
  pool->post(step, [this, rc = std::move(rc)]() mutable {
    execute_cluster(std::move(rc));
  });
}

void Engine::dispatch(std::vector<RoutedCluster> released, TaskPool* home,
                      std::optional<RoutedCluster>* next) {
  if (released.empty() || failed_.load(std::memory_order_acquire)) return;
  inflight_clusters_.fetch_add(static_cast<std::int64_t>(released.size()),
                               std::memory_order_acq_rel);
  // Inline continuation: keep the earliest-step cluster homed on the
  // committing worker's own pool and run it next, so a µs-scale chain of
  // clusters never pays a cross-thread hand-off — unless earlier-step
  // work is already queued there, which must run first (§3.5).
  // `released` is ordered by (step, first member), so the first home
  // cluster is the earliest.
  auto keep = released.end();
  if (next != nullptr) {
    keep = std::find_if(released.begin(), released.end(),
                        [&](const RoutedCluster& rc) {
                          return shard_pools_[static_cast<std::size_t>(
                                     rc.strip)] == home;
                        });
    if (keep != released.end() &&
        keep->cluster.step > home->front_priority_hint()) {
      keep = released.end();
    }
  }
  for (auto it = released.begin(); it != released.end(); ++it) {
    if (it == keep) {
      *next = std::move(*it);
    } else {
      post(std::move(*it));
    }
  }
}

void Engine::record_error(std::exception_ptr error) {
  // The controller is not woken here: it waits for the in-flight count to
  // drain anyway, and the decrement that drains it wakes it.
  common::MutexLock lock(control_mutex_);
  if (error_ == nullptr) {
    error_ = std::move(error);
    failed_.store(true, std::memory_order_release);
  }
}

void Engine::retire(std::int64_t n) {
  std::int64_t cur = inflight_clusters_.load(std::memory_order_acquire);
  while (cur > n) {
    if (inflight_clusters_.compare_exchange_weak(
            cur, cur - n, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      return;
    }
  }
  // Possibly the last units: decrement and notify under the lock, so a
  // waiter in ~Engine cannot destroy done_cv_ before notify returns.
  common::MutexLock lock(control_mutex_);
  if (inflight_clusters_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    done_cv_.notify_all();
  }
}

void Engine::maybe_reshard() {
  if (next_reshard_idx_ >= config_.reshard_at.size()) return;
  const Step now = scoreboard_->min_step();
  if (now < config_.reshard_at[next_reshard_idx_]) return;
  // Consume every boundary the minimum has cleared (several can fall in
  // one commit when boundaries are close together), but rebalance once.
  while (next_reshard_idx_ < config_.reshard_at.size() &&
         config_.reshard_at[next_reshard_idx_] <= now) {
    ++next_reshard_idx_;
  }
  next_reshard_step_.store(next_reshard_idx_ < config_.reshard_at.size()
                               ? config_.reshard_at[next_reshard_idx_]
                               : kNoReshard,
                           std::memory_order_release);
  if (shards_ <= 1) return;
  // Weigh each strip by the contention it accumulated since the last
  // rebalance: commits carry the load, and every millisecond a worker
  // waited on the strip's lock counts like one more commit, so a strip
  // that serializes gets split even if its commit count looks modest.
  std::vector<double> weights(static_cast<std::size_t>(shards_), 0.0);
  {
    common::MutexLock slock(stats_mutex_);
    for (std::int32_t s = 0; s < shards_; ++s) {
      const EngineStats& row = shard_rows_[static_cast<std::size_t>(s)];
      const EngineStats& base = reshard_base_[static_cast<std::size_t>(s)];
      weights[static_cast<std::size_t>(s)] =
          static_cast<double>(row.commits - base.commits) +
          static_cast<double>(row.commit_wait_us - base.commit_wait_us) /
              1000.0;
    }
    reshard_base_ = shard_rows_;
    ++stats_.reshards;
  }
  scoreboard_->repartition(scoreboard_->partition().rebalanced(weights));
}

bool Engine::step_and_write(const core::AgentCluster& cluster,
                            std::vector<std::pair<AgentId, Pos>>* moves) {
  // Heavy lifting off the controller's critical path (§3.6): agent
  // processing (LLM calls) runs without any engine lock.
  const std::vector<world::StepIntent> intents = step_fn_(cluster, *world_);
  if (failed_.load(std::memory_order_acquire)) return false;
  // resolve_conflict_and_commit applies developer conflict rules and
  // commits winners to the world; the unique world lock excludes
  // concurrent observation readers in other workers. The dependency rules
  // already guarantee in-flight clusters touch disjoint perception
  // regions, so world commits from different clusters can interleave
  // freely.
  common::WriterLock world_lock(world_->mutex());
  const auto outcomes =
      world_->resolve_conflict_and_commit(cluster.step, intents);
  world_lock.unlock();
  moves->reserve(outcomes.size());
  for (const auto& out : outcomes) {
    moves->emplace_back(out.agent, out.tile.center());
  }
  if (config_.kv_instrumentation) {
    // Transactional mirror of the committed agent rows, as the paper
    // keeps all simulation state in the in-memory database. The store's
    // shard locks make this safe outside the commit locks. Sharded runs
    // log per strip so the instrumentation stream shows the shard-local
    // traffic split.
    kv::Transaction txn = store_.transaction();
    for (const auto& out : outcomes) {
      const std::string key = strformat("agent:%d", out.agent);
      txn.hset(key, "step", std::to_string(cluster.step + 1));
      txn.hset(key, "x", std::to_string(out.tile.x));
      txn.hset(key, "y", std::to_string(out.tile.y));
    }
    const std::string log_key =
        shards_ > 1 && !moves->empty()
            ? strformat("log:commits:%d",
                        scoreboard_->shard_of_pos(moves->front().second))
            : std::string("log:commits");
    txn.rpush(log_key, strformat("step=%d size=%zu", cluster.step,
                                 cluster.members.size()));
    txn.incr_by("stats:agent_steps",
                static_cast<std::int64_t>(cluster.members.size()));
    const auto result = txn.exec();
    common::MutexLock slock(stats_mutex_);
    ++stats_.kv_transactions;
    if (result == kv::TxnResult::kConflict) ++stats_.kv_conflicts;
  }
  return true;
}

bool Engine::commit_interior(
    const core::AgentCluster& cluster,
    const std::vector<std::pair<AgentId, Pos>>& moves,
    std::chrono::steady_clock::time_point wait_begin,
    std::vector<RoutedCluster>* released) {
  // Near an unapplied reshard boundary B, commits that could raise
  // min_step() past B (cluster.step + 1 >= B) are forced cross-shard: the
  // raising commit is then applied under the exclusive topology hold,
  // which is exactly where the rebalance may run. The atomic only ever
  // advances, so a stale read is merely conservative (extra cross
  // commits, never a missed trigger).
  if (cluster.step + 1 >= next_reshard_step_.load(std::memory_order_acquire)) {
    return false;
  }
  std::uint64_t wait_us = 0;
  std::uint64_t hold_us = 0;
  std::int32_t strip = -1;
  {
    // Prove the commit is confined to one strip, then take that strip's
    // lock under a shared topology hold. The floor is sampled before
    // classification so classification and commit bound their probe
    // radii identically; it can only lag the true minimum, which merely
    // widens the (exactly filtered) probes.
    common::ReaderLock tlock(topology_mutex_);
    const Step floor = min_floor_.load(std::memory_order_acquire);
    strip = scoreboard_->local_commit_shard(moves, floor);
    if (strip < 0) return false;
    common::MutexLock slock(*shard_mutexes_[static_cast<std::size_t>(strip)]);
    const auto acquired = std::chrono::steady_clock::now();
    wait_us = elapsed_us(wait_begin, acquired);
    if (!failed_.load(std::memory_order_acquire)) {
      scoreboard_->commit(moves, floor);
      *released =
          route_clusters(scoreboard_->pop_ready_clusters_in_shard(strip));
    }
    hold_us = elapsed_us(acquired, std::chrono::steady_clock::now());
  }
  common::MutexLock slock(stats_mutex_);
  ++stats_.clusters_executed;
  stats_.agent_steps += cluster.members.size();
  EngineStats& row = shard_rows_[static_cast<std::size_t>(strip)];
  ++row.commits;
  row.commit_wait_us += wait_us;
  row.commit_hold_us += hold_us;
  row.max_commit_wait_us = std::max(row.max_commit_wait_us, wait_us);
  return true;
}

void Engine::combine_cross_commits() {
  // The combiner's own commit is the first entry of its first batch; its
  // unit is retired by the caller once this loop has let go of
  // cross_mutex_, so the engine stays alive for the whole loop.
  std::int64_t own = 1;
  std::vector<PendingCommit> batch;
  for (;;) {
    {
      common::MutexLock lock(cross_mutex_);
      if (cross_queue_.empty()) {
        combining_ = false;
        return;
      }
      batch.swap(cross_queue_);
    }
    // Cross-shard path: exclusive over the whole board, once per batch
    // instead of once per commit. The exclusive hold is the only place
    // the global minimum may be recomputed and published — and therefore
    // the only place a reshard boundary can be observed crossed.
    std::vector<RoutedCluster> released;
    auto acquired = std::chrono::steady_clock::now();
    std::uint64_t hold_us = 0;
    try {
      common::WriterLock tlock(topology_mutex_);
      acquired = std::chrono::steady_clock::now();
      if (!failed_.load(std::memory_order_acquire)) {
        for (const PendingCommit& pc : batch) scoreboard_->commit(pc.moves);
        min_floor_.store(scoreboard_->min_step(), std::memory_order_release);
        maybe_reshard();
        released = route_clusters(scoreboard_->pop_ready_clusters());
      }
      hold_us = elapsed_us(acquired, std::chrono::steady_clock::now());
    } catch (...) {
      record_error(std::current_exception());
    }
    {
      // A combined commit waited from its enqueue until this batch got
      // the lock; the batch's hold is charged once.
      common::MutexLock slock(stats_mutex_);
      EngineStats& row = shard_rows_[static_cast<std::size_t>(shards_)];
      for (const PendingCommit& pc : batch) {
        const std::uint64_t wait_us = elapsed_us(pc.enqueued, acquired);
        ++stats_.clusters_executed;
        stats_.agent_steps += pc.members;
        ++row.commits;
        row.commit_wait_us += wait_us;
        row.max_commit_wait_us = std::max(row.max_commit_wait_us, wait_us);
      }
      row.commit_hold_us += hold_us;
    }
    // The combiner keeps no continuation: it is the one thread every
    // cross commit funnels through, so a cluster it kept would run only
    // after it stopped combining, and its own chain would outrun the
    // posted work (the step spread at commit rose ~5x on paper_day,
    // widening every blocking-radius probe).
    dispatch(std::move(released));
    // Every other worker's commit in the batch is now applied. The
    // combiner still holds its own unit, so none of these is the last.
    if (static_cast<std::int64_t>(batch.size()) > own) {
      retire(static_cast<std::int64_t>(batch.size()) - own);
    }
    own = 0;
    batch.clear();
  }
}

void Engine::execute_cluster(RoutedCluster first) {
  TaskPool* const home = shard_pools_[static_cast<std::size_t>(first.strip)];
  std::optional<RoutedCluster> next(std::move(first));
  while (next.has_value()) {
    const core::AgentCluster cluster = std::move(next->cluster);
    next.reset();
    std::vector<std::pair<AgentId, Pos>> moves;
    std::vector<RoutedCluster> released;
    auto wait_begin = std::chrono::steady_clock::now();
    bool interior = false;
    try {
      if (!step_and_write(cluster, &moves)) {
        retire(1);
        return;
      }
      // Graph maintenance — the boundary-lag commit protocol. Timed so
      // EngineStats can show whether commits serialize the pipeline
      // (wait) and what the maintenance itself costs (hold). With one
      // strip every commit is cross-shard, so classification is skipped.
      wait_begin = std::chrono::steady_clock::now();
      interior = shards_ > 1 &&
                 commit_interior(cluster, moves, wait_begin, &released);
    } catch (...) {
      record_error(std::current_exception());
      retire(1);
      return;
    }
    if (interior) {
      dispatch(std::move(released), home, &next);
      retire(1);
      continue;
    }
    // Cross-shard path: queue the commit for the combiner. If one is
    // active it applies (and retires) this commit, and this worker goes
    // straight back to its pool instead of blocking on the lock.
    bool combine = false;
    {
      common::MutexLock lock(cross_mutex_);
      cross_queue_.push_back(PendingCommit{cluster.step,
                                           cluster.members.size(),
                                           std::move(moves), wait_begin});
      combine = !combining_;
      combining_ = true;
    }
    if (!combine) return;
    combine_cross_commits();
    retire(1);
  }
}

EngineStats Engine::run() {
  {
    common::WriterLock tlock(topology_mutex_);
    std::vector<RoutedCluster> ready =
        route_clusters(scoreboard_->pop_ready_clusters());
    tlock.unlock();
    inflight_clusters_.fetch_add(static_cast<std::int64_t>(ready.size()),
                                 std::memory_order_acq_rel);
    for (RoutedCluster& rc : ready) post(std::move(rc));
  }
  {
    // Controller: wait until every in-flight cluster has drained — then
    // either every agent reached the target or a task failed.
    common::MutexLock lock(control_mutex_);
    while (inflight_clusters_.load(std::memory_order_acquire) != 0) {
      done_cv_.wait(control_mutex_);
    }
    if (error_ != nullptr) std::rethrow_exception(error_);
    AIM_CHECK_MSG(scoreboard_->all_done(),
                  "engine drained before every agent reached the target");
  }
  common::MutexLock slock(stats_mutex_);
  EngineStats out = stats_;
  for (const EngineStats& row : shard_rows_) {
    out.commits += row.commits;
    out.commit_wait_us += row.commit_wait_us;
    out.commit_hold_us += row.commit_hold_us;
    out.max_commit_wait_us =
        std::max(out.max_commit_wait_us, row.max_commit_wait_us);
  }
  return out;
}

std::vector<EngineStats> Engine::shard_commit_stats() const {
  common::MutexLock slock(stats_mutex_);
  return shard_rows_;
}

}  // namespace aimetro::runtime
