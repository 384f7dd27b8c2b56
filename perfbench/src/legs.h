// The benchmark's legs: each one drives a simulator layer through its
// public entry points on a prepared workload and returns what the
// correctness gate and the metrics need. Every leg takes an optional
// Tracer; with null it records nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "replay/experiment.h"
#include "runtime/engine.h"
#include "runtime/task_pool.h"
#include "scenario/spec.h"
#include "trace/schema.h"
#include "tracer.h"
#include "world/grid_map.h"

namespace perfbench {

/// Thread budget of the live-engine leg. Fixed constants rather than
/// derived from the host, so runs on different hosts do the same work.
inline constexpr std::int32_t kEngineWorkers = 4;
inline constexpr std::int32_t kChainPoolWorkers = 4;

/// The workload names, in presentation order.
const std::vector<std::string>& workload_names();

/// The scenario spec behind workload `name`, seeded with `seed`. Throws
/// std::invalid_argument for an unknown name.
aimetro::scenario::ScenarioSpec workload_spec(const std::string& name,
                                              std::uint64_t seed);

/// A workload's inputs, ready to run: the world map, the windowed trace,
/// per-agent call chains (pointing into `trace`, hence not copyable) and
/// the DES experiment cell.
struct Prepared {
  Prepared() = default;
  Prepared(const Prepared&) = delete;
  Prepared& operator=(const Prepared&) = delete;

  aimetro::scenario::ScenarioSpec spec;
  std::unique_ptr<aimetro::world::GridMap> map;
  aimetro::trace::SimulationTrace trace;
  std::vector<aimetro::trace::StepCalls> chains;
  aimetro::replay::ExperimentConfig des_config;
  /// Calls in the generated (unwindowed) trace.
  std::uint64_t generated_calls = 0;

  std::uint64_t calls() const { return trace.total_calls(); }
  /// agents x steps: what every complete run must commit.
  std::uint64_t agent_steps() const {
    return static_cast<std::uint64_t>(trace.n_agents) *
           static_cast<std::uint64_t>(trace.n_steps);
  }
};

/// Spec -> map + windowed trace + call chains (the set-up leg).
std::unique_ptr<Prepared> set_up(const aimetro::scenario::ScenarioSpec& spec,
                                 Tracer* tracer);

struct DesRun {
  aimetro::replay::ExperimentResult result;
  double host_s = 0.0;
};

/// replay::run_experiment in `mode` on the cost-model cluster.
DesRun run_des(const Prepared& p, aimetro::replay::Mode mode, Tracer* tracer);

struct EngineRun {
  double wall_s = 0.0;  // Engine::run only; construction is excluded
  aimetro::runtime::EngineStats stats;
  std::uint64_t calls = 0;
  std::uint64_t world_hash = 0;
  bool all_done = false;
  /// Per-strip commit rows; the last one is the cross-shard row.
  std::vector<aimetro::runtime::EngineStats> shard_rows;
  aimetro::runtime::TaskPoolStats pool;        // the engine's first pool
  aimetro::runtime::TaskPoolStats chain_pool;  // zero with one worker
  Tracer::SpanId run_span = 0;
};

/// runtime::Engine::run replaying the trace with `workers` workers and the
/// deterministic FakeLlmClient at zero latency, so the wall time is the
/// simulator's own cost. With one worker member chains run inline (the
/// single-cursor reference); otherwise on a kChainPoolWorkers chain pool.
EngineRun run_engine(const Prepared& p, std::int32_t workers, Tracer* tracer);

struct DriveRun {
  std::uint64_t commits = 0;
  std::uint64_t local_commits = 0;  // local_commit_shard() >= 0
  std::uint64_t agent_steps = 0;
  std::uint64_t world_hash = 0;
  bool all_done = false;
};

/// The engine's commit protocol driven on one thread through the public
/// calls — WorldState::resolve_conflict_and_commit,
/// Scoreboard::local_commit_shard, commit and pop_ready_clusters(_in_shard)
/// — so each call can be timed from the outside.
DriveRun drive_scoreboard(const Prepared& p, Tracer* tracer);

}  // namespace perfbench
