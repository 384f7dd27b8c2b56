#include "legs.h"

#include <cstdlib>
#include <optional>
#include <queue>
#include <stdexcept>
#include <utility>

#include "common/mutex.h"
#include "common/strings.h"
#include "llm/client.h"
#include "scenario/driver.h"
#include "scenario/registry.h"
#include "world/world_state.h"

namespace perfbench {

namespace as = aimetro::scenario;
using aimetro::AgentId;
using aimetro::Pos;
using aimetro::Step;
using aimetro::Tile;

namespace {

// grid_metro's busy window: 12:00 to 12:30 (10 simulated seconds per
// step).
constexpr Step kWindowBegin = 4320;
constexpr Step kWindowEnd = kWindowBegin + 180;

aimetro::core::ScanMode scan_mode_of(const as::ScenarioSpec& spec) {
  return spec.scoreboard == as::ScoreboardKind::kBrute
             ? aimetro::core::ScanMode::kBruteForce
             : aimetro::core::ScanMode::kIndexed;
}

aimetro::world::PartitionKind partition_of(const as::ScenarioSpec& spec) {
  return spec.partition == as::PartitionChoice::kPopulation
             ? aimetro::world::PartitionKind::kEqualPopulation
             : aimetro::world::PartitionKind::kEqualWidth;
}

std::int32_t sign(std::int32_t d) { return d > 0 ? 1 : (d < 0 ? -1 : 0); }

/// One 4-neighbour step from `from` toward `to`, the larger gap first —
/// the movement rule of the scenario driver's engine trace replay, so the
/// engine here commits the same world as `aimetro_run --backend=engine`.
Tile step_toward(const aimetro::world::GridMap& map, Tile from, Tile to) {
  const std::int32_t dx = to.x - from.x;
  const std::int32_t dy = to.y - from.y;
  const Tile via_x{from.x + sign(dx), from.y};
  const Tile via_y{from.x, from.y + sign(dy)};
  const Tile first = std::abs(dx) >= std::abs(dy) ? via_x : via_y;
  const Tile second = std::abs(dx) >= std::abs(dy) ? via_y : via_x;
  if (!(first == from) && map.walkable(first)) return first;
  if (!(second == from) && map.walkable(second)) return second;
  return from;
}

/// Each agent's intent for `cluster`'s step: one move toward its traced
/// position at the next step.
std::vector<aimetro::world::StepIntent> trace_intents(
    const Prepared& p, const aimetro::core::AgentCluster& cluster,
    const aimetro::world::WorldState& world) {
  const Step abs_step = p.trace.start_step + cluster.step;
  std::vector<aimetro::world::StepIntent> intents;
  intents.reserve(cluster.members.size());
  for (AgentId m : cluster.members) {
    Tile current;
    {
      aimetro::common::ReaderLock lock(world.mutex());
      current = world.tile_of(m);
    }
    const Tile want = p.trace.position_at(m, abs_step + 1);
    const Tile next = step_toward(*p.map, current, want);
    aimetro::world::StepIntent intent;
    intent.agent = m;
    if (!(next == current)) intent.move_to = next;
    intents.push_back(intent);
  }
  return intents;
}

std::vector<Tile> start_tiles(const aimetro::trace::SimulationTrace& tr) {
  std::vector<Tile> starts;
  starts.reserve(static_cast<std::size_t>(tr.n_agents));
  for (AgentId a = 0; a < tr.n_agents; ++a) {
    starts.push_back(tr.position_at(a, tr.start_step));
  }
  return starts;
}

/// The benchmark-side LlmClient wrapper: one span per completion.
class TracedClient final : public aimetro::llm::LlmClient {
 public:
  TracedClient(aimetro::llm::LlmClient* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  aimetro::llm::CompletionResult complete(
      const aimetro::llm::CompletionRequest& request) override {
    ScopedSpan span(tracer_, "llm.complete");
    return inner_->complete(request);
  }

 private:
  aimetro::llm::LlmClient* inner_;
  Tracer* tracer_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"grid_metro", "paper_day"};
  return names;
}

as::ScenarioSpec workload_spec(const std::string& name, std::uint64_t seed) {
  std::string registry_name;
  if (name == "grid_metro") {
    registry_name = "metro_ville2000";
  } else if (name == "paper_day") {
    registry_name = "smallville_day";
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  std::string error;
  std::optional<as::ScenarioSpec> spec =
      as::find_scenario(registry_name, &error);
  if (!spec) throw std::invalid_argument(error);
  if (name == "grid_metro") {
    spec->window_begin = kWindowBegin;
    spec->window_end = kWindowEnd;
    spec->shards = 4;
  } else {
    spec->window_begin = -1;  // the whole generated day
    spec->window_end = -1;
  }
  spec->seed = seed;
  return *spec;
}

std::unique_ptr<Prepared> set_up(const as::ScenarioSpec& spec,
                                 Tracer* tracer) {
  ScopedSpan root(tracer, "setup");
  auto p = std::make_unique<Prepared>();
  p->spec = spec;
  const as::ScenarioDriver driver(spec);
  {
    ScopedSpan span(tracer, "world.map_build");
    p->map = std::make_unique<aimetro::world::GridMap>(driver.build_map());
  }
  // ScenarioDriver::build_trace generates the whole episode and then
  // slices the window; the two halves are called separately here so each
  // gets its own span.
  as::ScenarioSpec unwindowed = spec;
  unwindowed.window_begin = -1;
  unwindowed.window_end = -1;
  aimetro::trace::SimulationTrace full;
  {
    ScopedSpan span(tracer, "trace.generate");
    full = as::ScenarioDriver(unwindowed).build_trace();
  }
  p->generated_calls = full.total_calls();
  if (spec.window_begin >= 0) {
    ScopedSpan span(tracer, "trace.slice");
    p->trace =
        aimetro::trace::slice(full, spec.window_begin, spec.window_end);
  } else {
    p->trace = std::move(full);
  }
  {
    ScopedSpan span(tracer, "trace.group_calls");
    p->chains.resize(static_cast<std::size_t>(p->trace.n_agents));
    for (std::size_t i = 0; i < p->chains.size(); ++i) {
      p->chains[i] = aimetro::trace::group_calls_by_step(p->trace.agents[i]);
    }
  }
  p->des_config = driver.experiment_config();
  return p;
}

DesRun run_des(const Prepared& p, aimetro::replay::Mode mode, Tracer* tracer) {
  aimetro::replay::ExperimentConfig cfg = p.des_config;
  cfg.mode = mode;
  DesRun out;
  ScopedSpan span(tracer, mode == aimetro::replay::Mode::kMetropolis
                              ? "des.metro"
                              : "des.sync");
  const auto start = Clock::now();
  out.result = aimetro::replay::run_experiment(p.trace, cfg);
  out.host_s = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

EngineRun run_engine(const Prepared& p, std::int32_t workers, Tracer* tracer) {
  const aimetro::trace::SimulationTrace& tr = p.trace;
  aimetro::llm::FakeLlmClient fake(p.spec.seed, /*latency_us=*/0);
  TracedClient client(&fake, tracer);
  aimetro::world::WorldState world(p.map.get(), start_tiles(tr));

  aimetro::runtime::EngineConfig cfg;
  cfg.params = aimetro::core::DependencyParams{p.spec.radius_p,
                                               p.spec.max_vel};
  cfg.target_step = tr.n_steps;
  cfg.n_workers = workers;
  cfg.scan_mode = scan_mode_of(p.spec);
  cfg.kv_instrumentation = false;  // as the scenario driver runs it
  cfg.shards = p.spec.resolved_shards();
  cfg.partition = partition_of(p.spec);

  // One agent's traced calls for a step, issued in chain order.
  auto issue_chain = [&](AgentId m, Step abs_step) {
    const auto& by_step = p.chains[static_cast<std::size_t>(m)];
    const auto it = by_step.find(abs_step);
    if (it == by_step.end()) return;
    for (const aimetro::trace::LlmCall* call : it->second) {
      aimetro::llm::CompletionRequest req;
      req.prompt = aimetro::strformat(
          "agent=%d step=%d type=%s", m, abs_step,
          aimetro::trace::call_type_name(call->type));
      req.prompt_tokens = call->input_tokens;
      req.max_tokens = call->output_tokens;
      req.priority = abs_step;
      client.complete(req);
    }
  };

  // Distinct members' chains are independent, so parallel runs hand them
  // to a chain pool created before the timed region; the 1-worker run
  // keeps them serial, the single global cursor of the original design.
  std::unique_ptr<aimetro::runtime::TaskPool> chain_pool;
  if (workers > 1) {
    chain_pool = std::make_unique<aimetro::runtime::TaskPool>(kChainPoolWorkers);
  }
  Tracer::SpanId run_span = 0;  // set before run(); read by worker threads
  auto step_fn = [&](const aimetro::core::AgentCluster& cluster,
                     const aimetro::world::WorldState& w) {
    ScopedSpan span(tracer, "runtime.stepfn", run_span);
    const Step abs_step = tr.start_step + cluster.step;
    std::vector<AgentId> with_calls;
    for (AgentId m : cluster.members) {
      if (p.chains[static_cast<std::size_t>(m)].count(abs_step) != 0) {
        with_calls.push_back(m);
      }
    }
    if (chain_pool != nullptr && with_calls.size() > 1) {
      ScopedSpan wait(tracer, "runtime.chain_wait");
      const Tracer::SpanId parent = wait.id();
      std::vector<aimetro::runtime::TaskPool::Task> tasks;
      tasks.reserve(with_calls.size());
      for (AgentId m : with_calls) {
        tasks.push_back([&issue_chain, tracer, parent, m, abs_step] {
          AdoptParent adopt(tracer, parent);
          issue_chain(m, abs_step);
        });
      }
      chain_pool->submit_and_wait(std::move(tasks), /*priority=*/abs_step);
    } else {
      for (AgentId m : with_calls) issue_chain(m, abs_step);
    }
    return trace_intents(p, cluster, w);
  };

  EngineRun out;
  {
    aimetro::runtime::Engine engine(&world, cfg, step_fn);
    {
      ScopedSpan span(tracer, workers > 1 ? "engine.run" : "engine.serial_run");
      run_span = span.id();
      const auto start = Clock::now();
      out.stats = engine.run();
      out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    }
    out.run_span = run_span;
    out.all_done = engine.scoreboard().all_done();
    out.shard_rows = engine.shard_commit_stats();
    out.pool = engine.pool().stats();
  }
  if (chain_pool != nullptr) {
    out.chain_pool = chain_pool->stats();
    chain_pool->shutdown();
  }
  out.calls = fake.calls();
  aimetro::common::ReaderLock lock(world.mutex());
  out.world_hash = world.state_hash();
  return out;
}

DriveRun drive_scoreboard(const Prepared& p, Tracer* tracer) {
  ScopedSpan root(tracer, "core.drive");
  const aimetro::trace::SimulationTrace& tr = p.trace;
  const std::vector<Tile> starts = start_tiles(tr);
  std::vector<Pos> positions;
  positions.reserve(starts.size());
  for (const Tile& t : starts) positions.push_back(t.center());
  aimetro::world::WorldState world(p.map.get(), starts);
  aimetro::core::Scoreboard board(
      aimetro::core::DependencyParams{p.spec.radius_p, p.spec.max_vel},
      aimetro::core::make_euclidean(),
      std::move(positions), tr.n_steps, scan_mode_of(p.spec),
      p.spec.resolved_shards(), partition_of(p.spec));

  // Ready clusters run earliest step first, FIFO within a step — the
  // order the engine's step-priority pools dispatch them in.
  using Entry = std::pair<std::pair<Step, std::uint64_t>,
                          aimetro::core::AgentCluster>;
  auto later = [](const Entry& a, const Entry& b) { return a.first > b.first; };
  std::priority_queue<Entry, std::vector<Entry>, decltype(later)> ready(later);
  std::uint64_t sequence = 0;
  auto enqueue = [&](std::vector<aimetro::core::AgentCluster> clusters) {
    for (auto& c : clusters) {
      const Step step = c.step;
      ready.push(Entry{{step, sequence++}, std::move(c)});
    }
  };
  {
    ScopedSpan span(tracer, "core.pop");
    enqueue(board.pop_ready_clusters());
  }

  DriveRun out;
  // Monotonic lower bound on min_step(), refreshed by cross-shard commits
  // only — the engine's probe floor.
  Step floor = board.min_step();
  while (!ready.empty()) {
    aimetro::core::AgentCluster cluster = ready.top().second;
    ready.pop();
    const auto intents = trace_intents(p, cluster, world);
    std::vector<std::pair<AgentId, Pos>> moves;
    {
      aimetro::common::WriterLock lock(world.mutex());
      ScopedSpan span(tracer, "world.commit");
      const auto outcomes =
          world.resolve_conflict_and_commit(cluster.step, intents);
      moves.reserve(outcomes.size());
      for (const auto& o : outcomes) moves.emplace_back(o.agent, o.tile.center());
    }
    std::int32_t strip = -1;
    {
      ScopedSpan span(tracer, "core.classify");
      strip = board.local_commit_shard(moves, floor);
    }
    std::vector<aimetro::core::AgentCluster> released;
    if (strip >= 0) {
      {
        ScopedSpan span(tracer, "core.commit");
        board.commit(moves, floor);
      }
      ScopedSpan span(tracer, "core.pop");
      released = board.pop_ready_clusters_in_shard(strip);
      ++out.local_commits;
    } else {
      {
        ScopedSpan span(tracer, "core.commit");
        board.commit(moves);
      }
      floor = board.min_step();
      ScopedSpan span(tracer, "core.pop");
      released = board.pop_ready_clusters();
    }
    ++out.commits;
    out.agent_steps += cluster.members.size();
    enqueue(std::move(released));
  }
  out.all_done = board.all_done();
  aimetro::common::ReaderLock lock(world.mutex());
  out.world_hash = world.state_hash();
  return out;
}

}  // namespace perfbench
