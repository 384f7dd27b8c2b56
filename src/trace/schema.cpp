#include "trace/schema.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace aimetro::trace {

const char* call_type_name(CallType t) {
  switch (t) {
    case CallType::kPerceive:
      return "perceive";
    case CallType::kRetrieve:
      return "retrieve";
    case CallType::kPlan:
      return "plan";
    case CallType::kReact:
      return "react";
    case CallType::kConverse:
      return "converse";
    case CallType::kReflect:
      return "reflect";
    case CallType::kDailyPlan:
      return "daily_plan";
    case CallType::kScheduleDecomp:
      return "schedule_decomp";
  }
  return "?";
}

const char* world_kind_name(WorldKind k) {
  switch (k) {
    case WorldKind::kGrid:
      return "grid";
    case WorldKind::kGraph:
      return "graph";
  }
  return "?";
}

std::size_t SimulationTrace::total_calls() const {
  std::size_t n = 0;
  for (const AgentTrace& a : agents) n += a.calls.size();
  return n;
}

Tile SimulationTrace::position_at(AgentId id, Step step) const {
  AIM_CHECK(id >= 0 && static_cast<std::size_t>(id) < agents.size());
  const Step rel = step - start_step;
  AIM_CHECK_MSG(rel >= 0 && static_cast<std::size_t>(rel) <
                                agents[static_cast<std::size_t>(id)]
                                    .positions.size(),
                "step " << step << " outside trace window");
  return agents[static_cast<std::size_t>(id)]
      .positions[static_cast<std::size_t>(rel)];
}

void SimulationTrace::validate() const {
  AIM_CHECK(n_agents == static_cast<std::int32_t>(agents.size()));
  AIM_CHECK(n_steps >= 0);
  AIM_CHECK(radius_p >= 0.0 && max_vel >= 0.0);
  const bool graph = world_kind == WorldKind::kGraph;
  if (graph) {
    AIM_CHECK_MSG(!graph_adjacency.empty(),
                  "graph trace carries no adjacency");
    AIM_CHECK_MSG(map_width ==
                          static_cast<std::int32_t>(graph_adjacency.size()) &&
                      map_height == 1,
                  "graph trace bounds must be (node count, 1)");
    const auto n_nodes = static_cast<std::int32_t>(graph_adjacency.size());
    for (const auto& neighbors : graph_adjacency) {
      AIM_CHECK_MSG(std::is_sorted(neighbors.begin(), neighbors.end()),
                    "graph adjacency lists must be sorted");
      for (std::int32_t v : neighbors) AIM_CHECK(v >= 0 && v < n_nodes);
    }
  } else {
    AIM_CHECK_MSG(graph_adjacency.empty(),
                  "grid trace carries a graph adjacency");
  }
  // 64-bit: a corrupt start_step near the int32 limit must fail a check,
  // not overflow.
  const std::int64_t window_end = static_cast<std::int64_t>(start_step) + n_steps;
  // A one-hop move is legal only when the speed budget allows a full hop.
  const bool hops_allowed = max_vel >= 1.0 - 1e-9;
  auto adjacent = [&](std::int32_t a, std::int32_t b) {
    const auto& neighbors = graph_adjacency[static_cast<std::size_t>(a)];
    return std::binary_search(neighbors.begin(), neighbors.end(), b);
  };
  for (std::size_t i = 0; i < agents.size(); ++i) {
    const AgentTrace& a = agents[i];
    AIM_CHECK_MSG(a.agent == static_cast<AgentId>(i),
                  "agent ids must be dense and ordered");
    AIM_CHECK_MSG(a.positions.size() == static_cast<std::size_t>(n_steps) + 1,
                  "agent " << i << " has " << a.positions.size()
                           << " positions, expected "
                           << static_cast<std::int64_t>(n_steps) + 1);
    for (const Tile& t : a.positions) {
      AIM_CHECK_MSG(t.x >= 0 && t.x < map_width && t.y >= 0 && t.y < map_height,
                    "agent " << i << " position out of bounds");
    }
    for (std::size_t s = 0; s + 1 < a.positions.size(); ++s) {
      if (graph) {
        // Graph speed rule: stay put, or hop one edge when max_vel allows
        // a whole hop (hop distances are integral, so max_vel below 1
        // means no movement at all).
        const std::int32_t from = a.positions[s].x;
        const std::int32_t to = a.positions[s + 1].x;
        if (from == to) continue;
        AIM_CHECK_MSG(hops_allowed && adjacent(from, to),
                      "agent " << i << " jumped from node " << from
                               << " to non-adjacent node " << to
                               << " at step " << s);
        continue;
      }
      const double d =
          chebyshev(a.positions[s].center(), a.positions[s + 1].center());
      AIM_CHECK_MSG(d <= max_vel + 1e-9,
                    "agent " << i << " moved " << d << " > max_vel at step "
                             << s);
    }
    for (std::size_t c = 0; c < a.calls.size(); ++c) {
      const LlmCall& call = a.calls[c];
      AIM_CHECK(call.agent == a.agent);
      AIM_CHECK_MSG(call.step >= start_step && call.step < window_end,
                    "call step " << call.step << " outside window");
      AIM_CHECK(call.input_tokens > 0 && call.output_tokens > 0);
      if (c > 0) {
        const LlmCall& prev = a.calls[c - 1];
        AIM_CHECK_MSG(prev.step < call.step ||
                          (prev.step == call.step && prev.seq < call.seq),
                      "calls of agent " << i << " not sorted");
      }
    }
  }
  for (std::size_t i = 0; i < interactions.size(); ++i) {
    const Interaction& in = interactions[i];
    AIM_CHECK(in.a >= 0 && in.a < n_agents && in.b >= 0 && in.b < n_agents);
    AIM_CHECK(in.a != in.b);
    AIM_CHECK(in.step >= start_step && in.step < window_end);
  }
}

StepCalls group_calls_by_step(const AgentTrace& agent) {
  StepCalls out;
  for (const LlmCall& call : agent.calls) {
    out[call.step].push_back(&call);
  }
  return out;
}

SimulationTrace slice(const SimulationTrace& full, Step begin, Step end) {
  AIM_CHECK(begin >= full.start_step);
  AIM_CHECK(end <= full.start_step + full.n_steps);
  AIM_CHECK(begin < end);
  SimulationTrace out;
  out.n_agents = full.n_agents;
  out.n_steps = end - begin;
  out.start_step = begin;
  out.seconds_per_step = full.seconds_per_step;
  out.radius_p = full.radius_p;
  out.max_vel = full.max_vel;
  out.map_width = full.map_width;
  out.map_height = full.map_height;
  out.world_kind = full.world_kind;
  out.graph_adjacency = full.graph_adjacency;
  out.agents.reserve(full.agents.size());
  const std::size_t off = static_cast<std::size_t>(begin - full.start_step);
  for (const AgentTrace& a : full.agents) {
    AgentTrace s;
    s.agent = a.agent;
    s.positions.assign(
        a.positions.begin() + static_cast<std::ptrdiff_t>(off),
        a.positions.begin() +
            static_cast<std::ptrdiff_t>(off + static_cast<std::size_t>(out.n_steps) + 1));
    for (const LlmCall& c : a.calls) {
      if (c.step >= begin && c.step < end) s.calls.push_back(c);
    }
    out.agents.push_back(std::move(s));
  }
  for (const Interaction& in : full.interactions) {
    if (in.step >= begin && in.step < end) out.interactions.push_back(in);
  }
  return out;
}

SimulationTrace concatenate_segments(
    const std::vector<SimulationTrace>& segments, std::int32_t stride_x) {
  AIM_CHECK(!segments.empty());
  const SimulationTrace& first = segments.front();
  AIM_CHECK_MSG(first.world_kind == WorldKind::kGrid,
                "segment concatenation offsets x coordinates — grid worlds "
                "only (graph worlds scale by growing the graph instead)");
  SimulationTrace out;
  out.n_agents = 0;
  out.n_steps = first.n_steps;
  out.start_step = first.start_step;
  out.seconds_per_step = first.seconds_per_step;
  out.radius_p = first.radius_p;
  out.max_vel = first.max_vel;
  out.map_width = stride_x * static_cast<std::int32_t>(segments.size());
  out.map_height = first.map_height;
  for (std::size_t k = 0; k < segments.size(); ++k) {
    const SimulationTrace& seg = segments[k];
    AIM_CHECK_MSG(seg.n_steps == first.n_steps &&
                      seg.start_step == first.start_step &&
                      seg.radius_p == first.radius_p &&
                      seg.max_vel == first.max_vel,
                  "segment shapes differ");
    AIM_CHECK_MSG(seg.map_width <= stride_x, "stride narrower than segment");
    const AgentId id_off = out.n_agents;
    const std::int32_t x_off = static_cast<std::int32_t>(k) * stride_x;
    for (const AgentTrace& a : seg.agents) {
      AgentTrace moved;
      moved.agent = a.agent + id_off;
      moved.positions.reserve(a.positions.size());
      for (Tile t : a.positions) {
        moved.positions.push_back(Tile{t.x + x_off, t.y});
      }
      moved.calls = a.calls;
      for (LlmCall& c : moved.calls) {
        c.agent += id_off;
        if (c.conversation_id >= 0) {
          // Keep conversation ids unique across segments, and rehash the
          // prompt identity with the new id — segments are independent
          // towns, so same-local-id conversations must not look like
          // shared prompt prefixes to the cache model.
          AIM_CHECK_MSG(c.conversation_id < 1000000,
                        "conversation ids overflow the segment stride");
          c.conversation_id += static_cast<std::int32_t>(k) * 1000000;
          c.prompt_hash = conversation_prompt_hash(c.conversation_id);
        }
      }
      out.agents.push_back(std::move(moved));
    }
    for (Interaction in : seg.interactions) {
      in.a += id_off;
      in.b += id_off;
      out.interactions.push_back(in);
    }
    out.n_agents += seg.n_agents;
  }
  std::sort(out.interactions.begin(), out.interactions.end(),
            [](const Interaction& x, const Interaction& y) {
              if (x.step != y.step) return x.step < y.step;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  return out;
}

std::uint64_t conversation_prompt_hash(std::int32_t conversation_id) {
  return splitmix64(0xC0FFEEULL ^
                    static_cast<std::uint64_t>(conversation_id));
}

SimulationTrace concatenate_days(const std::vector<SimulationTrace>& days) {
  AIM_CHECK(!days.empty());
  const SimulationTrace& first = days.front();
  SimulationTrace out;
  out.n_agents = first.n_agents;
  out.n_steps = 0;
  out.start_step = 0;
  out.seconds_per_step = first.seconds_per_step;
  out.radius_p = first.radius_p;
  out.max_vel = first.max_vel;
  out.map_width = first.map_width;
  out.map_height = first.map_height;
  out.world_kind = first.world_kind;
  out.graph_adjacency = first.graph_adjacency;
  out.agents.resize(static_cast<std::size_t>(first.n_agents));
  for (std::size_t i = 0; i < out.agents.size(); ++i) {
    out.agents[i].agent = static_cast<AgentId>(i);
  }

  std::int32_t conv_id_offset = 0;
  for (std::size_t d = 0; d < days.size(); ++d) {
    const SimulationTrace& day = days[d];
    AIM_CHECK_MSG(day.n_agents == first.n_agents &&
                      day.start_step == 0 &&
                      day.map_width == first.map_width &&
                      day.map_height == first.map_height &&
                      day.radius_p == first.radius_p &&
                      day.max_vel == first.max_vel &&
                      day.world_kind == first.world_kind &&
                      day.graph_adjacency == first.graph_adjacency,
                  "day " << d << " has a different shape");
    const Step step_offset = out.n_steps;
    std::int32_t max_conv_id = -1;
    for (std::size_t i = 0; i < out.agents.size(); ++i) {
      const AgentTrace& src = day.agents[i];
      AgentTrace& dst = out.agents[i];
      // Continuity at the boundary: this day starts exactly where the
      // previous one ended (that final position is the carried-over one).
      if (d == 0) {
        dst.positions = src.positions;
      } else {
        AIM_CHECK_MSG(dst.positions.back() == src.positions.front(),
                      "agent " << i << " teleported across the day "
                               << d << " boundary");
        dst.positions.insert(dst.positions.end(), src.positions.begin() + 1,
                             src.positions.end());
      }
      for (LlmCall call : src.calls) {
        call.step += step_offset;
        if (call.conversation_id >= 0) {
          max_conv_id = std::max(max_conv_id, call.conversation_id);
          call.conversation_id += conv_id_offset;
          call.prompt_hash = conversation_prompt_hash(call.conversation_id);
        }
        dst.calls.push_back(call);
      }
    }
    for (Interaction in : day.interactions) {
      in.step += step_offset;
      out.interactions.push_back(in);
    }
    out.n_steps += day.n_steps;
    conv_id_offset += max_conv_id + 1;
  }
  out.validate();
  return out;
}

}  // namespace aimetro::trace
