#include "trace/serialize.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <ostream>

#include "common/check.h"
#include "common/strings.h"

namespace aimetro::trace {

namespace {

constexpr char kMagic[4] = {'A', 'I', 'M', 'T'};
// v1: grid traces. v2 adds the world kind and, for graph worlds, the
// adjacency lists. Grid traces keep writing v1 so historical streams stay
// byte-identical; the loader accepts both.
constexpr std::uint32_t kGridVersion = 1;
constexpr std::uint32_t kGraphVersion = 2;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  AIM_CHECK_MSG(is.good(), "truncated trace stream");
  return v;
}

/// Encoded sizes of the repeated records (lower bounds where a record
/// nests further counts).
constexpr std::uint64_t kTileBytes = 8;
constexpr std::uint64_t kCallBytes = 4 + 4 + 1 + 4 + 4 + 8 + 4;
constexpr std::uint64_t kInteractionBytes = 12;
constexpr std::uint64_t kNeighborBytes = 4;
constexpr std::uint64_t kNodeBytes = 8;              // its neighbor count
constexpr std::uint64_t kAgentBytes = 4 + 8 + 8;     // id + two counts
/// Reserve at most this many elements ahead of reading them, so even a
/// stream whose length is unknown cannot make a bogus count allocate
/// more than the data actually read.
constexpr std::uint64_t kMaxReserve = 1 << 16;

/// Reads a trace stream, bounding every element count by the bytes the
/// stream still holds before anything is sized from it.
class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {
    const std::streampos here = is_.tellg();
    if (here >= 0 && is_.seekg(0, std::ios::end)) {
      const std::streampos end = is_.tellg();
      if (end >= here) end_ = end;
    }
    is_.clear();
    if (here >= 0) is_.seekg(here);
  }

  template <typename T>
  T pod() {
    return read_pod<T>(is_);
  }

  /// A count of records of at least `record_bytes` each. Fails with a
  /// one-line error when the rest of the stream cannot hold them.
  std::uint64_t count(std::uint64_t record_bytes, const char* what) {
    const auto n = pod<std::uint64_t>();
    if (end_ >= 0) {
      const auto left = static_cast<std::uint64_t>(
          end_ - static_cast<std::streamoff>(is_.tellg()));
      AIM_CHECK_MSG(n <= left / record_bytes,
                    "corrupt trace stream: " << n << " " << what
                                             << " cannot fit in the "
                                             << left << " bytes left");
    }
    return n;
  }

 private:
  std::istream& is_;
  std::streamoff end_ = -1;  // stream length, -1 when unknown
};

template <typename T>
void reserve_bounded(std::vector<T>& v, std::uint64_t n) {
  v.reserve(static_cast<std::size_t>(std::min(n, kMaxReserve)));
}

}  // namespace

void save_binary(const SimulationTrace& trace, std::ostream& os) {
  const bool graph = trace.world_kind == WorldKind::kGraph;
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, graph ? kGraphVersion : kGridVersion);
  if (graph) {
    write_pod(os, static_cast<std::uint8_t>(trace.world_kind));
    write_pod(os, static_cast<std::uint64_t>(trace.graph_adjacency.size()));
    for (const auto& neighbors : trace.graph_adjacency) {
      write_pod(os, static_cast<std::uint64_t>(neighbors.size()));
      for (std::int32_t v : neighbors) write_pod(os, v);
    }
  }
  write_pod(os, trace.n_agents);
  write_pod(os, trace.n_steps);
  write_pod(os, trace.start_step);
  write_pod(os, trace.seconds_per_step);
  write_pod(os, trace.radius_p);
  write_pod(os, trace.max_vel);
  write_pod(os, trace.map_width);
  write_pod(os, trace.map_height);
  for (const AgentTrace& a : trace.agents) {
    write_pod(os, a.agent);
    write_pod(os, static_cast<std::uint64_t>(a.positions.size()));
    for (const Tile& t : a.positions) {
      write_pod(os, t.x);
      write_pod(os, t.y);
    }
    write_pod(os, static_cast<std::uint64_t>(a.calls.size()));
    for (const LlmCall& c : a.calls) {
      write_pod(os, c.step);
      write_pod(os, c.seq);
      write_pod(os, static_cast<std::uint8_t>(c.type));
      write_pod(os, c.input_tokens);
      write_pod(os, c.output_tokens);
      write_pod(os, c.prompt_hash);
      write_pod(os, c.conversation_id);
    }
  }
  write_pod(os, static_cast<std::uint64_t>(trace.interactions.size()));
  for (const Interaction& in : trace.interactions) {
    write_pod(os, in.step);
    write_pod(os, in.a);
    write_pod(os, in.b);
  }
  AIM_CHECK_MSG(os.good(), "trace write failed");
}

SimulationTrace load_binary(std::istream& is) {
  Reader in(is);
  char magic[4];
  is.read(magic, sizeof(magic));
  AIM_CHECK_MSG(is.good() && std::memcmp(magic, kMagic, 4) == 0,
                "not an AIMT trace stream");
  const auto version = in.pod<std::uint32_t>();
  AIM_CHECK_MSG(version == kGridVersion || version == kGraphVersion,
                "unsupported trace version " << version);
  SimulationTrace trace;
  if (version == kGraphVersion) {
    const auto kind = in.pod<std::uint8_t>();
    AIM_CHECK_MSG(kind <= static_cast<std::uint8_t>(WorldKind::kGraph),
                  "corrupt trace stream: unknown world kind "
                      << static_cast<int>(kind));
    trace.world_kind = static_cast<WorldKind>(kind);
    const auto n_nodes = in.count(kNodeBytes, "graph nodes");
    AIM_CHECK(n_nodes > 0 && n_nodes < 10'000'000);
    reserve_bounded(trace.graph_adjacency, n_nodes);
    for (std::uint64_t v = 0; v < n_nodes; ++v) {
      const auto n_neighbors = in.count(kNeighborBytes, "neighbors");
      AIM_CHECK(n_neighbors < n_nodes);
      std::vector<std::int32_t>& neighbors = trace.graph_adjacency.emplace_back();
      reserve_bounded(neighbors, n_neighbors);
      for (std::uint64_t i = 0; i < n_neighbors; ++i) {
        neighbors.push_back(in.pod<std::int32_t>());
      }
    }
  }
  trace.n_agents = in.pod<std::int32_t>();
  trace.n_steps = in.pod<Step>();
  trace.start_step = in.pod<Step>();
  trace.seconds_per_step = in.pod<double>();
  trace.radius_p = in.pod<double>();
  trace.max_vel = in.pod<double>();
  trace.map_width = in.pod<std::int32_t>();
  trace.map_height = in.pod<std::int32_t>();
  AIM_CHECK(trace.n_agents >= 0 && trace.n_agents < 1'000'000);
  AIM_CHECK_MSG(trace.n_steps >= 0,
                "corrupt trace stream: n_steps " << trace.n_steps);
  reserve_bounded(trace.agents, static_cast<std::uint64_t>(trace.n_agents));
  for (std::int32_t agent = 0; agent < trace.n_agents; ++agent) {
    AgentTrace& a = trace.agents.emplace_back();
    a.agent = in.pod<AgentId>();
    const auto n_pos = in.count(kTileBytes, "positions");
    AIM_CHECK(n_pos == static_cast<std::uint64_t>(trace.n_steps) + 1);
    reserve_bounded(a.positions, n_pos);
    for (std::uint64_t i = 0; i < n_pos; ++i) {
      Tile t;
      t.x = in.pod<std::int32_t>();
      t.y = in.pod<std::int32_t>();
      a.positions.push_back(t);
    }
    const auto n_calls = in.count(kCallBytes, "calls");
    reserve_bounded(a.calls, n_calls);
    for (std::uint64_t i = 0; i < n_calls; ++i) {
      LlmCall c;
      c.agent = a.agent;
      c.step = in.pod<Step>();
      c.seq = in.pod<std::int32_t>();
      const auto type = in.pod<std::uint8_t>();
      AIM_CHECK_MSG(type <= static_cast<std::uint8_t>(CallType::kScheduleDecomp),
                    "corrupt trace stream: unknown call type "
                        << static_cast<int>(type));
      c.type = static_cast<CallType>(type);
      c.input_tokens = in.pod<std::int32_t>();
      c.output_tokens = in.pod<std::int32_t>();
      c.prompt_hash = in.pod<std::uint64_t>();
      c.conversation_id = in.pod<std::int32_t>();
      a.calls.push_back(c);
    }
  }
  const auto n_inter = in.count(kInteractionBytes, "interactions");
  reserve_bounded(trace.interactions, n_inter);
  for (std::uint64_t i = 0; i < n_inter; ++i) {
    Interaction inter;
    inter.step = in.pod<Step>();
    inter.a = in.pod<AgentId>();
    inter.b = in.pod<AgentId>();
    trace.interactions.push_back(inter);
  }
  trace.validate();
  return trace;
}

void save_binary_file(const SimulationTrace& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  AIM_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  save_binary(trace, os);
}

SimulationTrace load_binary_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  AIM_CHECK_MSG(is.is_open(), "cannot open " << path);
  return load_binary(is);
}

void export_jsonl(const SimulationTrace& trace, std::ostream& os) {
  if (trace.world_kind == WorldKind::kGraph) {
    // Graph worlds lead with their kind so a reader never mistakes node
    // ids for tile coordinates; grid headers keep the historical shape.
    os << strformat(
        "{\"type\":\"header\",\"world\":\"graph\",\"n_agents\":%d,"
        "\"n_steps\":%d,\"start_step\":%d,\"radius_p\":%.3f,"
        "\"max_vel\":%.3f,\"nodes\":%d}\n",
        trace.n_agents, trace.n_steps, trace.start_step, trace.radius_p,
        trace.max_vel, trace.map_width);
  } else {
    os << strformat(
        "{\"type\":\"header\",\"n_agents\":%d,\"n_steps\":%d,\"start_step\":"
        "%d,\"radius_p\":%.3f,\"max_vel\":%.3f,\"map\":[%d,%d]}\n",
        trace.n_agents, trace.n_steps, trace.start_step, trace.radius_p,
        trace.max_vel, trace.map_width, trace.map_height);
  }
  for (const AgentTrace& a : trace.agents) {
    for (const LlmCall& c : a.calls) {
      os << strformat(
          "{\"type\":\"call\",\"agent\":%d,\"step\":%d,\"seq\":%d,"
          "\"fn\":\"%s\",\"in\":%d,\"out\":%d,\"conv\":%d}\n",
          c.agent, c.step, c.seq, call_type_name(c.type), c.input_tokens,
          c.output_tokens, c.conversation_id);
    }
    // Movement is delta-encoded: only emit steps where the tile changes.
    for (std::size_t i = 1; i < a.positions.size(); ++i) {
      if (!(a.positions[i] == a.positions[i - 1])) {
        os << strformat(
            "{\"type\":\"move\",\"agent\":%d,\"step\":%d,\"x\":%d,\"y\":%d}\n",
            a.agent, trace.start_step + static_cast<Step>(i), a.positions[i].x,
            a.positions[i].y);
      }
    }
  }
}

}  // namespace aimetro::trace
