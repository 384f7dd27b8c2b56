// perfbench: the simulator's end-to-end benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Generates kInstances seeded instances of the workload from the seed,
// then runs every leg through the library's public entry points with
// tracing off, cycling over the instances: set-up (repeated; the median is
// reported), the DES replay in parallel-sync and metropolis
// mode, and the live engine with kEngineWorkers workers and with one
// worker. The metropolis replay and both engine legs repeat round-robin
// until each has had its share of --seconds (and at least kMinRuns runs);
// their throughputs are medians over the runs.
// With --trace 1 a separate traced run follows, which records spans around
// every call into a layer, drives the scoreboard and world on one thread
// to time single commits, writes the spans to --spans, and reports the
// per-layer metrics instead of the end-to-end ones.
//
// Every run passes a correctness gate: each engine and DES run issues the
// trace's calls exactly once and commits agents x steps agent-steps, and
// every engine run ends in the world the first 1-worker run reached. A
// failed check or an exception marks that run's calls failed and makes
// the exit code non-zero. The last line of stdout is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "legs.h"
#include "tracer.h"

namespace perfbench {
namespace {

using aimetro::replay::Mode;

// Set-up builds every instance at least once and repeats until
// kSetupSeconds are spent, so a workload whose set-up takes milliseconds
// still gets a steady median. Every repeated leg runs at least kMinRuns
// times.
constexpr double kSetupSeconds = 1.0;
constexpr int kMinRuns = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <%s> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               error.c_str(), [] {
                 std::string names;
                 for (const std::string& n : workload_names()) {
                   names += (names.empty() ? "" : "|") + n;
                 }
                 return names;
               }().c_str());
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    usage(flag + " takes a number, not '" + text + "'");
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_number<std::uint64_t>(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = parse_number<double>(flag, value);
      if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (std::find(workload_names().begin(), workload_names().end(),
                o.workload) == workload_names().end()) {
    usage("unknown workload '" + o.workload + "'");
  }
  return o;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Correctness gate. Every leg run counts the trace's calls as attempted;
/// a run that fails a check (or throws, see fail_pending) counts them as
/// failed.
class Gate {
 public:
  void begin(std::uint64_t calls) { pending_ = calls; }
  void end(const char* leg, bool ok, const std::string& why) {
    attempted_ += pending_;
    if (!ok) {
      failed_ += pending_;
      std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", leg, why.c_str());
    }
    pending_ = 0;
  }
  /// An exception escaped a run: its calls (at least one) count failed.
  void fail_pending() {
    pending_ = std::max<std::uint64_t>(pending_, 1);
    attempted_ += pending_;
    failed_ += pending_;
    pending_ = 0;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t pending_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::string mismatch(const char* what, std::uint64_t got,
                     std::uint64_t want) {
  return std::string(what) + " " + std::to_string(got) + " != " +
         std::to_string(want);
}

DesRun checked_des(const Prepared& p, Mode mode, Tracer* tracer, Gate& gate) {
  gate.begin(p.calls());
  DesRun run = run_des(p, mode, tracer);
  const auto& r = run.result;
  std::string why;
  if (r.total_calls != p.calls()) {
    why = mismatch("calls issued", r.total_calls, p.calls());
  } else if (mode == Mode::kMetropolis) {
    const auto steps =
        static_cast<std::uint64_t>(std::llround(r.scoreboard.sum_cluster_sizes));
    bool all_at_target =
        r.final_agent_states.size() == static_cast<std::size_t>(p.trace.n_agents);
    for (const auto& [step, pos] : r.final_agent_states) {
      all_at_target = all_at_target && step == p.trace.n_steps;
    }
    if (steps != p.agent_steps()) {
      why = mismatch("agent-steps", steps, p.agent_steps());
    } else if (!all_at_target) {
      why = "an agent did not reach the target step";
    }
  }
  gate.end(mode == Mode::kMetropolis ? "des.metro" : "des.sync", why.empty(),
           why);
  return run;
}

/// `reference_hash` is the world the first 1-worker run reached; 0 means
/// this run sets it.
EngineRun checked_engine(const Prepared& p, std::int32_t workers,
                         Tracer* tracer, std::uint64_t* reference_hash,
                         Gate& gate) {
  gate.begin(p.calls());
  EngineRun run = run_engine(p, workers, tracer);
  if (*reference_hash == 0) *reference_hash = run.world_hash;
  std::string why;
  if (run.calls != p.calls()) {
    why = mismatch("calls issued", run.calls, p.calls());
  } else if (run.stats.agent_steps != p.agent_steps() || !run.all_done) {
    why = mismatch("agent-steps", run.stats.agent_steps, p.agent_steps());
  } else if (run.world_hash != *reference_hash) {
    why = "world hash differs from the 1-worker engine's";
  }
  gate.end(workers > 1 ? "engine" : "engine_serial", why.empty(), why);
  return run;
}

/// Every run measures kInstances seeded instances of its workload, so the
/// end-to-end figures average over inputs and not only over repetitions:
/// the host cost of one seed's input can differ from another's by a fifth.
constexpr std::size_t kInstances = 3;

/// Instance k of a run with seed `seed`. Distinct seeds never share an
/// instance.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t k) {
  return seed * kInstances + k;
}

struct Measurement {
  std::vector<double> setup_s;
  /// Timed seconds of each run of the repeated legs; run i used instance
  /// i % kInstances.
  std::vector<double> des_s;
  std::vector<double> engine_s;
  std::vector<double> serial_s;
  double agent_steps = 0.0;  // per run, equal for every instance
  std::array<double, kInstances> des_metro_virtual_s{};
  std::array<double, kInstances> des_sync_virtual_s{};
  double peak_rss_mib = 0.0;
  /// Per instance: the world the first 1-worker engine run reached.
  std::array<std::uint64_t, kInstances> reference_hash{};

  /// Median agent-steps per second over a leg's runs. A median rather
  /// than total work over total time: a stall of a shared host can slow
  /// one sub-second engine run threefold.
  double throughput(const std::vector<double>& seconds) const {
    return agent_steps / median(seconds);
  }
  /// Median seconds of the runs on instance 0 (the traced run's input).
  static double first_instance_seconds(const std::vector<double>& seconds) {
    std::vector<double> first;
    for (std::size_t i = 0; i < seconds.size(); i += kInstances) {
      first.push_back(seconds[i]);
    }
    return median(first);
  }
};

/// The untraced run behind the end-to-end metrics.
Measurement measure(const std::string& workload, std::uint64_t seed,
                    double seconds, Gate& gate) {
  Measurement m;
  std::array<std::unique_ptr<Prepared>, kInstances> inst;
  double setup_spent = 0.0;
  for (std::size_t r = 0; r < kInstances || setup_spent < kSetupSeconds;
       ++r) {
    const std::size_t k = r % kInstances;
    inst[k].reset();  // hold one generated (unwindowed) trace at a time
    const auto spec = workload_spec(workload, instance_seed(seed, k));
    const auto start = Clock::now();
    inst[k] = set_up(spec, nullptr);
    m.setup_s.push_back(seconds_since(start));
    setup_spent += m.setup_s.back();
  }
  for (std::size_t k = 0; k < kInstances; ++k) {
    const Prepared& p = *inst[k];
    std::printf("instance %zu: seed=%llu calls=%llu of %llu generated, "
                "agents=%d steps=%d\n",
                k, static_cast<unsigned long long>(p.spec.seed),
                static_cast<unsigned long long>(p.calls()),
                static_cast<unsigned long long>(p.generated_calls),
                p.trace.n_agents, p.trace.n_steps);
    if (p.calls() == 0) throw std::runtime_error("workload has no LLM calls");
    m.des_sync_virtual_s[k] = checked_des(p, Mode::kParallelSync, nullptr, gate)
                                  .result.completion_seconds;
  }
  std::printf("setup: %zu runs, median %.3f s\n", m.setup_s.size(),
              median(m.setup_s));
  m.agent_steps = static_cast<double>(inst[0]->agent_steps());

  // Each leg runs once on instance k and returns its timed seconds.
  // `share` is its part of the measuring time: the single-threaded DES
  // replay is the most sensitive to other load on the host, so it gets
  // the most runs.
  struct Leg {
    const char* name;
    double share;
    std::function<double(std::size_t)> run;
    std::vector<double>* seconds;
    double spent = 0.0;
  };
  std::vector<Leg> legs = {
      {"engine_serial", 0.2,
       [&](std::size_t k) {
         return checked_engine(*inst[k], 1, nullptr, &m.reference_hash[k],
                               gate)
             .wall_s;
       },
       &m.serial_s},
      {"engine", 0.3,
       [&](std::size_t k) {
         return checked_engine(*inst[k], kEngineWorkers, nullptr,
                               &m.reference_hash[k], gate)
             .wall_s;
       },
       &m.engine_s},
      {"des_metro", 0.5,
       [&](std::size_t k) {
         const DesRun r =
             checked_des(*inst[k], Mode::kMetropolis, nullptr, gate);
         m.des_metro_virtual_s[k] = r.result.completion_seconds;
         return r.host_s;
       },
       &m.des_s},
  };
  // Round-robin, so drift of the host's speed affects every leg alike.
  // Every leg covers each instance in the first kMinRuns rounds, the
  // 1-worker engine first (it sets the instance's reference world).
  for (bool more = true; more;) {
    more = false;
    for (Leg& leg : legs) {
      if (leg.seconds->size() >= kMinRuns && leg.spent >= leg.share * seconds) {
        continue;
      }
      const auto start = Clock::now();
      leg.seconds->push_back(leg.run(leg.seconds->size() % kInstances));
      leg.spent += seconds_since(start);
      more = true;
    }
    // The high-water mark of set-up plus one run of every leg. Later
    // rounds only add malloc-arena growth from the fresh engine threads of
    // each run, which varies from run to run.
    if (m.peak_rss_mib == 0.0) m.peak_rss_mib = peak_rss_mib();
  }
  for (const Leg& leg : legs) {
    const auto [fastest, slowest] =
        std::minmax_element(leg.seconds->begin(), leg.seconds->end());
    std::printf("%s: %zu runs in %.2f s; steps/s median %.0f, range "
                "%.0f..%.0f\n",
                leg.name, leg.seconds->size(), leg.spent,
                m.throughput(*leg.seconds), m.agent_steps / *slowest,
                m.agent_steps / *fastest);
  }
  return m;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, ptr) : std::string("null");
}

void print_result(const Gate& gate, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += gate.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " +
         std::to_string(std::max<std::uint64_t>(1, gate.attempted()));
  out += ", \"failed\": " + std::to_string(gate.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& mt = metrics[i];
    out += (i ? ", \"" : "\"") + mt.name + "\": {\"value\": " +
           json_number(mt.value) + ", \"unit\": \"" + mt.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::vector<Metric> end_to_end_metrics(const Measurement& m,
                                       const Gate& gate) {
  const double ok_frac =
      gate.attempted() == 0
          ? 0.0
          : 1.0 - static_cast<double>(gate.failed()) /
                      static_cast<double>(gate.attempted());
  double metro_total = 0.0;
  double sync_total = 0.0;
  for (std::size_t k = 0; k < kInstances; ++k) {
    metro_total += m.des_metro_virtual_s[k];
    sync_total += m.des_sync_virtual_s[k];
  }
  return {
      {"setup_s", median(m.setup_s), "s"},
      {"des_metro_virtual_s", metro_total / kInstances, "sim_s"},
      {"des_speedup_vs_sync", sync_total / metro_total, "x"},
      {"des_steps_per_s", m.throughput(m.des_s), "steps/s"},
      {"engine_steps_per_s", m.throughput(m.engine_s), "steps/s"},
      {"engine_serial_steps_per_s", m.throughput(m.serial_s), "steps/s"},
      {"peak_rss_mib", m.peak_rss_mib, "MiB"},
      {"calls_ok_frac", ok_frac, "fraction"},
  };
}

/// The separate traced run, on instance 0; returns the per-layer metrics.
std::vector<Metric> traced_run(const std::string& workload, std::uint64_t seed,
                               const Measurement& untraced,
                               const std::string& spans_path, Gate& gate) {
  const auto spec = workload_spec(workload, instance_seed(seed, 0));
  Tracer tracer;
  const auto setup_start = Clock::now();
  std::unique_ptr<Prepared> p = set_up(spec, &tracer);
  const double setup_s = seconds_since(setup_start);

  const DesRun sync = checked_des(*p, Mode::kParallelSync, &tracer, gate);
  const DesRun metro = checked_des(*p, Mode::kMetropolis, &tracer, gate);
  std::uint64_t reference_hash = untraced.reference_hash[0];
  const EngineRun serial = checked_engine(*p, 1, &tracer, &reference_hash, gate);
  const EngineRun engine =
      checked_engine(*p, kEngineWorkers, &tracer, &reference_hash, gate);

  gate.begin(p->calls());
  const DriveRun drive = drive_scoreboard(*p, &tracer);
  std::string why;
  if (drive.agent_steps != p->agent_steps() || !drive.all_done) {
    why = mismatch("agent-steps", drive.agent_steps, p->agent_steps());
  } else if (drive.world_hash != reference_hash) {
    why = "single-thread commit drive reached another world than the engine";
  }
  gate.end("core.drive", why.empty(), why);

  const TraceIndex index(tracer.spans());
  if (!spans_path.empty()) index.write_tsv(spans_path);
  std::printf("traced run: %zu spans%s%s\n", index.spans().size(),
              spans_path.empty() ? "" : " written to ", spans_path.c_str());

  auto total = [&](const char* name) { return index.totals(name).total_s; };
  auto pct = [&](const char* name, double q, Tracer::SpanId root = 0) {
    return quantile(index.durations_us(name, root), q);
  };
  auto share = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  const auto& board = metro.result.scoreboard;
  const auto& rows = engine.shard_rows;
  double stepfn_s = 0.0;
  for (double us : index.durations_us("runtime.stepfn", engine.run_span)) {
    stepfn_s += us * 1e-6;
  }

  std::vector<Metric> out = {
      {"world.map_build_s", total("world.map_build"), "s"},
      {"trace.generate_s", total("trace.generate"), "s"},
      {"trace.slice_s", total("trace.slice"), "s"},
      {"trace.group_calls_s", total("trace.group_calls"), "s"},
      {"trace.window_share",
       share(static_cast<double>(p->calls()),
             static_cast<double>(p->generated_calls)),
       "fraction"},
      {"trace.calls", static_cast<double>(p->calls()), "count"},

      {"des.metro_host_s", metro.host_s, "s"},
      {"des.sync_host_s", sync.host_s, "s"},
      {"des.events", static_cast<double>(metro.result.des_events), "count"},
      {"des.ns_per_event",
       share(metro.host_s * 1e9, static_cast<double>(metro.result.des_events)),
       "ns"},

      {"core.mean_cluster_size", board.mean_cluster_size(), "agents"},
      {"core.mean_blockers", metro.result.mean_blockers, "agents"},
      {"core.clusters", static_cast<double>(board.clusters_dispatched),
       "count"},
      {"core.edges_added", static_cast<double>(board.edges_added), "count"},

      {"llm.utilization", metro.result.avg_utilization, "fraction"},
      {"llm.parallelism", metro.result.avg_parallelism, "requests"},
      {"llm.prefix_hit_share",
       share(static_cast<double>(metro.result.prefix_cache_hits),
             static_cast<double>(metro.result.total_calls)),
       "fraction"},
      {"llm.sync_virtual_s", sync.result.completion_seconds, "sim_s"},

      {"core.commit_us.p50", pct("core.commit", 0.50), "us"},
      {"core.commit_us.p99", pct("core.commit", 0.99), "us"},
      {"core.pop_us.p50", pct("core.pop", 0.50), "us"},
      {"core.pop_us.p99", pct("core.pop", 0.99), "us"},
      {"core.local_commit_share",
       share(static_cast<double>(drive.local_commits),
             static_cast<double>(drive.commits)),
       "fraction"},
      {"world.commit_us.p50", pct("world.commit", 0.50), "us"},
      {"world.commit_us.p99", pct("world.commit", 0.99), "us"},

      {"runtime.clusters",
       static_cast<double>(serial.stats.clusters_executed), "count"},
      {"runtime.commits", static_cast<double>(engine.stats.commits), "count"},
      {"runtime.commit_wait_us", static_cast<double>(engine.stats.commit_wait_us),
       "us"},
      {"runtime.commit_hold_us", static_cast<double>(engine.stats.commit_hold_us),
       "us"},
      {"runtime.max_commit_wait_us",
       static_cast<double>(engine.stats.max_commit_wait_us), "us"},
      {"runtime.cross_commit_share",
       share(static_cast<double>(rows.empty() ? 0 : rows.back().commits),
             static_cast<double>(engine.stats.commits)),
       "fraction"},
      {"runtime.stepfn_busy_share",
       share(stepfn_s, engine.wall_s * kEngineWorkers), "fraction"},
      {"runtime.pool_inlined", static_cast<double>(engine.pool.tasks_inlined),
       "count"},
      {"runtime.pool_peak_in_flight",
       static_cast<double>(engine.pool.peak_in_flight), "count"},
      {"runtime.chain_pool_inlined",
       static_cast<double>(engine.chain_pool.tasks_inlined), "count"},
      {"runtime.chain_pool_peak_in_flight",
       static_cast<double>(engine.chain_pool.peak_in_flight), "count"},

      {"llm.complete_us.p50", pct("llm.complete", 0.50, engine.run_span), "us"},
      {"llm.complete_us.p99", pct("llm.complete", 0.99, engine.run_span), "us"},
      {"llm.calls",
       static_cast<double>(
           index.durations_us("llm.complete", engine.run_span).size()),
       "count"},
  };
  for (const char* name :
       {"world.map_build", "trace.generate", "trace.slice", "trace.group_calls",
        "des.sync", "des.metro", "engine.serial_run", "engine.run",
        "runtime.stepfn", "runtime.chain_wait", "llm.complete", "world.commit",
        "core.classify", "core.commit", "core.pop"}) {
    out.push_back({std::string("self_s.") + name, index.totals(name).self_s,
                   "s"});
  }
  // Tracing overhead: the extra time each traced leg took over the same
  // leg untraced on the same instance, as a share of the untraced time.
  auto overhead = [](double traced_s, const std::vector<double>& untraced_s) {
    return traced_s / Measurement::first_instance_seconds(untraced_s) - 1.0;
  };
  out.push_back({"overhead.setup_s", setup_s / median(untraced.setup_s) - 1.0,
                 "fraction"});
  out.push_back({"overhead.des_steps_per_s",
                 overhead(metro.host_s, untraced.des_s), "fraction"});
  out.push_back({"overhead.engine_steps_per_s",
                 overhead(engine.wall_s, untraced.engine_s), "fraction"});
  out.push_back({"overhead.engine_serial_steps_per_s",
                 overhead(serial.wall_s, untraced.serial_s), "fraction"});
  return out;
}

int run(const Options& o) {
  const aimetro::scenario::ScenarioSpec spec =
      workload_spec(o.workload, instance_seed(o.seed, 0));
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "instances=%zu\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, std::thread::hardware_concurrency(),
              kInstances);
  std::printf("scenario=%s agents=%d window=[%d,%d) shards=%d model=%s "
              "gpu=%s x%d\n",
              spec.name.c_str(), spec.agents, spec.window_begin,
              spec.window_end, spec.resolved_shards(), spec.model.c_str(),
              spec.gpu.c_str(), spec.data_parallel);
  std::printf("threads: setup=1 des=1 engine=%d workers+%d chain-pool "
              "engine_serial=1 worker, chains inline%s\n",
              kEngineWorkers, kChainPoolWorkers,
              o.trace ? " drive=1" : "");
  std::fflush(stdout);

  Gate gate;
  try {
    const Measurement m = measure(o.workload, o.seed, o.seconds, gate);
    if (!o.trace) {
      print_result(gate, end_to_end_metrics(m, gate));
    } else {
      print_result(gate, traced_run(o.workload, o.seed, m, o.spans_path, gate));
    }
  } catch (const std::exception& e) {
    gate.fail_pending();
    std::fprintf(stderr, "error: %s\n", e.what());
    print_result(gate, {});
    return 1;
  }
  return gate.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_options(argc, argv));
}
