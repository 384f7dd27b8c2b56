// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around each call it
// makes into a simulator layer; nothing inside the library is
// instrumented. Each thread appends to a buffer of its own, so recording
// takes no lock after a thread's first span. Spans are read back (and
// written out) only after every thread that recorded them has been
// joined.
//
// Every entry point accepts a null Tracer, which records nothing: the
// untraced runs execute exactly the same benchmark code with tracing off.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  /// 0 means "no span".
  using SpanId = std::uint64_t;

  struct Span {
    SpanId id = 0;
    SpanId parent = 0;
    const char* name = "";  // string literal
    std::uint32_t thread = 0;
    std::int64_t start_ns = 0;  // relative to the tracer's construction
    std::int64_t end_ns = 0;
  };

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Every recorded span, sorted by start time. Call only after the
  /// threads that recorded them have been joined.
  std::vector<Span> spans() const;

 private:
  friend class ScopedSpan;
  friend class AdoptParent;
  struct Buffer;
  struct ThreadSlot;

  static ThreadSlot& slot();
  /// This thread's recording state for this tracer, registering a buffer
  /// on the thread's first use.
  ThreadSlot& attach();
  std::int64_t now_ns() const;

  const std::uint64_t epoch_;
  const Clock::time_point origin_;
  mutable aimetro::common::Mutex mutex_{"perfbench.tracer"};
  std::vector<std::unique_ptr<Buffer>> buffers_ GUARDED_BY(mutex_);
};

/// Records one span from construction to destruction. The parent is the
/// innermost open span on this thread unless one is given explicitly (a
/// task running on another thread than the span that caused it).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name);
  ScopedSpan(Tracer* tracer, const char* name, Tracer::SpanId parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  Tracer::SpanId id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Tracer::Span span_;
  Tracer::SpanId saved_current_ = 0;
};

/// Makes `parent` the innermost open span on this thread for its lifetime
/// without recording a span itself — for pool tasks whose spans belong
/// under a span opened on the submitting thread.
class AdoptParent {
 public:
  AdoptParent(Tracer* tracer, Tracer::SpanId parent);
  ~AdoptParent();
  AdoptParent(const AdoptParent&) = delete;
  AdoptParent& operator=(const AdoptParent&) = delete;

 private:
  Tracer* tracer_;
  Tracer::SpanId saved_current_ = 0;
};

/// Per span name: the summed duration and the summed self time (duration
/// minus the part of it that child spans cover; the children of one span
/// may overlap when they ran on several threads).
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Indexes a finished trace for the per-layer metrics.
class TraceIndex {
 public:
  explicit TraceIndex(std::vector<Tracer::Span> spans);

  const std::vector<Tracer::Span>& spans() const { return spans_; }
  SpanTotals totals(const std::string& name) const;
  /// Durations in microseconds of the spans called `name` that descend
  /// from span `root` (0 = from any span), sorted ascending.
  std::vector<double> durations_us(const std::string& name,
                                   Tracer::SpanId root = 0) const;

  /// One line per span: id, parent, thread, name, start_ns, end_ns.
  void write_tsv(const std::string& path) const;

 private:
  bool descends_from(std::size_t index, Tracer::SpanId root) const;

  std::vector<Tracer::Span> spans_;
  std::vector<std::size_t> parent_index_;  // spans_.size() = no parent
  std::vector<double> self_s_;
};

/// The q-quantile (q in [0, 1]) of sorted `values` by linear
/// interpolation; 0 for an empty input.
double quantile(const std::vector<double>& sorted, double q);

}  // namespace perfbench
