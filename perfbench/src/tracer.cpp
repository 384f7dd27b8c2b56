#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace perfbench {

struct Tracer::Buffer {
  std::uint32_t thread = 0;
  std::uint32_t next_local = 0;
  std::vector<Span> spans;
};

/// Per-thread recording state. `epoch` names the tracer the state belongs
/// to, so a thread that outlives one tracer starts clean in the next.
struct Tracer::ThreadSlot {
  std::uint64_t epoch = 0;
  Buffer* buffer = nullptr;
  SpanId current = 0;
};

namespace {

std::atomic<std::uint64_t> g_next_epoch{1};

}  // namespace

Tracer::ThreadSlot& Tracer::slot() {
  thread_local ThreadSlot slot;
  return slot;
}

Tracer::Tracer()
    : epoch_(g_next_epoch.fetch_add(1)), origin_(Clock::now()) {}

Tracer::~Tracer() = default;

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::ThreadSlot& Tracer::attach() {
  ThreadSlot& s = slot();
  if (s.epoch == epoch_) return s;
  s.epoch = epoch_;
  s.current = 0;
  aimetro::common::MutexLock lock(mutex_);
  auto buffer = std::make_unique<Buffer>();
  buffer->thread = static_cast<std::uint32_t>(buffers_.size());
  buffer->spans.reserve(1 << 12);
  s.buffer = buffer.get();
  buffers_.push_back(std::move(buffer));
  return s;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::vector<Span> out;
  aimetro::common::MutexLock lock(mutex_);
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return out;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name)
    : ScopedSpan(tracer, name,
                 tracer != nullptr ? tracer->attach().current : 0) {}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name,
                       Tracer::SpanId parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Tracer::ThreadSlot& slot = tracer_->attach();
  span_.id = (static_cast<std::uint64_t>(slot.buffer->thread) + 1) << 32 |
             ++slot.buffer->next_local;
  span_.parent = parent;
  span_.name = name;
  span_.thread = slot.buffer->thread;
  saved_current_ = slot.current;
  slot.current = span_.id;
  span_.start_ns = tracer_->now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  Tracer::ThreadSlot& slot = tracer_->attach();
  slot.current = saved_current_;
  slot.buffer->spans.push_back(span_);
}

AdoptParent::AdoptParent(Tracer* tracer, Tracer::SpanId parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Tracer::ThreadSlot& slot = tracer_->attach();
  saved_current_ = slot.current;
  slot.current = parent;
}

AdoptParent::~AdoptParent() {
  if (tracer_ == nullptr) return;
  tracer_->attach().current = saved_current_;
}

TraceIndex::TraceIndex(std::vector<Tracer::Span> spans)
    : spans_(std::move(spans)) {
  const std::size_t n = spans_.size();
  std::unordered_map<Tracer::SpanId, std::size_t> by_id;
  by_id.reserve(n);
  for (std::size_t i = 0; i < n; ++i) by_id.emplace(spans_[i].id, i);
  parent_index_.assign(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = by_id.find(spans_[i].parent);
    if (it != by_id.end()) parent_index_[i] = it->second;
  }

  // Children grouped by parent (counting sort), then per span the union
  // of its children's intervals, clipped to the span itself.
  std::vector<std::size_t> first(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (parent_index_[i] < n) ++first[parent_index_[i] + 1];
  }
  for (std::size_t i = 0; i < n; ++i) first[i + 1] += first[i];
  std::vector<std::size_t> children(first[n]);
  std::vector<std::size_t> fill(first.begin(), first.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (parent_index_[i] < n) children[fill[parent_index_[i]]++] = i;
  }
  self_s_.assign(n, 0.0);
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = 0; i < n; ++i) {
    const Tracer::Span& s = spans_[i];
    intervals.clear();
    for (std::size_t k = first[i]; k < first[i + 1]; ++k) {
      const Tracer::Span& c = spans_[children[k]];
      const std::int64_t lo = std::max(c.start_ns, s.start_ns);
      const std::int64_t hi = std::min(c.end_ns, s.end_ns);
      if (lo < hi) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : intervals) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self_s_[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
}

SpanTotals TraceIndex::totals(const std::string& name) const {
  SpanTotals t;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) != name) continue;
    t.total_s +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    t.self_s += self_s_[i];
  }
  return t;
}

bool TraceIndex::descends_from(std::size_t index, Tracer::SpanId root) const {
  for (std::size_t i = parent_index_[index]; i < spans_.size();
       i = parent_index_[i]) {
    if (spans_[i].id == root) return true;
  }
  return false;
}

std::vector<double> TraceIndex::durations_us(const std::string& name,
                                             Tracer::SpanId root) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) != name) continue;
    if (root != 0 && !descends_from(i, root)) continue;
    out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) *
                  1e-3);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void TraceIndex::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("id\tparent\tthread\tname\tstart_ns\tend_ns\n", f);
  for (const Tracer::Span& s : spans_) {
    std::fprintf(f, "%llx\t%llx\t%u\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
