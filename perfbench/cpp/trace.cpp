#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_set>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> next_generation{1};

struct LocalSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot local_slot;

/// Length of the union of [s, e) intervals clipped to [lo, hi).
std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>>& iv, std::int64_t lo,
                     std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
    } else {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

}  // namespace

Tracer::Tracer() : generation_(next_generation.fetch_add(1)) { names_.emplace_back(""); }

NameId Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<NameId>(i);
  names_.emplace_back(name);
  return static_cast<NameId>(names_.size() - 1);
}

Tracer::Buffer& Tracer::local_buffer() {
  if (local_slot.generation == generation_) return *static_cast<Buffer*>(local_slot.buffer);
  std::lock_guard<std::mutex> lock(mutex_);
  auto buffer = std::make_unique<Buffer>();
  buffer->thread = static_cast<std::uint32_t>(buffers_.size() + 1);
  buffer->spans.reserve(1 << 16);
  local_slot = {generation_, buffer.get()};
  buffers_.push_back(std::move(buffer));
  return *buffers_.back();
}

void Tracer::record(NameId name, NameId parent, std::uint64_t op, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t ops) {
  Buffer& b = local_buffer();
  b.spans.push_back(Span{name, parent, ops, b.thread, op, start_ns, end_ns});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

std::vector<LayerTotals> Tracer::aggregate() const {
  std::vector<Span> all = spans();
  std::vector<LayerTotals> totals(names_.size());
  std::unordered_set<NameId> parents;
  for (const Span& s : all)
    if (s.parent != kNoParent) parents.insert(s.parent);

  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) { return a.op < b.op; });
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  for (std::size_t lo = 0; lo < all.size();) {
    std::size_t hi = lo;
    while (hi < all.size() && all[hi].op == all[lo].op) ++hi;
    for (std::size_t i = lo; i < hi; ++i) {
      const Span& s = all[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      std::int64_t child_cover = 0;
      if (parents.count(s.name) != 0) {
        children.clear();
        for (std::size_t j = lo; j < hi; ++j)
          if (j != i && all[j].parent == s.name)
            children.emplace_back(all[j].start_ns, all[j].end_ns);
        child_cover = covered(children, s.start_ns, s.end_ns);
      }
      LayerTotals& t = totals[s.name];
      t.total_ns += static_cast<double>(dur);
      t.self_ns += static_cast<double>(dur - child_cover);
      t.spans += 1;
      t.ops += s.ops;
    }
    lo = hi;
  }
  return totals;
}

bool Tracer::write_chrome(const std::string& path, std::size_t max_spans) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  const std::size_t n = std::min(all.size(), max_spans);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"op\":%llu,\"parent\":\"%s\",\"ops\":%u}}%s\n",
                 names_[s.name].c_str(), s.thread, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.op), names_[s.parent].c_str(), s.ops,
                 i + 1 < n ? "," : "");
  }
  std::fprintf(f, "],\"otherData\":{\"spans_recorded\":%zu,\"spans_written\":%zu}}\n",
               all.size(), n);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
