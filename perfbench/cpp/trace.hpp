#pragma once

// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into each module's public functions;
// nothing inside src/ is instrumented.
//
// A span holds its layer name, start and end (now_ns), the parent layer's
// name and the session/request id (`op`) it belongs to. Within one op each
// parent layer occurs once, so (op, parent name) identifies the parent span;
// this lets spans of one request be recorded on different threads in any
// order. Each thread appends to its own buffer; buffers are read only after
// the recording threads have quiesced (joined or drained).
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using NameId = std::uint16_t;
inline constexpr NameId kNoParent = 0;

struct Span {
  NameId name = kNoParent;
  NameId parent = kNoParent;
  std::uint32_t ops = 1;  ///< operations the span covers (batched timings)
  std::uint32_t thread = 0;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct LayerTotals {
  double total_ns = 0.0;  ///< summed span durations
  double self_ns = 0.0;   ///< summed durations minus child coverage
  std::uint64_t spans = 0;
  std::uint64_t ops = 0;  ///< summed Span::ops
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Registers a layer name (idempotent). Call before recording starts.
  NameId intern(std::string_view name);
  const std::string& name(NameId id) const { return names_.at(id); }

  /// Appends one finished span to the calling thread's buffer.
  void record(NameId name, NameId parent, std::uint64_t op, std::int64_t start_ns,
              std::int64_t end_ns, std::uint32_t ops = 1);

  /// Every recorded span. Only valid while no thread records.
  std::vector<Span> spans() const;
  std::size_t span_count() const;

  /// Per-layer totals indexed by NameId (self time per the header rule).
  std::vector<LayerTotals> aggregate() const;

  /// Writes at most `max_spans` spans as Chrome trace-event JSON.
  bool write_chrome(const std::string& path, std::size_t max_spans) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer& local_buffer();

  const std::uint64_t generation_;
  std::vector<std::string> names_;
  mutable std::mutex mutex_;  // guards buffers_ registration
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench
