// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only around calls the benchmark itself makes into a
// library layer; nothing inside the library is instrumented. Each span has a
// name ("<layer>.<call>"), start and end, the span that was open on the
// recording thread when it began (its parent), and a request id shared by
// every span of one operation. Recording is off by default and costs one
// branch per Scope; spans are kept in memory and written once, at the end,
// as Chrome trace-event JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = top level
  std::uint64_t req = 0;     ///< request id, 0 = none
  std::uint32_t tid = 0;
};

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// A fresh span id (for spans recorded explicitly with record()).
[[nodiscard]] std::uint64_t next_id();

/// Records a finished span whose times the caller measured (open-loop
/// requests start at their due time, before any call is made).
void record(std::string name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t id, std::uint64_t parent, std::uint64_t req);

/// RAII span: open from construction to destruction, parented to the span
/// open on this thread (or to `parent` when non-zero). No-op when disabled.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t req = 0,
                 std::uint64_t parent = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t saved_ = 0;
  std::uint64_t req_ = 0;
  std::int64_t start_ = 0;
};

/// Moves every recorded span out of the recorder.
[[nodiscard]] std::vector<Span> take();

/// Writes `spans` as a Chrome trace-event JSON document ("X" events, times
/// in microseconds from the first span; id/parent/req in args; pid 0, which
/// run.py replaces when it merges processes). Returns false on I/O failure.
bool write_chrome(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench::trace
