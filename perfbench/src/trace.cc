#include "trace.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <algorithm>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{0};
std::mutex g_mu;
std::vector<Span> g_spans;  // guarded by g_mu
thread_local std::uint64_t t_open = 0;  // innermost open Scope on this thread

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff);
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
std::uint64_t next_id() { return g_next_id.fetch_add(1) + 1; }

void record(std::string name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t id, std::uint64_t parent, std::uint64_t req) {
  if (!enabled()) return;
  Span s{std::move(name), start_ns, end_ns, id, parent, req, thread_tag()};
  std::lock_guard lk(g_mu);
  g_spans.push_back(std::move(s));
}

Scope::Scope(const char* name, std::uint64_t req, std::uint64_t parent)
    : name_(name), req_(req) {
  if (!enabled()) return;
  id_ = next_id();
  parent_ = parent != 0 ? parent : t_open;
  saved_ = t_open;
  t_open = id_;
  start_ = now_ns();
}

Scope::~Scope() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_open = saved_;
  record(name_, start_, end, id_, parent_, req_);
}

std::vector<Span> take() {
  std::lock_guard lk(g_mu);
  return std::exchange(g_spans, {});
}

bool write_chrome(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const auto& s : spans) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const auto dot = s.name.find('.');
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %u, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, \"req\": %llu}}%s\n",
                 s.name.c_str(), s.name.substr(0, dot).c_str(),
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
