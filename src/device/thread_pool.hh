// A small persistent worker pool used as the "device" behind kernel launches
// and asynchronous task groups.
//
// Workers are created once (lazily, on first use) and parked on a condition
// variable between jobs, mirroring how a GPU's SMs persist across kernel
// invocations. The pool runs one queue of jobs:
//   - a launch (parallel_for) is a half-open index range consumed through an
//     atomic counter (dynamic scheduling), which maps naturally onto the
//     block-index iteration the kernels in this codebase use;
//   - a TaskGroup is a growing list of owned tasks, claimed one at a time
//     in submission order — the analogue of a CUDA stream: a queue whose
//     work the device's processors pick up, not a processor of its own.
// An idle worker joins the oldest launch with unclaimed chunks and drains
// it, since a launch's submitter is blocked on it; only when no launch has
// work does it claim one task of the oldest group, then it looks again.
//
// Launches may come from any thread, including from inside a running launch
// or task: a nested parallel_for enqueues and drains exactly like a
// top-level one, so idle workers help it. A submitter only ever waits for
// chunks or tasks that another thread has already claimed and is running,
// and a claimed job's own nested waits point strictly deeper, so nesting to
// any depth cannot deadlock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "device/function_ref.hh"

namespace szi::dev {

class ThreadPool {
 public:
  /// Global pool shared by all kernel launches. Sized to the hardware, or
  /// to SZI_THREADS if set (read once, at first use).
  static ThreadPool& instance();

  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Invokes `body(i)` for every i in [0, count), distributing chunks of
  /// `grain` indices across workers. The calling thread participates, so the
  /// call is synchronous — on return every index has been processed. If any
  /// body throws, one of the exceptions is rethrown on the caller after the
  /// launch drains. Safe to call from multiple threads concurrently and from
  /// inside another launch or task; each call is an independent launch.
  void parallel_for(std::size_t count, FunctionRef<void(std::size_t)> body,
                    std::size_t grain = 1);

  [[nodiscard]] unsigned worker_count() const { return workers_; }

 private:
  friend class TaskGroup;

  /// One entry of the pool's queue. Lives on its submitter's shared_ptr plus
  /// the queue's and working threads' transient copies.
  struct Job {
    explicit Job(bool is_launch) : launch(is_launch) {}
    virtual ~Job() = default;
    /// True once nothing is left to claim (claimed work may still run).
    [[nodiscard]] virtual bool exhausted() const = 0;
    /// A pool worker's turn: a launch drains its chunks, a task group runs
    /// one task.
    virtual void work(ThreadPool& pool) = 0;
    const bool launch;    ///< preferred by idle workers
    bool queued = false;  ///< in queue_; guarded by the pool mutex
  };
  struct Launch;

  /// Appends `job` to the queue (unless already queued) and wakes workers.
  void enqueue(const std::shared_ptr<Job>& job, bool all);
  void finish_if_complete(Launch& ln);
  /// Drops exhausted jobs and returns the oldest launch with unclaimed work,
  /// else the oldest such task group, else null. Pool mutex held.
  std::shared_ptr<Job> next_job();
  void worker_loop();

  unsigned workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_start_;  // workers: queue non-empty or stop
  std::condition_variable cv_done_;   // submitters: their launch completed
  std::deque<std::shared_ptr<Job>> queue_;  // jobs with unclaimed work
  bool stop_ = false;
};

/// An asynchronous group of owned tasks on a pool. run() appends a task and
/// returns; idle pool workers claim tasks in submission order. wait(n)
/// returns once tasks [0, n) have finished: the caller first runs any of
/// them nobody has claimed, then blocks for the claimed ones, then rethrows
/// the lowest-index failure among them. Every task runs even after another
/// has failed. A pool with one worker has no thread to claim tasks, so they
/// all run inside wait(). The destructor waits for every task and swallows
/// failures — call wait() first to observe them.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool = ThreadPool::instance());
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Appends `fn` as task size() and returns at once.
  void run(std::function<void()> fn);

  /// Waits for tasks [0, min(n, size())); rethrows their lowest-index
  /// failure.
  void wait(std::size_t n);
  /// Waits for every task submitted so far.
  void wait();

  /// Tasks submitted so far.
  [[nodiscard]] std::size_t size() const;

 private:
  struct State;
  ThreadPool& pool_;
  std::shared_ptr<State> st_;
};

}  // namespace szi::dev
