#include "device/thread_pool.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

namespace szi::dev {

namespace {
/// Upper bound on SZI_THREADS; larger requests are clamped, not rejected.
constexpr long kMaxWorkers = 1024;
}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool([]() -> unsigned {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const char* env = std::getenv("SZI_THREADS");
    if (!env || !*env) return hw;
    char* end = nullptr;
    errno = 0;
    const long n = std::strtol(env, &end, 10);
    if (end == env || *end != '\0') {
      // Trailing garbage ("4x") or no digits at all: the value is not a
      // number, so the user's intent is unknowable — warn and fall back.
      std::fprintf(stderr,
                   "szi: ignoring unparsable SZI_THREADS=\"%s\" "
                   "(using %u hardware threads)\n",
                   env, hw);
      return hw;
    }
    if (errno == ERANGE || n > kMaxWorkers) {
      std::fprintf(stderr,
                   "szi: SZI_THREADS=%s exceeds the %ld-worker cap; "
                   "clamping to %ld\n",
                   env, kMaxWorkers, kMaxWorkers);
      return static_cast<unsigned>(kMaxWorkers);
    }
    if (n < 1) {
      std::fprintf(stderr, "szi: SZI_THREADS=%s is below 1; clamping to 1\n",
                   env);
      return 1u;
    }
    return static_cast<unsigned>(n);
  }());
  return pool;
}

ThreadPool::ThreadPool(unsigned workers) : workers_(std::max(1u, workers)) {
  // Worker 0 is the calling thread; only spawn the extras.
  threads_.reserve(workers_ - 1);
  for (unsigned i = 1; i < workers_; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

/// One in-flight launch; `done` is the completion signal the submitter
/// waits on.
struct ThreadPool::Launch final : ThreadPool::Job {
  Launch(FunctionRef<void(std::size_t)> b, std::size_t c, std::size_t g)
      : Job(/*is_launch=*/true), body(b), count(c), grain(g) {}

  [[nodiscard]] bool exhausted() const override {
    return next.load() >= count;
  }

  void work(ThreadPool& pool) override {
    for (;;) {
      // in_flight brackets the claim itself, so "no more claims possible"
      // and "no chunk executing" can be checked together as the completion
      // condition without missing a concurrent claimer.
      in_flight.fetch_add(1);
      const std::size_t begin = next.fetch_add(grain);
      if (begin >= count) {
        if (in_flight.fetch_sub(1) == 1) pool.finish_if_complete(*this);
        return;
      }
      const std::size_t end = std::min(begin + grain, count);
      try {
        for (std::size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        // Record the first failure and stop handing out work; the submitter
        // rethrows once the launch drains.
        std::lock_guard lk(pool.mu_);
        if (!error) error = std::current_exception();
        next.store(count);
      }
      if (in_flight.fetch_sub(1) == 1 && next.load() >= count)
        pool.finish_if_complete(*this);
    }
  }

  FunctionRef<void(std::size_t)> body;
  std::size_t count;
  std::size_t grain;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> in_flight{0};
  std::exception_ptr error;  // guarded by the pool mutex
  bool done = false;         // guarded by the pool mutex
};

void ThreadPool::parallel_for(std::size_t count,
                              FunctionRef<void(std::size_t)> body,
                              std::size_t grain) {
  if (count == 0) return;
  grain = std::max<std::size_t>(1, grain);
  if (workers_ == 1 || count <= grain) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  // One allocation per launch (the descriptor); the body itself is borrowed,
  // never copied onto the heap. The shared_ptr keeps the descriptor alive
  // for workers that are between claiming and abandoning it.
  auto ln = std::make_shared<Launch>(body, count, grain);
  enqueue(ln, /*all=*/true);

  ln->work(*this);  // the caller works too

  std::unique_lock lk(mu_);
  cv_done_.wait(lk, [&] { return ln->done; });
  if (ln->error) std::rethrow_exception(std::exchange(ln->error, nullptr));
}

void ThreadPool::enqueue(const std::shared_ptr<Job>& job, bool all) {
  {
    std::lock_guard lk(mu_);
    if (!job->queued) {
      queue_.push_back(job);
      job->queued = true;
    }
  }
  if (all)
    cv_start_.notify_all();
  else
    cv_start_.notify_one();
}

void ThreadPool::finish_if_complete(Launch& ln) {
  std::lock_guard lk(mu_);
  if (ln.done) return;
  if (ln.next.load() < ln.count || ln.in_flight.load() != 0) return;
  ln.done = true;
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [&](const auto& p) { return p.get() == &ln; });
  if (it != queue_.end()) queue_.erase(it);
  cv_done_.notify_all();
}

std::shared_ptr<ThreadPool::Job> ThreadPool::next_job() {
  // Jobs with nothing left to claim are finishing on other threads; taking
  // them again would busy-spin. A dropped task group is queued again by its
  // next run().
  std::shared_ptr<Job> group;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if ((*it)->exhausted()) {
      (*it)->queued = false;
      it = queue_.erase(it);
      continue;
    }
    if ((*it)->launch) return *it;
    if (!group) group = *it;
    ++it;
  }
  return group;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lk(mu_);
      cv_start_.wait(lk, [&] { return stop_ || (job = next_job()); });
      if (stop_) return;
    }
    job->work(*this);
  }
}

/// A task group's shared state: the queue entry workers claim tasks from.
struct TaskGroup::State final : ThreadPool::Job {
  struct Task {
    std::function<void()> fn;
    bool done = false;
  };

  State() : Job(/*is_launch=*/false) {}

  [[nodiscard]] bool exhausted() const override {
    std::lock_guard lk(mu);
    return claimed == tasks.size();
  }

  void work(ThreadPool&) override {
    run_below(std::numeric_limits<std::size_t>::max(), 1);
  }

  /// Claims and runs up to `max_tasks` tasks in submission order while one
  /// below `limit` is unclaimed.
  void run_below(std::size_t limit,
                 std::size_t max_tasks = std::numeric_limits<std::size_t>::max()) {
    for (; max_tasks > 0; --max_tasks) {
      std::size_t i = 0;
      std::function<void()> fn;
      {
        std::lock_guard lk(mu);
        if (claimed >= std::min(limit, tasks.size())) return;
        i = claimed++;
        fn = std::move(tasks[i].fn);
      }
      std::exception_ptr err;
      try {
        fn();
      } catch (...) {
        err = std::current_exception();
      }
      fn = nullptr;  // the task's captures die before anyone sees it done
      std::lock_guard lk(mu);
      tasks[i].done = true;
      if (err && i < first_error) {
        first_error = i;
        error = err;
      }
      while (finished < tasks.size() && tasks[finished].done) ++finished;
      cv.notify_all();
    }
  }

  mutable std::mutex mu;
  std::condition_variable cv;  // waiters: `finished` advanced
  std::deque<Task> tasks;
  std::size_t claimed = 0;   // tasks [0, claimed) are handed out
  std::size_t finished = 0;  // tasks [0, finished) have all run
  std::size_t first_error = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;  // task first_error's failure
};

TaskGroup::TaskGroup(ThreadPool& pool)
    : pool_(pool), st_(std::make_shared<State>()) {}

TaskGroup::~TaskGroup() {
  // Like cudaStreamDestroy: pending work completes, and failures surface
  // only through an explicit wait().
  try {
    wait();
  } catch (...) {
  }
}

void TaskGroup::run(std::function<void()> fn) {
  {
    std::lock_guard lk(st_->mu);
    st_->tasks.push_back({std::move(fn)});
  }
  // With one worker no thread could claim the task; wait() runs it.
  if (pool_.worker_count() > 1) pool_.enqueue(st_, /*all=*/false);
}

void TaskGroup::wait(std::size_t n) {
  n = std::min(n, size());
  st_->run_below(n);
  std::unique_lock lk(st_->mu);
  st_->cv.wait(lk, [&] { return st_->finished >= n; });
  if (st_->first_error < n) std::rethrow_exception(st_->error);
}

void TaskGroup::wait() { wait(std::numeric_limits<std::size_t>::max()); }

std::size_t TaskGroup::size() const {
  std::lock_guard lk(st_->mu);
  return st_->tasks.size();
}

}  // namespace szi::dev
