#include "common/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "fault/injector.hpp"

namespace esca {

namespace {

constexpr int kMaxPartitions = 64;

/// One parallel_for call, on its caller's stack. Every field after `n` is
/// guarded by the executor's mutex. The job is linked into the executor's
/// list exactly while it has indices left to claim and no task has failed.
struct Job {
  Job(detail::TaskFn fn_, void* ctx_, int n_) : fn(fn_), ctx(ctx_), n(n_) {}

  detail::TaskFn fn;
  void* ctx;
  int n;
  int claimed{0};
  int finished{0};
  std::exception_ptr error;
  Job* next{nullptr};
  std::condition_variable done;
};

void run_task(detail::TaskFn fn, void* ctx, int i) {
  // Chaos site: a shard or block range dying inside the fan-out.
  fault::maybe_throw("exec.task");
  fn(ctx, i);
}

class Executor {
 public:
  explicit Executor(int threads) {
    helpers_.reserve(static_cast<std::size_t>(threads - 1));
    for (int t = 1; t < threads; ++t) helpers_.emplace_back([this] { helper_loop(); });
  }

  ~Executor() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : helpers_) t.join();
  }

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  void run(Job& job) {
    std::unique_lock<std::mutex> lock(mu_);
    Job** tail = &head_;
    while (*tail != nullptr) tail = &(*tail)->next;
    *tail = &job;
    lock.unlock();
    const int wake = std::min(job.n - 1, static_cast<int>(helpers_.size()));
    for (int k = 0; k < wake; ++k) work_cv_.notify_one();
    lock.lock();
    while (job.claimed < job.n && !job.error) run_one(job, lock);
    job.done.wait(lock, [&] { return job.finished == job.claimed; });
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  /// Claim the next index of `job` (mu_ held), run it unlocked, record how
  /// it ended. Notifying under the lock keeps the caller from returning —
  /// and destroying the job — before this thread lets go of it.
  void run_one(Job& job, std::unique_lock<std::mutex>& lock) {
    const int i = job.claimed++;
    if (job.claimed == job.n) unlink(job);
    lock.unlock();
    std::exception_ptr error;
    try {
      run_task(job.fn, job.ctx, i);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !job.error) {
      job.error = error;
      if (job.claimed < job.n) unlink(job);
    }
    if (++job.finished == job.claimed) job.done.notify_one();
  }

  void unlink(Job& job) {
    Job** link = &head_;
    while (*link != &job) link = &(*link)->next;
    *link = job.next;
  }

  void helper_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return stop_ || head_ != nullptr; });
      if (stop_) return;
      run_one(*head_, lock);
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  Job* head_{nullptr};  ///< jobs with unclaimed indices, oldest first
  bool stop_{false};
  std::vector<std::thread> helpers_;  ///< last: the helpers use every member above
};

}  // namespace

int intra_frame_threads() {
  static const int threads = [] {
    // "0" means inline, like "1"; garbage and negative values warn and fall
    // through to the hardware default (common/env strict parsing).
    if (const auto env = env_int("ESCA_COMPUTE_THREADS", 0)) {
      return static_cast<int>(std::clamp<long long>(*env, 1, kMaxPartitions));
    }
    return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1U, 8U));
  }();
  return threads;
}

int resolve_partitions(int requested) {
  return requested > 0 ? std::min(requested, kMaxPartitions) : intra_frame_threads();
}

namespace detail {

void parallel_for(int n, TaskFn fn, void* ctx) {
  if (n <= 1 || intra_frame_threads() == 1) {
    for (int i = 0; i < n; ++i) run_task(fn, ctx, i);
    return;
  }
  static Executor executor(intra_frame_threads());
  Job job(fn, ctx, n);
  executor.run(job);
}

}  // namespace detail

}  // namespace esca
