#include "src/base/worker_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/check.hpp"

namespace halotis {

struct WorkerPool::Impl {
  std::mutex mutex;
  std::condition_variable work_ready;
  std::condition_variable work_done;
  std::vector<std::thread> threads;

  // One sweep's shared state; guarded by `mutex` except the ticket counter.
  const IndexFn* body = nullptr;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};
  std::uint64_t generation = 0;  ///< bumped per sweep; wakes the workers
  int workers_active = 0;
  std::exception_ptr first_error;
  bool shutting_down = false;

  /// Claims and runs indices until the ticket counter drains.  A throwing
  /// body ends the sweep: the counter jumps past the last index, so no
  /// worker claims another one, and the first exception is kept for
  /// for_each_index to rethrow.
  void drain(int worker) {
    const IndexFn& fn = *body;
    while (true) {
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= count) return;
      try {
        fn(worker, index);
      } catch (...) {
        next.store(count, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  }

  void worker_loop(int worker) {
    std::uint64_t seen_generation = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_ready.wait(lock, [&] {
          return shutting_down || generation != seen_generation;
        });
        if (shutting_down) return;
        seen_generation = generation;
      }
      drain(worker);
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (--workers_active == 0) work_done.notify_all();
      }
    }
  }
};

int WorkerPool::resolve_threads(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

WorkerPool::WorkerPool(int threads) : impl_(new Impl), num_workers_(resolve_threads(threads)) {
  // Worker 0 is the calling thread; only 1..N-1 are spawned.
  impl_->threads.reserve(static_cast<std::size_t>(num_workers_ - 1));
  for (int w = 1; w < num_workers_; ++w) {
    impl_->threads.emplace_back([this, w] { impl_->worker_loop(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutting_down = true;
  }
  impl_->work_ready.notify_all();
  for (std::thread& t : impl_->threads) t.join();
  delete impl_;
}

void WorkerPool::for_each_index(std::size_t count, const IndexFn& body) {
  require(static_cast<bool>(body), "WorkerPool::for_each_index(): body must be callable");
  if (count == 0) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    require(impl_->body == nullptr, "WorkerPool::for_each_index(): not reentrant");
    impl_->body = &body;
    impl_->count = count;
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->workers_active = static_cast<int>(impl_->threads.size());
    ++impl_->generation;
  }
  impl_->work_ready.notify_all();

  impl_->drain(/*worker=*/0);  // the calling thread participates

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->work_done.wait(lock, [&] { return impl_->workers_active == 0; });
    impl_->body = nullptr;
    error = std::exchange(impl_->first_error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace halotis
