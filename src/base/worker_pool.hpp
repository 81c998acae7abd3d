// A small reusable worker pool for embarrassingly parallel sweeps.
//
// HALOTIS campaign workloads (stuck-at fault simulation, Monte-Carlo
// variation runs, the repro experiments) shard an index space across a
// fixed set of workers, each of which owns heavyweight reusable state (a
// Simulator).  The pool keeps its threads alive across calls so repeated
// sweeps -- e.g. one per ATPG candidate vector -- pay no thread creation
// cost.
//
// Scheduling is dynamic (one atomic ticket per index), so results must be
// keyed by index, never by completion order: callers that write one output
// slot per index are deterministic regardless of thread count or OS
// scheduling.
//
// Failure contract (the one every sweep shares): the first exception a job
// throws ends the sweep.  No worker claims another index, jobs already
// running finish, and for_each_index rethrows that exception unchanged, so
// a RunError keeps its kind and exit code.  A job that wants to survive a
// failure (a campaign's per-fault verdict, a repro experiment's outcome)
// catches it itself.
#pragma once

#include <cstddef>
#include <functional>

namespace halotis {

class WorkerPool {
 public:
  /// One job item: `worker` in [0, size()) identifies the calling worker
  /// (stable within one for_each_index call), `index` the work item.
  using IndexFn = std::function<void(int worker, std::size_t index)>;

  /// Creates a pool of `threads` workers; 0 means one per hardware thread.
  /// The calling thread participates as worker 0, so `threads == 1` spawns
  /// nothing and runs jobs inline (the deterministic serial baseline).
  explicit WorkerPool(int threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int size() const { return num_workers_; }

  /// Runs body(worker, index) for every index in [0, count), sharded across
  /// the pool by an atomic ticket counter; blocks until all indices are
  /// done.  `body` must be safe to call concurrently from different
  /// workers.  If a job throws, no index is claimed after it, the running
  /// jobs finish, and the first exception is rethrown unchanged on the
  /// calling thread; the pool stays usable.  Not reentrant.
  void for_each_index(std::size_t count, const IndexFn& body);

  /// `threads` normalized the same way the constructor does it: 0 becomes
  /// the hardware concurrency, everything is clamped to at least 1.
  [[nodiscard]] static int resolve_threads(int threads);

 private:
  struct Impl;
  Impl* impl_;
  int num_workers_;
};

}  // namespace halotis
