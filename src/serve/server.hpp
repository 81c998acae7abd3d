// The resident simulation daemon (docs/DAEMON.md).
//
// run() binds a Unix domain socket and parks every WorkerPool worker in a
// pre-threaded accept loop: each worker polls the shared non-blocking
// listen fd, accepts, and serves whole connections (many frames each) with
// its own pooled Simulator.  There is no acceptor/dispatcher hop -- the
// kernel's accept queue IS the request queue.
//
// Lifecycle: run() blocks until the stop token trips (cmd_serve wires
// SIGINT/SIGTERM to it), then drains -- workers stop accepting, in-flight
// requests unwind promptly because their supervisors chain the same token
// -- and the socket file is unlinked on every exit path.
//
// Failure containment: a malformed frame gets a best-effort error response
// and a connection close; an injected fail point or socket error aborts
// only that connection; the daemon keeps serving.  `serve.*` fail points
// (accept / frame.read / frame.write / exec / cache) drive the randomized
// soak in tests/test_serve.cpp.
#pragma once

#include <cstdint>
#include <mutex>

#include "src/serve/service.hpp"
#include "src/serve/socket_io.hpp"

namespace halotis::serve {

struct ServeOptions {
  std::string socket_path;
  int threads = 0;                        ///< WorkerPool semantics: 0 = hardware
  std::size_t cache_bytes = 256u << 20;   ///< elaboration-cache budget
  int idle_timeout_ms = 30000;            ///< per-connection limit on a stalled frame, either way
  CancelToken stop;                       ///< trip to drain and return from run()
};

class Server {
 public:
  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t protocol_errors = 0;
    std::uint64_t aborted_connections = 0;
  };

  Server(ServeOptions options, Executor executor);

  /// Serves until the stop token trips.  Throws RunError(kIoError) when the
  /// socket cannot be bound (e.g. a live daemon already owns it).
  void run();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] ElabCache::Stats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] int threads() const;

 private:
  void accept_loop(int listen_fd);
  void serve_connection(int conn, SimulatorLease& lease);
  void send_error_response(int conn, const std::string& diagnostic);

  ServeOptions options_;
  Executor executor_;
  ElabCache cache_;
  ServeContext context_;
  mutable std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace halotis::serve
