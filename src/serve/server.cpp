#include "src/serve/server.hpp"

#include <sstream>
#include <utility>

#include <unistd.h>

#include "src/base/failpoint.hpp"
#include "src/base/worker_pool.hpp"
#include "src/serve/protocol.hpp"

namespace halotis::serve {

namespace {

/// Unlinks the socket file on every exit path out of run().
struct SocketUnlinker {
  const std::string& path;
  ~SocketUnlinker() { ::unlink(path.c_str()); }
};

}  // namespace

Server::Server(ServeOptions options, Executor executor)
    : options_(std::move(options)),
      executor_(std::move(executor)),
      cache_(options_.cache_bytes) {
  context_.cache = &cache_;
  context_.stop = options_.stop;
}

int Server::threads() const { return WorkerPool::resolve_threads(options_.threads); }

void Server::run() {
  UnixFd listen_fd = listen_unix(options_.socket_path);
  const SocketUnlinker unlinker{options_.socket_path};
  WorkerPool pool(options_.threads);
  const auto workers = static_cast<std::size_t>(pool.size());
  const int fd = listen_fd.get();
  // One accept loop per worker: each index is claimed once and spins until
  // drain, so every pool thread becomes an independent acceptor.
  pool.for_each_index(workers, [this, fd](int, std::size_t) { accept_loop(fd); });
}

void Server::accept_loop(int listen_fd) {
  SimulatorLease lease;  // per-worker: recycled across every request this loop serves
  while (!options_.stop.cancelled()) {
    try {
      if (!wait_readable(listen_fd, 100)) continue;
      UnixFd conn = accept_connection(listen_fd);
      if (!conn.valid()) continue;  // another worker won the race
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.connections;
      }
      failpoint_throw("serve.accept");
      serve_connection(conn.get(), lease);
    } catch (const std::exception&) {
      // Injected fail point, socket error or torn frame: that connection is
      // gone (RAII closed it), the daemon keeps serving.
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.aborted_connections;
    }
  }
}

void Server::serve_connection(int conn, SimulatorLease& lease) {
  // read_frame decides how a drain ends the connection: cleanly between
  // frames, as an abort once a frame's first byte has arrived.
  while (true) {
    std::optional<std::string> payload;
    try {
      payload = read_frame(conn, &options_.stop, options_.idle_timeout_ms);
    } catch (const ProtocolError& error) {
      // Oversized length field: diagnose and close before allocating.
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.protocol_errors;
      }
      send_error_response(conn, error.what());
      return;
    }
    if (!payload.has_value()) return;  // clean close or drain between frames
    failpoint_throw("serve.frame.read");

    ResponseFrame response;
    try {
      RequestFrame request = decode_request(*payload);
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.requests;
      }
      RequestIo io;
      for (auto& [path, bytes] : request.files) io.files.emplace(std::move(path), std::move(bytes));
      io.lease = &lease;
      std::ostringstream out;
      std::ostringstream err;
      try {
        failpoint_throw("serve.exec");
        response.exit_code = executor_(request.args, context_, io, out, err);
      } catch (const std::exception& error) {
        // The production executor (run_cli_service) maps everything to exit
        // codes itself; this catches injected serve.exec fail points and
        // keeps a throwing executor from killing the connection.
        response.exit_code = 1;
        err << "error: " << error.what() << "\n";
      }
      response.out = out.str();
      response.err = err.str();
      response.artifacts = std::move(io.artifacts);
    } catch (const ProtocolError& error) {
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.protocol_errors;
      }
      send_error_response(conn, error.what());
      return;
    }
    failpoint_throw("serve.frame.write");
    // No drain token: a request the drain interrupted still gets its
    // (cancelled, exit-5) response.  The idle limit bounds a stalled peer.
    write_frame(conn, encode_response(response), nullptr, options_.idle_timeout_ms);
  }
}

void Server::send_error_response(int conn, const std::string& diagnostic) {
  // Best effort: the peer may already be gone, and the connection closes
  // either way.  Exit code 2 mirrors a malformed local command line.
  ResponseFrame response;
  response.exit_code = 2;
  response.err = "error: " + diagnostic + "\n";
  try {
    write_frame(conn, encode_response(response), nullptr, options_.idle_timeout_ms);
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

Server::Stats Server::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace halotis::serve
