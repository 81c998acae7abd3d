// Unix-domain-socket plumbing for the daemon and its client.
//
// All I/O is non-blocking with poll() loops sliced at ~100 ms so a
// CancelToken (daemon drain, client Ctrl-C) is honoured promptly; a
// tripped token unwinds as RunError(kCancelled), socket failures and torn
// frames as RunError(kIoError) -- the CLI's documented exit codes 5 / 6.
// Frame framing (u32 LE length prefix, kMaxFrameBytes bound) lives here;
// payload structure lives in protocol.hpp.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "src/base/supervision.hpp"

namespace halotis::serve {

/// Move-only RAII file descriptor.
class UnixFd {
 public:
  UnixFd() = default;
  explicit UnixFd(int fd) : fd_(fd) {}
  ~UnixFd() { reset(); }
  UnixFd(UnixFd&& other) noexcept : fd_(other.release()) {}
  UnixFd& operator=(UnixFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  UnixFd(const UnixFd&) = delete;
  UnixFd& operator=(const UnixFd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_ = -1;
};

/// Binds + listens on `path` (non-blocking).  A stale socket file left by a
/// crashed daemon (nothing accepts on it) is unlinked and rebound; a live
/// one raises RunError(kIoError, "... already in use").
[[nodiscard]] UnixFd listen_unix(const std::string& path);

/// Connects to a listening daemon; RunError(kIoError) when none is there.
[[nodiscard]] UnixFd connect_unix(const std::string& path);

/// Non-blocking accept; an invalid UnixFd means no connection was pending
/// (another worker won the race).
[[nodiscard]] UnixFd accept_connection(int listen_fd);

/// poll() for readability; false on timeout.
[[nodiscard]] bool wait_readable(int fd, int timeout_ms);

/// Sends one length-prefixed frame, honouring `cancel` while blocked.
/// Throws RunError(kIoError) when the peer stops reading for
/// `idle_timeout_ms` (0 = no limit).  The daemon answers with no token and
/// this timeout, so a drain never drops a computed response.
void write_frame(int fd, std::string_view payload, const CancelToken* cancel,
                 int idle_timeout_ms = 0);

/// Receives one frame payload.  nullopt = the connection ended at a frame
/// boundary: clean EOF, or `cancel` tripped before the frame's first byte
/// arrived.  Throws ProtocolError for an oversized length field (before
/// allocating), RunError(kIoError) for EOF mid-frame, hard socket errors or
/// an idle connection exceeding `idle_timeout_ms` (0 = no limit), and
/// RunError(kCancelled) when `cancel` trips mid-frame.
[[nodiscard]] std::optional<std::string> read_frame(int fd, const CancelToken* cancel,
                                                    int idle_timeout_ms);

}  // namespace halotis::serve
