#include "src/serve/socket_io.hpp"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/serve/protocol.hpp"

namespace halotis::serve {

namespace {

/// Poll slice: the longest a blocked I/O loop goes without checking the
/// cancel token.
constexpr int kPollSliceMs = 100;

[[noreturn]] void throw_io(const std::string& what) {
  throw RunError(RunErrorKind::kIoError, what + ": " + std::strerror(errno));
}

void check_cancel(const CancelToken* cancel) {
  if (cancel != nullptr && cancel->cancelled()) {
    throw RunError(RunErrorKind::kCancelled, "cancelled during socket I/O");
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_io("fcntl(O_NONBLOCK)");
  }
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw RunError(RunErrorKind::kIoError,
                   "socket path '" + path + "' is empty or longer than " +
                       std::to_string(sizeof(addr.sun_path) - 1) + " bytes");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

UnixFd make_socket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_io("socket(AF_UNIX)");
  return UnixFd(fd);
}

bool wait_io(int fd, short events, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return false;
    throw_io("poll");
  }
  return ready > 0;
}

/// Reads exactly `n` bytes into `out`.  Returns false when the frame ends
/// before its FIRST byte -- EOF (a clean close) or a tripped token while
/// the socket holds nothing more (a drain between frames).  EOF or a
/// tripped token mid-frame, a hard error or idle expiry all throw.
bool recv_exact(int fd, char* out, std::size_t n, const CancelToken* cancel,
                int idle_timeout_ms, bool& started) {
  std::size_t got = 0;
  int idle_ms = 0;
  while (got < n) {
    // Read before the recv: a peer that sent bytes before the token
    // tripped has them visible to this recv, so an empty socket after a
    // seen cancel really is a drain between frames.
    const bool was_cancelled = cancel != nullptr && cancel->cancelled();
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      started = true;
      idle_ms = 0;
      continue;
    }
    if (r == 0) {
      if (!started) return false;
      throw RunError(RunErrorKind::kIoError,
                     "connection closed mid-frame (" + std::to_string(got) + " of " +
                         std::to_string(n) + " bytes)");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      if (was_cancelled) {
        if (!started) return false;
        throw RunError(RunErrorKind::kCancelled, "cancelled during socket I/O");
      }
      if (!wait_io(fd, POLLIN, kPollSliceMs)) {
        idle_ms += kPollSliceMs;
        if (idle_timeout_ms > 0 && idle_ms >= idle_timeout_ms) {
          throw RunError(RunErrorKind::kIoError,
                         "connection idle for " + std::to_string(idle_ms) + " ms mid-frame");
        }
      }
      continue;
    }
    throw_io("recv");
  }
  return true;
}

}  // namespace

void UnixFd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

UnixFd listen_unix(const std::string& path) {
  const sockaddr_un addr = make_address(path);
  UnixFd fd = make_socket();
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    if (errno != EADDRINUSE) throw_io("bind('" + path + "')");
    // A socket file already exists.  Probe it: a live daemon accepts the
    // connect and we refuse to fight it; a stale file (crashed daemon)
    // refuses, so it is safe to unlink and rebind.
    UnixFd probe = make_socket();
    if (::connect(probe.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      throw RunError(RunErrorKind::kIoError,
                     "socket '" + path + "' is already in use by a running daemon");
    }
    if (::unlink(path.c_str()) < 0) throw_io("unlink stale socket '" + path + "'");
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      throw_io("bind('" + path + "')");
    }
  }
  if (::listen(fd.get(), 64) < 0) throw_io("listen('" + path + "')");
  set_nonblocking(fd.get());
  return fd;
}

UnixFd connect_unix(const std::string& path) {
  const sockaddr_un addr = make_address(path);
  UnixFd fd = make_socket();
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    throw_io("connect('" + path + "')");
  }
  set_nonblocking(fd.get());
  return fd;
}

UnixFd accept_connection(int listen_fd) {
  const int conn = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
  if (conn < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      return UnixFd();
    }
    throw_io("accept");
  }
  UnixFd fd(conn);
  set_nonblocking(fd.get());
  return fd;
}

bool wait_readable(int fd, int timeout_ms) { return wait_io(fd, POLLIN, timeout_ms); }

void write_frame(int fd, std::string_view payload, const CancelToken* cancel,
                 int idle_timeout_ms) {
  std::string frame;
  frame.reserve(payload.size() + 4);
  const auto len = static_cast<std::uint32_t>(payload.size());
  frame.push_back(static_cast<char>(len & 0xFF));
  frame.push_back(static_cast<char>((len >> 8) & 0xFF));
  frame.push_back(static_cast<char>((len >> 16) & 0xFF));
  frame.push_back(static_cast<char>((len >> 24) & 0xFF));
  frame.append(payload);
  std::size_t sent = 0;
  int idle_ms = 0;
  while (sent < frame.size()) {
    check_cancel(cancel);
    const ssize_t w = ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (w >= 0) {
      sent += static_cast<std::size_t>(w);
      idle_ms = 0;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      if (!wait_io(fd, POLLOUT, kPollSliceMs)) {
        idle_ms += kPollSliceMs;
        if (idle_timeout_ms > 0 && idle_ms >= idle_timeout_ms) {
          throw RunError(RunErrorKind::kIoError,
                         "peer stopped reading for " + std::to_string(idle_ms) + " ms");
        }
      }
      continue;
    }
    throw_io("send");
  }
}

std::optional<std::string> read_frame(int fd, const CancelToken* cancel,
                                      int idle_timeout_ms) {
  char prefix[4];
  bool started = false;
  if (!recv_exact(fd, prefix, sizeof prefix, cancel, idle_timeout_ms, started)) {
    return std::nullopt;
  }
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i) {
    len = (len << 8) | static_cast<unsigned char>(prefix[i]);
  }
  if (len > kMaxFrameBytes) {
    throw ProtocolError(0, "frame length " + std::to_string(len) + " exceeds the " +
                               std::to_string(kMaxFrameBytes) + "-byte limit");
  }
  std::string payload(len, '\0');
  if (len > 0) {
    (void)recv_exact(fd, payload.data(), payload.size(), cancel, idle_timeout_ms, started);
  }
  return payload;
}

}  // namespace halotis::serve
