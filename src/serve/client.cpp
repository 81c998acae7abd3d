#include "src/serve/client.hpp"

#include "src/base/fileio.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/socket_io.hpp"

namespace halotis::serve {

int run_connected(const std::string& socket_path, const std::vector<std::string>& args,
                  const std::vector<std::pair<std::string, std::string>>& files,
                  std::ostream& out, std::ostream& err, const CancelToken* cancel) {
  const UnixFd conn = connect_unix(socket_path);
  RequestFrame request;
  request.args = args;
  request.files = files;
  write_frame(conn.get(), encode_request(request), cancel);

  std::optional<std::string> payload;
  try {
    payload = read_frame(conn.get(), cancel, /*idle_timeout_ms=*/0);
  } catch (const ProtocolError& error) {
    throw RunError(RunErrorKind::kIoError,
                   std::string("malformed daemon response: ") + error.what());
  }
  if (!payload.has_value()) {
    if (cancel != nullptr && cancel->cancelled()) {
      throw RunError(RunErrorKind::kCancelled, "cancelled while waiting for the daemon");
    }
    throw RunError(RunErrorKind::kIoError,
                   "daemon closed the connection without a response");
  }
  ResponseFrame response;
  try {
    response = decode_response(*payload);
  } catch (const ProtocolError& error) {
    throw RunError(RunErrorKind::kIoError,
                   std::string("malformed daemon response: ") + error.what());
  }

  // Artifacts first (the io.* fail points and atomic-publication guarantees
  // apply on this side of the socket), then the captured console bytes --
  // which already contain the "wrote PATH" lines in their local-mode
  // positions, so a successful exchange is byte-identical to local mode.
  for (const auto& [path, bytes] : response.artifacts) {
    write_file_atomic(path, bytes);
  }
  out << response.out;
  err << response.err;
  return response.exit_code;
}

}  // namespace halotis::serve
