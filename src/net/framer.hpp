#pragma once
// Content-Length framing of HTTP/1.1 messages over one TcpConnection.
//
// The one reader of HTTP bytes from a socket, for the server and the
// client alike. A kept-alive connection carries message after message,
// so the framer keeps a carry buffer: bytes read past the end of one
// message stay there and start the next one (pipelined requests are
// framed in order). A message is its head up to the blank line plus
// exactly Content-Length body bytes; parse_request/parse_response then
// check everything else.

#include <cstddef>
#include <string>

#include "common/result.hpp"
#include "net/tcp.hpp"

namespace slices::net {

/// Hard cap on one message's wire size (head + body).
inline constexpr std::size_t kMaxRequestBytes = 4 * 1024 * 1024;

class HttpFramer {
 public:
  /// Move the next whole buffered message to the end of `wire`.
  /// Returns false while the carry holds no whole message. Errors:
  /// protocol_error (no head terminator within kMaxRequestBytes, a bad
  /// Content-Length, or one that would exceed kMaxRequestBytes). After
  /// an error the stream cannot be resynchronized: close it.
  [[nodiscard]] Result<bool> next(std::string& wire);

  /// One recv() from `conn` into a stack buffer, appended to the carry;
  /// call it only once next() returned false. The carry never grows
  /// past kMaxRequestBytes. Returns false at EOF. Errors: unavailable,
  /// protocol_error (the carry is at the cap).
  [[nodiscard]] Result<bool> fill(TcpConnection& conn);

  /// Block until one whole message is appended to `wire`. Errors: as
  /// next() and fill(); unavailable when the peer closes between
  /// messages, protocol_error when it closes inside one.
  [[nodiscard]] Result<void> read(TcpConnection& conn, std::string& wire);

  /// No buffered bytes (a peer closing now closes between messages).
  [[nodiscard]] bool empty() const noexcept { return carry_.empty(); }

  /// Drop the carry (the connection it belonged to is gone).
  void clear() noexcept;

 private:
  std::string carry_;
  std::size_t frame_ = 0;    ///< size of the message at the front; 0 until its head is whole
  std::size_t scanned_ = 0;  ///< carry bytes already searched for the head terminator
};

}  // namespace slices::net
