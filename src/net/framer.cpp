#include "net/framer.hpp"

#include <algorithm>
#include <string_view>

#include "net/http.hpp"

namespace slices::net {

Result<bool> HttpFramer::next(std::string& wire) {
  if (frame_ == 0) {
    constexpr std::string_view kTerminator = "\r\n\r\n";
    // Resume the search just before the bytes the last call scanned, so
    // a terminator split across two reads is still found.
    const std::size_t from = scanned_ < 3 ? 0 : scanned_ - 3;
    const std::size_t head_end = carry_.find(kTerminator, from);
    if (head_end == std::string::npos) {
      scanned_ = carry_.size();
      if (carry_.size() >= kMaxRequestBytes)
        return make_error(Errc::protocol_error, "http: head exceeds size limit");
      return false;
    }
    const Result<std::size_t> length =
        content_length(std::string_view(carry_).substr(0, head_end));
    if (!length.ok()) return length.error();
    const std::size_t head_size = head_end + kTerminator.size();
    if (length.value() > kMaxRequestBytes - head_size)
      return make_error(Errc::protocol_error, "http: message exceeds size limit");
    frame_ = head_size + length.value();
  }
  if (carry_.size() < frame_) return false;
  wire.append(carry_, 0, frame_);
  carry_.erase(0, frame_);
  frame_ = 0;
  scanned_ = 0;
  return true;
}

Result<bool> HttpFramer::fill(TcpConnection& conn) {
  // Never buffer past the cap: next() has already framed or refused
  // anything the carry held at the cap.
  if (carry_.size() >= kMaxRequestBytes)
    return make_error(Errc::protocol_error, "http: message exceeds size limit");
  char buffer[16 * 1024];
  const Result<std::size_t> n =
      conn.receive(buffer, std::min(sizeof buffer, kMaxRequestBytes - carry_.size()));
  if (!n.ok()) return n.error();
  carry_.append(buffer, n.value());
  return n.value() > 0;
}

Result<void> HttpFramer::read(TcpConnection& conn, std::string& wire) {
  while (true) {
    const Result<bool> framed = next(wire);
    if (!framed.ok()) return framed.error();
    if (framed.value()) return {};
    const Result<bool> filled = fill(conn);
    if (!filled.ok()) return filled.error();
    if (!filled.value()) {
      return empty() ? make_error(Errc::unavailable, "connection closed by peer")
                     : make_error(Errc::protocol_error, "http: connection closed mid-message");
    }
  }
}

void HttpFramer::clear() noexcept {
  carry_.clear();
  frame_ = 0;
  scanned_ = 0;
}

}  // namespace slices::net
