#pragma once
// Minimal RAII TCP primitives for the HTTP server/client.
//
// The in-process RestBus covers simulation runs; HttpServer (built on
// these primitives) exposes the very same routers over real sockets so
// the dashboard, remote edges and external tools can drive them.
// Blocking I/O, IPv4 loopback-oriented — deliberately simple and fully
// owned (no external dependencies). HttpFramer (framer.hpp) cuts the
// byte stream into messages.

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.hpp"

namespace slices::net {

/// RAII file-descriptor handle (move-only).
class FdHandle {
 public:
  FdHandle() noexcept = default;
  explicit FdHandle(int fd) noexcept : fd_(fd) {}
  ~FdHandle() { reset(); }

  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;
  FdHandle(FdHandle&& other) noexcept : fd_(other.release()) {}
  FdHandle& operator=(FdHandle&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// Give up ownership without closing.
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Close now (idempotent).
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// A connected TCP stream (default-constructed: not connected).
class TcpConnection {
 public:
  TcpConnection() noexcept = default;
  explicit TcpConnection(FdHandle fd) noexcept : fd_(std::move(fd)) {}

  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

  /// Write the whole buffer; Errc::unavailable on peer reset.
  [[nodiscard]] Result<void> send_all(std::string_view data);

  /// One recv() of at most `size` bytes into `buffer`: the byte count,
  /// 0 at EOF. Errors: unavailable.
  [[nodiscard]] Result<std::size_t> receive(char* buffer, std::size_t size);

  /// Half-close the write side (the peer reads EOF after our bytes).
  void shutdown_write() noexcept;

  /// Close now (idempotent); the connection is invalid afterwards.
  void close() noexcept { fd_.reset(); }

 private:
  FdHandle fd_;
};

/// A listening IPv4 TCP socket.
class TcpListener {
 public:
  /// Bind to 127.0.0.1:`port` (0 = ephemeral) and listen. Errors:
  /// unavailable with errno detail.
  [[nodiscard]] static Result<TcpListener> bind_loopback(std::uint16_t port);

  /// The actually bound port (useful after binding port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accept one connection (blocking unless poll(2) reported it
  /// ready). Errors: unavailable when the listener was closed from
  /// another thread (clean shutdown path).
  [[nodiscard]] Result<TcpConnection> accept_one();

  /// Stop accepting: a blocked accept_one() (possibly in another
  /// thread) fails immediately and new connects are refused.
  /// Implemented as shutdown() — merely closing the fd does NOT unblock
  /// a pending accept on Linux, and freeing the descriptor number under
  /// a racing thread is unsafe; the destructor releases the fd.
  /// Async-signal-safe.
  void close() noexcept;

  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

 private:
  TcpListener(FdHandle fd, std::uint16_t port) noexcept : fd_(std::move(fd)), port_(port) {}

  FdHandle fd_;
  std::uint16_t port_ = 0;
};

/// Connect to 127.0.0.1:`port`. Errors: unavailable.
[[nodiscard]] Result<TcpConnection> connect_loopback(std::uint16_t port);

}  // namespace slices::net
