#pragma once
// Blocking HTTP/1.1 server over real sockets, with kept-alive
// connections.
//
// Exposes any Router (the same ones the RestBus serves in-process) on a
// loopback TCP port. run() is one poll(2) loop on one thread over the
// listener and every open connection. A readable connection's bytes go
// through its HttpFramer; each whole request is parsed, served (serve(),
// as the RestBus serves an in-process call) and answered before the
// next one, so handlers run in arrival order and never concurrently. A
// connection stays open across requests (HTTP/1.1
// keep-alive) until the peer closes it, or until a request says
// `Connection: close`, is HTTP/1.0, or fails to frame or parse; a
// request that fails gets a 400 first. Only a closing response carries
// a `Connection` header. stop() shuts the listener down, which wakes
// the loop from any thread or a signal handler, also while clients sit
// idle on open connections.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "net/framer.hpp"
#include "net/http.hpp"
#include "net/router.hpp"
#include "net/tcp.hpp"

namespace slices::net {

class HttpServer {
 public:
  /// Bind 127.0.0.1:`port` (0 = ephemeral). The router must outlive the
  /// server. Returned by pointer because the server owns an atomic stop
  /// flag shared with other threads and must not move. Errors:
  /// unavailable (bind/listen failure).
  [[nodiscard]] static Result<std::unique_ptr<HttpServer>> bind(std::shared_ptr<Router> router,
                                                                std::uint16_t port = 0);

  /// The bound port.
  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

  /// Serve until stop(). What open connections sent before stop(), a
  /// whole request followed by EOF included, is still answered; then
  /// every open connection closes. Returns the number of connections
  /// accepted.
  std::uint64_t run();

  /// Make run() return and refuse new connections. Thread-safe and
  /// async-signal-safe (`scenario_runner edge` calls it from SIGTERM);
  /// a stop() before run() makes run() return at once.
  void stop() noexcept;

  /// Connections accepted so far (one per kept-alive client).
  [[nodiscard]] std::uint64_t connections_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  HttpServer(std::shared_ptr<Router> router, TcpListener listener) noexcept
      : router_(std::move(router)), listener_(std::move(listener)) {}

  struct Client;
  /// Read what `client` sent and answer every whole request in it.
  /// False once the connection is to be closed.
  bool serve_ready(Client& client);
  /// Answer the request framed in wire_ (or the framing error) through
  /// serve(). False when the connection must close.
  bool answer(TcpConnection& conn, const Result<Request>& request);

  std::shared_ptr<Router> router_;
  TcpListener listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> served_{0};
  std::string wire_;  ///< the request being answered (reused)
};

/// Send the encoded request `request_wire` on `conn` and append the
/// response's wire bytes, framed by `framer`, to `response_wire`.
/// Errors: unavailable (send/receive failure, peer closed), or
/// protocol_error (framing). After an error `conn` is unusable.
[[nodiscard]] Result<void> exchange(TcpConnection& conn, HttpFramer& framer,
                                    std::string_view request_wire, std::string& response_wire);

/// One-shot blocking client for tools and tests: one request with
/// `Connection: close` over a fresh loopback connection.
[[nodiscard]] Result<Response> http_request(std::uint16_t port, const Request& request);

}  // namespace slices::net
