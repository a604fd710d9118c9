#pragma once
// Blocking HTTP/1.1 server over real sockets, with kept-alive
// connections.
//
// Exposes any Router (the same ones the RestBus serves in-process) on a
// loopback TCP port, or several routers on one port each. run() is one
// poll(2) loop on one thread over every listener and every open
// connection; a connection is served by the router of the listener that
// accepted it. A readable connection's bytes go through its HttpFramer;
// each whole request is parsed, served (serve(), as the RestBus serves
// an in-process call) and answered before the next one, so handlers of
// every router run in arrival order and never concurrently. A client
// that writes to several ports before reading can have all of them
// answered in one wake of the loop. A connection stays open across
// requests (HTTP/1.1 keep-alive) until the peer closes it, or until a
// request says `Connection: close`, is HTTP/1.0, or fails to frame or
// parse; a request that fails gets a 400 first. Only a closing
// response carries a `Connection` header. stop() shuts every listener
// down, which wakes the loop from any thread or a signal handler, also
// while clients sit idle on open connections.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

  /// One server for several routers: router i is served on its own
  /// ephemeral 127.0.0.1 port, port(i), by the same loop. The routers
  /// must outlive the server. Errors: invalid_argument (no router),
  /// unavailable (bind/listen failure).
  [[nodiscard]] static Result<std::unique_ptr<HttpServer>> bind_each(
      std::vector<std::shared_ptr<Router>> routers);

  /// The port of listener `listener` (in bind_each's router order).
  [[nodiscard]] std::uint16_t port(std::size_t listener = 0) const noexcept {
    return listeners_[listener].socket.port();
  }

  /// Serve until stop(). What open connections sent before stop(), a
  /// whole request followed by EOF included, is still answered; then
  /// every open connection closes. Returns the number of connections
  /// accepted.
  std::uint64_t run();

  /// Make run() return and refuse new connections on every port.
  /// Thread-safe and async-signal-safe (`scenario_runner edge` calls it
  /// from SIGTERM); a stop() before run() makes run() return at once.
  void stop() noexcept;

  /// Connections accepted so far (one per kept-alive client).
  [[nodiscard]] std::uint64_t connections_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  struct Listener {
    std::shared_ptr<Router> router;
    TcpListener socket;
  };
  explicit HttpServer(std::vector<Listener> listeners) noexcept
      : listeners_(std::move(listeners)) {}

  struct Client;
  /// Read what `client` sent and answer every whole request in it.
  /// False once the connection is to be closed.
  bool serve_ready(Client& client);
  /// Answer the request framed in wire_ (or the framing error) through
  /// serve() on `router`. False when the connection must close.
  bool answer(const Router& router, TcpConnection& conn, const Result<Request>& request);

  /// Fixed at bind (never resized): stop() walks it from any thread or
  /// a signal handler.
  std::vector<Listener> listeners_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> served_{0};
  std::string wire_;  ///< the request being answered (reused)
};

/// One-shot blocking client for tools and tests: one request with
/// `Connection: close` over a fresh loopback connection.
[[nodiscard]] Result<Response> http_request(std::uint16_t port, const Request& request);

}  // namespace slices::net
