#include "net/http_server.hpp"

#include <poll.h>

#include <cerrno>
#include <string_view>
#include <vector>

namespace slices::net {
namespace {

/// HTTP/1.0, or `Connection: close`: answer, then close.
bool wants_close(const Request& request, std::string_view wire) {
  const std::string_view start_line = wire.substr(0, wire.find("\r\n"));
  if (start_line.ends_with(" HTTP/1.0")) return true;
  const auto it = request.headers.find("Connection");
  if (it == request.headers.end()) return false;
  const CaseInsensitiveLess less;
  return !less(it->second, "close") && !less("close", it->second);
}

}  // namespace

struct HttpServer::Client {
  TcpConnection conn;
  HttpFramer framer;
  const Router* router = nullptr;  ///< the accepting listener's
};

Result<std::unique_ptr<HttpServer>> HttpServer::bind(std::shared_ptr<Router> router,
                                                     std::uint16_t port) {
  Result<TcpListener> socket = TcpListener::bind_loopback(port);
  if (!socket.ok()) return socket.error();
  std::vector<Listener> listeners;
  listeners.push_back({std::move(router), std::move(socket).value()});
  return std::unique_ptr<HttpServer>(new HttpServer(std::move(listeners)));
}

Result<std::unique_ptr<HttpServer>> HttpServer::bind_each(
    std::vector<std::shared_ptr<Router>> routers) {
  if (routers.empty()) return make_error(Errc::invalid_argument, "http: no router to serve");
  std::vector<Listener> listeners;
  for (std::shared_ptr<Router>& router : routers) {
    Result<TcpListener> socket = TcpListener::bind_loopback(0);
    if (!socket.ok()) return socket.error();
    listeners.push_back({std::move(router), std::move(socket).value()});
  }
  return std::unique_ptr<HttpServer>(new HttpServer(std::move(listeners)));
}

void HttpServer::stop() noexcept {
  const int saved_errno = errno;  // a signal handler must leave errno alone
  stopping_.store(true, std::memory_order_release);
  // shutdown(2) of a listener wakes run()'s poll (POLLHUP on the
  // listener) and refuses new connects.
  for (Listener& listener : listeners_) listener.socket.close();
  errno = saved_errno;
}

std::uint64_t HttpServer::run() {
  std::vector<Client> clients;
  std::vector<pollfd> fds;
  std::uint64_t accepted = 0;
  const std::size_t n_listeners = listeners_.size();
  while (true) {
    // Once stopping, one last pass that does not block serves what the
    // clients sent before stop(), an EOF included, and then run returns.
    const bool last = stopping_.load(std::memory_order_acquire);
    fds.clear();
    for (const Listener& listener : listeners_) fds.push_back({listener.socket.fd(), POLLIN, 0});
    for (const Client& client : clients) fds.push_back({client.conn.fd(), POLLIN, 0});
    if (::poll(fds.data(), fds.size(), last ? 0 : -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }

    // Ready connections in accept order; closed ones drop out.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if (fds[n_listeners + i].revents != 0 && !serve_ready(clients[i])) continue;
      if (kept != i) clients[kept] = std::move(clients[i]);
      ++kept;
    }
    clients.resize(kept);
    if (last) break;

    // No connection is accepted once stopping.
    bool failed = false;
    for (std::size_t l = 0; l < n_listeners && !failed; ++l) {
      if (fds[l].revents == 0 || stopping_.load(std::memory_order_acquire)) continue;
      Result<TcpConnection> conn = listeners_[l].socket.accept_one();
      if (!conn.ok()) {
        // After a stop() since the check above, the last pass still
        // serves the open connections; otherwise the listener failed.
        failed = !stopping_.load(std::memory_order_acquire);
        continue;
      }
      clients.push_back({std::move(conn).value(), HttpFramer{}, listeners_[l].router.get()});
      ++accepted;
      served_.fetch_add(1, std::memory_order_relaxed);
    }
    if (failed) break;
  }
  return accepted;
}

bool HttpServer::serve_ready(Client& client) {
  const Result<bool> filled = client.framer.fill(client.conn);
  if (!filled.ok()) return false;  // reset: nobody to answer
  while (true) {
    wire_.clear();
    const Result<bool> framed = client.framer.next(wire_);
    if (!framed.ok()) return answer(*client.router, client.conn, framed.error());
    if (!framed.value()) break;
    if (!answer(*client.router, client.conn, parse_request(wire_))) return false;
  }
  if (filled.value()) return true;
  // EOF. A peer that closed inside a request still learns why.
  if (!client.framer.empty()) {
    (void)answer(*client.router, client.conn,
                 make_error(Errc::protocol_error, "http: connection closed mid-message"));
  }
  return false;
}

bool HttpServer::answer(const Router& router, TcpConnection& conn,
                        const Result<Request>& request) {
  Response response = serve(router, request);
  const bool close = !request.ok() || wants_close(request.value(), wire_);
  if (close) response.headers.insert_or_assign("Connection", "close");
  return conn.send_all(response.encode()).ok() && !close;
}

Result<Response> http_request(std::uint16_t port, const Request& request) {
  Result<TcpConnection> connected = connect_loopback(port);
  if (!connected.ok()) return connected.error();
  Request closing = request;
  closing.headers.insert_or_assign("Connection", "close");
  if (Result<void> sent = connected.value().send_all(closing.encode()); !sent.ok())
    return sent.error();
  HttpFramer framer;
  std::string wire;
  if (Result<void> read = framer.read(connected.value(), wire); !read.ok()) return read.error();
  return parse_response(wire);
}

}  // namespace slices::net
