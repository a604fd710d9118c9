#pragma once
// REST bus: services by name, served in-process or over loopback.
//
// The testbed in the paper connects three domain controllers to the
// end-to-end orchestrator via REST over an IP network. Here services
// (routers) register under a name ("ran", "transport", "cloud", a
// federation edge) and clients issue requests by service name.
//
// Every call crosses the HTTP/1.1 codec the same way on either
// transport: the request is encoded once, and its wire bytes are either
// parsed and served in-process (serve(), the step HttpServer runs) or
// sent to an HttpServer over a kept-alive loopback connection. The
// response's wire bytes are parsed back with parse_response. Traffic
// counters count those wire bytes, so they match across transports.

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "json/value.hpp"
#include "net/framer.hpp"
#include "net/http.hpp"
#include "net/router.hpp"
#include "net/tcp.hpp"

namespace slices::net {

/// Per-service traffic counters, exposed for the dashboard.
struct BusStats {
  std::uint64_t requests = 0;
  std::uint64_t responses_ok = 0;     ///< 2xx
  std::uint64_t responses_error = 0;  ///< everything else
  std::uint64_t bytes_tx = 0;         ///< request wire bytes
  std::uint64_t bytes_rx = 0;         ///< response wire bytes
};

/// Name-addressed registry of REST services with a synchronous client.
class RestBus {
 public:
  /// Register a service; replaces any previous router under `name`.
  /// Traffic counters of a previously registered `name` are kept.
  void register_service(std::string name, std::shared_ptr<Router> router);

  /// Register a remote service reachable over a real loopback socket
  /// (an HttpServer in another thread or another OS process). Calls to
  /// `name` are blocking HTTP/1.1 exchanges over one kept-alive
  /// connection, opened by the first call. Any send, receive or framing
  /// error closes it; that call fails (unavailable, or protocol_error)
  /// and is not retried — a POST need not be idempotent — and the next
  /// call connects afresh. Byte counters stay exact and equal to an
  /// in-process run's. Replaces any in-process router under `name`
  /// (and vice versa — register_service switches the entry back to
  /// in-process serving); either way the entry's connection is closed.
  void register_remote(std::string name, std::uint16_t port);

  /// Remove a service (subsequent calls see Errc::unavailable) and
  /// close its connection. Its traffic counters remain visible in
  /// stats().
  void unregister_service(const std::string& name);

  /// Close every remote service's connection (the services stay
  /// registered; the next call reconnects). Call before stopping the
  /// servers, so none is left serving an idle peer.
  void close_connections() noexcept;

  [[nodiscard]] bool has_service(const std::string& name) const noexcept;

  /// Issue `request` to service `name` through the wire codec: a round
  /// of one (call_each). Errors: unavailable (unknown service, or a
  /// failed connection), or protocol_error (a response that does not
  /// parse, or a framing error). A request that does not parse is
  /// answered 400 by the serving side, as over a socket.
  [[nodiscard]] Result<Response> call(const std::string& name, const Request& request);

  /// Issue `request` to every service in `names` as one round under
  /// one bus.call span: every remote request is written before any
  /// reply is read, then the replies are read, and in-process services
  /// served, in `names` order. Each request carries the same trace
  /// context. Returns one result per name, as call() would; a service
  /// that fails does not stop the round.
  [[nodiscard]] std::vector<Result<Response>> call_each(std::span<const std::string> names,
                                                        const Request& request);

  /// Convenience: JSON request/response round trip. Non-2xx responses
  /// come back as errors carrying the response body as message.
  [[nodiscard]] Result<json::Value> call_json(const std::string& name, Method method,
                                              const std::string& target,
                                              const json::Value& body);
  /// call_each() with call_json()'s request and reply handling.
  [[nodiscard]] std::vector<Result<json::Value>> call_json_each(
      std::span<const std::string> names, Method method, const std::string& target,
      const json::Value& body);
  /// GET returning parsed JSON.
  [[nodiscard]] Result<json::Value> get_json(const std::string& name, const std::string& target);

  /// Per-service traffic counters (includes unregistered services that
  /// saw traffic). Returned by value: the bus keeps router and counters
  /// in one combined entry internally.
  [[nodiscard]] std::map<std::string, BusStats> stats() const;

 private:
  /// Router + counters in one map node: call() resolves a service with
  /// a single string lookup.
  struct ServiceEntry {
    std::shared_ptr<Router> router;  ///< nullptr once unregistered/remote
    std::uint16_t remote_port = 0;   ///< != 0: reach over a loopback socket
    TcpConnection conn;              ///< remote: kept alive between calls
    HttpFramer framer;               ///< remote: frames conn's responses
    BusStats stats;

    void disconnect() noexcept {
      conn.close();
      framer.clear();
    }
  };

  /// The entry registered as `name`, or nullptr when none serves it.
  [[nodiscard]] ServiceEntry* find_entry(const std::string& name);
  /// The request's wire bytes, stamped with the live trace context as
  /// an X-Slices-Trace header when tracing is on.
  [[nodiscard]] static std::string stamped_wire(const Request& request);
  /// First half of an exchange: count the request and, for a remote
  /// entry, write it on the kept-alive connection (opened if closed).
  [[nodiscard]] static Result<void> send(ServiceEntry& entry, std::string_view request_wire);
  /// Second half: serve the request in-process, or read a remote
  /// entry's response, then parse and count the response.
  [[nodiscard]] static Result<Response> receive(ServiceEntry& entry,
                                                std::string_view request_wire);
  /// Build the request of a JSON call (reusing json_buffer_).
  [[nodiscard]] Request json_request(Method method, const std::string& target,
                                     const json::Value& body);
  /// Map a response onto call_json()'s result.
  [[nodiscard]] static Result<json::Value> json_reply(const std::string& name,
                                                      const std::string& target,
                                                      Result<Response> resp);

  std::map<std::string, ServiceEntry> services_;
  std::string json_buffer_;  ///< reused request-body serialization buffer
};

}  // namespace slices::net
