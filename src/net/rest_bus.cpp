#include "net/rest_bus.hpp"

#include "net/http_server.hpp"
#include "telemetry/trace.hpp"

namespace slices::net {

void RestBus::register_service(std::string name, std::shared_ptr<Router> router) {
  ServiceEntry& entry = services_[std::move(name)];
  entry.router = std::move(router);
  entry.remote_port = 0;
  entry.disconnect();
}

void RestBus::register_remote(std::string name, std::uint16_t port) {
  ServiceEntry& entry = services_[std::move(name)];
  entry.router = nullptr;
  entry.remote_port = port;
  entry.disconnect();
}

void RestBus::unregister_service(const std::string& name) {
  const auto it = services_.find(name);
  if (it != services_.end()) {
    it->second.router = nullptr;
    it->second.remote_port = 0;
    it->second.disconnect();
  }
}

void RestBus::close_connections() noexcept {
  for (auto& [name, entry] : services_) entry.disconnect();
}

Result<std::string> RestBus::call_remote(ServiceEntry& entry, std::string_view request_wire) {
  if (!entry.conn.valid()) {
    Result<TcpConnection> connected = connect_loopback(entry.remote_port);
    if (!connected.ok()) return connected.error();
    entry.conn = std::move(connected).value();
  }
  std::string response_wire;
  if (Result<void> done = exchange(entry.conn, entry.framer, request_wire, response_wire);
      !done.ok())
    return done.error();
  return response_wire;
}

bool RestBus::has_service(const std::string& name) const noexcept {
  const auto it = services_.find(name);
  return it != services_.end() &&
         (it->second.router != nullptr || it->second.remote_port != 0);
}

Result<Response> RestBus::call(const std::string& name, const Request& request) {
  TRACE_SCOPE("bus.call");
  const auto it = services_.find(name);
  if (it == services_.end() ||
      (it->second.router == nullptr && it->second.remote_port == 0))
    return make_error(Errc::unavailable, "no service registered as '" + name + "'");
  ServiceEntry& entry = it->second;
  BusStats& stats = entry.stats;
  ++stats.requests;

  // Stamp the live trace context as an X-Slices-Trace header, so the
  // serving side's spans parent this bus.call span. Both transports
  // carry the same stamped bytes, so byte counters stay
  // transport-invariant whether tracing is on or off.
  const Request* req = &request;
  Request stamped;
  if (telemetry::trace::enabled()) {
    const telemetry::trace::Context ctx =
        telemetry::trace::Tracer::instance().current_context();
    if (ctx.valid()) {
      stamped = request;
      std::string encoded;
      telemetry::trace::encode_context(ctx, encoded);
      stamped.headers.insert_or_assign(telemetry::trace::kContextHeader, std::move(encoded));
      req = &stamped;
    }
  }

  const std::string request_wire = req->encode();
  stats.bytes_tx += request_wire.size();
  Result<std::string> response_wire =
      entry.router != nullptr ? serve(*entry.router, parse_request(request_wire)).encode()
                              : call_remote(entry, request_wire);
  // A failed exchange leaves the connection unusable, and HttpServer
  // names the Connection only when it is about to close it. An
  // in-process entry holds no connection, so disconnect() is a no-op
  // there.
  if (!response_wire.ok()) {
    entry.disconnect();
    ++stats.responses_error;
    return response_wire.error();
  }
  stats.bytes_rx += response_wire.value().size();
  Result<Response> resp = parse_response(response_wire.value());
  if (!resp.ok() || resp.value().headers.contains("Connection")) entry.disconnect();
  const int code = resp.ok() ? static_cast<int>(resp.value().status) : 0;
  if (code >= 200 && code < 300) {
    ++stats.responses_ok;
  } else {
    ++stats.responses_error;
  }
  return resp;
}

Result<json::Value> RestBus::call_json(const std::string& name, Method method,
                                       const std::string& target, const json::Value& body) {
  Request req;
  req.method = method;
  req.target = target;
  if (!body.is_null()) {
    req.headers.insert_or_assign("Content-Type", "application/json");
    json::serialize(body, json_buffer_);  // reuses the buffer's capacity
    req.body = json_buffer_;
  }
  Result<Response> resp = call(name, req);
  if (!resp.ok()) return resp.error();

  const Response& r = resp.value();
  const int code = static_cast<int>(r.status);
  if (code < 200 || code >= 300) {
    return make_error(errc_from_status(r.status),
                      "service '" + name + "' " + target + " -> " + std::to_string(code) +
                          (r.body.empty() ? "" : (" " + r.body)));
  }
  if (r.body.empty()) return json::Value(nullptr);
  return json::parse(r.body);
}

Result<json::Value> RestBus::get_json(const std::string& name, const std::string& target) {
  return call_json(name, Method::get, target, json::Value(nullptr));
}

std::map<std::string, BusStats> RestBus::stats() const {
  std::map<std::string, BusStats> out;
  for (const auto& [name, entry] : services_) out.emplace(name, entry.stats);
  return out;
}

}  // namespace slices::net
