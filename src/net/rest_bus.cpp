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

Result<Response> RestBus::call_remote(ServiceEntry& entry, const Request& request) {
  if (!entry.conn.valid()) {
    Result<TcpConnection> connected = connect_loopback(entry.remote_port);
    if (!connected.ok()) return connected.error();
    entry.conn = std::move(connected).value();
  }
  Result<Response> resp = exchange(entry.conn, entry.framer, request);
  // HttpServer names the Connection only when it is about to close it.
  if (!resp.ok() || resp.value().headers.contains("Connection")) entry.disconnect();
  return resp;
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
  BusStats& stats = it->second.stats;
  ++stats.requests;

  // Stamp the live trace context onto the request so callee spans parent
  // this bus.call span: in-struct on the direct-dispatch path, as an
  // X-Slices-Trace header across the socket backend. All three paths use
  // the same stamped copy, so byte counters and wire-check bytes stay
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

  // Remote backend: the exchange crosses a real loopback socket (the
  // server encodes/parses on its side), so every call pays the full
  // wire codec by construction.
  if (it->second.router == nullptr) {
    stats.bytes_tx += req->encoded_size();
    Result<Response> resp = call_remote(it->second, *req);
    if (!resp.ok()) {
      ++stats.responses_error;
      return resp;
    }
    stats.bytes_rx += resp.value().encoded_size();
    const int code = static_cast<int>(resp.value().status);
    if (code >= 200 && code < 300) {
      ++stats.responses_ok;
    } else {
      ++stats.responses_error;
    }
    return resp;
  }

  // Sampled wire check (and the first call of every service): the
  // request crosses the codec exactly as it would cross a TCP
  // connection, keeping the wire format continuously verified.
  if (wire_check_interval_ <= 1 || stats.requests % wire_check_interval_ == 1) {
    const std::string request_wire = req->encode();
    stats.bytes_tx += request_wire.size();
    Result<Request> decoded = parse_request(request_wire);
    if (!decoded.ok()) return decoded.error();

    const Response served = it->second.router->dispatch(decoded.value());

    const std::string response_wire = served.encode();
    stats.bytes_rx += response_wire.size();
    Result<Response> redecoded = parse_response(response_wire);
    if (!redecoded.ok()) return redecoded.error();

    const int code = static_cast<int>(redecoded.value().status);
    if (code >= 200 && code < 300) {
      ++stats.responses_ok;
    } else {
      ++stats.responses_error;
    }
    return redecoded;
  }

  // Fast path: dispatch directly, skipping the codec. Counters account
  // the exact bytes the wire would have carried, and the response gets
  // the canonical Content-Length header a codec round trip would add,
  // so callers cannot tell the two paths apart.
  stats.bytes_tx += req->encoded_size();
  Response served = it->second.router->dispatch(*req);
  stats.bytes_rx += served.encoded_size();
  served.headers.insert_or_assign("Content-Length", std::to_string(served.body.size()));

  const int code = static_cast<int>(served.status);
  if (code >= 200 && code < 300) {
    ++stats.responses_ok;
  } else {
    ++stats.responses_error;
  }
  return served;
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
