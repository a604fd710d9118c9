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

bool RestBus::has_service(const std::string& name) const noexcept {
  const auto it = services_.find(name);
  return it != services_.end() &&
         (it->second.router != nullptr || it->second.remote_port != 0);
}

RestBus::ServiceEntry* RestBus::find_entry(const std::string& name) {
  const auto it = services_.find(name);
  if (it == services_.end() || (it->second.router == nullptr && it->second.remote_port == 0))
    return nullptr;
  return &it->second;
}

std::string RestBus::stamped_wire(const Request& request) {
  // Stamp the live trace context as an X-Slices-Trace header, so the
  // serving side's spans parent this bus.call span. Both transports
  // carry the same stamped bytes, so byte counters stay
  // transport-invariant whether tracing is on or off.
  if (telemetry::trace::enabled()) {
    const telemetry::trace::Context ctx =
        telemetry::trace::Tracer::instance().current_context();
    if (ctx.valid()) {
      Request stamped = request;
      std::string encoded;
      telemetry::trace::encode_context(ctx, encoded);
      stamped.headers.insert_or_assign(telemetry::trace::kContextHeader, std::move(encoded));
      return stamped.encode();
    }
  }
  return request.encode();
}

Result<void> RestBus::send(ServiceEntry& entry, std::string_view request_wire) {
  ++entry.stats.requests;
  entry.stats.bytes_tx += request_wire.size();
  if (entry.router != nullptr) return {};
  Result<void> sent;
  if (!entry.conn.valid()) {
    Result<TcpConnection> connected = connect_loopback(entry.remote_port);
    if (connected.ok()) {
      entry.conn = std::move(connected).value();
    } else {
      sent = connected.error();
    }
  }
  if (sent.ok()) sent = entry.conn.send_all(request_wire);
  if (!sent.ok()) {
    entry.disconnect();
    ++entry.stats.responses_error;
  }
  return sent;
}

Result<Response> RestBus::receive(ServiceEntry& entry, std::string_view request_wire) {
  BusStats& stats = entry.stats;
  Result<std::string> response_wire = std::string();
  if (entry.router != nullptr) {
    response_wire = serve(*entry.router, parse_request(request_wire)).encode();
  } else if (Result<void> read = entry.framer.read(entry.conn, response_wire.value());
             !read.ok()) {
    response_wire = read.error();
  }
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

Result<Response> RestBus::call(const std::string& name, const Request& request) {
  return std::move(call_each(std::span<const std::string>(&name, 1), request).front());
}

std::vector<Result<Response>> RestBus::call_each(std::span<const std::string> names,
                                                 const Request& request) {
  TRACE_SCOPE("bus.call");
  const std::string request_wire = stamped_wire(request);
  // Write every request before reading any reply. A service that is
  // unknown or fails to send keeps its error in place of the reply.
  std::vector<Result<Response>> out;
  out.reserve(names.size());
  std::vector<ServiceEntry*> sent(names.size(), nullptr);
  for (std::size_t i = 0; i < names.size(); ++i) {
    ServiceEntry* entry = find_entry(names[i]);
    const Result<void> written =
        entry == nullptr
            ? make_error(Errc::unavailable, "no service registered as '" + names[i] + "'")
            : send(*entry, request_wire);
    if (!written.ok()) {
      out.emplace_back(written.error());
      continue;
    }
    out.emplace_back(Response{});
    sent[i] = entry;
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (sent[i] != nullptr) out[i] = receive(*sent[i], request_wire);
  }
  return out;
}

Request RestBus::json_request(Method method, const std::string& target,
                              const json::Value& body) {
  Request req;
  req.method = method;
  req.target = target;
  if (!body.is_null()) {
    req.headers.insert_or_assign("Content-Type", "application/json");
    json::serialize(body, json_buffer_);  // reuses the buffer's capacity
    req.body = json_buffer_;
  }
  return req;
}

Result<json::Value> RestBus::json_reply(const std::string& name, const std::string& target,
                                        Result<Response> resp) {
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

Result<json::Value> RestBus::call_json(const std::string& name, Method method,
                                       const std::string& target, const json::Value& body) {
  return json_reply(name, target, call(name, json_request(method, target, body)));
}

std::vector<Result<json::Value>> RestBus::call_json_each(std::span<const std::string> names,
                                                         Method method,
                                                         const std::string& target,
                                                         const json::Value& body) {
  std::vector<Result<Response>> replies = call_each(names, json_request(method, target, body));
  std::vector<Result<json::Value>> out;
  out.reserve(replies.size());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    out.push_back(json_reply(names[i], target, std::move(replies[i])));
  }
  return out;
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
