#include "net/router.hpp"

#include <charconv>

#include "telemetry/trace.hpp"

namespace slices::net {

Result<std::string> RouteContext::param(std::string_view name) const {
  const auto it = path_params.find(std::string(name));
  if (it == path_params.end())
    return make_error(Errc::internal, "route pattern has no parameter '" + std::string(name) + "'");
  return it->second;
}

Result<std::uint64_t> RouteContext::id_param(std::string_view name) const {
  Result<std::string> raw = param(name);
  if (!raw.ok()) return raw.error();
  const std::string& s = raw.value();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    return make_error(Errc::invalid_argument, "'" + s + "' is not a valid id");
  return v;
}

void Router::add(Method method, std::string pattern, Handler handler) {
  Result<Target> parsed = parse_target(pattern);
  // Route patterns are compile-time constants in this codebase; a bad
  // one is a programming error.
  if (!parsed.ok()) throw std::invalid_argument("bad route pattern: " + pattern);
  routes_.push_back(Route{method, std::move(parsed.value().segments), std::move(handler)});
}

bool Router::match(const Route& route, const std::vector<std::string>& segments,
                   std::map<std::string, std::string>& params) {
  if (route.pattern_segments.size() != segments.size()) return false;
  std::map<std::string, std::string> captured;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::string& pat = route.pattern_segments[i];
    if (pat.size() >= 2 && pat.front() == '{' && pat.back() == '}') {
      captured.insert_or_assign(pat.substr(1, pat.size() - 2), segments[i]);
    } else if (pat != segments[i]) {
      return false;
    }
  }
  params = std::move(captured);
  return true;
}

Response Router::dispatch(const Request& request) const {
  Result<Target> target = parse_target(request.target);
  if (!target.ok()) return Response::from_error(target.error());

  bool path_known = false;
  for (const Route& route : routes_) {
    std::map<std::string, std::string> params;
    if (!match(route, target.value().segments, params)) continue;
    path_known = true;
    if (route.method != request.method) continue;
    RouteContext ctx;
    ctx.request = &request;
    ctx.path_params = std::move(params);
    ctx.query = target.value().query;
    return route.handler(ctx);
  }
  if (path_known)
    return Response::from_error(make_error(Errc::not_found, "method not allowed on this resource"));
  return Response::from_error(
      make_error(Errc::not_found, "no route for " + target.value().path()));
}

Response serve(const Router& router, const Result<Request>& request) {
  if (!request.ok()) return Response::from_error(request.error());
  // In-process the adopted context is the caller's own, so adopting it
  // is a no-op; across a socket it restores the caller's parent span and
  // sim clock. An absent or invalid header adopts nothing.
  telemetry::trace::Context ctx;
  const auto trace_header = request.value().headers.find(telemetry::trace::kContextHeader);
  if (trace_header != request.value().headers.end()) {
    ctx = telemetry::trace::parse_context(trace_header->second);
  }
  const telemetry::trace::ContextScope trace_scope(ctx);
  return router.dispatch(request.value());
}

}  // namespace slices::net
