#pragma once
// REST routing: maps (method, path pattern) to handlers. Patterns use
// "{name}" placeholders ("/slices/{id}/usage"); matched segments are
// handed to the handler as decoded path parameters.

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/http.hpp"
#include "net/url.hpp"

namespace slices::net {

/// Decoded request context passed to handlers.
struct RouteContext {
  const Request* request = nullptr;                 ///< Full original request.
  std::map<std::string, std::string> path_params;   ///< "{id}" -> "7"
  std::map<std::string, std::string> query;         ///< Query parameters.

  /// Fetch a path parameter; Errc::internal if the pattern lacked it
  /// (programming error surfaced as a 500 rather than UB).
  [[nodiscard]] Result<std::string> param(std::string_view name) const;
  /// Fetch a path parameter and parse it as a non-negative integer id.
  [[nodiscard]] Result<std::uint64_t> id_param(std::string_view name) const;
};

using Handler = std::function<Response(const RouteContext&)>;

/// A router owning an ordered list of routes. First match wins; routes
/// are typically registered most-specific first.
class Router {
 public:
  /// Register a handler for `method` + `pattern`.
  void add(Method method, std::string pattern, Handler handler);

  /// Dispatch a request: 404 on no route, 400 on malformed target.
  [[nodiscard]] Response dispatch(const Request& request) const;

  [[nodiscard]] std::size_t route_count() const noexcept { return routes_.size(); }

 private:
  struct Route {
    Method method;
    std::vector<std::string> pattern_segments;
    Handler handler;
  };

  static bool match(const Route& route, const std::vector<std::string>& segments,
                    std::map<std::string, std::string>& params);

  std::vector<Route> routes_;
};

/// The server side of one exchange, shared by HttpServer and the
/// RestBus's in-process transport: adopt the request's X-Slices-Trace
/// context (if any) so handler spans parent the caller's span, and
/// dispatch it. A request that failed to parse is answered from its
/// error (400 for a protocol_error).
[[nodiscard]] Response serve(const Router& router, const Result<Request>& request);

}  // namespace slices::net
