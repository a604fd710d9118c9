#pragma once
// HTTP/1.1 message model and wire codec.
//
// The paper's controllers expose REST APIs. Every RestBus call (the
// federation broker's calls to its edges, a controller's /metrics read
// by a dashboard or bench) is encoded to real HTTP/1.1 bytes and parsed
// back, in-process or across a socket alike, and HttpServer reads the
// same bytes from outside the process. The orchestrator itself uses the
// bus only to see which domains are registered for /healthz; it
// configures and reads the domain controllers through their typed APIs.

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.hpp"

namespace slices::net {

enum class Method { get, post, put, del, patch };

[[nodiscard]] constexpr std::string_view to_string(Method m) noexcept {
  switch (m) {
    case Method::get: return "GET";
    case Method::post: return "POST";
    case Method::put: return "PUT";
    case Method::del: return "DELETE";
    case Method::patch: return "PATCH";
  }
  return "?";
}

/// Parse an HTTP method token; nullopt for unsupported methods.
[[nodiscard]] std::optional<Method> parse_method(std::string_view token) noexcept;

/// Common status codes used by the controller APIs.
enum class Status : int {
  ok = 200,
  created = 201,
  no_content = 204,
  bad_request = 400,
  not_found = 404,
  conflict = 409,
  unprocessable = 422,
  too_many_requests = 429,
  internal_error = 500,
  service_unavailable = 503,
};

[[nodiscard]] std::string_view reason_phrase(Status s) noexcept;

/// Map a domain error onto the HTTP status a controller returns.
[[nodiscard]] Status status_from_errc(Errc code) noexcept;
/// Inverse mapping used by the client side.
[[nodiscard]] Errc errc_from_status(Status s) noexcept;

/// Case-insensitive header map (HTTP field names are case-insensitive).
struct CaseInsensitiveLess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept;
};
using Headers = std::map<std::string, std::string, CaseInsensitiveLess>;

/// An HTTP request: method, origin-form target (path + optional query),
/// headers and body.
struct Request {
  Method method = Method::get;
  std::string target = "/";
  Headers headers;
  std::string body;

  /// Serialize to HTTP/1.1 wire format (adds Content-Length).
  [[nodiscard]] std::string encode() const;
};

/// An HTTP response.
struct Response {
  Status status = Status::ok;
  Headers headers;
  std::string body;

  [[nodiscard]] std::string encode() const;

  /// Build a JSON response with Content-Type set.
  [[nodiscard]] static Response json(Status status, std::string body_json);
  /// Build an error response with a JSON problem body.
  [[nodiscard]] static Response from_error(const Error& e);
};

/// The body length a message head announces: its Content-Length field
/// (name matched case-insensitively; the last one wins, as in the parsed
/// Headers), 0 when it has none. `head` is the message up to, not
/// including, the blank line. Errors: protocol_error (a value that is
/// not a whole decimal).
[[nodiscard]] Result<std::size_t> content_length(std::string_view head);

/// Parse one complete request from wire bytes. Requires the full message
/// to be present (the bus delivers whole messages); enforces
/// Content-Length consistency and rejects malformed start lines.
[[nodiscard]] Result<Request> parse_request(std::string_view wire);

/// Parse one complete response from wire bytes.
[[nodiscard]] Result<Response> parse_response(std::string_view wire);

}  // namespace slices::net
