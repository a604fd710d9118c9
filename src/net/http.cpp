#include "net/http.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace slices::net {
namespace {

constexpr std::string_view kCrlf = "\r\n";

char ascii_lower(char c) noexcept {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

Error protocol_error(std::string why) {
  return make_error(Errc::protocol_error, "http: " + std::move(why));
}

/// A Content-Length value: a whole decimal, nothing else.
Result<std::size_t> parse_length(std::string_view value) {
  std::size_t length = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), length);
  if (ec != std::errc{} || ptr != value.data() + value.size())
    return protocol_error("bad Content-Length");
  return length;
}

/// Shared head parsing: splits start line + header fields + body, checks
/// Content-Length. Returns the start line; fills headers/body.
Result<std::string_view> split_message(std::string_view wire, Headers& headers,
                                       std::string& body) {
  const std::size_t head_end = wire.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return protocol_error("missing header terminator");
  std::string_view head = wire.substr(0, head_end);
  std::string_view rest = wire.substr(head_end + 4);

  const std::size_t line_end = head.find(kCrlf);
  const std::string_view start_line = head.substr(0, line_end);
  std::string_view field_block =
      line_end == std::string_view::npos ? std::string_view{} : head.substr(line_end + 2);

  while (!field_block.empty()) {
    const std::size_t eol = field_block.find(kCrlf);
    const std::string_view line =
        eol == std::string_view::npos ? field_block : field_block.substr(0, eol);
    field_block = eol == std::string_view::npos ? std::string_view{} : field_block.substr(eol + 2);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return protocol_error("header field without ':'");
    const std::string_view name = trim(line.substr(0, colon));
    if (name.empty()) return protocol_error("empty header field name");
    headers.insert_or_assign(std::string(name), std::string(trim(line.substr(colon + 1))));
  }

  const auto it = headers.find("Content-Length");
  if (it != headers.end()) {
    const Result<std::size_t> length = parse_length(it->second);
    if (!length.ok()) return length.error();
    if (rest.size() != length.value()) return protocol_error("body length mismatch");
    body.assign(rest);
  } else if (!rest.empty()) {
    return protocol_error("body without Content-Length");
  }
  return start_line;
}

void encode_head(std::string& out, const Headers& headers, std::size_t body_size) {
  for (const auto& [name, value] : headers) {
    if (headers.key_comp()(name, "Content-Length") == false &&
        headers.key_comp()("Content-Length", name) == false) {
      continue;  // emitted canonically below
    }
    out += name;
    out += ": ";
    out += value;
    out += kCrlf;
  }
  out += "Content-Length: ";
  out += std::to_string(body_size);
  out += kCrlf;
  out += kCrlf;
}

}  // namespace

Result<std::size_t> content_length(std::string_view head) {
  constexpr std::string_view kField = "content-length";
  std::size_t length = 0;
  std::size_t line_end = head.find(kCrlf);  // skip the start line
  while (line_end != std::string_view::npos) {
    head.remove_prefix(line_end + 2);
    line_end = head.find(kCrlf);
    const std::string_view line = head.substr(0, line_end);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;  // parse_* rejects it
    const std::string_view name = trim(line.substr(0, colon));
    if (!std::equal(name.begin(), name.end(), kField.begin(), kField.end(),
                    [](char a, char b) { return ascii_lower(a) == b; }))
      continue;
    const Result<std::size_t> value = parse_length(trim(line.substr(colon + 1)));
    if (!value.ok()) return value.error();
    length = value.value();  // the last field wins, as in the parsed Headers
  }
  return length;
}

std::optional<Method> parse_method(std::string_view token) noexcept {
  if (token == "GET") return Method::get;
  if (token == "POST") return Method::post;
  if (token == "PUT") return Method::put;
  if (token == "DELETE") return Method::del;
  if (token == "PATCH") return Method::patch;
  return std::nullopt;
}

std::string_view reason_phrase(Status s) noexcept {
  switch (s) {
    case Status::ok: return "OK";
    case Status::created: return "Created";
    case Status::no_content: return "No Content";
    case Status::bad_request: return "Bad Request";
    case Status::not_found: return "Not Found";
    case Status::conflict: return "Conflict";
    case Status::unprocessable: return "Unprocessable Entity";
    case Status::too_many_requests: return "Too Many Requests";
    case Status::internal_error: return "Internal Server Error";
    case Status::service_unavailable: return "Service Unavailable";
  }
  return "Unknown";
}

Status status_from_errc(Errc code) noexcept {
  switch (code) {
    case Errc::invalid_argument: return Status::bad_request;
    case Errc::not_found: return Status::not_found;
    case Errc::conflict: return Status::conflict;
    case Errc::insufficient_capacity: return Status::conflict;
    case Errc::sla_unsatisfiable: return Status::unprocessable;
    case Errc::unavailable: return Status::service_unavailable;
    case Errc::protocol_error: return Status::bad_request;
    case Errc::timeout: return Status::service_unavailable;
    case Errc::internal: return Status::internal_error;
  }
  return Status::internal_error;
}

Errc errc_from_status(Status s) noexcept {
  switch (s) {
    case Status::bad_request: return Errc::invalid_argument;
    case Status::not_found: return Errc::not_found;
    case Status::conflict: return Errc::conflict;
    case Status::unprocessable: return Errc::sla_unsatisfiable;
    case Status::too_many_requests: return Errc::unavailable;
    case Status::service_unavailable: return Errc::unavailable;
    default: return Errc::internal;
  }
}

bool CaseInsensitiveLess::operator()(std::string_view a, std::string_view b) const noexcept {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [](char x, char y) { return ascii_lower(x) < ascii_lower(y); });
}

std::string Request::encode() const {
  std::string out;
  out += to_string(method);
  out += ' ';
  out += target;
  out += " HTTP/1.1\r\n";
  encode_head(out, headers, body.size());
  out += body;
  return out;
}

std::string Response::encode() const {
  std::string out;
  out += "HTTP/1.1 ";
  out += std::to_string(static_cast<int>(status));
  out += ' ';
  out += reason_phrase(status);
  out += kCrlf;
  encode_head(out, headers, body.size());
  out += body;
  return out;
}

Response Response::json(Status status, std::string body_json) {
  Response r;
  r.status = status;
  r.headers.insert_or_assign("Content-Type", "application/json");
  r.body = std::move(body_json);
  return r;
}

Response Response::from_error(const Error& e) {
  std::string body = "{\"error\":\"";
  body += to_string(e.code);
  body += "\",\"message\":\"";
  // Escape minimal set for a safe JSON string.
  for (const char c : e.message) {
    if (c == '"' || c == '\\') body.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) body.push_back(c);
  }
  body += "\"}";
  return json(status_from_errc(e.code), std::move(body));
}

Result<Request> parse_request(std::string_view wire) {
  Request req;
  Result<std::string_view> start = split_message(wire, req.headers, req.body);
  if (!start.ok()) return start.error();
  const std::string_view line = start.value();

  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1)
    return protocol_error("malformed request line");
  const std::optional<Method> m = parse_method(line.substr(0, sp1));
  if (!m) return protocol_error("unsupported method");
  req.method = *m;
  req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  if (req.target.empty() || req.target.front() != '/')
    return protocol_error("target must be origin-form");
  const std::string_view version = line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0")
    return protocol_error("unsupported HTTP version");
  return req;
}

Result<Response> parse_response(std::string_view wire) {
  Response resp;
  Result<std::string_view> start = split_message(wire, resp.headers, resp.body);
  if (!start.ok()) return start.error();
  const std::string_view line = start.value();

  if (line.substr(0, 5) != "HTTP/") return protocol_error("malformed status line");
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return protocol_error("malformed status line");
  const std::string_view code_sv = line.substr(sp1 + 1, 3);
  int code = 0;
  const auto [ptr, ec] = std::from_chars(code_sv.data(), code_sv.data() + code_sv.size(), code);
  if (ec != std::errc{} || code < 100 || code > 599) return protocol_error("bad status code");
  resp.status = static_cast<Status>(code);
  return resp;
}

}  // namespace slices::net
