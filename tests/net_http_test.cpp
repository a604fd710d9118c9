// Unit tests for the HTTP/1.1 message codec.

#include <gtest/gtest.h>

#include "net/http.hpp"

namespace slices::net {
namespace {

TEST(HttpMethod, ParseKnownMethods) {
  EXPECT_EQ(parse_method("GET"), Method::get);
  EXPECT_EQ(parse_method("POST"), Method::post);
  EXPECT_EQ(parse_method("PUT"), Method::put);
  EXPECT_EQ(parse_method("DELETE"), Method::del);
  EXPECT_EQ(parse_method("PATCH"), Method::patch);
  EXPECT_EQ(parse_method("BREW"), std::nullopt);
  EXPECT_EQ(parse_method("get"), std::nullopt);  // methods are case-sensitive
}

TEST(HttpRequest, EncodeProducesWireFormat) {
  Request req;
  req.method = Method::post;
  req.target = "/slices";
  req.headers.insert_or_assign("Content-Type", "application/json");
  req.body = R"({"x":1})";
  const std::string wire = req.encode();
  EXPECT_EQ(wire.substr(0, 25), "POST /slices HTTP/1.1\r\nCo");
  EXPECT_NE(wire.find("Content-Length: 7\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"x\":1}"), std::string::npos);
}

TEST(HttpRequest, RoundTrip) {
  Request req;
  req.method = Method::put;
  req.target = "/allocations/42?force=1";
  req.headers.insert_or_assign("X-Trace", "abc");
  req.body = "payload";
  const Result<Request> parsed = parse_request(req.encode());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().method, Method::put);
  EXPECT_EQ(parsed.value().target, "/allocations/42?force=1");
  EXPECT_EQ(parsed.value().body, "payload");
  EXPECT_EQ(parsed.value().headers.at("X-Trace"), "abc");
}

TEST(HttpRequest, HeadersAreCaseInsensitive) {
  const Result<Request> parsed =
      parse_request("GET / HTTP/1.1\r\ncontent-length: 0\r\nX-Thing: v\r\n\r\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().headers.find("x-thing")->second, "v");
  EXPECT_EQ(parsed.value().headers.find("X-THING")->second, "v");
}

TEST(HttpContentLength, ReadsTheFieldAsTheParserDoes) {
  // The framer sizes a message with content_length(); it must agree
  // with the Headers the parser builds: any letter case, padding
  // trimmed, the last field winning, 0 when absent.
  EXPECT_EQ(content_length("POST / HTTP/1.1\r\nCONTENT-LENGTH: 5").value(), 5u);
  EXPECT_EQ(content_length("POST / HTTP/1.1\r\nX: 1\r\ncontent-Length:\t 12 ").value(), 12u);
  EXPECT_EQ(content_length("POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-length: 4").value(),
            4u);
  EXPECT_EQ(content_length("GET / HTTP/1.1\r\nContent-Type: a").value(), 0u);
  EXPECT_EQ(content_length("Content-Length: 9").value(), 0u);  // a start line, not a field
  for (const char* bad : {"", "x", "-1", "1 2", "0x10", "99999999999999999999999"}) {
    const Result<std::size_t> length =
        content_length(std::string("PUT / HTTP/1.1\r\nContent-Length: ") + bad);
    ASSERT_FALSE(length.ok()) << bad;
    EXPECT_EQ(length.error().code, Errc::protocol_error);
  }
}

TEST(HttpRequest, EmptyBodyWithoutContentLength) {
  const Result<Request> parsed = parse_request("GET /x HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().body.empty());
}

class HttpRequestRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(HttpRequestRejects, MalformedRequests) {
  const Result<Request> parsed = parse_request(GetParam());
  ASSERT_FALSE(parsed.ok()) << "accepted: " << GetParam();
  EXPECT_EQ(parsed.error().code, Errc::protocol_error);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, HttpRequestRejects,
    ::testing::Values(
        "",                                           // empty
        "GET /x HTTP/1.1",                            // no header terminator
        "BREW /x HTTP/1.1\r\n\r\n",                   // unknown method
        "GET /x HTTP/2\r\n\r\n",                      // unsupported version
        "GET x HTTP/1.1\r\n\r\n",                     // not origin-form
        "GET  HTTP/1.1\r\n\r\n",                      // missing target
        "GET /x HTTP/1.1\r\nBadHeader\r\n\r\n",       // field without colon
        "GET /x HTTP/1.1\r\n: v\r\n\r\n",             // empty field name
        "GET /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nabc",    // short body
        "GET /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nabc",    // long body
        "GET /x HTTP/1.1\r\nContent-Length: x\r\n\r\n",       // bad length
        "GET /x HTTP/1.1\r\n\r\nbody"));              // body w/o length

TEST(HttpResponse, RoundTrip) {
  Response resp = Response::json(Status::created, R"({"id":9})");
  const Result<Response> parsed = parse_response(resp.encode());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().status, Status::created);
  EXPECT_EQ(parsed.value().body, R"({"id":9})");
  EXPECT_EQ(parsed.value().headers.at("Content-Type"), "application/json");
}

TEST(HttpResponse, FromErrorMapsStatusAndEscapes) {
  const Response resp =
      Response::from_error(make_error(Errc::insufficient_capacity, "only \"3\" left"));
  EXPECT_EQ(resp.status, Status::conflict);
  EXPECT_NE(resp.body.find("insufficient_capacity"), std::string::npos);
  EXPECT_NE(resp.body.find("\\\"3\\\""), std::string::npos);
}

TEST(HttpResponse, RejectsMalformedStatusLine) {
  EXPECT_FALSE(parse_response("NOPE 200 OK\r\n\r\n").ok());
  EXPECT_FALSE(parse_response("HTTP/1.1 9 X\r\n\r\n").ok());
  EXPECT_FALSE(parse_response("HTTP/1.1\r\n\r\n").ok());
}

TEST(HttpStatus, ErrcMappingIsConsistent) {
  // Round-trippable pairs: the client recovers the server-side category.
  for (const Errc code : {Errc::invalid_argument, Errc::not_found, Errc::conflict,
                          Errc::sla_unsatisfiable, Errc::unavailable}) {
    EXPECT_EQ(errc_from_status(status_from_errc(code)), code);
  }
  // Capacity shortage surfaces as conflict on the wire.
  EXPECT_EQ(status_from_errc(Errc::insufficient_capacity), Status::conflict);
  EXPECT_EQ(status_from_errc(Errc::internal), Status::internal_error);
}

TEST(HttpStatus, ReasonPhrases) {
  EXPECT_EQ(reason_phrase(Status::ok), "OK");
  EXPECT_EQ(reason_phrase(Status::not_found), "Not Found");
  EXPECT_EQ(reason_phrase(Status::service_unavailable), "Service Unavailable");
}

}  // namespace
}  // namespace slices::net
