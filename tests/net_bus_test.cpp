// Unit tests for the REST bus with in-process services.

#include <gtest/gtest.h>

#include <memory>

#include "net/rest_bus.hpp"

namespace slices::net {
namespace {

std::shared_ptr<Router> echo_service() {
  auto router = std::make_shared<Router>();
  router->add(Method::post, "/echo", [](const RouteContext& ctx) {
    return Response::json(Status::ok, ctx.request->body);
  });
  router->add(Method::get, "/fail", [](const RouteContext&) {
    return Response::from_error(make_error(Errc::insufficient_capacity, "full"));
  });
  router->add(Method::get, "/value", [](const RouteContext&) {
    return Response::json(Status::ok, R"({"v":41})");
  });
  return router;
}

TEST(RestBus, UnknownServiceIsUnavailable) {
  RestBus bus;
  Request req;
  const Result<Response> resp = bus.call("ghost", req);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.error().code, Errc::unavailable);
}

TEST(RestBus, RegisterAndCallRoundTripsThroughWire) {
  RestBus bus;
  bus.register_service("svc", echo_service());
  ASSERT_TRUE(bus.has_service("svc"));

  Request req;
  req.method = Method::post;
  req.target = "/echo";
  req.body = R"({"hello":"world"})";
  const Result<Response> resp = bus.call("svc", req);
  ASSERT_TRUE(resp.ok()) << resp.error().message;
  EXPECT_EQ(resp.value().status, Status::ok);
  EXPECT_EQ(resp.value().body, R"({"hello":"world"})");
}

TEST(RestBus, UnregisterRemovesService) {
  RestBus bus;
  bus.register_service("svc", echo_service());
  bus.unregister_service("svc");
  EXPECT_FALSE(bus.has_service("svc"));
  Request req;
  EXPECT_FALSE(bus.call("svc", req).ok());
}

TEST(RestBus, CallJsonParsesSuccessBody) {
  RestBus bus;
  bus.register_service("svc", echo_service());
  const Result<json::Value> v = bus.get_json("svc", "/value");
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(v.value().find("v")->as_int(), 41);
}

TEST(RestBus, CallJsonMapsHttpErrorsToErrc) {
  RestBus bus;
  bus.register_service("svc", echo_service());
  const Result<json::Value> v = bus.get_json("svc", "/fail");
  ASSERT_FALSE(v.ok());
  // insufficient_capacity travels as 409 and comes back as conflict.
  EXPECT_EQ(v.error().code, Errc::conflict);
  EXPECT_NE(v.error().message.find("409"), std::string::npos);
}

TEST(RestBus, CallJsonSendsBodyWithContentType) {
  RestBus bus;
  auto router = std::make_shared<Router>();
  router->add(Method::post, "/check", [](const RouteContext& ctx) {
    const bool has_type = ctx.request->headers.contains("Content-Type");
    return Response::json(Status::ok, has_type ? "true" : "false");
  });
  bus.register_service("svc", router);

  json::Value body;
  body["x"] = 1;
  const Result<json::Value> v = bus.call_json("svc", Method::post, "/check", body);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().as_bool(), true);
}

TEST(RestBus, StatsCountTrafficPerService) {
  RestBus bus;
  bus.register_service("svc", echo_service());

  Request ok_req;
  ok_req.method = Method::post;
  ok_req.target = "/echo";
  ok_req.body = "{}";
  (void)bus.call("svc", ok_req);
  (void)bus.call("svc", ok_req);
  Request bad_req;
  bad_req.method = Method::get;
  bad_req.target = "/fail";
  (void)bus.call("svc", bad_req);

  const BusStats stats = bus.stats().at("svc");
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.responses_ok, 2u);
  EXPECT_EQ(stats.responses_error, 1u);
  EXPECT_GT(stats.bytes_tx, 0u);
  EXPECT_GT(stats.bytes_rx, 0u);
}

TEST(RestBus, EmptyResponseBodyBecomesJsonNull) {
  RestBus bus;
  auto router = std::make_shared<Router>();
  router->add(Method::del, "/thing", [](const RouteContext&) {
    Response resp;
    resp.status = Status::no_content;
    return resp;
  });
  bus.register_service("svc", router);
  const Result<json::Value> v = bus.call_json("svc", Method::del, "/thing", json::Value(nullptr));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v.value().is_null());
}

}  // namespace
}  // namespace slices::net
