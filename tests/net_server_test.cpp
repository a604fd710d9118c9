// Tests for the real-socket HTTP server and client (loopback).

#include <gtest/gtest.h>

#include <poll.h>
#include <pthread.h>

#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include "core/testbed.hpp"
#include "json/value.hpp"
#include "net/http_server.hpp"
#include "net/rest_bus.hpp"
#include "telemetry/trace.hpp"

namespace slices::net {
namespace {

std::shared_ptr<Router> demo_router() {
  auto router = std::make_shared<Router>();
  router->add(Method::get, "/ping", [](const RouteContext&) {
    return Response::json(Status::ok, "\"pong\"");
  });
  router->add(Method::post, "/echo", [](const RouteContext& ctx) {
    return Response::json(Status::ok, ctx.request->body);
  });
  router->add(Method::get, "/things/{id}", [](const RouteContext& ctx) {
    return Response::json(Status::ok, "\"thing-" + ctx.param("id").value() + "\"");
  });
  return router;
}

/// Serves `router` on a background thread until destroyed.
struct ServerFixture {
  explicit ServerFixture(std::shared_ptr<Router> router = demo_router()) {
    Result<std::unique_ptr<HttpServer>> bound = HttpServer::bind(std::move(router), 0);
    EXPECT_TRUE(bound.ok()) << bound.error().message;
    server = std::move(bound).value();
    port = server->port();
    thread = std::thread([this] { server->run(); });
  }
  ~ServerFixture() {
    server->stop();
    if (thread.joinable()) thread.join();
  }

  std::unique_ptr<HttpServer> server;
  std::uint16_t port = 0;
  std::thread thread;
};

/// Everything the server sends until it closes the connection.
std::string read_to_eof(TcpConnection& conn) {
  std::string wire;
  char buffer[4096];
  while (true) {
    const Result<std::size_t> n = conn.receive(buffer, sizeof buffer);
    if (!n.ok() || n.value() == 0) return wire;
    wire.append(buffer, n.value());
  }
}

Request get(std::string target) {
  Request req;
  req.method = Method::get;
  req.target = std::move(target);
  return req;
}

TEST(HttpServer, BindsEphemeralPort) {
  Result<std::unique_ptr<HttpServer>> server = HttpServer::bind(demo_router(), 0);
  ASSERT_TRUE(server.ok()) << server.error().message;
  EXPECT_GT(server.value()->port(), 0);
}

TEST(HttpServer, GetRoundTripOverRealSockets) {
  ServerFixture fixture;
  const Result<Response> resp = http_request(fixture.port, get("/ping"));
  ASSERT_TRUE(resp.ok()) << resp.error().message;
  EXPECT_EQ(resp.value().status, Status::ok);
  EXPECT_EQ(resp.value().body, "\"pong\"");
  EXPECT_EQ(resp.value().headers.at("Connection"), "close");
}

TEST(HttpServer, PostBodyRoundTrip) {
  ServerFixture fixture;
  Request req;
  req.method = Method::post;
  req.target = "/echo";
  req.body = R"({"rate_mbps":25.5,"name":"slice"})";
  const Result<Response> resp = http_request(fixture.port, req);
  ASSERT_TRUE(resp.ok()) << resp.error().message;
  EXPECT_EQ(resp.value().body, req.body);
}

TEST(HttpServer, LargeBodyRoundTrip) {
  ServerFixture fixture;
  Request req;
  req.method = Method::post;
  req.target = "/echo";
  req.body.assign(512 * 1024, 'x');  // spans many TCP segments
  const Result<Response> resp = http_request(fixture.port, req);
  ASSERT_TRUE(resp.ok()) << resp.error().message;
  EXPECT_EQ(resp.value().body.size(), req.body.size());
}

TEST(HttpServer, PathParamsWorkOverTheWire) {
  ServerFixture fixture;
  const Result<Response> resp = http_request(fixture.port, get("/things/42"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().body, "\"thing-42\"");
}

TEST(HttpServer, UnknownRouteIs404) {
  ServerFixture fixture;
  const Result<Response> resp = http_request(fixture.port, get("/nope"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, Status::not_found);
}

TEST(HttpServer, MalformedRequestGets400) {
  ServerFixture fixture;
  Result<TcpConnection> conn = connect_loopback(fixture.port);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.value().send_all("NONSENSE\r\n\r\n").ok());
  // No half-close: the server answers and closes on its own.
  const Result<Response> resp = parse_response(read_to_eof(conn.value()));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, Status::bad_request);
  EXPECT_EQ(resp.value().headers.at("Connection"), "close");
}

TEST(HttpServer, SequentialConnections) {
  ServerFixture fixture;
  for (int i = 0; i < 5; ++i) {
    const Result<Response> resp = http_request(fixture.port, get("/ping"));
    ASSERT_TRUE(resp.ok()) << "iteration " << i << ": " << resp.error().message;
    EXPECT_EQ(resp.value().body, "\"pong\"");
  }
  EXPECT_EQ(fixture.server->connections_served(), 5u);
}

TEST(HttpServer, StopUnblocksRun) {
  Result<std::unique_ptr<HttpServer>> bound = HttpServer::bind(demo_router(), 0);
  ASSERT_TRUE(bound.ok());
  HttpServer& server = *bound.value();
  std::thread runner([&server] { server.run(); });
  // Serve one real request, then stop.
  const Result<Response> resp = http_request(server.port(), get("/ping"));
  ASSERT_TRUE(resp.ok());
  server.stop();
  runner.join();
  EXPECT_GE(server.connections_served(), 1u);
}

// --- framing on kept-alive connections --------------------------------------------

/// A raw client connection that reads responses through the framer.
struct RawClient {
  explicit RawClient(std::uint16_t port) {
    Result<TcpConnection> connected = connect_loopback(port);
    EXPECT_TRUE(connected.ok());
    if (connected.ok()) conn = std::move(connected).value();
  }
  Result<Response> read() {
    std::string wire;
    if (Result<void> got = framer.read(conn, wire); !got.ok()) return got.error();
    return parse_response(wire);
  }

  TcpConnection conn;
  HttpFramer framer;
};

// --- one loop, several listeners ---------------------------------------------------

/// A router whose /who names it.
std::shared_ptr<Router> named_router(const std::string& name) {
  auto router = std::make_shared<Router>();
  router->add(Method::get, "/who", [name](const RouteContext&) {
    return Response::json(Status::ok, "\"" + name + "\"");
  });
  return router;
}

TEST(HttpServer, OneLoopServesEachRouterOnItsOwnPort) {
  EXPECT_FALSE(HttpServer::bind_each({}).ok());
  Result<std::unique_ptr<HttpServer>> bound =
      HttpServer::bind_each({named_router("a"), named_router("b")});
  ASSERT_TRUE(bound.ok()) << bound.error().message;
  HttpServer& server = *bound.value();
  const std::uint16_t ports[] = {server.port(0), server.port(1)};
  EXPECT_EQ(server.port(), ports[0]);
  EXPECT_NE(ports[0], ports[1]);
  std::thread serving([&server] { server.run(); });

  // Write to both ports before reading either: the one loop answers
  // each connection from its own listener's router.
  RawClient a(ports[0]);
  RawClient b(ports[1]);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(b.conn.send_all(get("/who").encode()).ok());
    ASSERT_TRUE(a.conn.send_all(get("/who").encode()).ok());
    const Result<Response> from_a = a.read();
    const Result<Response> from_b = b.read();
    ASSERT_TRUE(from_a.ok()) << from_a.error().message;
    ASSERT_TRUE(from_b.ok()) << from_b.error().message;
    EXPECT_EQ(from_a.value().body, "\"a\"");
    EXPECT_EQ(from_b.value().body, "\"b\"");
  }
  EXPECT_EQ(server.connections_served(), 2u);

  // stop() wakes the loop although both clients sit idle, and both
  // ports refuse new connections.
  server.stop();
  serving.join();
  for (const std::uint16_t port : ports) {
    EXPECT_FALSE(connect_loopback(port).ok()) << port;
  }
  EXPECT_FALSE(a.read().ok());
  EXPECT_FALSE(b.read().ok());
}

TEST(HttpServerKeepAlive, OddCaseContentLengthFramesOnAnOpenConnection) {
  ServerFixture fixture;
  RawClient client(fixture.port);
  // The body is read by its length, not to EOF: the connection stays
  // open, so reading to EOF would hang.
  ASSERT_TRUE(client.conn.send_all("POST /echo HTTP/1.1\r\nCONTENT-LENGTH: 5\r\n\r\nhello").ok());
  const Result<Response> first = client.read();
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(first.value().status, Status::ok);
  EXPECT_EQ(first.value().body, "hello");
  EXPECT_FALSE(first.value().headers.contains("Connection"));

  ASSERT_TRUE(client.conn.send_all("POST /echo HTTP/1.1\r\ncontent-LENGTH:  2 \r\n\r\nhi").ok());
  const Result<Response> second = client.read();
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_EQ(second.value().body, "hi");
  EXPECT_EQ(fixture.server->connections_served(), 1u);
}

TEST(HttpServerKeepAlive, PipelinedRequestsInOneSendAreAnsweredInOrder) {
  ServerFixture fixture;
  RawClient client(fixture.port);
  Request echo;
  echo.method = Method::post;
  echo.target = "/echo";
  echo.body = "\"first\"";
  std::string both = echo.encode();
  both += get("/things/7").encode();
  ASSERT_TRUE(client.conn.send_all(both).ok());

  const Result<Response> first = client.read();
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(first.value().body, "\"first\"");
  const Result<Response> second = client.read();
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_EQ(second.value().body, "\"thing-7\"");
}

TEST(HttpServerKeepAlive, OversizedBodyGets400AndClose) {
  ServerFixture fixture;
  Result<TcpConnection> conn = connect_loopback(fixture.port);
  ASSERT_TRUE(conn.ok());
  // Refused from the head alone: no body byte is sent or read.
  ASSERT_TRUE(conn.value()
                  .send_all("POST /echo HTTP/1.1\r\nContent-Length: " +
                            std::to_string(kMaxRequestBytes) + "\r\n\r\n")
                  .ok());
  const Result<Response> resp = parse_response(read_to_eof(conn.value()));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, Status::bad_request);
  EXPECT_EQ(resp.value().headers.at("Connection"), "close");
}

TEST(HttpServerKeepAlive, BadContentLengthGets400AndClose) {
  ServerFixture fixture;
  for (const char* length : {"abc", "-1", "5x", "99999999999999999999999"}) {
    Result<TcpConnection> conn = connect_loopback(fixture.port);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.value()
                    .send_all(std::string("POST /echo HTTP/1.1\r\nContent-Length: ") + length +
                              "\r\n\r\n")
                    .ok());
    const Result<Response> resp = parse_response(read_to_eof(conn.value()));
    ASSERT_TRUE(resp.ok()) << length;
    EXPECT_EQ(resp.value().status, Status::bad_request) << length;
  }
}

TEST(HttpServerKeepAlive, Http10AndConnectionCloseCloseAfterTheAnswer) {
  ServerFixture fixture;
  for (const char* request : {"GET /ping HTTP/1.0\r\n\r\n",
                              "GET /ping HTTP/1.1\r\nconnection: Close\r\n\r\n"}) {
    Result<TcpConnection> conn = connect_loopback(fixture.port);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.value().send_all(request).ok());
    const Result<Response> resp = parse_response(read_to_eof(conn.value()));
    ASSERT_TRUE(resp.ok()) << request;
    EXPECT_EQ(resp.value().body, "\"pong\"");
    EXPECT_EQ(resp.value().headers.at("Connection"), "close");
  }
}

TEST(HttpServerKeepAlive, PeerClosingMidRequestGets400) {
  ServerFixture fixture;
  Result<TcpConnection> conn = connect_loopback(fixture.port);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.value().send_all("POST /echo HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").ok());
  conn.value().shutdown_write();
  const Result<Response> resp = parse_response(read_to_eof(conn.value()));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, Status::bad_request);
}

HttpServer* g_signalled_server = nullptr;
void stop_signalled_server(int) { g_signalled_server->stop(); }

TEST(HttpServerKeepAlive, StopFromASignalHandlerEndsRun) {
  // The `scenario_runner edge` shutdown path: SIGTERM's handler calls
  // stop() on the thread that sits in run().
  Result<std::unique_ptr<HttpServer>> bound = HttpServer::bind(demo_router(), 0);
  ASSERT_TRUE(bound.ok());
  HttpServer& server = *bound.value();
  g_signalled_server = &server;
  struct sigaction action {};
  struct sigaction previous {};
  action.sa_handler = stop_signalled_server;
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  RawClient idle(server.port());  // an idle kept-alive peer
  const pthread_t serving_thread = ::pthread_self();
  std::thread signaller([&server, serving_thread] {
    while (server.connections_served() < 1) std::this_thread::yield();
    ::pthread_kill(serving_thread, SIGUSR1);
  });
  EXPECT_EQ(server.run(), 1u);
  signaller.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  g_signalled_server = nullptr;
}

TEST(HttpServerKeepAlive, RequestAndEofSentBeforeStopAreAnsweredBeforeRunReturns) {
  // A peer that sends a whole request and half-closes just before
  // stop() (a federation bus closing its connections on shutdown) is
  // answered whichever of the two events run()'s poll sees first.
  // Rounds repeat the race.
  for (int round = 0; round < 50; ++round) {
    Result<std::unique_ptr<HttpServer>> bound = HttpServer::bind(demo_router(), 0);
    ASSERT_TRUE(bound.ok());
    HttpServer& server = *bound.value();
    std::thread serving([&server] { server.run(); });
    RawClient client(server.port());
    // One answered exchange first, so the connection is accepted.
    ASSERT_TRUE(client.conn.send_all(get("/ping").encode()).ok());
    ASSERT_TRUE(client.read().ok());

    ASSERT_TRUE(client.conn.send_all(get("/things/" + std::to_string(round)).encode()).ok());
    client.conn.shutdown_write();
    server.stop();
    serving.join();
    // run() has returned and closed the connection: the answer is
    // readable only if it was sent before.
    const Result<Response> resp = client.read();
    ASSERT_TRUE(resp.ok()) << "round " << round << ": " << resp.error().message;
    EXPECT_EQ(resp.value().body, "\"thing-" + std::to_string(round) + "\"");
  }
}

// --- the RestBus over kept-alive connections --------------------------------------

TEST(RestBusKeepAlive, ManyCallsCostOneConnection) {
  ServerFixture fixture;
  RestBus bus;
  bus.register_remote("demo", fixture.port);
  for (int i = 0; i < 20; ++i) {
    const Result<json::Value> doc = bus.get_json("demo", "/ping");
    ASSERT_TRUE(doc.ok()) << "call " << i << ": " << doc.error().message;
    EXPECT_EQ(doc.value().as_string(), "pong");
  }
  EXPECT_EQ(fixture.server->connections_served(), 1u);
  EXPECT_EQ(bus.stats().at("demo").responses_ok, 20u);
}

TEST(RestBusKeepAlive, StopReturnsWhileAClientHoldsAnIdleConnection) {
  Result<std::unique_ptr<HttpServer>> bound = HttpServer::bind(demo_router(), 0);
  ASSERT_TRUE(bound.ok());
  HttpServer& server = *bound.value();
  std::thread serving([&server] { server.run(); });

  RestBus bus;
  bus.register_remote("demo", server.port());
  ASSERT_TRUE(bus.get_json("demo", "/ping").ok());
  RawClient idle(server.port());  // connected, never sends
  while (server.connections_served() < 2) std::this_thread::yield();  // accepted
  // The bus connection is open and idle too; stop() must not wait for
  // either peer.
  server.stop();
  serving.join();
  EXPECT_EQ(server.connections_served(), 2u);

  // The server closed both connections on its way out.
  const Result<Response> closed = idle.read();
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.error().code, Errc::unavailable);
}

TEST(RestBusKeepAlive, ServerRestartFailsOneCallThenReconnects) {
  Result<std::unique_ptr<HttpServer>> first = HttpServer::bind(demo_router(), 0);
  ASSERT_TRUE(first.ok());
  const std::uint16_t port = first.value()->port();
  std::thread serving_first([&first] { first.value()->run(); });

  RestBus bus;
  bus.register_remote("demo", port);
  ASSERT_TRUE(bus.get_json("demo", "/ping").ok());

  first.value()->stop();
  serving_first.join();
  first.value().reset();

  Result<std::unique_ptr<HttpServer>> second = HttpServer::bind(demo_router(), port);
  ASSERT_TRUE(second.ok()) << second.error().message;
  std::thread serving_second([&second] { second.value()->run(); });

  // The kept connection died with the first server: this call fails as
  // unavailable and is not retried.
  const Result<json::Value> stale = bus.get_json("demo", "/ping");
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error().code, Errc::unavailable);
  // The next call connects to the new server.
  const Result<json::Value> fresh = bus.get_json("demo", "/ping");
  ASSERT_TRUE(fresh.ok()) << fresh.error().message;
  EXPECT_EQ(second.value()->connections_served(), 1u);
  const BusStats stats = bus.stats().at("demo");
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.responses_ok, 2u);
  EXPECT_EQ(stats.responses_error, 1u);

  second.value()->stop();
  serving_second.join();
}

TEST(RestBusKeepAlive, TwoClientsInterleavingAreBothServed) {
  ServerFixture fixture;
  RestBus a;
  RestBus b;
  a.register_remote("demo", fixture.port);
  b.register_remote("demo", fixture.port);
  for (int i = 0; i < 10; ++i) {
    const Result<json::Value> from_a = a.get_json("demo", "/things/" + std::to_string(i));
    ASSERT_TRUE(from_a.ok()) << from_a.error().message;
    EXPECT_EQ(from_a.value().as_string(), "thing-" + std::to_string(i));
    const Result<json::Value> from_b = b.get_json("demo", "/ping");
    ASSERT_TRUE(from_b.ok()) << from_b.error().message;
  }
  EXPECT_EQ(fixture.server->connections_served(), 2u);
}

TEST(RestBusKeepAlive, UnregisterServiceClosesTheConnection) {
  // A hand-driven server side, so the test can watch the socket itself.
  Result<TcpListener> listener = TcpListener::bind_loopback(0);
  ASSERT_TRUE(listener.ok());
  TcpConnection accepted;
  std::thread answer([&] {
    Result<TcpConnection> conn = listener.value().accept_one();
    if (!conn.ok()) return;
    accepted = std::move(conn).value();
    HttpFramer framer;
    std::string wire;
    if (framer.read(accepted, wire).ok()) {
      (void)accepted.send_all(Response::json(Status::ok, "\"pong\"").encode());
    }
  });

  RestBus bus;
  bus.register_remote("demo", listener.value().port());
  const bool answered = bus.get_json("demo", "/ping").ok();
  answer.join();
  ASSERT_TRUE(answered);
  ASSERT_TRUE(accepted.valid());

  bus.unregister_service("demo");
  pollfd watch{accepted.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&watch, 1, 5000), 1) << "the bus kept the connection open";
  char byte = 0;
  const Result<std::size_t> n = accepted.receive(&byte, 1);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);  // EOF: the bus closed its end
}

// --- one request path for both transports ----------------------------------------

TEST(RestBusTransports, InProcessAndSocketGiveTheSameAnswers) {
  auto router = demo_router();
  router->add(Method::get, "/poison", [](const RouteContext&) {
    Response resp = Response::json(Status::ok, "{}");
    resp.headers.insert_or_assign("X-Poison", "a\r\nb");  // cannot cross the wire
    return resp;
  });
  ServerFixture fixture(router);
  RestBus local;
  local.register_service("svc", router);
  RestBus remote;
  remote.register_remote("svc", fixture.port);

  // Well-formed calls: same answers, same counters.
  Request echo;
  echo.method = Method::post;
  echo.target = "/echo";
  echo.body = R"({"k":123})";
  for (const Request& req : {echo, get("/nope"), echo}) {
    const Result<Response> in_process = local.call("svc", req);
    const Result<Response> over_socket = remote.call("svc", req);
    ASSERT_TRUE(in_process.ok()) << in_process.error().message;
    ASSERT_TRUE(over_socket.ok()) << over_socket.error().message;
    EXPECT_EQ(in_process.value().status, over_socket.value().status) << req.target;
    EXPECT_EQ(in_process.value().body, over_socket.value().body) << req.target;
    EXPECT_EQ(in_process.value().headers, over_socket.value().headers) << req.target;
  }
  const BusStats local_stats = local.stats().at("svc");
  const BusStats remote_stats = remote.stats().at("svc");
  EXPECT_EQ(local_stats.requests, 3u);
  EXPECT_EQ(local_stats.responses_ok, 2u);
  EXPECT_EQ(local_stats.responses_error, 1u);
  EXPECT_EQ(local_stats.requests, remote_stats.requests);
  EXPECT_EQ(local_stats.responses_ok, remote_stats.responses_ok);
  EXPECT_EQ(local_stats.responses_error, remote_stats.responses_error);
  EXPECT_EQ(local_stats.bytes_tx, remote_stats.bytes_tx);
  EXPECT_EQ(local_stats.bytes_rx, remote_stats.bytes_rx);

  // A response header holding CRLF fails to parse on every call, on
  // both transports.
  for (int i = 0; i < 3; ++i) {
    const Result<Response> in_process = local.call("svc", get("/poison"));
    const Result<Response> over_socket = remote.call("svc", get("/poison"));
    ASSERT_FALSE(in_process.ok()) << "in-process call " << i;
    ASSERT_FALSE(over_socket.ok()) << "socket call " << i;
    EXPECT_EQ(in_process.error().code, Errc::protocol_error) << i;
    EXPECT_EQ(over_socket.error().code, Errc::protocol_error) << i;
  }

  // A request header holding CRLF does not parse on the serving side:
  // both transports answer it 400 with the same problem body.
  Request bad = get("/ping");
  bad.headers.insert_or_assign("X-Bad", "a\r\nb");
  const Result<Response> in_process = local.call("svc", bad);
  const Result<Response> over_socket = remote.call("svc", bad);
  ASSERT_TRUE(in_process.ok()) << in_process.error().message;
  ASSERT_TRUE(over_socket.ok()) << over_socket.error().message;
  EXPECT_EQ(in_process.value().status, Status::bad_request);
  EXPECT_EQ(in_process.value().status, over_socket.value().status);
  EXPECT_EQ(in_process.value().body, over_socket.value().body);

  // The socket transport reconnects after the server closed on the bad
  // request, and both still agree.
  const Result<Response> local_ping = local.call("svc", get("/ping"));
  const Result<Response> remote_ping = remote.call("svc", get("/ping"));
  ASSERT_TRUE(local_ping.ok());
  ASSERT_TRUE(remote_ping.ok()) << remote_ping.error().message;
  EXPECT_EQ(local_ping.value().body, remote_ping.value().body);
}

// --- one round over several services ---------------------------------------------

TEST(RestBusRound, CallEachAnswersInOrderOverBothTransports) {
  Result<std::unique_ptr<HttpServer>> bound =
      HttpServer::bind_each({named_router("a"), named_router("b")});
  ASSERT_TRUE(bound.ok());
  HttpServer& server = *bound.value();
  std::thread serving([&server] { server.run(); });

  RestBus bus;
  bus.register_remote("a", server.port(0));
  bus.register_service("local", named_router("local"));
  bus.register_remote("b", server.port(1));
  const std::vector<std::string> names = {"b", "local", "missing", "a"};
  for (int round = 0; round < 2; ++round) {
    const std::vector<Result<json::Value>> replies =
        bus.call_json_each(names, Method::get, "/who", json::Value(nullptr));
    ASSERT_EQ(replies.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == "missing") {
        ASSERT_FALSE(replies[i].ok());
        EXPECT_EQ(replies[i].error().code, Errc::unavailable);
        continue;
      }
      ASSERT_TRUE(replies[i].ok()) << names[i] << ": " << replies[i].error().message;
      EXPECT_EQ(replies[i].value().as_string(), names[i]);
    }
  }
  for (const char* name : {"a", "b", "local"}) {
    const BusStats stats = bus.stats().at(name);
    EXPECT_EQ(stats.requests, 2u) << name;
    EXPECT_EQ(stats.responses_ok, 2u) << name;
  }
  EXPECT_EQ(bus.stats().at("a").bytes_rx, bus.stats().at("b").bytes_rx);
  EXPECT_EQ(server.connections_served(), 2u);

  bus.close_connections();
  server.stop();
  serving.join();
}

TEST(RestBusRound, CallEachWritesEveryRequestBeforeReadingAnyReply) {
  // A hand-driven server that answers neither connection until it holds
  // both requests: a bus that read a reply before writing the second
  // request would wait here for the five-second poll.
  Result<TcpListener> first = TcpListener::bind_loopback(0);
  Result<TcpListener> second = TcpListener::bind_loopback(0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  std::thread answer([&] {
    Result<TcpConnection> a = first.value().accept_one();
    Result<TcpConnection> b = second.value().accept_one();
    if (!a.ok() || !b.ok()) return;
    HttpFramer framer_a;
    HttpFramer framer_b;
    std::string wire;
    if (!framer_a.read(a.value(), wire).ok()) return;
    pollfd watch{b.value().fd(), POLLIN, 0};
    const bool both = ::poll(&watch, 1, 5000) == 1 && framer_b.read(b.value(), wire).ok();
    const std::string body = both ? "\"both\"" : "\"one\"";
    (void)a.value().send_all(Response::json(Status::ok, body).encode());
    if (both) (void)b.value().send_all(Response::json(Status::ok, body).encode());
  });

  RestBus bus;
  bus.register_remote("first", first.value().port());
  bus.register_remote("second", second.value().port());
  const std::vector<std::string> names = {"first", "second"};
  const std::vector<Result<json::Value>> replies =
      bus.call_json_each(names, Method::get, "/ping", json::Value(nullptr));
  answer.join();
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_TRUE(replies[0].ok()) << replies[0].error().message;
  EXPECT_EQ(replies[0].value().as_string(), "both");
  ASSERT_TRUE(replies[1].ok()) << replies[1].error().message;
  EXPECT_EQ(replies[1].value().as_string(), "both");
}

// --- orchestrator observability endpoints over real sockets ----------------------

/// Orchestrator testbed served over loopback.
struct OrchestratorServerFixture {
  OrchestratorServerFixture()
      : tb(core::make_testbed(11)), serving(tb->orchestrator->make_router()) {}

  std::unique_ptr<core::Testbed> tb;
  ServerFixture serving;
  std::uint16_t port = serving.port;
};

TEST(HttpServer, HealthzReportsLivenessOverTheWire) {
  OrchestratorServerFixture fixture;
  fixture.tb->simulator.run_for(Duration::seconds(30.0));
  const Result<Response> resp = http_request(fixture.port, get("/healthz"));
  ASSERT_TRUE(resp.ok()) << resp.error().message;
  EXPECT_EQ(resp.value().status, Status::ok);

  const Result<json::Value> doc = json::parse(resp.value().body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().find("status")->as_string(), "ok");
  const json::Value* components = doc.value().find("components");
  ASSERT_NE(components, nullptr);
  EXPECT_TRUE(components->find("ran")->as_bool());
  EXPECT_TRUE(components->find("transport")->as_bool());
  EXPECT_TRUE(components->find("cloud")->as_bool());
  EXPECT_FALSE(doc.value().find("last_epoch")->find("stale")->as_bool());
  ASSERT_NE(doc.value().find("trace"), nullptr);
}

TEST(HttpServer, TraceDumpAndClearOverTheWire) {
  telemetry::trace::set_enabled(true);
  telemetry::trace::set_wall_clock(false);
  telemetry::trace::clear();

  OrchestratorServerFixture fixture;
  // Run past a couple of 15-minute monitoring periods so the control
  // thread records epoch spans.
  fixture.tb->simulator.run_for(Duration::minutes(35.0));
  ASSERT_GT(telemetry::trace::Tracer::instance().span_count(), 0u);

  // Dump with ?clear=1: returns the spans, then empties the buffer.
  const Result<Response> dump = http_request(fixture.port, get("/trace?clear=1"));
  ASSERT_TRUE(dump.ok()) << dump.error().message;
  EXPECT_EQ(dump.value().status, Status::ok);
  const Result<json::Value> doc = json::parse(dump.value().body);
  ASSERT_TRUE(doc.ok());
  const json::Value* events = doc.value().find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->as_array().empty());
  bool saw_epoch = false;
  for (const json::Value& event : events->as_array()) {
    if (event.find("name")->as_string() == "orch.serve_epoch") saw_epoch = true;
  }
  EXPECT_TRUE(saw_epoch);
  EXPECT_EQ(telemetry::trace::Tracer::instance().span_count(), 0u);

  // Plain dump after the clear: well-formed but empty.
  const Result<Response> empty = http_request(fixture.port, get("/trace"));
  ASSERT_TRUE(empty.ok());
  const Result<json::Value> empty_doc = json::parse(empty.value().body);
  ASSERT_TRUE(empty_doc.ok());
  EXPECT_TRUE(empty_doc.value().find("traceEvents")->as_array().empty());

  // DELETE reports how many spans it dropped (none left by now).
  Request del;
  del.method = Method::del;
  del.target = "/trace";
  const Result<Response> deleted = http_request(fixture.port, del);
  ASSERT_TRUE(deleted.ok());
  const Result<json::Value> del_doc = json::parse(deleted.value().body);
  ASSERT_TRUE(del_doc.ok());
  EXPECT_DOUBLE_EQ(del_doc.value().find("cleared_spans")->as_number(), 0.0);

  telemetry::trace::set_enabled(false);
  telemetry::trace::clear();
}

TEST(TcpListener, PortZeroGivesDistinctPorts) {
  Result<TcpListener> a = TcpListener::bind_loopback(0);
  Result<TcpListener> b = TcpListener::bind_loopback(0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().port(), b.value().port());
}

TEST(TcpConnection, ConnectToClosedPortFails) {
  // Bind then immediately close to get a (very likely) dead port.
  Result<TcpListener> probe = TcpListener::bind_loopback(0);
  ASSERT_TRUE(probe.ok());
  const std::uint16_t dead = probe.value().port();
  probe.value().close();
  const Result<TcpConnection> conn = connect_loopback(dead);
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.error().code, Errc::unavailable);
}

}  // namespace
}  // namespace slices::net
