// Robustness property tests: the wire-facing parsers (JSON, HTTP
// request/response and the socket framer, URL targets, the trace
// context header) and the journal decoder must never crash and must
// return a typed error — not garbage — for arbitrary byte soup and for
// truncated/mutated valid documents. The federation bodies an edge or
// broker decodes from another process (fault, roamer ingress, advance,
// the mutating routes' t_us, a tick reply's next_event_us, metrics
// merge, region summary) must reject or skip numbers outside their
// integer range instead of casting them.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "federation/broker.hpp"
#include "federation/edge.hpp"
#include "federation/fabric.hpp"
#include "federation/runner.hpp"
#include "json/value.hpp"
#include "net/framer.hpp"
#include "net/http.hpp"
#include "net/http_server.hpp"
#include "net/router.hpp"
#include "net/rest_bus.hpp"
#include "net/url.hpp"
#include "scenario/scenario.hpp"
#include "store/journal.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace slices {
namespace {

std::string random_bytes(Rng& rng, std::size_t max_len) {
  const std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>(rng.uniform_int(0, 255));
  return out;
}

std::string random_printable(Rng& rng, std::size_t max_len) {
  static constexpr char kAlphabet[] =
      "{}[]\",:0123456789.eE+-truefalsnl \t\n\r\\/ufx";
  const std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  std::string out(len, '\0');
  for (char& c : out) {
    c = kAlphabet[static_cast<std::size_t>(rng.uniform_int(0, sizeof kAlphabet - 2))];
  }
  return out;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, JsonNeverCrashes) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    // Raw bytes and JSON-flavored soup both must parse or error cleanly.
    (void)json::parse(random_bytes(rng, 64));
    const Result<json::Value> r = json::parse(random_printable(rng, 64));
    if (r.ok()) {
      // Whatever parsed must serialize and re-parse to itself.
      const std::string text = json::serialize(r.value());
      const Result<json::Value> again = json::parse(text);
      ASSERT_TRUE(again.ok()) << text;
      EXPECT_EQ(json::serialize(again.value()), text);
    }
  }
}

TEST_P(ParserFuzz, HttpNeverCrashes) {
  Rng rng(GetParam() * 31 + 7);
  for (int i = 0; i < 2000; ++i) {
    (void)net::parse_request(random_bytes(rng, 96));
    (void)net::parse_response(random_bytes(rng, 96));
  }
}

TEST_P(ParserFuzz, TruncatedValidRequestsAlwaysError) {
  net::Request req;
  req.method = net::Method::post;
  req.target = "/slices/7?verbose=1";
  req.headers.insert_or_assign("Content-Type", "application/json");
  req.body = R"({"vertical":"ehealth","duration_hours":4})";
  const std::string wire = req.encode();
  // Every strict prefix must fail (never mis-parse a partial message).
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const Result<net::Request> r = net::parse_request(wire.substr(0, len));
    EXPECT_FALSE(r.ok()) << "accepted a " << len << "-byte prefix";
  }
  EXPECT_TRUE(net::parse_request(wire).ok());
}

TEST_P(ParserFuzz, ServeStepAnswersAnyBytesWithAParsableResponse) {
  // serve() sits behind every RestBus call and every HttpServer request:
  // whatever bytes arrive, parsed or not, it must answer with a response
  // that encodes to bytes parse_response accepts. Tracing is on so the
  // X-Slices-Trace adoption runs on hostile header values too.
  net::Router router;
  router.add(net::Method::get, "/things/{id}", [](const net::RouteContext& ctx) {
    TRACE_SCOPE("fuzz.handler");
    return net::Response::json(net::Status::ok, "\"" + ctx.param("id").value() + "\"");
  });
  router.add(net::Method::post, "/echo", [](const net::RouteContext& ctx) {
    TRACE_SCOPE("fuzz.handler");
    return net::Response::json(net::Status::ok, ctx.request->body);
  });
  telemetry::trace::set_enabled(true);
  telemetry::trace::clear();

  net::Request valid;
  valid.method = net::Method::post;
  valid.target = "/echo";
  valid.headers.insert_or_assign(telemetry::trace::kContextHeader, "3-77-2-900");
  valid.body = R"({"vertical":"ehealth","duration_hours":4})";
  const std::string wire = valid.encode();

  Rng rng(GetParam() * 41 + 5);
  const auto check = [&router](const std::string& bytes) {
    const net::Response served = net::serve(router, net::parse_request(bytes));
    const Result<net::Response> reparsed = net::parse_response(served.encode());
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
    EXPECT_EQ(reparsed.value().status, served.status);
    EXPECT_EQ(reparsed.value().body, served.body);
  };
  for (int i = 0; i < 2000; ++i) {
    check(random_bytes(rng, 96));
    check(wire.substr(0, static_cast<std::size_t>(
                             rng.uniform_int(0, static_cast<std::int64_t>(wire.size())))));
    std::string mutated = wire;
    for (std::int64_t n = rng.uniform_int(1, 4); n > 0; --n) {
      const std::size_t pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(wire.size() - 1)));
      mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    }
    check(mutated);
    check("GET /things/" + random_printable(rng, 16) + " HTTP/1.1\r\n" +
          telemetry::trace::kContextHeader + ": " + random_printable(rng, 24) + "\r\n\r\n");
    if (HasFatalFailure()) break;
  }
  // Adopted contexts were restored: no span is left open on this thread.
  EXPECT_FALSE(telemetry::trace::Tracer::instance().current_context().valid());

  telemetry::trace::set_enabled(false);
  telemetry::trace::clear();
  telemetry::trace::Tracer::instance().set_sim_now(0);
}

/// Two connected stream sockets, as TcpConnections.
std::pair<net::TcpConnection, net::TcpConnection> socket_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {net::TcpConnection(net::FdHandle(fds[0])), net::TcpConnection(net::FdHandle(fds[1]))};
}

/// A valid request with random method, target, headers and body; the
/// Content-Length field name in a random letter case.
std::string random_request(Rng& rng) {
  static constexpr net::Method kMethods[] = {net::Method::get, net::Method::post,
                                             net::Method::put, net::Method::del,
                                             net::Method::patch};
  net::Request req;
  req.method = kMethods[static_cast<std::size_t>(rng.uniform_int(0, 4))];
  req.target = "/r/" + std::to_string(rng.uniform_int(0, 1 << 20));
  for (std::int64_t h = rng.uniform_int(0, 3); h > 0; --h) {
    req.headers.insert_or_assign("X-H" + std::to_string(h), std::to_string(rng.uniform_int(0, 99)));
  }
  req.body = random_bytes(rng, rng.uniform_int(0, 9) == 0 ? 40000 : 300);
  std::string wire = req.encode();
  const std::size_t name = wire.find("Content-Length:");
  for (std::size_t i = name; i < name + 14; ++i) {
    if (wire[i] != '-' && rng.uniform_int(0, 1) == 1) wire[i] = static_cast<char>(wire[i] ^ 0x20);
  }
  return wire;
}

/// Feed `stream` to a framer in random chunks, one recv() per chunk;
/// the messages it frames, then the error that stopped it (if any).
std::pair<std::vector<std::string>, Result<void>> frame_in_chunks(Rng& rng,
                                                                  const std::string& stream) {
  auto [writer, reader] = socket_pair();
  net::HttpFramer framer;
  std::vector<std::string> messages;
  std::size_t sent = 0;
  while (true) {
    if (sent < stream.size()) {
      const std::size_t chunk = std::min<std::size_t>(
          stream.size() - sent, static_cast<std::size_t>(rng.uniform_int(1, 3000)));
      EXPECT_TRUE(writer.send_all(std::string_view(stream).substr(sent, chunk)).ok());
      sent += chunk;
    } else {
      writer.shutdown_write();
    }
    const Result<bool> filled = framer.fill(reader);
    if (!filled.ok()) return {messages, filled.error()};
    while (true) {
      std::string wire;
      const Result<bool> framed = framer.next(wire);
      if (!framed.ok()) return {messages, framed.error()};
      if (!framed.value()) break;
      EXPECT_LE(wire.size(), net::kMaxRequestBytes);
      messages.push_back(std::move(wire));
    }
    if (!filled.value()) {
      if (!framer.empty()) return {messages, make_error(Errc::protocol_error, "truncated")};
      return {messages, Result<void>()};
    }
  }
}

TEST_P(ParserFuzz, FramerYieldsTheSameRequestsAtAnyChunking) {
  Rng rng(GetParam() * 613 + 29);
  for (int round = 0; round < 40; ++round) {
    std::vector<std::string> sent;
    std::string stream;
    for (std::int64_t n = rng.uniform_int(1, 12); n > 0; --n) {
      sent.push_back(random_request(rng));
      stream += sent.back();
    }
    const auto [framed, end] = frame_in_chunks(rng, stream);
    ASSERT_TRUE(end.ok()) << end.error().message;
    ASSERT_EQ(framed, sent);
    for (const std::string& wire : framed) {
      const Result<net::Request> req = net::parse_request(wire);
      ASSERT_TRUE(req.ok()) << req.error().message;
      EXPECT_EQ(req.value().encode().size(), wire.size());
    }
  }
}

TEST_P(ParserFuzz, FramerOnRandomBytesErrsOrFramesWithinTheCap) {
  Rng rng(GetParam() * 419 + 13);
  for (int round = 0; round < 200; ++round) {
    std::string stream;
    for (std::int64_t n = rng.uniform_int(1, 6); n > 0; --n) {
      if (rng.uniform_int(0, 1) == 1) {
        stream += "POST / HTTP/1.1\r\ncontent-length: ";
        stream += rng.uniform_int(0, 1) == 1 ? std::to_string(rng.uniform_int(0, 64))
                                             : random_printable(rng, 8);
        stream += rng.uniform_int(0, 1) == 1 ? "\r\n\r\n" : "\r\n";
      }
      stream += random_bytes(rng, 200);
    }
    const auto [framed, end] = frame_in_chunks(rng, stream);
    std::size_t consumed = 0;
    for (const std::string& wire : framed) {
      EXPECT_NE(wire.find("\r\n\r\n"), std::string::npos);
      EXPECT_EQ(stream.compare(consumed, wire.size(), wire), 0);  // in order, unaltered
      consumed += wire.size();
      (void)net::parse_request(wire);
    }
    if (end.ok()) EXPECT_EQ(consumed, stream.size());
  }
}

TEST(FramerLimits, NeverReadsPastTheCap) {
  // A head that never ends, then one whose length is past the cap; the
  // framer refuses each having read at most kMaxRequestBytes of it.
  const std::string endless(net::kMaxRequestBytes + 64 * 1024, 'a');
  const std::string huge = "POST / HTTP/1.1\r\nContent-Length: " +
                           std::to_string(net::kMaxRequestBytes) + "\r\n\r\n" +
                           std::string(net::kMaxRequestBytes, 'b');
  for (const std::string* stream : {&endless, &huge}) {
    auto [writer, reader] = socket_pair();
    std::thread feed([&writer, stream] {
      (void)writer.send_all(*stream);
      writer.shutdown_write();
    });
    net::HttpFramer framer;
    std::string wire;
    const Result<void> read = framer.read(reader, wire);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.error().code, Errc::protocol_error);
    EXPECT_TRUE(wire.empty());
    std::size_t left = 0;  // what the framer left unread
    char buffer[65536];
    while (true) {
      const Result<std::size_t> n = reader.receive(buffer, sizeof buffer);
      if (!n.ok() || n.value() == 0) break;
      left += n.value();
    }
    feed.join();
    EXPECT_LE(stream->size() - left, net::kMaxRequestBytes);
  }
}

TEST_P(ParserFuzz, MutatedValidJsonNeverCrashes) {
  Rng rng(GetParam() * 97 + 3);
  const std::string base =
      R"({"slices":[{"id":1,"rate":12.5,"tags":["a","b"]},null,true],"n":-1e3})";
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = base;
    const std::size_t pos =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(base.size() - 1)));
    mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    (void)json::parse(mutated);  // must not crash; outcome may be either
  }
}

TEST_P(ParserFuzz, UrlAndTraceNeverCrash) {
  Rng rng(GetParam() * 13 + 1);
  for (int i = 0; i < 2000; ++i) {
    (void)net::parse_target("/" + random_printable(rng, 32));
    (void)net::percent_decode(random_printable(rng, 32));
    (void)telemetry::trace::parse_context(random_printable(rng, 48));
    (void)telemetry::trace::parse_context(random_bytes(rng, 48));
  }
}

TEST_P(ParserFuzz, MutatedJournalScansToAPrefix) {
  namespace fs = std::filesystem;
  Rng rng(GetParam() * 193 + 11);
  const fs::path dir =
      fs::temp_directory_path() / ("slices_fuzz_journal_" + std::to_string(GetParam()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "journal.wal").string();

  std::vector<std::string> written;
  {
    store::Journal journal;
    ASSERT_TRUE(journal.open(path, 0).ok());
    for (int i = 0; i < 8; ++i) {
      json::Object record;
      record.emplace("seq", static_cast<double>(i));
      record.emplace("op", std::string(static_cast<std::size_t>(3 * i), 'x'));
      written.push_back(json::serialize(json::Value(std::move(record))));
      ASSERT_TRUE(journal.append(written.back(), false).ok());
    }
  }
  std::ifstream in(path, std::ios::binary);
  const std::string valid{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  ASSERT_FALSE(valid.empty());

  for (int round = 0; round < 300; ++round) {
    std::string bytes = valid;
    if (rng.bernoulli(0.5)) {
      bytes.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(valid.size()))));
    } else {
      const auto flips = rng.uniform_int(1, 4);
      for (std::int64_t f = 0; f < flips; ++f) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(bytes.size() - 1)));
        bytes[pos] = static_cast<char>(bytes[pos] ^ static_cast<char>(rng.uniform_int(1, 255)));
      }
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    // Corruption is data, never an error or a crash: the scan keeps the
    // records before the first damaged one, byte for byte.
    const Result<store::JournalScan> scan = store::scan_journal(path);
    ASSERT_TRUE(scan.ok()) << scan.error().message;
    const store::JournalScan& s = scan.value();
    ASSERT_LE(s.records.size(), written.size());
    std::uint64_t prefix_bytes = 0;
    for (std::size_t i = 0; i < s.records.size(); ++i) {
      EXPECT_EQ(json::serialize(s.records[i]), written[i]) << "round " << round;
      prefix_bytes += 8 + written[i].size();  // u32 length + u32 CRC + payload
    }
    EXPECT_EQ(s.valid_bytes, prefix_bytes);
    EXPECT_EQ(s.file_bytes, bytes.size());
    EXPECT_EQ(s.truncated_tail, s.valid_bytes < s.file_bytes);
    if (bytes == valid) EXPECT_EQ(s.records.size(), written.size());
  }
  fs::remove_all(dir);
}

TEST_P(ParserFuzz, ScenarioParserNeverCrashes) {
  Rng rng(GetParam() * 131 + 17);
  for (int i = 0; i < 500; ++i) {
    // Arbitrary bytes and JSON-ish soup: typed error with a message.
    const Result<scenario::Scenario> raw = scenario::parse_scenario(random_bytes(rng, 96));
    if (!raw.ok()) EXPECT_FALSE(raw.error().message.empty());
    (void)scenario::parse_scenario(random_printable(rng, 96));
  }
}

/// A valid fig2 scenario; its orchestrator block sets every key.
constexpr const char* kFig2Scenario = R"({"name":"fuzz","seed":4,"duration_hours":6,
    "orchestrator":{"monitoring_period_minutes":5,"admission_policy":"greedy_revenue",
      "admission_window_hours":1,"admission_patience_hours":2,"sla_tolerance":0.1,
      "reconfigure_threshold":0.05,"edge_breakout_fraction":0.5,
      "overbooking":{"enabled":true,"risk_quantile":0.9,"horizon":8,"floor_fraction":0.2,
        "headroom":1.1,"warmup_observations":16,"season_length":288,"estimator":"ewma"}},
    "workload":{"arrivals_per_hour":2.0},
    "phases":[{"start_hours":0,"end_hours":3,"arrivals_per_hour":4.0}],
    "events":[{"kind":"link_down","at_hours":1,"link":"mmwave","duration_hours":1}],
    "targets":{"min_admission_rate":0.1}})";

TEST_P(ParserFuzz, MutatedValidScenarioErrorsAreActionable) {
  Rng rng(GetParam() * 211 + 5);
  const std::string base = kFig2Scenario;
  ASSERT_TRUE(scenario::parse_scenario(base).ok());
  for (int i = 0; i < 1000; ++i) {
    std::string mutated = base;
    const std::size_t pos =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(base.size() - 1)));
    mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    const Result<scenario::Scenario> r = scenario::parse_scenario(mutated);
    // Must not crash; a rejection must say what and where went wrong.
    if (!r.ok()) EXPECT_FALSE(r.error().message.empty());
  }
  // Truncations of a valid scenario always error (with line/column).
  for (std::size_t len = 0; len < base.size(); ++len) {
    const Result<scenario::Scenario> r = scenario::parse_scenario(base.substr(0, len));
    ASSERT_FALSE(r.ok()) << "accepted a " << len << "-byte prefix";
    EXPECT_FALSE(r.error().message.empty());
  }
}

TEST_P(ParserFuzz, MutatedMobilityScenarioNeverCrashes) {
  Rng rng(GetParam() * 307 + 11);
  const std::string base = R"({"name":"fuzz_mob","seed":9,"duration_hours":8,
    "topology":"metro","federation":{"regions":2,"cells_per_region":4},
    "workload":{"arrivals_per_hour":2.0},
    "mobility":{"cell_spacing_m":400,"default_speed_mps":1.4,"ues_per_slice":40,
      "cqi_min":5,"cqi_max":15,
      "speed_classes":{"automotive":14,"cloud_gaming":0.9},
      "storms":[
        {"kind":"commuter_wave","at_hours":2,"duration_minutes":90,"fraction":0.5},
        {"kind":"stadium_ingress","at_hours":4,"duration_minutes":60,"fraction":0.4,
         "cell":"c2","region":"r1"},
        {"kind":"stadium_egress","at_hours":5.5,"duration_minutes":45,"fraction":0.4,
         "cell":"c2","region":"r1"}]}})";
  ASSERT_TRUE(scenario::parse_scenario(base).ok());
  for (int i = 0; i < 1000; ++i) {
    std::string mutated = base;
    const std::size_t pos =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(base.size() - 1)));
    mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    const Result<scenario::Scenario> r = scenario::parse_scenario(mutated);
    // Must not crash; a rejection must say what and where went wrong.
    if (!r.ok()) EXPECT_FALSE(r.error().message.empty());
  }
}

TEST_P(ParserFuzz, MobilityStormSerializationRoundTrips) {
  const std::string base = R"({"name":"fuzz_mob","seed":9,"duration_hours":8,
    "topology":"metro","federation":{"regions":2,"cells_per_region":4},
    "workload":{"arrivals_per_hour":2.0},
    "mobility":{"ues_per_slice":40,
      "speed_classes":{"automotive":14,"cloud_gaming":0.9},
      "storms":[
        {"kind":"commuter_wave","at_hours":2,"duration_minutes":90,"fraction":0.5},
        {"kind":"stadium_ingress","at_hours":4,"duration_minutes":60,"fraction":0.4,
         "cell":"c2","region":"r1"}]}})";
  const Result<scenario::Scenario> parsed = scenario::parse_scenario(base);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  ASSERT_TRUE(parsed.value().mobility.enabled);
  ASSERT_EQ(parsed.value().mobility.storms.size(), 2u);

  // serialize_scenario is canonical: its output re-parses to a document
  // that serializes byte-identically, with every storm event intact.
  const std::string canonical = scenario::serialize_scenario(parsed.value());
  const Result<scenario::Scenario> again = scenario::parse_scenario(canonical);
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(scenario::serialize_scenario(again.value()), canonical);

  const auto& a = parsed.value().mobility;
  const auto& b = again.value().mobility;
  ASSERT_EQ(b.storms.size(), a.storms.size());
  for (std::size_t i = 0; i < a.storms.size(); ++i) {
    EXPECT_EQ(b.storms[i].kind, a.storms[i].kind);
    EXPECT_EQ(b.storms[i].at.as_micros(), a.storms[i].at.as_micros());
    EXPECT_EQ(b.storms[i].duration.as_micros(), a.storms[i].duration.as_micros());
    EXPECT_DOUBLE_EQ(b.storms[i].fraction, a.storms[i].fraction);
    EXPECT_EQ(b.storms[i].cell, a.storms[i].cell);
    EXPECT_EQ(b.storms[i].region, a.storms[i].region);
  }
  EXPECT_EQ(b.speed_classes, a.speed_classes);
  EXPECT_EQ(b.ues_per_slice, a.ues_per_slice);
}

// ------------------------------------------------- wire integer decoding

/// Numbers no 64-bit integer field can hold, as they arrive on the wire.
constexpr const char* kHostileNumbers[] = {"1e300", "-1e300", "1e20", "-1e20",
                                           "1.8446744073709552e19"};

json::Value parse_ok(const std::string& text) {
  const Result<json::Value> doc = json::parse(text);
  EXPECT_TRUE(doc.ok()) << text;
  return doc.ok() ? doc.value() : json::Value();
}

// ---------------------------------------------- scenario field lists

/// With kFig2Scenario, these reach every key of every scenario field
/// list: each event kind's keys, requests, storms on both topologies,
/// all targets and the metro federation block.
constexpr const char* kEveryFig2Field = R"({"name":"fields","seed":"18446744073709551615",
    "duration_hours":12,
    "workload":{"verticals":["automotive","ehealth"]},
    "mobility":{"storms":[{"kind":"stadium_ingress","at_hours":1,"duration_minutes":30,
      "cell":"a"}]},
    "events":[
      {"kind":"link_flap","at_hours":1,"link":"uwave","count":3,"period_minutes":20,
       "down_minutes":5},
      {"kind":"cell_down","at_hours":2,"cell":"b","duration_hours":1},
      {"kind":"dc_down","at_hours":3,"dc":"core","duration_hours":1},
      {"kind":"controller_restart","at_hours":4,"duration_minutes":10},
      {"kind":"churn_storm","at_hours":5,"duration_minutes":30,"ues_per_hour":120,
       "mean_holding_minutes":4}],
    "requests":[{"at_hours":1,"vertical":"cloud_gaming","tenant":"arcade",
      "duration_hours":4,"workload_seed":"9"}],
    "targets":{"min_admission_rate":0.1,"max_violation_rate":0.9,"min_net_revenue":-5,
      "min_multiplexing_gain":1.2}})";

constexpr const char* kEveryMetroField = R"({"name":"metro_fields","seed":9,
    "duration_hours":8,"topology":"metro","federation":{"regions":2,"cells_per_region":4},
    "mobility":{"speed_classes":{"automotive":14},
      "storms":[
        {"kind":"commuter_wave","at_hours":2,"duration_minutes":90,"fraction":0.5},
        {"kind":"stadium_ingress","at_hours":4,"duration_minutes":60,"cell":"c2",
         "region":"r1"}]},
    "events":[
      {"kind":"cell_down","at_hours":1,"region":"r0","cell":"c2","duration_hours":1},
      {"kind":"dc_down","at_hours":2,"region":"r1","dc":"edge0"}],
    "requests":[{"at_hours":1,"vertical":"automotive","duration_hours":2,"region":"r1"}]})";

/// Calls `visit(leaf, path)` for every scalar of `doc`, with the path
/// the scenario parser reports ("events[0].at_hours").
template <class Visit>
void for_each_leaf(json::Value& doc, const std::string& path, Visit& visit) {
  if (doc.is_object()) {
    for (auto& [key, child] : doc.as_object())
      for_each_leaf(child, path.empty() ? key : path + "." + key, visit);
  } else if (doc.is_array()) {
    for (std::size_t i = 0; i < doc.as_array().size(); ++i)
      for_each_leaf(doc.as_array()[i], path + "[" + std::to_string(i) + "]", visit);
  } else {
    visit(doc, path);
  }
}

TEST(ScenarioFieldLists, HostileValuesAreRejectedByPath) {
  std::vector<json::Value> hostile = {json::Value("hostile"), json::Value(true),
                                      json::Value(-1.0)};
  for (const char* number : kHostileNumbers) hostile.push_back(parse_ok(number));
  const std::set<std::string> free_text = {"name", "description", "tenant"};

  for (const char* base : {kFig2Scenario, kEveryFig2Field, kEveryMetroField}) {
    const Result<scenario::Scenario> parsed = scenario::parse_scenario(base);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    // The canonical form spells out every key the field lists write.
    json::Value doc = scenario::scenario_to_json(parsed.value());
    std::size_t leaves = 0;
    auto visit = [&](json::Value& leaf, const std::string& path) {
      ++leaves;
      const std::string key = path.substr(path.find_last_of('.') + 1);
      const json::Value original = leaf;
      for (const json::Value& bad : hostile) {
        // A value of the field's own type is only hostile where the
        // domain excludes it.
        if (bad.type() == original.type() && (bad.is_bool() || free_text.contains(key)))
          continue;
        if (key == "min_net_revenue" && bad == json::Value(-1.0)) continue;
        leaf = bad;
        const Result<scenario::Scenario> r = scenario::parse_scenario(json::serialize(doc));
        if (r.ok()) {
          ADD_FAILURE() << path << " accepted " << json::serialize(bad);
        } else {
          EXPECT_NE(r.error().message.find(path), std::string::npos)
              << path << " = " << json::serialize(bad) << ": " << r.error().message;
        }
      }
      leaf = original;
    };
    for_each_leaf(doc, "", visit);
    EXPECT_GT(leaves, 30u) << base;
  }
}

TEST(WireIntegers, ToIntegerChecksTypeAndRange) {
  const auto u64 = [](const std::string& text) {
    const json::Value v = parse_ok(text);
    return json::to_integer<std::uint64_t>(&v);
  };
  const auto i64 = [](const std::string& text) {
    const json::Value v = parse_ok(text);
    return json::to_integer<std::int64_t>(&v);
  };
  EXPECT_EQ(u64("0"), 0u);
  EXPECT_EQ(u64("42.9"), 42u);  // truncates toward zero, like a cast
  EXPECT_EQ(u64("9007199254740992"), std::uint64_t{1} << 53);
  EXPECT_EQ(u64("18446744073709549568"), 18446744073709549568ull);  // largest double < 2^64
  EXPECT_FALSE(u64("18446744073709551616"));                          // 2^64
  EXPECT_FALSE(u64("-1"));
  EXPECT_FALSE(u64("1e300"));
  EXPECT_FALSE(u64("\"7\""));
  EXPECT_FALSE(json::to_integer<std::uint64_t>(nullptr));
  EXPECT_EQ(i64("-9223372036854775808"), std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(i64("9223372036854775808"));  // 2^63
  EXPECT_FALSE(i64("-1e300"));
  const json::Value five = parse_ok("5");
  EXPECT_EQ(json::to_integer<int>(&five, 0, 15), 5);
  const json::Value big = parse_ok("16");
  EXPECT_FALSE(json::to_integer<int>(&big, 0, 15));
}

TEST(WireIntegers, HistogramMergeSkipsHostileBuckets) {
  telemetry::Histogram source;
  for (const std::uint64_t v : {std::uint64_t{1}, std::uint64_t{17}, std::uint64_t{900},
                                std::uint64_t{65536}, std::uint64_t{1} << 40}) {
    source.record(v);
  }
  // A valid export merges bit for bit.
  telemetry::Histogram copy;
  copy.merge_json(source.to_json());
  EXPECT_EQ(json::serialize(copy.to_json()), json::serialize(source.to_json()));

  const auto buckets_of = [](const telemetry::Histogram& h) {
    const json::Value doc = h.to_json();
    return json::serialize(*doc.find("buckets"));
  };
  const std::string top = std::to_string(telemetry::Histogram::kMaxBucket);
  std::vector<std::string> bad_indices(std::begin(kHostileNumbers), std::end(kHostileNumbers));
  bad_indices.push_back(std::to_string(telemetry::Histogram::kMaxBucket + 1));
  for (const std::string& bad : bad_indices) {
    telemetry::Histogram h;
    h.merge_json(parse_ok(R"({"count":2,"sum":5,"min":1,"max":4,"buckets":[[)" + bad +
                          ",1],[" + top + ",1],[5,1]]}"));
    // The hostile pair is skipped (no multi-GB resize); the valid ones land.
    EXPECT_EQ(h.count(), 2u) << bad;
    EXPECT_EQ(buckets_of(h), "[[5,1],[" + top + ",1]]") << bad;
  }
  // A scalar outside uint64 makes the whole document malformed: ignored.
  for (const char* bad : {"1e300", "-1e300", "-1", "1.8446744073709552e19"}) {
    for (const char* key : {"count", "sum", "min", "max"}) {
      json::Value doc = parse_ok(R"({"count":1,"sum":5,"min":5,"max":5,"buckets":[[5,1]]})");
      doc[key] = parse_ok(bad);
      telemetry::Histogram h;
      h.merge_json(doc);
      EXPECT_TRUE(h.empty()) << key << "=" << bad;
    }
  }
}

TEST_P(ParserFuzz, MutatedMetricsBodiesMergeSafely) {
  telemetry::MonitorRegistry source;
  source.counter("bus.calls").increment(12);
  source.gauge("edge.headroom").set(3.5);
  for (std::uint64_t v = 1; v < 5000; v += 37) source.histogram("epoch_us").record(v * v);
  const std::string base = json::serialize(source.export_json());
  Rng rng(GetParam() * 131 + 5);
  for (int i = 0; i < 1000; ++i) {
    std::string mutated = base;
    const std::size_t pos =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(base.size() - 1)));
    mutated[pos] = "0123456789e-+."[rng.uniform_int(0, 13)];
    const Result<json::Value> doc = json::parse(mutated);
    if (!doc.ok()) continue;
    telemetry::MonitorRegistry sink;
    sink.merge_from(doc.value());
    if (const telemetry::Histogram* h = sink.find_histogram("epoch_us"); h != nullptr) {
      const json::Value exported = h->to_json();
      for (const json::Value& pair : exported.find("buckets")->as_array()) {
        EXPECT_LE(pair.as_array()[0].as_number(),
                  static_cast<double>(telemetry::Histogram::kMaxBucket));
      }
    }
  }
}

constexpr const char* kMobileMetro = R"({
  "name": "wire_fuzz", "seed": 3, "duration_hours": 2, "topology": "metro",
  "federation": {"regions": 2, "cells_per_region": 4, "hosts_per_dc": 1},
  "workload": {"arrivals_per_hour": 4},
  "mobility": {"ues_per_slice": 10}
})";

/// Region r0 of kMobileMetro with a slice admitted (so roamers have a
/// PLMN to attach under), served on an in-process bus.
struct WireEdge {
  scenario::Scenario scenario = [] {
    const Result<scenario::Scenario> s = scenario::parse_scenario(kMobileMetro);
    EXPECT_TRUE(s.ok());
    return s.value();
  }();
  federation::MetroFabric fabric = federation::make_metro_fabric(scenario.federation, 3).value();
  federation::EdgeNode node{fabric.regions[0], scenario, 1};
  net::RestBus bus;

  WireEdge() {
    bus.register_service("edge", node.make_router());
    scenario::ScenarioRequest request;
    request.spec = core::SliceSpec::from_profile(
        traffic::profile_for(traffic::Vertical::automotive), Duration::hours(2.0));
    request.workload_seed = 7;
    EXPECT_TRUE(node.submit(scenario::request_to_json(request)).ok());
    node.advance_to(Duration::minutes(20.0).as_micros());
  }

  Result<json::Value> post(const std::string& path, const std::string& body) {
    Result<json::Value> doc = json::parse(body);
    if (!doc.ok()) return doc.error();
    return bus.call_json("edge", net::Method::post, path, doc.value());
  }
};

TEST(WireIntegers, EdgeFaultAndAdvanceBodiesAreRangeChecked) {
  WireEdge edge;
  EXPECT_TRUE(edge.post("/federation/fault",
                        R"({"kind":"dc_down","target":"edge0","duration_us":600000000})")
                  .ok());
  EXPECT_TRUE(edge.post("/federation/fault", R"({"kind":"cell_down","target":"c3"})").ok());
  EXPECT_FALSE(edge.post("/federation/fault", R"({"kind":"cell_down","target":"c9"})").ok());
  std::vector<std::string> bad_durations(std::begin(kHostileNumbers), std::end(kHostileNumbers));
  bad_durations.insert(bad_durations.end(), {"-1", "1e16"});  // negative; past 2^53
  for (const std::string& bad : bad_durations) {
    const Result<json::Value> fault = edge.post(
        "/federation/fault",
        std::string(R"({"kind":"controller_restart","target":"","duration_us":)") + bad + "}");
    EXPECT_FALSE(fault.ok()) << bad;
    EXPECT_FALSE(edge.node.orchestrator().suspended()) << bad;
  }
  for (const char* bad : kHostileNumbers) {
    EXPECT_FALSE(edge.post("/federation/tick", std::string(R"({"t_us":)") + bad + "}").ok())
        << bad;
  }
  EXPECT_FALSE(edge.post("/federation/tick", "{}").ok());
  EXPECT_FALSE(edge.post("/federation/tick", R"({"t_us":"1800000000"})").ok());
  const Result<json::Value> tick = edge.post("/federation/tick", R"({"t_us":1800000000})");
  ASSERT_TRUE(tick.ok()) << tick.error().message;
  EXPECT_EQ(edge.node.simulator().now().as_micros(), 1800000000);
  EXPECT_EQ(tick.value().find("t_us")->as_number(), 1800000000.0);
  EXPECT_EQ(*tick.value().find("headroom"), edge.node.headroom_json());
}

TEST(WireIntegers, RoamerIngressRejectsOutOfRangeFieldsAtomically) {
  WireEdge edge;
  ASSERT_NE(edge.node.field(), nullptr);
  const Result<json::Value> ok = edge.post(
      "/federation/mobility/ingress",
      R"({"side":1,"plmn":[1,0],"cqi":[9,99],"y_mm":[250000,-5]})");
  ASSERT_TRUE(ok.ok()) << ok.error().message;
  EXPECT_EQ(ok.value().find("admitted")->as_number(), 2.0);
  const std::uint64_t admitted = edge.node.field()->roamers_admitted();

  // Each body's first roamer is valid; the second is not, or the body's
  // shape is broken. None may admit anyone.
  const auto columns = [](const std::string& plmn, const std::string& cqi,
                          const std::string& y_mm, const std::string& side) {
    return R"({"side":)" + side + R"(,"plmn":)" + plmn + R"(,"cqi":)" + cqi +
           R"(,"y_mm":)" + y_mm + "}";
  };
  std::vector<std::string> bodies;
  const std::pair<int, std::vector<const char*>> hostile[] = {
      {0, {"-1", "1e20", "1e300", "-1e300", "\"1\"", "null"}},
      {1, {"4294967296", "1e10", "1e300", "-1e300", "true", "[9]"}},
      {2, {"9.3e18", "-9.3e18", "1e300", "-1e300", "{}", "\"0\""}},
  };
  for (const auto& [column, values] : hostile) {
    for (const char* bad : values) {
      std::string cols[3] = {"[1,1]", "[9,9]", "[0,0]"};
      cols[column] = cols[column].substr(0, 3) + bad + "]";
      bodies.push_back(columns(cols[0], cols[1], cols[2], "1"));
    }
  }
  // Ragged columns, missing or non-array columns.
  bodies.push_back(columns("[1,1]", "[9]", "[0,0]", "1"));
  bodies.push_back(columns("[1]", "[9,9]", "[0,0]", "-1"));
  bodies.push_back(columns("[1,1]", "[9,9]", "[0,0,0]", "1"));
  bodies.push_back(columns("[1,1]", "9", "[0,0]", "1"));
  bodies.push_back(columns("{}", "[9,9]", "[0,0]", "1"));
  bodies.push_back(columns("[1,1]", "[9,9]", "null", "1"));
  bodies.push_back(R"({"side":1,"cqi":[9],"y_mm":[0]})");
  bodies.push_back(R"({"side":1,"plmn":[1],"y_mm":[0]})");
  bodies.push_back(R"({"side":1,"plmn":[1],"cqi":[9]})");
  bodies.push_back(R"({"roamers":[{"plmn":1,"cqi":9,"y_mm":0,"side":1}]})");
  bodies.push_back("[]");
  // Hostile sides.
  for (const char* side : {"0", "2", "-2", "1e300", "-1e300", "\"east\"", "null", "[1]"}) {
    bodies.push_back(columns("[1,1]", "[9,9]", "[0,0]", side));
  }
  bodies.push_back(R"({"plmn":[1],"cqi":[9],"y_mm":[0]})");
  for (const std::string& body : bodies) {
    const Result<json::Value> rejected = edge.post("/federation/mobility/ingress", body);
    ASSERT_FALSE(rejected.ok()) << body;
    EXPECT_NE(rejected.error().message.find(" -> 4"), std::string::npos)
        << body << ": " << rejected.error().message;
  }
  // Rejected bodies admitted nobody, not even their valid first entry.
  EXPECT_EQ(edge.node.field()->roamers_admitted(), admitted);
}

TEST(WireIntegers, MutatingRoutesRangeCheckTheBrokerTime) {
  WireEdge edge;
  const std::int64_t start_us = Duration::minutes(20.0).as_micros();
  ASSERT_EQ(edge.node.simulator().now().as_micros(), start_us);
  scenario::ScenarioRequest request;
  request.spec = core::SliceSpec::from_profile(
      traffic::profile_for(traffic::Vertical::automotive), Duration::hours(1.0));
  const std::pair<const char*, std::string> routes[] = {
      {"/federation/slices", json::serialize(scenario::request_to_json(request))},
      {"/federation/fault", R"({"kind":"cell_down","target":"c1","duration_us":60000000})"},
      {"/federation/mobility/ingress", R"({"side":1,"plmn":[1],"cqi":[9],"y_mm":[0]})"},
  };
  const auto state = [&edge] {
    const core::OrchestratorSummary summary = edge.node.orchestrator().summary();
    return json::serialize(edge.node.headroom_json()) + json::serialize(edge.node.summary_json()) +
           std::to_string(summary.admitted_total + summary.rejected_total) + "/" +
           std::to_string(edge.node.field()->roamers_admitted()) + "/" +
           std::to_string(edge.node.simulator().pending_events());
  };
  // Negative, fractional, exponent, hex, signed, padded, junk, empty,
  // 2^53 + 1 and past int64: each is a 400 that changes nothing.
  const char* hostile[] = {"-1",   "1.5",  "1e3", "0x10", "%2B5", "%205", "5%20",
                           "abc",  "",     "-0",  "9007199254740993",
                           "99999999999999999999"};
  const std::string before = state();
  for (const auto& [path, body] : routes) {
    for (const char* bad : hostile) {
      const std::string target = std::string(path) + "?t_us=" + bad;
      const Result<json::Value> rejected = edge.post(target, body);
      ASSERT_FALSE(rejected.ok()) << target;
      EXPECT_NE(rejected.error().message.find(" -> 400"), std::string::npos)
          << target << ": " << rejected.error().message;
    }
  }
  EXPECT_EQ(edge.node.simulator().now().as_micros(), start_us);
  EXPECT_EQ(state(), before);

  // An earlier time is a no-op advance: each route acts at the region's
  // own clock. A later one advances the region before it acts.
  for (const auto& [path, body] : routes) {
    const Result<json::Value> earlier = edge.post(std::string(path) + "?t_us=0", body);
    EXPECT_TRUE(earlier.ok()) << path << ": " << earlier.error().message;
    EXPECT_EQ(edge.node.simulator().now().as_micros(), start_us) << path;
  }
  EXPECT_NE(state(), before);
  const std::int64_t later_us = start_us + Duration::minutes(3.0).as_micros();
  const Result<json::Value> later =
      edge.post("/federation/fault?t_us=" + std::to_string(later_us), routes[1].second);
  ASSERT_TRUE(later.ok()) << later.error().message;
  EXPECT_EQ(edge.node.simulator().now().as_micros(), later_us);
}

TEST(WireIntegers, TickReplyNextEventSkipsOnlyOnAWholeNumber) {
  const scenario::Scenario s = scenario::parse_scenario(kMobileMetro).value();
  const federation::MetroFabric fabric =
      federation::make_metro_fabric(s.federation, s.seed).value();
  const std::string far = "4000000000000";  // past every tick below
  // A string, a fraction, out of range, the wrong type, or missing: the
  // region stays due and is ticked at every timestamp.
  for (const std::string& next :
       std::vector<std::string>{far, "\"4000000000000\"", "4000000000000.5", "-1", "1e300",
                                "9007199254740994", "null", "true", "[1]", ""}) {
    std::uint64_t ticks = 0;
    const std::string reply = R"({"headroom":{"headroom_mbps":0})" +
                              (next.empty() ? "" : R"(,"next_event_us":)" + next) + "}";
    auto router = std::make_shared<net::Router>();
    router->add(net::Method::post, "/federation/tick", [&ticks, reply](const net::RouteContext&) {
      ++ticks;
      return net::Response::json(net::Status::ok, reply);
    });
    net::RestBus bus;
    for (const federation::RegionPlan& plan : fabric.regions) {
      bus.register_service(federation::Broker::service_name(plan.name), router);
    }
    federation::Broker broker(&bus, fabric);
    constexpr int kTicks = 4;
    for (int k = 1; k <= kTicks; ++k) broker.tick_all(k * Duration::minutes(1.0).as_micros());
    const std::uint64_t per_region = next == far ? 1 : kTicks;
    EXPECT_EQ(ticks, per_region * fabric.regions.size()) << next;
  }
}

/// A remote "edge" on a loopback socket that answers the broker with
/// canned bodies: `summary` at /federation/summary, zero headroom, and
/// an empty ack to every tick (so the broker falls back to GET
/// /federation/headroom).
class ScriptedEdge {
 public:
  explicit ScriptedEdge(const std::string& summary) {
    auto router = std::make_shared<net::Router>();
    const auto reply = [](std::string body) {
      return [body](const net::RouteContext&) {
        return net::Response::json(net::Status::ok, body);
      };
    };
    router->add(net::Method::get, "/federation/summary", reply(summary));
    router->add(net::Method::get, "/federation/headroom", reply(R"({"headroom_mbps":0})"));
    router->add(net::Method::post, "/federation/tick", reply("{}"));
    Result<std::unique_ptr<net::HttpServer>> bound = net::HttpServer::bind(router);
    EXPECT_TRUE(bound.ok());
    server_ = std::move(bound).value();
    serving_ = std::thread([raw = server_.get()] { raw->run(); });
  }
  ScriptedEdge(const ScriptedEdge&) = delete;
  ScriptedEdge& operator=(const ScriptedEdge&) = delete;
  ~ScriptedEdge() {
    server_->stop();
    serving_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }

 private:
  std::unique_ptr<net::HttpServer> server_;
  std::thread serving_;
};

/// kMobileMetro without UEs, for half an hour, with the given remote edges.
Result<federation::FederatedScorecard> run_metro_with(
    std::map<std::string, std::uint16_t> remote_edges) {
  scenario::Scenario s = scenario::parse_scenario(kMobileMetro).value();
  s.mobility = {};
  s.duration = Duration::hours(0.5);
  federation::FederatedRunOptions options;
  options.remote_edges = std::move(remote_edges);
  return federation::FederatedRunner(s, options).run();
}

TEST(WireIntegers, HostileRemoteSummaryScoresAsZero) {
  // A remote "edge" whose every number is out of range: the broker-side
  // scorecard must come out bounded (zeros), not from undefined casts.
  const ScriptedEdge edge(
      R"({"admitted":1e300,"rejected":-1,"active_at_end":1e20,"expired":-1e300,)"
      R"("terminated":1e300,"served_epochs":-5,"violation_epochs":1e300,)"
      R"("earned_cents":1e300,"penalty_cents":-1e300,"net_cents":9.3e18,)"
      R"("reconfigurations":-1,"contracted_mbps":1,"reserved_mbps":1,"multiplexing_gain":1})");
  const Result<federation::FederatedScorecard> card = run_metro_with({{"r1", edge.port()}});

  ASSERT_TRUE(card.ok()) << card.error().message;
  const federation::RegionScore& r1 = card.value().regions.at(1);
  EXPECT_EQ(r1.name, "r1");
  EXPECT_EQ(r1.admitted, 0u);
  EXPECT_EQ(r1.rejected, 0u);
  EXPECT_EQ(r1.active_at_end, 0u);
  EXPECT_EQ(r1.expired, 0u);
  EXPECT_EQ(r1.terminated, 0u);
  EXPECT_EQ(r1.served_epochs, 0u);
  EXPECT_EQ(r1.violation_epochs, 0u);
  EXPECT_EQ(r1.earned_cents, 0);
  EXPECT_EQ(r1.penalty_cents, 0);
  EXPECT_EQ(r1.net_cents, 0);
  EXPECT_EQ(r1.reconfigurations, 0u);
  EXPECT_EQ(r1.contracted_mbps, 1.0);
  EXPECT_EQ(r1.reserved_mbps, 1.0);
  EXPECT_EQ(r1.multiplexing_gain, 1.0);
}

TEST(WireIntegers, TwoRegionsNearTheLimitSaturateTheCitySums) {
  // Each region's numbers are in range on their own; their sum is not.
  // The city card saturates instead of overflowing (undefined for the
  // signed cents).
  const std::string near_limit =
      R"({"admitted":1.8e19,"rejected":0,"active_at_end":0,"expired":0,"terminated":0,)"
      R"("served_epochs":1.8e19,"violation_epochs":1.8e19,)"
      R"("earned_cents":9.2e18,"penalty_cents":-9.2e18,"net_cents":9.2e18,)"
      R"("reconfigurations":1.8e19,"contracted_mbps":1,"reserved_mbps":1,"multiplexing_gain":1})";
  const ScriptedEdge r0(near_limit);
  const ScriptedEdge r1(near_limit);
  const Result<federation::FederatedScorecard> card =
      run_metro_with({{"r0", r0.port()}, {"r1", r1.port()}});

  ASSERT_TRUE(card.ok()) << card.error().message;
  const federation::FederatedScorecard& c = card.value();
  ASSERT_EQ(c.regions.size(), 2u);
  EXPECT_EQ(c.regions.at(0).earned_cents, 9'200'000'000'000'000'000);
  constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(c.admitted, kMaxCount);
  EXPECT_EQ(c.served_epochs, kMaxCount);
  EXPECT_EQ(c.violation_epochs, kMaxCount);
  EXPECT_EQ(c.reconfigurations, kMaxCount);
  EXPECT_EQ(c.earned_cents, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(c.penalty_cents, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(c.net_cents, std::numeric_limits<std::int64_t>::max());
}

TEST(WireIntegers, HonestRemoteSummaryDecodesToTheEdgeTally) {
  // A real EdgeNode served over a socket as region r1: the broker-side
  // RegionScore must carry exactly the numbers the edge itself holds.
  scenario::Scenario s = scenario::parse_scenario(kMobileMetro).value();
  s.mobility = {};
  s.duration = Duration::hours(12.0);
  const federation::MetroFabric fabric =
      federation::make_metro_fabric(s.federation, s.seed).value();
  federation::EdgeNode node(fabric.regions.at(1), s, 1);
  Result<std::unique_ptr<net::HttpServer>> server = net::HttpServer::bind(node.make_router());
  ASSERT_TRUE(server.ok());
  std::thread serving([raw = server.value().get()] { raw->run(); });

  federation::FederatedRunOptions options;
  options.remote_edges = {{"r1", server.value()->port()}};
  const Result<federation::FederatedScorecard> card =
      federation::FederatedRunner(s, options).run();
  server.value()->stop();
  serving.join();
  ASSERT_TRUE(card.ok()) << card.error().message;

  // The oracle: the edge's own orchestrator, read in this process.
  const core::OrchestratorSummary summary = node.orchestrator().summary();
  std::uint64_t live = 0;
  for (const auto& [slice, record] : node.orchestrator().slices()) live += record.is_live();
  const federation::RegionScore& r1 = card.value().regions.at(1);
  EXPECT_EQ(r1.name, "r1");
  EXPECT_GT(r1.admitted, 0u);
  EXPECT_GT(r1.served_epochs, 0u);
  EXPECT_EQ(r1.admitted, summary.admitted_total);
  EXPECT_EQ(r1.rejected, summary.rejected_total);
  EXPECT_EQ(r1.active_at_end, live);
  EXPECT_EQ(r1.expired, summary.expired_total);
  EXPECT_EQ(r1.terminated, summary.terminated_total);
  EXPECT_EQ(r1.served_epochs, summary.served_epochs);
  EXPECT_EQ(r1.violation_epochs, summary.violation_epochs);
  EXPECT_EQ(r1.earned_cents, summary.earned.as_cents());
  EXPECT_EQ(r1.penalty_cents, summary.penalties.as_cents());
  EXPECT_EQ(r1.net_cents, summary.net.as_cents());
  EXPECT_EQ(r1.reconfigurations, summary.reconfigurations);
  EXPECT_EQ(r1.contracted_mbps, summary.contracted_total.as_mbps());
  EXPECT_EQ(r1.reserved_mbps, summary.reserved_total.as_mbps());
  EXPECT_EQ(r1.multiplexing_gain, summary.multiplexing_gain);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace slices
