#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/json.h"
#include "datagen/biblio_gen.h"
#include "query/engine.h"
#include "query/result_json.h"

namespace netout {
namespace {

constexpr const char* kStarQuery =
    "FIND OUTLIERS FROM author{\"star_0\"}.paper.author "
    "JUDGED BY author.paper.venue TOP 5;";
constexpr const char* kVenueQuery =
    "FIND OUTLIERS FROM author{\"star_1\"}.paper.author "
    "JUDGED BY author.paper.term TOP 5;";

/// Blocking test client with a receive deadline, so a server bug shows
/// up as a failed assertion instead of a hung test binary.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    timeval timeout{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  Status SendBytes(std::string_view bytes) {
    return WriteFull(fd_, bytes.data(), bytes.size());
  }

  Status SendLine(std::string line) {
    line.push_back('\n');
    return SendBytes(line);
  }

  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  /// One response line; kIoError on EOF or after the 10s deadline.
  Result<std::string> ReadLine() {
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return Status::IoError("eof");
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
  }

  /// True when the server closed the connection (clean EOF).
  bool ReadEof() {
    char byte;
    for (;;) {
      const ssize_t n = ::recv(fd_, &byte, 1, 0);
      if (n == 0) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

JsonValue MustParse(const std::string& line) {
  auto doc = JsonParse(line);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString() << " in: " << line;
  return doc.ok() ? std::move(doc).value() : JsonValue::MakeNull();
}

/// The exact "outliers" array bytes of a serialized result — the
/// bitwise-identity comparand (stats/latency legitimately differ).
std::string ExtractOutliers(const std::string& json) {
  const std::size_t key = json.find("\"outliers\":[");
  if (key == std::string::npos) return "<missing>";
  std::size_t pos = key + std::strlen("\"outliers\":[");
  int depth = 1;
  while (pos < json.size() && depth > 0) {
    if (json[pos] == '[') ++depth;
    if (json[pos] == ']') --depth;
    ++pos;
  }
  return json.substr(key, pos - key);
}

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    BiblioConfig config;
    config.seed = 17;
    config.num_areas = 2;
    config.authors_per_area = 50;
    config.papers_per_area = 120;
    config.venues_per_area = 4;
    config.terms_per_area = 30;
    config.shared_terms = 12;
    dataset_ = new BiblioDataset(GenerateBiblio(config).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  /// Starts a server (ephemeral port) and its Serve() thread.
  void StartServer(ServerOptions options = {}) {
    EngineOptions engine_options;
    server_ = std::make_unique<Server>(dataset_->hin, engine_options,
                                       options);
    ASSERT_TRUE(server_->Start().ok());
    serve_thread_ = std::thread([this] {
      const Status status = server_->Serve();
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
  }

  /// Starts a mutation-enabled server: MutableHin over the dataset plus
  /// a delta-maintained PM index behind a cache — the full netout_serve
  /// default wiring.
  void StartMutableServer(ServerOptions options = {}) {
    mutable_hin_ = std::make_unique<MutableHin>(dataset_->hin);
    pm_ = PmIndex::Build(*dataset_->hin).value();
    cache_ = std::make_unique<CachedIndex>(pm_.get());
    EngineOptions engine_options;
    engine_options.index = cache_.get();
    MutationContext mutations;
    mutations.graph = mutable_hin_.get();
    mutations.pm = pm_.get();
    mutations.cache = cache_.get();
    server_ = std::make_unique<Server>(dataset_->hin, engine_options,
                                       options, cache_.get(), mutations);
    ASSERT_TRUE(server_->Start().ok());
    serve_thread_ = std::thread([this] {
      const Status status = server_->Serve();
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
  }

  void TearDown() override {
    if (server_ != nullptr && serve_thread_.joinable()) {
      server_->RequestShutdown();
      serve_thread_.join();
    }
  }

  /// What `netout_query --json` would print for this query — the
  /// identity reference.
  static std::string SoloResultJson(const std::string& query) {
    return SoloResultJsonOn(dataset_->hin, query);
  }

  /// Same, against an arbitrary snapshot (mutated-graph references).
  static std::string SoloResultJsonOn(const HinPtr& hin,
                                      const std::string& query) {
    EngineOptions engine_options;
    Engine engine(hin, engine_options);
    auto result = engine.Execute(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return QueryResultToJson(*hin, result.value(), /*pretty=*/false);
  }

  static BiblioDataset* dataset_;
  // Mutation context members are declared before server_ so they are
  // destroyed after it (the server borrows them).
  std::unique_ptr<MutableHin> mutable_hin_;
  std::unique_ptr<PmIndex> pm_;
  std::unique_ptr<CachedIndex> cache_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
};

BiblioDataset* ServerTest::dataset_ = nullptr;

TEST_F(ServerTest, PingStatsConfig) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine("{\"op\":\"ping\",\"id\":1}").ok());
  JsonValue pong = MustParse(client.ReadLine().value());
  EXPECT_TRUE(pong.Find("ok")->bool_value());
  EXPECT_EQ(pong.Find("id")->AsInt64().value(), 1);

  ASSERT_TRUE(client.SendLine("{\"op\":\"stats\"}").ok());
  JsonValue stats = MustParse(client.ReadLine().value());
  ASSERT_TRUE(stats.Find("ok")->bool_value());
  const JsonValue* requests = stats.Find("stats")->Find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->Find("received")->AsInt64().value(), 2);

  ASSERT_TRUE(client.SendLine("{\"op\":\"config\"}").ok());
  JsonValue config = MustParse(client.ReadLine().value());
  ASSERT_TRUE(config.Find("ok")->bool_value());
  EXPECT_EQ(config.Find("config")->Find("port")->AsInt64().value(),
            server_->port());
}

// The pool only widens large operators; one dispatcher still drains the
// queue, so a wider pool must not raise the backlog thresholds.
TEST_F(ServerTest, BacklogDefaultsDoNotScaleWithPoolWidth) {
  ServerOptions options;
  options.num_threads = 8;
  StartServer(options);
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine("{\"op\":\"config\"}").ok());
  JsonValue config = MustParse(client.ReadLine().value());
  ASSERT_TRUE(config.Find("ok")->bool_value());
  const JsonValue* body = config.Find("config");
  EXPECT_EQ(body->Find("num_threads")->AsInt64().value(), 8);
  EXPECT_EQ(body->Find("shed_backlog")->AsInt64().value(),
            static_cast<std::int64_t>(kDefaultShedBacklog));
  EXPECT_EQ(body->Find("max_backlog")->AsInt64().value(),
            static_cast<std::int64_t>(kDefaultMaxBacklog));
}

TEST_F(ServerTest, QueryBitwiseIdenticalToSoloEngine) {
  StartServer();
  const std::string expected = ExtractOutliers(SoloResultJson(kStarQuery));
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  JsonWriter json;
  json.BeginObject();
  json.Key("q");
  json.String(kStarQuery);
  json.EndObject();
  ASSERT_TRUE(client.SendLine(std::move(json).Take()).ok());
  const std::string line = client.ReadLine().value();
  JsonValue response = MustParse(line);
  ASSERT_TRUE(response.Find("ok")->bool_value()) << line;
  EXPECT_EQ(ExtractOutliers(line), expected);
  EXPECT_FALSE(response.Find("result")->Find("degraded")->bool_value());
}

TEST_F(ServerTest, ConcurrentSessionsStayBitwiseIdentical) {
  StartServer();
  const std::string expected_star =
      ExtractOutliers(SoloResultJson(kStarQuery));
  const std::string expected_venue =
      ExtractOutliers(SoloResultJson(kVenueQuery));
  constexpr int kSessions = 6;
  constexpr int kRounds = 4;
  std::vector<std::thread> sessions;
  std::atomic<int> mismatches{0};
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      TestClient client(server_->port());
      if (!client.connected()) {
        mismatches.fetch_add(1000);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        const bool star = (s + round) % 2 == 0;
        JsonWriter json;
        json.BeginObject();
        json.Key("q");
        json.String(star ? kStarQuery : kVenueQuery);
        json.EndObject();
        if (!client.SendLine(std::move(json).Take()).ok()) {
          mismatches.fetch_add(100);
          return;
        }
        auto line = client.ReadLine();
        if (!line.ok()) {
          mismatches.fetch_add(100);
          return;
        }
        const std::string& expected =
            star ? expected_star : expected_venue;
        if (ExtractOutliers(line.value()) != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& session : sessions) session.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServerStatsSnapshot stats = server_->stats();
  EXPECT_EQ(stats.queries_ok,
            static_cast<std::uint64_t>(kSessions * kRounds));
  EXPECT_EQ(stats.queries_error, 0u);
}

TEST_F(ServerTest, GarbageBytesGetErrorAndSessionSurvives) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine("\x7f garbage \x01 bytes").ok());
  JsonValue error = MustParse(client.ReadLine().value());
  EXPECT_FALSE(error.Find("ok")->bool_value());
  EXPECT_EQ(error.Find("error")->Find("code")->string_value(),
            "parse-error");
  // Framing was intact, so the session must still work.
  ASSERT_TRUE(client.SendLine("{\"op\":\"ping\"}").ok());
  EXPECT_TRUE(MustParse(client.ReadLine().value()).Find("ok")->bool_value());
}

TEST_F(ServerTest, OversizedLineGetsErrorThenClose) {
  ServerOptions options;
  options.limits.max_line_bytes = 512;
  StartServer(options);
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendBytes(std::string(4096, 'a')).ok());  // no newline
  JsonValue error = MustParse(client.ReadLine().value());
  EXPECT_FALSE(error.Find("ok")->bool_value());
  EXPECT_EQ(error.Find("error")->Find("code")->string_value(),
            "resource-exhausted");
  // Framing is unrecoverable: the server must hang up.
  EXPECT_TRUE(client.ReadEof());
}

TEST_F(ServerTest, HalfClosedSocketStillGetsItsAnswer) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  JsonWriter json;
  json.BeginObject();
  json.Key("q");
  json.String(kStarQuery);
  json.EndObject();
  ASSERT_TRUE(client.SendLine(std::move(json).Take()).ok());
  client.ShutdownWrite();  // half-close: we can still read
  const std::string line = client.ReadLine().value();
  EXPECT_TRUE(MustParse(line).Find("ok")->bool_value()) << line;
  EXPECT_TRUE(client.ReadEof());  // then the server finishes the close
}

TEST_F(ServerTest, ZeroDeadlineYieldsDegradedPartialAnswer) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  JsonWriter json;
  json.BeginObject();
  json.Key("q");
  json.String(kStarQuery);
  json.Key("timeout_ms");
  json.Int(0);
  json.EndObject();
  ASSERT_TRUE(client.SendLine(std::move(json).Take()).ok());
  const std::string line = client.ReadLine().value();
  JsonValue response = MustParse(line);
  // kPartial policy: the deadline trip is an answer, not an error.
  ASSERT_TRUE(response.Find("ok")->bool_value()) << line;
  const JsonValue* result = response.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->Find("degraded")->bool_value());
  EXPECT_EQ(result->Find("stop_reason")->string_value(), "deadline");
  const ServerStatsSnapshot stats = server_->stats();
  EXPECT_EQ(stats.queries_degraded, 1u);
}

TEST_F(ServerTest, SessionLimitRefusesExtraConnections) {
  ServerOptions options;
  options.max_sessions = 1;
  StartServer(options);
  TestClient first(server_->port());
  ASSERT_TRUE(first.connected());
  // The cap is enforced at accept time; make sure the first session is
  // registered before racing the second one in.
  ASSERT_TRUE(first.SendLine("{\"op\":\"ping\"}").ok());
  ASSERT_TRUE(first.ReadLine().ok());
  TestClient second(server_->port());
  ASSERT_TRUE(second.connected());
  JsonValue refusal = MustParse(second.ReadLine().value());
  EXPECT_FALSE(refusal.Find("ok")->bool_value());
  EXPECT_EQ(refusal.Find("error")->Find("code")->string_value(),
            "resource-exhausted");
  EXPECT_TRUE(second.ReadEof());
  // The admitted session is unaffected.
  ASSERT_TRUE(first.SendLine("{\"op\":\"ping\"}").ok());
  EXPECT_TRUE(MustParse(first.ReadLine().value()).Find("ok")->bool_value());
}

TEST_F(ServerTest, RemoteShutdownAcksAndDrains) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine("{\"op\":\"shutdown\",\"id\":9}").ok());
  JsonValue ack = MustParse(client.ReadLine().value());
  EXPECT_TRUE(ack.Find("ok")->bool_value());
  EXPECT_TRUE(client.ReadEof());
  serve_thread_.join();  // Serve() must return on its own
}

TEST_F(ServerTest, RemoteShutdownCanBeDisabled) {
  ServerOptions options;
  options.allow_remote_shutdown = false;
  StartServer(options);
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine("{\"op\":\"shutdown\"}").ok());
  JsonValue refusal = MustParse(client.ReadLine().value());
  EXPECT_FALSE(refusal.Find("ok")->bool_value());
  // Still serving.
  ASSERT_TRUE(client.SendLine("{\"op\":\"ping\"}").ok());
  EXPECT_TRUE(MustParse(client.ReadLine().value()).Find("ok")->bool_value());
}

TEST_F(ServerTest, WriteOverflowOnReadPathDropsSessionNotServer) {
  // A write cap smaller than one response makes the very first Enqueue
  // overflow inside the HandleLine loop — the path that used to free
  // the session under ReadFromSession's feet (use-after-free).
  ServerOptions options;
  options.max_session_write_bytes = 16;
  StartServer(options);
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // Several pipelined pings arrive in one recv, so the line loop keeps
  // running after the overflow; pre-fix this was a heap-use-after-free.
  std::string burst;
  for (int i = 0; i < 4; ++i) burst += "{\"op\":\"ping\"}\n";
  ASSERT_TRUE(client.SendBytes(burst).ok());
  // Pending output is dropped wholesale, so the client just sees EOF.
  EXPECT_TRUE(client.ReadEof());
  const ServerStatsSnapshot stats = server_->stats();
  EXPECT_GE(stats.sessions_overflowed, 1u);
  // The server itself must be unharmed: it still accepts and serves a
  // new session. Its ping response trips the tiny cap too, so the clean
  // EOF (rather than a hang or crash) is the aliveness signal.
  TestClient second(server_->port());
  ASSERT_TRUE(second.connected());
  ASSERT_TRUE(second.SendLine("{\"op\":\"ping\"}").ok());
  EXPECT_TRUE(second.ReadEof());
  EXPECT_GE(server_->stats().sessions_overflowed, 2u);
}

TEST_F(ServerTest, WriteOverflowOnCompletionPathDropsSessionNotServer) {
  // Same overflow, but triggered from DeliverCompletions: a query
  // response larger than the cap, enqueued after the dispatcher runs.
  ServerOptions options;
  options.max_session_write_bytes = 64;
  StartServer(options);
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  JsonWriter json;
  json.BeginObject();
  json.Key("q");
  json.String(kStarQuery);
  json.EndObject();
  ASSERT_TRUE(client.SendLine(std::move(json).Take()).ok());
  EXPECT_TRUE(client.ReadEof());
  const ServerStatsSnapshot stats = server_->stats();
  EXPECT_GE(stats.sessions_overflowed, 1u);
  TestClient second(server_->port());
  ASSERT_TRUE(second.connected());
  ASSERT_TRUE(second.SendLine("{\"op\":\"ping\"}").ok());
  EXPECT_TRUE(MustParse(second.ReadLine().value()).Find("ok")->bool_value());
}

// The streaming-ingest scenario: papers arrive as add_edge verbs on a
// live daemon while queries interleave. The served answers must stay
// byte-identical (on the "outliers" array) to a solo engine run against
// an equivalently mutated snapshot — the wire-level face of the
// incremental-equivalence gate.
TEST_F(ServerTest, StreamedMutationsKeepQueriesBitwiseIdenticalToSolo) {
  StartMutableServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  // Baseline: the unmutated snapshot answers exactly like solo.
  JsonWriter query_json;
  query_json.BeginObject();
  query_json.Key("q");
  query_json.String(kStarQuery);
  query_json.EndObject();
  const std::string query_line = std::move(query_json).Take();
  ASSERT_TRUE(client.SendLine(query_line).ok());
  const std::string baseline = client.ReadLine().value();
  ASSERT_TRUE(MustParse(baseline).Find("ok")->bool_value()) << baseline;
  EXPECT_EQ(ExtractOutliers(baseline),
            ExtractOutliers(SoloResultJson(kStarQuery)));

  // Three papers stream in for star_0, wired into an off-area venue —
  // enough signal to move the venue-judged scores.
  std::vector<std::string> ops;
  for (int i = 0; i < 3; ++i) {
    const std::string paper = "paper_live_" + std::to_string(i);
    ops.push_back("{\"op\":\"add_edge\",\"edge\":\"writes\","
                  "\"src\":\"star_0\",\"dst\":\"" +
                  paper + "\"}");
    ops.push_back("{\"op\":\"add_edge\",\"edge\":\"published_in\","
                  "\"src\":\"" +
                  paper + "\",\"dst\":\"venue_1_0\"}");
  }
  std::uint64_t last_epoch = 0;
  for (const std::string& op : ops) {
    ASSERT_TRUE(client.SendLine(op).ok());
    const std::string line = client.ReadLine().value();
    JsonValue ack = MustParse(line);
    ASSERT_TRUE(ack.Find("ok")->bool_value()) << line;
    const auto epoch =
        static_cast<std::uint64_t>(ack.Find("epoch")->AsInt64().value());
    EXPECT_GE(epoch, 1u);
    EXPECT_GE(epoch, last_epoch);  // epochs never move backward
    last_epoch = epoch;
  }

  // The reference: the same ops applied to a private MutableHin.
  MutableHin reference(dataset_->hin);
  for (int i = 0; i < 3; ++i) {
    const std::string paper = "paper_live_" + std::to_string(i);
    ASSERT_TRUE(reference
                    .AddEdge("writes", "star_0", paper, /*count=*/1,
                             /*create_vertices=*/true)
                    .ok());
    ASSERT_TRUE(reference
                    .AddEdge("published_in", paper, "venue_1_0",
                             /*count=*/1, /*create_vertices=*/true)
                    .ok());
  }
  const HinPtr expected_snapshot = reference.Commit().value().snapshot.hin;

  ASSERT_TRUE(client.SendLine(query_line).ok());
  const std::string after = client.ReadLine().value();
  JsonValue response = MustParse(after);
  ASSERT_TRUE(response.Find("ok")->bool_value()) << after;
  EXPECT_EQ(ExtractOutliers(after),
            ExtractOutliers(SoloResultJsonOn(expected_snapshot, kStarQuery)));
  // The response's stats advertise the epoch the query ran at.
  EXPECT_EQ(response.Find("result")
                ->Find("stats")
                ->Find("graph_epoch")
                ->AsInt64()
                .value(),
            static_cast<std::int64_t>(last_epoch));

  // The STATS verb exposes the mutation counters.
  ASSERT_TRUE(client.SendLine("{\"op\":\"stats\"}").ok());
  JsonValue stats = MustParse(client.ReadLine().value());
  ASSERT_TRUE(stats.Find("ok")->bool_value());
  const JsonValue* graph = stats.Find("stats")->Find("graph");
  ASSERT_NE(graph, nullptr);
  EXPECT_FALSE(graph->Find("read_only")->bool_value());
  EXPECT_EQ(graph->Find("epoch")->AsInt64().value(),
            static_cast<std::int64_t>(last_epoch));
  EXPECT_EQ(graph->Find("mutations_ok")->AsInt64().value(), 6);
  EXPECT_EQ(graph->Find("mutations_error")->AsInt64().value(), 0);
  EXPECT_GE(graph->Find("epochs_committed")->AsInt64().value(), 1);
  EXPECT_EQ(graph->Find("edges_added")->AsInt64().value(), 6);
  EXPECT_EQ(graph->Find("vertices_added")->AsInt64().value(), 3);
  EXPECT_GT(graph->Find("index_rows_patched")->AsInt64().value(), 0);
  EXPECT_EQ(graph->Find("index_patch_failures")->AsInt64().value(), 0);
}

TEST_F(ServerTest, MutationErrorsAreIsolatedPerRequest) {
  StartMutableServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // Deleting a link that does not exist fails with not-found...
  ASSERT_TRUE(
      client
          .SendLine("{\"op\":\"delete_edge\",\"edge\":\"writes\","
                    "\"src\":\"star_0\",\"dst\":\"no_such_paper\",\"id\":1}")
          .ok());
  JsonValue error = MustParse(client.ReadLine().value());
  EXPECT_FALSE(error.Find("ok")->bool_value());
  EXPECT_EQ(error.Find("error")->Find("code")->string_value(), "not-found");
  EXPECT_EQ(error.Find("id")->AsInt64().value(), 1);
  // ...without poisoning the session or the graph: a valid mutation and
  // a query still work.
  ASSERT_TRUE(client
                  .SendLine("{\"op\":\"add_vertex\",\"type\":\"author\","
                            "\"name\":\"fresh_author\",\"id\":2}")
                  .ok());
  JsonValue ack = MustParse(client.ReadLine().value());
  EXPECT_TRUE(ack.Find("ok")->bool_value());
  EXPECT_GE(ack.Find("epoch")->AsInt64().value(), 1);
  const ServerStatsSnapshot stats = server_->stats();
  EXPECT_EQ(stats.mutations_error, 1u);
  EXPECT_EQ(stats.mutations_ok, 1u);
  EXPECT_EQ(stats.vertices_added, 1u);
}

TEST_F(ServerTest, ReadOnlyServerRefusesMutations) {
  StartServer();  // no MutationContext: read-only
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client
                  .SendLine("{\"op\":\"add_vertex\",\"type\":\"author\","
                            "\"name\":\"Ava\"}")
                  .ok());
  JsonValue refusal = MustParse(client.ReadLine().value());
  EXPECT_FALSE(refusal.Find("ok")->bool_value());
  EXPECT_EQ(refusal.Find("error")->Find("code")->string_value(),
            "failed-precondition");
  // Still serving queries.
  ASSERT_TRUE(client.SendLine("{\"op\":\"ping\"}").ok());
  EXPECT_TRUE(MustParse(client.ReadLine().value()).Find("ok")->bool_value());
  // STATS advertises the read-only state.
  ASSERT_TRUE(client.SendLine("{\"op\":\"stats\"}").ok());
  JsonValue stats = MustParse(client.ReadLine().value());
  const JsonValue* graph = stats.Find("stats")->Find("graph");
  ASSERT_NE(graph, nullptr);
  EXPECT_TRUE(graph->Find("read_only")->bool_value());
  EXPECT_EQ(server_->stats().mutations_error, 1u);
}

TEST_F(ServerTest, PipelinedMutationsAndQueriesAnswerInOrder) {
  StartMutableServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // query, mutation, query pipelined in one burst: the dispatcher must
  // split the batch into runs yet answer strictly in request order, and
  // the second query must see the committed epoch.
  std::string burst;
  JsonWriter q0;
  q0.BeginObject();
  q0.Key("id");
  q0.Int(0);
  q0.Key("q");
  q0.String(kStarQuery);
  q0.EndObject();
  burst += std::move(q0).Take();
  burst += "\n{\"op\":\"add_edge\",\"edge\":\"writes\",\"src\":\"star_0\","
           "\"dst\":\"paper_pipelined\",\"id\":1}\n";
  JsonWriter q2;
  q2.BeginObject();
  q2.Key("id");
  q2.Int(2);
  q2.Key("q");
  q2.String(kStarQuery);
  q2.EndObject();
  burst += std::move(q2).Take();
  burst.push_back('\n');
  ASSERT_TRUE(client.SendBytes(burst).ok());

  JsonValue first = MustParse(client.ReadLine().value());
  EXPECT_EQ(first.Find("id")->AsInt64().value(), 0);
  ASSERT_TRUE(first.Find("ok")->bool_value());
  const std::int64_t epoch_before = first.Find("result")
                                        ->Find("stats")
                                        ->Find("graph_epoch")
                                        ->AsInt64()
                                        .value();
  JsonValue ack = MustParse(client.ReadLine().value());
  EXPECT_EQ(ack.Find("id")->AsInt64().value(), 1);
  ASSERT_TRUE(ack.Find("ok")->bool_value());
  const std::int64_t committed = ack.Find("epoch")->AsInt64().value();
  JsonValue second = MustParse(client.ReadLine().value());
  EXPECT_EQ(second.Find("id")->AsInt64().value(), 2);
  ASSERT_TRUE(second.Find("ok")->bool_value());
  const std::int64_t epoch_after = second.Find("result")
                                       ->Find("stats")
                                       ->Find("graph_epoch")
                                       ->AsInt64()
                                       .value();
  EXPECT_EQ(epoch_before, 0);
  EXPECT_GE(committed, 1);
  EXPECT_EQ(epoch_after, committed);
}

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (int i = 0; i < 5; ++i) {
    JsonWriter json;
    json.BeginObject();
    json.Key("id");
    json.Int(i);
    json.Key("q");
    json.String(kStarQuery);
    json.EndObject();
    burst += std::move(json).Take();
    burst.push_back('\n');
  }
  ASSERT_TRUE(client.SendBytes(burst).ok());
  for (int i = 0; i < 5; ++i) {
    JsonValue response = MustParse(client.ReadLine().value());
    EXPECT_TRUE(response.Find("ok")->bool_value());
    EXPECT_EQ(response.Find("id")->AsInt64().value(), i);
  }
}

}  // namespace
}  // namespace netout
