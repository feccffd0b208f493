// End-to-end service behavior (the PR's acceptance contract): (a) a query
// that queues behind a saturated slot still returns byte-identical
// results, (b) overload sheds with a clean kResourceExhausted, (c) a
// drain cancels in-flight queries with a clean kCancelled and leaves the
// global tracker at zero, (d) the startup sweep reclaims orphaned spill
// directories — each observable through the service.* metrics.
//
// ServiceState tests run Handle() in process; drain and fault tests run
// the real EcadServer over a unix socket.

#include <gtest/gtest.h>

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "algebra/plan_parser.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "eca/optimizer.h"
#include "expr/pred_parser.h"
#include "service/server.h"
#include "service/session.h"
#include "service/wire.h"
#include "storage/csv.h"
#include "testing/fault_injection.h"
#include "testing/random_data.h"

namespace eca {
namespace {

namespace fs = std::filesystem;

Database TestData(int rels, int rows) {
  Rng rng(12345);
  RandomDataOptions opts;
  opts.min_rows = rows;
  opts.max_rows = rows;
  opts.empty_prob = 0;
  Database db;
  for (int i = 0; i < rels; ++i) db.Add(RandomRelation(rng, i, opts));
  return db;
}

WireMessage QueryMessage(bool with_rows = true) {
  WireMessage msg;
  msg.type = "QUERY";
  msg.Add("plan", "(R0 join[p01] (R1 join[p12] R2))");
  msg.Add("pred", "p01=R0.a = R1.a");
  msg.Add("pred", "p12=R1.b = R2.b");
  if (with_rows) msg.AddInt("rows", 1);
  return msg;
}

// The solo oracle: the same query optimized and executed outside the
// service, rendered with the same deterministic .tbl encoding the wire
// carries.
std::string SoloResult(const Database& db, bool sizes_only = false) {
  std::map<std::string, PredRef> preds;
  std::string error;
  preds["p01"] = ParsePredicate("R0.a = R1.a", "p01", &error);
  preds["p12"] = ParsePredicate("R1.b = R2.b", "p12", &error);
  PlanPtr plan = ParsePlan("(R0 join[p01] (R1 join[p12] R2))", preds,
                           &error);
  EXPECT_NE(plan, nullptr) << error;
  Optimizer opt;
  auto best = sizes_only ? opt.OptimizeSizesOnly(*plan, db)
                         : opt.Optimize(*plan, db);
  EXPECT_NE(best.plan, nullptr);
  return RelationToTbl(opt.Execute(*best.plan, db));
}

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().counter(name)->value();
}

// -------------------------------------------------------------------
// In-process ServiceState tests.

TEST(ServiceStateTest, PingAndMetricsAndUnknownType) {
  Database db = TestData(2, 8);
  ServiceState state(&db, ServiceOptions{});
  WireMessage ping;
  ping.type = "PING";
  EXPECT_EQ(state.Handle(ping).type, "PONG");

  WireMessage metrics;
  metrics.type = "METRICS";
  WireMessage scraped = state.Handle(metrics);
  EXPECT_EQ(scraped.type, "METRICS");
  const std::string* json = scraped.Find("json");
  ASSERT_NE(json, nullptr);
  EXPECT_NE(json->find("service.requests"), std::string::npos);

  WireMessage bogus;
  bogus.type = "NOPE";
  WireMessage err = state.Handle(bogus);
  EXPECT_EQ(err.type, "ERROR");
  EXPECT_EQ(*err.Find("status"), "INVALID_ARGUMENT");
}

TEST(ServiceStateTest, MalformedQueriesFailWithoutAdmission) {
  Database db = TestData(2, 8);
  ServiceState state(&db, ServiceOptions{});
  const int64_t admitted_before = CounterValue("service.admitted");

  WireMessage no_plan;
  no_plan.type = "QUERY";
  EXPECT_EQ(*state.Handle(no_plan).Find("status"), "INVALID_ARGUMENT");

  WireMessage bad_pred = QueryMessage();
  bad_pred.fields[1].second = "p01=R0.a @@ R1.a";
  EXPECT_EQ(*state.Handle(bad_pred).Find("status"), "INVALID_ARGUMENT");

  WireMessage bad_rel = QueryMessage();
  bad_rel.fields[0].second = "(R0 join[p01] R9)";
  EXPECT_EQ(*state.Handle(bad_rel).Find("status"), "INVALID_ARGUMENT");

  WireMessage bad_int = QueryMessage();
  bad_int.Add("timeout_ms", "soon");
  EXPECT_EQ(*state.Handle(bad_int).Find("status"), "INVALID_ARGUMENT");

  // None of these consumed an admission slot.
  EXPECT_EQ(CounterValue("service.admitted"), admitted_before);
  EXPECT_EQ(state.admission().active(), 0);
}

// Acceptance (a): a query that has to queue behind a busy slot completes
// with results byte-identical to a solo run, and the wait is visible in
// queue_wait_ms and service.queued.
TEST(ServiceStateTest, QueuedQueryReturnsByteIdenticalResults) {
  Database db = TestData(3, 48);
  const std::string solo = SoloResult(db);

  ServiceOptions options;
  options.admission.max_concurrent = 1;
  ServiceState state(&db, options);

  const int64_t admitted_before = CounterValue("service.admitted");
  const int64_t queued_before = CounterValue("service.queued");

  // Saturate the only slot, forcing the real query to queue.
  StatusOr<Admission> hold = state.admission().Admit(0, 0);
  ASSERT_TRUE(hold.ok());

  WireMessage response;
  std::thread client([&] { response = state.Handle(QueryMessage()); });
  while (state.admission().queued() != 1) std::this_thread::yield();
  state.admission().Release(*hold);
  client.join();

  ASSERT_EQ(response.type, "RESULT")
      << (response.Find("message") != nullptr ? *response.Find("message")
                                              : "");
  ASSERT_NE(response.Find("data"), nullptr);
  EXPECT_EQ(*response.Find("data"), solo)
      << "service result must be byte-identical to the solo run";
  EXPECT_EQ(*response.Find("degraded"), "0");
  EXPECT_EQ(CounterValue("service.admitted"), admitted_before + 2);
  EXPECT_EQ(CounterValue("service.queued"), queued_before + 1);
  EXPECT_EQ(state.admission().active(), 0);
  EXPECT_EQ(state.root_tracker().used(), 0);
}

// Acceptance (b): saturation past the queue bound sheds with a clean
// kResourceExhausted and bumps service.shed.
TEST(ServiceStateTest, OverloadShedsWithResourceExhausted) {
  Database db = TestData(3, 16);
  ServiceOptions options;
  options.admission.max_concurrent = 1;
  options.admission.max_queue = 0;
  ServiceState state(&db, options);

  const int64_t shed_before = CounterValue("service.shed");
  StatusOr<Admission> hold = state.admission().Admit(0, 0);
  ASSERT_TRUE(hold.ok());

  WireMessage response = state.Handle(QueryMessage());
  EXPECT_EQ(response.type, "ERROR");
  EXPECT_EQ(*response.Find("status"), "RESOURCE_EXHAUSTED");
  EXPECT_EQ(CounterValue("service.shed"), shed_before + 1);
  state.admission().Release(*hold);

  // The service recovered: the same query succeeds once the load is gone.
  EXPECT_EQ(state.Handle(QueryMessage()).type, "RESULT");
  EXPECT_EQ(state.root_tracker().used(), 0);
}

// A full plan cache keeps learning: with a budget far below the working
// set of many distinct query templates, concurrent clients' publishes
// evict least-recently-used entries instead of being rejected. Every
// result still matches the solo run, and the root tracker drains to zero.
TEST(ServiceStateTest, SmallPlanCacheEvictsUnderConcurrentClients) {
  constexpr int kClients = 4;
  Database db = TestData(5, 12);
  const char* kOps[] = {"join", "loj", "laj", "lsj"};
  const char* kPreds[] = {"p01=R0.a = R1.a", "p12=R1.b = R2.b",
                          "p23=R2.a = R3.a", "p34=R3.b = R4.b"};
  // 16 distinct templates: the ops of the two outer joins of a 5-way chain.
  std::vector<WireMessage> templates;
  std::vector<std::string> solo;
  for (const char* outer : kOps) {
    for (const char* inner : kOps) {
      std::string plan = std::string("(R0 ") + outer + "[p01] (R1 " + inner +
                         "[p12] (R2 join[p23] (R3 loj[p34] R4))))";
      WireMessage msg;
      msg.type = "QUERY";
      msg.Add("plan", plan);
      for (const char* pred : kPreds) msg.Add("pred", pred);
      msg.AddInt("rows", 1);
      templates.push_back(msg);

      std::map<std::string, PredRef> preds;
      std::string error;
      for (const char* spec : kPreds) {
        std::string text(spec);
        size_t eq = text.find('=');
        std::string name = text.substr(0, eq);
        preds[name] = ParsePredicate(text.substr(eq + 1), name, &error);
      }
      PlanPtr parsed = ParsePlan(plan, preds, &error);
      ASSERT_NE(parsed, nullptr) << error;
      Optimizer opt;
      auto best = opt.Optimize(*parsed, db);
      solo.push_back(RelationToTbl(opt.Execute(*best.plan, db)));
    }
  }

  ServiceOptions options;
  options.admission.max_concurrent = 2;
  options.plan_cache_bytes = 64 << 10;
  ServiceState state(&db, options);
  ASSERT_NE(state.plan_cache(), nullptr);
  const int64_t evictions_before = CounterValue("memo.lru_evictions");
  const int64_t rejects_before = CounterValue("memo.mem_rejects");

  // Each client walks every template twice, starting at its own offset.
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const size_t n = templates.size();
      for (size_t k = 0; k < 2 * n; ++k) {
        const size_t t = (k + static_cast<size_t>(c) * 4) % n;
        WireMessage response = state.Handle(templates[t]);
        const std::string* data = response.Find("data");
        if (response.type != "RESULT" || data == nullptr ||
            *data != solo[t]) {
          failures[static_cast<size_t>(c)] =
              "template " + std::to_string(t) + ": " + response.type;
          return;
        }
        if (state.plan_cache()->used_bytes() >
            state.plan_cache()->max_bytes()) {
          failures[static_cast<size_t>(c)] = "cache over its byte budget";
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");

  EXPECT_GT(CounterValue("memo.lru_evictions"), evictions_before);
  EXPECT_EQ(CounterValue("memo.mem_rejects"), rejects_before);
  EXPECT_GT(state.plan_cache()->entry_count(), 0);
  EXPECT_EQ(state.root_tracker().used(), state.plan_cache()->used_bytes());
  state.ClearPlanCache();
  EXPECT_EQ(state.root_tracker().used(), 0);
}

// A token registered after CancelAll (a query admitted just before the
// drain) is cancelled on arrival and counted as drained.
TEST(CancelRegistryTest, LateRegistrationIsCancelledAndCounted) {
  CancelRegistry registry;
  const int64_t drained_before = CounterValue("service.drained");
  EXPECT_EQ(registry.CancelAll(), 0);
  EXPECT_EQ(CounterValue("service.drained"), drained_before);
  CancelToken token;
  registry.Register(&token);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(CounterValue("service.drained"), drained_before + 1);
  registry.Unregister(&token);
}

// A deadline the estimated runtime cannot fit is rejected before wasting
// queue time (early kResourceExhausted).
TEST(ServiceStateTest, HopelessDeadlineRejectedEarly) {
  Database db = TestData(3, 16);
  ServiceOptions options;
  options.admission.max_concurrent = 1;
  options.admission.est_run_ms = 10000;
  ServiceState state(&db, options);

  const int64_t rejected_before = CounterValue("service.deadline_rejected");
  StatusOr<Admission> hold = state.admission().Admit(0, 0);
  ASSERT_TRUE(hold.ok());
  WireMessage request = QueryMessage();
  request.AddInt("timeout_ms", 50);
  WireMessage response = state.Handle(request);
  EXPECT_EQ(response.type, "ERROR");
  EXPECT_EQ(*response.Find("status"), "RESOURCE_EXHAUSTED");
  EXPECT_EQ(CounterValue("service.deadline_rejected"), rejected_before + 1);
  state.admission().Release(*hold);
}

// The degraded-mode contract: a deadline below degrade_below_ms plans
// sizes-only, the response carries degraded=1 plus the trigger, and the
// result is still correct (the fallback changes the join order, never
// the answer).
TEST(ServiceStateTest, TightDeadlineDegradesPlanningNotResults) {
  Database db = TestData(3, 48);
  // The oracle runs the sizes-only planner too: the fallback may pick a
  // different join order than the full search (permuting row order), so
  // the service bytes are pinned against a solo run of the same mode.
  const std::string solo = SoloResult(db, /*sizes_only=*/true);

  ServiceOptions options;
  options.admission.degrade_below_ms = 60000;
  ServiceState state(&db, options);

  const int64_t degraded_before = CounterValue("service.degraded");
  WireMessage request = QueryMessage();
  request.AddInt("timeout_ms", 30000);  // below the degrade threshold,
                                        // roomy enough to finish
  WireMessage response = state.Handle(request);
  ASSERT_EQ(response.type, "RESULT")
      << (response.Find("message") != nullptr ? *response.Find("message")
                                              : "");
  EXPECT_EQ(*response.Find("degraded"), "1");
  ASSERT_NE(response.Find("trigger"), nullptr);
  EXPECT_EQ(*response.Find("trigger"), "sizes-only-fallback");
  ASSERT_NE(response.Find("data"), nullptr);
  EXPECT_EQ(*response.Find("data"), solo)
      << "degraded planning must not change results";
  EXPECT_EQ(CounterValue("service.degraded"), degraded_before + 1);
}

// -------------------------------------------------------------------
// Full-server tests over a real unix socket.

#ifndef _WIN32

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() /
          (name + "-" + std::to_string(::getpid())))
      .string();
}

StatusOr<int> ConnectTo(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Unavailable("connect failed");
  }
  return fd;
}

TEST(EcadServerTest, ServesQueriesOverTheSocket) {
  Database db = TestData(3, 48);
  const std::string solo = SoloResult(db);
  ServerConfig config;
  config.socket_path = TempPath("ecad-test-basic");
  EcadServer server(&db, config);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<int> fd = ConnectTo(config.socket_path);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  StatusOr<WireMessage> response = RoundTrip(*fd, QueryMessage());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->type, "RESULT");
  EXPECT_EQ(*response->Find("data"), solo);

  // The connection is reusable: a second request on the same fd.
  WireMessage ping;
  ping.type = "PING";
  StatusOr<WireMessage> pong = RoundTrip(*fd, ping);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->type, "PONG");
  ::close(*fd);

  server.Stop();
  EXPECT_EQ(server.state().root_tracker().used(), 0);
}

// Acceptance (d): the startup sweep reclaims spill directories orphaned
// by a crashed process before serving anything.
TEST(EcadServerTest, StartupSweepReclaimsOrphanedSpillDirs) {
  Database db = TestData(2, 8);
  const std::string spill_base = TempPath("ecad-test-spill");
  fs::remove_all(spill_base);
  fs::create_directories(spill_base);
  const std::string orphan = spill_base + "/eca-q2000000000-4";
  fs::create_directories(orphan);
  {
    std::ofstream out(orphan + "/partition-3.bin");
    out << "rows from a crashed ecad";
  }

  ServerConfig config;
  config.socket_path = TempPath("ecad-test-sweep");
  config.service.spill_dir = spill_base;
  EcadServer server(&db, config);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.swept_spill_dirs(), 1);
  EXPECT_FALSE(fs::exists(orphan));
  server.Stop();
  fs::remove_all(spill_base);
}

// Acceptance (c): SIGTERM-style drain — Stop() while a query is
// mid-execution cancels it; the client receives a clean kCancelled
// response, service.drained counts it, and the global tracker is zero.
TEST(EcadServerTest, DrainCancelsInFlightQueryCleanly) {
  // Big enough that the join reliably runs for seconds on one core: the
  // drain lands mid-execution.
  Database db = TestData(2, 4000);
  ServerConfig config;
  config.socket_path = TempPath("ecad-test-drain");
  config.service.client_mem_limit_bytes = int64_t{4} << 30;
  EcadServer server(&db, config);
  ASSERT_TRUE(server.Start().ok());

  const int64_t drained_before = CounterValue("service.drained");

  WireMessage request;
  request.type = "QUERY";
  request.Add("plan", "(R0 join[p01] R1)");
  request.Add("pred", "p01=R0.a = R1.a");
  StatusOr<WireMessage> response = Status::Internal("not yet");
  std::thread client([&] {
    StatusOr<int> fd = ConnectTo(config.socket_path);
    ASSERT_TRUE(fd.ok());
    response = RoundTrip(*fd, request);
    ::close(*fd);
  });

  // Wait until the query holds its admission slot (it is optimizing or
  // executing), then drain.
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.state().admission().active() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  ASSERT_EQ(server.state().admission().active(), 1);
  server.Stop();
  client.join();

  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->type, "ERROR");
  EXPECT_EQ(*response->Find("status"), "CANCELLED")
      << *response->Find("message");
  EXPECT_EQ(CounterValue("service.drained"), drained_before + 1);
  EXPECT_EQ(server.state().root_tracker().used(), 0);
  EXPECT_TRUE(server.state().admission().draining());

  // After the drain the socket is gone: clients fail over, they do not
  // hang.
  EXPECT_FALSE(ConnectTo(config.socket_path).ok());
}

// Satellite: a session whose response write fails (kServiceWrite) must
// not leak a single tracker byte — the query fully unwound before the
// frame ever hit the socket.
TEST(EcadServerTest, WriteFaultLeaksNoTrackerBytes) {
  Database db = TestData(3, 32);
  ServerConfig config;
  config.socket_path = TempPath("ecad-test-wfault");
  config.fault_write_skip = 0;  // every response write fails
  EcadServer server(&db, config);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<int> fd = ConnectTo(config.socket_path);
  ASSERT_TRUE(fd.ok());
  StatusOr<WireMessage> response = RoundTrip(*fd, QueryMessage());
  ::close(*fd);
  // The query ran; its response frame was dropped mid-stream.
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable)
      << response.status().ToString();

  // The session died, the query did not leak.
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.state().admission().active() != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_EQ(server.state().admission().active(), 0);
  EXPECT_EQ(server.state().root_tracker().used(), 0);
  server.Stop();
  EXPECT_EQ(server.state().root_tracker().used(), 0);
}

// An accept-time connection drop (kServiceAccept) hits exactly one
// connection; the next connect succeeds, which is what the client's
// retry loop leans on.
TEST(EcadServerTest, AcceptFaultDropsOneConnectionThenRecovers) {
  Database db = TestData(2, 8);
  ServerConfig config;
  config.socket_path = TempPath("ecad-test-afault");
  config.fault_accept_skip = 0;  // drop the first accepted connection
  EcadServer server(&db, config);
  ASSERT_TRUE(server.Start().ok());

  const int64_t faults_before = CounterValue("service.accept_faults");
  WireMessage ping;
  ping.type = "PING";

  // First connection: accepted then immediately dropped by the fault.
  {
    StatusOr<int> fd = ConnectTo(config.socket_path);
    ASSERT_TRUE(fd.ok());
    StatusOr<WireMessage> response = RoundTrip(*fd, ping);
    ::close(*fd);
    EXPECT_FALSE(response.ok());
  }
  EXPECT_EQ(CounterValue("service.accept_faults"), faults_before + 1);

  // Retry: served normally.
  {
    StatusOr<int> fd = ConnectTo(config.socket_path);
    ASSERT_TRUE(fd.ok());
    StatusOr<WireMessage> response = RoundTrip(*fd, ping);
    ::close(*fd);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->type, "PONG");
  }
  server.Stop();
}

#endif  // _WIN32

}  // namespace
}  // namespace eca
