// Network substrate tests: message framing, channel accounting/faults, RPC
// dispatch and error propagation.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/status.hpp"
#include "common/stopwatch.hpp"
#include "core/cloud_node.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "net/methods.hpp"
#include "net/resilience.hpp"
#include "net/rpc.hpp"

namespace datablinder::net {
namespace {

TEST(MessageTest, RequestRoundTrip) {
  Request r;
  r.method = "det.search";
  r.payload = Bytes{1, 2, 3};
  const Request back = Request::deserialize(r.serialize());
  EXPECT_EQ(back.method, "det.search");
  EXPECT_EQ(back.payload, (Bytes{1, 2, 3}));
}

TEST(MessageTest, ResponseRoundTrips) {
  const Response ok = Response::success(Bytes{9, 8});
  const Response back = Response::deserialize(ok.serialize());
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.payload, (Bytes{9, 8}));

  const Response err = Response::failure(ErrorCode::kNotFound, "missing doc");
  const Response eback = Response::deserialize(err.serialize());
  EXPECT_FALSE(eback.ok);
  EXPECT_EQ(eback.error, ErrorCode::kNotFound);
  EXPECT_EQ(eback.error_message, "missing doc");
}

TEST(MessageTest, MalformedRejected) {
  EXPECT_THROW(Request::deserialize(Bytes{0, 0}), Error);
  EXPECT_THROW(Response::deserialize(Bytes{}), Error);
  Bytes extra = Response::success({}).serialize();
  extra.push_back(1);
  EXPECT_THROW(Response::deserialize(extra), Error);
}

TEST(BatchCodecTest, RoundTripsFramesAsViews) {
  BatchWriter w;
  w.add(Bytes{1, 2, 3});
  w.add(Bytes{});
  w.add(Bytes{9});
  const Bytes batch = std::move(w).finish();
  EXPECT_EQ(batch, (Bytes{0, 0, 0, 3, 0, 0, 0, 3, 1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 1, 9}));
  const std::vector<BytesView> frames = read_batch(batch);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(Bytes(frames[0].begin(), frames[0].end()), (Bytes{1, 2, 3}));
  EXPECT_TRUE(frames[1].empty());
  EXPECT_EQ(Bytes(frames[2].begin(), frames[2].end()), (Bytes{9}));
  const Bytes empty = BatchWriter().finish();
  EXPECT_EQ(empty, (Bytes{0, 0, 0, 0}));
  EXPECT_TRUE(read_batch(empty).empty());
}

TEST(BatchCodecTest, MalformedBatchesThrowTheCallersCode) {
  const Bytes bad[] = {
      {},                                   // no count
      {0, 0, 0},                            // short count
      {0, 0, 0, 1},                         // count without a frame
      {0, 0, 0, 1, 0, 0, 0, 2, 7},          // frame shorter than its length
      {0, 0, 0, 0, 5},                      // trailing bytes
      {0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}  // count the bytes cannot hold
  };
  for (const Bytes& b : bad) {
    for (const ErrorCode code : {ErrorCode::kProtocolError, ErrorCode::kInternal}) {
      try {
        read_batch(b, code);
        ADD_FAILURE() << "accepted " << b.size() << " bytes";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), code);
      }
    }
  }
}

TEST(MethodTableTest, CloudNodeRegistersExactlyTheTable) {
  core::CloudNode node;
  EXPECT_EQ(node.rpc().method_count(), cloud_methods().size());
  EXPECT_EQ(cloud_methods().size(), 44u);
  for (const MethodInfo& m : cloud_methods()) {
    // A second registration of a name CloudNode already serves is refused.
    try {
      node.rpc().register_method(std::string(m.name), [](BytesView) { return Bytes{}; });
      ADD_FAILURE() << m.name << " is in the table but CloudNode does not register it";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kAlreadyExists) << m.name;
    }
    EXPECT_EQ(find_method(m.name), &m);
  }
  EXPECT_EQ(find_method("echo.get"), nullptr);
}

TEST(MethodTableTest, StandardRetryPolicyIsEveryReplaySafeRow) {
  // Every row is replay-safe (see net/methods.hpp); nothing else is.
  std::set<std::string> rows;
  for (const MethodInfo& m : cloud_methods()) rows.emplace(m.name);
  EXPECT_EQ(RetryPolicy::standard().retryable_methods, rows);
}

TEST(MethodTableTest, DeferrableRowsAreSingleShardUpdates) {
  // A deferred call is answered with an empty object before it is sent, and
  // its batch is split per shard: only single-shard updates qualify.
  for (const MethodInfo& m : cloud_methods()) {
    if (!m.deferrable) continue;
    EXPECT_EQ(m.kind, MethodKind::kUpdate) << m.name;
    EXPECT_LT(m.placement, Placement::kScatterMget) << m.name;
  }
  // Broadcast rows, and only they, name a merge.
  for (const MethodInfo& m : cloud_methods()) {
    EXPECT_EQ(m.placement == Placement::kBroadcast, m.merge != Merge::kNone) << m.name;
    EXPECT_EQ(m.merge == Merge::kCounterSum, !m.sum_field.empty()) << m.name;
  }
}

TEST(MethodTableTest, CaptureQueuesExactlyTheDeferrableRows) {
  // Every row, and a name outside the table, called inside one capture
  // section against a server that serves nothing: a queued call returns at
  // once, any other travels and fails on the server.
  RpcServer server;
  Channel channel;
  RpcClient client(server, channel);
  std::set<std::string> deferrable;
  const std::vector<Request> captured = client.capture([&] {
    for (const MethodInfo& m : cloud_methods()) {
      if (m.deferrable) deferrable.emplace(m.name);
      try {
        client.call(std::string(m.name), Bytes{});
      } catch (const Error&) {
      }
    }
    EXPECT_THROW(client.call("echo.put", Bytes{}), Error);
  });
  std::set<std::string> queued;
  for (const Request& r : captured) queued.emplace(r.method);
  EXPECT_FALSE(deferrable.empty());
  EXPECT_EQ(queued, deferrable);
  EXPECT_EQ(channel.stats().round_trips.load(),
            cloud_methods().size() - deferrable.size() + 1);
}

TEST(ChannelTest, AccountsBytesAndRoundTrips) {
  Channel ch;
  ch.transfer_request(100);
  ch.transfer_response(50);
  ch.transfer_request(10);
  ch.transfer_response(5);
  EXPECT_EQ(ch.stats().bytes_sent.load(), 110u);
  EXPECT_EQ(ch.stats().bytes_received.load(), 55u);
  EXPECT_EQ(ch.stats().round_trips.load(), 2u);
  ch.stats().reset();
  EXPECT_EQ(ch.stats().round_trips.load(), 0u);
}

TEST(ChannelTest, LatencyIsApplied) {
  ChannelConfig cfg;
  cfg.one_way_latency_us = 2000;
  Channel ch(cfg);
  Stopwatch sw;
  ch.transfer_request(10);
  ch.transfer_response(10);
  EXPECT_GE(sw.elapsed_us(), 3500.0);  // ~2 x 2ms, scheduler slack allowed
}

TEST(ChannelTest, BandwidthDelaysLargeTransfers) {
  ChannelConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1000000;  // 1 MB/s
  Channel ch(cfg);
  Stopwatch sw;
  ch.transfer_request(10000);  // => 10ms serialization delay
  EXPECT_GE(sw.elapsed_us(), 8000.0);
}

TEST(ChannelTest, ClosedChannelFails) {
  Channel ch;
  ch.close();
  EXPECT_THROW(ch.transfer_request(1), Error);
  ch.reopen();
  EXPECT_NO_THROW(ch.transfer_request(1));
}

TEST(ChannelTest, FaultInjectionFiresEventually) {
  ChannelConfig cfg;
  cfg.failure_probability = 0.5;
  Channel ch(cfg);
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    try {
      ch.transfer_request(1);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
      ++failures;
    }
  }
  EXPECT_GT(failures, 20);
  EXPECT_LT(failures, 180);
}

TEST(RpcTest, DispatchAndErrorPropagation) {
  RpcServer server;
  server.register_method("echo", [](BytesView p) { return Bytes(p.begin(), p.end()); });
  server.register_method("boom", [](BytesView) -> Bytes {
    throw_error(ErrorCode::kSchemaViolation, "bad document");
  });
  EXPECT_THROW(server.register_method("echo", [](BytesView) { return Bytes{}; }), Error);
  EXPECT_EQ(server.method_count(), 2u);

  Channel ch;
  RpcClient client(server, ch);
  EXPECT_EQ(client.call("echo", Bytes{4, 2}), (Bytes{4, 2}));

  try {
    client.call("boom", {});
    FAIL() << "expected error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSchemaViolation);  // code crosses the wire
  }

  try {
    client.call("unknown", {});
    FAIL() << "expected error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
}

TEST(RpcTest, NonDataBlinderExceptionsBecomeInternal) {
  RpcServer server;
  server.register_method("std", [](BytesView) -> Bytes {
    throw std::runtime_error("plain std failure");
  });
  Channel ch;
  RpcClient client(server, ch);
  try {
    client.call("std", {});
    FAIL() << "expected error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
}

}  // namespace
}  // namespace datablinder::net
