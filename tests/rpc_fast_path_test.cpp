// Caller-runs fast path: an idle, un-faulted endpoint answers on the
// caller's thread; every fault primitive forces the queued path and keeps
// its semantics; at most `workers` handlers ever run at once; and
// unregistering waits for fast-path handlers still running.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rpc/transport.hpp"

namespace ftc::rpc {
namespace {

using namespace std::chrono_literals;

/// Counts which path served each request.  The fast path answers every
/// path except "/miss", which it declines as a server declines a miss.
struct Probe {
  std::atomic<int> fast_calls{0};
  std::atomic<int> queued_calls{0};

  Transport::Handler queued() {
    return [this](const RpcRequest& request) {
      ++queued_calls;
      RpcResponse response;
      response.code = StatusCode::kOk;
      response.payload = "queued:" + request.path;
      return response;
    };
  }
  Transport::FastHandler fast() {
    return [this](const RpcRequest& request) -> std::optional<RpcResponse> {
      ++fast_calls;
      if (request.path == "/miss") return std::nullopt;
      RpcResponse response;
      response.code = StatusCode::kOk;
      response.payload = "fast:" + request.path;
      return response;
    };
  }
};

RpcRequest read_of(const std::string& path, NodeId sender = 7) {
  RpcRequest request;
  request.op = Op::kReadFile;
  request.path = path;
  request.client_node = sender;
  return request;
}

TEST(TransportFastPath, IdleEndpointAnswersOnCallersThread) {
  Transport transport;
  Probe probe;
  ASSERT_TRUE(
      transport.register_endpoint(0, probe.queued(), 2, probe.fast()).is_ok());
  auto result = transport.call(0, read_of("/a"), 1000ms);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().payload, "fast:/a");
  EXPECT_EQ(probe.queued_calls.load(), 0);
  const auto stats = transport.stats(0);
  EXPECT_EQ(stats.received, 1u);
  EXPECT_EQ(stats.received_data, 1u);
  EXPECT_EQ(stats.handled, 1u);
  EXPECT_EQ(stats.inline_handled, 1u);
}

TEST(TransportFastPath, DeclinedRequestFallsBackCountedOnce) {
  Transport transport;
  Probe probe;
  transport.register_endpoint(0, probe.queued(), 1, probe.fast());
  auto result = transport.call(0, read_of("/miss"), 1000ms);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().payload, "queued:/miss");
  EXPECT_EQ(probe.fast_calls.load(), 1);
  EXPECT_EQ(probe.queued_calls.load(), 1);
  const auto stats = transport.stats(0);
  EXPECT_EQ(stats.received, 1u);
  EXPECT_EQ(stats.handled, 1u);
  EXPECT_EQ(stats.inline_handled, 0u);
}

TEST(TransportFastPath, KilledEndpointTimesOutNeverAnswersFast) {
  Transport transport;
  Probe probe;
  transport.register_endpoint(0, probe.queued(), 2, probe.fast());
  transport.kill(0);
  auto result = transport.call(0, read_of("/a"), 30ms);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(probe.fast_calls.load(), 0);
  EXPECT_EQ(probe.queued_calls.load(), 0);
  EXPECT_EQ(transport.stats(0).dropped, 1u);

  transport.revive(0);
  result = transport.call(0, read_of("/a"), 1000ms);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().payload, "fast:/a");
}

TEST(TransportFastPath, DropNextForcesQueuedDrop) {
  Transport transport;
  Probe probe;
  transport.register_endpoint(0, probe.queued(), 2, probe.fast());
  transport.drop_next(0, 1);
  auto dropped = transport.call(0, read_of("/a"), 30ms);
  EXPECT_EQ(dropped.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(probe.fast_calls.load(), 0);
  EXPECT_EQ(transport.stats(0).dropped, 1u);
  // The blip is over: the next request is served fast again.
  auto served = transport.call(0, read_of("/a"), 1000ms);
  ASSERT_TRUE(served.is_ok());
  EXPECT_EQ(served.value().payload, "fast:/a");
}

TEST(TransportFastPath, DropProbabilityForcesQueuedPath) {
  Transport transport;
  Probe probe;
  transport.register_endpoint(0, probe.queued(), 2, probe.fast());
  transport.set_drop_probability(0, 1.0, 3);
  auto dropped = transport.call(0, read_of("/a"), 30ms);
  EXPECT_EQ(dropped.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(probe.fast_calls.load(), 0);
  transport.set_drop_probability(0, 0.0);
  auto served = transport.call(0, read_of("/a"), 1000ms);
  ASSERT_TRUE(served.is_ok());
  EXPECT_EQ(served.value().payload, "fast:/a");
}

TEST(TransportFastPath, ExtraLatencyForcesQueuedPath) {
  Transport transport;
  Probe probe;
  transport.register_endpoint(0, probe.queued(), 2, probe.fast());
  transport.set_extra_latency(0, 20ms);
  const auto start = Clock::now();
  auto result = transport.call(0, read_of("/a"), 1000ms);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().payload, "queued:/a");
  EXPECT_GE(Clock::now() - start, 20ms);
  EXPECT_EQ(probe.fast_calls.load(), 0);
  EXPECT_EQ(transport.stats(0).inline_handled, 0u);
}

TEST(TransportFastPath, PartitionDropsBeforeFastPath) {
  Transport transport;
  Probe probe;
  transport.register_endpoint(0, probe.queued(), 2, probe.fast());
  transport.set_blocked_senders(0, {7});
  auto cut = transport.call(0, read_of("/a", 7), 30ms);
  EXPECT_EQ(cut.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(probe.fast_calls.load(), 0);
  const auto stats = transport.stats(0);
  EXPECT_EQ(stats.partition_dropped, 1u);
  EXPECT_EQ(stats.dropped, 1u);
  // Other senders keep their fast answers.
  auto other = transport.call(0, read_of("/a", 8), 1000ms);
  ASSERT_TRUE(other.is_ok());
  EXPECT_EQ(other.value().payload, "fast:/a");
}

TEST(TransportFastPath, DuplicationForcesQueuedPath) {
  Transport transport;
  Probe probe;
  transport.register_endpoint(0, probe.queued(), 2, probe.fast());
  transport.set_duplicate_probability(0, 1.0, 5);
  auto result = transport.call(0, read_of("/a"), 1000ms);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().payload, "queued:/a");
  // Both deliveries reach the queued handler.
  const auto deadline = Clock::now() + 2s;
  while (transport.stats(0).handled < 2 && Clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  const auto stats = transport.stats(0);
  EXPECT_EQ(stats.duplicated, 1u);
  EXPECT_EQ(stats.received, 2u);
  EXPECT_EQ(stats.handled, 2u);
  EXPECT_EQ(probe.queued_calls.load(), 2);
  EXPECT_EQ(probe.fast_calls.load(), 0);
}

TEST(TransportFastPath, ReorderingForcesQueuedPath) {
  Transport transport;
  Probe probe;
  transport.register_endpoint(0, probe.queued(), 2, probe.fast());
  transport.set_reorder(0, 1.0, 2, 9);
  auto result = transport.call(0, read_of("/a"), 1000ms);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().payload, "queued:/a");
  EXPECT_EQ(probe.fast_calls.load(), 0);
}

TEST(TransportFastPath, AdmissionShedsWhileSlotsAreBusy) {
  // One slot, held by a queued handler parked on a gate: later requests
  // cannot run fast, queue up to the limit, and the next one is shed.
  Transport transport;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> fast_calls{0};
  std::atomic<bool> parked{false};
  transport.register_endpoint(
      0,
      [&](const RpcRequest& request) {
        if (request.path == "/park") {
          parked = true;
          opened.wait();
        }
        RpcResponse response;
        response.code = StatusCode::kOk;
        return response;
      },
      1,
      [&](const RpcRequest&) -> std::optional<RpcResponse> {
        ++fast_calls;
        return std::nullopt;  // declines everything: the park goes queued
      });
  transport.set_admission(0, {1, 2});
  auto park = std::async(std::launch::async, [&] {
    return transport.call(0, read_of("/park"), 2000ms);
  });
  while (!parked) std::this_thread::sleep_for(1ms);
  auto queued = std::async(std::launch::async, [&] {
    return transport.call(0, read_of("/queued"), 2000ms);
  });
  while (transport.stats(0).received < 2) std::this_thread::sleep_for(1ms);
  auto shed = transport.call(0, read_of("/shed"), 2000ms);
  ASSERT_TRUE(shed.is_ok());
  EXPECT_EQ(shed.value().code, StatusCode::kBusy);
  EXPECT_EQ(shed.value().retry_after_ms, 2u);
  EXPECT_EQ(transport.stats(0).requests_shed, 1u);
  // Only the park found a free slot; nothing after it tried the fast path.
  EXPECT_EQ(fast_calls.load(), 1);
  gate.set_value();
  EXPECT_TRUE(park.get().is_ok());
  EXPECT_TRUE(queued.get().is_ok());
}

TEST(TransportFastPath, CorruptionAppliesToFastAnswers) {
  Transport transport;
  Probe probe;
  transport.register_endpoint(0, probe.queued(), 2, probe.fast());
  transport.corrupt_next(0, 1);
  auto corrupted = transport.call(0, read_of("/a"), 1000ms);
  ASSERT_TRUE(corrupted.is_ok());
  EXPECT_NE(corrupted.value().payload, "fast:/a");
  EXPECT_EQ(corrupted.value().payload.size(), std::string("fast:/a").size());
  auto clean = transport.call(0, read_of("/a"), 1000ms);
  ASSERT_TRUE(clean.is_ok());
  EXPECT_EQ(clean.value().payload, "fast:/a");
  EXPECT_EQ(transport.stats(0).inline_handled, 2u);
  EXPECT_EQ(probe.queued_calls.load(), 0);
}

TEST(TransportFastPath, AtMostWorkersHandlersRunAtOnce) {
  // Fast and queued handlers share one high-water mark; callers outnumber
  // the slots and half the requests are declined by the fast path.
  constexpr std::size_t kWorkers = 2;
  Transport transport;
  std::atomic<int> running{0};
  std::atomic<int> high_water{0};
  const auto enter = [&] {
    const int now = ++running;
    int seen = high_water.load();
    while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(100us);
    --running;
  };
  transport.register_endpoint(
      0,
      [&](const RpcRequest&) {
        enter();
        RpcResponse response;
        response.code = StatusCode::kOk;
        return response;
      },
      kWorkers,
      [&](const RpcRequest& request) -> std::optional<RpcResponse> {
        enter();
        if (request.path == "/miss") return std::nullopt;
        RpcResponse response;
        response.code = StatusCode::kOk;
        return response;
      });
  // An idle endpoint answers fast; under the load below the queue may
  // never drain, so which path each later request takes is up to timing.
  ASSERT_TRUE(transport.call(0, read_of("/hit"), 2000ms).is_ok());
  ASSERT_EQ(transport.stats(0).inline_handled, 1u);
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int c = 0; c < 6; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < 150; ++i) {
        const bool miss = (i + c) % 2 == 0;
        auto result = transport.call(0, read_of(miss ? "/miss" : "/hit"), 2000ms);
        if (!result.is_ok()) ++failures;
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(high_water.load(), static_cast<int>(kWorkers));
  EXPECT_EQ(transport.stats(0).handled, 901u);
}

TEST(TransportFastPath, UnregisterWaitsForRunningFastHandler) {
  Transport transport;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};
  transport.register_endpoint(
      0, [](const RpcRequest&) { return RpcResponse{}; }, 1,
      [&](const RpcRequest&) -> std::optional<RpcResponse> {
        entered = true;
        opened.wait();
        finished = true;
        RpcResponse response;
        response.code = StatusCode::kOk;
        response.payload = "late";
        return response;
      });
  auto caller = std::async(std::launch::async, [&] {
    return transport.call(0, read_of("/a"), 2000ms);
  });
  while (!entered) std::this_thread::sleep_for(1ms);
  std::atomic<bool> unregistered{false};
  std::thread stopper([&] {
    EXPECT_TRUE(transport.unregister_endpoint(0).is_ok());
    // The handler's target may be destroyed now: it must have finished.
    EXPECT_TRUE(finished.load());
    unregistered = true;
  });
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(unregistered.load());
  gate.set_value();
  stopper.join();
  EXPECT_TRUE(unregistered.load());
  auto result = caller.get();
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().payload, "late");
  EXPECT_EQ(transport.call(0, read_of("/a"), 10ms).status().code(),
            StatusCode::kUnavailable);
}

}  // namespace
}  // namespace ftc::rpc
