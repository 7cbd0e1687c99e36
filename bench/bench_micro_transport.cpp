// Google-benchmark microbenchmark for one in-process RPC round trip, the
// stand-in for the paper's Mercury hop on every cached read.  Two
// endpoints serve the same 4 KiB hit response with two workers each (the
// cluster default): one through the worker queue only, one with a
// caller-runs fast path.  Run with 1 caller and with 3 (the perfbench
// client count); with 3, callers outnumber the slots, so some requests
// queue even on the fast endpoint.  Real time, since a queued caller
// blocks instead of spinning.
#include <benchmark/benchmark.h>

#include <chrono>
#include <optional>
#include <string>

#include "common/buffer.hpp"
#include "rpc/transport.hpp"

namespace {

using namespace ftc;
using namespace std::chrono_literals;

constexpr rpc::NodeId kQueued = 0;
constexpr rpc::NodeId kFast = 1;

rpc::RpcResponse hit(const rpc::RpcRequest&) {
  static const common::Buffer payload(std::string(4096, 'x'));
  rpc::RpcResponse response;
  response.code = StatusCode::kOk;
  response.cache_hit = true;
  response.payload = payload;
  return response;
}

rpc::Transport& transport() {
  static rpc::Transport instance;
  static const bool registered = [] {
    (void)instance.register_endpoint(kQueued, hit, 2);
    (void)instance.register_endpoint(
        kFast, hit, 2,
        [](const rpc::RpcRequest& request) -> std::optional<rpc::RpcResponse> {
          return hit(request);
        });
    return true;
  }();
  (void)registered;
  return instance;
}

void BM_RoundTrip(benchmark::State& state) {
  rpc::Transport& rpc = transport();
  const rpc::NodeId target = state.range(0) != 0 ? kFast : kQueued;
  rpc::RpcRequest request;
  request.op = rpc::Op::kReadFile;
  request.path = "/lustre/file_0000001.tfrecord";
  request.client_node = static_cast<rpc::NodeId>(100 + state.thread_index());
  for (auto _ : state) {
    auto result = rpc.call(target, request, 1000ms);
    if (!result.is_ok()) state.SkipWithError("rpc failed");
    benchmark::DoNotOptimize(result);
  }
}

BENCHMARK(BM_RoundTrip)
    ->ArgName("fast")
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(3)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
