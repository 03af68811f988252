// google-benchmark microbenchmarks for the network simulator and the
// TopoShot primitive end to end.

#include <benchmark/benchmark.h>

#include "core/session.h"
#include "core/toposhot.h"
#include "disc/discovery.h"
#include "graph/generators.h"

namespace {

using namespace topo;

void BM_FloodPropagation(benchmark::State& state) {
  // One pending transaction flooding an n-node overlay.
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(1);
  const auto g = graph::erdos_renyi_gnm(n, n * 12, rng);
  for (auto _ : state) {
    state.PauseTiming();
    core::ScenarioOptions opt;
    opt.seed = 2;
    opt.background_txs = 0;
    core::Scenario sc(g, opt);
    const eth::Address a = sc.accounts().create_one();
    const auto tx = sc.factory().make(a, sc.accounts().allocate_nonce(a), 1000);
    state.ResumeTiming();
    sc.m().send_to(sc.targets()[0], tx);
    sc.sim().run_until(sc.sim().now() + 10.0);
    benchmark::DoNotOptimize(sc.net().messages_delivered());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_FloodPropagation)->Arg(100)->Arg(300);

void BM_OneLinkMeasurement(benchmark::State& state) {
  util::Rng rng(3);
  const auto g = graph::erdos_renyi_gnm(24, 60, rng);
  core::ScenarioOptions opt;
  opt.seed = 4;
  opt.mempool_capacity = 256;
  opt.future_cap = 64;
  opt.background_txs = 192;
  core::Scenario sc(g, opt);
  sc.seed_background();
  core::MeasurementSession session(sc);
  size_t pair = 0;
  for (auto _ : state) {
    const graph::NodeId u = static_cast<graph::NodeId>(pair % 24);
    const graph::NodeId v = static_cast<graph::NodeId>((pair / 24 + 1 + u) % 24);
    ++pair;
    if (u == v) continue;
    benchmark::DoNotOptimize(session.one_link(sc.targets()[u], sc.targets()[v]).value);
  }
}
BENCHMARK(BM_OneLinkMeasurement)->Unit(benchmark::kMillisecond);

/// Inert registered peer: the sending end of BM_DuplicateDelivery.
struct SilentPeer final : p2p::Peer {
  void deliver_tx(const eth::Transaction&, p2p::PeerId) override {}
  void deliver_announce(eth::TxHash, p2p::PeerId) override {}
  void deliver_get_tx(eth::TxHash, p2p::PeerId) override {}
};

/// A warmed 512-entry pool receiving pushes of transactions it already
/// holds: the no-op delivery that makes up most of a flood campaign's
/// deliveries. 1000 same-instant pushes per iteration ride one batched
/// stream, so this times send + batch drain + duplicate verdict.
void BM_DuplicateDelivery(benchmark::State& state) {
  sim::Simulator sim;
  eth::Chain chain{8'000'000};
  p2p::Network net(&sim, &chain, util::Rng(7), sim::LatencyModel::fixed(0.05));
  p2p::NodeConfig cfg;
  mempool::MempoolPolicy policy = mempool::profile_for(mempool::ClientKind::kGeth).policy;
  policy.capacity = 512;
  policy.future_cap = 128;
  cfg.policy_override = policy;
  const p2p::PeerId node = net.add_node(cfg);
  SilentPeer sender;
  const p2p::PeerId from = net.register_peer(&sender);
  net.connect(node, from);
  eth::AccountManager accounts;
  eth::TxFactory factory;
  std::vector<eth::Transaction> known;
  for (size_t i = 0; i < policy.capacity; ++i) {
    const eth::Address a = accounts.create_one();
    known.push_back(factory.make(a, accounts.allocate_nonce(a), 1000 + i));
    net.node(node).pool().add(known.back(), 0.0);
  }
  size_t next = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      net.send_tx(from, node, known[next]);
      next = (next + 1) % known.size();
    }
    sim.run_until(sim.now() + 1.0);
  }
  benchmark::DoNotOptimize(net.node(node).pool().size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_DuplicateDelivery);

void BM_KademliaLookupRound(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    disc::DiscoverySim disc(n, util::Rng(5));
    state.ResumeTiming();
    disc.run_round();
    benchmark::DoNotOptimize(disc.average_fill());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_KademliaLookupRound)->Arg(200)->Arg(600)->Unit(benchmark::kMillisecond);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int sink = 0;
    for (int i = 0; i < 10'000; ++i) {
      sim.at(static_cast<double>(i % 97), [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_EventQueueThroughput);

struct CountingSink final : sim::EventSink {
  uint64_t hits = 0;
  void on_event(const sim::Event&) override { ++hits; }
};

/// Isolates raw push/pop cost (no dispatch, no simulator loop): typed
/// events through the queue alone, over a spread mimicking real schedules —
/// mostly sub-second deliveries with periodic far-future entries.
void BM_EventQueuePushPop(benchmark::State& state) {
  const auto backend = static_cast<sim::QueueBackend>(state.range(0));
  CountingSink sink;
  for (auto _ : state) {
    sim::EventQueue q(backend);
    double now = 0.0;
    for (int i = 0; i < 10'000; ++i) {
      const double dt = (i % 13 == 0) ? 30.0 : 0.001 * static_cast<double>(i % 311);
      q.push(now + dt, sim::Event::typed(sim::EventKind::kMaintenance, &sink));
      if (i % 2 == 0) now = q.pop().t;
    }
    while (!q.empty()) now = q.pop().t;
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10'000);
  state.SetLabel(backend == sim::QueueBackend::kTimingWheel ? "wheel" : "heap");
}
BENCHMARK(BM_EventQueuePushPop)->Arg(0)->Arg(1);

/// Typed-event simulator throughput: the same load as
/// BM_EventQueueThroughput but with zero-allocation typed events in place
/// of closures.
void BM_TypedEventThroughput(benchmark::State& state) {
  CountingSink sink;
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule_at(static_cast<double>(i % 97),
                      sim::Event::typed(sim::EventKind::kMaintenance, &sink));
    }
    sim.run();
    benchmark::DoNotOptimize(sink.hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_TypedEventThroughput);

}  // namespace

BENCHMARK_MAIN();
