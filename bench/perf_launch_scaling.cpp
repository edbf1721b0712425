// P4: distributed container launch across compute nodes (Fig 6 final stage)
// — pull-per-node vs shared-filesystem vs peer-to-peer chunk distribution,
// pooled fan-out width, and daemonless startup cost. Shape: shared-fs
// launch avoids the per-node registry traffic; P2P serves one image's worth
// of unique chunks regardless of node count; node jobs share a fixed-width
// worker pool, so a 64-node launch never spawns 64 OS threads.
#include <benchmark/benchmark.h>

#include <random>

#include "core/chimage.hpp"
#include "core/cluster.hpp"
#include "image/swarm.hpp"

namespace {

using namespace minicon;

std::unique_ptr<core::Cluster> make_cluster(int nodes, int launch_width = 0) {
  core::ClusterOptions opts;
  opts.arch = "aarch64";
  opts.compute_nodes = nodes;
  opts.launch_width = launch_width;
  auto cluster = std::make_unique<core::Cluster>(opts);
  auto alice = cluster->user_on(cluster->login());
  core::ChImage ch(cluster->login(), *alice, &cluster->registry());
  Transcript t;
  ch.build("job", "FROM centos:7\nRUN echo built\n", t);
  Transcript pt;
  ch.push("job", "bench/job:1", pt);
  return cluster;
}

core::Cluster::LaunchMode mode_of(int arg) {
  switch (arg) {
    case 1:
      return core::Cluster::LaunchMode::kSharedFs;
    case 2:
      return core::Cluster::LaunchMode::kP2P;
    default:
      return core::Cluster::LaunchMode::kPullPerNode;
  }
}

const char* mode_label(int arg) {
  switch (arg) {
    case 1:
      return "shared-fs";
    case 2:
      return "p2p";
    default:
      return "pull-per-node";
  }
}

// Full-machine launch, all three distribution modes. Mode 0 (pull-per-node)
// is the node-local registry-only baseline, 1 the shared-FS ablation, 2 the
// P2P swarm. cold_registry_bytes is the first (cold) launch's registry
// traffic — later iterations reuse node-local state in every mode.
void BM_ParallelLaunch(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  auto cluster = make_cluster(nodes);
  core::Cluster::LaunchOptions opts;
  opts.mode = mode_of(mode);
  double cold_registry_bytes = -1;
  double cold_peer_bytes = 0;
  for (auto _ : state) {
    auto result = cluster->parallel_launch("bench/job:1", {"hostname"}, opts);
    if (result.nodes_ok != nodes) {
      state.SkipWithError("launch failed");
      return;
    }
    if (cold_registry_bytes < 0) {
      cold_registry_bytes = static_cast<double>(result.registry_bytes);
      cold_peer_bytes = static_cast<double>(result.peer_bytes);
    }
  }
  state.counters["nodes"] = nodes;
  state.counters["registry_pulls"] =
      static_cast<double>(cluster->registry().pulls());
  state.counters["cold_registry_bytes"] = cold_registry_bytes;
  state.counters["cold_peer_bytes"] = cold_peer_bytes;
  state.SetLabel(mode_label(mode));
}
BENCHMARK(BM_ParallelLaunch)
    ->ArgsProduct({{1, 2, 4, 8, 16, 32, 64}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

// Distribution-stage sweep at cluster scale: registry-only vs P2P over the
// same chunk set, nodes 64 → 10240. This isolates the byte-movement stage
// (what the registry and the inter-node fabric carry) from per-node
// filesystem materialization, which is what lets the sweep reach node
// counts no full-machine simulation could. Every iteration is a cold
// launch: fresh per-node caches, same registry.
void BM_DistributionSweep(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const bool p2p = state.range(1) != 0;
  image::Registry registry("bench.distribution");
  // A 2 MiB image → 32 unique 64 KiB chunks.
  std::mt19937 rng(7);
  std::string data(2 * 1024 * 1024, '\0');
  for (auto& c : data) c = static_cast<char>(rng());
  auto blob = registry.put_blob_chunked(data);
  image::Manifest m;
  m.reference = "bench/dist:1";
  m.layers.push_back(blob.digest);
  registry.put_manifest(m);

  std::uint64_t served_before = registry.bytes_served();
  std::uint64_t registry_bytes = 0;
  std::uint64_t peer_bytes = 0;
  for (auto _ : state) {
    served_before = registry.bytes_served();
    image::Swarm swarm(&registry, nodes);
    if (!swarm.prepare(m).ok()) {
      state.SkipWithError("chunk manifest failed");
      return;
    }
    if (p2p) {
      for (int n = 0; n < nodes; ++n) swarm.seed(n);
      for (int n = 0; n < nodes; ++n) swarm.exchange(n);
    } else {
      // Registry-only: every node pulls every chunk straight from the
      // registry into its cache — O(nodes × image size) served bytes.
      for (int n = 0; n < nodes; ++n) {
        auto& cache = swarm.cache(n);
        for (const auto& ref : swarm.plan().manifest.chunks) {
          cache.put(ref.digest, registry.serve_chunk(ref.digest));
        }
      }
    }
    peer_bytes = swarm.peer_bytes();
    registry_bytes = registry.bytes_served() - served_before;
  }
  state.counters["nodes"] = nodes;
  state.counters["image_bytes"] = static_cast<double>(data.size());
  state.counters["registry_bytes"] = static_cast<double>(registry_bytes);
  state.counters["peer_bytes"] = static_cast<double>(peer_bytes);
  state.counters["registry_frac_of_full"] =
      static_cast<double>(registry_bytes) /
      (static_cast<double>(nodes) * static_cast<double>(data.size()));
  state.SetLabel(p2p ? "p2p" : "registry-only");
}
BENCHMARK(BM_DistributionSweep)
    ->ArgsProduct({{64, 256, 1024, 4096, 10240}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Pool-width sweep at a fixed node count: how much fan-out concurrency the
// launch actually needs. Node jobs queue behind `width` workers.
void BM_LaunchWidthSweep(benchmark::State& state) {
  constexpr int kNodes = 64;
  const int width = static_cast<int>(state.range(0));
  auto cluster = make_cluster(kNodes, width);
  for (auto _ : state) {
    core::Cluster::LaunchOptions shared_fs;
    shared_fs.mode = core::Cluster::LaunchMode::kSharedFs;
    auto result = cluster->parallel_launch(
        "bench/job:1", {"hostname"}, shared_fs);
    if (result.nodes_ok != kNodes) {
      state.SkipWithError("launch failed");
      return;
    }
  }
  state.counters["pool_width"] = width;
  state.SetLabel("64 nodes via shared-fs, pooled fan-out");
}
BENCHMARK(BM_LaunchWidthSweep)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Container entry cost (the fork-exec, daemonless model the paper endorses
// for HPC): how long does a single Type III enter + trivial command take?
void BM_SingleContainerStart(benchmark::State& state) {
  auto cluster = make_cluster(1);
  auto alice = cluster->user_on(cluster->login());
  core::ChImage ch(cluster->login(), *alice, &cluster->registry());
  Transcript t;
  ch.pull("bench/job:1", "local", t);
  for (auto _ : state) {
    Transcript rt;
    if (ch.run_in_image("local", {"true"}, rt) != 0) {
      state.SkipWithError("run failed");
      return;
    }
  }
}
BENCHMARK(BM_SingleContainerStart)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
