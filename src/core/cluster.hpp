// A simulated HPC machine: login node + compute nodes + shared parallel
// filesystem + container registry (the Astra deployment, §4.2 / Fig 6).
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "image/registry.hpp"
#include "image/swarm.hpp"
#include "kernel/syscall_filter.hpp"
#include "obs/context.hpp"
#include "obs/trace.hpp"
#include "pkg/package.hpp"
#include "support/threadpool.hpp"
#include "vfs/sharedfs.hpp"

namespace minicon::core {

struct ClusterOptions {
  std::string name = "astra";
  std::string arch = "aarch64";  // Astra: first Arm Top-500 machine
  int compute_nodes = 4;
  // Shared filesystem options; the default (no xattrs, root squash) is the
  // problematic configuration from §4.2/§6.1.
  vfs::SharedFsOptions shared_fs;
  std::string user = "alice";
  vfs::Uid user_uid = 1000;
  // Worker count for parallel_launch's fan-out pool. 0 = one worker per
  // hardware thread. Nodes beyond the width queue instead of each getting
  // a dedicated std::thread.
  int launch_width = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});

  Machine& login() { return *login_; }
  // Checked access: a node index outside [0, compute_count()) throws
  // std::out_of_range instead of indexing off the end of the vector.
  Machine& compute(int i) {
    if (i < 0 || static_cast<std::size_t>(i) >= compute_.size()) {
      throw std::out_of_range(
          "Cluster::compute: node index " + std::to_string(i) +
          " out of range [0, " + std::to_string(compute_.size()) + ")");
    }
    return *compute_[static_cast<std::size_t>(i)];
  }
  int compute_count() const { return static_cast<int>(compute_.size()); }
  image::Registry& registry() { return registry_; }
  const pkg::RepoUniversePtr& universe() const { return universe_; }
  const std::shared_ptr<shell::CommandRegistry>& command_registry() const {
    return command_registry_;
  }
  const vfs::FilesystemPtr& shared_fs() const { return shared_fs_; }
  const ClusterOptions& options() const { return options_; }

  // The cluster user's login process on a node.
  Result<kernel::Process> user_on(Machine& node);

  // How image bytes reach the compute nodes.
  enum class LaunchMode {
    // Every node pulls the full image from the registry (the Fig 6
    // baseline): registry traffic is O(nodes × image size).
    kPullPerNode,
    // The image is extracted once onto the shared parallel filesystem and
    // every node enters the same tree (the flat-directory ch-run model).
    kSharedFs,
    // Peer-to-peer chunk distribution: each node fetches only its
    // rendezvous-assigned shard of the image's chunk set from the registry
    // and obtains the rest from peer caches; registry traffic is
    // O(unique chunks) + a small per-node constant.
    kP2P,
  };

  struct LaunchOptions {
    LaunchMode mode = LaunchMode::kPullPerNode;
    // Fan-out pool width; 0 = the configured launch_width.
    int width = 0;
    // Extra syscall layers stacked (innermost first) onto a node's launch
    // processes, keyed by node index — fault injection for robustness
    // tests: a faulted node's pull or staging fails, the rest proceed.
    std::map<int, std::vector<kernel::SyscallLayerFn>> node_syscall_layers;
    // Trace context for the launch. When inactive, the ambient
    // obs::current_trace() is inherited; when that is inactive too, a fresh
    // id is minted. Every flight-recorder event the launch produces — on
    // every node, on every pool worker — carries this id.
    obs::TraceContext trace;
    // Span tracer for cluster.launch / swarm.* spans (null = no spans).
    std::shared_ptr<obs::Tracer> tracer;
  };

  struct LaunchResult {
    int nodes_ok = 0;
    int nodes_failed = 0;
    double wall_ms = 0;
    std::vector<std::string> outputs;  // one per node, ordered by index
    // Distribution accounting for this launch. registry_bytes is the delta
    // of Registry::bytes_served across the launch (all modes); peer_bytes
    // is what the swarm moved node-to-node (P2P only); image_bytes is the
    // image's unique chunk payload (P2P only).
    std::uint64_t registry_bytes = 0;
    std::uint64_t peer_bytes = 0;
    std::uint64_t image_bytes = 0;
    // The launch's trace id (never 0) — dump the flight recorder filtered
    // by it to see only this launch's events.
    std::uint64_t trace_id = 0;
    // When any node failed: the recorder's causally-ordered post-mortem for
    // this launch (FlightRecorder::dump_text filtered by trace_id).
    std::string post_mortem;
  };

  // Fig 6 final stage: run argv in a Type III container on every compute
  // node concurrently, distributing the image per options.mode. Per-node
  // work runs on a pooled fan-out of `width` workers, not one thread per
  // node.
  LaunchResult parallel_launch(const std::string& image_ref,
                               const std::vector<std::string>& argv,
                               const LaunchOptions& options);

  // Node-local chunk caches (the per-node NVMe staging model). They persist
  // across launches, so a warm P2P relaunch transfers only missing chunks.
  image::ChunkCache& node_cache(int i);
  // Number of distinct fan-out pools currently cached (one per width).
  std::size_t cached_launch_pools() const { return launch_pools_.size(); }

 private:
  // The fan-out pool for `width`, cached per width: alternating launches
  // with two widths reuse their pools instead of rebuilding every call.
  support::ThreadPool& launch_pool(std::size_t width);

  // Per-node P2P launch state threaded between the phase fan-outs.
  struct NodeLaunch;
  LaunchResult launch_p2p(const std::string& image_ref,
                          const std::vector<std::string>& argv,
                          const LaunchOptions& options);

  ClusterOptions options_;
  std::shared_ptr<shell::CommandRegistry> command_registry_;
  pkg::RepoUniversePtr universe_;
  image::Registry registry_;
  vfs::FilesystemPtr shared_fs_;
  std::unique_ptr<Machine> login_;
  std::vector<std::unique_ptr<Machine>> compute_;
  std::vector<std::unique_ptr<image::ChunkCache>> node_caches_;
  std::map<std::size_t, std::unique_ptr<support::ThreadPool>> launch_pools_;
};

// Builds a command registry with everything installed: shell builtins,
// fakeroot, package managers, tar, and the HPC toolchain.
std::shared_ptr<shell::CommandRegistry> make_full_registry(
    const pkg::RepoUniversePtr& universe);

}  // namespace minicon::core
