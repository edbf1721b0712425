// Cluster tests: the Astra workflow (Fig 6) — build on the login node, push
// to a registry, launch in parallel on compute nodes.
#include <gtest/gtest.h>

#include "core/chimage.hpp"
#include "core/cluster.hpp"
#include "core/podman.hpp"
#include "kernel/faultinject.hpp"
#include "obs/context.hpp"
#include "obs/flightrec.hpp"

namespace minicon {
namespace {

// Builds FROM centos:7 with one RUN, pushes as `ref`, returns success.
bool build_and_push(core::Cluster& cluster, const std::string& ref) {
  auto alice = cluster.user_on(cluster.login());
  if (!alice.ok()) return false;
  core::ChImage ch(cluster.login(), *alice, &cluster.registry());
  Transcript t;
  if (ch.build("job", "FROM centos:7\nRUN echo ready\n", t) != 0) return false;
  Transcript pt;
  return ch.push("job", ref, pt) == 0;
}

// A layer factory injecting `error` on every syscall touching `path_substr`.
kernel::SyscallLayerFn fault_layer(std::string path_substr,
                                   Err error = Err::eio) {
  return [path_substr = std::move(path_substr),
          error](std::shared_ptr<kernel::Syscalls> inner) {
    kernel::FaultSpec spec;
    spec.path_substr = path_substr;
    spec.error = error;
    return std::make_shared<kernel::FaultInjectSyscalls>(std::move(inner),
                                                         /*seed=*/42, spec);
  };
}

TEST(Cluster, ArchitectureMattersForBuild) {
  // An aarch64 cluster cannot run x86_64 images — the original Astra
  // motivation (§4.2): users "had an immediate need to build new container
  // images specifically for the aarch64 ISA".
  core::ClusterOptions copts;
  copts.arch = "aarch64";
  copts.compute_nodes = 1;
  core::Cluster cluster(copts);
  auto alice = cluster.user_on(cluster.login());
  ASSERT_TRUE(alice.ok());

  core::ChImage ch(cluster.login(), *alice, &cluster.registry());
  // The registry carries both arches; pull selects aarch64 on this machine.
  Transcript t;
  ASSERT_EQ(ch.pull("centos:7", "native", t), 0);
  Transcript rt;
  EXPECT_EQ(ch.run_in_image("native", {"uname", "-m"}, rt), 0);
  EXPECT_TRUE(rt.contains("aarch64"));
}

TEST(Cluster, AstraWorkflowEndToEnd) {
  // Fig 6: podman build on the login node -> push to the GitLab-ish
  // registry -> parallel Type III launch on the compute nodes.
  core::ClusterOptions copts;
  copts.arch = "aarch64";
  copts.compute_nodes = 4;
  core::Cluster cluster(copts);
  auto alice = cluster.user_on(cluster.login());
  ASSERT_TRUE(alice.ok());

  // Astra's RHEL7-era configuration used the VFS driver (§4.2).
  core::PodmanOptions popts;
  popts.driver = core::PodmanOptions::Driver::kVfs;
  core::Podman podman(cluster.login(), *alice, &cluster.registry(), popts);
  Transcript bt;
  const int built = podman.build("atse",
                                 "FROM centos:7\n"
                                 "RUN yum install -y gcc openmpi-devel spack\n"
                                 "RUN echo 'int main(){}' > /tmp/app.c\n"
                                 "RUN mpicc -o /usr/bin/atse-app /tmp/app.c\n",
                                 bt);
  ASSERT_EQ(built, 0) << bt.text();
  Transcript pt;
  ASSERT_EQ(podman.push("atse", "atse/app:1.2.5", pt), 0);

  // Distributed launch via per-node registry pulls.
  core::Cluster::LaunchOptions per_node;
  per_node.mode = core::Cluster::LaunchMode::kPullPerNode;
  auto result = cluster.parallel_launch(
      "atse/app:1.2.5", {"atse-app"}, per_node);
  EXPECT_EQ(result.nodes_ok, 4);
  EXPECT_EQ(result.nodes_failed, 0);
  for (const auto& out : result.outputs) {
    EXPECT_NE(out.find("hello from compiled application (aarch64)"),
              std::string::npos)
        << out;
  }
}

TEST(Cluster, SharedFilesystemLaunch) {
  core::ClusterOptions copts;
  copts.arch = "aarch64";
  copts.compute_nodes = 3;
  core::Cluster cluster(copts);
  auto alice = cluster.user_on(cluster.login());
  ASSERT_TRUE(alice.ok());
  // Push a trivially-built image, then launch through /lustre.
  core::ChImage ch(cluster.login(), *alice, &cluster.registry());
  Transcript t;
  ASSERT_EQ(ch.build("job", "FROM centos:7\nRUN echo built\n", t), 0)
      << t.text();
  Transcript pt;
  ASSERT_EQ(ch.push("job", "jobs/hello:1", pt), 0);

  core::Cluster::LaunchOptions shared_fs;
  shared_fs.mode = core::Cluster::LaunchMode::kSharedFs;
  auto result = cluster.parallel_launch(
      "jobs/hello:1", {"hostname"}, shared_fs);
  EXPECT_EQ(result.nodes_ok, 3);
  // Each node reports its own hostname: genuinely separate machines.
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(result.outputs[static_cast<std::size_t>(i)].find("astra-cn"),
              std::string::npos);
  }
}

TEST(Cluster, SharedHomeVisibleAcrossNodes) {
  core::ClusterOptions copts;
  copts.compute_nodes = 2;
  core::Cluster cluster(copts);
  auto login_user = cluster.user_on(cluster.login());
  ASSERT_TRUE(login_user.ok());
  std::string out, err;
  ASSERT_EQ(cluster.login().run(*login_user,
                                "echo shared-data > /lustre/home/alice/f",
                                out, err),
            0)
      << err;
  auto compute_user = cluster.compute(0).login("alice");
  ASSERT_TRUE(compute_user.ok());
  out.clear();
  ASSERT_EQ(cluster.compute(0).run(*compute_user,
                                   "cat /lustre/home/alice/f", out, err),
            0);
  EXPECT_EQ(out, "shared-data\n");
}

TEST(Cluster, PooledLaunchWidthNarrowerThanNodes) {
  // 8 nodes through a 2-worker pool: jobs queue instead of spawning a
  // thread per node, and every node still completes with its own output.
  core::ClusterOptions copts;
  copts.arch = "x86_64";
  copts.compute_nodes = 8;
  copts.launch_width = 2;
  core::Cluster cluster(copts);
  auto alice = cluster.user_on(cluster.login());
  ASSERT_TRUE(alice.ok());
  core::ChImage ch(cluster.login(), *alice, &cluster.registry());
  Transcript t;
  ASSERT_EQ(ch.build("job", "FROM centos:7\nRUN echo ready\n", t), 0)
      << t.text();
  Transcript pt;
  ASSERT_EQ(ch.push("job", "jobs/narrow:1", pt), 0);

  core::Cluster::LaunchOptions shared_fs;
  shared_fs.mode = core::Cluster::LaunchMode::kSharedFs;
  auto result = cluster.parallel_launch(
      "jobs/narrow:1", {"hostname"}, shared_fs);
  EXPECT_EQ(result.nodes_ok, 8);
  EXPECT_EQ(result.nodes_failed, 0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(result.outputs[static_cast<std::size_t>(i)].find(
                  "astra-cn" + std::to_string(i)),
              std::string::npos);
  }

  // A per-call width override reshapes the pool without touching options.
  core::Cluster::LaunchOptions shared_fs_w4;
  shared_fs_w4.mode = core::Cluster::LaunchMode::kSharedFs;
  shared_fs_w4.width = 4;
  auto wide = cluster.parallel_launch(
      "jobs/narrow:1", {"hostname"}, shared_fs_w4);
  EXPECT_EQ(wide.nodes_ok, 8);
  EXPECT_EQ(wide.nodes_failed, 0);
}

TEST(Cluster, ComputeIndexOutOfRangeThrows) {
  core::ClusterOptions copts;
  copts.compute_nodes = 2;
  core::Cluster cluster(copts);
  EXPECT_NO_THROW(cluster.compute(0));
  EXPECT_NO_THROW(cluster.compute(1));
  EXPECT_THROW(cluster.compute(2), std::out_of_range);
  EXPECT_THROW(cluster.compute(-1), std::out_of_range);
  EXPECT_THROW(cluster.node_cache(2), std::out_of_range);
}

TEST(Cluster, ZeroComputeNodesLaunchIsEmptySuccess) {
  core::ClusterOptions copts;
  copts.arch = "x86_64";
  copts.compute_nodes = 0;
  core::Cluster cluster(copts);
  ASSERT_TRUE(build_and_push(cluster, "jobs/empty:1"));
  for (auto mode :
       {core::Cluster::LaunchMode::kPullPerNode,
        core::Cluster::LaunchMode::kSharedFs, core::Cluster::LaunchMode::kP2P}) {
    core::Cluster::LaunchOptions opts;
    opts.mode = mode;
    auto result = cluster.parallel_launch("jobs/empty:1", {"hostname"}, opts);
    EXPECT_EQ(result.nodes_ok, 0);
    EXPECT_EQ(result.nodes_failed, 0);
    EXPECT_TRUE(result.outputs.empty());
  }
}

TEST(Cluster, LaunchPoolCachedPerWidthAcrossAlternatingCalls) {
  core::ClusterOptions copts;
  copts.arch = "x86_64";
  copts.compute_nodes = 2;
  core::Cluster cluster(copts);
  ASSERT_TRUE(build_and_push(cluster, "jobs/pool:1"));
  EXPECT_EQ(cluster.cached_launch_pools(), 0u);
  // Alternating widths must not rebuild a pool per call: each width gets
  // one pool, reused thereafter.
  for (int round = 0; round < 3; ++round) {
    core::Cluster::LaunchOptions shared_fs_w2;
    shared_fs_w2.mode = core::Cluster::LaunchMode::kSharedFs;
    shared_fs_w2.width = 2;
    auto a = cluster.parallel_launch("jobs/pool:1", {"hostname"}, shared_fs_w2);
    EXPECT_EQ(a.nodes_ok, 2);
    core::Cluster::LaunchOptions shared_fs_w4;
    shared_fs_w4.mode = core::Cluster::LaunchMode::kSharedFs;
    shared_fs_w4.width = 4;
    auto b = cluster.parallel_launch("jobs/pool:1", {"hostname"}, shared_fs_w4);
    EXPECT_EQ(b.nodes_ok, 2);
  }
  EXPECT_EQ(cluster.cached_launch_pools(), 2u);
}

TEST(Cluster, NodePullFaultFailsOnlyThatNode) {
  core::ClusterOptions copts;
  copts.arch = "x86_64";
  copts.compute_nodes = 4;
  core::Cluster cluster(copts);
  ASSERT_TRUE(build_and_push(cluster, "jobs/faulty:1"));
  core::Cluster::LaunchOptions opts;
  opts.mode = core::Cluster::LaunchMode::kPullPerNode;
  // Node 2's local image storage returns EIO on every touch: its pull
  // fails; the other nodes are unaffected.
  opts.node_syscall_layers[2].push_back(fault_layer("ch-image"));
  auto result = cluster.parallel_launch("jobs/faulty:1", {"hostname"}, opts);
  EXPECT_EQ(result.nodes_ok, 3);
  EXPECT_EQ(result.nodes_failed, 1);
  ASSERT_EQ(result.outputs.size(), 4u);
  // Outputs stay index-ordered: every healthy node's slot holds its own
  // hostname; the faulted node's slot is empty.
  for (int i = 0; i < 4; ++i) {
    const auto& out = result.outputs[static_cast<std::size_t>(i)];
    if (i == 2) {
      EXPECT_TRUE(out.empty()) << out;
    } else {
      EXPECT_NE(out.find("astra-cn" + std::to_string(i)), std::string::npos)
          << out;
    }
  }
}

TEST(Cluster, P2PLaunchRunsEverywhereWithSublinearRegistryTraffic) {
  core::ClusterOptions copts;
  copts.arch = "x86_64";
  copts.compute_nodes = 8;
  core::Cluster cluster(copts);
  ASSERT_TRUE(build_and_push(cluster, "jobs/p2p:1"));
  core::Cluster::LaunchOptions opts;
  opts.mode = core::Cluster::LaunchMode::kP2P;
  auto result = cluster.parallel_launch("jobs/p2p:1", {"hostname"}, opts);
  EXPECT_EQ(result.nodes_ok, 8);
  EXPECT_EQ(result.nodes_failed, 0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(result.outputs[static_cast<std::size_t>(i)].find(
                  "astra-cn" + std::to_string(i)),
              std::string::npos);
  }
  // The registry served ~one copy of the image, not one per node.
  ASSERT_GT(result.image_bytes, 0u);
  EXPECT_GT(result.registry_bytes, 0u);
  EXPECT_LT(result.registry_bytes, 8 * result.image_bytes / 4);
  EXPECT_GT(result.peer_bytes, 0u);

  // Warm relaunch: node caches persist, so the registry serves ~nothing.
  auto warm = cluster.parallel_launch("jobs/p2p:1", {"hostname"}, opts);
  EXPECT_EQ(warm.nodes_ok, 8);
  EXPECT_EQ(warm.registry_bytes, 0u);
  EXPECT_EQ(warm.peer_bytes, 0u);
}

TEST(Cluster, P2PFaultedSeederFallsBackToRegistry) {
  core::ClusterOptions copts;
  copts.arch = "x86_64";
  copts.compute_nodes = 4;
  core::Cluster cluster(copts);
  ASSERT_TRUE(build_and_push(cluster, "jobs/p2pfault:1"));
  core::Cluster::LaunchOptions opts;
  opts.mode = core::Cluster::LaunchMode::kP2P;
  // Node 1 cannot write its staging spool: it dies in the seed phase and
  // its shard reroutes to the registry for everyone else.
  opts.node_syscall_layers[1].push_back(fault_layer(".swarm"));
  auto result = cluster.parallel_launch("jobs/p2pfault:1", {"hostname"}, opts);
  EXPECT_EQ(result.nodes_ok, 3);
  EXPECT_EQ(result.nodes_failed, 1);
  ASSERT_EQ(result.outputs.size(), 4u);
  EXPECT_TRUE(result.outputs[1].empty());
  for (int i : {0, 2, 3}) {
    EXPECT_NE(result.outputs[static_cast<std::size_t>(i)].find(
                  "astra-cn" + std::to_string(i)),
              std::string::npos);
  }
  // Survivors completed despite the dead seeder — via registry fallback,
  // still far below per-node full pulls.
  ASSERT_GT(result.image_bytes, 0u);
  EXPECT_LT(result.registry_bytes, 4 * result.image_bytes);
}

TEST(Cluster, P2PFaultPostMortemIsCausallyOrderedAndTraceStamped) {
  // The forensics acceptance path: an injected seeder fault during a P2P
  // launch must leave a flight-recorder trail, filtered by the launch's
  // trace id, in which the fault causally precedes the registry fallback
  // it forced on the surviving peers.
  core::ClusterOptions copts;
  copts.arch = "x86_64";
  copts.compute_nodes = 4;
  core::Cluster cluster(copts);
  ASSERT_TRUE(build_and_push(cluster, "jobs/forensic:1"));
  core::Cluster::LaunchOptions opts;
  opts.mode = core::Cluster::LaunchMode::kP2P;
  opts.node_syscall_layers[1].push_back(fault_layer(".swarm", Err::enospc));
  auto result = cluster.parallel_launch("jobs/forensic:1", {"hostname"}, opts);
  EXPECT_EQ(result.nodes_ok, 3);
  EXPECT_EQ(result.nodes_failed, 1);
  ASSERT_NE(result.trace_id, 0u);

  const auto events = obs::global_flight_recorder().dump(result.trace_id);
  ASSERT_FALSE(events.empty());
  std::size_t first_fault = events.size();
  std::size_t first_fallback = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].trace_id, result.trace_id);
    if (events[i].kind == obs::FlightKind::kFaultInjected &&
        first_fault == events.size()) {
      first_fault = i;
      // The fault fired on node 1's worker: the context stamped its lane.
      EXPECT_EQ(events[i].node, 1);
      EXPECT_NE(events[i].detail.find("ENOSPC"), std::string::npos)
          << events[i].detail;
    }
    if (events[i].kind == obs::FlightKind::kRegistryFallback &&
        first_fallback == events.size()) {
      first_fallback = i;
    }
  }
  ASSERT_LT(first_fault, events.size());
  ASSERT_LT(first_fallback, events.size());
  // Seed-phase fault before exchange-phase reroute: causal order survives
  // the merge across worker threads.
  EXPECT_LT(first_fault, first_fallback);

  // A failed launch carries its own post-mortem, already filtered and
  // rendered: the same story in human-readable form.
  ASSERT_FALSE(result.post_mortem.empty());
  EXPECT_NE(result.post_mortem.find(
                obs::TraceContext{result.trace_id}.hex()),
            std::string::npos);
  EXPECT_NE(result.post_mortem.find("ENOSPC"), std::string::npos);
  EXPECT_NE(result.post_mortem.find("node-dead"), std::string::npos);
  const std::size_t fault_pos = result.post_mortem.find("fault-injected");
  const std::size_t fallback_pos = result.post_mortem.find("registry-fallback");
  ASSERT_NE(fault_pos, std::string::npos);
  ASSERT_NE(fallback_pos, std::string::npos);
  EXPECT_LT(fault_pos, fallback_pos);
}

TEST(Cluster, UsersAreIsolatedOnSharedFs) {
  core::ClusterOptions copts;
  copts.compute_nodes = 0;
  core::Cluster cluster(copts);
  auto alice = cluster.user_on(cluster.login());
  ASSERT_TRUE(alice.ok());
  std::string out, err;
  ASSERT_EQ(cluster.login().run(*alice,
                                "echo mine > /lustre/home/alice/secret && "
                                "chmod 600 /lustre/home/alice/secret",
                                out, err),
            0);
  auto bob = cluster.login().add_user("bob", 1001);
  ASSERT_TRUE(bob.ok());
  EXPECT_NE(cluster.login().run(*bob, "cat /lustre/home/alice/secret", out,
                                err),
            0);
}

}  // namespace
}  // namespace minicon
