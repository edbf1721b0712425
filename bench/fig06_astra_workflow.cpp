// Figure 6: the container build workflow on Astra — podman build on the
// login node, push to the (GitLab-ish) registry, distributed Type III launch
// on compute nodes. Also demonstrates the motivation: x86_64 images do not
// run on the aarch64 machine.
#include <chrono>

#include "figure_common.hpp"
#include "image/tar.hpp"

using namespace minicon;

int main() {
  bench::Checker c("Figure 6");
  c.banner("Astra workflow: build -> registry -> parallel launch (aarch64)");

  core::ClusterOptions copts;
  copts.name = "astra";
  copts.arch = "aarch64";
  copts.compute_nodes = 8;
  core::Cluster cluster(copts);
  auto alice = cluster.user_on(cluster.login());
  if (!alice.ok()) return 1;

  c.section("motivation: an x86_64 image cannot run on Astra");
  {
    // Pull the x86_64 centos image explicitly (as if built on a laptop).
    core::ChImage ch(cluster.login(), *alice, &cluster.registry());
    // Force the wrong-arch manifest by tagging it ourselves.
    auto x86 = cluster.registry().get_manifest("centos:7", "x86_64");
    c.check(x86.has_value(), "registry carries the x86_64 base");
    image::Manifest renamed = *x86;
    renamed.reference = "laptop/centos:x86";
    cluster.registry().put_manifest(renamed);
    Transcript t;
    const int pulled = ch.pull("laptop/centos:x86", "wrongarch", t);
    c.check(pulled == 0, "the wrong-arch image pulls (with a warning)");
    c.check(t.contains("warning: no aarch64 manifest"),
            "ch-image warns about the architecture mismatch");
    Transcript rt;
    const int status = ch.run_in_image("wrongarch", {"ls", "/"}, rt);
    c.check(status == 126 && rt.contains("Exec format error"),
            "running the x86_64 image fails: Exec format error");
  }

  c.section("1) podman build of the ATSE-like stack on the login node");
  core::PodmanOptions popts;
  popts.driver = core::PodmanOptions::Driver::kVfs;  // RHEL7-era Astra
  core::Podman podman(cluster.login(), *alice, &cluster.registry(), popts);
  Transcript bt;
  bt.echo_to(std::cout);
  const int built =
      podman.build("atse",
                   "FROM centos:7\n"
                   "RUN yum install -y gcc openmpi-devel spack\n"
                   "RUN echo 'int main(){return 0;}' > /tmp/app.c\n"
                   "RUN mpicc -o /usr/bin/atse-app /tmp/app.c\n",
                   bt);
  c.check(built == 0, "ATSE container builds on the login node");

  c.section("2) push to the registry");
  Transcript pt;
  pt.echo_to(std::cout);
  c.check(podman.push("atse", "atse/app:1.2.5", pt) == 0,
          "image pushed to " + cluster.registry().name());

  c.section("3) distributed launch (per-node registry pulls)");
  const auto t0 = std::chrono::steady_clock::now();
  core::Cluster::LaunchOptions per_node;
  per_node.mode = core::Cluster::LaunchMode::kPullPerNode;
  auto via_registry = cluster.parallel_launch(
      "atse/app:1.2.5", {"atse-app"}, per_node);
  c.check(via_registry.nodes_ok == 8 && via_registry.nodes_failed == 0,
          "all 8 compute nodes ran the app (pull-per-node)");
  bool all_native = true;
  for (const auto& o : via_registry.outputs) {
    all_native = all_native &&
                 o.find("hello from compiled application (aarch64)") !=
                     std::string::npos;
  }
  c.check(all_native, "the app reports the aarch64 build architecture");
  std::cout << "  pull-per-node wall time: " << via_registry.wall_ms
            << " ms, registry pulls: " << cluster.registry().pulls() << "\n";

  c.section("3b) distributed launch (shared-filesystem image)");
  core::Cluster::LaunchOptions shared_fs;
  shared_fs.mode = core::Cluster::LaunchMode::kSharedFs;
  auto via_lustre = cluster.parallel_launch(
      "atse/app:1.2.5", {"atse-app"}, shared_fs);
  c.check(via_lustre.nodes_ok == 8,
          "all 8 nodes ran from the single /lustre image tree");
  std::cout << "  shared-fs wall time: " << via_lustre.wall_ms << " ms\n";
  (void)t0;
  return c.finish();
}
