// The Astra workflow (Fig 6), end to end, as a user would drive it:
//
//   1. podman build the ATSE-like software stack on the aarch64 login node
//      (rootless, privileged helpers, VFS storage driver — the RHEL7-era
//      configuration the paper describes);
//   2. podman push to the site's OCI registry;
//   3. launch the containerized app across the compute nodes with a Type III
//      runtime, both by pulling per node and from the shared filesystem.
//
// Also shows the motivating failure: an x86_64 image simply does not run on
// the Arm machine.
#include <iostream>

#include "core/chimage.hpp"
#include "core/cluster.hpp"
#include "core/podman.hpp"
#include "image/tar.hpp"

using namespace minicon;

int main() {
  core::ClusterOptions copts;
  copts.name = "astra";
  copts.arch = "aarch64";
  copts.compute_nodes = 4;
  core::Cluster astra(copts);
  auto alice = astra.user_on(astra.login());
  if (!alice.ok()) {
    std::cerr << "login failed\n";
    return 1;
  }
  std::cout << "cluster: " << astra.login().hostname() << " + "
            << astra.compute_count() << " compute nodes ("
            << astra.login().arch() << ")\n\n";

  // --- why we must build here: x86 images do not run ------------------------
  {
    auto x86 = astra.registry().get_manifest("centos:7", "x86_64");
    image::Manifest laptop_image = *x86;
    laptop_image.reference = "laptop/app:x86";
    astra.registry().put_manifest(laptop_image);
    core::ChImage ch(astra.login(), *alice, &astra.registry());
    Transcript t;
    ch.pull("laptop/app:x86", "wrong", t);
    Transcript rt;
    const int status = ch.run_in_image("wrong", {"ls"}, rt);
    std::cout << "$ ch-run wrong -- ls   # image built on an x86 laptop\n"
              << rt.text() << "(exit " << status << ")\n\n";
  }

  // --- 1. rootless podman build on the login node ---------------------------
  const std::string atse_dockerfile =
      "FROM centos:7\n"
      "RUN yum install -y gcc openmpi-devel spack\n"
      "RUN echo 'int main(){return 0;}' > /tmp/miniapp.c\n"
      "RUN mpicc -o /usr/bin/miniapp /tmp/miniapp.c\n"
      "CMD [\"mpirun\", \"-np\", \"2\", \"miniapp\"]\n";
  std::cout << "$ podman build -t atse .   # on " << astra.login().hostname()
            << "\n";
  core::PodmanOptions popts;
  popts.driver = core::PodmanOptions::Driver::kVfs;
  core::Podman podman(astra.login(), *alice, &astra.registry(), popts);
  Transcript bt;
  bt.echo_to(std::cout);
  if (podman.build("atse", atse_dockerfile, bt) != 0) return 1;

  // --- 2. push to the registry ----------------------------------------------
  std::cout << "\n$ podman push atse " << astra.registry().name()
            << "/atse/app:1.2.5\n";
  Transcript pt;
  pt.echo_to(std::cout);
  if (podman.push("atse", "atse/app:1.2.5", pt) != 0) return 1;

  // --- 3. distributed launch -------------------------------------------------
  std::cout << "\n$ srun -N" << astra.compute_count()
            << " ch-run atse/app:1.2.5 -- miniapp   # pull per node\n";
  core::Cluster::LaunchOptions per_node;
  per_node.mode = core::Cluster::LaunchMode::kPullPerNode;
  auto pulled = astra.parallel_launch("atse/app:1.2.5", {"miniapp"}, per_node);
  std::cout << "  nodes ok: " << pulled.nodes_ok << "/"
            << astra.compute_count() << ", wall: " << pulled.wall_ms
            << " ms, registry pulls so far: " << astra.registry().pulls()
            << "\n";
  for (const auto& out : pulled.outputs) {
    std::cout << "    node says: " << out;
  }

  std::cout << "\n$ srun -N" << astra.compute_count()
            << " ch-run /lustre/.../atse -- miniapp   # shared filesystem\n";
  core::Cluster::LaunchOptions shared_fs;
  shared_fs.mode = core::Cluster::LaunchMode::kSharedFs;
  auto shared = astra.parallel_launch("atse/app:1.2.5", {"miniapp"}, shared_fs);
  std::cout << "  nodes ok: " << shared.nodes_ok << "/"
            << astra.compute_count() << ", wall: " << shared.wall_ms
            << " ms\n";
  return pulled.nodes_ok == astra.compute_count() &&
                 shared.nodes_ok == astra.compute_count()
             ? 0
             : 1;
}
