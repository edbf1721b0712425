// Motivation (§2): why build ON the HPC resource at all?
//
// The paper's two concrete problems with laptop/CI-VM builds:
//   1. architecture: HPC machines are increasingly non-x86 (Astra/aarch64),
//      while workstations and CI clouds are generic x86-64;
//   2. network-bound resources: compiler licenses and private code live on
//      the site network, unreachable from isolated build environments.
// This bench demonstrates both failures and the on-cluster fix.
#include "core/docker.hpp"
#include "figure_common.hpp"

using namespace minicon;

int main() {
  bench::Checker c("Motivation");
  c.banner("build location matters (paper §2)");

  // An aarch64 site (Astra-like).
  core::ClusterOptions copts;
  copts.name = "astra";
  copts.arch = "aarch64";
  copts.compute_nodes = 1;
  core::Cluster site(copts);
  auto alice = site.user_on(site.login());
  if (!alice.ok()) return 1;

  const std::string licensed_app =
      "FROM centos:7\n"
      "RUN yum install -y intel-compiler\n"
      "RUN echo 'int main(){}' > /app.c\n"
      "RUN icc -o /usr/bin/app /app.c\n";

  c.section("attempt 1: ephemeral CI VM (x86_64, WAN only)");
  {
    core::SandboxedBuilder vm(site.universe(), &site.registry());
    Transcript t;
    t.echo_to(std::cout);
    const int status = vm.build_and_push("app:vm", licensed_app, t);
    c.check(status != 0, "VM build fails: no route to the license server");
    c.check(t.contains("could not checkout FLEXlm license"),
            "failure is the FLEXlm checkout");
  }

  c.section("attempt 2: the same VM building an unlicensed app");
  {
    core::SandboxedBuilder vm(site.universe(), &site.registry());
    Transcript t;
    const int status = vm.build_and_push(
        "app:vm-gcc",
        "FROM centos:7\nRUN yum install -y gcc\n"
        "RUN echo 'int main(){}' > /a.c\nRUN gcc -o /usr/bin/app /a.c\n",
        t);
    c.check(status == 0, "the unlicensed build succeeds in the VM...");
    core::ChImage ch(site.login(), *alice, &site.registry());
    Transcript pt;
    c.check(ch.pull("app:vm-gcc", "vmapp", pt) == 0 &&
                pt.contains("warning: no aarch64 manifest"),
            "...but the image is x86_64 (CI clouds are generic x86)");
    Transcript rt;
    const int run_status = ch.run_in_image("vmapp", {"app"}, rt);
    c.check(run_status != 0 && rt.contains("Exec format error"),
            "and the binary does not execute on the aarch64 machine");
  }

  c.section("the fix: unprivileged build on the login node (Type III)");
  {
    core::ChImageOptions opts;
    opts.force = true;
    core::ChImage ch(site.login(), *alice, &site.registry(), opts);
    Transcript t;
    const int status = ch.build("app", licensed_app, t);
    c.check(status == 0,
            "on-site build reaches the license server, fully unprivileged");
    Transcript rt;
    const int run_status = ch.run_in_image("app", {"app"}, rt);
    c.check(run_status == 0 && rt.contains("aarch64"),
            "the app runs natively on the aarch64 machine");
    Transcript pt;
    c.check(ch.push("app", "site/app:1.0", pt) == 0,
            "and pushes to the site registry for distributed launch");
    core::Cluster::LaunchOptions per_node;
    per_node.mode = core::Cluster::LaunchMode::kPullPerNode;
    auto launch = site.parallel_launch("site/app:1.0", {"app"}, per_node);
    c.check(launch.nodes_ok == 1, "compute node runs the containerized app");
  }
  return c.finish();
}
