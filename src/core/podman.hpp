// Rootless Podman: the Type II builder (§4).
//
// Privileged helpers (newuidmap/newgidmap driven by /etc/subuid and
// /etc/subgid) give the build a rich ID space, so unmodified distro tooling
// works. Features modeled from the paper:
//   * storage drivers: overlay (fuse-overlayfs; needs user xattrs) and vfs
//     (full copies; what RHEL7-era Astra used) — §4.1/§4.2;
//   * per-instruction build cache (a capability Charliecloud lacks, §6.1-3),
//     now a content-addressed buildgraph::BuildCache shareable with other
//     builders;
//   * multi-layer ownership-preserving push (archives are created "within
//     the container", §2.1.2 / §6.1);
//   * experimental unprivileged mode: single self-map +
//     --ignore-chown-errors, whose openssh-server failure is Fig 5;
//   * shared-filesystem graphroot clash (xattrs / server-side IDs, §4.2);
//   * build() is core::BuildDriver's; Podman supplies its storage backend:
//     each stage is a stack of storage-driver layers, cached as layer diffs.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/build_driver.hpp"
#include "core/machine.hpp"
#include "core/runtime.hpp"
#include "core/storage.hpp"
#include "image/registry.hpp"
#include "support/transcript.hpp"

namespace minicon::core {

// force_mode kSeccomp stacks the zero-consistency filter under every
// container — the interesting pairing is the unprivileged single-map mode
// (rootless_helpers=false), where it fakes the chowns Fig 5 dies on instead
// of merely ignoring their errors. kFakeroot is not a podman thing (rootless
// helpers already give real consistency) and is treated as kNone.
struct PodmanOptions : BuildOptions {
  enum class Driver { kOverlay, kVfs };
  Driver driver = Driver::kOverlay;
  // Default rootless configuration with privileged helpers; false selects
  // the experimental unprivileged mode (§4.1.1 / Fig 5).
  bool rootless_helpers = true;
  bool ignore_chown_errors = false;
  bool build_cache = true;
  // Where image storage lives. Defaults to a fresh local filesystem
  // ("/tmp or local disk", §4.2); pass a SharedFs to model an NFS graphroot.
  vfs::FilesystemPtr graphroot_backing;
  kernel::HelperConfig helper_config;
};

class Podman : public BuildDriver {
 public:
  Podman(Machine& m, kernel::Process invoker, image::Registry* registry,
         PodmanOptions options = {});

  // `podman push tag ref` — base layers by digest plus one diff layer per
  // built layer, ownership preserved in container-namespace IDs.
  int push(const std::string& tag, const std::string& dest_ref, Transcript& t);

  // `podman run tag -- argv`
  int run_in_image(const std::string& tag,
                   const std::vector<std::string>& argv, Transcript& t);

  // `podman unshare cat /proc/self/uid_map` (Figs 4 and 5).
  int show_id_maps(Transcript& t);

  // Rootfs handle for a built image's top layer (for runtimes and tests).
  Result<RootFs> image_rootfs(const std::string& tag) const;

  const image::ImageConfig* config(const std::string& tag) const;
  StorageDriver& driver() { return *driver_; }

  // The container-side view of a kernel ID under this Podman's map
  // (overflow ID when unmapped).
  vfs::Uid uid_to_container(vfs::Uid kuid) const;
  vfs::Gid gid_to_container(vfs::Gid kgid) const;

 private:
  // A stage, and a built image (its final stage), is a stack of
  // storage-driver layers.
  struct PodStage : StageBuild {
    Layer current;  // top layer
    std::vector<std::string> base_digests;
    std::vector<Layer> run_layers;  // one per layer-creating instruction
  };

  const BuildOptions& build_options() const override { return options_; }
  std::unique_ptr<StageBuild> new_stage() const override {
    return std::make_unique<PodStage>();
  }
  std::string key_seed() const override { return "podman|" + driver_->name(); }
  int materialize(const std::string& tag, const buildgraph::BuildGraph& g,
                  const buildgraph::Stage& s, const Stages& sb, StageBuild& o,
                  Transcript& t, obs::SpanId stage_span) override;
  int prepare_run(StageBuild& o, const build::Instruction& ins,
                  std::vector<std::string>& argv, Transcript& t) override;
  Result<kernel::Process> enter(StageBuild& o, const image::ImageConfig& cfg,
                                std::string& why) override;
  Result<vfs::SnapNodePtr> snapshot(StageBuild& o,
                                    obs::SpanId parent) override;
  bool restore(StageBuild& o, const vfs::SnapNodePtr& snap,
               obs::SpanId parent) override;
  Result<std::string> copy(StageBuild& o, const Stages& sb,
                           const buildgraph::StageInstr& si,
                           const std::string& src, std::string dst,
                           Transcript& t) override;
  void user(StageBuild& o, const std::string& name, Transcript& t) override;
  int finish(const std::string& tag, const buildgraph::BuildGraph& g,
             Stages& sb, int rc,
             const kernel::ZeroConsistencyStats::Totals& zc0,
             Transcript& t) override;

  Result<kernel::Process> enter(const Layer& layer,
                                const image::ImageConfig& cfg);
  // A fresh layer on top of `parent`, or a diagnostic in `t`.
  Result<Layer> new_layer(const Layer& parent, Transcript& t);
  void load_id_maps();
  // Reads one file out of a layer's tree (store-side, no container entry).
  Result<std::string> read_from_layer(const Layer& layer,
                                      const std::string& path) const;

  PodmanOptions options_;
  std::unique_ptr<StorageDriver> driver_;
  std::map<std::string, PodStage> images_;
  kernel::IdMap uid_map_;
  kernel::IdMap gid_map_;
};

}  // namespace minicon::core
