// ch-image: the fully-unprivileged (Type III) Dockerfile builder (§5).
//
// The centerpiece is the --force fakeroot(1) auto-injection engine (§5.3):
// distro-sniffing configurations, each with init steps (a check command and
// an apply command) and RUN keyword triggers. Design principles, from the
// paper: (1) be clear and explicit about what is happening, (2) minimize
// changes to the build, (3) modify only if the user requests it, otherwise
// say what *could* be modified.
//
// §6.2.2 extensions are implemented behind options: a content-addressed
// build cache (buildgraph::BuildCache, shareable with other builders), an
// embedded libfakeroot (no wrapper installed into the image), and
// ownership-preserving push driven by the fakeroot lies database.
//
// build() is core::BuildDriver's; ch-image supplies its storage backend:
// each stage builds into its own host directory, cached as a Merkle tree
// snapshot of that directory.
#pragma once

#include <map>
#include <string>

#include "core/build_driver.hpp"
#include "core/force.hpp"
#include "core/machine.hpp"
#include "core/runtime.hpp"
#include "fakeroot/fakedb.hpp"
#include "image/registry.hpp"
#include "image/tar.hpp"
#include "support/transcript.hpp"

namespace minicon::core {

struct ForceInitStep {
  std::string check_cmd;  // exit 0 = step already done
  std::string apply_cmd;
};

struct ForceConfig {
  std::string name;         // "rhel7"
  std::string description;  // "CentOS/RHEL 7"
  std::string match_file;   // file sniffed inside the image
  std::string match_regex;  // ERE applied to its contents
  std::vector<ForceInitStep> init_steps;
  std::vector<std::string> run_keywords;  // substrings that trigger injection
};

// The configurations shipped with ch-image as of the paper (rhel7 and
// debderiv, §5.3.1-2).
const std::vector<ForceConfig>& builtin_force_configs();

struct ChImageOptions : BuildOptions {
  // `--force`: setting it alone keeps the historical meaning (fakeroot
  // injection); setting force_mode implies it. kSeccomp needs no distro
  // config, no init steps, and no RUN rewriting: the filter stacks under
  // every container unconditionally.
  bool force = false;
  // §6.2.2 extensions (all off by default, matching the paper's ch-image):
  bool build_cache = false;
  bool embedded_fakeroot = false;
  // §6.2.4 future work: rely on kernel-managed unprivileged maps instead of
  // fakeroot entirely (requires the unprivileged_auto_maps sysctl).
  bool kernel_assisted_maps = false;
  std::string storage_dir;  // default $HOME/.local/share/ch-image

  // Flight recorder the build's notable events (syscall errors, build
  // failures) land in; null = obs::global_flight_recorder(). Benches and
  // tests pass a private ring for isolation / a true recorder-off column.
  obs::FlightRecorder* flight_recorder = nullptr;
};

class ChImage : public BuildDriver {
 public:
  ChImage(Machine& m, kernel::Process invoker, image::Registry* registry,
          ChImageOptions options = {});

  // `ch-image push tag ref` — flattens ownership (root:root, setuid bits
  // cleared, single layer). With preserve_ownership, the embedded fakeroot
  // database supplies the recorded IDs instead (§6.2.2-2).
  int push(const std::string& tag, const std::string& dest_ref, Transcript& t,
           bool preserve_ownership = false);

  // `ch-image pull ref tag`.
  int pull(const std::string& ref, const std::string& tag, Transcript& t);

  // `ch-run tag -- argv` — Type III execution of a built image.
  int run_in_image(const std::string& tag,
                   const std::vector<std::string>& argv, Transcript& t);

  // Rootfs handle for a built image (for runtimes and tests).
  Result<RootFs> image_rootfs(const std::string& tag);

  const image::ImageConfig* config(const std::string& tag) const;

  const fakeroot::FakeDbPtr& embedded_db() const { return embedded_db_; }

 private:
  // A stage builds into its own host storage directory.
  struct ChStage : StageBuild {
    std::string dir;
    const ForceConfig* force_cfg = nullptr;
    bool fakeroot_inited = false;
    bool keyword_hit = false;  // the current RUN matched a --force keyword
    bool any_keyword_match = false;
    int modified_runs = 0;
  };

  const BuildOptions& build_options() const override { return options_; }
  std::unique_ptr<StageBuild> new_stage() const override {
    return std::make_unique<ChStage>();
  }
  std::string key_seed() const override { return "ch-image"; }
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
  void run_failed(const StageBuild& o, Transcript& t) override;
  int finish(const std::string& tag, const buildgraph::BuildGraph& g,
             Stages& sb, int rc,
             const kernel::ZeroConsistencyStats::Totals& zc0,
             Transcript& t) override;

  std::string storage_path(const std::string& tag) const;
  VoidResult ensure_dir(const std::string& path);
  // Extracts layer entries into the image dir *as the invoker* — which is
  // what squashes ownership to the single available ID (§5.2).
  VoidResult extract_as_user(const std::vector<image::TarEntry>& entries,
                             const std::string& dest, std::size_t* skipped_devices);
  const ForceConfig* detect_config(const std::string& image_dir);
  Result<kernel::Process> enter(const std::string& image_dir,
                                const image::ImageConfig& cfg);
  // Pulls `ref` into `dir` (transcript gets errors/warnings only). Consults
  // the machine's SnapshotLedger first: re-pulling a layer chain this
  // directory already held syncs back to the recorded state in O(changed).
  Result<image::ImageConfig> pull_into(const std::string& ref,
                                       const std::string& dir, Transcript& t);
  // Merkle snapshot of a stage directory (cache values, push layers). Runs
  // in a "snapshot" span and feeds the snapshot.nodes_built/nodes_reused
  // counters; O(changed) when the backing filesystem caches per-inode snaps.
  Result<vfs::SnapNodePtr> tree_snapshot(const std::string& dir,
                                         obs::SpanId parent = obs::kNoSpan);
  // Rewrites `dir` to match `target`, skipping subtrees whose digests
  // already agree ("snapshot.sync" span).
  bool restore_tree(const std::string& dir, const vfs::SnapNodePtr& target,
                    obs::SpanId parent = obs::kNoSpan);
  // Merkle digest of a COPY source if its filesystem caches snapshots
  // (O(1) for unchanged files), else a content hash of `data`.
  std::string context_digest(const std::string& path, const std::string& data);

  ChImageOptions options_;
  std::map<std::string, image::ImageConfig> configs_;
  fakeroot::FakeDbPtr embedded_db_;
  // Digest-keyed memo for flatten_snapshot: repeated pushes of a mostly
  // unchanged image re-transform only the changed paths.
  std::map<std::string, vfs::SnapNodePtr> flatten_memo_;
};

}  // namespace minicon::core
