#include "core/chimage.hpp"

#include <regex>

#include "image/tar.hpp"
#include "kernel/syscalls.hpp"
#include "support/path.hpp"
#include "support/sha256.hpp"
#include "support/strings.hpp"
#include "vfs/snapshot.hpp"
#include "vfs/treeops.hpp"

namespace minicon::core {

const std::vector<ForceConfig>& builtin_force_configs() {
  static const std::vector<ForceConfig> configs = {
      {
          "rhel7",
          "CentOS/RHEL 7",
          "/etc/redhat-release",
          "release 7\\.",
          {{
              "command -v fakeroot >/dev/null",
              "set -ex; "
              "if ! grep -Eq '\\[epel\\]' /etc/yum.conf /etc/yum.repos.d/*; "
              "then yum install -y epel-release; "
              "yum-config-manager --disable epel; fi; "
              "yum --enablerepo=epel install -y fakeroot;",
          }},
          {"dnf", "rpm", "yum"},
      },
      {
          "debderiv",
          "Debian (9, 10) or Ubuntu (16, 18, 20)",
          "/etc/os-release",
          "buster|stretch|xenial|bionic|focal",
          {{
               "apt-config dump | fgrep -q 'APT::Sandbox::User \"root\"' || "
               "! fgrep -q _apt /etc/passwd",
               "echo 'APT::Sandbox::User \"root\";' > "
               "/etc/apt/apt.conf.d/no-sandbox",
           },
           {
               "command -v fakeroot >/dev/null",
               "apt-get update && apt-get install -y pseudo",
           }},
          {"apt", "apt-get", "dpkg"},
      },
  };
  return configs;
}

ChImage::ChImage(Machine& m, kernel::Process invoker,
                 image::Registry* registry, ChImageOptions options)
    : BuildDriver(m, std::move(invoker), registry, options,
                  options.build_cache, options.flight_recorder,
                  Style::kChImage),
      options_(std::move(options)),
      embedded_db_(std::make_shared<fakeroot::FakeDb>()) {
  if (options_.storage_dir.empty()) {
    options_.storage_dir = invoker_.env_get("HOME") + "/.local/share/ch-image";
  }
  // Normalize the two --force spellings: the boolean alone is the historical
  // fakeroot request; an explicit mode implies the flag.
  if (options_.force && options_.force_mode == ForceMode::kNone) {
    options_.force_mode = ForceMode::kFakeroot;
  } else if (options_.force_mode != ForceMode::kNone) {
    options_.force = true;
  }
}

std::string ChImage::storage_path(const std::string& tag) const {
  std::string safe = tag;
  for (auto& c : safe) {
    if (c == '/' || c == ':') c = '+';
  }
  return options_.storage_dir + "/img/" + safe;
}

VoidResult ChImage::ensure_dir(const std::string& path) {
  std::string cur = "/";
  for (const auto& comp : path_components(path)) {
    cur = cur == "/" ? "/" + comp : cur + "/" + comp;
    if (invoker_.sys->stat(invoker_, cur).ok()) continue;
    MINICON_TRY(invoker_.sys->mkdir(invoker_, cur, 0755));
  }
  return {};
}

VoidResult ChImage::extract_as_user(
    const std::vector<image::TarEntry>& entries, const std::string& dest,
    std::size_t* skipped_devices) {
  for (const auto& e : entries) {
    const std::string path = path_join(dest, e.name);
    switch (e.type) {
      case vfs::FileType::Directory:
        if (!invoker_.sys->stat(invoker_, path).ok()) {
          MINICON_TRY(invoker_.sys->mkdir(invoker_, path, e.mode | 0700));
        }
        break;
      case vfs::FileType::Symlink:
        (void)invoker_.sys->unlink(invoker_, path);
        MINICON_TRY(invoker_.sys->symlink(invoker_, e.linkname, path));
        break;
      case vfs::FileType::Regular:
        (void)invoker_.sys->unlink(invoker_, path);
        MINICON_TRY(
            invoker_.sys->write_file(invoker_, path, e.content, false, e.mode));
        break;
      case vfs::FileType::CharDev:
      case vfs::FileType::BlockDev:
        // An unprivileged pull cannot create device nodes; skip like
        // ch-image does.
        if (skipped_devices != nullptr) ++*skipped_devices;
        break;
      default:
        break;
    }
  }
  return {};
}

const ForceConfig* ChImage::detect_config(const std::string& image_dir) {
  for (const auto& cfg : builtin_force_configs()) {
    // match_file is container-absolute; resolve it inside the image dir.
    auto text = invoker_.sys->read_file(invoker_, image_dir + cfg.match_file);
    if (!text.ok()) continue;
    try {
      if (std::regex_search(*text, std::regex(cfg.match_regex))) {
        return &cfg;
      }
    } catch (const std::regex_error&) {
      continue;
    }
  }
  return nullptr;
}

Result<kernel::Process> ChImage::enter(const std::string& image_dir,
                                       const image::ImageConfig& cfg) {
  MINICON_TRY_ASSIGN(loc, invoker_.sys->resolve(invoker_, image_dir, true));
  RootFs rootfs;
  rootfs.fs = loc.mnt->fs;
  rootfs.root = loc.ino;
  rootfs.owner_ns = loc.mnt->owner_ns;  // host storage: init-owned
  TypeIIIOptions opts;
  opts.env = cfg.env;
  opts.kernel_auto_maps = options_.kernel_assisted_maps;
  MINICON_TRY_ASSIGN(container, enter_type3(m_, invoker_, rootfs, opts));
  interpose(container, cfg,
            options_.embedded_fakeroot ? embedded_db_ : nullptr);
  return container;
}

Result<kernel::Process> ChImage::enter(StageBuild& o,
                                       const image::ImageConfig& cfg,
                                       std::string& why) {
  auto container = enter(static_cast<ChStage&>(o).dir, cfg);
  if (!container.ok()) {
    why += "ch-run: cannot enter container: " +
           std::string(err_message(container.error())) + "\n";
  }
  return container;
}

Result<vfs::SnapNodePtr> ChImage::tree_snapshot(const std::string& dir,
                                                obs::SpanId parent) {
  MINICON_TRY_ASSIGN(loc, invoker_.sys->resolve(invoker_, dir, true));
  obs::Span span(tracer().get(), "snapshot", parent);
  vfs::SnapshotStats stats;
  MINICON_TRY_ASSIGN(snap, loc.mnt->fs->snapshot(loc.ino, &stats));
  span.annotate("nodes_built", std::to_string(stats.nodes_built));
  span.annotate("nodes_reused", std::to_string(stats.nodes_reused));
  metrics().counter("snapshot.nodes_built").add(stats.nodes_built);
  metrics().counter("snapshot.nodes_reused").add(stats.nodes_reused);
  return snap;
}

bool ChImage::restore_tree(const std::string& dir,
                           const vfs::SnapNodePtr& target, obs::SpanId parent) {
  if (target == nullptr) return false;
  auto loc = invoker_.sys->resolve(invoker_, dir, true);
  if (!loc.ok()) return false;
  vfs::OpCtx ctx;
  ctx.host_uid = invoker_.cred.euid;
  ctx.host_gid = invoker_.cred.egid;
  ctx.host_privileged = invoker_.cred.euid == 0;
  obs::Span span(tracer().get(), "snapshot.sync", parent);
  auto stats = vfs::sync_tree(*loc->mnt->fs, loc->ino, target, ctx);
  if (!stats.ok()) return false;
  span.annotate("created", std::to_string(stats->created));
  span.annotate("removed", std::to_string(stats->removed));
  span.annotate("reused", std::to_string(stats->reused));
  return true;
}

std::string ChImage::context_digest(const std::string& path,
                                    const std::string& data) {
  if (auto loc = invoker_.sys->resolve(invoker_, path, true); loc.ok()) {
    if (auto snap = loc->mnt->fs->snapshot(loc->ino); snap.ok()) {
      return (*snap)->digest;
    }
  }
  return Sha256::hex_digest(data);
}

Result<image::ImageConfig> ChImage::pull_into(const std::string& ref,
                                              const std::string& dir,
                                              Transcript& t) {
  auto manifest = registry_->get_manifest(ref, m_.arch());
  if (!manifest) {
    manifest = registry_->get_manifest(ref);
    if (!manifest) {
      t.line("error: pull failed: manifest for " + ref + " not found");
      return Err::enoent;
    }
    t.line("warning: no " + m_.arch() + " manifest for " + ref + "; using " +
           manifest->config.arch);
  }
  if (auto rc = ensure_dir(dir); !rc.ok()) {
    t.line("error: cannot create storage directory " + dir);
    return rc.error();
  }
  std::string base_key;
  for (const auto& digest : manifest->layers) base_key += digest + "\n";
  // Fast path: this directory held exactly this layer chain before; sync it
  // back to the recorded post-extract state instead of re-extracting every
  // layer — subtrees whose digests still match are skipped wholesale.
  if (auto led = m_.snapshots().find(dir);
      led.has_value() && led->key == base_key) {
    if (restore_tree(dir, led->snap)) {
      metrics().counter("snapshot.base_reuses").add();
      return manifest->config;
    }
  }
  // Slow path: restore the pristine image state by clearing and extracting.
  if (auto loc = invoker_.sys->resolve(invoker_, dir, true); loc.ok()) {
    vfs::OpCtx ctx;
    ctx.host_uid = invoker_.cred.euid;
    ctx.host_gid = invoker_.cred.egid;
    (void)vfs::remove_tree_contents(*loc->mnt->fs, loc->ino, ctx);
  }
  std::size_t skipped_devices = 0;
  for (const auto& digest : manifest->layers) {
    // Tree layers walk the shared snapshot; blob layers pull + parse tar.
    auto entries = image::registry_layer_entries(*registry_, digest);
    if (!entries.ok()) {
      t.line(entries.error() == Err::enoent
                 ? "error: pull failed: missing blob " + digest
                 : "error: pull failed: corrupt layer " + digest);
      return entries.error();
    }
    if (auto rc = extract_as_user(*entries, dir, &skipped_devices); !rc.ok()) {
      t.line("error: pull failed while extracting: " +
             std::string(err_message(rc.error())));
      return rc.error();
    }
  }
  if (skipped_devices > 0) {
    t.line("warning: ignored " + std::to_string(skipped_devices) +
           " device file(s) in " + ref);
  }
  // Record what extraction actually produced (the invoker's umask and ID
  // squash included) so the next pull of this chain is a pure sync.
  if (auto snap = tree_snapshot(dir); snap.ok()) {
    m_.snapshots().record(dir, base_key, *snap);
  }
  return manifest->config;
}

int ChImage::pull(const std::string& ref, const std::string& tag,
                  Transcript& t) {
  auto cfg = pull_into(ref, storage_path(tag), t);
  if (!cfg.ok()) return 1;
  configs_[tag] = *cfg;
  t.line("pulled image: " + ref + " -> " + tag);
  return 0;
}

int ChImage::materialize(const std::string& tag,
                         const buildgraph::BuildGraph& g,
                         const buildgraph::Stage& s, const Stages& sb,
                         StageBuild& base, Transcript& t,
                         obs::SpanId stage_span) {
  auto& o = static_cast<ChStage&>(base);
  // The final stage *is* the image; intermediates get side directories.
  o.dir = s.index == g.target()
              ? storage_path(tag)
              : storage_path(tag) + "+stage" + std::to_string(s.index);
  if (auto rc = ensure_dir(o.dir); !rc.ok()) {
    t.line("error: cannot create storage directory " + o.dir);
    return 1;
  }
  if (s.base_stage >= 0) {
    // Base is an earlier stage's tree: snapshot it and sync our directory to
    // match — subtrees left over from a previous build that already agree by
    // digest are reused instead of recopied.
    const auto& dep = static_cast<const ChStage&>(
        *sb[static_cast<std::size_t>(s.base_stage)]);
    auto snap = tree_snapshot(dep.dir, stage_span);
    if (!snap.ok() || !restore_tree(o.dir, *snap, stage_span)) {
      t.line("error: cannot materialize " + g.stage(s.base_stage).display());
      return 1;
    }
    o.cfg = dep.cfg;
  } else {
    Transcript pull_t;
    auto cfg = pull_into(s.base_ref, o.dir, pull_t);
    if (!cfg.ok()) {
      for (const auto& l : pull_t.lines()) t.line(l);
      return 1;
    }
    o.cfg = *cfg;
  }
  o.force_cfg = detect_config(o.dir);
  if (options_.force_mode == ForceMode::kSeccomp) {
    // No distro sniffing required: the filter works on the syscall number
    // alone, so there is nothing to match, install, or rewrite.
    t.line("will use --force: seccomp: zero-consistency root emulation "
           "(no image modification)");
  } else if (options_.force) {
    if (o.force_cfg != nullptr) {
      t.line("will use --force: " + o.force_cfg->name + ": " +
             o.force_cfg->description);
    } else {
      t.line("warning: --force requested but no config matched");
    }
  }
  return 0;
}

int ChImage::prepare_run(StageBuild& base, const build::Instruction& ins,
                         std::vector<std::string>& argv, Transcript& t) {
  auto& o = static_cast<ChStage&>(base);
  o.keyword_hit = false;
  if (o.force_cfg != nullptr) {
    const std::string& cmd = ins.is_exec_form() ? argv.back() : ins.text;
    for (const auto& kw : o.force_cfg->run_keywords) {
      if (contains(cmd, kw)) o.keyword_hit = true;
    }
  }
  o.any_keyword_match = o.any_keyword_match || o.keyword_hit;
  if (!o.keyword_hit || options_.force_mode != ForceMode::kFakeroot ||
      options_.embedded_fakeroot || options_.kernel_assisted_maps) {
    return 0;
  }
  if (!o.fakeroot_inited) {
    // Runs one init-step command in a fresh container; -1 if none starts.
    const auto run = [&](const std::string& cmd, std::string& out,
                         std::string& err) {
      auto container = enter(o.dir, o.cfg);
      if (!container.ok()) t.line("error: cannot enter container");
      return container.ok() ? m_.shell().run(*container, cmd, out, err) : -1;
    };
    int step_no = 0;
    for (const auto& step : o.force_cfg->init_steps) {
      const std::string init_step = "init step " + std::to_string(++step_no);
      t.line("workarounds: " + init_step + ": checking: $ " + step.check_cmd);
      std::string out, err;
      const int check = run(step.check_cmd, out, err);
      if (check < 0) return 1;
      if (check == 0) continue;  // step already satisfied
      t.line("workarounds: " + init_step + ": $ " + step.apply_cmd);
      out.clear();
      err.clear();
      const int applied = run(step.apply_cmd, out, err);
      if (applied < 0) return 1;
      t.block(out);
      t.block(err);
      if (applied != 0) {
        t.line("error: --force " + init_step + " failed with exit status " +
               std::to_string(applied));
        return applied;
      }
    }
    o.fakeroot_inited = true;
  }
  argv.insert(argv.begin(), "fakeroot");
  t.line("workarounds: RUN: new command: " + format_argv(argv));
  ++o.modified_runs;
  return 0;
}

void ChImage::run_failed(const StageBuild& base, Transcript& t) {
  const auto& o = static_cast<const ChStage&>(base);
  if (!options_.force && o.force_cfg != nullptr && o.keyword_hit) {
    t.line("hint: build failed; --force might fix it (config " +
           o.force_cfg->name + ": " + o.force_cfg->description + ")");
  }
}

Result<vfs::SnapNodePtr> ChImage::snapshot(StageBuild& o, obs::SpanId parent) {
  return tree_snapshot(static_cast<ChStage&>(o).dir, parent);
}

bool ChImage::restore(StageBuild& o, const vfs::SnapNodePtr& snap,
                      obs::SpanId parent) {
  return restore_tree(static_cast<ChStage&>(o).dir, snap, parent);
}

Result<std::string> ChImage::copy(StageBuild& base, const Stages& sb,
                                  const buildgraph::StageInstr& si,
                                  const std::string& src, std::string dst,
                                  Transcript& t) {
  auto& o = static_cast<ChStage&>(base);
  std::string src_path = src;
  if (si.copy_from >= 0) {
    // Source is an earlier stage's tree (already built: the graph recorded
    // the dependency and the scheduler ordered it).
    const auto& from = static_cast<const ChStage&>(
        *sb[static_cast<std::size_t>(si.copy_from)]);
    src_path = from.dir + path_normalize("/" + src);
  }
  Result<std::string> data = invoker_.sys->read_file(invoker_, src_path);
  if (!data.ok()) {
    t.line("error: COPY: cannot read " + src + ": " +
           std::string(err_message(data.error())));
    return data.error();
  }
  if (dst.ends_with("/")) dst += path_basename(src);
  const std::string target = o.dir + path_normalize("/" + dst);
  (void)ensure_dir(path_dirname(target));
  if (auto rc = invoker_.sys->write_file(invoker_, target, *data, false, 0644);
      !rc.ok()) {
    t.line("error: COPY: cannot write " + dst);
    return rc.error();
  }
  return context_digest(src_path, *data);
}

void ChImage::user(StageBuild&, const std::string&, Transcript& t) {
  // A Type III image has exactly one user; like real ch-image, warn and
  // continue (§2.1.1: multiple users are rarely needed for HPC).
  t.line("warning: USER instruction ignored (Type III images are "
         "single-user)");
}

int ChImage::finish(const std::string& tag, const buildgraph::BuildGraph& g,
                    Stages& sb, int rc,
                    const kernel::ZeroConsistencyStats::Totals& zc0,
                    Transcript& t) {
  const auto& zc_stats = zeroconsistency_stats();
  if (rc != 0) {
    if (zc_stats != nullptr) {
      // Readback-divergence report: with zero state kept, a faked result a
      // later step checked is the prime suspect for the failure.
      const std::uint64_t faked = zc_stats->totals().total() - zc0.total();
      if (faked > 0) {
        t.line("hint: build failed under --force=seccomp after " +
               std::to_string(faked) +
               " faked privileged syscalls; faked results do not survive "
               "readback (--force=fakeroot keeps them consistent)");
      }
    }
    return rc;
  }
  configs_[tag] = sb[static_cast<std::size_t>(g.target())]->cfg;
  int modified_runs = 0;
  bool any_keyword_match = false;
  const ForceConfig* hint_cfg = nullptr;
  for (const auto& stage : sb) {
    const auto& s = static_cast<const ChStage&>(*stage);
    modified_runs += s.modified_runs;
    if (s.any_keyword_match) {
      any_keyword_match = true;
      if (s.force_cfg != nullptr) hint_cfg = s.force_cfg;
    }
  }
  if (options_.force_mode == ForceMode::kSeccomp) {
    const auto zc = zc_stats->totals();
    t.line("--force: seccomp: faked " +
           std::to_string(zc.total() - zc0.total()) +
           " privileged syscalls (chown " +
           std::to_string(zc.chown - zc0.chown) + ", chmod-setid " +
           std::to_string(zc.chmod_setid - zc0.chmod_setid) + ", mknod-dev " +
           std::to_string(zc.mknod_dev - zc0.mknod_dev) + ", setid " +
           std::to_string(zc.setid - zc0.setid) + ", xattr " +
           std::to_string(zc.xattr - zc0.xattr) + ")");
    if (zc.readback_divergent() > zc0.readback_divergent()) {
      t.line("note: zero-consistency mode kept no state for these; "
             "ownership, setuid bits, device nodes, and security xattrs "
             "will not survive readback (use --force=fakeroot for "
             "consistent lies)");
    }
  } else if (options_.force) {
    t.line("--force: init OK & modified " + std::to_string(modified_runs) +
           " RUN instructions");
  } else if (any_keyword_match && hint_cfg != nullptr) {
    t.line("hint: --force available (" + hint_cfg->name + ": " +
           hint_cfg->description + ")");
  }
  t.line("grown in " + std::to_string(g.instruction_count()) +
         " instructions: " + tag);
  return 0;
}

int ChImage::push(const std::string& tag, const std::string& dest_ref,
                  Transcript& t, bool preserve_ownership) {
  auto loc = invoker_.sys->resolve(invoker_, storage_path(tag), true);
  if (!loc.ok()) {
    t.line("error: no such image: " + tag);
    return 1;
  }
  auto cfg_it = configs_.find(tag);
  const image::ImageConfig push_cfg =
      cfg_it != configs_.end() ? cfg_it->second : image::ImageConfig{};
  // §6.2.5: an image marked "disallow" must not be ownership-flattened; the
  // ownership-preserving path (fakeroot DB) is the only legal push.
  if (!preserve_ownership && push_cfg.flatten_policy() == "disallow") {
    t.line("error: image is marked " +
           std::string(image::ImageConfig::kFlattenLabel) +
           "=disallow; use an ownership-preserving push");
    return 1;
  }
  std::string layer_digest;
  std::uint64_t layer_bytes = 0;
  std::uint64_t transferred = 0;
  std::string transfer_note = "chunk-deduplicated";
  if (preserve_ownership) {
    // §6.2.2-2: consult the fakeroot database instead of the filesystem so
    // the pushed archive reflects the *intended* (container) ownership.
    auto entries = image::tree_to_entries(*loc->mnt->fs, loc->ino);
    if (!entries.ok()) {
      t.line("error: cannot archive image " + tag);
      return 1;
    }
    std::vector<image::TarEntry> out_entries = *entries;
    // Re-walk the tree to map names to inodes for DB lookups.
    std::map<std::string, std::pair<const vfs::Filesystem*, vfs::InodeNum>>
        inodes;
    (void)vfs::walk_tree(*loc->mnt->fs, loc->ino,
                         [&](const std::string& rel, const vfs::Stat& st) {
                           inodes[rel] = {loc->mnt->fs.get(), st.ino};
                           return true;
                         });
    for (auto& e : out_entries) {
      e.uid = 0;
      e.gid = 0;
      auto it = inodes.find(e.name);
      if (it == inodes.end()) continue;
      const auto* lie =
          embedded_db_->find(it->second.first, it->second.second);
      if (lie != nullptr) {
        if (lie->uid) e.uid = *lie->uid;
        if (lie->gid) e.gid = *lie->gid;
        if (lie->mode) e.mode = *lie->mode;
        if (lie->type) {
          e.type = *lie->type;
          e.dev_major = lie->dev_major;
          e.dev_minor = lie->dev_minor;
        }
      }
    }
    // Pipelined push: stream the tar serialization into a chunked blob
    // writer — chunks digest and upload on the pool while later entries are
    // still serializing; a re-push of unchanged content transfers nothing.
    auto writer = registry_->blob_writer(&digest_pool());
    image::tar_stream(out_entries, [&writer](std::string_view piece) {
      writer.append(piece);
    });
    layer_digest = writer.finish();
    layer_bytes = writer.size();
    transferred = writer.new_bytes();
  } else {
    // Standard Charliecloud push, Merkle-tree form: flatten ownership to
    // root:root with setuid/setgid cleared (§6.1) as a structural rewrite of
    // the snapshot (unchanged subtrees share nodes via the digest memo),
    // then push the tree — the registry skips whole subtrees it already
    // holds, so a re-push of a mostly-unchanged image is O(changed).
    auto snap = tree_snapshot(storage_path(tag));
    if (!snap.ok()) {
      t.line("error: cannot archive image " + tag);
      return 1;
    }
    auto flat = vfs::flatten_snapshot(*snap, &flatten_memo_);
    auto res = registry_->put_tree(flat, &digest_pool());
    layer_digest = res.digest;
    layer_bytes = res.total_bytes;
    transferred = res.new_bytes;
    transfer_note = std::to_string(res.nodes_skipped) + " of " +
                    std::to_string(res.nodes) + " tree nodes deduplicated";
  }
  image::Manifest manifest;
  manifest.reference = dest_ref;
  manifest.config = push_cfg;
  manifest.config.arch = m_.arch();
  if (!preserve_ownership) {
    // Mark what we produced, per the §6.2.5 proposal.
    manifest.config.labels[image::ImageConfig::kFlattenLabel] = "flattened";
  }
  manifest.layers = {layer_digest};  // single flattened layer
  registry_->put_manifest(manifest);
  t.line("pushing image: " + tag);
  t.line("destination: " + registry_->name() + "/" + dest_ref);
  t.line("layers: 1 (" + std::to_string(layer_bytes) + " bytes, " +
         layer_digest + ")");
  t.line("transferred: " + std::to_string(transferred) + " bytes (" +
         transfer_note + ")");
  t.line("done");
  return 0;
}

int ChImage::run_in_image(const std::string& tag,
                          const std::vector<std::string>& argv,
                          Transcript& t) {
  auto it = configs_.find(tag);
  const image::ImageConfig cfg =
      it != configs_.end() ? it->second : image::ImageConfig{};
  ChStage image;
  image.dir = storage_path(tag);
  std::string out, err;
  auto container = enter(image, cfg, err);
  const int status =
      container.ok() ? m_.shell().run_argv(*container, argv, out, err) : 1;
  t.block(out);
  t.block(err);
  return status;
}

Result<RootFs> ChImage::image_rootfs(const std::string& tag) {
  MINICON_TRY_ASSIGN(loc,
                     invoker_.sys->resolve(invoker_, storage_path(tag), true));
  RootFs rootfs;
  rootfs.fs = loc.mnt->fs;
  rootfs.root = loc.ino;
  rootfs.owner_ns = loc.mnt->owner_ns;
  return rootfs;
}

const image::ImageConfig* ChImage::config(const std::string& tag) const {
  auto it = configs_.find(tag);
  return it == configs_.end() ? nullptr : &it->second;
}

}  // namespace minicon::core
