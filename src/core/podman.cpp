#include "core/podman.hpp"

#include "image/tar.hpp"
#include "kernel/syscalls.hpp"
#include "kernel/userdb.hpp"
#include "support/path.hpp"
#include "support/sha256.hpp"
#include "support/strings.hpp"
#include "vfs/overlayfs.hpp"

namespace minicon::core {

Podman::Podman(Machine& m, kernel::Process invoker, image::Registry* registry,
               PodmanOptions options)
    : BuildDriver(m, std::move(invoker), registry, options,
                  options.build_cache, nullptr, Style::kPodman),
      options_(std::move(options)) {
  if (options_.graphroot_backing == nullptr) {
    // "/tmp or local disk can be used for container storage" (§4.2).
    options_.graphroot_backing = std::make_shared<vfs::MemFs>(0755);
  }
  if (options_.driver == PodmanOptions::Driver::kVfs) {
    driver_ = std::make_unique<VfsDriver>(
        options_.graphroot_backing, "containers/storage/vfs",
        invoker_.cred.euid, invoker_.cred.egid);
  } else {
    driver_ = std::make_unique<OverlayDriver>(options_.graphroot_backing);
  }
  load_id_maps();
}

void Podman::load_id_maps() {
  // The same subuid/subgid view the helpers enforce; used for the id maps
  // shown by `podman unshare` and for push-time translation.
  std::vector<kernel::IdMapEntry> uids{{0, invoker_.cred.euid, 1}};
  std::vector<kernel::IdMapEntry> gids{{0, invoker_.cred.egid, 1}};
  if (options_.rootless_helpers) {
    kernel::Process reader = invoker_.clone();
    reader.sys = m_.kernel().syscalls();
    const std::string user = invoker_.env_get("USER");
    auto read_db = [&](const std::string& path) {
      auto text = reader.sys->read_file(reader, path);
      return kernel::SubidDb::parse(text.ok() ? *text : "");
    };
    for (const auto& r : read_db(options_.helper_config.subuid_path)
                             .ranges_for(user, invoker_.cred.ruid)) {
      uids.push_back({1, r.start, r.count});
      break;
    }
    for (const auto& r : read_db(options_.helper_config.subgid_path)
                             .ranges_for(user, invoker_.cred.ruid)) {
      gids.push_back({1, r.start, r.count});
      break;
    }
  }
  uid_map_ = kernel::IdMap{uids};
  gid_map_ = kernel::IdMap{gids};
}

vfs::Uid Podman::uid_to_container(vfs::Uid kuid) const {
  return uid_map_.to_inside(kuid).value_or(vfs::kOverflowUid);
}

vfs::Gid Podman::gid_to_container(vfs::Gid kgid) const {
  return gid_map_.to_inside(kgid).value_or(vfs::kOverflowGid);
}

Result<kernel::Process> Podman::enter(const Layer& layer,
                                      const image::ImageConfig& cfg) {
  RootFs rootfs;
  rootfs.fs = layer.fs;
  rootfs.root = layer.root;
  rootfs.owner_ns = nullptr;
  TypeIIOptions opts;
  opts.use_helpers = options_.rootless_helpers;
  opts.ignore_chown_errors = options_.ignore_chown_errors;
  opts.helper_config = options_.helper_config;
  // fuse-overlayfs mounts belong to the container namespace; plain vfs
  // directories remain part of the host mount.
  opts.container_owned_storage =
      options_.driver == PodmanOptions::Driver::kOverlay;
  opts.env = cfg.env;
  MINICON_TRY_ASSIGN(c, enter_type2(m_, invoker_, rootfs, opts));
  interpose(c, cfg);
  // USER instruction: switch to the image-defined user — possible in a
  // Type II container because the image's users are all mapped (§2.1.2).
  if (!cfg.user.empty() && cfg.user != "root") {
    vfs::Uid uid = 0;
    vfs::Gid gid = 0;
    if (parse_u32(cfg.user, uid)) {
      gid = uid;
    } else if (auto passwd = c.sys->read_file(c, "/etc/passwd"); passwd.ok()) {
      if (auto entry = kernel::PasswdDb::parse(*passwd).by_name(cfg.user)) {
        uid = entry->uid;
        gid = entry->gid;
      } else {
        return Err::enoent;  // unknown USER
      }
    }
    MINICON_TRY(c.sys->setgid(c, gid));
    MINICON_TRY(c.sys->setuid(c, uid));
  }
  return c;
}

Result<std::string> Podman::read_from_layer(const Layer& layer,
                                            const std::string& path) const {
  vfs::InodeNum cur = layer.root;
  for (const auto& comp : path_components(path)) {
    MINICON_TRY_ASSIGN(child, layer.fs->lookup(cur, comp));
    cur = child;
  }
  return layer.fs->read(cur);
}

Result<kernel::Process> Podman::enter(StageBuild& o,
                                      const image::ImageConfig& cfg,
                                      std::string& why) {
  auto container = enter(static_cast<PodStage&>(o).current, cfg);
  if (!container.ok()) {
    why += "Error: cannot configure rootless user namespace: " +
           std::string(err_message(container.error())) +
           " (are subuid/subgid ranges configured?)\n";
  }
  return container;
}

Result<Layer> Podman::new_layer(const Layer& parent, Transcript& t) {
  auto layer = driver_->create_layer(parent);
  if (!layer.ok()) {
    t.line("Error: storage driver " + driver_->name() + ": " +
           std::string(err_message(layer.error())));
  }
  return layer;
}

int Podman::materialize(const std::string&, const buildgraph::BuildGraph&,
                        const buildgraph::Stage& s, const Stages& sb,
                        StageBuild& base, Transcript& t, obs::SpanId) {
  auto& o = static_cast<PodStage&>(base);
  if (s.base_stage >= 0) {
    // Base is an earlier stage: a fresh layer on top of its top layer.
    const auto& dep = static_cast<const PodStage&>(
        *sb[static_cast<std::size_t>(s.base_stage)]);
    auto layer = new_layer(dep.current, t);
    if (!layer.ok()) return 125;
    o.current = *layer;
    o.cfg = dep.cfg;
    o.base_digests = dep.base_digests;
    o.run_layers = dep.run_layers;
    return 0;
  }
  auto manifest = registry_->get_manifest(s.base_ref, m_.arch());
  if (!manifest) manifest = registry_->get_manifest(s.base_ref);
  if (!manifest) {
    t.line("Error: initializing source: " + s.base_ref + ": not found");
    return 125;
  }
  std::vector<std::vector<image::TarEntry>> layer_entries;
  for (const auto& digest : manifest->layers) {
    // Tree layers walk the shared snapshot; blob layers parse straight out
    // of the registry's buffer (zero-copy).
    auto entries = image::registry_layer_entries(*registry_, digest);
    if (!entries.ok()) {
      t.line(entries.error() == Err::enoent ? "Error: missing blob " + digest
                                            : "Error: corrupt layer " + digest);
      return 125;
    }
    // Storage keeps *host-side* IDs: the archive's container IDs are
    // translated through the user-namespace map (what fuse-overlayfs and
    // podman's storage layer do on pull). Unmapped IDs fail the pull unless
    // --ignore-chown-errors squashes them (§4.1.1).
    for (auto& e : *entries) {
      auto kuid = uid_map_.to_outside(e.uid);
      auto kgid = gid_map_.to_outside(e.gid);
      if ((!kuid || !kgid) && !options_.ignore_chown_errors) {
        t.line("Error: payload contains unmapped IDs (uid " +
               std::to_string(e.uid) + "); consider "
               "--ignore-chown-errors or wider subuid ranges");
        return 125;
      }
      e.uid = kuid.value_or(invoker_.cred.euid);
      e.gid = kgid.value_or(invoker_.cred.egid);
    }
    layer_entries.push_back(std::move(*entries));
  }
  auto layer = driver_->base_layer(layer_entries);
  if (!layer.ok()) {
    t.line("Error: storage driver " + driver_->name() + ": " +
           std::string(err_message(layer.error())) +
           " (is the graphroot on a shared filesystem without user xattrs?)");
    return 125;
  }
  o.current = *layer;
  // The image's root directory itself is container-root-owned too.
  vfs::OpCtx ctx;
  ctx.host_uid = invoker_.cred.euid;
  ctx.host_gid = invoker_.cred.egid;
  (void)o.current.fs->set_owner(
      ctx, o.current.root, uid_map_.to_outside(0).value_or(invoker_.cred.euid),
      gid_map_.to_outside(0).value_or(invoker_.cred.egid));
  o.base_digests = manifest->layers;
  o.cfg = manifest->config;
  o.cfg.arch = m_.arch();
  return 0;
}

int Podman::prepare_run(StageBuild& base, const build::Instruction&,
                        std::vector<std::string>&, Transcript& t) {
  // Every RUN commits a layer of its own.
  auto& o = static_cast<PodStage&>(base);
  auto layer = new_layer(o.current, t);
  if (!layer.ok()) return 125;
  o.current = *layer;
  o.run_layers.push_back(o.current);
  return 0;
}

Result<vfs::SnapNodePtr> Podman::snapshot(StageBuild& o, obs::SpanId) {
  MINICON_TRY_ASSIGN(diff, driver_->diff(static_cast<PodStage&>(o).current));
  return image::entries_to_snapshot(diff);
}

bool Podman::restore(StageBuild& base, const vfs::SnapNodePtr& snap,
                     obs::SpanId) {
  auto& o = static_cast<PodStage&>(base);
  auto layer = driver_->create_layer(o.current);
  if (!layer.ok() || snap == nullptr) return false;
  // Diff entries carry host-side IDs (how the storage layer keeps them), so
  // they replay verbatim.
  vfs::OpCtx ctx;
  ctx.host_uid = invoker_.cred.euid;
  ctx.host_gid = invoker_.cred.egid;
  ctx.host_privileged = invoker_.cred.euid == 0;
  if (!image::entries_to_tree(image::snapshot_to_entries(snap), *layer->fs,
                              layer->root, ctx)
           .ok()) {
    return false;
  }
  o.current = *layer;
  o.run_layers.push_back(o.current);
  return true;
}

Result<std::string> Podman::copy(StageBuild& base, const Stages& sb,
                                 const buildgraph::StageInstr& si,
                                 const std::string& src, std::string dst,
                                 Transcript& t) {
  auto& o = static_cast<PodStage&>(base);
  Result<std::string> data = Err::enoent;
  if (si.copy_from >= 0) {
    // Source is an earlier stage's top layer (already built).
    const auto& from = static_cast<const PodStage&>(
        *sb[static_cast<std::size_t>(si.copy_from)]);
    data = read_from_layer(from.current, src);
  } else {
    data = invoker_.sys->read_file(invoker_, src);
  }
  if (!data.ok()) {
    t.line("Error: COPY: " + src + ": no such file");
    return data.error();
  }
  auto layer = driver_->create_layer(o.current);
  if (!layer.ok()) return layer.error();
  auto container = enter(*layer, o.cfg);
  if (!container.ok()) return container.error();
  if (dst.ends_with("/")) dst += src;
  if (auto rc = container->sys->write_file(*container, dst, *data, false, 0644);
      !rc.ok()) {
    t.line("Error: COPY: cannot write " + dst);
    return rc.error();
  }
  o.current = *layer;
  o.run_layers.push_back(o.current);
  return Sha256::hex_digest(*data);
}

void Podman::user(StageBuild& o, const std::string& name, Transcript&) {
  // Type II has real multiple users: record it for later RUNs/runs.
  o.cfg.user = name;
}

int Podman::finish(const std::string& tag, const buildgraph::BuildGraph& g,
                   Stages& sb, int rc,
                   const kernel::ZeroConsistencyStats::Totals& zc0,
                   Transcript& t) {
  if (rc != 0) return rc;
  auto& fin = static_cast<PodStage&>(*sb[static_cast<std::size_t>(g.target())]);
  images_[tag] = std::move(fin);
  if (const auto& zc_stats = zeroconsistency_stats(); zc_stats != nullptr) {
    const std::uint64_t faked = zc_stats->totals().total() - zc0.total();
    if (faked > 0) {
      t.line("seccomp: faked " + std::to_string(faked) +
             " privileged syscalls (zero-consistency mode)");
    }
  }
  t.line("COMMIT " + tag);
  return 0;
}

int Podman::push(const std::string& tag, const std::string& dest_ref,
                 Transcript& t) {
  auto it = images_.find(tag);
  if (it == images_.end()) {
    t.line("Error: " + tag + ": image not known");
    return 125;
  }
  const PodStage& img = it->second;
  image::Manifest manifest;
  manifest.reference = dest_ref;
  manifest.config = img.cfg;
  manifest.layers = img.base_digests;  // base blobs are shared by digest

  // §6.2.5: images may be marked to require ownership flattening.
  const bool must_flatten = img.cfg.flatten_policy() == "require";
  for (const auto& layer : img.run_layers) {
    auto entries = driver_->diff(layer);
    if (!entries.ok()) {
      t.line("Error: cannot export layer");
      return 125;
    }
    // "Provided image archives are also created within the container", the
    // image keeps correct ownership (§6.1): record container-namespace IDs.
    for (auto& e : *entries) {
      e.uid = uid_to_container(e.uid);
      e.gid = gid_to_container(e.gid);
    }
    if (must_flatten) *entries = image::flatten_ownership(std::move(*entries));
    // Merkle-tree push: unchanged subtrees of a previously pushed layer are
    // skipped wholesale (the registry already holds their nodes); file
    // contents dedup at chunk granularity underneath.
    auto res = registry_->put_tree(image::entries_to_snapshot(*entries),
                                   &digest_pool());
    manifest.layers.push_back(res.digest);
  }
  if (must_flatten) {
    t.line("Note: image marked " +
           std::string(image::ImageConfig::kFlattenLabel) +
           "=require; layers pushed ownership-flattened");
  }
  registry_->put_manifest(manifest);
  t.line("Copying " + std::to_string(manifest.layers.size()) + " layers to " +
         registry_->name() + "/" + dest_ref);
  t.line("Writing manifest " + manifest.digest());
  return 0;
}

int Podman::run_in_image(const std::string& tag,
                         const std::vector<std::string>& argv, Transcript& t) {
  auto it = images_.find(tag);
  if (it == images_.end()) {
    t.line("Error: " + tag + ": image not known");
    return 125;
  }
  auto container = enter(it->second.current, it->second.cfg);
  if (!container.ok()) {
    t.line("Error: cannot start container: " +
           std::string(err_message(container.error())));
    return 125;
  }
  std::string out, err;
  const int status = m_.shell().run_argv(*container, argv, out, err);
  t.block(out);
  t.block(err);
  return status;
}

int Podman::show_id_maps(Transcript& t) {
  // `podman unshare cat /proc/self/uid_map`
  kernel::Process c = invoker_.clone();
  c.sys = m_.kernel().syscalls();
  if (auto rc = c.sys->unshare_userns(c); !rc.ok()) {
    t.line("Error: cannot create user namespace");
    return 125;
  }
  if (options_.rootless_helpers) {
    kernel::Process helper_invoker = invoker_.clone();
    helper_invoker.sys = m_.kernel().syscalls();
    std::vector<kernel::IdMapEntry> uids(uid_map_.entries());
    std::vector<kernel::IdMapEntry> gids(gid_map_.entries());
    if (uids.size() < 2 ||
        !kernel::newuidmap(m_.kernel(), helper_invoker, c.userns, uids,
                           options_.helper_config)
             .ok() ||
        !kernel::newgidmap(m_.kernel(), helper_invoker, c.userns, gids,
                           options_.helper_config)
             .ok()) {
      t.line("Error: helpers could not install the requested ID maps");
      return 125;
    }
  } else {
    (void)c.sys->write_setgroups(
        c, c.userns, kernel::UserNamespace::SetgroupsPolicy::kDeny);
    (void)c.sys->write_uid_map(c, c.userns,
                               kernel::IdMap::single(0, invoker_.cred.euid));
    (void)c.sys->write_gid_map(c, c.userns,
                               kernel::IdMap::single(0, invoker_.cred.egid));
  }
  auto uid_map = c.sys->read_file(c, "/proc/self/uid_map");
  t.line("$ podman unshare cat /proc/self/uid_map");
  if (uid_map.ok()) t.block(*uid_map);
  return 0;
}

Result<RootFs> Podman::image_rootfs(const std::string& tag) const {
  auto it = images_.find(tag);
  if (it == images_.end()) return Err::enoent;
  RootFs rootfs;
  rootfs.fs = it->second.current.fs;
  rootfs.root = it->second.current.root;
  return rootfs;
}

const image::ImageConfig* Podman::config(const std::string& tag) const {
  auto it = images_.find(tag);
  return it == images_.end() ? nullptr : &it->second.cfg;
}

}  // namespace minicon::core
