#include "vfs/snapshot.hpp"

#include <atomic>

#include "support/sha256.hpp"

namespace minicon::vfs {

namespace {

std::atomic<std::uint64_t> g_digests{0};

char snap_type_tag(FileType t) {
  switch (t) {
    case FileType::Regular: return 'F';
    case FileType::Directory: return 'D';
    case FileType::Symlink: return 'L';
    case FileType::CharDev: return 'C';
    case FileType::BlockDev: return 'B';
    case FileType::Fifo: return 'P';
    case FileType::Socket: return 'S';
  }
  return '?';
}

}  // namespace

std::uint64_t snapshot_digests_computed() {
  return g_digests.load(std::memory_order_relaxed);
}

SnapNodePtr freeze_snap_node(SnapNode node) {
  Sha256 h;
  const char tag = snap_type_tag(node.type);
  h.update(&tag, 1);
  // Metadata header. mtime and nlink are deliberately excluded: mtime is a
  // logical clock (equal trees must digest equal across runs), and nlink is
  // a property of the directories linking to a file, not of its content.
  std::string header = "|" + std::to_string(node.mode) + "|" +
                       std::to_string(node.uid) + "|" +
                       std::to_string(node.gid);
  if (node.type == FileType::CharDev || node.type == FileType::BlockDev) {
    header += "|" + std::to_string(node.dev_major) + ":" +
              std::to_string(node.dev_minor);
  }
  h.update(header);
  for (const auto& [name, value] : node.xattrs) {
    h.update("|x:");
    h.update(name);
    h.update("=");
    h.update(value);
  }
  h.update("|");
  if (node.type == FileType::Directory) {
    node.tree_bytes = 0;
    node.tree_nodes = 1;
    for (const auto& [name, child] : node.children) {
      h.update(name);
      h.update("\0", 1);
      h.update(child->digest);
      h.update("\n");
      node.tree_bytes += child->tree_bytes;
      node.tree_nodes += child->tree_nodes;
    }
  } else {
    h.update(node.content_view());
    node.tree_bytes =
        node.type == FileType::Regular ? node.content_view().size() : 0;
    node.tree_nodes = 1;
  }
  const auto digest = h.finish();
  node.digest = to_hex(digest.data(), digest.size());
  g_digests.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<const SnapNode>(std::move(node));
}

Result<SnapNodePtr> snapshot_tree(Filesystem& fs, InodeNum root,
                                  SnapshotStats* stats) {
  MINICON_TRY_ASSIGN(st, fs.getattr(root));
  SnapNode node;
  node.type = st.type;
  node.mode = st.mode;
  node.uid = st.uid;
  node.gid = st.gid;
  node.dev_major = st.dev_major;
  node.dev_minor = st.dev_minor;
  if (auto xattrs = fs.list_xattrs(root); xattrs.ok()) {
    for (const auto& name : *xattrs) {
      if (auto v = fs.get_xattr(root, name); v.ok()) node.xattrs[name] = *v;
    }
  }
  if (st.type == FileType::Directory) {
    MINICON_TRY_ASSIGN(entries, fs.readdir(root));
    for (const auto& e : entries) {
      MINICON_TRY_ASSIGN(child, snapshot_tree(fs, e.ino, stats));
      node.children.emplace(e.name, std::move(child));
    }
  } else if (st.type == FileType::Regular) {
    MINICON_TRY_ASSIGN(data, fs.read(root));
    node.content = std::make_shared<const std::string>(std::move(data));
  } else if (st.type == FileType::Symlink) {
    MINICON_TRY_ASSIGN(target, fs.readlink(root));
    node.content = std::make_shared<const std::string>(std::move(target));
  }
  if (stats != nullptr) ++stats->nodes_built;
  return freeze_snap_node(std::move(node));
}

Result<SnapNodePtr> Filesystem::snapshot(InodeNum node, SnapshotStats* stats) {
  return snapshot_tree(*this, node, stats);
}

namespace {

VoidResult sync_metadata(Filesystem& fs, InodeNum ino, const Stat& st,
                         const SnapNodePtr& target, const OpCtx& ctx,
                         bool fix_owner = true) {
  if (st.mode != target->mode) {
    MINICON_TRY(fs.set_mode(ctx, ino, target->mode));
  }
  if (fix_owner && (st.uid != target->uid || st.gid != target->gid)) {
    MINICON_TRY(fs.set_owner(ctx, ino, target->uid, target->gid));
  }
  if (auto xattrs = fs.list_xattrs(ino); xattrs.ok()) {
    for (const auto& name : *xattrs) {
      if (!target->xattrs.contains(name)) {
        (void)fs.remove_xattr(ctx, ino, name);
      }
    }
  }
  for (const auto& [name, value] : target->xattrs) {
    auto cur = fs.get_xattr(ino, name);
    if (!cur.ok() || *cur != value) {
      (void)fs.set_xattr(ctx, ino, name, value);
    }
  }
  return {};
}

// The default assign(), all through the public interface: read, compare
// and rewrite the content, then fix up mode, xattrs and (if `fix_owner`)
// ownership.
VoidResult assign_generic(Filesystem& fs, InodeNum ino, const Stat& st,
                          const SnapNodePtr& leaf, const OpCtx& ctx,
                          bool fix_owner) {
  if (st.type != FileType::Regular || leaf->type != FileType::Regular) {
    return st.is_dir() ? Err::eisdir : Err::einval;
  }
  MINICON_TRY_ASSIGN(data, fs.read(ino));
  if (data != leaf->content_view()) {
    MINICON_TRY(fs.write(ctx, ino, std::string(leaf->content_view()), false));
  }
  return sync_metadata(fs, ino, st, leaf, ctx, fix_owner);
}

}  // namespace

VoidResult Filesystem::assign(const OpCtx& ctx, InodeNum node,
                              const SnapNodePtr& leaf) {
  MINICON_TRY_ASSIGN(st, getattr(node));
  return assign_generic(*this, node, st, leaf, ctx, /*fix_owner=*/true);
}

namespace {

// Creates (dir, name) from `node`, descending into directories.
VoidResult create_from_snap(Filesystem& fs, InodeNum dir,
                            const std::string& name, const SnapNodePtr& node,
                            const OpCtx& ctx, SyncStats* stats) {
  CreateArgs args;
  args.type = node->type;
  args.mode = node->mode;
  args.uid = node->uid;
  args.gid = node->gid;
  args.dev_major = node->dev_major;
  args.dev_minor = node->dev_minor;
  if (node->type == FileType::Symlink) {
    args.symlink_target = std::string(node->content_view());
  }
  MINICON_TRY_ASSIGN(ino, fs.create(ctx, dir, name, args));
  if (node->type == FileType::Regular) {
    // A server may store another owner than the one asked for (SharedFs
    // root squash). Creation has always accepted that, and a chown toward
    // the leaf's owner would be refused, so such a file gets only content,
    // mode and xattrs.
    MINICON_TRY_ASSIGN(st, fs.getattr(ino));
    if (st.uid == node->uid && st.gid == node->gid) {
      MINICON_TRY(fs.assign(ctx, ino, node));
    } else {
      MINICON_TRY(assign_generic(fs, ino, st, node, ctx, /*fix_owner=*/false));
    }
  } else {
    for (const auto& [xname, xvalue] : node->xattrs) {
      (void)fs.set_xattr(ctx, ino, xname, xvalue);
    }
  }
  if (stats != nullptr) ++stats->created;
  if (node->type == FileType::Directory) {
    for (const auto& [cname, child] : node->children) {
      MINICON_TRY(create_from_snap(fs, ino, cname, child, ctx, stats));
    }
  }
  return {};
}

// Removes (dir, name) whatever it is, recursively for directories.
VoidResult remove_entry(Filesystem& fs, InodeNum dir, const std::string& name,
                        const OpCtx& ctx, SyncStats* stats) {
  MINICON_TRY_ASSIGN(ino, fs.lookup(dir, name));
  MINICON_TRY_ASSIGN(st, fs.getattr(ino));
  if (st.is_dir()) {
    MINICON_TRY_ASSIGN(entries, fs.readdir(ino));
    for (const auto& e : entries) {
      MINICON_TRY(remove_entry(fs, ino, e.name, ctx, stats));
    }
    MINICON_TRY(fs.rmdir(ctx, dir, name));
  } else {
    MINICON_TRY(fs.unlink(ctx, dir, name));
  }
  if (stats != nullptr) ++stats->removed;
  return {};
}

// `cur` is the filesystem's own snapshot of `ino` (may be null on error
// paths); equal digests mean the whole subtree already matches.
VoidResult sync_dir(Filesystem& fs, InodeNum ino, const SnapNodePtr& cur,
                    const SnapNodePtr& target, const OpCtx& ctx,
                    SyncStats& stats) {
  if (cur != nullptr && cur->digest == target->digest) {
    stats.reused += target->tree_nodes;
    return {};
  }
  MINICON_TRY_ASSIGN(st, fs.getattr(ino));
  MINICON_TRY(sync_metadata(fs, ino, st, target, ctx));
  ++stats.retouched;
  // Drop entries the target does not have.
  MINICON_TRY_ASSIGN(entries, fs.readdir(ino));
  for (const auto& e : entries) {
    if (!target->children.contains(e.name)) {
      MINICON_TRY(remove_entry(fs, ino, e.name, ctx, &stats));
    }
  }
  for (const auto& [name, tchild] : target->children) {
    const SnapNodePtr* cchild = nullptr;
    if (cur != nullptr) {
      if (auto it = cur->children.find(name); it != cur->children.end()) {
        cchild = &it->second;
      }
    }
    if (cchild != nullptr && (*cchild)->digest == tchild->digest) {
      stats.reused += tchild->tree_nodes;
      continue;
    }
    auto existing = fs.lookup(ino, name);
    if (!existing.ok()) {
      MINICON_TRY(create_from_snap(fs, ino, name, tchild, ctx, &stats));
      continue;
    }
    MINICON_TRY_ASSIGN(est, fs.getattr(*existing));
    if (est.type == FileType::Directory &&
        tchild->type == FileType::Directory) {
      MINICON_TRY(sync_dir(fs, *existing, cchild != nullptr ? *cchild : nullptr,
                           tchild, ctx, stats));
      continue;
    }
    if (est.type == FileType::Regular && tchild->type == FileType::Regular) {
      MINICON_TRY(fs.assign(ctx, *existing, tchild));
      ++stats.retouched;
      continue;
    }
    // Type change (or symlink/device retarget): replace wholesale.
    MINICON_TRY(remove_entry(fs, ino, name, ctx, &stats));
    MINICON_TRY(create_from_snap(fs, ino, name, tchild, ctx, &stats));
  }
  return {};
}

}  // namespace

Result<SyncStats> sync_tree(Filesystem& fs, InodeNum dir,
                            const SnapNodePtr& target, const OpCtx& ctx) {
  if (target == nullptr || target->type != FileType::Directory) {
    return Err::enotdir;
  }
  SnapNodePtr cur;
  if (auto snap = fs.snapshot(dir); snap.ok()) cur = *snap;
  SyncStats stats;
  MINICON_TRY(sync_dir(fs, dir, cur, target, ctx, stats));
  return stats;
}

VoidResult materialize_into(Filesystem& fs, InodeNum dir,
                            const SnapNodePtr& node, const OpCtx& ctx) {
  if (node == nullptr || node->type != FileType::Directory) {
    return Err::enotdir;
  }
  for (const auto& [name, child] : node->children) {
    auto existing = fs.lookup(dir, name);
    if (!existing.ok()) {
      MINICON_TRY(create_from_snap(fs, dir, name, child, ctx, nullptr));
      continue;
    }
    MINICON_TRY_ASSIGN(est, fs.getattr(*existing));
    if (est.is_dir() && child->type == FileType::Directory) {
      // Merge like entries_to_tree: refresh metadata, descend.
      MINICON_TRY(sync_metadata(fs, *existing, est, child, ctx));
      MINICON_TRY(materialize_into(fs, *existing, child, ctx));
      continue;
    }
    if (est.is_dir()) return Err::eisdir;
    MINICON_TRY(fs.unlink(ctx, dir, name));
    MINICON_TRY(create_from_snap(fs, dir, name, child, ctx, nullptr));
  }
  return {};
}

SnapNodePtr flatten_snapshot(const SnapNodePtr& node,
                             std::map<std::string, SnapNodePtr>* memo) {
  if (memo != nullptr) {
    if (auto it = memo->find(node->digest); it != memo->end()) {
      return it->second;
    }
  }
  const bool meta_flat = node->uid == 0 && node->gid == 0 &&
                         (node->mode & (mode::kSetUid | mode::kSetGid)) == 0;
  SnapNodePtr out;
  if (node->type == FileType::Directory) {
    std::map<std::string, SnapNodePtr> children;
    bool changed = !meta_flat;
    for (const auto& [name, child] : node->children) {
      if (child->type == FileType::CharDev ||
          child->type == FileType::BlockDev) {
        changed = true;  // Type III images cannot contain device nodes
        continue;
      }
      SnapNodePtr flat = flatten_snapshot(child, memo);
      changed = changed || flat != child;
      children.emplace(name, std::move(flat));
    }
    if (!changed) {
      out = node;
    } else {
      SnapNode copy = *node;
      copy.uid = 0;
      copy.gid = 0;
      copy.mode &= ~(mode::kSetUid | mode::kSetGid);
      copy.children = std::move(children);
      out = freeze_snap_node(std::move(copy));
    }
  } else if (meta_flat) {
    out = node;
  } else {
    SnapNode copy = *node;
    copy.uid = 0;
    copy.gid = 0;
    copy.mode &= ~(mode::kSetUid | mode::kSetGid);
    out = freeze_snap_node(std::move(copy));
  }
  if (memo != nullptr) memo->emplace(node->digest, out);
  return out;
}

}  // namespace minicon::vfs
