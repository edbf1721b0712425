#include "vfs/memfs.hpp"

#include <algorithm>

#include "vfs/snapshot.hpp"

namespace minicon::vfs {

namespace {

// Drops one recorded link occurrence (hardlinks record one entry per link).
void erase_one_parent(std::vector<InodeNum>& parents, InodeNum dir) {
  auto it = std::find(parents.begin(), parents.end(), dir);
  if (it != parents.end()) parents.erase(it);
}

}  // namespace

MemFs::MemFs(std::uint32_t root_mode) {
  OpCtx ctx;
  CreateArgs args;
  args.type = FileType::Directory;
  args.mode = root_mode;
  root_ = alloc(ctx, args);
  inodes_[root_].st.nlink = 2;
}

MemFs::Inode* MemFs::get(InodeNum n) {
  auto it = inodes_.find(n);
  return it == inodes_.end() ? nullptr : &it->second;
}

Result<MemFs::Inode*> MemFs::get_dir(InodeNum n) {
  Inode* node = get(n);
  if (node == nullptr) return Err::estale;
  if (node->st.type != FileType::Directory) return Err::enotdir;
  return node;
}

InodeNum MemFs::alloc(const OpCtx& ctx, const CreateArgs& args) {
  const InodeNum n = next_ino_++;
  Inode node;
  node.st.ino = n;
  node.st.type = args.type;
  node.st.mode = args.mode & mode::kPermMask;
  node.st.uid = args.uid;
  node.st.gid = args.gid;
  node.st.nlink = args.type == FileType::Directory ? 2 : 1;
  node.st.dev_major = args.dev_major;
  node.st.dev_minor = args.dev_minor;
  node.st.mtime = ctx.now;
  if (args.type == FileType::Symlink) {
    node.own = args.symlink_target;
    node.st.size = node.own.size();
    node.st.mode = 0777;
  }
  inodes_.emplace(n, std::move(node));
  return n;
}

void MemFs::unref(InodeNum n) {
  Inode* node = get(n);
  if (node == nullptr) return;
  if (node->st.nlink > 0) --node->st.nlink;
  if (node->st.nlink == 0) inodes_.erase(n);
}

void MemFs::touch(InodeNum n) {
  Inode* node = get(n);
  if (node == nullptr) return;
  node->snap.reset();
  std::vector<InodeNum> stack(node->parents.begin(), node->parents.end());
  while (!stack.empty()) {
    const InodeNum p = stack.back();
    stack.pop_back();
    Inode* pn = get(p);
    // An already-invalid ancestor implies its own ancestors are invalid too
    // (caches are only filled bottom-up), so stop ascending there.
    if (pn == nullptr || pn->snap == nullptr) continue;
    pn->snap.reset();
    stack.insert(stack.end(), pn->parents.begin(), pn->parents.end());
  }
}

Result<InodeNum> MemFs::lookup(InodeNum dir, const std::string& name) {
  MINICON_TRY_ASSIGN(d, get_dir(dir));
  auto it = d->children.find(name);
  if (it == d->children.end()) return Err::enoent;
  return it->second;
}

Result<Stat> MemFs::getattr(InodeNum n) {
  Inode* node = get(n);
  if (node == nullptr) return Err::estale;
  return node->st;
}

Result<std::vector<DirEntry>> MemFs::readdir(InodeNum dir) {
  MINICON_TRY_ASSIGN(d, get_dir(dir));
  std::vector<DirEntry> out;
  out.reserve(d->children.size());
  for (const auto& [name, ino] : d->children) {
    const Inode* child = get(ino);
    out.push_back({name, ino,
                   child != nullptr ? child->st.type : FileType::Regular});
  }
  return out;
}

Result<std::string> MemFs::readlink(InodeNum n) {
  Inode* node = get(n);
  if (node == nullptr) return Err::estale;
  if (node->st.type != FileType::Symlink) return Err::einval;
  return std::string(view(*node));
}

Result<std::string> MemFs::read(InodeNum n) {
  Inode* node = get(n);
  if (node == nullptr) return Err::estale;
  if (node->st.type == FileType::Directory) return Err::eisdir;
  return std::string(view(*node));
}

Result<InodeNum> MemFs::create(const OpCtx& ctx, InodeNum dir,
                               const std::string& name,
                               const CreateArgs& args) {
  MINICON_TRY_ASSIGN(d, get_dir(dir));
  if (d->children.contains(name)) return Err::eexist;
  const InodeNum n = alloc(ctx, args);
  d->children.emplace(name, n);
  inodes_[n].parents.push_back(dir);
  if (args.type == FileType::Directory) ++d->st.nlink;
  d->st.mtime = ctx.now;
  touch(dir);
  return n;
}

VoidResult MemFs::write(const OpCtx& ctx, InodeNum n, std::string data,
                        bool append) {
  Inode* node = get(n);
  if (node == nullptr) return Err::estale;
  if (node->st.type == FileType::Directory) return Err::eisdir;
  if (node->st.type != FileType::Regular) return Err::einval;
  if (append) {
    if (node->shared != nullptr) node->own = *node->shared;
    node->own += data;
  } else {
    node->own = std::move(data);
  }
  node->shared.reset();
  node->st.size = node->own.size();
  node->st.mtime = ctx.now;
  touch(n);
  return {};
}

VoidResult MemFs::set_owner(const OpCtx& ctx, InodeNum n, Uid uid, Gid gid) {
  Inode* node = get(n);
  if (node == nullptr) return Err::estale;
  if (uid != kNoChangeId) node->st.uid = uid;
  if (gid != kNoChangeId) node->st.gid = gid;
  node->st.mtime = ctx.now;
  touch(n);
  return {};
}

VoidResult MemFs::set_mode(const OpCtx& ctx, InodeNum n, std::uint32_t m) {
  Inode* node = get(n);
  if (node == nullptr) return Err::estale;
  node->st.mode = m & mode::kPermMask;
  node->st.mtime = ctx.now;
  touch(n);
  return {};
}

VoidResult MemFs::link(const OpCtx& ctx, InodeNum dir, const std::string& name,
                       InodeNum target) {
  MINICON_TRY_ASSIGN(d, get_dir(dir));
  Inode* t = get(target);
  if (t == nullptr) return Err::estale;
  if (t->st.type == FileType::Directory) return Err::eperm;
  if (d->children.contains(name)) return Err::eexist;
  d->children.emplace(name, target);
  ++t->st.nlink;
  t->parents.push_back(dir);
  d->st.mtime = ctx.now;
  // nlink is not part of the digest, so the target's own snapshot stays
  // valid; only the linking directory changed.
  touch(dir);
  return {};
}

VoidResult MemFs::unlink(const OpCtx& ctx, InodeNum dir,
                         const std::string& name) {
  MINICON_TRY_ASSIGN(d, get_dir(dir));
  auto it = d->children.find(name);
  if (it == d->children.end()) return Err::enoent;
  Inode* child = get(it->second);
  if (child != nullptr && child->st.type == FileType::Directory) {
    return Err::eisdir;
  }
  const InodeNum victim = it->second;
  d->children.erase(it);
  d->st.mtime = ctx.now;
  if (Inode* v = get(victim); v != nullptr) erase_one_parent(v->parents, dir);
  unref(victim);
  touch(dir);
  return {};
}

VoidResult MemFs::rmdir(const OpCtx& ctx, InodeNum dir,
                        const std::string& name) {
  MINICON_TRY_ASSIGN(d, get_dir(dir));
  auto it = d->children.find(name);
  if (it == d->children.end()) return Err::enoent;
  Inode* child = get(it->second);
  if (child == nullptr) return Err::estale;
  if (child->st.type != FileType::Directory) return Err::enotdir;
  if (!child->children.empty()) return Err::enotempty;
  const InodeNum victim = it->second;
  d->children.erase(it);
  --d->st.nlink;
  d->st.mtime = ctx.now;
  inodes_.erase(victim);
  touch(dir);
  return {};
}

VoidResult MemFs::rename(const OpCtx& ctx, InodeNum src_dir,
                         const std::string& src_name, InodeNum dst_dir,
                         const std::string& dst_name) {
  MINICON_TRY_ASSIGN(sd, get_dir(src_dir));
  MINICON_TRY_ASSIGN(dd, get_dir(dst_dir));
  auto sit = sd->children.find(src_name);
  if (sit == sd->children.end()) return Err::enoent;
  const InodeNum moving = sit->second;
  Inode* moving_node = get(moving);
  if (moving_node == nullptr) return Err::estale;

  auto dit = dd->children.find(dst_name);
  if (dit != dd->children.end()) {
    if (dit->second == moving) return {};  // rename onto itself
    Inode* existing = get(dit->second);
    if (existing != nullptr && existing->st.type == FileType::Directory) {
      if (moving_node->st.type != FileType::Directory) return Err::eisdir;
      if (!existing->children.empty()) return Err::enotempty;
      const InodeNum victim = dit->second;
      dd->children.erase(dit);
      --dd->st.nlink;
      inodes_.erase(victim);
    } else {
      if (moving_node->st.type == FileType::Directory) return Err::enotdir;
      const InodeNum victim = dit->second;
      dd->children.erase(dit);
      if (existing != nullptr) erase_one_parent(existing->parents, dst_dir);
      unref(victim);
    }
  }

  sd->children.erase(src_name);
  dd->children.emplace(dst_name, moving);
  erase_one_parent(moving_node->parents, src_dir);
  moving_node->parents.push_back(dst_dir);
  if (moving_node->st.type == FileType::Directory && sd != dd) {
    --sd->st.nlink;
    ++dd->st.nlink;
  }
  sd->st.mtime = ctx.now;
  dd->st.mtime = ctx.now;
  touch(src_dir);
  touch(dst_dir);
  return {};
}

VoidResult MemFs::set_xattr(const OpCtx& ctx, InodeNum n,
                            const std::string& name, const std::string& value) {
  Inode* node = get(n);
  if (node == nullptr) return Err::estale;
  node->xattrs[name] = value;
  node->st.mtime = ctx.now;
  touch(n);
  return {};
}

Result<std::string> MemFs::get_xattr(InodeNum n, const std::string& name) {
  Inode* node = get(n);
  if (node == nullptr) return Err::estale;
  auto it = node->xattrs.find(name);
  if (it == node->xattrs.end()) return Err::enodata;
  return it->second;
}

Result<std::vector<std::string>> MemFs::list_xattrs(InodeNum n) {
  Inode* node = get(n);
  if (node == nullptr) return Err::estale;
  std::vector<std::string> out;
  out.reserve(node->xattrs.size());
  for (const auto& [name, _] : node->xattrs) out.push_back(name);
  return out;
}

VoidResult MemFs::remove_xattr(const OpCtx& ctx, InodeNum n,
                               const std::string& name) {
  Inode* node = get(n);
  if (node == nullptr) return Err::estale;
  auto it = node->xattrs.find(name);
  if (it == node->xattrs.end()) return Err::enodata;
  node->xattrs.erase(it);
  node->st.mtime = ctx.now;
  touch(n);
  return {};
}

VoidResult MemFs::assign(const OpCtx& ctx, InodeNum n,
                         const SnapNodePtr& leaf) {
  Inode* node = get(n);
  if (node == nullptr) return Err::estale;
  if (node->st.type == FileType::Directory) return Err::eisdir;
  if (node->st.type != FileType::Regular || leaf->type != FileType::Regular) {
    return Err::einval;
  }
  const std::uint32_t mode = leaf->mode & mode::kPermMask;
  node->shared = leaf->content;
  std::string().swap(node->own);
  node->st.size = view(*node).size();
  node->st.mode = mode;
  node->st.uid = leaf->uid;
  node->st.gid = leaf->gid;
  node->xattrs = leaf->xattrs;
  node->st.mtime = ctx.now;
  touch(n);
  // Content, owner and xattrs were copied verbatim, so `leaf` is exactly
  // what snapshot() would freeze unless the mode was normalized on the way
  // in; then the cache stays empty and the next snapshot re-digests.
  if (leaf->mode == mode && leaf->dev_major == node->st.dev_major &&
      leaf->dev_minor == node->st.dev_minor) {
    node->snap = leaf;
  }
  return {};
}

Result<SnapNodePtr> MemFs::snapshot(InodeNum n, SnapshotStats* stats) {
  Inode* node = get(n);
  if (node == nullptr) return Err::estale;
  if (node->snap != nullptr) {
    if (stats != nullptr) stats->nodes_reused += node->snap->tree_nodes;
    return node->snap;
  }
  SnapNode sn;
  sn.type = node->st.type;
  sn.mode = node->st.mode;
  sn.uid = node->st.uid;
  sn.gid = node->st.gid;
  sn.dev_major = node->st.dev_major;
  sn.dev_minor = node->st.dev_minor;
  sn.xattrs = node->xattrs;
  if (node->st.type == FileType::Directory) {
    // Recursion may not mutate inodes_, and unordered_map never moves its
    // elements, so `node` stays valid across the child calls.
    for (const auto& [name, ino] : node->children) {
      MINICON_TRY_ASSIGN(child, snapshot(ino, stats));
      sn.children.emplace(name, std::move(child));
    }
  } else if (node->st.type == FileType::Regular ||
             node->st.type == FileType::Symlink) {
    if (node->shared == nullptr) {
      node->shared = std::make_shared<const std::string>(std::move(node->own));
    }
    sn.content = node->shared;
  }
  node->snap = freeze_snap_node(std::move(sn));
  if (stats != nullptr) ++stats->nodes_built;
  return node->snap;
}

std::uint64_t MemFs::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [_, node] : inodes_) {
    if (node.st.type == FileType::Regular) total += view(node).size();
  }
  return total;
}

}  // namespace minicon::vfs
