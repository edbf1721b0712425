// In-memory filesystem: the tmpfs / local-disk model.
//
// MemFs performs no identity checks of its own (OpCtx is accepted and used
// only for timestamps); POSIX permission enforcement is the kernel's job.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "vfs/filesystem.hpp"

namespace minicon::vfs {

class MemFs : public Filesystem {
 public:
  // Creates an empty filesystem whose root directory is owned by root:root
  // with the given mode.
  explicit MemFs(std::uint32_t root_mode = 0755);

  std::string fs_type() const override { return "tmpfs"; }
  bool supports_user_xattrs() const override { return true; }

  InodeNum root() const override { return root_; }

  Result<InodeNum> lookup(InodeNum dir, const std::string& name) override;
  Result<Stat> getattr(InodeNum node) override;
  Result<std::vector<DirEntry>> readdir(InodeNum dir) override;
  Result<std::string> readlink(InodeNum node) override;
  Result<std::string> read(InodeNum node) override;

  Result<InodeNum> create(const OpCtx& ctx, InodeNum dir,
                          const std::string& name,
                          const CreateArgs& args) override;
  VoidResult write(const OpCtx& ctx, InodeNum node, std::string data,
                   bool append) override;
  VoidResult set_owner(const OpCtx& ctx, InodeNum node, Uid uid,
                       Gid gid) override;
  VoidResult set_mode(const OpCtx& ctx, InodeNum node,
                      std::uint32_t mode) override;
  VoidResult link(const OpCtx& ctx, InodeNum dir, const std::string& name,
                  InodeNum target) override;
  VoidResult unlink(const OpCtx& ctx, InodeNum dir,
                    const std::string& name) override;
  VoidResult rmdir(const OpCtx& ctx, InodeNum dir,
                   const std::string& name) override;
  VoidResult rename(const OpCtx& ctx, InodeNum src_dir,
                    const std::string& src_name, InodeNum dst_dir,
                    const std::string& dst_name) override;

  VoidResult set_xattr(const OpCtx& ctx, InodeNum node, const std::string& name,
                       const std::string& value) override;
  Result<std::string> get_xattr(InodeNum node,
                                const std::string& name) override;
  Result<std::vector<std::string>> list_xattrs(InodeNum node) override;
  VoidResult remove_xattr(const OpCtx& ctx, InodeNum node,
                          const std::string& name) override;

  // Adopts `leaf`'s content buffer by pointer (no copy) and its metadata,
  // then seeds the inode's snapshot cache with `leaf` itself when every
  // digested field matches what snapshot() would freeze, so the next
  // snapshot re-digests only the directories above it.
  VoidResult assign(const OpCtx& ctx, InodeNum node,
                    const SnapNodePtr& leaf) override;

  // O(changed) snapshots: each inode caches its frozen subtree snapshot and
  // mutations invalidate only the dirty path to the root, so re-snapshotting
  // after touching one file rebuilds one path and reuses every sibling.
  Result<SnapNodePtr> snapshot(InodeNum node,
                               SnapshotStats* stats = nullptr) override;

  // Total logical bytes of file content (a buffer shared by several inodes
  // or snapshots counts once per inode); the storage-driver bench uses this
  // to show the VFS driver's "significant storage overhead" (§4.1).
  std::uint64_t total_bytes() const;
  std::size_t inode_count() const { return inodes_.size(); }

 private:
  struct Inode {
    Stat st;
    // Regular-file content or symlink target. Bytes no one else holds live
    // in `own`, so writes and appends work in place. snapshot() moves them
    // into `shared` (no copy) and hands that buffer to the SnapNode;
    // assign() adopts a leaf's buffer there. `shared` is copy-on-write:
    // the next write replaces it, and an append copies it into `own` once.
    std::string own;
    std::shared_ptr<const std::string> shared;
    std::map<std::string, InodeNum> children;   // directory
    std::map<std::string, std::string> xattrs;
    SnapNodePtr snap;                // cached frozen subtree, null when dirty
    std::vector<InodeNum> parents;   // one entry per link (dirs: exactly one)
  };

  Inode* get(InodeNum n);
  Result<Inode*> get_dir(InodeNum n);
  InodeNum alloc(const OpCtx& ctx, const CreateArgs& args);
  void unref(InodeNum n);
  // Invalidates n's cached snapshot and every cached ancestor along its link
  // parents; stops at ancestors that are already invalid (their own
  // ancestors must already be invalid too).
  void touch(InodeNum n);
  static std::string_view view(const Inode& node) {
    return node.shared != nullptr ? std::string_view(*node.shared)
                                  : std::string_view(node.own);
  }

  std::unordered_map<InodeNum, Inode> inodes_;
  InodeNum next_ino_ = 1;
  InodeNum root_ = 0;
};

}  // namespace minicon::vfs
