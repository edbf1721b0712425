// Abstract filesystem interface.
//
// Every concrete filesystem (MemFs, OverlayFs, SharedFs) exposes inode-level
// operations; the kernel's path walker and permission checks sit above this
// layer. Filesystems do NOT check POSIX permissions — that is the kernel's
// job — but server-enforcing filesystems (the NFS model) may apply their own
// server-side identity rules using the OpCtx, which is exactly the mechanism
// by which rootless Podman's ID maps break on shared filesystems (§4.2).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/result.hpp"
#include "vfs/types.hpp"

namespace minicon::vfs {

// Immutable copy-on-write snapshot node (see vfs/snapshot.hpp).
struct SnapNode;
using SnapNodePtr = std::shared_ptr<const SnapNode>;

// How much work a snapshot() call actually did: caching filesystems reuse
// subtrees whose digests are still valid and rebuild only dirty paths.
struct SnapshotStats {
  std::uint64_t nodes_built = 0;   // nodes (and digests) computed fresh
  std::uint64_t nodes_reused = 0;  // nodes reused from subtree caches
};

struct CreateArgs {
  FileType type = FileType::Regular;
  std::uint32_t mode = 0644;
  Uid uid = 0;
  Gid gid = 0;
  std::uint32_t dev_major = 0;
  std::uint32_t dev_minor = 0;
  std::string symlink_target;  // for FileType::Symlink
};

class Filesystem {
 public:
  virtual ~Filesystem() = default;

  // Human-readable name for diagnostics ("tmpfs", "overlay", "nfs").
  virtual std::string fs_type() const = 0;

  // Feature flags that container storage drivers probe for.
  virtual bool supports_user_xattrs() const = 0;
  virtual bool supports_device_nodes() const { return true; }

  virtual InodeNum root() const = 0;

  virtual Result<InodeNum> lookup(InodeNum dir, const std::string& name) = 0;
  virtual Result<Stat> getattr(InodeNum node) = 0;
  virtual Result<std::vector<DirEntry>> readdir(InodeNum dir) = 0;
  virtual Result<std::string> readlink(InodeNum node) = 0;
  virtual Result<std::string> read(InodeNum node) = 0;

  virtual Result<InodeNum> create(const OpCtx& ctx, InodeNum dir,
                                  const std::string& name,
                                  const CreateArgs& args) = 0;
  virtual VoidResult write(const OpCtx& ctx, InodeNum node, std::string data,
                           bool append) = 0;
  virtual VoidResult set_owner(const OpCtx& ctx, InodeNum node, Uid uid,
                               Gid gid) = 0;
  virtual VoidResult set_mode(const OpCtx& ctx, InodeNum node,
                              std::uint32_t mode) = 0;
  // Hard link `target` into `dir` as `name`.
  virtual VoidResult link(const OpCtx& ctx, InodeNum dir,
                          const std::string& name, InodeNum target) = 0;
  virtual VoidResult unlink(const OpCtx& ctx, InodeNum dir,
                            const std::string& name) = 0;
  virtual VoidResult rmdir(const OpCtx& ctx, InodeNum dir,
                           const std::string& name) = 0;
  virtual VoidResult rename(const OpCtx& ctx, InodeNum src_dir,
                            const std::string& src_name, InodeNum dst_dir,
                            const std::string& dst_name) = 0;

  // Extended attributes (user.* namespace). Used by the Podman storage
  // driver to stash container ownership; unsupported on the default NFS
  // model, reproducing the shared-filesystem clash from §6.1.
  virtual VoidResult set_xattr(const OpCtx& ctx, InodeNum node,
                               const std::string& name,
                               const std::string& value) = 0;
  virtual Result<std::string> get_xattr(InodeNum node,
                                        const std::string& name) = 0;
  virtual Result<std::vector<std::string>> list_xattrs(InodeNum node) = 0;
  virtual VoidResult remove_xattr(const OpCtx& ctx, InodeNum node,
                                  const std::string& name) = 0;

  // Makes the regular file `node` equal to the frozen regular-file `leaf`:
  // content, mode, owner and xattrs. The default reads and compares the
  // content, rewrites it if it differs, then fixes up metadata through the
  // public interface, so a filesystem's own identity rules still apply.
  // MemFs overrides it to adopt the leaf's content buffer by pointer.
  virtual VoidResult assign(const OpCtx& ctx, InodeNum node,
                            const SnapNodePtr& leaf);

  // Copy-on-write snapshot of the subtree rooted at `node`, with per-node
  // Merkle digests. The default walks the whole subtree through the public
  // interface (O(subtree)); MemFs and OverlayFs override it with per-inode
  // caches so only dirty paths are rebuilt (O(changed)).
  virtual Result<SnapNodePtr> snapshot(InodeNum node,
                                       SnapshotStats* stats = nullptr);
};

using FilesystemPtr = std::shared_ptr<Filesystem>;

}  // namespace minicon::vfs
