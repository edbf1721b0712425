// SyscallFilter: the base of the composable interposition stack, and the
// stack's one hook point.
//
// A filter wraps an inner std::shared_ptr<Syscalls> and forwards every
// operation. Stacking filters is the simulator's LD_PRELOAD: a process's
// `sys` pointer names the top of its stack, and each layer owns the one
// below it. Layers come in two shapes:
//   * Hook layers (ObserveSyscalls, TraceSyscalls, FaultInjectSyscalls)
//     override no Syscalls method. They name the ops they see in two
//     OpMasks — a bitset over the numeric SysOp table, like a seccomp
//     filter keyed by syscall number — and implement before()/after().
//   * Semantic layers (fakeroot's lies, ZeroConsistencySyscalls) change
//     what a call does based on its arguments, so they keep typed overrides
//     for just those ops and forward the rest through this base.
// Every forwarder tests its op against the layer's masks; a layer with
// empty masks forwards exactly as a bare filter does.
//
// Introspection is transparent: a filter reports the interposer-ness of
// whatever it wraps, so the dispatcher's static-binary unwrapping and
// interposition_depth() both walk through observability layers.
#pragma once

#include <array>
#include <bitset>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "kernel/syscalls.hpp"

namespace minicon::kernel {

// One value per Syscalls method a hook can see, in declaration order.
// resolve() has none: it is the builders' path-to-inode helper, not a
// syscall, so no layer ever counts, traces or fails it.
enum class SysOp : std::uint8_t {
  kStat, kLstat, kReadFile, kWriteFile, kReaddir, kReadlink, kMkdir, kMknod,
  kSymlink, kLink, kUnlink, kRmdir, kRename, kChown, kChmod, kAccess, kChdir,
  kSetXattr, kGetXattr, kListXattrs, kRemoveXattr,
  kGetuid, kGeteuid, kGetgid, kGetegid, kGetgroups, kSetuid, kSetgid,
  kSetresuid, kSetresgid, kSeteuid, kSetegid, kSetgroups,
  kUnshareUserns, kUnshareMountns, kWriteUidMap, kWriteGidMap,
  kWriteSetgroups, kUsernsAutoMap, kMount, kUmount, kBindMount,
};
inline constexpr std::size_t kSysOpCount =
    static_cast<std::size_t>(SysOp::kBindMount) + 1;

// The strace-style name each op is counted, traced and fault-matched under.
// Several methods share a name, as their real syscalls do: the id-map and
// setgroups writes are write(2) to /proc, both unshares are unshare(2), and
// a bind mount is mount(2).
inline constexpr std::array<const char*, kSysOpCount> kSysOpNames = {
    "stat",      "lstat",     "read",      "write",     "readdir",
    "readlink",  "mkdir",     "mknod",     "symlink",   "link",
    "unlink",    "rmdir",     "rename",    "chown",     "chmod",
    "access",    "chdir",     "setxattr",  "getxattr",  "listxattr",
    "removexattr",
    "getuid",    "geteuid",   "getgid",    "getegid",   "getgroups",
    "setuid",    "setgid",    "setresuid", "setresgid", "seteuid",
    "setegid",   "setgroups",
    "unshare",   "unshare",   "write",     "write",     "write",
    "userns_auto_map",        "mount",     "umount",    "mount",
};

constexpr const char* sysop_name(SysOp op) {
  return kSysOpNames[static_cast<std::size_t>(op)];
}

constexpr bool is_sysop_name(std::string_view name) {
  for (const char* n : kSysOpNames) {
    if (name == n) return true;
  }
  return false;
}

// "Ops this layer processes", one bit per SysOp.
using OpMask = std::bitset<kSysOpCount>;
static_assert(kSysOpCount <= 64, "op_mask builds the mask in one word");

constexpr OpMask op_mask(std::initializer_list<SysOp> ops) {
  std::uint64_t bits = 0;
  for (SysOp op : ops) bits |= std::uint64_t{1} << static_cast<unsigned>(op);
  return OpMask(bits);
}

class SyscallFilter : public Syscalls {
 public:
  explicit SyscallFilter(std::shared_ptr<Syscalls> inner)
      : SyscallFilter(std::move(inner), OpMask{}, OpMask{}) {}

  // --- file metadata & data -------------------------------------------
  Result<vfs::Stat> stat(Process& p, const std::string& path) override {
    return hooked(SysOp::kStat, path, [&] { return inner_->stat(p, path); });
  }
  Result<vfs::Stat> lstat(Process& p, const std::string& path) override {
    return hooked(SysOp::kLstat, path, [&] { return inner_->lstat(p, path); });
  }
  Result<std::string> read_file(Process& p, const std::string& path) override {
    return hooked(SysOp::kReadFile, path,
                  [&] { return inner_->read_file(p, path); });
  }
  VoidResult write_file(Process& p, const std::string& path, std::string data,
                        bool append, std::uint32_t create_mode) override {
    return hooked(SysOp::kWriteFile, path, [&] {
      return inner_->write_file(p, path, std::move(data), append, create_mode);
    });
  }
  Result<std::vector<vfs::DirEntry>> readdir(Process& p,
                                             const std::string& path) override {
    return hooked(SysOp::kReaddir, path,
                  [&] { return inner_->readdir(p, path); });
  }
  Result<std::string> readlink(Process& p, const std::string& path) override {
    return hooked(SysOp::kReadlink, path,
                  [&] { return inner_->readlink(p, path); });
  }
  VoidResult mkdir(Process& p, const std::string& path,
                   std::uint32_t mode) override {
    return hooked(SysOp::kMkdir, path,
                  [&] { return inner_->mkdir(p, path, mode); });
  }
  VoidResult mknod(Process& p, const std::string& path, vfs::FileType type,
                   std::uint32_t mode, std::uint32_t dev_major,
                   std::uint32_t dev_minor) override {
    return hooked(SysOp::kMknod, path, [&] {
      return inner_->mknod(p, path, type, mode, dev_major, dev_minor);
    });
  }
  VoidResult symlink(Process& p, const std::string& target,
                     const std::string& linkpath) override {
    return hooked(SysOp::kSymlink, linkpath,
                  [&] { return inner_->symlink(p, target, linkpath); });
  }
  VoidResult link(Process& p, const std::string& oldpath,
                  const std::string& newpath) override {
    return hooked(SysOp::kLink, newpath,
                  [&] { return inner_->link(p, oldpath, newpath); });
  }
  VoidResult unlink(Process& p, const std::string& path) override {
    return hooked(SysOp::kUnlink, path,
                  [&] { return inner_->unlink(p, path); });
  }
  VoidResult rmdir(Process& p, const std::string& path) override {
    return hooked(SysOp::kRmdir, path, [&] { return inner_->rmdir(p, path); });
  }
  VoidResult rename(Process& p, const std::string& oldpath,
                    const std::string& newpath) override {
    return hooked(SysOp::kRename, oldpath,
                  [&] { return inner_->rename(p, oldpath, newpath); });
  }
  VoidResult chown(Process& p, const std::string& path, Uid uid, Gid gid,
                   bool follow) override {
    return hooked(SysOp::kChown, path,
                  [&] { return inner_->chown(p, path, uid, gid, follow); });
  }
  VoidResult chmod(Process& p, const std::string& path,
                   std::uint32_t mode) override {
    return hooked(SysOp::kChmod, path,
                  [&] { return inner_->chmod(p, path, mode); });
  }
  VoidResult access(Process& p, const std::string& path, int mask) override {
    return hooked(SysOp::kAccess, path,
                  [&] { return inner_->access(p, path, mask); });
  }
  VoidResult chdir(Process& p, const std::string& path) override {
    return hooked(SysOp::kChdir, path, [&] { return inner_->chdir(p, path); });
  }

  VoidResult set_xattr(Process& p, const std::string& path,
                       const std::string& name,
                       const std::string& value) override {
    return hooked(SysOp::kSetXattr, path,
                  [&] { return inner_->set_xattr(p, path, name, value); });
  }
  Result<std::string> get_xattr(Process& p, const std::string& path,
                                const std::string& name) override {
    return hooked(SysOp::kGetXattr, path,
                  [&] { return inner_->get_xattr(p, path, name); });
  }
  Result<std::vector<std::string>> list_xattrs(
      Process& p, const std::string& path) override {
    return hooked(SysOp::kListXattrs, path,
                  [&] { return inner_->list_xattrs(p, path); });
  }
  VoidResult remove_xattr(Process& p, const std::string& path,
                          const std::string& name) override {
    return hooked(SysOp::kRemoveXattr, path,
                  [&] { return inner_->remove_xattr(p, path, name); });
  }

  // --- identity ---------------------------------------------------------
  // Details: the (effective) id being set, or the group count.
  Uid getuid(Process& p) override {
    return hooked(SysOp::kGetuid, kNoDetail, [&] { return inner_->getuid(p); });
  }
  Uid geteuid(Process& p) override {
    return hooked(SysOp::kGeteuid, kNoDetail,
                  [&] { return inner_->geteuid(p); });
  }
  Gid getgid(Process& p) override {
    return hooked(SysOp::kGetgid, kNoDetail, [&] { return inner_->getgid(p); });
  }
  Gid getegid(Process& p) override {
    return hooked(SysOp::kGetegid, kNoDetail,
                  [&] { return inner_->getegid(p); });
  }
  std::vector<Gid> getgroups(Process& p) override {
    return hooked(SysOp::kGetgroups, kNoDetail,
                  [&] { return inner_->getgroups(p); });
  }
  VoidResult setuid(Process& p, Uid uid) override {
    return hooked(SysOp::kSetuid, [&] { return std::to_string(uid); },
                  [&] { return inner_->setuid(p, uid); });
  }
  VoidResult setgid(Process& p, Gid gid) override {
    return hooked(SysOp::kSetgid, [&] { return std::to_string(gid); },
                  [&] { return inner_->setgid(p, gid); });
  }
  VoidResult setresuid(Process& p, Uid r, Uid e, Uid s) override {
    return hooked(SysOp::kSetresuid, [&] { return std::to_string(e); },
                  [&] { return inner_->setresuid(p, r, e, s); });
  }
  VoidResult setresgid(Process& p, Gid r, Gid e, Gid s) override {
    return hooked(SysOp::kSetresgid, [&] { return std::to_string(e); },
                  [&] { return inner_->setresgid(p, r, e, s); });
  }
  VoidResult seteuid(Process& p, Uid e) override {
    return hooked(SysOp::kSeteuid, [&] { return std::to_string(e); },
                  [&] { return inner_->seteuid(p, e); });
  }
  VoidResult setegid(Process& p, Gid e) override {
    return hooked(SysOp::kSetegid, [&] { return std::to_string(e); },
                  [&] { return inner_->setegid(p, e); });
  }
  VoidResult setgroups(Process& p, const std::vector<Gid>& groups) override {
    return hooked(SysOp::kSetgroups,
                  [&] { return std::to_string(groups.size()); },
                  [&] { return inner_->setgroups(p, groups); });
  }

  // --- namespaces & mounts -----------------------------------------------
  // Details: the clone flag, or the /proc file a map write targets.
  VoidResult unshare_userns(Process& p) override {
    return hooked(SysOp::kUnshareUserns,
                  [] { return std::string("CLONE_NEWUSER"); },
                  [&] { return inner_->unshare_userns(p); });
  }
  VoidResult unshare_mountns(Process& p) override {
    return hooked(SysOp::kUnshareMountns,
                  [] { return std::string("CLONE_NEWNS"); },
                  [&] { return inner_->unshare_mountns(p); });
  }
  VoidResult write_uid_map(Process& writer, const UserNsPtr& target,
                           IdMap map) override {
    return hooked(SysOp::kWriteUidMap,
                  [] { return std::string("/proc/self/uid_map"); }, [&] {
                    return inner_->write_uid_map(writer, target,
                                                 std::move(map));
                  });
  }
  VoidResult write_gid_map(Process& writer, const UserNsPtr& target,
                           IdMap map) override {
    return hooked(SysOp::kWriteGidMap,
                  [] { return std::string("/proc/self/gid_map"); }, [&] {
                    return inner_->write_gid_map(writer, target,
                                                 std::move(map));
                  });
  }
  VoidResult write_setgroups(Process& writer, const UserNsPtr& target,
                             UserNamespace::SetgroupsPolicy policy) override {
    return hooked(SysOp::kWriteSetgroups,
                  [] { return std::string("/proc/self/setgroups"); },
                  [&] { return inner_->write_setgroups(writer, target, policy); });
  }
  VoidResult userns_auto_map(Process& p) override {
    return hooked(SysOp::kUsernsAutoMap, kNoDetail,
                  [&] { return inner_->userns_auto_map(p); });
  }
  VoidResult mount(Process& p, Mount m) override {
    // The detail is a copy: the call moves `m` into the layer below.
    return hooked(SysOp::kMount, [&] { return m.mountpoint; },
                  [&] { return inner_->mount(p, std::move(m)); });
  }
  VoidResult umount(Process& p, const std::string& mountpoint) override {
    return hooked(SysOp::kUmount, mountpoint,
                  [&] { return inner_->umount(p, mountpoint); });
  }
  VoidResult bind_mount(Process& p, const std::string& src,
                        const std::string& dst, bool read_only) override {
    return hooked(SysOp::kBindMount, dst,
                  [&] { return inner_->bind_mount(p, src, dst, read_only); });
  }

  // --- resolution ---------------------------------------------------------
  Result<Loc> resolve(Process& p, const std::string& path,
                      bool follow_last) override {
    return inner_->resolve(p, path, follow_last);
  }

  // --- interposition introspection -----------------------------------------
  // Transparent: whether the *stack* is an interposer is a property of the
  // layers below (fakeroot overrides these to model LD_PRELOAD vs ptrace).
  bool is_interposer() const override { return inner_->is_interposer(); }
  bool wraps_statically_linked() const override {
    return inner_->wraps_statically_linked();
  }
  std::shared_ptr<Syscalls> interposer_inner() const override {
    return inner_;
  }

 protected:
  using Clock = std::chrono::steady_clock;

  // A hook layer: before() runs for ops in `before_ops`, after() for ops in
  // `after_ops`.
  SyscallFilter(std::shared_ptr<Syscalls> inner, OpMask before_ops,
                OpMask after_ops)
      : inner_(std::move(inner)),
        before_ops_(before_ops),
        after_ops_(after_ops),
        hooked_ops_(before_ops | after_ops) {}

  // Runs ahead of the inner call. A result other than Err::none is returned
  // in place of calling down; ops that cannot fail (the identity getters)
  // ignore it. `detail` is the op's path argument or its traced detail.
  virtual Err before(SysOp /*op*/, const std::string& /*detail*/) {
    return Err::none;
  }
  // Runs once the inner call returns, with its errno (Err::none for success
  // and for ops that cannot fail) and the time the call started.
  virtual void after(SysOp /*op*/, Err /*e*/, const std::string& /*detail*/,
                     Clock::time_point /*start*/) {}

  const std::shared_ptr<Syscalls>& inner() const { return inner_; }

 private:
  template <typename R>
  static constexpr bool kCanFail = requires(const R& r) {
    { r.error() } -> std::same_as<Err>;
  };

  // A detail is the op's path argument itself, or a callable that builds
  // it; the callable runs only when a hook will see the op.
  template <typename D>
  static decltype(auto) detail_of(const D& d) {
    if constexpr (std::is_invocable_v<const D&>) {
      return d();
    } else {
      return (d);
    }
  }

  template <typename D, typename Call>
  auto hooked(SysOp op, const D& detail, Call&& call) -> decltype(call()) {
    const auto i = static_cast<std::size_t>(op);
    if (!hooked_ops_[i]) return call();
    using R = decltype(call());
    const std::string& text = detail_of(detail);
    if (before_ops_[i]) {
      const Err e = before(op, text);
      if constexpr (kCanFail<R>) {
        if (e != Err::none) return e;
      }
    }
    if (!after_ops_[i]) return call();
    const Clock::time_point start = Clock::now();
    R r = call();
    if constexpr (kCanFail<R>) {
      after(op, r.error(), text, start);
    } else {
      after(op, Err::none, text, start);
    }
    return r;
  }

  static inline const std::string kNoDetail;

  std::shared_ptr<Syscalls> inner_;
  const OpMask before_ops_;
  const OpMask after_ops_;
  const OpMask hooked_ops_;
};

// A layer factory: builders thread vectors of these through their options so
// callers can push arbitrary interposition layers (tracing, fault injection,
// future caching/batching) under the container's syscall stack.
using SyscallLayerFn =
    std::function<std::shared_ptr<Syscalls>(std::shared_ptr<Syscalls>)>;

// Number of interposition layers stacked above the real kernel
// implementation (0 for a bare KernelSyscalls). Safe to call on any layer:
// each filter owns its inner via shared_ptr, so the chain outlives the walk.
inline int interposition_depth(const Syscalls* top) {
  int depth = 0;
  const Syscalls* cur = top;
  while (cur != nullptr) {
    const auto in = cur->interposer_inner();
    if (in == nullptr) break;
    ++depth;
    cur = in.get();
  }
  return depth;
}

}  // namespace minicon::kernel
