// Interposition-stack tests: SyscallFilter transparency, TraceSyscalls
// counters, deterministic fault injection, and coherent builder diagnostics
// when a fault fires mid-build.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <stdexcept>

#include "core/chimage.hpp"
#include "core/cluster.hpp"
#include "core/podman.hpp"
#include "kernel/faultinject.hpp"
#include "kernel/kernel.hpp"
#include "kernel/observe.hpp"
#include "kernel/syscall_filter.hpp"
#include "kernel/syscalls.hpp"
#include "kernel/trace.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "support/transcript.hpp"
#include "vfs/memfs.hpp"

namespace minicon {
namespace {

using kernel::FaultInjectSyscalls;
using kernel::FaultSpec;
using kernel::Process;
using kernel::SyscallFilter;
using kernel::SyscallStats;
using kernel::SysOp;
using kernel::TraceSyscalls;

class InterposeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_shared<vfs::MemFs>(0755);
    kernel::Mount root;
    root.mountpoint = "/";
    root.fs = fs_;
    root.root = fs_->root();
    root.owner_ns = kernel_.init_userns();
    mountns_ = kernel::MountNamespace::make(std::move(root));
  }

  Process proc(std::shared_ptr<kernel::Syscalls> sys,
               vfs::Uid uid = 0, vfs::Gid gid = 0) {
    Process p;
    p.cred = uid == 0 ? kernel::Credentials::root()
                      : kernel::Credentials::user(uid, gid, {});
    p.userns = kernel_.init_userns();
    p.mountns = mountns_;
    p.sys = std::move(sys);
    return p;
  }

  kernel::Kernel kernel_;
  std::shared_ptr<vfs::MemFs> fs_;
  kernel::MountNsPtr mountns_;
};

// --- SyscallFilter: the identity layer ---------------------------------------

// A bare filter (and a stack of them) must behave exactly like the kernel
// table across the permission matrix that test_syscalls pins down.
TEST_F(InterposeTest, BareFilterIsIdentityAcrossPermissionMatrix) {
  struct PermCase {
    std::uint32_t mode;
    vfs::Uid file_uid;
    vfs::Gid file_gid;
    vfs::Uid proc_uid;
    vfs::Gid proc_gid;
    int want;
  };
  const PermCase cases[] = {
      {0600, 1000, 1000, 1000, 1000, kernel::kReadOk},
      {0600, 1000, 1000, 1000, 1000, kernel::kExecOk},
      {0640, 0, 1000, 1001, 1000, kernel::kReadOk},
      {0640, 0, 1000, 1001, 1000, kernel::kWriteOk},
      {0604, 0, 0, 1001, 1001, kernel::kReadOk},
      {0640, 0, 0, 1001, 1001, kernel::kReadOk},
      {0007, 1000, 1000, 1000, 1000, kernel::kReadOk},
      {0070, 1000, 1000, 1001, 1000, kernel::kReadOk},
      {0007, 1000, 1000, 1001, 1000, kernel::kReadOk},
  };
  auto raw = kernel_.syscalls();
  auto filtered = std::make_shared<SyscallFilter>(
      std::make_shared<SyscallFilter>(raw));  // two layers deep
  for (const auto& c : cases) {
    Process root = proc(raw);
    ASSERT_TRUE(root.sys->write_file(root, "/f", "x", false, 0777).ok());
    ASSERT_TRUE(root.sys->chmod(root, "/f", c.mode).ok());
    ASSERT_TRUE(root.sys->chown(root, "/f", c.file_uid, c.file_gid, true).ok());
    Process direct = proc(raw, c.proc_uid, c.proc_gid);
    Process wrapped = proc(filtered, c.proc_uid, c.proc_gid);
    const auto want = direct.sys->access(direct, "/f", c.want);
    const auto got = wrapped.sys->access(wrapped, "/f", c.want);
    EXPECT_EQ(want.ok(), got.ok());
    if (!want.ok()) {
      EXPECT_EQ(want.error(), got.error());
    }
    ASSERT_TRUE(root.sys->unlink(root, "/f").ok());
  }
}

TEST_F(InterposeTest, FilterForwardsDataAndMetadataOps) {
  auto filtered = std::make_shared<SyscallFilter>(kernel_.syscalls());
  Process p = proc(filtered);
  ASSERT_TRUE(p.sys->mkdir(p, "/d", 0755).ok());
  ASSERT_TRUE(p.sys->write_file(p, "/d/f", "hello", false, 0644).ok());
  EXPECT_EQ(*p.sys->read_file(p, "/d/f"), "hello");
  ASSERT_TRUE(p.sys->symlink(p, "/d/f", "/link").ok());
  EXPECT_EQ(*p.sys->readlink(p, "/link"), "/d/f");
  ASSERT_TRUE(p.sys->set_xattr(p, "/d/f", "user.k", "v").ok());
  EXPECT_EQ(*p.sys->get_xattr(p, "/d/f", "user.k"), "v");
  auto entries = p.sys->readdir(p, "/d");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
  EXPECT_EQ(p.sys->stat(p, "/nope").error(), Err::enoent);
}

TEST_F(InterposeTest, DepthWalksTheWholeStack) {
  auto raw = kernel_.syscalls();
  EXPECT_EQ(kernel::interposition_depth(raw.get()), 0);
  auto one = std::make_shared<SyscallFilter>(raw);
  EXPECT_EQ(kernel::interposition_depth(one.get()), 1);
  auto two = std::make_shared<FaultInjectSyscalls>(one, 1,
                                                   std::vector<FaultSpec>{});
  auto three = std::make_shared<TraceSyscalls>(two);
  EXPECT_EQ(kernel::interposition_depth(three.get()), 3);
  // Introspection is transparent: a bare filter reports the interposer-ness
  // of whatever it wraps.
  EXPECT_FALSE(one->is_interposer());
  EXPECT_FALSE(three->is_interposer());
}

// --- TraceSyscalls -----------------------------------------------------------

TEST_F(InterposeTest, TraceCountsCallsAndErrnos) {
  auto stats = std::make_shared<SyscallStats>();
  auto traced = std::make_shared<TraceSyscalls>(kernel_.syscalls(), stats);
  Process p = proc(traced);
  ASSERT_TRUE(p.sys->write_file(p, "/a", "1", false, 0644).ok());
  ASSERT_TRUE(p.sys->write_file(p, "/b", "2", false, 0644).ok());
  EXPECT_TRUE(p.sys->read_file(p, "/a").ok());
  EXPECT_FALSE(p.sys->stat(p, "/missing").ok());
  EXPECT_FALSE(p.sys->read_file(p, "/missing").ok());
  EXPECT_EQ(stats->calls("write"), 2u);
  EXPECT_EQ(stats->calls("read"), 2u);
  EXPECT_EQ(stats->calls("stat"), 1u);
  EXPECT_EQ(stats->errno_count(Err::enoent), 2u);
  const auto t = stats->totals();
  EXPECT_EQ(t.calls, 5u);
  EXPECT_EQ(t.errors, 2u);
  EXPECT_EQ(SyscallStats::errno_summary({}, t), "ENOENT x2");
}

TEST_F(InterposeTest, TraceEmitsTranscriptLines) {
  Transcript tr;
  kernel::TraceOptions topts;
  topts.transcript = &tr;
  auto traced = std::make_shared<TraceSyscalls>(
      kernel_.syscalls(), nullptr, topts);
  Process p = proc(traced);
  (void)p.sys->write_file(p, "/a", "1", false, 0644);
  (void)p.sys->stat(p, "/missing");
  EXPECT_TRUE(tr.contains("write(\"/a\") = 0"));
  EXPECT_TRUE(tr.contains("stat(\"/missing\") = -1 ENOENT"));
}

// --- FaultInjectSyscalls -----------------------------------------------------

// The same seed over the same workload must fail at exactly the same point.
TEST_F(InterposeTest, SeededFaultInjectionIsDeterministic) {
  auto workload = [&](std::uint64_t seed) {
    auto inject = std::make_shared<FaultInjectSyscalls>(
        kernel_.syscalls(), seed,
        FaultSpec{"write", "", Err::eio, /*probability=*/0.4});
    Process p = proc(inject);
    for (int i = 0; i < 50; ++i) {
      (void)p.sys->write_file(p, "/f" + std::to_string(i), "x", false, 0644);
    }
    return inject->injected();
  };
  const auto a = workload(42);
  const auto b = workload(42);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].path, b[i].path);
    EXPECT_EQ(a[i].error, b[i].error);
  }
}

TEST_F(InterposeTest, FaultSpecSkipMaxAndPathMatch) {
  auto inject = std::make_shared<FaultInjectSyscalls>(
      kernel_.syscalls(), 7,
      FaultSpec{"write", "/data/", Err::enospc, 1.0, /*skip=*/1,
                /*max_failures=*/1});
  Process p = proc(inject);
  ASSERT_TRUE(p.sys->mkdir(p, "/data", 0755).ok());
  // Non-matching path: never fails.
  EXPECT_TRUE(p.sys->write_file(p, "/other", "x", false, 0644).ok());
  // First match is skipped, second fails, third passes (max_failures hit).
  EXPECT_TRUE(p.sys->write_file(p, "/data/a", "x", false, 0644).ok());
  EXPECT_EQ(p.sys->write_file(p, "/data/b", "x", false, 0644).error(),
            Err::enospc);
  EXPECT_TRUE(p.sys->write_file(p, "/data/c", "x", false, 0644).ok());
  ASSERT_EQ(inject->injected().size(), 1u);
  EXPECT_EQ(inject->injected()[0].op, "write");
  EXPECT_EQ(inject->injected()[0].path, "/data/b");
}

// Trace stacked outside fault injection observes the injected errno — the
// canonical layer ordering for the builders.
TEST_F(InterposeTest, TraceObservesInjectedErrnos) {
  auto stats = std::make_shared<SyscallStats>();
  auto inject = std::make_shared<FaultInjectSyscalls>(
      kernel_.syscalls(), 1, FaultSpec{"write", "", Err::enospc});
  auto traced = std::make_shared<TraceSyscalls>(inject, stats);
  Process p = proc(traced);
  EXPECT_EQ(p.sys->write_file(p, "/f", "x", false, 0644).error(), Err::enospc);
  EXPECT_EQ(stats->errno_count(Err::enospc), 1u);
}

// --- the op table ------------------------------------------------------------

// One row per SysOp: the name every hook layer has always used for it, and a
// call that reaches it through a process's stack.
struct OpCase {
  SysOp op;
  const char* name;
  std::function<void(Process&)> call;
};

std::vector<OpCase> every_op() {
  auto mnt = [](Process& p) {
    kernel::Mount m;
    m.mountpoint = "/mnt";
    m.fs = std::make_shared<vfs::MemFs>(0755);
    m.owner_ns = p.userns;
    return m;
  };
  return {
      {SysOp::kStat, "stat", [](Process& p) { (void)p.sys->stat(p, "/f"); }},
      {SysOp::kLstat, "lstat", [](Process& p) { (void)p.sys->lstat(p, "/f"); }},
      {SysOp::kReadFile, "read",
       [](Process& p) { (void)p.sys->read_file(p, "/f"); }},
      {SysOp::kWriteFile, "write",
       [](Process& p) { (void)p.sys->write_file(p, "/g", "x", false, 0644); }},
      {SysOp::kReaddir, "readdir",
       [](Process& p) { (void)p.sys->readdir(p, "/"); }},
      {SysOp::kReadlink, "readlink",
       [](Process& p) { (void)p.sys->readlink(p, "/f"); }},
      {SysOp::kMkdir, "mkdir",
       [](Process& p) { (void)p.sys->mkdir(p, "/d", 0755); }},
      {SysOp::kMknod, "mknod",
       [](Process& p) {
         (void)p.sys->mknod(p, "/fifo", vfs::FileType::Fifo, 0644, 0, 0);
       }},
      {SysOp::kSymlink, "symlink",
       [](Process& p) { (void)p.sys->symlink(p, "/f", "/s"); }},
      {SysOp::kLink, "link",
       [](Process& p) { (void)p.sys->link(p, "/f", "/h"); }},
      {SysOp::kUnlink, "unlink",
       [](Process& p) { (void)p.sys->unlink(p, "/h"); }},
      {SysOp::kRmdir, "rmdir", [](Process& p) { (void)p.sys->rmdir(p, "/d"); }},
      {SysOp::kRename, "rename",
       [](Process& p) { (void)p.sys->rename(p, "/g", "/g2"); }},
      {SysOp::kChown, "chown",
       [](Process& p) { (void)p.sys->chown(p, "/f", 0, 0, true); }},
      {SysOp::kChmod, "chmod",
       [](Process& p) { (void)p.sys->chmod(p, "/f", 0644); }},
      {SysOp::kAccess, "access",
       [](Process& p) { (void)p.sys->access(p, "/f", kernel::kReadOk); }},
      {SysOp::kChdir, "chdir", [](Process& p) { (void)p.sys->chdir(p, "/"); }},
      {SysOp::kSetXattr, "setxattr",
       [](Process& p) { (void)p.sys->set_xattr(p, "/f", "user.k", "v"); }},
      {SysOp::kGetXattr, "getxattr",
       [](Process& p) { (void)p.sys->get_xattr(p, "/f", "user.k"); }},
      {SysOp::kListXattrs, "listxattr",
       [](Process& p) { (void)p.sys->list_xattrs(p, "/f"); }},
      {SysOp::kRemoveXattr, "removexattr",
       [](Process& p) { (void)p.sys->remove_xattr(p, "/f", "user.k"); }},
      {SysOp::kGetuid, "getuid", [](Process& p) { (void)p.sys->getuid(p); }},
      {SysOp::kGeteuid, "geteuid", [](Process& p) { (void)p.sys->geteuid(p); }},
      {SysOp::kGetgid, "getgid", [](Process& p) { (void)p.sys->getgid(p); }},
      {SysOp::kGetegid, "getegid", [](Process& p) { (void)p.sys->getegid(p); }},
      {SysOp::kGetgroups, "getgroups",
       [](Process& p) { (void)p.sys->getgroups(p); }},
      {SysOp::kSetuid, "setuid", [](Process& p) { (void)p.sys->setuid(p, 0); }},
      {SysOp::kSetgid, "setgid", [](Process& p) { (void)p.sys->setgid(p, 0); }},
      {SysOp::kSetresuid, "setresuid",
       [](Process& p) { (void)p.sys->setresuid(p, 0, 0, 0); }},
      {SysOp::kSetresgid, "setresgid",
       [](Process& p) { (void)p.sys->setresgid(p, 0, 0, 0); }},
      {SysOp::kSeteuid, "seteuid", [](Process& p) { (void)p.sys->seteuid(p, 0); }},
      {SysOp::kSetegid, "setegid", [](Process& p) { (void)p.sys->setegid(p, 0); }},
      {SysOp::kSetgroups, "setgroups",
       [](Process& p) { (void)p.sys->setgroups(p, {}); }},
      {SysOp::kUnshareUserns, "unshare",
       [](Process& p) { (void)p.sys->unshare_userns(p); }},
      {SysOp::kUnshareMountns, "unshare",
       [](Process& p) { (void)p.sys->unshare_mountns(p); }},
      {SysOp::kWriteUidMap, "write",
       [](Process& p) { (void)p.sys->write_uid_map(p, p.userns, {}); }},
      {SysOp::kWriteGidMap, "write",
       [](Process& p) { (void)p.sys->write_gid_map(p, p.userns, {}); }},
      {SysOp::kWriteSetgroups, "write",
       [](Process& p) {
         (void)p.sys->write_setgroups(
             p, p.userns, kernel::UserNamespace::SetgroupsPolicy::kDeny);
       }},
      {SysOp::kUsernsAutoMap, "userns_auto_map",
       [](Process& p) { (void)p.sys->userns_auto_map(p); }},
      {SysOp::kMount, "mount",
       [mnt](Process& p) { (void)p.sys->mount(p, mnt(p)); }},
      {SysOp::kUmount, "umount",
       [](Process& p) { (void)p.sys->umount(p, "/mnt"); }},
      {SysOp::kBindMount, "mount",
       [](Process& p) { (void)p.sys->bind_mount(p, "/d", "/mnt", false); }},
  };
}

// Every op is counted under its historical name by both observability
// layers, one call per call, and the table covers every SysOp.
TEST_F(InterposeTest, TraceOverObserveRecordsEveryOpUnderItsName) {
  obs::MetricsRegistry reg;
  obs::FlightRecorder rec(64);
  auto observed =
      std::make_shared<kernel::ObserveSyscalls>(kernel_.syscalls(), &reg, &rec);
  auto stats = std::make_shared<SyscallStats>();
  Process p = proc(std::make_shared<TraceSyscalls>(observed, stats));
  ASSERT_TRUE(kernel_.syscalls()->write_file(p, "/f", "x", false, 0644).ok());

  std::set<SysOp> covered;
  for (const OpCase& c : every_op()) {
    SCOPED_TRACE(c.name);
    covered.insert(c.op);
    EXPECT_STREQ(kernel::sysop_name(c.op), c.name);
    obs::Counter& calls = reg.counter(std::string("syscall.") + c.name + ".calls");
    const std::uint64_t traced0 = stats->calls(c.name);
    const std::uint64_t observed0 = calls.value();
    c.call(p);
    EXPECT_EQ(stats->calls(c.name), traced0 + 1);
    EXPECT_EQ(calls.value(), observed0 + 1);
  }
  EXPECT_EQ(covered.size(), kernel::kSysOpCount);
  EXPECT_EQ(stats->totals().calls, kernel::kSysOpCount);
  EXPECT_EQ(reg.counter("syscall.calls").value(), kernel::kSysOpCount);
}

// A match-everything fault spec fires on exactly the path-taking file,
// xattr-read/write and mount ops, and the call sequence counts only those.
TEST_F(InterposeTest, FaultInjectSeesExactlyTheFaultableOps) {
  const std::set<SysOp> faultable = {
      SysOp::kStat,     SysOp::kLstat,    SysOp::kReadFile, SysOp::kWriteFile,
      SysOp::kReaddir,  SysOp::kReadlink, SysOp::kMkdir,    SysOp::kMknod,
      SysOp::kSymlink,  SysOp::kLink,     SysOp::kUnlink,   SysOp::kRmdir,
      SysOp::kRename,   SysOp::kChown,    SysOp::kChmod,    SysOp::kAccess,
      SysOp::kSetXattr, SysOp::kGetXattr, SysOp::kMount,    SysOp::kBindMount,
  };
  auto inject = std::make_shared<FaultInjectSyscalls>(
      kernel_.syscalls(), 3, FaultSpec{"", "", Err::eio});
  Process p = proc(inject);
  for (const OpCase& c : every_op()) {
    SCOPED_TRACE(c.name);
    const std::size_t fired0 = inject->injected().size();
    const std::uint64_t seen0 = inject->calls_seen();
    c.call(p);
    const std::uint64_t expect = faultable.count(c.op);
    EXPECT_EQ(inject->injected().size(), fired0 + expect);
    EXPECT_EQ(inject->calls_seen(), seen0 + expect);
    if (expect == 1) {
      EXPECT_EQ(inject->injected().back().op, c.name);
    }
  }
  EXPECT_EQ(inject->injected().size(), faultable.size());
}

// Ops without a path argument keep their strace-style transcript details.
TEST_F(InterposeTest, TraceDetailsForIdentityAndNamespaceOps) {
  Transcript tr;
  kernel::TraceOptions topts;
  topts.transcript = &tr;
  Process p = proc(
      std::make_shared<TraceSyscalls>(kernel_.syscalls(), nullptr, topts));
  (void)p.sys->setuid(p, 1000);
  (void)p.sys->unshare_userns(p);
  (void)p.sys->write_uid_map(p, p.userns, {});
  EXPECT_TRUE(tr.contains("setuid(\"1000\") = "));
  EXPECT_TRUE(tr.contains("unshare(\"CLONE_NEWUSER\") = "));
  EXPECT_TRUE(tr.contains("write(\"/proc/self/uid_map\") = "));
}

// A misspelt op would never match; the layer refuses it up front.
TEST_F(InterposeTest, FaultSpecRejectsUnknownOpNames) {
  EXPECT_THROW(FaultInjectSyscalls(kernel_.syscalls(), 1,
                                   FaultSpec{"wrtie", "", Err::eio}),
               std::invalid_argument);
  EXPECT_THROW(FaultInjectSyscalls(kernel_.syscalls(), 1,
                                   std::vector<FaultSpec>{
                                       FaultSpec{"write", "", Err::eio},
                                       FaultSpec{"write_file", "", Err::eio}}),
               std::invalid_argument);
  EXPECT_NO_THROW(FaultInjectSyscalls(kernel_.syscalls(), 1,
                                      FaultSpec{"", "", Err::eio}));
  for (const char* name : kernel::kSysOpNames) {
    EXPECT_NO_THROW(FaultInjectSyscalls(kernel_.syscalls(), 1,
                                        FaultSpec{name, "", Err::eio}))
        << name;
  }
}

// --- builders under trace + fault injection ----------------------------------

constexpr const char* kCentosDockerfile =
    "FROM centos:7\n"
    "RUN echo hello\n"
    "RUN yum install -y openssh\n";

class BuilderInterposeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ClusterOptions copts;
    copts.arch = "x86_64";
    copts.compute_nodes = 0;
    cluster_ = std::make_unique<core::Cluster>(copts);
    auto alice = cluster_->user_on(cluster_->login());
    ASSERT_TRUE(alice.ok());
    alice_ = *alice;
  }

  static kernel::SyscallLayerFn enospc_on_write(std::uint64_t seed) {
    return [seed](std::shared_ptr<kernel::Syscalls> inner) {
      return std::make_shared<FaultInjectSyscalls>(
          std::move(inner), seed, FaultSpec{"write", "", Err::enospc});
    };
  }

  std::unique_ptr<core::Cluster> cluster_;
  kernel::Process alice_;
};

TEST_F(BuilderInterposeTest, ChImageTracedBuildReportsPerInstructionCounts) {
  core::ChImageOptions opts;
  opts.trace_syscalls = true;
  core::ChImage ch(cluster_->login(), alice_, &cluster_->registry(), opts);
  Transcript t;
  (void)ch.build("traced", kCentosDockerfile, t);
  EXPECT_TRUE(t.contains("syscalls: instruction 2:")) << t.text();
  EXPECT_TRUE(t.contains("depth 1")) << t.text();
  ASSERT_NE(ch.syscall_stats(), nullptr);
  EXPECT_GT(ch.syscall_stats()->totals().calls, 0u);
  EXPECT_EQ(ch.last_interposition_depth(), 1);
}

// A mid-build ENOSPC yields a coherent diagnostic (instruction index plus
// errno summary), not a crash or a silent success.
TEST_F(BuilderInterposeTest, ChImageMidBuildEnospcIsCoherent) {
  core::ChImageOptions opts;
  opts.trace_syscalls = true;
  opts.syscall_layers.push_back(enospc_on_write(42));
  core::ChImage ch(cluster_->login(), alice_, &cluster_->registry(), opts);
  Transcript t;
  const int status = ch.build("doomed", kCentosDockerfile, t);
  EXPECT_NE(status, 0);
  EXPECT_TRUE(t.contains("ENOSPC")) << t.text();
  EXPECT_TRUE(t.contains("error: RUN instruction")) << t.text();
  EXPECT_TRUE(t.contains("error: build failed: RUN command exited with"))
      << t.text();
  EXPECT_GT(ch.syscall_stats()->errno_count(Err::enospc), 0u);
  // Fault layer + trace layer.
  EXPECT_EQ(ch.last_interposition_depth(), 2);
}

// Same seed, same Dockerfile: the build fails at the same instruction with
// the same transcript diagnostics.
TEST_F(BuilderInterposeTest, ChImageFaultedBuildIsReplayable) {
  auto run_once = [&] {
    core::ChImageOptions opts;
    opts.trace_syscalls = true;
    opts.syscall_layers.push_back(enospc_on_write(42));
    core::ChImage ch(cluster_->login(), alice_, &cluster_->registry(), opts);
    Transcript t;
    const int status = ch.build("doomed", kCentosDockerfile, t);
    std::string diag;
    for (const auto& line : t.lines()) {
      if (line.find("error: RUN instruction") != std::string::npos) diag = line;
    }
    return std::make_pair(status, diag);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_FALSE(a.second.empty());
}

// Podman: a faulted RUN abandons the in-progress layer — the tag is never
// registered and the failure is reported with instruction index + errno.
TEST_F(BuilderInterposeTest, PodmanFaultedBuildRollsBackLayer) {
  core::PodmanOptions opts;
  opts.trace_syscalls = true;
  opts.syscall_layers.push_back(enospc_on_write(42));
  core::Podman podman(cluster_->login(), alice_, &cluster_->registry(), opts);
  Transcript t;
  const int status = podman.build("pfail", kCentosDockerfile, t);
  EXPECT_NE(status, 0);
  EXPECT_EQ(podman.config("pfail"), nullptr);
  EXPECT_TRUE(t.contains("ENOSPC")) << t.text();
  EXPECT_TRUE(t.contains("Error: RUN instruction")) << t.text();
  EXPECT_TRUE(t.contains("while running runtime: exit status")) << t.text();
  EXPECT_GT(podman.syscall_stats()->errno_count(Err::enospc), 0u);
}

// The shell-level `strace` builtin wraps the child command in a trace layer
// and prints an `strace -c` style summary on stderr.
TEST_F(BuilderInterposeTest, StraceBuiltinPrintsSummary) {
  std::string out, err;
  const int status =
      cluster_->login().run(alice_, "strace -c cat /etc/passwd", out, err);
  EXPECT_EQ(status, 0) << err;
  EXPECT_NE(err.find("syscall"), std::string::npos) << err;
  EXPECT_NE(err.find("read"), std::string::npos) << err;
  EXPECT_NE(err.find("total"), std::string::npos) << err;
  EXPECT_NE(out.find("alice"), std::string::npos) << out;
}

TEST_F(BuilderInterposeTest, PodmanCleanBuildStillSucceedsUnderTrace) {
  core::PodmanOptions opts;
  opts.trace_syscalls = true;
  core::Podman podman(cluster_->login(), alice_, &cluster_->registry(), opts);
  Transcript t;
  const int status = podman.build("ok", kCentosDockerfile, t);
  EXPECT_EQ(status, 0) << t.text();
  EXPECT_NE(podman.config("ok"), nullptr);
  EXPECT_TRUE(t.contains("syscalls: step 3:")) << t.text();
}

}  // namespace
}  // namespace minicon
