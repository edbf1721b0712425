// Build-graph subsystem tests: multi-stage lowering, stage-reference
// diagnostics, the shared content-addressed build cache, and the parallel
// stage scheduler (determinism under concurrency; this suite is part of the
// tier-1 TSAN pass).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <tuple>

#include "buildfile/dockerfile.hpp"
#include "buildgraph/cache.hpp"
#include "buildgraph/graph.hpp"
#include "buildgraph/scheduler.hpp"
#include "core/chimage.hpp"
#include "core/cluster.hpp"
#include "core/podman.hpp"
#include "vfs/snapshot.hpp"
#include "kernel/faultinject.hpp"
#include "kernel/syscalls.hpp"
#include "obs/flightrec.hpp"
#include "support/threadpool.hpp"

namespace minicon {
namespace {

using buildgraph::BuildCache;
using buildgraph::BuildGraph;

// Two independent builder stages feeding a final stage: the canonical
// fan-out shape (levels [a b] -> [final]).
constexpr const char* kFanOutDockerfile =
    "FROM centos:7 AS a\n"
    "RUN echo alpha > /a.txt\n"
    "FROM centos:7 AS b\n"
    "RUN echo beta > /b.txt\n"
    "FROM centos:7\n"
    "COPY --from=a /a.txt /a.txt\n"
    "COPY --from=b /b.txt /b.txt\n"
    "RUN cat /a.txt /b.txt\n";

Result<BuildGraph> lower_text(const std::string& text) {
  auto parsed = build::parse_dockerfile(text);
  if (std::holds_alternative<build::DockerfileError>(parsed)) {
    return Err::einval;
  }
  auto lowered = buildgraph::lower(std::get<build::Dockerfile>(parsed));
  if (std::holds_alternative<build::DockerfileError>(lowered)) {
    return Err::einval;
  }
  return std::get<BuildGraph>(std::move(lowered));
}

std::string parse_error(const std::string& text) {
  auto parsed = build::parse_dockerfile(text);
  const auto* err = std::get_if<build::DockerfileError>(&parsed);
  return err != nullptr ? err->message : "";
}

// --- lowering ---------------------------------------------------------------------

TEST(BuildGraphLowering, FanOutBecomesTwoLevelDag) {
  auto g = lower_text(kFanOutDockerfile);
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->stages().size(), 3u);
  EXPECT_EQ(g->instruction_count(), 8u);
  EXPECT_EQ(g->target(), 2);
  EXPECT_EQ(g->stage(0).name, "a");
  EXPECT_EQ(g->stage(1).name, "b");
  EXPECT_TRUE(g->stage(2).name.empty());
  EXPECT_EQ(g->stage(0).base_ref, "centos:7");
  EXPECT_EQ(g->stage(0).base_stage, -1);
  EXPECT_TRUE(g->stage(0).deps.empty());
  EXPECT_TRUE(g->stage(1).deps.empty());
  EXPECT_EQ(g->stage(2).deps, (std::vector<int>{0, 1}));
  // COPY --from instructions resolved to stage indices, text stripped.
  ASSERT_EQ(g->stage(2).instrs.size(), 3u);
  EXPECT_EQ(g->stage(2).instrs[0].copy_from, 0);
  EXPECT_EQ(g->stage(2).instrs[0].copy_args, "/a.txt /a.txt");
  EXPECT_EQ(g->stage(2).instrs[1].copy_from, 1);
  EXPECT_EQ(g->stage(2).instrs[2].copy_from, -1);  // the RUN
  // Dependency levels: {a, b} then {final}.
  const auto levels = g->levels();
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(levels[1], (std::vector<int>{2}));
  EXPECT_EQ(g->max_parallel_width(), 2u);
}

TEST(BuildGraphLowering, FromStageAndNumericIndexResolve) {
  auto g = lower_text(
      "FROM centos:7 AS base\n"
      "RUN echo x\n"
      "FROM base\n"
      "COPY --from=0 /etc/hostname /h\n");
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->stages().size(), 2u);
  EXPECT_EQ(g->stage(1).base_stage, 0);
  EXPECT_EQ(g->stage(1).deps, (std::vector<int>{0}));
  EXPECT_EQ(g->stage(1).instrs[0].copy_from, 0);
}

// --- parser diagnostics (satellite b) -----------------------------------------------

TEST(BuildGraphDiagnostics, ForwardCopyFromReferenceRejected) {
  const std::string err = parse_error(
      "FROM centos:7 AS one\n"
      "COPY --from=two /x /y\n"
      "FROM centos:7 AS two\n"
      "RUN echo later\n");
  EXPECT_NE(err.find("forward reference"), std::string::npos) << err;
  EXPECT_NE(err.find("two"), std::string::npos) << err;
}

TEST(BuildGraphDiagnostics, SelfReferentialCopyFromRejected) {
  const std::string err = parse_error(
      "FROM centos:7 AS me\n"
      "COPY --from=me /x /y\n");
  EXPECT_NE(err.find("cannot copy from itself"), std::string::npos) << err;
}

TEST(BuildGraphDiagnostics, SelfReferentialFromAliasRejected) {
  const std::string err = parse_error("FROM ghost AS ghost\nRUN echo x\n");
  EXPECT_NE(err.find("self-referential build stage"), std::string::npos)
      << err;
}

TEST(BuildGraphDiagnostics, UnknownAndDuplicateStagesRejected) {
  EXPECT_NE(parse_error("FROM centos:7\nCOPY --from=ghost /x /y\n")
                .find("no such build stage"),
            std::string::npos);
  EXPECT_NE(parse_error("FROM centos:7 AS s\nFROM debian:buster AS s\n")
                .find("duplicate build stage name"),
            std::string::npos);
}

// --- retry policy -----------------------------------------------------------------

TEST(RetryPolicy, BackoffDoublesAndIsCapped) {
  buildgraph::RetryPolicy p;
  p.backoff_base_ms = 4;
  p.backoff_cap_ms = 20;
  EXPECT_EQ(p.backoff_ms(2), 4);
  EXPECT_EQ(p.backoff_ms(3), 8);
  EXPECT_EQ(p.backoff_ms(4), 16);
  EXPECT_EQ(p.backoff_ms(5), 20);  // capped
  EXPECT_EQ(p.backoff_ms(9), 20);
}

// --- BuildCache -------------------------------------------------------------------

namespace {

// A one-file snapshot tree: the cache-value shape every builder stores.
vfs::SnapNodePtr payload_snapshot(const std::string& content) {
  vfs::SnapNode file;
  file.type = vfs::FileType::Regular;
  file.mode = 0644;
  file.content = std::make_shared<const std::string>(content);
  vfs::SnapNode root;
  root.type = vfs::FileType::Directory;
  root.mode = 0755;
  root.children["payload"] = vfs::freeze_snap_node(std::move(file));
  return vfs::freeze_snap_node(std::move(root));
}

}  // namespace

TEST(BuildCacheTest, HitMissAndKeyChain) {
  BuildCache cache;
  image::ImageConfig cfg;
  cfg.workdir = "/srv";
  const std::string k1 = BuildCache::chain("root", "RUN|echo hi");
  EXPECT_FALSE(cache.lookup(k1).has_value());
  auto snap = payload_snapshot("payload-bytes");
  cache.store(k1, snap, cfg);
  auto hit = cache.lookup(k1);
  ASSERT_TRUE(hit.has_value());
  // The hit is the stored Merkle tree itself (shared, not reassembled).
  ASSERT_NE(hit->snapshot, nullptr);
  EXPECT_EQ(hit->snapshot->digest, snap->digest);
  EXPECT_EQ(hit->snapshot->children.at("payload")->content_view(),
            "payload-bytes");
  EXPECT_EQ(hit->config.workdir, "/srv");
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  // The chain is sensitive to parent, instruction, and context digests.
  EXPECT_NE(BuildCache::chain("root", "RUN|echo hi"),
            BuildCache::chain("other", "RUN|echo hi"));
  EXPECT_NE(BuildCache::chain("root", "RUN|echo hi"),
            BuildCache::chain("root", "RUN|echo ho"));
  EXPECT_NE(BuildCache::chain("root", "COPY|a b", {"digest1"}),
            BuildCache::chain("root", "COPY|a b", {"digest2"}));
  EXPECT_EQ(BuildCache::chain("root", "RUN|echo hi"), k1);
}

TEST(BuildCacheTest, LruEvictionByByteCapacity) {
  BuildCache cache(nullptr, 100);  // tiny: two 60-byte trees cannot coexist
  image::ImageConfig cfg;
  cache.store("k1", payload_snapshot(std::string(60, 'x')), cfg);
  cache.store("k2", payload_snapshot(std::string(60, 'y')), cfg);
  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.evicted_bytes, 60u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_LE(s.bytes, 100u);
  EXPECT_FALSE(cache.lookup("k1").has_value());  // k1 was least recent
  EXPECT_TRUE(cache.lookup("k2").has_value());
}

// --- scheduler + builders ---------------------------------------------------------

class BuildGraphTest : public ::testing::Test {
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

  core::ChImage make_ch(core::ChImageOptions opts = {}) {
    return core::ChImage(cluster_->login(), alice_, &cluster_->registry(),
                         std::move(opts));
  }

  core::Podman make_podman(core::PodmanOptions opts = {}) {
    return core::Podman(cluster_->login(), alice_, &cluster_->registry(),
                        std::move(opts));
  }

  // Merkle root digest of a built image's tree ("" when there is none).
  static std::string root_digest(const Result<core::RootFs>& rootfs) {
    if (!rootfs.ok()) return "";
    auto snap = rootfs->fs->snapshot(rootfs->root);
    return snap.ok() ? (*snap)->digest : "";
  }

  static std::size_t count_lines(const Transcript& t,
                                 const std::string& needle) {
    std::size_t n = 0;
    for (const auto& line : t.lines()) {
      if (line.find(needle) != std::string::npos) ++n;
    }
    return n;
  }

  std::unique_ptr<core::Cluster> cluster_;
  kernel::Process alice_;
};

TEST_F(BuildGraphTest, IndependentStagesRunConcurrently) {
  core::ChImageOptions opts;
  opts.stage_pool = std::make_shared<support::ThreadPool>(4);
  auto ch = make_ch(opts);
  Transcript t;
  ASSERT_EQ(ch.build("fan", kFanOutDockerfile, t), 0) << t.text();
  const auto& st = ch.schedule_stats();
  EXPECT_TRUE(st.parallel);
  EXPECT_EQ(st.stages, 3u);
  EXPECT_EQ(st.levels, 2u);
  EXPECT_EQ(st.max_width, 2u);
  // Both level-0 stages were dispatched before either finished.
  EXPECT_GE(st.peak_in_flight, 2u);
  EXPECT_EQ(st.pool_width, 4u);
  EXPECT_TRUE(t.contains("buildgraph: 3 stages in 2 levels (max 2 concurrent)"))
      << t.text();
  // The artifacts from both independent stages landed in the final image.
  Transcript rt;
  ASSERT_EQ(ch.run_in_image("fan", {"cat", "/a.txt", "/b.txt"}, rt), 0);
  EXPECT_TRUE(rt.contains("alpha"));
  EXPECT_TRUE(rt.contains("beta"));
}

TEST_F(BuildGraphTest, ParallelTranscriptIsByteIdenticalToSerial) {
  core::ChImageOptions serial;
  serial.parallel_stages = false;
  serial.storage_dir = "/tmp/bg-serial";
  auto ch_serial = make_ch(serial);
  Transcript ts;
  ASSERT_EQ(ch_serial.build("img", kFanOutDockerfile, ts), 0) << ts.text();
  EXPECT_FALSE(ch_serial.schedule_stats().parallel);

  core::ChImageOptions par;
  par.stage_pool = std::make_shared<support::ThreadPool>(4);
  par.storage_dir = "/tmp/bg-parallel";
  auto ch_par = make_ch(par);
  Transcript tp;
  ASSERT_EQ(ch_par.build("img", kFanOutDockerfile, tp), 0) << tp.text();
  EXPECT_TRUE(ch_par.schedule_stats().parallel);

  EXPECT_EQ(ts.text(), tp.text());
  // The same tree, not only the same transcript.
  const std::string digest = root_digest(ch_serial.image_rootfs("img"));
  EXPECT_FALSE(digest.empty());
  EXPECT_EQ(digest, root_digest(ch_par.image_rootfs("img")));

  // The same holds for Podman.
  core::PodmanOptions pm_serial_opts;
  pm_serial_opts.parallel_stages = false;
  auto pm_serial = make_podman(pm_serial_opts);
  Transcript pts;
  ASSERT_EQ(pm_serial.build("img", kFanOutDockerfile, pts), 0) << pts.text();
  EXPECT_FALSE(pm_serial.schedule_stats().parallel);
  core::PodmanOptions pm_par_opts;
  pm_par_opts.stage_pool = std::make_shared<support::ThreadPool>(4);
  auto pm_par = make_podman(pm_par_opts);
  Transcript ptp;
  ASSERT_EQ(pm_par.build("img", kFanOutDockerfile, ptp), 0) << ptp.text();
  EXPECT_TRUE(pm_par.schedule_stats().parallel);
  EXPECT_EQ(pts.text(), ptp.text());
  const std::string pm_digest = root_digest(pm_serial.image_rootfs("img"));
  EXPECT_FALSE(pm_digest.empty());
  EXPECT_EQ(pm_digest, root_digest(pm_par.image_rootfs("img")));
}

// TSAN workhorse: repeated concurrent builds sharing one cache must stay
// deterministic and race-free.
TEST_F(BuildGraphTest, RepeatedParallelBuildsAreDeterministic) {
  auto pool = std::make_shared<support::ThreadPool>(4);
  auto cache = std::make_shared<BuildCache>();
  std::string expected;
  for (int i = 0; i < 6; ++i) {
    core::ChImageOptions opts;
    opts.stage_pool = pool;
    opts.shared_cache = cache;
    opts.storage_dir = "/tmp/bg-iter" + std::to_string(i);
    auto ch = make_ch(opts);
    Transcript t;
    ASSERT_EQ(ch.build("img", kFanOutDockerfile, t), 0) << t.text();
    if (i == 0) continue;  // first build populates the cache
    if (expected.empty()) {
      expected = t.text();
    } else {
      EXPECT_EQ(t.text(), expected) << "iteration " << i;
    }
  }
  EXPECT_GT(cache->stats().hits, 0u);
}

TEST_F(BuildGraphTest, UnchangedChImageRebuildIsAllCacheHits) {
  core::ChImageOptions opts;
  opts.build_cache = true;
  auto ch = make_ch(opts);
  Transcript t1;
  ASSERT_EQ(ch.build("fan", kFanOutDockerfile, t1), 0) << t1.text();
  EXPECT_EQ(ch.cache_hits(), 0u);
  const std::size_t misses = ch.cache_misses();
  EXPECT_EQ(misses, 3u);  // one per RUN
  Transcript t2;
  ASSERT_EQ(ch.build("fan", kFanOutDockerfile, t2), 0) << t2.text();
  // 100% hits: every RUN restored from cache, none executed.
  EXPECT_EQ(ch.cache_hits(), 3u);
  EXPECT_EQ(ch.cache_misses(), misses);
  EXPECT_EQ(count_lines(t2, "cached: using existing layer"), 3u) << t2.text();
  Transcript rt;
  ASSERT_EQ(ch.run_in_image("fan", {"cat", "/a.txt", "/b.txt"}, rt), 0);
  EXPECT_TRUE(rt.contains("alpha"));
}

TEST_F(BuildGraphTest, UnchangedPodmanRebuildIsAllCacheHits) {
  auto podman = make_podman();
  Transcript t1;
  ASSERT_EQ(podman.build("fan", kFanOutDockerfile, t1), 0) << t1.text();
  EXPECT_EQ(podman.cache_hits(), 0u);
  const std::size_t misses = podman.cache_misses();
  EXPECT_EQ(misses, 3u);
  Transcript t2;
  ASSERT_EQ(podman.build("fan", kFanOutDockerfile, t2), 0) << t2.text();
  EXPECT_EQ(podman.cache_hits(), 3u);
  EXPECT_EQ(podman.cache_misses(), misses);
  EXPECT_EQ(count_lines(t2, "--> Using cache"), 3u) << t2.text();
  Transcript rt;
  ASSERT_EQ(podman.run_in_image("fan", {"cat", "/a.txt", "/b.txt"}, rt), 0);
  EXPECT_TRUE(rt.contains("beta"));
}

TEST_F(BuildGraphTest, SharedCacheServesBothBuilders) {
  auto cache = std::make_shared<BuildCache>(
      &cluster_->registry().chunk_store());
  core::ChImageOptions ch_opts;
  ch_opts.shared_cache = cache;
  auto ch = make_ch(ch_opts);
  core::PodmanOptions pod_opts;
  pod_opts.shared_cache = cache;
  auto podman = make_podman(pod_opts);

  const char* dockerfile = "FROM centos:7\nRUN echo shared > /s\n";
  Transcript t1, t2;
  ASSERT_EQ(ch.build("img", dockerfile, t1), 0) << t1.text();
  ASSERT_EQ(podman.build("img", dockerfile, t2), 0) << t2.text();
  // Keys are builder-domain-prefixed: no false sharing of incompatible
  // layer formats, but both builders' traffic lands in one cache...
  EXPECT_EQ(cache->stats().hits, 0u);
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(cache->stats().entries, 2u);
  // ...and both accessors see the same aggregate counters.
  EXPECT_EQ(ch.cache_misses(), podman.cache_misses());
  // Each builder hits its own prior entry on rebuild.
  Transcript t3, t4;
  ASSERT_EQ(ch.build("img", dockerfile, t3), 0);
  ASSERT_EQ(podman.build("img", dockerfile, t4), 0);
  EXPECT_EQ(cache->stats().hits, 2u);
  EXPECT_TRUE(t3.contains("cached: using existing layer"));
  EXPECT_TRUE(t4.contains("--> Using cache"));
}

TEST_F(BuildGraphTest, CacheInvalidatedByInstructionEdit) {
  core::ChImageOptions opts;
  opts.build_cache = true;
  auto ch = make_ch(opts);
  Transcript t1;
  ASSERT_EQ(ch.build("img", "FROM centos:7\nRUN echo one\nRUN echo two\n", t1),
            0);
  Transcript t2;
  ASSERT_EQ(ch.build("img", "FROM centos:7\nRUN echo uno\nRUN echo two\n", t2),
            0);
  // First RUN differs; the second RUN's key chains through it, so nothing
  // may be served from cache.
  EXPECT_EQ(ch.cache_hits(), 0u);
}

TEST_F(BuildGraphTest, CacheInvalidatedByContextFileEdit) {
  ASSERT_TRUE(
      alice_.sys->write_file(alice_, "/tmp/ctx.txt", "v1\n", false, 0644)
          .ok());
  core::ChImageOptions opts;
  opts.build_cache = true;
  auto ch = make_ch(opts);
  const char* dockerfile = "FROM centos:7\nCOPY /tmp/ctx.txt /ctx\nRUN cat /ctx\n";
  Transcript t1;
  ASSERT_EQ(ch.build("img", dockerfile, t1), 0) << t1.text();
  Transcript t2;
  ASSERT_EQ(ch.build("img", dockerfile, t2), 0);
  EXPECT_EQ(ch.cache_hits(), 1u);  // unchanged context: RUN hits
  // Editing the copied file changes the COPY digest, so the RUN re-runs.
  ASSERT_TRUE(
      alice_.sys->write_file(alice_, "/tmp/ctx.txt", "v2\n", false, 0644)
          .ok());
  Transcript t3;
  ASSERT_EQ(ch.build("img", dockerfile, t3), 0);
  EXPECT_EQ(ch.cache_hits(), 1u);  // no new hit
  Transcript rt;
  ASSERT_EQ(ch.run_in_image("img", {"cat", "/ctx"}, rt), 0);
  EXPECT_TRUE(rt.contains("v2"));
}

TEST_F(BuildGraphTest, Width8FanOutRebuildIsOChangedDigests) {
  // Acceptance: a width-8 fan-out build with one changed file re-digests
  // only the dirty paths, not the eight base trees. Digest work is counted
  // via the process-wide freeze counter.
  ASSERT_TRUE(
      alice_.sys->write_file(alice_, "/tmp/fan-ctx.txt", "v1\n", false, 0644)
          .ok());
  std::string df;
  for (int i = 0; i < 8; ++i) {
    const std::string n = std::to_string(i);
    df += "FROM centos:7 AS s" + n + "\n";
    if (i == 0) df += "COPY /tmp/fan-ctx.txt /ctx\n";
    df += "RUN echo arm" + n + " > /a" + n + ".txt\n";
  }
  df += "FROM centos:7\n";
  for (int i = 0; i < 8; ++i) {
    const std::string n = std::to_string(i);
    df += "COPY --from=s" + n + " /a" + n + ".txt /a" + n + ".txt\n";
  }
  core::ChImageOptions opts;
  opts.build_cache = true;
  opts.parallel_stages = false;  // deterministic digest accounting
  auto ch = make_ch(opts);
  Transcript t1;
  const std::uint64_t d0 = vfs::snapshot_digests_computed();
  ASSERT_EQ(ch.build("fan8", df, t1), 0) << t1.text();
  const std::uint64_t full = vfs::snapshot_digests_computed() - d0;
  ASSERT_GT(full, 0u);
  // Change the one context file: only stage s0's chain is invalidated.
  ASSERT_TRUE(
      alice_.sys->write_file(alice_, "/tmp/fan-ctx.txt", "v2\n", false, 0644)
          .ok());
  Transcript t2;
  const std::uint64_t d1 = vfs::snapshot_digests_computed();
  ASSERT_EQ(ch.build("fan8", df, t2), 0) << t2.text();
  const std::uint64_t incr = vfs::snapshot_digests_computed() - d1;
  EXPECT_EQ(ch.cache_hits(), 7u) << t2.text();  // the 7 untouched arms
  EXPECT_LT(incr * 4, full) << "rebuild re-digested " << incr << " of "
                            << full << " nodes";
}

TEST_F(BuildGraphTest, CacheInvalidatedByBaseImageChange) {
  core::ChImageOptions opts;
  opts.build_cache = true;
  auto ch = make_ch(opts);
  Transcript t1;
  ASSERT_EQ(ch.build("img", "FROM centos:7\nRUN echo same\n", t1), 0);
  Transcript t2;
  ASSERT_EQ(ch.build("img", "FROM debian:buster\nRUN echo same\n", t2), 0)
      << t2.text();
  // Identical RUN text, different base: the FROM seeds the chain.
  EXPECT_EQ(ch.cache_hits(), 0u);
}

TEST_F(BuildGraphTest, FailedStageSkipsDependentsButNotSiblings) {
  core::ChImageOptions opts;
  opts.stage_pool = std::make_shared<support::ThreadPool>(4);
  auto ch = make_ch(opts);
  Transcript t;
  const int rc = ch.build("broken",
                          "FROM centos:7 AS bad\n"
                          "RUN cat /definitely/not/there\n"
                          "FROM centos:7 AS good\n"
                          "RUN echo fine > /ok\n"
                          "FROM centos:7\n"
                          "COPY --from=bad /x /x\n",
                          t);
  EXPECT_NE(rc, 0);
  EXPECT_TRUE(t.contains("stage 2 skipped: a dependency failed")) << t.text();
  // The independent sibling still ran to completion.
  EXPECT_TRUE(t.contains("4 RUN")) << t.text();
  EXPECT_FALSE(t.contains("stage 1 (good) skipped")) << t.text();
}

TEST_F(BuildGraphTest, RetryRecoversFromInjectedWriteFault) {
  // The first container entered gets a write-fault layer; retries run
  // clean — modeling a transient ENOSPC.
  auto faulted_once = std::make_shared<std::atomic<bool>>(false);
  core::ChImageOptions opts;
  opts.run_retry.max_attempts = 3;
  opts.run_retry.backoff_base_ms = 1;
  opts.syscall_layers.push_back(
      [faulted_once](std::shared_ptr<kernel::Syscalls> inner)
          -> std::shared_ptr<kernel::Syscalls> {
        if (faulted_once->exchange(true)) return inner;
        return std::make_shared<kernel::FaultInjectSyscalls>(
            std::move(inner), 7,
            kernel::FaultSpec{"write", "", Err::enospc, 1.0, 0, 1});
      });
  auto ch = make_ch(opts);
  Transcript t;
  ASSERT_EQ(ch.build("flaky", "FROM centos:7\nRUN echo data > /f\n", t), 0)
      << t.text();
  EXPECT_TRUE(t.contains("retry: RUN instruction 2")) << t.text();
  Transcript rt;
  ASSERT_EQ(ch.run_in_image("flaky", {"cat", "/f"}, rt), 0);
  EXPECT_TRUE(rt.contains("data"));
}

TEST_F(BuildGraphTest, PodmanRetryAlsoRecovers) {
  auto faulted_once = std::make_shared<std::atomic<bool>>(false);
  core::PodmanOptions opts;
  opts.build_cache = false;
  opts.run_retry.max_attempts = 2;
  opts.syscall_layers.push_back(
      [faulted_once](std::shared_ptr<kernel::Syscalls> inner)
          -> std::shared_ptr<kernel::Syscalls> {
        if (faulted_once->exchange(true)) return inner;
        return std::make_shared<kernel::FaultInjectSyscalls>(
            std::move(inner), 7,
            kernel::FaultSpec{"write", "", Err::enospc, 1.0, 0, 1});
      });
  auto podman = make_podman(opts);
  Transcript t;
  ASSERT_EQ(podman.build("flaky", "FROM centos:7\nRUN echo data > /f\n", t), 0)
      << t.text();
  EXPECT_TRUE(t.contains("retry: RUN instruction 2")) << t.text();
}

TEST_F(BuildGraphTest, PodmanParallelFanOutBuilds) {
  core::PodmanOptions opts;
  opts.stage_pool = std::make_shared<support::ThreadPool>(4);
  auto podman = make_podman(opts);
  Transcript t;
  ASSERT_EQ(podman.build("fan", kFanOutDockerfile, t), 0) << t.text();
  const auto& st = podman.schedule_stats();
  EXPECT_TRUE(st.parallel);
  EXPECT_GE(st.peak_in_flight, 2u);
  EXPECT_TRUE(t.contains("buildgraph: 3 stages in 2 levels (max 2 concurrent)"))
      << t.text();
  Transcript rt;
  ASSERT_EQ(podman.run_in_image("fan", {"cat", "/a.txt", "/b.txt"}, rt), 0);
  EXPECT_TRUE(rt.contains("alpha"));
  EXPECT_TRUE(rt.contains("beta"));
}

// --- one cache-key rule -----------------------------------------------------------

// Two Dockerfiles that differ only in the line before a RUN.
struct LineBeforeRun {
  const char* name;
  const char* first;
  const char* second;
};

void PrintTo(const LineBeforeRun& line, std::ostream* os) { *os << line.name; }

class CacheKeyTest
    : public BuildGraphTest,
      public ::testing::WithParamInterface<std::tuple<bool, LineBeforeRun>> {
 protected:
  static std::string dockerfile(const char* line) {
    return "FROM centos:7\n" + std::string(line) +
           "\nRUN echo v=$V > /tmp/out\n";
  }

  // `cached` builds the first Dockerfile and then the second; `fresh`, with
  // no cache, builds only the second. Both must end with the same image.
  template <class Builder>
  void expect_rebuild_matches_fresh(Builder& cached, Builder& fresh) {
    const LineBeforeRun& line = std::get<1>(GetParam());
    Transcript t1, t2, t3;
    ASSERT_EQ(cached.build("img", dockerfile(line.first), t1), 0) << t1.text();
    ASSERT_EQ(cached.build("img", dockerfile(line.second), t2), 0)
        << t2.text();
    ASSERT_EQ(fresh.build("img", dockerfile(line.second), t3), 0) << t3.text();
    ASSERT_NE(cached.config("img"), nullptr);
    ASSERT_NE(fresh.config("img"), nullptr);
    EXPECT_EQ(cached.config("img")->serialize(),
              fresh.config("img")->serialize())
        << t2.text();
    EXPECT_EQ(root_digest(cached.image_rootfs("img")),
              root_digest(fresh.image_rootfs("img")))
        << t2.text();
  }
};

TEST_P(CacheKeyTest, RebuildMatchesAFreshBuildOfTheEditedDockerfile) {
  if (std::get<0>(GetParam())) {
    auto cached = make_podman();
    core::PodmanOptions off;
    off.build_cache = false;
    auto fresh = make_podman(off);
    expect_rebuild_matches_fresh(cached, fresh);
    return;
  }
  core::ChImageOptions on;
  on.build_cache = true;
  on.storage_dir = "/tmp/key-cached";
  auto cached = make_ch(on);
  core::ChImageOptions off;
  off.storage_dir = "/tmp/key-fresh";
  auto fresh = make_ch(off);
  expect_rebuild_matches_fresh(cached, fresh);
  if (cached.config("img") != nullptr &&
      fresh.config("img")->flatten_policy() == "disallow") {
    // §6.2.5: the label survives the cache, so a flattened push is refused.
    Transcript pt;
    EXPECT_NE(cached.push("img", "keys/img:1", pt), 0) << pt.text();
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothBuilders, CacheKeyTest,
    ::testing::Combine(
        ::testing::Bool(),
        ::testing::Values(
            LineBeforeRun{"ArgValue", "ARG V=one", "ARG V=two"},
            LineBeforeRun{"Workdir", "WORKDIR /one", "WORKDIR /two"},
            LineBeforeRun{"User", "USER root", "USER 1000"},
            LineBeforeRun{"FlattenLabel",
                          "LABEL org.minicon.ownership-flattening=allow",
                          "LABEL org.minicon.ownership-flattening=disallow"})),
    [](const ::testing::TestParamInfo<CacheKeyTest::ParamType>& info) {
      return std::string(std::get<0>(info.param) ? "Podman_" : "ChImage_") +
             std::get<1>(info.param).name;
    });

// --- trace parity -----------------------------------------------------------------

TEST_F(BuildGraphTest, PodmanFailedBuildIsExplainedByItsTraceId) {
  // A pooled fan-out: stage a's RUN meets an organic ENOENT, stage b's an
  // injected EIO writing /b.txt.
  core::PodmanOptions opts;
  opts.stage_pool = std::make_shared<support::ThreadPool>(4);
  opts.trace = true;
  opts.syscall_layers.push_back([](std::shared_ptr<kernel::Syscalls> inner)
                                    -> std::shared_ptr<kernel::Syscalls> {
    auto layer = std::make_shared<kernel::FaultInjectSyscalls>(
        std::move(inner), 7, kernel::FaultSpec{"", "b.txt", Err::eio});
    layer->set_flight_recorder(&obs::global_flight_recorder());
    return layer;
  });
  auto podman = make_podman(opts);
  Transcript t;
  ASSERT_NE(podman.build("doomed",
                         "FROM centos:7 AS a\n"
                         "RUN test -e /nope || echo alpha > /a.txt\n"
                         "FROM centos:7 AS b\n"
                         "RUN echo beta > /b.txt\n"
                         "FROM centos:7\n"
                         "COPY --from=a /a.txt /a.txt\n"
                         "COPY --from=b /b.txt /b.txt\n",
                         t),
            0)
      << t.text();

  std::uint64_t trace_id = 0;
  for (const auto& span : podman.tracer()->spans()) {
    if (span.name != "build") continue;
    for (const auto& [k, v] : span.attrs) {
      if (k == "trace_id") trace_id = std::stoull(v, nullptr, 16);
    }
  }
  ASSERT_NE(trace_id, 0u);
  std::size_t failed = 0, faults = 0, syscall_errors = 0;
  for (const auto& e : obs::global_flight_recorder().dump(trace_id)) {
    EXPECT_EQ(e.trace_id, trace_id);
    failed += e.kind == obs::FlightKind::kBuildFailed;
    faults += e.kind == obs::FlightKind::kFaultInjected;
    syscall_errors += e.kind == obs::FlightKind::kSyscallError;
  }
  EXPECT_EQ(failed, 1u);
  // Recorded on the pool workers that ran stages a and b.
  EXPECT_GE(faults, 1u);
  EXPECT_GE(syscall_errors, 1u);
}

// --- satellite a: unified stats through the shell ---------------------------------

TEST_F(BuildGraphTest, BuildCacheShellBuiltinReportsStats) {
  auto cache = std::make_shared<BuildCache>();
  core::ChImageOptions opts;
  opts.shared_cache = cache;
  auto ch = make_ch(opts);
  Transcript t1, t2;
  ASSERT_EQ(ch.build("img", "FROM centos:7\nRUN echo hi\n", t1), 0);
  ASSERT_EQ(ch.build("img", "FROM centos:7\nRUN echo hi\n", t2), 0);
  buildgraph::register_cache_command(*cluster_->command_registry(), cache);
  std::string out, err;
  const int status = cluster_->login().run(alice_, "build-cache", out, err);
  EXPECT_EQ(status, 0) << err;
  EXPECT_NE(out.find("hits"), std::string::npos) << out;
  EXPECT_NE(out.find("misses"), std::string::npos) << out;
  // 1 hit, 1 miss, 1 entry.
  EXPECT_NE(out.find("      1       1"), std::string::npos) << out;
}

}  // namespace
}  // namespace minicon
