// Concurrency tests: the registry is shared mutable state across compute
// nodes (Fig 6); these hammer it from many threads and run repeated
// multi-node launches to shake out races.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/chimage.hpp"
#include "core/cluster.hpp"
#include "image/chunkstore.hpp"
#include "image/registry.hpp"
#include "support/sha256.hpp"
#include "support/threadpool.hpp"

namespace minicon {
namespace {

TEST(Concurrency, RegistryBlobsUnderContention) {
  image::Registry registry;
  constexpr int kThreads = 8;
  constexpr int kBlobsPerThread = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kBlobsPerThread; ++i) {
        // Half the blobs collide across threads (dedup path), half unique.
        const std::string data =
            i % 2 == 0 ? "shared-" + std::to_string(i)
                       : "unique-" + std::to_string(t) + "-" +
                             std::to_string(i);
        const std::string digest = registry.put_blob(data);
        auto back = registry.get_blob(digest);
        if (!back || *back != data) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(registry.pulls(), kThreads * kBlobsPerThread);
}

TEST(Concurrency, RegistryManifestsUnderContention) {
  image::Registry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        image::Manifest m;
        m.reference = "app:" + std::to_string(i % 10);
        m.config.arch = t % 2 == 0 ? "x86_64" : "aarch64";
        m.layers = {oci_digest(std::to_string(i))};
        registry.put_manifest(m);
        auto got = registry.get_manifest(m.reference, m.config.arch);
        if (!got) ++failures;
        (void)registry.references();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(registry.references().size(), 10u);
}

TEST(Concurrency, RepeatedParallelLaunches) {
  core::ClusterOptions opts;
  opts.arch = "x86_64";
  opts.compute_nodes = 6;
  core::Cluster cluster(opts);
  auto alice = cluster.user_on(cluster.login());
  ASSERT_TRUE(alice.ok());
  core::ChImage ch(cluster.login(), *alice, &cluster.registry());
  Transcript t;
  ASSERT_EQ(ch.build("job", "FROM centos:7\nRUN echo ready\n", t), 0);
  Transcript pt;
  ASSERT_EQ(ch.push("job", "stress/job:1", pt), 0);

  for (int round = 0; round < 5; ++round) {
    core::Cluster::LaunchOptions per_node;
    per_node.mode = core::Cluster::LaunchMode::kPullPerNode;
    auto result = cluster.parallel_launch(
        "stress/job:1", {"hostname"}, per_node);
    ASSERT_EQ(result.nodes_ok, 6) << "round " << round;
    ASSERT_EQ(result.nodes_failed, 0);
  }
}

TEST(Concurrency, SharedFsLaunchStress) {
  core::ClusterOptions opts;
  opts.arch = "x86_64";
  opts.compute_nodes = 8;
  core::Cluster cluster(opts);
  auto alice = cluster.user_on(cluster.login());
  ASSERT_TRUE(alice.ok());
  core::ChImage ch(cluster.login(), *alice, &cluster.registry());
  Transcript t;
  ASSERT_EQ(ch.build("job", "FROM centos:7\nRUN echo ready\n", t), 0);
  Transcript pt;
  ASSERT_EQ(ch.push("job", "stress/shared:1", pt), 0);
  for (int round = 0; round < 3; ++round) {
    core::Cluster::LaunchOptions shared_fs;
    shared_fs.mode = core::Cluster::LaunchMode::kSharedFs;
    auto result = cluster.parallel_launch(
        "stress/shared:1", {"cat", "/etc/redhat-release"}, shared_fs);
    ASSERT_EQ(result.nodes_ok, 8) << "round " << round;
    for (const auto& out : result.outputs) {
      EXPECT_NE(out.find("CentOS"), std::string::npos);
    }
  }
}

TEST(Concurrency, ChunkStoreWritersShareOverlappingChunks) {
  // N writers push layers that overlap heavily (same base, distinct tails).
  // Digests must be stable across interleavings and dedup exact: the base
  // chunks are stored once no matter who wins each race.
  image::ChunkStore store(/*chunk_size=*/1024);
  std::string base;  // 8 distinct shared chunks
  for (int i = 0; i < 8; ++i) base += std::string(1024, char('a' + i));
  constexpr int kWriters = 8;
  constexpr int kRounds = 20;
  support::ThreadPool pool(4);

  // Reference digests computed serially, before any concurrency.
  image::ChunkStore ref_store(1024);
  std::vector<std::string> expected;
  for (int t = 0; t < kWriters; ++t) {
    expected.push_back(
        ref_store.put(base + "tail-" + std::to_string(t)).digest);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      const std::string data = base + "tail-" + std::to_string(t);
      for (int r = 0; r < kRounds; ++r) {
        auto blob = store.put(data, r % 2 == 0 ? &pool : nullptr);
        if (blob.digest != expected[static_cast<std::size_t>(t)]) {
          ++mismatches;
        }
        if (blob.size != data.size()) ++mismatches;
        auto back = store.assemble(blob);
        if (back == nullptr || *back != data) ++mismatches;
      }
    });
  }
  for (auto& th : writers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Dedup is exact: 8 shared base chunks + one distinct tail per writer.
  EXPECT_EQ(store.chunk_count(), 8u + kWriters);
  EXPECT_EQ(store.unique_bytes(),
            base.size() + kWriters * std::string("tail-0").size());
}

TEST(Concurrency, RegistryChunkedPushPullStress) {
  // N writers re-push overlapping chunked layers while M readers pull via
  // get_blob_ref; counters must balance and bytes stay deduplicated.
  image::Registry registry;
  support::ThreadPool pool(4);
  std::string base;  // 4 distinct full-size chunks
  for (int i = 0; i < 4; ++i) {
    base += std::string(image::ChunkStore::kDefaultChunkSize, char('p' + i));
  }
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kRounds = 25;

  // Seed one blob per writer so readers always find something.
  std::vector<std::string> digests;
  for (int t = 0; t < kWriters; ++t) {
    digests.push_back(
        registry.put_blob_chunked(base + std::to_string(t), &pool).digest);
  }
  const std::uint64_t seeded_bytes = registry.blob_bytes();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      const std::string data = base + std::to_string(t);
      for (int r = 0; r < kRounds; ++r) {
        auto blob = registry.put_blob_chunked(data, &pool);
        if (blob.digest != digests[static_cast<std::size_t>(t)]) ++failures;
        if (blob.new_bytes != 0) ++failures;  // re-push transfers nothing
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const auto& digest =
            digests[static_cast<std::size_t>((t + r) % kWriters)];
        auto ref = registry.get_blob_ref(digest);
        if (ref == nullptr || ref->size() != base.size() + 1) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Dedup exact: repeated pushes added no resident bytes...
  EXPECT_EQ(registry.blob_bytes(), seeded_bytes);
  // ...and the counters account for every operation.
  EXPECT_EQ(registry.pushes(), static_cast<std::uint64_t>(
                                   kWriters + kWriters * kRounds));
  EXPECT_EQ(registry.pulls(),
            static_cast<std::uint64_t>(kReaders * kRounds));
}

TEST(Concurrency, Sha256ThreadSafetyByValue) {
  // Sha256 objects are value types; hashing in parallel must agree.
  const std::string data(100000, 'q');
  const std::string expected = Sha256::hex_digest(data);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (Sha256::hex_digest(data) != expected) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace minicon
