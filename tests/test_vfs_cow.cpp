// Copy-on-write snapshot tests: structural sharing, incremental Merkle
// digests (O(changed) re-snapshot), MemFs content buffers shared with
// snapshots, overlay edge cases (whiteouts, renames across shared subtrees,
// hard links, empty directories), and sync_tree.
#include <gtest/gtest.h>

#include "vfs/memfs.hpp"
#include "vfs/overlayfs.hpp"
#include "vfs/sharedfs.hpp"
#include "vfs/snapshot.hpp"
#include "vfs/treeops.hpp"

namespace minicon::vfs {
namespace {

OpCtx ctx() {
  OpCtx c;
  c.now = 42;
  return c;
}

InodeNum must_create(Filesystem& fs, InodeNum dir, const std::string& name,
                     FileType type, std::uint32_t mode = 0644, Uid uid = 0,
                     Gid gid = 0) {
  CreateArgs args;
  args.type = type;
  args.mode = mode;
  args.uid = uid;
  args.gid = gid;
  auto r = fs.create(ctx(), dir, name, args);
  EXPECT_TRUE(r.ok()) << name;
  return r.ok() ? *r : 0;
}

InodeNum must_write(Filesystem& fs, InodeNum dir, const std::string& name,
                    const std::string& data) {
  const InodeNum f = must_create(fs, dir, name, FileType::Regular);
  EXPECT_TRUE(fs.write(ctx(), f, data, false).ok());
  return f;
}

SnapNodePtr must_snap(Filesystem& fs, SnapshotStats* stats = nullptr) {
  auto snap = fs.snapshot(fs.root(), stats);
  EXPECT_TRUE(snap.ok());
  return snap.ok() ? *snap : nullptr;
}

// --- digest basics ----------------------------------------------------------------

TEST(SnapshotDigest, ContentAndMetadataSensitive) {
  MemFs a, b;
  must_write(a, a.root(), "f", "hello");
  must_write(b, b.root(), "f", "hello");
  EXPECT_EQ(must_snap(a)->digest, must_snap(b)->digest);

  MemFs c;
  must_write(c, c.root(), "f", "other");
  EXPECT_NE(must_snap(a)->digest, must_snap(c)->digest);

  MemFs d;
  const InodeNum f = must_write(d, d.root(), "f", "hello");
  ASSERT_TRUE(d.set_mode(ctx(), f, 0600).ok());
  EXPECT_NE(must_snap(a)->digest, must_snap(d)->digest);
}

TEST(SnapshotDigest, EmptyDirsAreDistinctFromAbsentAndFromFiles) {
  MemFs none;
  MemFs withdir;
  must_create(withdir, withdir.root(), "x", FileType::Directory, 0755);
  MemFs withfile;
  must_create(withfile, withfile.root(), "x", FileType::Regular, 0755);
  // An empty directory changes the parent digest, and a dir named x is not
  // a file named x — the digest folds the type tag.
  EXPECT_NE(must_snap(none)->digest, must_snap(withdir)->digest);
  EXPECT_NE(must_snap(withdir)->digest, must_snap(withfile)->digest);
  // Two separately-built empty dirs digest identically.
  MemFs withdir2;
  must_create(withdir2, withdir2.root(), "x", FileType::Directory, 0755);
  EXPECT_EQ(must_snap(withdir)->digest, must_snap(withdir2)->digest);
}

TEST(SnapshotDigest, HardLinkCountDoesNotChangeFileDigest) {
  // nlink is a property of the linking directories, not the file subtree:
  // adding a link under the same parent must change the *parent* digest
  // (new name) but the file node's own digest stays put.
  MemFs fs;
  const InodeNum sub =
      must_create(fs, fs.root(), "d", FileType::Directory, 0755);
  must_write(fs, sub, "a", "data");
  auto before = must_snap(fs);
  const std::string file_digest = before->children.at("d")
                                      ->children.at("a")
                                      ->digest;
  auto a = fs.lookup(sub, "a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(fs.link(ctx(), sub, "b", *a).ok());
  auto after = must_snap(fs);
  EXPECT_NE(before->digest, after->digest);
  EXPECT_EQ(after->children.at("d")->children.at("a")->digest, file_digest);
  EXPECT_EQ(after->children.at("d")->children.at("b")->digest, file_digest);
}

// --- O(changed) re-snapshot -------------------------------------------------------

TEST(SnapshotCoW, FanOutWidth8RedigestsOnlyDirtyPath) {
  // Width-8 fan-out, 4 files per arm. After a full snapshot, touching one
  // file must re-digest exactly the dirty path: file + its arm + root.
  MemFs fs;
  InodeNum arm0 = 0;
  InodeNum victim = 0;
  for (int i = 0; i < 8; ++i) {
    const InodeNum arm = must_create(fs, fs.root(), "arm" + std::to_string(i),
                                     FileType::Directory, 0755);
    for (int j = 0; j < 4; ++j) {
      const InodeNum f =
          must_write(fs, arm, "f" + std::to_string(j), "payload");
      if (i == 0 && j == 0) {
        arm0 = arm;
        victim = f;
      }
    }
  }
  auto first = must_snap(fs);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->tree_nodes, 1u + 8u + 8u * 4u);

  // Clean re-snapshot computes nothing at all.
  const std::uint64_t d0 = snapshot_digests_computed();
  SnapshotStats clean;
  auto again = must_snap(fs, &clean);
  EXPECT_EQ(snapshot_digests_computed() - d0, 0u);
  EXPECT_EQ(again, first);  // the very same root node, not a rebuild
  EXPECT_EQ(clean.nodes_built, 0u);
  EXPECT_EQ(clean.nodes_reused, first->tree_nodes);

  ASSERT_TRUE(fs.write(ctx(), victim, "changed", false).ok());
  const std::uint64_t d1 = snapshot_digests_computed();
  SnapshotStats dirty;
  auto second = must_snap(fs, &dirty);
  // Exactly the dirty path re-digests: victim file, arm0, root.
  EXPECT_EQ(snapshot_digests_computed() - d1, 3u);
  EXPECT_EQ(dirty.nodes_built, 3u);
  EXPECT_EQ(dirty.nodes_reused, first->tree_nodes - 3u);
  EXPECT_NE(second->digest, first->digest);
  // The 7 untouched arms are the same shared nodes, pointer-for-pointer.
  for (int i = 1; i < 8; ++i) {
    const std::string name = "arm" + std::to_string(i);
    EXPECT_EQ(second->children.at(name), first->children.at(name)) << name;
  }
  EXPECT_NE(second->children.at("arm0"), first->children.at("arm0"));
  (void)arm0;
}

TEST(SnapshotCoW, RenameAcrossSharedSubtreesInvalidatesBothParents) {
  MemFs fs;
  const InodeNum src =
      must_create(fs, fs.root(), "src", FileType::Directory, 0755);
  const InodeNum dst =
      must_create(fs, fs.root(), "dst", FileType::Directory, 0755);
  const InodeNum other =
      must_create(fs, fs.root(), "other", FileType::Directory, 0755);
  must_write(fs, src, "mv", "x");
  must_write(fs, other, "keep", "y");
  auto before = must_snap(fs);

  ASSERT_TRUE(fs.rename(ctx(), src, "mv", dst, "mv").ok());
  const std::uint64_t d = snapshot_digests_computed();
  auto after = must_snap(fs);
  // src, dst, and root re-digest; the moved file and `other` are reused.
  EXPECT_EQ(snapshot_digests_computed() - d, 3u);
  EXPECT_EQ(after->children.at("other"), before->children.at("other"));
  EXPECT_EQ(after->children.at("dst")->children.at("mv"),
            before->children.at("src")->children.at("mv"));
  EXPECT_TRUE(after->children.at("src")->children.empty());
}

// --- shared content buffers -------------------------------------------------------

// Re-freezing a held node's fields reproduces its digest only if no byte the
// digest covers moved under it.
void expect_intact(const SnapNodePtr& n, std::string_view bytes) {
  EXPECT_EQ(n->content_view(), bytes);
  EXPECT_EQ(freeze_snap_node(*n)->digest, n->digest);
}

// MemFs hands its content buffers to the snapshots it freezes, so a later
// write or append must install a new buffer, not edit the one they hold.
TEST(SnapshotCoW, WriteAndAppendLeaveEarlierSnapshotsIntact) {
  MemFs fs;
  const InodeNum f = must_write(fs, fs.root(), "f", "first");
  const SnapNodePtr v1 = must_snap(fs)->children.at("f");
  const std::string v1_digest = v1->digest;
  ASSERT_TRUE(fs.write(ctx(), f, "second", false).ok());
  const SnapNodePtr v2 = must_snap(fs)->children.at("f");
  ASSERT_TRUE(fs.write(ctx(), f, "+tail", true).ok());
  const SnapNodePtr v3 = must_snap(fs)->children.at("f");

  expect_intact(v1, "first");
  EXPECT_EQ(v1->digest, v1_digest);
  expect_intact(v2, "second");
  expect_intact(v3, "second+tail");
  EXPECT_EQ(*fs.read(f), "second+tail");
  EXPECT_EQ(fs.getattr(f)->size, 11u);
}

TEST(SnapshotCoW, AppendAfterAssignLeavesTheLeafUntouched) {
  MemFs src;
  must_write(src, src.root(), "f", "leaf-bytes");
  const SnapNodePtr leaf = must_snap(src)->children.at("f");

  MemFs fs;
  const InodeNum f = must_write(fs, fs.root(), "f", "old");
  const InodeNum g = must_write(fs, fs.root(), "g", "");
  ASSERT_TRUE(fs.assign(ctx(), f, leaf).ok());
  ASSERT_TRUE(fs.assign(ctx(), g, leaf).ok());
  // Both inodes share the leaf's buffer; total_bytes still counts logical
  // bytes per inode.
  EXPECT_EQ(fs.total_bytes(), 2 * leaf->content_view().size());
  ASSERT_TRUE(fs.write(ctx(), f, "+more", true).ok());

  EXPECT_EQ(*fs.read(f), "leaf-bytes+more");
  EXPECT_EQ(*fs.read(g), "leaf-bytes");
  expect_intact(leaf, "leaf-bytes");
  EXPECT_EQ(*src.read(*src.lookup(src.root(), "f")), "leaf-bytes");
  EXPECT_EQ(must_snap(fs)->children.at("f")->content_view(),
            "leaf-bytes+more");
}

// Appends extend a buffer no snapshot references in place; one a snapshot
// still holds is copied once. Either way every name and every held
// snapshot reads what it should.
TEST(SnapshotCoW, RepeatedAppendsStayCorrect) {
  MemFs fs;
  const InodeNum f = must_write(fs, fs.root(), "log", "");
  ASSERT_TRUE(fs.link(ctx(), fs.root(), "alias", f).ok());
  std::string expect;
  SnapNodePtr held;
  std::string held_bytes;
  for (int i = 0; i < 300; ++i) {
    const std::string piece = std::to_string(i) + ";";
    ASSERT_TRUE(fs.write(ctx(), f, piece, true).ok());
    expect += piece;
    if (i == 100) {
      held = must_snap(fs)->children.at("log");
      held_bytes = expect;
    }
    if (i == 200) (void)must_snap(fs);  // frozen, then dropped by the append
  }
  EXPECT_EQ(*fs.read(f), expect);
  EXPECT_EQ(*fs.read(*fs.lookup(fs.root(), "alias")), expect);
  EXPECT_EQ(fs.getattr(f)->size, expect.size());
  EXPECT_EQ(fs.total_bytes(), expect.size());
  expect_intact(held, held_bytes);
  EXPECT_EQ(must_snap(fs)->children.at("log")->content_view(), expect);
}

// --- overlay edge cases -----------------------------------------------------------

class OverlaySnapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lower_ = std::make_shared<MemFs>();
    const InodeNum d = must_create(*lower_, lower_->root(), "base",
                                   FileType::Directory, 0755);
    must_write(*lower_, d, "keep", "lower-keep");
    must_write(*lower_, d, "gone", "lower-gone");
    const InodeNum e = must_create(*lower_, lower_->root(), "quiet",
                                   FileType::Directory, 0755);
    must_write(*lower_, e, "still", "untouched");
    ovl_ = std::make_shared<OverlayFs>(lower_);
  }

  std::shared_ptr<MemFs> lower_;
  std::shared_ptr<OverlayFs> ovl_;
};

TEST_F(OverlaySnapTest, UntouchedOverlayEqualsLowerAndSharesNodes) {
  auto lsnap = must_snap(*lower_);
  auto osnap = must_snap(*ovl_);
  EXPECT_EQ(osnap->digest, lsnap->digest);
  // Delegation shares the lower filesystem's nodes outright.
  EXPECT_EQ(osnap->children.at("base"), lsnap->children.at("base"));
  EXPECT_EQ(osnap->children.at("quiet"), lsnap->children.at("quiet"));
}

TEST_F(OverlaySnapTest, WhiteoutRemovesEntryFromDigest) {
  auto base = ovl_->lookup(ovl_->root(), "base");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(ovl_->unlink(ctx(), *base, "gone").ok());
  auto osnap = must_snap(*ovl_);
  // The whiteout is invisible in the snapshot: `gone` is simply absent,
  // and an equivalent MemFs tree digests identically.
  EXPECT_EQ(osnap->children.at("base")->children.count("gone"), 0u);
  MemFs expect;
  const InodeNum d =
      must_create(expect, expect.root(), "base", FileType::Directory, 0755);
  must_write(expect, d, "keep", "lower-keep");
  const InodeNum e =
      must_create(expect, expect.root(), "quiet", FileType::Directory, 0755);
  must_write(expect, e, "still", "untouched");
  EXPECT_EQ(osnap->digest, must_snap(expect)->digest);
  // The untouched sibling subtree still delegates to lower's shared node.
  EXPECT_EQ(osnap->children.at("quiet"),
            must_snap(*lower_)->children.at("quiet"));
}

TEST_F(OverlaySnapTest, UpperWriteInvalidatesThroughDelegatedParents) {
  auto first = must_snap(*ovl_);
  auto base = ovl_->lookup(ovl_->root(), "base");
  ASSERT_TRUE(base.ok());
  auto keep = ovl_->lookup(*base, "keep");
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(ovl_->write(ctx(), *keep, "upper-version", false).ok());
  auto second = must_snap(*ovl_);
  EXPECT_NE(second->digest, first->digest);
  EXPECT_EQ(second->children.at("base")->children.at("keep")->content_view(),
            "upper-version");
  // Lower is untouched, and the overlay still shares its other subtree.
  EXPECT_EQ(must_snap(*lower_)
                ->children.at("base")
                ->children.at("keep")
                ->content_view(),
            "lower-keep");
  EXPECT_EQ(second->children.at("quiet"), first->children.at("quiet"));
}

TEST_F(OverlaySnapTest, RenameAcrossSharedSubtreesMatchesMemFs) {
  auto base = ovl_->lookup(ovl_->root(), "base");
  auto quiet = ovl_->lookup(ovl_->root(), "quiet");
  ASSERT_TRUE(base.ok() && quiet.ok());
  ASSERT_TRUE(ovl_->rename(ctx(), *base, "keep", *quiet, "moved").ok());
  auto osnap = must_snap(*ovl_);
  MemFs expect;
  const InodeNum d =
      must_create(expect, expect.root(), "base", FileType::Directory, 0755);
  must_write(expect, d, "gone", "lower-gone");
  const InodeNum e =
      must_create(expect, expect.root(), "quiet", FileType::Directory, 0755);
  must_write(expect, e, "still", "untouched");
  must_write(expect, e, "moved", "lower-keep");
  EXPECT_EQ(osnap->digest, must_snap(expect)->digest);
}

TEST_F(OverlaySnapTest, RmdirWhiteoutAndEmptyDirDigests) {
  // rmdir of a lower-only dir needs a whiteout; the result must digest the
  // same as a tree that never had the dir.
  auto quiet = ovl_->lookup(ovl_->root(), "quiet");
  ASSERT_TRUE(quiet.ok());
  ASSERT_TRUE(ovl_->unlink(ctx(), *quiet, "still").ok());
  ASSERT_TRUE(ovl_->rmdir(ctx(), ovl_->root(), "quiet").ok());
  auto osnap = must_snap(*ovl_);
  MemFs expect;
  const InodeNum d =
      must_create(expect, expect.root(), "base", FileType::Directory, 0755);
  must_write(expect, d, "keep", "lower-keep");
  must_write(expect, d, "gone", "lower-gone");
  EXPECT_EQ(osnap->digest, must_snap(expect)->digest);
}

// --- sync_tree --------------------------------------------------------------------

TEST(SyncTree, RestoresAndRemovesInOChanged) {
  MemFs fs;
  const InodeNum shared =
      must_create(fs, fs.root(), "shared", FileType::Directory, 0755);
  for (int i = 0; i < 16; ++i) {
    must_write(fs, shared, "f" + std::to_string(i), "stable");
  }
  const InodeNum work =
      must_create(fs, fs.root(), "work", FileType::Directory, 0755);
  must_write(fs, work, "a", "v1");
  auto target = must_snap(fs);

  // Drift: modify one file, add an extraneous one.
  auto a = fs.lookup(work, "a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(fs.write(ctx(), *a, "v2", false).ok());
  must_write(fs, work, "junk", "extraneous");

  auto stats = sync_tree(fs, fs.root(), target, ctx());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->removed, 1u);   // junk
  EXPECT_GE(stats->reused, 17u);   // the shared arm skipped wholesale
  EXPECT_EQ(must_snap(fs)->digest, target->digest);
  EXPECT_EQ(*fs.read(*fs.lookup(work, "a")), "v1");
  EXPECT_EQ(fs.lookup(work, "junk").error(), Err::enoent);
}

TEST(SyncTree, ReplacesOnTypeChange) {
  MemFs fs;
  must_write(fs, fs.root(), "x", "file");
  auto target = must_snap(fs);
  ASSERT_TRUE(fs.unlink(ctx(), fs.root(), "x").ok());
  const InodeNum d =
      must_create(fs, fs.root(), "x", FileType::Directory, 0755);
  must_write(fs, d, "inner", "y");
  ASSERT_TRUE(sync_tree(fs, fs.root(), target, ctx()).ok());
  EXPECT_EQ(must_snap(fs)->digest, target->digest);
  EXPECT_EQ(*fs.read(*fs.lookup(fs.root(), "x")), "file");
}

// The shape a P2P node materializes, owned by `owner` throughout, in two
// variants that differ in a 64 KiB payload and in a setuid, xattr-bearing
// leaf; `share` is identical in both.
SnapNodePtr image_tree(int v, Uid owner = 0) {
  MemFs src;
  EXPECT_TRUE(src.set_owner(ctx(), src.root(), owner, owner).ok());
  auto file = [&](InodeNum dir, const std::string& name, std::uint32_t m,
                  const std::string& data) {
    const InodeNum f =
        must_create(src, dir, name, FileType::Regular, m, owner, owner);
    EXPECT_TRUE(src.write(ctx(), f, data, false).ok());
    return f;
  };
  auto dir = [&](const std::string& name) {
    return must_create(src, src.root(), name, FileType::Directory, 0755,
                       owner, owner);
  };
  file(dir("bin"), "payload", 0755,
       std::string(64 * 1024, static_cast<char>('a' + v)));
  const InodeNum tool =
      file(dir("etc"), "tool", v == 0 ? 0755 : 04755, "tool");
  EXPECT_TRUE(
      src.set_xattr(ctx(), tool, "user.tag", "v" + std::to_string(v)).ok());
  const InodeNum share = dir("share");
  for (int i = 0; i < 8; ++i) {
    file(share, "doc" + std::to_string(i), 0644, "stable");
  }
  return must_snap(src);
}

// `tree` with the leaf `dir`/`name` replaced by `edit` applied to a copy.
template <typename Edit>
SnapNodePtr with_leaf(const SnapNodePtr& tree, const std::string& dir,
                      const std::string& name, Edit edit) {
  SnapNode leaf = *tree->children.at(dir)->children.at(name);
  edit(leaf);
  SnapNode d = *tree->children.at(dir);
  d.children[name] = freeze_snap_node(std::move(leaf));
  SnapNode root = *tree;
  root.children[dir] = freeze_snap_node(std::move(d));
  return freeze_snap_node(std::move(root));
}

SnapNodePtr with_mode(const SnapNodePtr& tree, const std::string& dir,
                      const std::string& name, std::uint32_t m) {
  return with_leaf(tree, dir, name, [m](SnapNode& n) { n.mode = m; });
}

SnapNodePtr with_xattrs(const SnapNodePtr& tree, const std::string& dir,
                        const std::string& name,
                        std::map<std::string, std::string> xattrs) {
  return with_leaf(tree, dir, name,
                   [&xattrs](SnapNode& n) { n.xattrs = std::move(xattrs); });
}

TEST(SyncTree, AssignedLeavesNeedNoRedigest) {
  const SnapNodePtr a = image_tree(0);
  const SnapNodePtr b = image_tree(1);
  MemFs fs;
  const InodeNum img =
      must_create(fs, fs.root(), "img", FileType::Directory, 0755);
  ASSERT_TRUE(sync_tree(fs, img, a, ctx()).ok());
  ASSERT_TRUE(sync_tree(fs, img, b, ctx()).ok());

  // The synced leaves come from assign()'s cache; only img, bin and etc,
  // the directories on the dirty path, are frozen afresh.
  const std::uint64_t d0 = snapshot_digests_computed();
  auto snap = fs.snapshot(img);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snapshot_digests_computed() - d0, 3u);
  EXPECT_EQ((*snap)->digest, b->digest);
  EXPECT_EQ((*snap)->children.at("bin")->children.at("payload")->content,
            b->children.at("bin")->children.at("payload")->content);
  auto uncached = snapshot_tree(fs, img);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ((*uncached)->digest, b->digest);

  // A mode outside kPermMask is normalized on the way in, so that leaf must
  // not seed the cache: the next snapshot re-digests it with its dirty path
  // and agrees with an uncached walk.
  const SnapNodePtr c = with_mode(b, "etc", "tool", 0104755);
  ASSERT_TRUE(sync_tree(fs, img, c, ctx()).ok());
  const std::uint64_t d1 = snapshot_digests_computed();
  auto csnap = fs.snapshot(img);
  ASSERT_TRUE(csnap.ok());
  EXPECT_EQ(snapshot_digests_computed() - d1, 3u);  // tool, etc, img
  auto cuncached = snapshot_tree(fs, img);
  ASSERT_TRUE(cuncached.ok());
  EXPECT_EQ((*csnap)->digest, (*cuncached)->digest);
  EXPECT_EQ((*csnap)->digest, b->digest);  // 0104755 & kPermMask == 04755
}

// OverlayFs and SharedFs keep the generic assign(): read, compare, rewrite,
// then fix metadata through their own interface, so copy-up and server-side
// identity rules apply. The expected SyncStats pin that sequence.
TEST(SyncTree, GenericAssignOnOverlayFs) {
  auto lower = std::make_shared<MemFs>();
  ASSERT_TRUE(sync_tree(*lower, lower->root(), image_tree(0), ctx()).ok());
  OverlayFs ovl(lower);
  const SnapNodePtr b = image_tree(1);
  auto stats = sync_tree(ovl, ovl.root(), b, ctx());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->created, 0u);
  EXPECT_EQ(stats->removed, 0u);
  EXPECT_EQ(stats->retouched, 5u);  // root, bin, payload, etc, tool
  EXPECT_EQ(stats->reused, 9u);     // share and its 8 docs
  auto uncached = snapshot_tree(ovl, ovl.root());
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ((*uncached)->digest, b->digest);

  // A target that differs only in mode rewrites no content.
  const std::uint64_t upper = ovl.upper_bytes();
  const SnapNodePtr m = with_mode(b, "bin", "payload", 0600);
  stats = sync_tree(ovl, ovl.root(), m, ctx());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->retouched, 3u);  // root, bin, payload
  EXPECT_EQ(ovl.upper_bytes(), upper);
  uncached = snapshot_tree(ovl, ovl.root());
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ((*uncached)->digest, m->digest);
}

TEST(SyncTree, GenericAssignOnSharedFs) {
  // An unprivileged client on a root-squashing server without xattr
  // support: xattrs never land, so the xattr-bearing leaf is rewritten on
  // every sync, while the server's identity rules hold as before.
  SharedFs fs;
  OpCtx user = ctx();
  user.host_uid = 1000;
  user.host_gid = 1000;
  user.host_privileged = false;
  CreateArgs dir_args;
  dir_args.type = FileType::Directory;
  dir_args.mode = 0755;
  auto img_ino = fs.create(user, fs.root(), "img", dir_args);
  ASSERT_TRUE(img_ino.ok());
  const InodeNum img = *img_ino;
  auto stats = sync_tree(fs, img, image_tree(0, 1000), user);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->created, 13u);
  const SnapNodePtr b = image_tree(1, 1000);
  stats = sync_tree(fs, img, b, user);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->created, 0u);
  EXPECT_EQ(stats->removed, 0u);
  EXPECT_EQ(stats->retouched, 5u);
  EXPECT_EQ(stats->reused, 9u);
  auto uncached = snapshot_tree(fs, img);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ((*uncached)->digest,
            with_xattrs(b, "etc", "tool", {})->digest);

  // A new file the target owns as root is created under the client's own
  // id (the server's choice), as before; a chown of an existing one is
  // refused.
  SnapNode etc = *b->children.at("etc");
  SnapNode rootfile = *etc.children.at("tool");
  rootfile.uid = 0;
  rootfile.gid = 0;
  rootfile.xattrs.clear();
  etc.children["rootfile"] = freeze_snap_node(std::move(rootfile));
  SnapNode root = *b;
  root.children["etc"] = freeze_snap_node(std::move(etc));
  const SnapNodePtr c = freeze_snap_node(std::move(root));
  stats = sync_tree(fs, img, c, user);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->created, 1u);
  auto etc_ino = fs.lookup(img, "etc");
  ASSERT_TRUE(etc_ino.ok());
  auto rf = fs.lookup(*etc_ino, "rootfile");
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ(fs.getattr(*rf)->uid, 1000u);
  EXPECT_EQ(*fs.read(*rf), "tool");
  EXPECT_EQ(sync_tree(fs, img, c, user).error(), Err::eperm);
}

TEST(Flatten, SharesUnchangedSubtreesAndDropsDevices) {
  MemFs fs;
  const InodeNum clean =
      must_create(fs, fs.root(), "clean", FileType::Directory, 0755);
  must_write(fs, clean, "f", "data");
  const InodeNum dirty =
      must_create(fs, fs.root(), "dirty", FileType::Directory, 0755);
  const InodeNum owned =
      must_create(fs, dirty, "owned", FileType::Regular, 04755, 7, 8);
  ASSERT_TRUE(fs.write(ctx(), owned, "secret", false).ok());
  CreateArgs dev;
  dev.type = FileType::CharDev;
  dev.mode = 0666;
  ASSERT_TRUE(fs.create(ctx(), dirty, "null", dev).ok());
  auto snap = must_snap(fs);
  auto flat = flatten_snapshot(snap);
  // Already root:root subtree shares the original node.
  EXPECT_EQ(flat->children.at("clean"), snap->children.at("clean"));
  const auto& f = flat->children.at("dirty")->children.at("owned");
  EXPECT_EQ(f->uid, 0u);
  EXPECT_EQ(f->gid, 0u);
  EXPECT_EQ(f->mode & (mode::kSetUid | mode::kSetGid), 0u);
  EXPECT_EQ(flat->children.at("dirty")->children.count("null"), 0u);
}

}  // namespace
}  // namespace minicon::vfs
