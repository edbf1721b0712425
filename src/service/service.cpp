#include "service/service.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "obs/flightrec.hpp"
#include "support/threadpool.hpp"
#include "vfs/snapshot.hpp"

namespace minicon::service {

namespace {

// Latency bounds for push/pull/GC-pause histograms: the default µs decades
// top out at 10 ms, too short for a contended 10k-client sweep.
std::vector<double> wide_latency_bounds_us() {
  return {1,    2,     5,     10,    20,    50,     100,    200,
          500,  1000,  2000,  5000,  10000, 20000,  50000,  100000,
          200000, 500000, 1000000};
}

// One-minute rolling SLO: 99% of operations at or under 10 ms.
obs::SloWindow::Options slo_options() {
  obs::SloWindow::Options o;
  o.bounds = wide_latency_bounds_us();
  o.threshold_us = 10000;
  o.objective = 0.99;
  return o;
}

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

struct ScopeExit {
  std::function<void()> fn;
  ~ScopeExit() {
    if (fn) fn();
  }
};

}  // namespace

RegistryService::RegistryService(image::Registry& registry,
                                 support::ThreadPool* pool,
                                 obs::MetricsRegistry* metrics,
                                 support::TokenBucket::Clock bucket_clock)
    : reg_(registry),
      pool_(pool),
      metrics_(metrics != nullptr ? metrics : &obs::global_metrics()),
      bucket_clock_(std::move(bucket_clock)),
      chunk_shards_(kChunkShards),
      push_slo_(slo_options()),
      pull_slo_(slo_options()) {
  pushes_m_ = &metrics_->counter("service.pushes");
  pulls_m_ = &metrics_->counter("service.pulls");
  bytes_served_m_ = &metrics_->counter("service.bytes_served");
  rejected_m_ = &metrics_->counter("service.admission_rejected");
  throttled_m_ = &metrics_->counter("service.throttled");
  queue_depth_m_ = &metrics_->gauge("service.queue_depth");
  tenants_m_ = &metrics_->gauge("service.tenants");
  gc_cycles_m_ = &metrics_->counter("service.gc.cycles");
  gc_reclaimed_bytes_m_ = &metrics_->counter("service.gc.reclaimed_bytes");
  gc_reclaimed_chunks_m_ = &metrics_->counter("service.gc.reclaimed_chunks");
  gc_reclaimed_manifests_m_ =
      &metrics_->counter("service.gc.reclaimed_manifests");
  gc_pause_us_m_ =
      &metrics_->histogram("service.gc.pause_us", wide_latency_bounds_us());
  push_latency_us_m_ =
      &metrics_->histogram("service.push_latency_us", wide_latency_bounds_us());
  pull_latency_us_m_ =
      &metrics_->histogram("service.pull_latency_us", wide_latency_bounds_us());
}

std::string RegistryService::mirror_reference(const std::string& tenant,
                                              const std::string& tag) {
  return tenant + "/" + tag;
}

RegistryService::ChunkShard& RegistryService::shard_for(
    const std::string& digest) const {
  return chunk_shards_[std::hash<std::string>{}(digest) % kChunkShards];
}

RegistryService::Tenant* RegistryService::find_tenant(
    const std::string& tenant) const {
  std::lock_guard lock(tenants_mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second.get();
}

VoidResult RegistryService::create_tenant(const std::string& tenant,
                                          Quota quota) {
  if (tenant.empty() || tenant.find('/') != std::string::npos) {
    return Err::einval;
  }
  auto t = std::make_unique<Tenant>();
  t->name = tenant;
  t->quota = quota;
  const double rate = quota.pull_rate_bytes_per_sec;
  const double burst = quota.pull_burst_bytes > 0 ? quota.pull_burst_bytes
                       : rate > 0                 ? rate
                                                 : 0;
  t->bucket = std::make_unique<support::TokenBucket>(rate, burst,
                                                     bucket_clock_);
  const std::string prefix = "service." + tenant + ".";
  t->pushes_m = &metrics_->counter(prefix + "pushes");
  t->pulls_m = &metrics_->counter(prefix + "pulls");
  t->bytes_pushed_m = &metrics_->counter(prefix + "bytes_pushed");
  t->bytes_served_m = &metrics_->counter(prefix + "bytes_served");
  t->rejected_m = &metrics_->counter(prefix + "quota_rejections");
  t->throttled_m = &metrics_->counter(prefix + "throttled");
  t->bytes_used_m = &metrics_->gauge(prefix + "bytes_used");
  t->tags_m = &metrics_->gauge(prefix + "tags");

  std::lock_guard lock(tenants_mu_);
  auto [it, inserted] = tenants_.try_emplace(tenant, std::move(t));
  if (!inserted) return Err::eexist;
  tenants_m_->set(static_cast<std::int64_t>(tenants_.size()));
  return {};
}

std::vector<std::string> RegistryService::tenants() const {
  std::vector<std::string> out;
  std::lock_guard lock(tenants_mu_);
  out.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) out.push_back(name);
  return out;
}

Result<Quota> RegistryService::tenant_quota(const std::string& tenant) const {
  Tenant* t = find_tenant(tenant);
  if (t == nullptr) return Err::enoent;
  return t->quota;
}

Result<TenantStats> RegistryService::tenant_stats(
    const std::string& tenant) const {
  Tenant* t = find_tenant(tenant);
  if (t == nullptr) return Err::enoent;
  std::lock_guard lock(t->mu);
  TenantStats s = t->stats;
  s.tags = t->tags.size();
  return s;
}

Result<PushReceipt> RegistryService::push_blob(const std::string& tenant,
                                               std::string_view data) {
  const auto t0 = std::chrono::steady_clock::now();
  Tenant* t = find_tenant(tenant);
  if (t == nullptr) return Err::enoent;

  const std::uint64_t size = data.size();
  {
    // Admission under the tenant lock, before any byte is stored: two
    // concurrent pushers cannot both squeeze through the same headroom, and
    // a rejected push costs the service nothing.
    std::lock_guard lock(t->mu);
    if (t->stats.bytes_used + size > t->quota.max_bytes ||
        t->stats.blobs + 1 > t->quota.max_blobs) {
      ++t->stats.quota_rejections;
      t->rejected_m->add();
      rejected_m_->add();
      if (obs::FlightRecorder& rec = obs::global_flight_recorder();
          rec.enabled()) {
        rec.record(obs::FlightKind::kQuotaRejected, tenant,
                   err_value(Err::enospc), size);
      }
      return Err::enospc;
    }
    t->stats.bytes_used += size;
    ++t->stats.blobs;
    ++t->stats.pushes;
    t->stats.bytes_pushed += size;
    t->pushes_m->add();
    t->bytes_pushed_m->add(size);
    t->bytes_used_m->set(static_cast<std::int64_t>(t->stats.bytes_used));
  }
  pushes_m_->add();

  const image::ChunkedBlob blob = reg_.put_blob_chunked(data, pool_);

  // Admit every chunk and the blob record into the GC tables, stamped with
  // the current epoch (refcounts unchanged — references come from
  // manifests). A sweep racing this push cannot reclaim them: its cutoff
  // predates this epoch value.
  const std::uint64_t now_epoch = epoch_.load(std::memory_order_relaxed);
  const std::size_t cs = reg_.chunks().chunk_size();
  for (std::size_t i = 0; i < blob.chunks.size(); ++i) {
    const std::uint64_t chunk_size =
        std::min<std::uint64_t>(cs, size - static_cast<std::uint64_t>(i) * cs);
    ChunkShard& shard = shard_for(blob.chunks[i]);
    std::lock_guard lock(shard.mu);
    ChunkEntry& e = shard.chunks[blob.chunks[i]];
    e.epoch = now_epoch;
    e.size = chunk_size;
  }
  {
    std::lock_guard lock(blobs_mu_);
    BlobEntry& e = blobs_[blob.digest];
    e.epoch = now_epoch;
    e.size = blob.size;
  }

  const double took = elapsed_us(t0);
  push_latency_us_m_->observe(took);
  push_slo_.observe(took);
  return PushReceipt{blob.digest, blob.size, blob.new_bytes};
}

Result<RegistryService::ManifestEntry> RegistryService::build_manifest_entry(
    const image::Manifest& m) {
  ManifestEntry entry;
  entry.manifest = m;
  std::unordered_set<std::string> seen;
  for (const std::string& layer : m.layers) {
    auto refs = reg_.layer_chunk_refs(layer, /*materialize=*/true);
    if (!refs.ok()) return refs.error();
    for (const image::Registry::ChunkRef& r : *refs) {
      entry.bytes += r.size;
      if (seen.insert(r.digest).second) {
        entry.chunks.push_back(r.digest);
        entry.chunk_sizes.push_back(r.size);
      }
    }
  }
  return entry;
}

void RegistryService::release_manifest_refs(const ManifestEntry& entry) {
  for (const std::string& d : entry.chunks) {
    ChunkShard& shard = shard_for(d);
    std::lock_guard lock(shard.mu);
    auto it = shard.chunks.find(d);
    if (it != shard.chunks.end() && it->second.refs > 0) --it->second.refs;
  }
  std::lock_guard lock(blobs_mu_);
  for (const std::string& layer : entry.manifest.layers) {
    auto it = blobs_.find(layer);
    if (it != blobs_.end() && it->second.refs > 0) --it->second.refs;
  }
}

Result<std::string> RegistryService::put_manifest(const std::string& tenant,
                                                  const image::Manifest& m) {
  Tenant* t = find_tenant(tenant);
  if (t == nullptr) return Err::enoent;

  auto built = build_manifest_entry(m);
  if (!built.ok()) return built.error();
  ManifestEntry entry = std::move(*built);
  const std::string digest = m.digest();

  {
    std::lock_guard lock(manifests_mu_);
    entry.epoch = epoch_.load(std::memory_order_relaxed);
    auto [it, inserted] = manifests_.try_emplace(digest, entry);
    if (!inserted) {
      // Idempotent re-put: the existing entry already holds its chunk/blob
      // refs; re-stamping the epoch renews the grace window (resurrection
      // after delete — refcount wins, there is no tombstone).
      it->second.epoch = entry.epoch;
      return digest;
    }
  }

  // Take chunk + blob references BEFORE re-verifying presence: once refs are
  // positive no sweep can touch these digests, so a single re-materialize
  // below is race-free.
  for (std::size_t i = 0; i < entry.chunks.size(); ++i) {
    ChunkShard& shard = shard_for(entry.chunks[i]);
    std::lock_guard lock(shard.mu);
    ChunkEntry& e = shard.chunks[entry.chunks[i]];
    ++e.refs;
    e.epoch = entry.epoch;
    e.size = entry.chunk_sizes[i];
  }
  // A sweep may have reclaimed a blob or a chunk between materialization
  // and the ref-take. A non-tree layer the registry no longer holds counts
  // as missing: the chunks it named may be shared with other pushes and
  // still present, so the chunk check below would not notice. Presence is
  // re-checked and repaired exactly once; a repair that still cannot
  // materialize (the source itself was swept) rolls everything back — the
  // ENOENT tells the caller to re-push, the same answer a real registry
  // gives a manifest PUT for an expired upload.
  bool missing = false;
  {
    std::lock_guard lock(blobs_mu_);
    for (const std::string& layer : entry.manifest.layers) {
      auto it = blobs_.find(layer);
      if (it != blobs_.end()) ++it->second.refs;
      if (!image::Registry::is_tree_digest(layer) && !reg_.has_blob(layer)) {
        missing = true;
      }
    }
  }
  for (const std::string& d : entry.chunks) {
    if (!reg_.chunks().has_chunk(d)) {
      missing = true;
      break;
    }
  }
  if (missing) {
    bool repaired = true;
    for (const std::string& layer : entry.manifest.layers) {
      auto refs = reg_.layer_chunk_refs(layer, /*materialize=*/true);
      if (!refs.ok()) {
        repaired = false;
        break;
      }
    }
    if (repaired) {
      for (const std::string& d : entry.chunks) {
        if (!reg_.chunks().has_chunk(d)) {
          repaired = false;
          break;
        }
      }
    }
    if (!repaired) {
      release_manifest_refs(entry);
      std::lock_guard lock(manifests_mu_);
      auto it = manifests_.find(digest);
      if (it != manifests_.end() && it->second.refs == 0) manifests_.erase(it);
      return Err::enoent;
    }
  }
  return digest;
}

Result<std::string> RegistryService::adopt_image(const std::string& tenant,
                                                 const std::string& reference) {
  Tenant* t = find_tenant(tenant);
  if (t == nullptr) return Err::enoent;
  auto mf = reg_.get_manifest(reference);
  if (!mf.has_value()) return Err::enoent;

  // Pure metadata walk for the quota charge: adopting must not bill
  // bytes_served or store anything before admission passes.
  std::uint64_t bytes = 0;
  for (const std::string& layer : mf->layers) {
    auto refs = reg_.layer_chunk_refs(layer, /*materialize=*/false);
    if (!refs.ok()) return refs.error();
    for (const image::Registry::ChunkRef& r : *refs) bytes += r.size;
  }
  const std::uint64_t blobs = mf->layers.size();
  {
    std::lock_guard lock(t->mu);
    if (t->stats.bytes_used + bytes > t->quota.max_bytes ||
        t->stats.blobs + blobs > t->quota.max_blobs) {
      ++t->stats.quota_rejections;
      t->rejected_m->add();
      rejected_m_->add();
      if (obs::FlightRecorder& rec = obs::global_flight_recorder();
          rec.enabled()) {
        rec.record(obs::FlightKind::kQuotaRejected, tenant,
                   err_value(Err::enospc), bytes);
      }
      return Err::enospc;
    }
    t->stats.bytes_used += bytes;
    t->stats.blobs += blobs;
    t->bytes_used_m->set(static_cast<std::int64_t>(t->stats.bytes_used));
  }

  auto digest = put_manifest(tenant, *mf);
  if (!digest.ok()) {
    std::lock_guard lock(t->mu);
    t->stats.bytes_used -= bytes;
    t->stats.blobs -= blobs;
    t->bytes_used_m->set(static_cast<std::int64_t>(t->stats.bytes_used));
    return digest.error();
  }
  return digest;
}

void RegistryService::mirror_tag(const Tenant& t, const std::string& name,
                                 const std::string& digest) {
  image::Manifest copy;
  {
    std::lock_guard lock(manifests_mu_);
    auto it = manifests_.find(digest);
    if (it == manifests_.end()) return;
    copy = it->second.manifest;
  }
  copy.reference = mirror_reference(t.name, name);
  reg_.put_manifest(copy);
}

VoidResult RegistryService::tag(const std::string& tenant,
                                const std::string& name,
                                const std::string& digest, TagMode mode) {
  if (name.empty()) return Err::einval;
  Tenant* t = find_tenant(tenant);
  if (t == nullptr) return Err::enoent;

  // Take the new manifest's tag reference first; undone on conflict. This
  // ordering means the manifest can never be swept between the existence
  // check and the tag landing.
  {
    std::lock_guard lock(manifests_mu_);
    auto it = manifests_.find(digest);
    if (it == manifests_.end()) return Err::enoent;
    ++it->second.refs;
  }

  std::string old_digest;
  Err conflict = Err::none;
  {
    std::lock_guard lock(t->mu);
    auto it = t->tags.find(name);
    if (it != t->tags.end()) {
      if (it->second.immutable) {
        conflict = Err::eperm;  // pins never retarget
      } else if (mode == TagMode::kImmutable) {
        conflict = Err::eexist;  // pins are create-only
      } else {
        old_digest = it->second.digest;
        it->second.digest = digest;
      }
    } else {
      t->tags.emplace(name, TagEntry{digest, mode == TagMode::kImmutable});
      t->tags_m->set(static_cast<std::int64_t>(t->tags.size()));
    }
    if (conflict == Err::none) mirror_tag(*t, name, digest);
  }
  if (conflict != Err::none) {
    std::lock_guard lock(manifests_mu_);
    auto it = manifests_.find(digest);
    if (it != manifests_.end() && it->second.refs > 0) --it->second.refs;
    return conflict;
  }
  // A moved tag transfers to the reference taken above; release the one the
  // old target held (also when old == new — the net must stay at one ref).
  if (!old_digest.empty()) {
    std::lock_guard lock(manifests_mu_);
    auto it = manifests_.find(old_digest);
    if (it != manifests_.end() && it->second.refs > 0) --it->second.refs;
  }
  return {};
}

VoidResult RegistryService::retarget(const std::string& tenant,
                                     const std::string& name,
                                     const std::string& new_digest,
                                     const std::string& expected_digest) {
  Tenant* t = find_tenant(tenant);
  if (t == nullptr) return Err::enoent;
  {
    std::lock_guard lock(manifests_mu_);
    auto it = manifests_.find(new_digest);
    if (it == manifests_.end()) return Err::enoent;
    ++it->second.refs;
  }

  std::string old_digest;
  Err conflict = Err::none;
  {
    std::lock_guard lock(t->mu);
    auto it = t->tags.find(name);
    if (it == t->tags.end()) {
      conflict = Err::enoent;
    } else if (it->second.immutable) {
      conflict = Err::eperm;
    } else if (it->second.digest != expected_digest) {
      conflict = Err::estale;  // a concurrent writer moved the tag first
    } else {
      old_digest = it->second.digest;
      it->second.digest = new_digest;
      mirror_tag(*t, name, new_digest);
    }
  }
  if (conflict != Err::none) {
    std::lock_guard lock(manifests_mu_);
    auto it = manifests_.find(new_digest);
    if (it != manifests_.end() && it->second.refs > 0) --it->second.refs;
    return conflict;
  }
  if (!old_digest.empty()) {
    std::lock_guard lock(manifests_mu_);
    auto it = manifests_.find(old_digest);
    if (it != manifests_.end() && it->second.refs > 0) --it->second.refs;
  }
  return {};
}

VoidResult RegistryService::delete_tag(const std::string& tenant,
                                       const std::string& name) {
  Tenant* t = find_tenant(tenant);
  if (t == nullptr) return Err::enoent;
  std::string old_digest;
  {
    std::lock_guard lock(t->mu);
    auto it = t->tags.find(name);
    if (it == t->tags.end()) return Err::enoent;
    old_digest = it->second.digest;
    t->tags.erase(it);
    t->tags_m->set(static_cast<std::int64_t>(t->tags.size()));
    reg_.delete_manifest(mirror_reference(t->name, name));
  }
  std::lock_guard lock(manifests_mu_);
  auto it = manifests_.find(old_digest);
  if (it != manifests_.end() && it->second.refs > 0) --it->second.refs;
  return {};
}

Result<std::string> RegistryService::resolve(const std::string& tenant,
                                             const std::string& reference) const {
  Tenant* t = find_tenant(tenant);
  if (t == nullptr) return Err::enoent;
  const std::size_t at = reference.find('@');
  if (at != std::string::npos) {
    // Digest reference: "<name>@sha256:..." — pinned, tag table not
    // consulted, but the manifest must be registered with the service.
    const std::string digest = reference.substr(at + 1);
    std::lock_guard lock(manifests_mu_);
    if (manifests_.find(digest) == manifests_.end()) return Err::enoent;
    return digest;
  }
  std::lock_guard lock(t->mu);
  auto it = t->tags.find(reference);
  if (it == t->tags.end()) return Err::enoent;
  return it->second.digest;
}

Result<PullResult> RegistryService::pull(const std::string& tenant,
                                         const std::string& reference) {
  const auto t0 = std::chrono::steady_clock::now();
  Tenant* t = find_tenant(tenant);
  if (t == nullptr) return Err::enoent;

  auto digest = resolve(tenant, reference);
  if (!digest.ok()) return digest.error();

  image::Manifest mf;
  std::uint64_t bytes = 0;
  {
    std::lock_guard lock(manifests_mu_);
    auto it = manifests_.find(*digest);
    if (it == manifests_.end()) return Err::enoent;
    mf = it->second.manifest;
    bytes = it->second.bytes;
  }

  t->inflight.fetch_add(1, std::memory_order_relaxed);
  queue_depth_m_->add(1);
  ScopeExit depth{[&] {
    t->inflight.fetch_sub(1, std::memory_order_relaxed);
    queue_depth_m_->add(-1);
  }};

  auto throttle = [&]() -> Err {
    std::lock_guard lock(t->mu);
    ++t->stats.throttled;
    t->throttled_m->add();
    throttled_m_->add();
    if (obs::FlightRecorder& rec = obs::global_flight_recorder();
        rec.enabled()) {
      rec.record(obs::FlightKind::kThrottled, tenant, err_value(Err::eagain),
                 bytes);
    }
    return Err::eagain;
  };
  if (t->inflight.load(std::memory_order_relaxed) >
      t->quota.max_inflight_pulls) {
    return throttle();
  }
  // Spend the whole image's bytes from the fairness bucket up front; an
  // empty bucket rejects (backpressure at the client) instead of queuing.
  if (!t->bucket->try_acquire(static_cast<double>(bytes))) {
    return throttle();
  }

  // Serve every layer through the BILLING read path — this is the service
  // handing content over the wire, unlike the GC mark walk.
  std::uint64_t served = 0;
  for (const std::string& layer : mf.layers) {
    if (image::Registry::is_tree_digest(layer)) {
      vfs::SnapNodePtr tree = reg_.get_tree(layer);
      if (tree == nullptr) return Err::enoent;
      served += tree->tree_bytes;
    } else {
      std::shared_ptr<const std::string> blob = reg_.get_blob_ref(layer);
      if (blob == nullptr) return Err::enoent;
      served += blob->size();
    }
  }

  {
    std::lock_guard lock(t->mu);
    ++t->stats.pulls;
    t->stats.bytes_served += served;
    t->pulls_m->add();
    t->bytes_served_m->add(served);
  }
  pulls_m_->add();
  bytes_served_m_->add(served);
  bytes_served_.fetch_add(served, std::memory_order_relaxed);
  const double took = elapsed_us(t0);
  pull_latency_us_m_->observe(took);
  pull_slo_.observe(took);
  return PullResult{std::move(mf), served};
}

std::chrono::microseconds RegistryService::pull_retry_after(
    const std::string& tenant, const std::string& reference) {
  Tenant* t = find_tenant(tenant);
  if (t == nullptr) return std::chrono::microseconds::zero();
  auto digest = resolve(tenant, reference);
  if (!digest.ok()) return std::chrono::microseconds::zero();
  std::uint64_t bytes = 0;
  {
    std::lock_guard lock(manifests_mu_);
    auto it = manifests_.find(*digest);
    if (it == manifests_.end()) return std::chrono::microseconds::zero();
    bytes = it->second.bytes;
  }
  return t->bucket->retry_after(static_cast<double>(bytes));
}

GcStats RegistryService::run_gc() {
  std::lock_guard gc_lock(gc_mu_);
  const auto cycle_t0 = std::chrono::steady_clock::now();
  GcStats cycle;

  // cutoff is the PREVIOUS epoch value: anything admitted at or after it —
  // including admissions racing this cycle — is inside the grace window.
  const std::uint64_t cutoff =
      epoch_.fetch_add(1, std::memory_order_relaxed);

  // Mark: chunks reachable from manifests tagged directly in the registry
  // (base images, builder pushes, service tag mirrors). The walk is pure
  // metadata — nothing stored, nothing billed.
  std::unordered_set<std::string> marked;
  for (const image::Manifest& m : reg_.all_manifests()) {
    for (const std::string& layer : m.layers) {
      auto refs = reg_.layer_chunk_refs(layer, /*materialize=*/false);
      if (!refs.ok()) continue;  // unenumerable layer holds no chunks
      for (const image::Registry::ChunkRef& r : *refs) marked.insert(r.digest);
    }
  }
  cycle.marked_chunks = marked.size();

  // Manifest sweep. The manifests_mu_ hold is the cycle's only contention
  // with the tag/put hot path, so its duration is what we report as the GC
  // pause.
  std::vector<ManifestEntry> dead_manifests;
  {
    const auto pause_t0 = std::chrono::steady_clock::now();
    std::lock_guard lock(manifests_mu_);
    for (auto it = manifests_.begin(); it != manifests_.end();) {
      if (it->second.refs == 0 && it->second.epoch < cutoff) {
        dead_manifests.push_back(std::move(it->second));
        it = manifests_.erase(it);
      } else {
        ++it;
      }
    }
    cycle.pause_us = elapsed_us(pause_t0);
  }
  for (const ManifestEntry& entry : dead_manifests) {
    release_manifest_refs(entry);
  }
  cycle.reclaimed_manifests = dead_manifests.size();

  // Blob-record sweep: forget chunked-blob indexes nothing references. The
  // registry's chunked record is dropped under the same blobs_mu_ hold, so a
  // put_manifest that finds no service record also finds no registry blob
  // and reports the layer missing. The chunk data itself falls to the chunk
  // sweep below; a re-push of the same content rebuilds the record
  // bit-for-bit.
  {
    std::lock_guard lock(blobs_mu_);
    for (auto it = blobs_.begin(); it != blobs_.end();) {
      if (it->second.refs == 0 && it->second.epoch < cutoff) {
        reg_.drop_chunked(it->first);
        ++cycle.reclaimed_blobs;
        it = blobs_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Chunk sweep: unreferenced, out of grace, and not marked by any
  // registry-level tag. The store removal happens under the service shard
  // lock — the same lock put_manifest takes refs under — so a concurrent
  // ref-take and this reclaim are linearized.
  for (ChunkShard& shard : chunk_shards_) {
    std::lock_guard lock(shard.mu);
    for (auto it = shard.chunks.begin(); it != shard.chunks.end();) {
      ChunkEntry& e = it->second;
      if (e.refs == 0 && e.epoch < cutoff && marked.count(it->first) == 0) {
        cycle.reclaimed_bytes += reg_.chunk_store().remove_chunk(it->first);
        ++cycle.reclaimed_chunks;
        it = shard.chunks.erase(it);
      } else {
        ++it;
      }
    }
  }

  cycle.cycle_us = elapsed_us(cycle_t0);
  cycle.cycles = 1;

  gc_cycles_m_->add();
  gc_reclaimed_bytes_m_->add(cycle.reclaimed_bytes);
  gc_reclaimed_chunks_m_->add(cycle.reclaimed_chunks);
  gc_reclaimed_manifests_m_->add(cycle.reclaimed_manifests);
  gc_pause_us_m_->observe(cycle.pause_us);
  // "Did a GC cycle land between the push and the failed pull" is exactly
  // the question a post-mortem answers: leave the cycle mark in the ring.
  if (obs::FlightRecorder& rec = obs::global_flight_recorder();
      rec.enabled()) {
    rec.record(obs::FlightKind::kGcCycle, "gc cycle",
               static_cast<std::int32_t>(cycle.reclaimed_chunks),
               cycle.reclaimed_bytes);
  }

  {
    std::lock_guard lock(gc_stats_mu_);
    ++gc_totals_.cycles;
    gc_totals_.reclaimed_chunks += cycle.reclaimed_chunks;
    gc_totals_.reclaimed_bytes += cycle.reclaimed_bytes;
    gc_totals_.reclaimed_manifests += cycle.reclaimed_manifests;
    gc_totals_.reclaimed_blobs += cycle.reclaimed_blobs;
    gc_totals_.marked_chunks = cycle.marked_chunks;
    gc_totals_.pause_us = cycle.pause_us;
    gc_totals_.cycle_us = cycle.cycle_us;
  }
  return cycle;
}

GcStats RegistryService::gc_stats() const {
  std::lock_guard lock(gc_stats_mu_);
  return gc_totals_;
}

}  // namespace minicon::service
