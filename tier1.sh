#!/bin/sh
# Tier-1 verification: configure (warnings as errors), build, run the test
# suite, then re-run the concurrency suites under ThreadSanitizer.
# Usage: ./tier1.sh [build-dir]
set -eu

BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . -DMINICON_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Trace-export + flight-recorder smoke: a --force --trace multi-stage build
# must produce well-formed Chrome trace JSON with build/stage/instruction/
# syscall-batch nesting, and a fault-injected build with the recorder on
# must fail leaving a well-formed, causally-ordered post-mortem dump whose
# events carry the build's trace id (trace_smoke validates both and exits
# non-zero otherwise).
"$BUILD_DIR"/examples/trace_smoke "$BUILD_DIR"/trace_smoke.json

# Zero-consistency smoke: both distro scriptlet paths (rpm chown storm +
# %post device warning, apt sandbox chowns) must build under
# --force=seccomp, and the makedev device-readback build must fail under
# seccomp with the mode hint while passing under --force=fakeroot.
"$BUILD_DIR"/examples/seccomp_smoke

# Registry-service smoke: two tenants over one cluster registry — adopt +
# tag + P2P launch through the service mirror, deterministic quota
# rejection, CAS tag move, and the GC grace-then-reclaim cycle pair.
"$BUILD_DIR"/examples/service_smoke 8

# TSAN pass: only the suites that exercise shared mutable state (the
# registry/chunk-store stress tests, the thread pool itself, the parallel
# stage scheduler / shared build cache + CoW snapshots, the metrics
# registry / tracer / flight-recorder seqlock rings, the P2P chunk swarm,
# the registry service's concurrent push/tag-move/GC protocol, the
# zero-consistency filter's shared atomic stats sink under parallel stages,
# and the interposition stack's shared hook path plus FaultInjectSyscalls'
# mutex-guarded state, which parallel stages call concurrently).
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DMINICON_TSAN=ON
cmake --build "$TSAN_DIR" -j "$(nproc)" \
  --target test_concurrency test_threadpool test_buildgraph test_vfs_cow \
  test_obs test_swarm test_service test_zeroconsistency test_interpose \
  swarm_smoke
ctest --test-dir "$TSAN_DIR" --output-on-failure \
  -R 'test_concurrency|test_threadpool|test_buildgraph|test_vfs_cow|test_obs|test_swarm|test_service|test_zeroconsistency|test_interpose'

# P2P launch smoke under TSAN: an 8-node peer-to-peer launch where every
# pool worker reads peer caches concurrently; asserts the registry served
# sublinear bytes (swarm.registry_bytes < nodes × image_bytes).
"$TSAN_DIR"/examples/swarm_smoke 8

# ASAN pass: the builders move snapshot blobs across threads; make sure no
# stage outlives what it borrows. test_support drives the SHA-256 kernels
# (SHA-NI intrinsics with unaligned loads) over every length and offset.
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -S . -DMINICON_ASAN=ON
cmake --build "$ASAN_DIR" -j "$(nproc)" \
  --target test_buildgraph test_chimage test_podman test_support
ctest --test-dir "$ASAN_DIR" --output-on-failure \
  -R 'test_buildgraph|test_chimage|test_podman|test_support'

# UBSan pass: the Merkle digest layer folds lengths and type tags into byte
# strings, the SHA-256 kernels shift and rotate words fed from unaligned
# caller buffers, and the tar layer does octal/size arithmetic — the suites
# that exercise them, plus the vfs CoW edge cases.
UBSAN_DIR="${BUILD_DIR}-ubsan"
cmake -B "$UBSAN_DIR" -S . -DMINICON_UBSAN=ON
cmake --build "$UBSAN_DIR" -j "$(nproc)" \
  --target test_vfs test_vfs_cow test_image test_buildgraph test_support
ctest --test-dir "$UBSAN_DIR" --output-on-failure \
  -R 'test_vfs|test_vfs_cow|test_image|test_buildgraph|test_support'
