// Unit tests: software device runtime — buffers, streams, events, kernel
// launches, transfer accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <thread>

#include "fzmod/device/runtime.hh"

namespace fzmod::device {
namespace {

TEST(Buffer, AllocatesInRequestedSpace) {
  buffer<f32> h(16, space::host);
  buffer<f32> d(16, space::device);
  EXPECT_EQ(h.where(), space::host);
  EXPECT_EQ(d.where(), space::device);
  EXPECT_EQ(h.size(), 16u);
  EXPECT_EQ(d.bytes(), 64u);
  EXPECT_NO_THROW(h.assert_space(space::host));
  EXPECT_THROW(h.assert_space(space::device), error);
}

TEST(Buffer, DeviceAccountingTracksPeak) {
  auto& st = runtime::instance().stats();
  const u64 before = st.device_bytes_in_use.load();
  {
    buffer<u8> d(1 << 20, space::device);
    EXPECT_EQ(st.device_bytes_in_use.load(), before + (1u << 20));
    EXPECT_GE(st.device_bytes_peak.load(), before + (1u << 20));
  }
  EXPECT_EQ(st.device_bytes_in_use.load(), before);
}

TEST(Buffer, MoveTransfersOwnership) {
  buffer<i32> a(8, space::host);
  a.data()[3] = 42;
  buffer<i32> b = std::move(a);
  EXPECT_EQ(b.size(), 8u);
  EXPECT_EQ(b.data()[3], 42);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(Stream, OpsRunInFifoOrder) {
  stream s;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    s.enqueue([&order, i] { order.push_back(i); });
  }
  s.sync();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(Stream, SyncIsIdempotentAndReusable) {
  stream s;
  int x = 0;
  s.enqueue([&x] { x = 1; });
  s.sync();
  s.sync();
  s.enqueue([&x] { x = 2; });
  s.sync();
  EXPECT_EQ(x, 2);
}

TEST(Stream, ErrorPropagatesThroughSyncAndClearsQueue) {
  stream s;
  std::atomic<bool> later_ran{false};
  // Gate the first op so both later ops are enqueued before it throws —
  // otherwise "clears the queue" would race with enqueue timing.
  std::mutex gate;
  gate.lock();
  s.enqueue([&gate] { std::lock_guard lk(gate); });
  s.enqueue([] { throw error(status::internal, "kernel died"); });
  s.enqueue([&later_ran] { later_ran = true; });
  gate.unlock();
  EXPECT_THROW(s.sync(), error);
  EXPECT_FALSE(later_ran.load());
  // The stream is usable again after the error was consumed.
  int x = 0;
  s.enqueue([&x] { x = 7; });
  s.sync();
  EXPECT_EQ(x, 7);
}

TEST(Event, CrossStreamOrdering) {
  stream a, b;
  std::atomic<int> value{0};
  event ev;
  a.enqueue([&value] { value = 41; });
  ev.record(a);
  ev.stream_wait(b);
  int seen = -1;
  b.enqueue([&value, &seen] { seen = value.load(); });
  b.sync();
  EXPECT_EQ(seen, 41);
  a.sync();
}

TEST(Event, QueryAndHostWait) {
  stream s;
  event ev;
  ev.record(s);
  ev.wait();
  EXPECT_TRUE(ev.query());
}

TEST(Memcpy, MovesBytesAndCountsDirections) {
  auto& st = runtime::instance().stats();
  st.reset_transfers();
  buffer<u32> h(256, space::host);
  buffer<u32> d(256, space::device);
  std::iota(h.data(), h.data() + 256, 0u);
  stream s;
  copy_async(d, h, s);  // h2d
  buffer<u32> h2(256, space::host);
  copy_async(h2, d, s);  // d2h
  s.sync();
  for (u32 i = 0; i < 256; ++i) EXPECT_EQ(h2.data()[i], i);
  EXPECT_EQ(st.h2d_bytes.load(), 1024u);
  EXPECT_EQ(st.d2h_bytes.load(), 1024u);
}

TEST(Launch, CoversFullIndexSpace) {
  const std::size_t n = 100000;
  buffer<u32> d(n, space::device);
  stream s;
  u32* p = d.data();
  launch(s, n, [p](std::size_t i) { p[i] = static_cast<u32>(i * 2); });
  s.sync();
  for (std::size_t i = 0; i < n; i += 997) {
    EXPECT_EQ(d.data()[i], static_cast<u32>(i * 2));
  }
}

TEST(Launch, BlocksPartitionExactly) {
  const std::size_t n = 1000;
  std::atomic<std::size_t> covered{0};
  stream s;
  launch_blocks(s, n, 64,
                [&covered](std::size_t, std::size_t lo, std::size_t hi) {
                  covered += hi - lo;
                });
  s.sync();
  EXPECT_EQ(covered.load(), n);
}

TEST(Launch, KernelCounterIncrements) {
  auto& st = runtime::instance().stats();
  const u64 before = st.kernels_launched.load();
  stream s;
  launch(s, 10, [](std::size_t) {});
  launch(s, 10, [](std::size_t) {});
  s.sync();
  EXPECT_EQ(st.kernels_launched.load(), before + 2);
}

TEST(ThreadPool, ParallelForHandlesTinyAndHugeGrains) {
  auto& pool = runtime::instance().pool();
  std::atomic<u64> sum{0};
  pool.parallel_for(100, 1, [&sum](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 4950u);
  sum = 0;
  pool.parallel_for(100, 1000, [&sum](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  auto& pool = runtime::instance().pool();
  std::atomic<u64> total{0};
  pool.parallel_for(8, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.parallel_for(100, 10, [&](std::size_t l2, std::size_t h2) {
        total += h2 - l2;
      });
    }
  });
  EXPECT_EQ(total.load(), 800u);
}

TEST(ThreadPool, SubmitReturnsFutureWithExceptions) {
  auto& pool = runtime::instance().pool();
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
  auto bad = pool.submit([] { throw std::runtime_error("nope"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(Pool, BinRounding) {
  EXPECT_EQ(memory_pool::bin_bytes(1), 64u);
  EXPECT_EQ(memory_pool::bin_bytes(64), 64u);
  EXPECT_EQ(memory_pool::bin_bytes(65), 128u);
  EXPECT_EQ(memory_pool::bin_bytes(1000), 1024u);
  EXPECT_EQ(memory_pool::bin_bytes(1024), 1024u);
}

TEST(Pool, BinReuseReturnsSamePointer) {
  pool_stats st;
  memory_pool pool(st, /*enabled=*/true);
  void* p1 = pool.allocate(100);  // bin 128
  pool.deallocate(p1, 100);
  void* p2 = pool.allocate(80);  // same bin -> cached block comes back
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(st.hits.load(), 1u);
  EXPECT_EQ(st.misses.load(), 1u);
  void* p3 = pool.allocate(200);  // different bin -> fresh block
  EXPECT_NE(p3, p2);
  pool.deallocate(p2, 80);
  pool.deallocate(p3, 200);
}

TEST(Pool, AlignmentPreservedOnFreshAndReusedBlocks) {
  pool_stats st;
  memory_pool pool(st, /*enabled=*/true);
  for (const std::size_t sz : {1u, 63u, 100u, 1000u, 4097u}) {
    void* fresh = pool.allocate(sz);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(fresh) % 64, 0u) << sz;
    pool.deallocate(fresh, sz);
    void* reused = pool.allocate(sz);
    EXPECT_EQ(reused, fresh);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(reused) % 64, 0u) << sz;
    pool.deallocate(reused, sz);
  }
}

TEST(Pool, TrimReturnsCachedBytesAndZeroesCounter) {
  pool_stats st;
  memory_pool pool(st, /*enabled=*/true);
  pool.deallocate(pool.allocate(100), 100);    // caches 128
  pool.deallocate(pool.allocate(1000), 1000);  // caches 1024
  EXPECT_EQ(st.bytes_cached.load(), 128u + 1024u);
  const u64 released = pool.trim();
  EXPECT_EQ(released, 128u + 1024u);
  EXPECT_EQ(st.bytes_cached.load(), 0u);
  EXPECT_EQ(st.bytes_trimmed.load(), 128u + 1024u);
  EXPECT_GE(st.trims.load(), 1u);
  // A second trim with nothing cached releases nothing.
  EXPECT_EQ(pool.trim(), 0u);
}

TEST(Pool, ConcurrentAllocFreeIsRaceFree) {
  pool_stats st;
  memory_pool pool(st, /*enabled=*/true);
  constexpr int n_threads = 8, iters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < iters; ++i) {
        const std::size_t sz = 64u << ((i + t) % 4);  // 64..512
        void* p = pool.allocate(sz);
        *static_cast<volatile char*>(p) = static_cast<char>(i);
        pool.deallocate(p, sz);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(st.hits.load() + st.misses.load(),
            static_cast<u64>(n_threads) * iters);
  // Everything was freed, so the cache holds exactly what trim releases.
  const u64 cached = st.bytes_cached.load();
  EXPECT_EQ(pool.trim(), cached);
  EXPECT_EQ(st.bytes_cached.load(), 0u);
}

TEST(Pool, DeviceAccountingStaysExactWithPoolEnabled) {
  // The pool rounds 1000 bytes up to a 1024-byte bin internally, but the
  // runtime ledger must charge the requested size only.
  auto& st = runtime::instance().stats();
  const u64 before = st.device_bytes_in_use.load();
  {
    buffer<u8> d(1000, space::device);
    EXPECT_EQ(st.device_bytes_in_use.load(), before + 1000);
  }
  EXPECT_EQ(st.device_bytes_in_use.load(), before);
}

TEST(Pool, RuntimeReusesBufferBlocks) {
  auto& rt = runtime::instance();
  if (!rt.pool_enabled()) GTEST_SKIP() << "FZMOD_POOL=0";
  auto& ps = rt.stats().device_pool;
  void* first = nullptr;
  {
    buffer<u8> d(4096, space::device);
    first = d.data();
  }
  const u64 hits_before = ps.hits.load();
  buffer<u8> d2(4096, space::device);
  EXPECT_EQ(d2.data(), first);
  EXPECT_EQ(ps.hits.load(), hits_before + 1);
}

bool huge_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) %
             memory_pool::huge_page_bytes ==
         0;
}

/// Write a byte pattern over the whole block and read both ends back.
void expect_writable(void* p, std::size_t bytes) {
  auto* b = static_cast<unsigned char*>(p);
  std::memset(b, 0xA5, bytes);
  EXPECT_EQ(b[0], 0xA5);
  EXPECT_EQ(b[bytes / 2], 0xA5);
  EXPECT_EQ(b[bytes - 1], 0xA5);
}

TEST(Pool, LargeBlocksAreHugePageAlignedAndReused) {
  pool_stats st;
  memory_pool pool(st, /*enabled=*/true);
  // The smallest huge bin (2 MiB) and two above it (4 and 8 MiB).
  for (const std::size_t sz : {(std::size_t{1} << 20) + 1,
                               (std::size_t{3} << 20) + 7,
                               (std::size_t{5} << 20) + 123}) {
    const u64 hits = st.hits.load();
    void* p = pool.allocate(sz);
    EXPECT_TRUE(huge_aligned(p)) << sz;
    expect_writable(p, sz);
    pool.deallocate(p, sz);
    const std::size_t bin = memory_pool::bin_bytes(sz);
    void* q = pool.allocate(bin);  // same bin: a pool hit
    EXPECT_EQ(q, p) << sz;
    EXPECT_EQ(st.hits.load(), hits + 1) << sz;
    pool.deallocate(q, bin);
  }
  const u64 cached = (u64{2} << 20) + (u64{4} << 20) + (u64{8} << 20);
  EXPECT_EQ(st.bytes_cached.load(), cached);
  EXPECT_EQ(pool.trim(), cached);
  EXPECT_EQ(st.bytes_cached.load(), 0u);
}

TEST(Pool, LargeBlocksRoundTripAcrossPoolToggles) {
  pool_stats st;
  memory_pool pool(st, /*enabled=*/false);
  const std::size_t sz = std::size_t{3} << 20;  // 4 MiB bin
  // Allocated pass-through with the pool off, freed into the cache with
  // it on, reused, then released by the disabling trim.
  void* p = pool.allocate(sz);
  EXPECT_TRUE(huge_aligned(p));
  expect_writable(p, sz);
  pool.set_enabled(true);
  pool.deallocate(p, sz);
  EXPECT_EQ(st.bytes_cached.load(), u64{4} << 20);
  void* q = pool.allocate(sz);
  EXPECT_EQ(q, p);
  expect_writable(q, sz);
  pool.deallocate(q, sz);
  pool.set_enabled(false);
  EXPECT_EQ(st.bytes_cached.load(), 0u);
  EXPECT_EQ(st.bytes_trimmed.load(), u64{4} << 20);
  // Allocated with the pool on, freed pass-through with it off.
  pool.set_enabled(true);
  void* r = pool.allocate(sz);
  EXPECT_TRUE(huge_aligned(r));
  pool.set_enabled(false);
  pool.deallocate(r, sz);
  EXPECT_EQ(st.bytes_cached.load(), 0u);
}

TEST(Pool, RuntimeLargeBuffersReleaseOnTrimAndDisable) {
  auto& rt = runtime::instance();
  const bool was_on = rt.pool_enabled();
  rt.set_pool_enabled(true);
  for (const space sp : {space::host, space::device}) {
    void* first = nullptr;
    {
      buffer<u8> b(std::size_t{3} << 20, sp);
      EXPECT_TRUE(huge_aligned(b.data())) << to_string(sp);
      expect_writable(b.data(), b.bytes());
      first = b.data();
    }
    {
      buffer<u8> again(std::size_t{3} << 20, sp);
      EXPECT_EQ(again.data(), first) << to_string(sp);
    }
  }
  EXPECT_GE(rt.trim_pools(), u64{8} << 20);  // both 4 MiB blocks
  {
    buffer<u8> h(std::size_t{3} << 20, space::host);
    buffer<u8> d(std::size_t{3} << 20, space::device);
  }
  rt.set_pool_enabled(false);  // trims both pools
  const auto snap = rt.stats_snapshot();
  EXPECT_EQ(snap.host_pool.bytes_cached, 0u);
  EXPECT_EQ(snap.device_pool.bytes_cached, 0u);
  rt.set_pool_enabled(was_on);
}

TEST(RuntimeStats, ResetPeakRebasesToCurrentUse) {
  auto& st = runtime::instance().stats();
  {
    buffer<u8> big(1 << 20, space::device);
    EXPECT_GE(st.device_bytes_peak.load(), st.device_bytes_in_use.load());
  }
  // Peak still remembers the dead buffer...
  EXPECT_GE(st.device_bytes_peak.load(),
            st.device_bytes_in_use.load() + (1u << 20));
  st.reset_peak();
  // ...until rebased to what is actually live now.
  EXPECT_EQ(st.device_bytes_peak.load(), st.device_bytes_in_use.load());
  buffer<u8> d(1 << 10, space::device);
  EXPECT_GE(st.device_bytes_peak.load(), st.device_bytes_in_use.load());
}

TEST(Buffer, FillZeroAsyncZeroesDeviceDataAndCountsKernel) {
  auto& st = runtime::instance().stats();
  buffer<u32> d(100000, space::device);
  for (std::size_t i = 0; i < d.size(); ++i) d.data()[i] = 0xdeadbeefu;
  const u64 before = st.kernels_launched.load();
  stream s;
  d.fill_zero_async(s);
  s.sync();
  EXPECT_EQ(st.kernels_launched.load(), before + 1);
  for (std::size_t i = 0; i < d.size(); i += 499) {
    ASSERT_EQ(d.data()[i], 0u) << i;
  }
}

TEST(Buffer, EnsureReusesCapacityInPlace) {
  buffer<f32> b(100, space::device);
  f32* p = b.data();
  const std::size_t cap = b.capacity_bytes();
  b.ensure(50);  // shrink: same block, smaller view
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.size(), 50u);
  EXPECT_EQ(b.capacity_bytes(), cap);
  b.ensure(100);  // regrow within capacity: still the same block
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.size(), 100u);
  b.ensure(500);  // beyond capacity: reallocates
  EXPECT_EQ(b.size(), 500u);
  EXPECT_GE(b.capacity_bytes(), 500 * sizeof(f32));
  // Space change always reallocates.
  b.ensure(500, space::host);
  EXPECT_EQ(b.where(), space::host);
}

TEST(Streams, ConcurrentStreamsMakeIndependentProgress) {
  stream a, b;
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    a.enqueue([&done] { done++; });
    b.enqueue([&done] { done++; });
  }
  a.sync();
  b.sync();
  EXPECT_EQ(done.load(), 40);
}

}  // namespace
}  // namespace fzmod::device
