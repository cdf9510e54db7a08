// Micro-benchmarks of the simulator substrate (google-benchmark).
//
// These do not reproduce paper results; they bound the cost of the
// simulation machinery itself (events, RNG, TCP, the branching store, image
// checksums, repository group commit, and a full local checkpoint cycle) so
// regressions in the substrate are visible.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <new>
#include <vector>

#include "src/checkpoint/local_checkpoint.h"
#include "src/guest/node.h"
#include "src/net/stack.h"
#include "src/net/tcp.h"
#include "src/net/timer_host.h"
#include "src/net/wire.h"
#include "src/obs/trace_session.h"
#include "src/repo/checkpoint_repo.h"
#include "src/repo/segment_file.h"
#include "src/sim/image.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/storage/branch_store.h"
#include "src/storage/disk.h"

namespace tcsim {

// Global allocation counter, fed by replacement operator new/delete below.
// The steady-state dispatch benchmark uses it to assert the event kernel's
// zero-per-event-heap-allocation property as a measured counter rather than
// a claim.
std::atomic<uint64_t> g_allocations{0};

}  // namespace tcsim

void* operator new(std::size_t size) {
  tcsim::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tcsim {
namespace {

void BM_EventScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(i, [] {});
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventScheduleAndRun);

// Steady-state dispatch: a self-rescheduling timer wheel exercised after the
// slab has warmed up. Counts heap allocations per dispatched event — the
// slab/free-list event kernel plus inline EventFn storage makes this 0.
void BM_EventSteadyStateDispatch(benchmark::State& state) {
  Simulator sim;
  constexpr int kTimers = 64;
  uint64_t fired = 0;
  std::function<void(int)> arm = [&](int i) {
    sim.Schedule(1 + (i % 7), [&arm, &fired, i] {
      ++fired;
      arm(i);
    });
  };
  for (int i = 0; i < kTimers; ++i) {
    arm(i);
  }
  sim.RunUntil(sim.Now() + 1000);  // warm up the slab and the heap vector
  const uint64_t fired_before = fired;
  const uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    sim.RunUntil(sim.Now() + 100);
  }
  const uint64_t events = fired - fired_before;
  const uint64_t allocs = g_allocations.load(std::memory_order_relaxed) - allocs_before;
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["allocs_per_event"] = benchmark::Counter(
      events > 0 ? static_cast<double>(allocs) / static_cast<double>(events) : 0);
}
BENCHMARK(BM_EventSteadyStateDispatch);

void BM_RngNormal(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Normal(0.0, 1.0));
  }
}
BENCHMARK(BM_RngNormal);

void BM_TcpBulkTransfer(benchmark::State& state) {
  const uint64_t bytes = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    PhysicalTimerHost timers(&sim);
    NetworkStack a(&sim, &timers, 1);
    NetworkStack b(&sim, &timers, 2);
    Nic* nic_a = a.AddNic();
    Nic* nic_b = b.AddNic();
    Rng rng(7);
    Wire ab(&sim, rng.Fork(), 1'000'000'000, 100 * kMicrosecond, 0.0, nic_b);
    Wire ba(&sim, rng.Fork(), 1'000'000'000, 100 * kMicrosecond, 0.0, nic_a);
    nic_a->ConnectTx(&ab);
    nic_b->ConnectTx(&ba);
    uint64_t delivered = 0;
    b.ListenTcp(80, [&](TcpConnection* conn) {
      conn->SetDeliveryCallback([&](uint64_t n) { delivered += n; });
    });
    TcpConnection* conn = a.ConnectTcp(2, 80, {}, nullptr);
    conn->Send(bytes);
    sim.Run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_TcpBulkTransfer)->Arg(1 << 20)->Arg(8 << 20);

// Cumulative-ACK retirement on a fat pipe: 1 Gbps at 20 ms one way keeps
// thousands of segments in flight, so each ACK retires a batch from the front
// of the sender's in-flight queue. With the old std::vector front-erase this
// was O(window) of memmove per retired segment and the whole transfer went
// quadratic in the window; the deque keeps it O(1). The tripwire asserts the
// amortized host cost per retired segment stays far below the vector
// regime (which measured in the tens of microseconds per segment here).
void BM_TcpCumulativeAckLargeWindow(benchmark::State& state) {
  const uint64_t bytes = static_cast<uint64_t>(state.range(0));
  double worst_per_segment_us = 0;
  for (auto _ : state) {
    Simulator sim;
    PhysicalTimerHost timers(&sim);
    NetworkStack a(&sim, &timers, 1);
    NetworkStack b(&sim, &timers, 2);
    Nic* nic_a = a.AddNic();
    Nic* nic_b = b.AddNic();
    Rng rng(7);
    Wire ab(&sim, rng.Fork(), 1'000'000'000, 20 * kMillisecond, 0.0, nic_b);
    Wire ba(&sim, rng.Fork(), 1'000'000'000, 20 * kMillisecond, 0.0, nic_a);
    nic_a->ConnectTx(&ab);
    nic_b->ConnectTx(&ba);
    TcpConnection::Params params;
    params.recv_buffer_bytes = 16 * 1024 * 1024;  // window >> BDP
    uint64_t delivered = 0;
    b.ListenTcp(80, [&](TcpConnection* conn) {
      conn->SetDeliveryCallback([&](uint64_t n) { delivered += n; });
    }, params);
    TcpConnection* conn = a.ConnectTcp(2, 80, params, nullptr);
    conn->Send(bytes);
    const auto start = std::chrono::steady_clock::now();
    sim.Run();
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(delivered);
    const double segments =
        static_cast<double>(conn->stats().bytes_acked) / kTcpMss;
    const double us_per_segment =
        std::chrono::duration<double, std::micro>(stop - start).count() /
        (segments > 0 ? segments : 1);
    worst_per_segment_us = std::max(worst_per_segment_us, us_per_segment);
    if (delivered != bytes) {
      state.SkipWithError("transfer did not complete");
      return;
    }
  }
  state.counters["us_per_acked_segment"] = worst_per_segment_us;
  // Regression tripwire, generous enough for slow CI hosts: the deque path
  // measures well under 1 us/segment; the quadratic vector path blows past
  // this by an order of magnitude.
  if (worst_per_segment_us > 5.0) {
    state.SkipWithError("cumulative-ACK retirement cost regressed");
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_TcpCumulativeAckLargeWindow)->Arg(32 << 20)->Unit(benchmark::kMillisecond);

void BM_BranchStoreWrite(benchmark::State& state) {
  Simulator sim;
  Disk disk(&sim, DiskParams{});
  BranchStore store(&disk, 1 << 22);
  uint64_t block = 0;
  for (auto _ : state) {
    store.Write(block, {block}, nullptr);
    block = (block + 1) % (1 << 22);
    if (block % 1024 == 0) {
      sim.Run();  // drain the disk queue
    }
  }
  sim.Run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchStoreWrite);

// Checksum throughput over one buffer of state.range(0) bytes: the CRC-32
// every image chunk, segment record and journal record carries, and the
// repository's content key (FNV-1a plus the same CRC) that dedups payloads.
std::vector<uint8_t> ChecksumInput(int64_t bytes) {
  Rng rng(42);
  std::vector<uint8_t> data(static_cast<size_t>(bytes));
  for (uint8_t& b : data) {
    b = static_cast<uint8_t>(rng.NextUint64());
  }
  return data;
}

void BM_Crc32(benchmark::State& state) {
  const std::vector<uint8_t> data = ChecksumInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(1 << 20);

void BM_ContentKeyOf(benchmark::State& state) {
  const std::vector<uint8_t> data = ChecksumInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ContentKeyOf(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ContentKeyOf)->Arg(4 << 10)->Arg(1 << 20);

// Repository append: one group commit of a 4-image batch of fresh payloads
// into a repository holding state.range(0) live full images (64 x 4 KiB
// chunks each; fsync off, inline hashing). Only CommitBatch is timed:
// building and staging (which hashes inline) are not, and neither is the
// upkeep that keeps the live count at N — retiring the batch just committed
// and a GC every 16 commits to bound the segment. The prefill's payloads
// come from a 128-entry alphabet, so N scales the record count, not the disk.
constexpr size_t kRepoChunks = 64;
constexpr size_t kRepoChunkBytes = 4 << 10;

std::vector<uint8_t> RepoImage(uint64_t id, uint64_t first_seed,
                               uint64_t seed_modulus) {
  CheckpointImageBuilder builder;
  builder.SetImageId(id);
  std::vector<uint8_t> payload(kRepoChunkBytes);
  for (size_t c = 0; c < kRepoChunks; ++c) {
    uint64_t x = ((first_seed + c) % seed_modulus) * 0x9E3779B97F4A7C15ull + 1;
    for (size_t i = 0; i < payload.size(); i += 8) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::memcpy(&payload[i], &x, 8);
    }
    builder.AddChunk("c" + std::to_string(c), payload);
  }
  return builder.Serialize();
}

void BM_RepoBatchCommit(benchmark::State& state) {
  namespace fs = std::filesystem;
  const uint64_t live = static_cast<uint64_t>(state.range(0));
  const fs::path dir = fs::temp_directory_path() /
                       ("tcsim_bm_repo_batch_commit_" + std::to_string(live));
  fs::remove_all(dir);
  RepoOptions options;
  options.hash_threads = 0;
  std::string error;
  std::unique_ptr<CheckpointRepo> repo =
      CheckpointRepo::Open(dir.string(), options, &error);
  if (repo == nullptr) {
    state.SkipWithError(error.c_str());
    return;
  }
  constexpr uint64_t kAlphabet = 128;
  uint64_t next_id = 1;
  for (uint64_t i = 0; i < live; i += 16) {
    auto batch = repo->BeginBatch();
    for (uint64_t j = i; j < std::min(live, i + 16); ++j) {
      batch->Stage(RepoImage(next_id++, j, kAlphabet));
    }
    if (!repo->CommitBatch(std::move(batch)).ok) {
      state.SkipWithError(repo->error().c_str());
      return;
    }
  }
  uint64_t fresh_seed = kAlphabet;
  uint64_t commits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto batch = repo->BeginBatch();
    for (int i = 0; i < 4; ++i) {
      batch->Stage(RepoImage(next_id++, fresh_seed, ~uint64_t{0}));
      fresh_seed += kRepoChunks;
    }
    state.ResumeTiming();
    CheckpointRepo::BatchCommitResult result =
        repo->CommitBatch(std::move(batch));
    benchmark::DoNotOptimize(result);
    state.PauseTiming();
    if (!result.ok) {
      state.SkipWithError(result.error.c_str());
      break;
    }
    for (const uint64_t handle : result.handles) {
      repo->RetireImage(handle);
    }
    if (++commits % 16 == 0 && !repo->CollectGarbage().ok) {
      state.SkipWithError(repo->error().c_str());
      break;
    }
    state.ResumeTiming();
  }
  repo.reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_RepoBatchCommit)
    ->Arg(16)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_LocalCheckpointCycle(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    NodeConfig cfg;
    cfg.name = "pc1";
    cfg.id = 1;
    ExperimentNode node(&sim, Rng(1), cfg);
    LocalCheckpointEngine engine(&sim, &node, CheckpointPolicy{});
    node.domain().TouchMemory(64 << 20);
    bool done = false;
    sim.Schedule(kSecond, [&] {
      engine.CheckpointNow([&](const LocalCheckpointRecord&) { done = true; });
    });
    while (!done && sim.Now() < 60 * kSecond) {
      sim.RunUntil(sim.Now() + kSecond);
    }
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_LocalCheckpointCycle);

// Instrumentation overhead: one scoped span, as every epoch-pipeline phase
// records it. Off, a span is one relaxed load of the recorder's mode (no
// clock read, no allocation — allocs_per_span must read 0); in full mode it
// reads the wall clock twice and appends one record. Full mode restarts
// every 64Ki spans, untimed, so the held records stay bounded; the restart
// keeps the record vector's capacity, so steady state does not allocate.
void RunSpans(benchmark::State& state) {
  obs::TraceSession& session = obs::TraceSession::Global();
  const uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
  uint64_t spans = 0;
  for (auto _ : state) {
    obs::Span span("checkpoint", "window", "barrier");
    benchmark::ClobberMemory();  // re-read the mode every iteration
    if ((++spans & 0xFFFF) == 0 && session.enabled()) {
      state.PauseTiming();
      session.StartFull();
      state.ResumeTiming();
    }
  }
  const uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_span"] = benchmark::Counter(
      spans > 0 ? static_cast<double>(allocs) / static_cast<double>(spans) : 0);
  session.Clear();
}

void BM_SpanDisabled(benchmark::State& state) {
  obs::TraceSession::Global().Clear();
  RunSpans(state);
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::TraceSession::Global().StartFull();
  RunSpans(state);
}
BENCHMARK(BM_SpanEnabled);

}  // namespace
}  // namespace tcsim

BENCHMARK_MAIN();
