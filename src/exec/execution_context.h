#ifndef LDPMDA_EXEC_EXECUTION_CONTEXT_H_
#define LDPMDA_EXEC_EXECUTION_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "exec/thread_pool.h"
#include "obs/metrics.h"

namespace ldp {

/// Number of rows per encode/ingest chunk, and reports per chunk of SC's
/// estimation passes. Fixed — NOT derived from the thread count — so the
/// per-chunk RNG substreams (Rng::Fork(chunk)) and the chunk-partial
/// floating-point sums are identical for every num_threads, which is what
/// makes estimates bit-identical across thread counts.
inline constexpr uint64_t kExecChunkRows = 16384;

/// Chunk size for deterministic parallel reductions over estimation
/// sub-query fan-outs (cells, sub-queries). Same fixed-size reasoning.
inline constexpr uint64_t kExecSumChunk = 4096;

/// A shard-parallel execution context: `num_threads` logical workers backed
/// by a persistent ThreadPool of num_threads - 1 threads (the calling thread
/// is the remaining worker). num_threads == 1 degenerates to plain serial
/// loops with no pool, no locks, and no thread spawns.
///
/// All entry points are deterministic-by-construction: work is split into
/// chunks whose boundaries depend only on the input size (never the thread
/// count), each chunk writes to its own slot, and reductions combine slots
/// in chunk order. Given the same inputs, every num_threads yields
/// bit-identical results.
///
/// Entry points may be called concurrently from several threads; each call
/// carries its own scheduling state. Worker functions must not throw.
class ExecutionContext {
 public:
  /// `num_threads` <= 0 means "one worker per hardware thread".
  explicit ExecutionContext(int num_threads = 1);
  ~ExecutionContext();

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  int num_threads() const { return num_threads_; }

  /// Invokes fn(i) for every i in [0, n), distributing indices dynamically
  /// over the workers. Returns after every invocation has completed. Safe
  /// for fn to write to per-index slots of a caller-owned vector.
  void ParallelFor(uint64_t n, const std::function<void(uint64_t)>& fn) const;

  /// Splits [0, n) into fixed-size chunks ([c*chunk_size, ...)) and invokes
  /// fn(chunk_index, begin, end) once per chunk, dynamically scheduled.
  /// Chunk boundaries depend only on (n, chunk_size).
  void ParallelChunks(
      uint64_t n, uint64_t chunk_size,
      const std::function<void(uint64_t chunk, uint64_t begin, uint64_t end)>&
          fn) const;

  /// Deterministic parallel reduction: computes fn(begin, end) per fixed
  /// chunk and sums the partials in chunk order, so the floating-point
  /// grouping — hence the result, bit for bit — is the same for every
  /// thread count.
  double ParallelSumChunks(
      uint64_t n, uint64_t chunk_size,
      const std::function<double(uint64_t begin, uint64_t end)>& fn) const;

  /// Total work chunks dispatched through this context (every ParallelFor
  /// index and ParallelChunks/ParallelSumChunks chunk, serial or pooled).
  /// Monotone; QueryProfile attributes per-query fan-out by differencing it
  /// around a query. Also mirrored into the global `exec.chunks` counter.
  uint64_t chunks_dispatched() const {
    return chunks_dispatched_.load(std::memory_order_relaxed);
  }
  /// Number of Parallel* entry calls (mirrored as `exec.parallel_calls`).
  uint64_t parallel_calls() const {
    return parallel_calls_.load(std::memory_order_relaxed);
  }

 private:
  int num_threads_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads_ == 1
  /// Bumped once per Parallel* call (not per chunk), so instrumentation
  /// never touches the chunk hot loop.
  mutable std::atomic<uint64_t> chunks_dispatched_{0};
  mutable std::atomic<uint64_t> parallel_calls_{0};
};

/// Process-wide single-threaded context, used by components that were not
/// handed an explicit context. Runs everything inline on the calling thread.
const ExecutionContext& SerialExecutionContext();

}  // namespace ldp

#endif  // LDPMDA_EXEC_EXECUTION_CONTEXT_H_
