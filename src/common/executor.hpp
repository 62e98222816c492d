// One process-wide executor for intra-frame parallelism.
//
// Every intra-frame fan-out goes through parallel_for(n, fn), which runs
// fn(i) for every i in [0, n) and returns once all of them have finished.
// Its callers are the cold geometry builds, the frame diff, the five phases
// of the incremental patch, the compute engine's block ranges and, through
// parallel_for_chunks, the element-wise quantize / requantize / abs_max
// loops that build and calibrate INT tensors. Behind it
// sits one bounded pool of intra_frame_threads() - 1 persistent helper
// threads shared by the whole process, so serve workers fanning out at the
// same time share one thread budget instead of each owning threads.
//
// The calling thread claims indices of its own call alongside the helpers,
// so a call always completes even when every helper is busy. That makes
// parallel_for safe to call from several threads at once and from inside a
// task: a nested fan-out simply runs on its caller when the pool is full.
// n <= 1, or a pool of one thread, runs inline without touching the pool.
// Dispatch allocates nothing: the task is passed by reference and the
// call's bookkeeping lives on the caller's stack. The first exception a
// task throws is rethrown to the caller once every claimed index has
// finished; indices not yet claimed by then are skipped.
//
// The pool size is resolved on first use from the ESCA_COMPUTE_THREADS
// environment variable (0 or 1 = run every fan-out inline, N = N threads
// counting the caller), else the hardware concurrency clamped to [1, 8].
// Partition counts (GeometryOptions::shards, ComputeOptions::threads) are
// independent of it: they fix how the work is split, and results are
// bit-identical for every split; the pool only decides how many partitions
// run at once.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>

namespace esca {

/// Threads an intra-frame fan-out runs on, the caller included (>= 1).
/// Resolved once, on first use.
int intra_frame_threads();

/// The partition count a fan-out with `requested` partitions uses: an
/// explicit request (> 0) is honoured, capped at 64; 0 means one partition
/// per executor thread (intra_frame_threads()).
int resolve_partitions(int requested);

namespace detail {
using TaskFn = void (*)(void* ctx, int index);
void parallel_for(int n, TaskFn fn, void* ctx);
}  // namespace detail

/// Run fn(i) for every i in [0, n) on the shared executor; see above.
template <typename F>
void parallel_for(int n, F&& fn) {
  using Fn = std::remove_reference_t<F>;
  detail::parallel_for(
      n, [](void* ctx, int i) { (*static_cast<Fn*>(ctx))(i); },
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
}

/// Number of chunks parallel_for_chunks(n, chunk, ...) runs (chunk > 0).
inline std::size_t chunk_count(std::size_t n, std::size_t chunk) {
  return (n + chunk - 1) / chunk;
}

/// Run fn(begin, end) over [0, n) cut into consecutive ranges of `chunk`
/// elements (the last one may be shorter), one parallel_for index per
/// range. Range c starts at c * chunk. The cut depends only on n and chunk,
/// never on the pool size, so element-wise loops and per-range reductions
/// give the same result at any thread count.
template <typename F>
void parallel_for_chunks(std::size_t n, std::size_t chunk, F&& fn) {
  parallel_for(static_cast<int>(chunk_count(n, chunk)), [&](int c) {
    const std::size_t begin = static_cast<std::size_t>(c) * chunk;
    fn(begin, std::min(n, begin + chunk));
  });
}

}  // namespace esca
