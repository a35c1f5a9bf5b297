#include "storage/sort.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <type_traits>

#include "common/logging.h"
#include "obs/counters.h"
#include "obs/resource.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "storage/relation.h"

namespace ptp {
namespace {

// MSB-radix fan-out bounds. The bucket count scales with the input (targets
// ~128 rows per partition, so each partition's comparison sort runs 2-3x
// fewer comparisons than one big sort) but stays within [256, 4096] to keep
// the per-chunk histograms cache-resident. Depends only on the row count,
// so the partitioning stays a pure function of the data.
constexpr size_t kMinBuckets = 256;
constexpr size_t kMaxBuckets = 16384;

size_t BucketCountFor(size_t n) {
  size_t buckets = kMinBuckets;
  while (buckets < kMaxBuckets && n / buckets > 128) buckets <<= 1;
  return buckets;
}

// Rows per scatter chunk; chunk boundaries only affect which thread copies
// which rows, never the output (each chunk writes a precomputed region in
// row order, so the scatter is a stable partition at any chunk count).
constexpr size_t kChunkRows = 8192;
constexpr size_t kMaxChunks = 256;

// Defaults: below kDefaultMinRows a single std::sort wins (the radix pass
// is two extra sweeps over the data); the parallel passes need enough rows
// to amortize the fork-join barrier.
constexpr RadixSortTuning kDefaultTuning{4096, 1 << 15};
RadixSortTuning g_tuning = kDefaultTuning;

// Sorts rows of a statically known width by viewing the flat buffer as an
// array of std::array rows — keeps std::sort's swap cheap for the common
// binary/ternary relations.
template <size_t kArity>
void SortFixedRange(Value* base, size_t num_rows) {
  using Row = std::array<Value, kArity>;
  static_assert(sizeof(Row) == kArity * sizeof(Value));
  Row* begin = reinterpret_cast<Row*>(base);
  std::sort(begin, begin + num_rows);
}

void SortGenericRange(Value* base, size_t num_rows, size_t arity) {
  std::vector<uint32_t> index(num_rows);
  std::iota(index.begin(), index.end(), 0);
  std::sort(index.begin(), index.end(), [base, arity](uint32_t a, uint32_t b) {
    return CompareRows(base + a * arity, base + b * arity, arity) < 0;
  });
  std::vector<Value> out(num_rows * arity);
  Value* dst = out.data();
  for (uint32_t row : index) {
    std::memcpy(dst, base + static_cast<size_t>(row) * arity,
                arity * sizeof(Value));
    dst += arity;
  }
  std::memcpy(base, out.data(), out.size() * sizeof(Value));
}

// Comparison-sorts `num_rows` rows starting at `base` in place.
void SortRange(Value* base, size_t num_rows, size_t arity) {
  if (num_rows <= 1) return;
  switch (arity) {
    case 1:
      std::sort(base, base + num_rows);
      return;
    case 2:
      SortFixedRange<2>(base, num_rows);
      return;
    case 3:
      SortFixedRange<3>(base, num_rows);
      return;
    case 4:
      SortFixedRange<4>(base, num_rows);
      return;
    default:
      SortGenericRange(base, num_rows, arity);
  }
}

void PublishRadixStats(size_t partitions) {
  if (CounterRegistry* reg = ActiveCounterRegistry()) {
    reg->Add("sort.radix_sorts", 1);
    reg->Add("sort.radix_partitions", partitions);
  }
}

// MSB-radix partition on the leading bits of column 0, then an independent
// comparison sort per partition, concatenated in bucket order. Equal rows
// are bitwise identical (the comparison covers all columns), so the result
// matches a direct std::sort exactly, and — chunk regions being precomputed
// — it is bit-identical at every thread/chunk count.
void RadixSortRows(std::vector<Value>* data, size_t arity, bool parallel) {
  const size_t n = data->size() / arity;
  const size_t num_buckets = BucketCountFor(n);
  const Value* base = data->data();

  Value minv = base[0];
  Value maxv = base[0];
  for (size_t row = 1; row < n; ++row) {
    const Value v = base[row * arity];
    minv = std::min(minv, v);
    maxv = std::max(maxv, v);
  }
  if (minv == maxv) {
    // Degenerate leading column: one partition, plain comparison sort.
    SortRange(data->data(), n, arity);
    PublishRadixStats(1);
    return;
  }
  // Normalized shift so bucket(v) = (v - min) >> shift lands in
  // [0, num_buckets):
  // spreads over the *occupied* value range, so small dictionary-encoded id
  // spaces still fan out (a fixed top-byte radix would see one bucket).
  const uint64_t range =
      static_cast<uint64_t>(maxv) - static_cast<uint64_t>(minv);
  int shift = 0;
  while ((range >> shift) >= num_buckets) ++shift;
  const uint64_t bias = static_cast<uint64_t>(minv);
  auto bucket_of = [bias, shift](Value v) {
    return static_cast<size_t>((static_cast<uint64_t>(v) - bias) >> shift);
  };

  const size_t num_chunks =
      parallel ? std::min(kMaxChunks, (n + kChunkRows - 1) / kChunkRows) : 1;
  const size_t rows_per_chunk = (n + num_chunks - 1) / num_chunks;
  auto chunk_range = [n, rows_per_chunk](size_t c) {
    const size_t lo = c * rows_per_chunk;
    return std::pair<size_t, size_t>(lo, std::min(lo + rows_per_chunk, n));
  };

  // Pass 1: per-chunk histograms.
  std::vector<size_t> counts(num_chunks * num_buckets, 0);
  auto count_chunk = [&](size_t c) {
    size_t* my = counts.data() + c * num_buckets;
    const auto [lo, hi] = chunk_range(c);
    for (size_t row = lo; row < hi; ++row) ++my[bucket_of(base[row * arity])];
  };
  if (num_chunks == 1) {
    count_chunk(0);
  } else {
    Status status =
        runtime::ParallelFor(static_cast<int>(num_chunks), [&](int c) {
          count_chunk(static_cast<size_t>(c));
          return Status::OK();
        });
    PTP_CHECK(status.ok()) << status.ToString();
  }

  // Exclusive prefix offsets in (bucket, chunk) order: chunk c's slice of
  // bucket b starts right after chunk c-1's, which makes the scatter a
  // stable partition regardless of how many chunks (threads) ran it.
  std::vector<size_t> bucket_start(num_buckets + 1);
  std::vector<size_t> offsets(num_chunks * num_buckets);
  size_t running = 0;
  size_t partitions = 0;
  for (size_t b = 0; b < num_buckets; ++b) {
    bucket_start[b] = running;
    for (size_t c = 0; c < num_chunks; ++c) {
      offsets[c * num_buckets + b] = running;
      running += counts[c * num_buckets + b];
    }
    if (running > bucket_start[b]) ++partitions;
  }
  bucket_start[num_buckets] = running;
  PTP_DCHECK(running == n);

  // Pass 2: scatter rows into their partitions. The row copy is dispatched
  // on arity once per chunk, not per row: a compile-time-width copy beats a
  // runtime-size memcpy call in the per-row loop.
  // Charged from the calling thread (the pool threads below lack a worker
  // scope); the size depends only on the input, never the chunk count.
  std::vector<Value> scratch(data->size());
  ScopedMemCharge scratch_mem(MemCategory::kSortScratch,
                              scratch.size() * sizeof(Value));
  auto scatter_rows = [&](size_t lo, size_t hi, size_t* my, auto width) {
    constexpr size_t kArity = decltype(width)::value;
    for (size_t row = lo; row < hi; ++row) {
      const Value* src = base + row * kArity;
      Value* dst = scratch.data() + my[bucket_of(src[0])]++ * kArity;
      for (size_t k = 0; k < kArity; ++k) dst[k] = src[k];
    }
  };
  auto scatter_chunk = [&](size_t c) {
    size_t* my = offsets.data() + c * num_buckets;
    const auto [lo, hi] = chunk_range(c);
    switch (arity) {
      case 1:
        scatter_rows(lo, hi, my, std::integral_constant<size_t, 1>{});
        break;
      case 2:
        scatter_rows(lo, hi, my, std::integral_constant<size_t, 2>{});
        break;
      case 3:
        scatter_rows(lo, hi, my, std::integral_constant<size_t, 3>{});
        break;
      case 4:
        scatter_rows(lo, hi, my, std::integral_constant<size_t, 4>{});
        break;
      default:
        for (size_t row = lo; row < hi; ++row) {
          const Value* src = base + row * arity;
          const size_t pos = my[bucket_of(src[0])]++;
          std::memcpy(scratch.data() + pos * arity, src,
                      arity * sizeof(Value));
        }
    }
  };
  if (num_chunks == 1) {
    scatter_chunk(0);
  } else {
    Status status =
        runtime::ParallelFor(static_cast<int>(num_chunks), [&](int c) {
          scatter_chunk(static_cast<size_t>(c));
          return Status::OK();
        });
    PTP_CHECK(status.ok()) << status.ToString();
  }

  // Pass 3: sort each partition independently (pool threads claim buckets
  // dynamically, so skewed partitions balance).
  auto sort_bucket = [&](size_t b) {
    const size_t rows = bucket_start[b + 1] - bucket_start[b];
    if (rows > 1) {
      SortRange(scratch.data() + bucket_start[b] * arity, rows, arity);
    }
  };
  if (!parallel) {
    for (size_t b = 0; b < num_buckets; ++b) sort_bucket(b);
  } else {
    Status status =
        runtime::ParallelFor(static_cast<int>(num_buckets), [&](int b) {
          sort_bucket(static_cast<size_t>(b));
          return Status::OK();
        });
    PTP_CHECK(status.ok()) << status.ToString();
  }

  *data = std::move(scratch);
  PublishRadixStats(partitions);
}

}  // namespace

RadixSortTuning SetRadixSortTuningForTest(RadixSortTuning tuning) {
  RadixSortTuning previous = g_tuning;
  g_tuning = tuning.min_rows == 0 ? kDefaultTuning : tuning;
  return previous;
}

void SortRowsLex(std::vector<Value>* data, size_t arity) {
  if (arity == 0 || data->empty()) return;
  PTP_CHECK_EQ(data->size() % arity, 0u);
  const size_t n = data->size() / arity;
  if (n < g_tuning.min_rows) {
    SortRange(data->data(), n, arity);
    return;
  }
  // ParallelFor is single-level: inside a worker body (per-fragment sorts in
  // the Tributary setup) the radix path runs sequentially on this thread.
  const bool parallel = runtime::CurrentThreadIndex() < 0 &&
                        n >= g_tuning.parallel_min_rows &&
                        runtime::Threads() > 1;
  RadixSortRows(data, arity, parallel);
}

}  // namespace ptp
