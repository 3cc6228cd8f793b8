#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace fluxfp::numeric {

/// Epoch-scoped bump allocator for per-step scratch buffers (Gram
/// matrices, residual vectors, IRLS weights, candidate orderings).
///
/// Lifetime rules (DESIGN.md section 14):
///  * alloc() returns storage valid until the next reset() — never hold a
///    span across an epoch boundary.
///  * reset() is O(1) when the high-water mark fits in the head block;
///    otherwise the next alloc() grows a new head block so steady-state
///    epochs allocate nothing.
///  * The arena is NOT thread-safe; each worker uses its own (the
///    localizers keep one per restart thread via thread_local).
///
/// All returns are 64-byte aligned so SIMD kernels can assume cache-line
/// alignment, and value-initialized variants exist for buffers whose
/// legacy equivalent was a zero-filled std::vector.
class Arena {
 public:
  explicit Arena(std::size_t initial_bytes = 1 << 16);
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  // Movable; moved-from arenas are only good for destruction. Outstanding
  // spans stay valid — the blocks travel with the arena.
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  /// Uninitialized storage for `count` trivially-destructible T.
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T> &&
                      std::is_trivially_copyable_v<T>,
                  "Arena only holds trivial scratch types");
    void* p = allocate_bytes(count * sizeof(T), alignof(T));
    return {static_cast<T*>(p), count};
  }

  /// Zero-initialized storage (replaces `std::vector<T> v(count)` scratch).
  template <typename T>
  std::span<T> alloc_zeroed(std::size_t count) {
    std::span<T> s = alloc<T>(count);
    for (T& v : s) {
      v = T{};
    }
    return s;
  }

  /// Invalidates every span handed out since the previous reset. Keeps
  /// the head block; coalesces overflow blocks into a bigger head on the
  /// next allocation.
  void reset();

  struct Stats {
    std::size_t block_bytes = 0;      ///< capacity of the head block
    std::size_t used_bytes = 0;       ///< bytes handed out since reset()
    std::size_t high_water_bytes = 0; ///< max used_bytes over all epochs
    std::size_t overflow_blocks = 0;  ///< extra blocks live right now
  };
  Stats stats() const;

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* allocate_bytes(std::size_t bytes, std::size_t align);
  void grow(std::size_t min_bytes);

  Block head_;
  std::vector<Block> overflow_;
  std::size_t offset_ = 0;           // bump pointer within head_
  std::size_t epoch_used_ = 0;       // total bytes since reset()
  std::size_t high_water_ = 0;
};

}  // namespace fluxfp::numeric
