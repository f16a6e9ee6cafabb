// Grow-only aligned scratch allocator for kernel workspaces.
//
// The padded-input copies, GEMM tiles, backward lowering panels and
// repacked weight panels in src/nn are rebuilt on every pass but have
// stable sizes across calls, so
// heap-allocating them per forward wastes most of the kernel's memory
// bandwidth on page faults and allocator traffic. A ScratchArena keeps
// one aligned backing region alive for the lifetime of its owner (a
// layer, a benchmark fixture, ...) and hands out bump allocations from
// it:
//
//   arena.reset();                       // frame start: watermark -> 0
//   double* wp  = arena.alloc(pack_sz);  // 64-byte aligned, zero-copy
//   double* in  = arena.alloc(padded);   // valid until the next reset()
//
// Growth policy: alloc() never returns memory overlapping a live
// allocation from the current frame. When the current block is
// exhausted a new, geometrically larger block is chained on; reset()
// coalesces the chain into a single block of the total capacity, so a
// steady-state caller reaches one block and zero allocations after the
// first frame.
//
// Thread slots: pool-sharded kernels give each task a private sub-arena
// via slot(i). ensure_slots(n) must be called before the parallel
// section (it is NOT thread-safe); slot(i) afterwards is lock-free and
// the per-slot arenas are independent, so concurrent tasks never share
// a bump pointer. See docs/ARCHITECTURE.md "Kernels & memory".
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace s2a::util {

class ScratchArena {
 public:
  /// Alignment (bytes) of every pointer returned by alloc().
  static constexpr std::size_t kAlignment = 64;

  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Bump-allocates `count` doubles, 64-byte aligned, zero-initialized
  /// only by whatever the caller writes. The pointer stays valid (and
  /// never moves) until the next reset(), even if later alloc() calls
  /// grow the arena.
  double* alloc(std::size_t count);

  /// Frame boundary: releases every allocation at once (no destructors
  /// run — the arena only holds doubles) and coalesces multi-block
  /// chains so the next frame is served from a single region. Capacity
  /// is retained; reset() never shrinks.
  void reset();

  /// Doubles currently reserved across all blocks of *this* arena
  /// (slots not included).
  std::size_t capacity() const;
  /// Doubles handed out since the last reset().
  std::size_t used() const { return used_; }

  /// Number of backing-block allocations this arena has ever performed
  /// (slots not included). A steady-state training loop must stop
  /// incrementing this after its first couple of frames — the arena
  /// reuse tests pin that invariant.
  std::size_t growth_count() const { return growth_count_; }
  /// growth_count() summed over this arena and all slot sub-arenas.
  std::size_t total_growth_count() const;
  /// capacity() summed over this arena and all slot sub-arenas.
  std::size_t total_capacity() const;

  /// Grows the slot table to at least `n` per-task sub-arenas. Call
  /// before dispatching pool tasks; not thread-safe against slot().
  void ensure_slots(std::size_t n);
  /// The i-th sub-arena (i < slots()). Safe to call concurrently from
  /// pool tasks as long as each task sticks to its own slot.
  ScratchArena& slot(std::size_t i);
  std::size_t slots() const { return slots_.size(); }

 private:
  struct Block {
    Block(double* p, std::size_t n) : data(p), cap(n) {}
    struct Free {
      void operator()(double* p) const;
    };
    std::unique_ptr<double[], Free> data;
    std::size_t cap = 0;  // doubles
  };

  static Block make_block(std::size_t count);

  std::vector<Block> blocks_;
  std::size_t cur_block_ = 0;  // block serving the next alloc
  std::size_t cur_off_ = 0;    // doubles used in blocks_[cur_block_]
  std::size_t used_ = 0;       // doubles handed out this frame
  std::size_t growth_count_ = 0;  // lifetime make_block calls
  std::vector<std::unique_ptr<ScratchArena>> slots_;
};

}  // namespace s2a::util
