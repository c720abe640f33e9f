// Arena storage for octree nodes: packed 8-byte nodes in a 64-byte-aligned
// pool, allocated and freed as blocks of 8.
//
// The legacy node was 12 bytes ({float value; int32 children; uint8
// state}) in an unaligned std::vector, so one 8-child block spanned 96
// bytes across two or three cache lines. OctreeNode folds the lifecycle
// state into the children field (sentinels below), shrinking a node to
// exactly 8 bytes; with the pool 64-byte aligned and every block base a
// multiple of 8 slots, a full child block is one aligned cache line — the
// bottom-up parent update touches 16 of them per voxel update, so this is
// the single most update-rate-critical layout decision in the tree. The
// vector parent update reads the block as four aligned 16-byte loads
// (occupancy_octree.cpp).
//
// Index 0 is the root; slots 1..7 pad the first line so block bases stay
// 8-aligned. Block indices are plain int32 arena offsets — relocatable,
// half the size of pointers, and stable across pool growth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace omu::map {

/// Lifecycle state of a pool node.
enum class NodeState : uint8_t {
  kUnknown,  ///< slot exists in a block but this octant was never observed
  kLeaf,     ///< carries a log-odds value; no children (may be a pruned subtree)
  kInner,    ///< has a child block; value is max over known children
};

/// Minimal aligned allocator so the arena vector's data() honours
/// `Alignment` (std::vector's default allocator only guarantees
/// alignof(T)).
template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Alignment});
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };
  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const {
    return true;
  }
};

/// One octree node, packed to 8 bytes. The children field triples as the
/// state tag: >= 0 is an inner node's child-block base, and the two
/// negative sentinels mark leaf / unknown.
struct OctreeNode {
  static constexpr int32_t kUnknownChild = -1;
  static constexpr int32_t kLeafChild = -2;

  float value = 0.0f;                  ///< log-odds; valid when not unknown
  int32_t children = kUnknownChild;    ///< block base, or a state sentinel

  constexpr bool is_unknown() const { return children == kUnknownChild; }
  constexpr bool is_leaf() const { return children == kLeafChild; }
  constexpr bool is_inner() const { return children >= 0; }

  constexpr NodeState state() const {
    return is_inner() ? NodeState::kInner
                      : (is_unknown() ? NodeState::kUnknown : NodeState::kLeaf);
  }

  constexpr void make_unknown() {
    value = 0.0f;
    children = kUnknownChild;
  }
  constexpr void make_leaf(float v) {
    value = v;
    children = kLeafChild;
  }
};

static_assert(sizeof(OctreeNode) == 8, "node must pack to 8 bytes");

/// Pool of OctreeNodes with block-of-8 alloc/free and a free list.
class NodeArena {
 public:
  static constexpr std::size_t kBlockSlots = 8;
  static constexpr std::size_t kAlignment = 64;

  NodeArena() { clear(); }

  /// Resets to a single unknown root (plus the 7 pad slots of line 0).
  void clear() {
    pool_.clear();
    pool_.resize(kBlockSlots);
    free_blocks_.clear();
  }

  OctreeNode& operator[](std::size_t i) { return pool_[i]; }
  const OctreeNode& operator[](std::size_t i) const { return pool_[i]; }

  /// Pointer to the 8 contiguous (64-byte-aligned) nodes of a block.
  const OctreeNode* block(int32_t base) const { return pool_.data() + base; }

  /// Allocates a block of 8 slots. Blocks always arrive with every slot in
  /// the default (unknown) state: grown blocks are value-initialized by the
  /// resize, and recycled blocks were reset by free_block.
  int32_t alloc_block() {
    if (!free_blocks_.empty()) {
      const int32_t base = free_blocks_.back();
      free_blocks_.pop_back();
      return base;
    }
    const auto base = static_cast<int32_t>(pool_.size());
    pool_.resize(pool_.size() + kBlockSlots);
    return base;
  }

  /// Returns a block to the free list, resetting its slots to unknown.
  void free_block(int32_t base) {
    for (std::size_t i = 0; i < kBlockSlots; ++i) {
      pool_[static_cast<std::size_t>(base) + i] = OctreeNode{};
    }
    free_blocks_.push_back(base);
  }

  /// Allocated slots including the root line and free blocks (peak-memory
  /// proxy).
  std::size_t slots() const { return pool_.size(); }
  /// Currently free (reusable) blocks.
  std::size_t free_block_count() const { return free_blocks_.size(); }
  /// Blocks currently holding tree structure (allocated minus free).
  std::size_t live_blocks() const {
    return pool_.size() / kBlockSlots - 1 - free_blocks_.size();
  }
  std::size_t memory_bytes() const {
    return pool_.capacity() * sizeof(OctreeNode) + free_blocks_.capacity() * sizeof(int32_t);
  }

 private:
  std::vector<OctreeNode, AlignedAllocator<OctreeNode, kAlignment>> pool_;
  std::vector<int32_t> free_blocks_;
};

}  // namespace omu::map
