// Many small fixed-capacity FIFO rings in one flat allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace pcap::common {

/// `slots` FIFO rings of `depth` entries each, laid out slot-major in one
/// arena (ring s owns entries [s * depth, (s + 1) * depth)), with a head
/// and a count per slot. It never evicts: a push into a full ring throws
/// std::logic_error and leaves the ring untouched, so a caller that sized
/// `depth` as an exact bound finds out the moment the bound is wrong
/// instead of silently losing an entry. Depth 0 allocates
/// nothing; every ring then reads as empty and must not be pushed to.
///
/// Distinct slots share no state, so concurrent operations on different
/// slots need no synchronisation.
template <typename T>
class RingArena {
 public:
  RingArena() = default;
  RingArena(std::size_t slots, std::uint32_t depth)
      : store_(slots * depth), pos_(depth == 0 ? 0 : slots), depth_(depth) {}

  /// Entries the arena holds room for (slots × depth; 0 when depth is 0).
  [[nodiscard]] std::size_t capacity() const { return store_.size(); }
  /// Entries queued in `slot`'s ring.
  [[nodiscard]] std::uint32_t size(std::size_t slot) const {
    return depth_ == 0 ? 0 : pos_[slot].count;
  }
  /// Entries queued over every ring.
  [[nodiscard]] std::size_t total_size() const {
    std::size_t n = 0;
    for (const Pos& p : pos_) n += p.count;
    return n;
  }

  /// Oldest entry of `slot`'s ring (size(slot) > 0).
  [[nodiscard]] const T& front(std::size_t slot) const {
    return store_[slot * depth_ + pos_[slot].head];
  }
  void pop_front(std::size_t slot) {
    Pos& p = pos_[slot];
    if (++p.head == depth_) p.head = 0;
    --p.count;
  }
  /// Appends to `slot`'s ring; throws std::logic_error when it is full.
  void push_back(std::size_t slot, const T& value) {
    Pos& p = pos_[slot];
    if (p.count == depth_) {
      throw std::logic_error("RingArena: push into a full ring");
    }
    std::uint32_t tail = p.head + p.count;
    if (tail >= depth_) tail -= depth_;
    store_[slot * depth_ + tail] = value;
    ++p.count;
  }

  /// Copies ring `from` of `other` (same depth) into this arena's `slot`,
  /// oldest entry first — how a ring follows its owner to a new slot.
  void adopt(std::size_t slot, const RingArena& other, std::size_t from) {
    const std::uint32_t n = other.size(from);
    for (std::uint32_t k = 0; k < n; ++k) {
      std::uint32_t i = other.pos_[from].head + k;
      if (i >= depth_) i -= depth_;
      store_[slot * depth_ + k] = other.store_[from * depth_ + i];
    }
    if (depth_ != 0) pos_[slot] = Pos{0, n};
  }

  /// Empties every ring; storage is kept.
  void clear() {
    for (Pos& p : pos_) p = Pos{};
  }

 private:
  struct Pos {
    std::uint32_t head = 0;   ///< oldest entry's index within the ring
    std::uint32_t count = 0;  ///< entries queued
  };

  std::vector<T> store_;
  std::vector<Pos> pos_;
  std::uint32_t depth_ = 0;
};

}  // namespace pcap::common
