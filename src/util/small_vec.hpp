// SmallVec<T, N>: a contiguous, vector-like sequence with N elements of
// inline (in-object) capacity, spilling to the heap only beyond N.
//
// Motivation (DESIGN.md §10): the round hot path manipulates many tiny
// per-cell sequences — Signal's candidate list is NEPrev decoded from its
// neighbor mask, at most 4 ids on the square grid (6 on hex / 3d
// lattices), its rotation candidates at most as many, a hex or 3-D
// cell's Route neighbors at most 6. Storing those in std::vector means
// one heap allocation per sequence per round; with inline capacity they
// never touch the allocator at all, and iteration stays within the
// owning cache line(s).
//
// Scope: deliberately a subset of std::vector —
//   * contiguous storage, raw-pointer iterators (works with std::span,
//     std::sort, <algorithm>, range-for);
//   * push_back/emplace_back/pop_back/insert/erase/resize/reserve/clear
//     with std::vector growth semantics (amortized doubling once heap);
//   * copy/move/assign between SmallVecs; assign(first, last) from any
//     input range; operator= from an initializer list;
//   * shrinking (clear/resize-down/erase) never releases storage — the
//     arena discipline the round scratch buffers rely on.
// No allocator parameter, no strong exception guarantee beyond what the
// element operations give (the protocol stores trivially copyable ids
// and entities). Equivalence with a std::vector oracle over randomized
// operation sequences is pinned by tests/test_small_vec.cpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <span>
#include <utility>

#include "util/check.hpp"

namespace cellflow {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(N >= 1, "SmallVec needs at least one inline slot");

 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;

  // User-provided (not `= default`) so a `const SmallVec` — and any const
  // aggregate holding one, e.g. `const CellState st;` in tests — is
  // const-default-constructible despite the deliberately uninitialized
  // inline buffer.
  SmallVec() noexcept {}

  SmallVec(std::initializer_list<T> init) { assign(init.begin(), init.end()); }

  template <typename InputIt>
  SmallVec(InputIt first, InputIt last) {
    assign(first, last);
  }

  SmallVec(const SmallVec& other) { assign(other.begin(), other.end()); }

  SmallVec(SmallVec&& other) noexcept { steal_from(other); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this == &other) return *this;
    destroy_all();
    release_heap();
    steal_from(other);
    return *this;
  }

  SmallVec& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  ~SmallVec() {
    destroy_all();
    release_heap();
  }

  // --- capacity --------------------------------------------------------

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// True while the elements live in the in-object buffer.
  [[nodiscard]] bool is_inline() const noexcept {
    return data_ == inline_data();
  }
  [[nodiscard]] static constexpr std::size_t inline_capacity() noexcept {
    return N;
  }

  void reserve(std::size_t want) {
    if (want > capacity_) grow_to(want);
  }

  // --- element access --------------------------------------------------

  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] iterator begin() noexcept { return data_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] iterator end() noexcept { return data_ + size_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }

  [[nodiscard]] T& operator[](std::size_t k) {
    CF_EXPECTS(k < size_);
    return data_[k];
  }
  [[nodiscard]] const T& operator[](std::size_t k) const {
    CF_EXPECTS(k < size_);
    return data_[k];
  }
  [[nodiscard]] T& front() { return (*this)[0]; }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  // --- modifiers -------------------------------------------------------

  void clear() noexcept {
    destroy_all();
    size_ = 0;
  }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow_to(size_ + 1);
    T* slot = data_ + size_;
    std::construct_at(slot, std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() {
    CF_EXPECTS(size_ > 0);
    std::destroy_at(data_ + size_ - 1);
    --size_;
  }

  /// Inserts `v` before `pos`, shifting the tail right (std::vector
  /// semantics). Returns the iterator at the inserted element.
  iterator insert(const_iterator pos, const T& v) {
    const std::size_t at = index_of(pos);
    T copy(v);  // v may alias an element about to shift
    if (size_ == capacity_) grow_to(size_ + 1);
    if (at == size_) {
      std::construct_at(data_ + size_, std::move(copy));
    } else {
      std::construct_at(data_ + size_, std::move(data_[size_ - 1]));
      std::move_backward(data_ + at, data_ + size_ - 1, data_ + size_);
      data_[at] = std::move(copy);
    }
    ++size_;
    return data_ + at;
  }

  /// Erases the element at `pos`, shifting the tail left. Returns the
  /// iterator past the removed element.
  iterator erase(const_iterator pos) { return erase(pos, pos + 1); }

  /// Erases [first, last), shifting the tail left.
  iterator erase(const_iterator first, const_iterator last) {
    const std::size_t lo = index_of(first);
    const std::size_t hi = index_of(last);
    CF_EXPECTS(lo <= hi && hi <= size_);
    if (lo != hi) {
      std::move(data_ + hi, data_ + size_, data_ + lo);
      std::destroy(data_ + size_ - (hi - lo), data_ + size_);
      size_ -= hi - lo;
    }
    return data_ + lo;
  }

  void resize(std::size_t n) {
    if (n < size_) {
      std::destroy(data_ + n, data_ + size_);
    } else if (n > size_) {
      if (n > capacity_) grow_to(n);
      for (std::size_t k = size_; k < n; ++k) std::construct_at(data_ + k);
    }
    size_ = n;
  }

  template <typename InputIt>
  void assign(InputIt first, InputIt last) {
    clear();
    for (; first != last; ++first) emplace_back(*first);
  }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  [[nodiscard]] T* inline_data() noexcept {
    return std::launder(reinterpret_cast<T*>(inline_buf_));
  }
  [[nodiscard]] const T* inline_data() const noexcept {
    return std::launder(reinterpret_cast<const T*>(inline_buf_));
  }

  [[nodiscard]] std::size_t index_of(const_iterator pos) const noexcept {
    return static_cast<std::size_t>(pos - data_);
  }

  void destroy_all() noexcept { std::destroy(data_, data_ + size_); }

  void release_heap() noexcept {
    if (!is_inline())
      ::operator delete(static_cast<void*>(data_),
                        std::align_val_t{alignof(T)});
    data_ = inline_data();
    capacity_ = N;
  }

  /// Moves to a heap buffer of at least `want` slots (std::vector's
  /// amortized doubling). Never shrinks.
  void grow_to(std::size_t want) {
    const std::size_t cap = std::max(want, capacity_ * 2);
    T* fresh = static_cast<T*>(::operator new(
        cap * sizeof(T), std::align_val_t{alignof(T)}));
    std::uninitialized_move(data_, data_ + size_, fresh);
    destroy_all();
    release_heap();
    data_ = fresh;
    capacity_ = cap;
  }

  /// Move-construct from `other`, leaving it empty (and inline). Heap
  /// storage is stolen; inline elements are moved one by one.
  void steal_from(SmallVec& other) noexcept {
    if (other.is_inline()) {
      data_ = inline_data();
      capacity_ = N;
      size_ = other.size_;
      std::uninitialized_move(other.data_, other.data_ + other.size_, data_);
      other.destroy_all();
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_data();
      other.capacity_ = N;
    }
    other.size_ = 0;
  }

  alignas(T) std::byte inline_buf_[N * sizeof(T)];
  T* data_ = inline_data();
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

/// Order-agnostic equality against any sized range (primarily the
/// std::vector oracle in tests and span-typed views in callers).
template <typename T, std::size_t N, typename Range>
[[nodiscard]] bool equals_range(const SmallVec<T, N>& v, const Range& r) {
  return std::equal(v.begin(), v.end(), std::begin(r), std::end(r));
}

}  // namespace cellflow
