#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/check.h"
#include "graph/graph.h"

namespace smallworld {

/// Flat open-addressing map Vertex -> T for per-route walk state: one slot
/// array, Fibonacci hashing, linear probing, load factor at most 1/2. It has
/// no iteration API, so hash order can never reach a routing decision or a
/// reported statistic.
///
/// Reference stability: the table grows only when a *new* key is inserted.
/// A lookup of a key that is already present — find(), or operator[] /
/// try_emplace() on an existing key — never moves a slot, so a reference to
/// one vertex's value survives any number of lookups of existing keys.
/// Inserting a new key may invalidate every outstanding reference.
template <typename T>
class VertexTable {
public:
    /// Sized so that `expected_keys` insertions never grow the table.
    explicit VertexTable(std::size_t expected_keys = 0) {
        reset(std::max(kMinCapacity, std::bit_ceil(2 * expected_keys)));
    }

    /// The value of v, default-constructed first when v is new; the bool is
    /// true exactly when v was inserted by this call.
    std::pair<T*, bool> try_emplace(Vertex v) {
        GIRG_DCHECK(v != kNoVertex, "VertexTable key kNoVertex is reserved");
        std::size_t i = slot_of(v);
        if (slots_[i].key == v) return {&slots_[i].value, false};
        // v is absent: only now may the table grow (and then re-probe).
        if (2 * (size_ + 1) > slots_.size()) {
            grow();
            i = slot_of(v);
        }
        slots_[i].key = v;
        ++size_;
        return {&slots_[i].value, true};
    }

    T& operator[](Vertex v) { return *try_emplace(v).first; }

    /// The value of v, or null when v is absent. Never inserts.
    [[nodiscard]] T* find(Vertex v) noexcept {
        const std::size_t i = slot_of(v);
        return slots_[i].key == v ? &slots_[i].value : nullptr;
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

private:
    static constexpr std::size_t kMinCapacity = 16;

    struct Slot {
        Vertex key = kNoVertex;
        [[no_unique_address]] T value{};
    };

    /// v's slot when present, else the empty slot that ends its probe run.
    [[nodiscard]] std::size_t slot_of(Vertex v) const noexcept {
        std::size_t i =
            static_cast<std::size_t>((std::uint64_t{v} * 0x9E3779B97F4A7C15ULL) >> shift_);
        while (slots_[i].key != v && slots_[i].key != kNoVertex) i = (i + 1) & mask_;
        return i;
    }

    void reset(std::size_t capacity) {
        slots_.assign(capacity, Slot{});
        mask_ = capacity - 1;
        shift_ = 64 - std::countr_zero(capacity);
    }

    void grow() {
        std::vector<Slot> old = std::move(slots_);
        reset(old.size() * 2);
        for (const Slot& slot : old) {
            if (slot.key != kNoVertex) slots_[slot_of(slot.key)] = slot;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    int shift_ = 64;
};

/// Presence-only payload: VertexTable<VertexSetMark> is a set of vertices
/// whose slots hold the key alone.
struct VertexSetMark {};

}  // namespace smallworld
