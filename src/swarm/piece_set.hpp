// Piece bitmap of a BitTorrent peer: which pieces of the content a peer
// holds. Mirrors the protocol bitfield our measurement agents record to
// distinguish seeds from leechers (Section 2.2).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace swarmavail::swarm {

/// Fixed-size piece bitmap with O(1) count queries.
///
/// Stored as packed 64-bit words so the rarest-first scans of the swarm
/// simulator can enumerate held/missing pieces a word at a time, skipping
/// fully-held words outright instead of probing every piece. Bitmaps of up
/// to 64 pieces -- the common simulator shape -- live in a single inline
/// word, so a peer's have/in-flight scans touch no storage beyond the
/// object itself; larger bitmaps spill to the heap.
class PieceSet {
 public:
    /// Creates an all-empty set over `num_pieces` pieces (>= 1).
    explicit PieceSet(std::size_t num_pieces);

    /// Creates a complete set (a seed's bitmap).
    [[nodiscard]] static PieceSet complete(std::size_t num_pieces);

    // has/add/remove live in the header: they sit inside the simulator's
    // rarest-first scan, where the call overhead would rival the bit test.
    [[nodiscard]] bool has(std::size_t piece) const {
        SWARMAVAIL_REQUIRE(piece < num_pieces_,
                           "PieceSet::has: piece index out of range");
        return ((words()[piece / kWordBits] >> (piece % kWordBits)) & 1U) != 0;
    }

    /// Marks `piece` owned. Adding an owned piece is a no-op.
    void add(std::size_t piece) {
        SWARMAVAIL_REQUIRE(piece < num_pieces_,
                           "PieceSet::add: piece index out of range");
        const std::uint64_t bit = std::uint64_t{1} << (piece % kWordBits);
        std::uint64_t& word = words()[piece / kWordBits];
        if ((word & bit) == 0) {
            word |= bit;
            ++count_;
        }
    }

    /// Clears `piece`. Removing an unowned piece is a no-op. (Peers never
    /// lose content pieces; this serves bitmap-backed scratch sets such as
    /// the in-flight fetch set.)
    void remove(std::size_t piece) {
        SWARMAVAIL_REQUIRE(piece < num_pieces_,
                           "PieceSet::remove: piece index out of range");
        const std::uint64_t bit = std::uint64_t{1} << (piece % kWordBits);
        std::uint64_t& word = words()[piece / kWordBits];
        if ((word & bit) != 0) {
            word &= ~bit;
            --count_;
        }
    }

    [[nodiscard]] std::size_t size() const noexcept { return num_pieces_; }
    [[nodiscard]] std::size_t count() const noexcept { return count_; }
    [[nodiscard]] bool is_complete() const noexcept { return count_ == num_pieces_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

    /// Recomputes the owned-piece count from the bitmap in O(pieces / 64).
    /// The invariant-audit mode compares this against count() to catch a
    /// bitmap and counter that drifted apart.
    [[nodiscard]] std::size_t recount() const noexcept;

    /// Fraction of pieces owned, in [0, 1].
    [[nodiscard]] double fraction() const noexcept {
        return num_pieces_ == 0
                   ? 0.0
                   : static_cast<double>(count_) / static_cast<double>(num_pieces_);
    }

    /// Invokes fn(piece) for every owned piece in ascending index order.
    /// fn must not mutate this set.
    template <typename Fn>
    void for_each_held(Fn&& fn) const {
        const std::uint64_t* w = words();
        for (std::size_t wi = 0; wi < num_words(); ++wi) {
            std::uint64_t word = w[wi];
            while (word != 0) {
                const auto bit = static_cast<std::size_t>(std::countr_zero(word));
                fn(wi * kWordBits + bit);
                word &= word - 1;
            }
        }
    }

    /// Invokes fn(piece) for every piece this set lacks, `excluded` lacks
    /// and `mask` holds, in ascending index order (the swarm simulator's
    /// rarest-first candidate enumeration: one AND-NOT per word replaces a
    /// per-piece probe of each set, and words with no candidate cost one
    /// compare). All three sets must have the same size; fn must not
    /// mutate any of them.
    template <typename Fn>
    void for_each_missing_masked(const PieceSet& excluded, const PieceSet& mask,
                                 Fn&& fn) const {
        SWARMAVAIL_REQUIRE(excluded.num_pieces_ == num_pieces_ &&
                               mask.num_pieces_ == num_pieces_,
                           "PieceSet::for_each_missing_masked: size mismatch");
        const std::uint64_t* w = words();
        const std::uint64_t* x = excluded.words();
        const std::uint64_t* m = mask.words();
        for (std::size_t wi = 0; wi < num_words(); ++wi) {
            // The mask's bits past the last piece are clear, so no tail
            // mask is needed.
            std::uint64_t word = m[wi] & ~(w[wi] | x[wi]);
            while (word != 0) {
                const auto bit = static_cast<std::size_t>(std::countr_zero(word));
                fn(wi * kWordBits + bit);
                word &= word - 1;
            }
        }
    }

 private:
    static constexpr std::size_t kWordBits = 64;

    /// Mask of the valid bits in the last word (all-ones when the piece
    /// count is a multiple of 64).
    [[nodiscard]] std::uint64_t tail_mask() const noexcept {
        const std::size_t tail = num_pieces_ % kWordBits;
        return tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
    }

    [[nodiscard]] std::size_t num_words() const noexcept {
        return (num_pieces_ + kWordBits - 1) / kWordBits;
    }

    // Storage accessors: one inline word when the bitmap fits (heap_words_
    // stays empty), a heap vector otherwise. The discriminator is the
    // vector itself, so the object carries no extra flag.
    [[nodiscard]] std::uint64_t* words() noexcept {
        return heap_words_.empty() ? &inline_word_ : heap_words_.data();
    }
    [[nodiscard]] const std::uint64_t* words() const noexcept {
        return heap_words_.empty() ? &inline_word_ : heap_words_.data();
    }

    std::uint64_t inline_word_ = 0;
    std::vector<std::uint64_t> heap_words_;  ///< used only when > 64 pieces
    std::size_t num_pieces_ = 0;
    std::size_t count_ = 0;
};

}  // namespace swarmavail::swarm
