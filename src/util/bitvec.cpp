#include "util/bitvec.hpp"

namespace ftsched {

std::size_t BitVec::count() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += bits::popcount(w);
  return total;
}

bool BitVec::none() const {
  for (std::uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool BitVec::all() const { return count() == size_; }

std::optional<std::size_t> BitVec::find_first() const {
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    if (words_[wi] != 0) {
      return wi * kWordBits + bits::find_first_word(words_[wi]);
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> BitVec::find_next(std::size_t from) const {
  if (from >= size_) return std::nullopt;
  std::size_t wi = from / kWordBits;
  // Mask off bits below `from` in the first word, then scan forward.
  std::uint64_t word = words_[wi] & ~bits::low_mask(from % kWordBits);
  while (true) {
    if (word != 0) {
      return wi * kWordBits + bits::find_first_word(word);
    }
    if (++wi >= words_.size()) return std::nullopt;
    word = words_[wi];
  }
}

BitVec& BitVec::operator&=(const BitVec& other) {
  FT_REQUIRE(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& other) {
  FT_REQUIRE(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

BitVec& BitVec::operator^=(const BitVec& other) {
  FT_REQUIRE(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

void BitVec::flip() {
  for (auto& w : words_) w = ~w;
  trim();
}

std::string BitVec::to_string() const {
  std::string out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(test(i) ? '1' : '0');
  return out;
}

}  // namespace ftsched
