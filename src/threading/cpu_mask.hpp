#pragma once

// Logical CPU masks.
//
// hStreams binds each stream's sink endpoint to "computing resources
// identified by a domain and a CPU mask". Our masks are *logical*: they
// index worker threads of an emulated domain, not physical cores. (The
// evaluation substrate is a 1-core container; physical pinning would be
// meaningless. The partitioning semantics — disjointness, subset checks,
// even division among streams — are what the runtime depends on.)

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace hs {

/// A set of logical CPU indices in [0, kMaxCpus).
class CpuMask {
 public:
  static constexpr std::size_t kMaxCpus = 512;
  static constexpr std::size_t kWords = kMaxCpus / 64;

  CpuMask() = default;

  /// Mask containing the half-open range [begin, end).
  [[nodiscard]] static CpuMask range(std::size_t begin, std::size_t end) {
    require(begin <= end && end <= kMaxCpus, "CpuMask::range out of bounds");
    CpuMask m;
    for (std::size_t i = begin; i < end; ++i) {
      m.set(i);
    }
    return m;
  }

  /// Mask containing the first n CPUs.
  [[nodiscard]] static CpuMask first_n(std::size_t n) { return range(0, n); }

  void set(std::size_t cpu) {
    // An explicit branch, not require(): with require() inlined, GCC 12
    // under ASan+UBSan reports -Warray-bounds on the store below for a
    // constant out-of-range `cpu` it cannot see is unreachable.
    if (cpu >= kMaxCpus) {
      throw Error(Errc::invalid_argument, "CpuMask::set out of bounds");
    }
    words_[cpu / 64] |= (std::uint64_t{1} << (cpu % 64));
  }

  void clear(std::size_t cpu) {
    require(cpu < kMaxCpus, "CpuMask::clear out of bounds");
    words_[cpu / 64] &= ~(std::uint64_t{1} << (cpu % 64));
  }

  [[nodiscard]] bool test(std::size_t cpu) const {
    require(cpu < kMaxCpus, "CpuMask::test out of bounds");
    return (words_[cpu / 64] >> (cpu % 64)) & 1U;
  }

  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t n = 0;
    for (const auto w : words_) {
      n += static_cast<std::size_t>(std::popcount(w));
    }
    return n;
  }

  [[nodiscard]] bool empty() const noexcept { return count() == 0; }

  /// Indices of all set CPUs, ascending.
  [[nodiscard]] std::vector<std::size_t> cpus() const {
    std::vector<std::size_t> out;
    out.reserve(count());
    for (std::size_t i = 0; i < kMaxCpus; ++i) {
      if (test(i)) {
        out.push_back(i);
      }
    }
    return out;
  }

  [[nodiscard]] bool intersects(const CpuMask& other) const noexcept {
    for (std::size_t w = 0; w < kWords; ++w) {
      if ((words_[w] & other.words_[w]) != 0) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool subset_of(const CpuMask& other) const noexcept {
    for (std::size_t w = 0; w < kWords; ++w) {
      if ((words_[w] & ~other.words_[w]) != 0) {
        return false;
      }
    }
    return true;
  }

  friend CpuMask operator|(const CpuMask& a, const CpuMask& b) noexcept {
    CpuMask m;
    for (std::size_t w = 0; w < kWords; ++w) {
      m.words_[w] = a.words_[w] | b.words_[w];
    }
    return m;
  }

  friend CpuMask operator&(const CpuMask& a, const CpuMask& b) noexcept {
    CpuMask m;
    for (std::size_t w = 0; w < kWords; ++w) {
      m.words_[w] = a.words_[w] & b.words_[w];
    }
    return m;
  }

  friend bool operator==(const CpuMask& a, const CpuMask& b) noexcept = default;

  /// Compact rendering like "{0-3,8}".
  [[nodiscard]] std::string to_string() const {
    std::string out = "{";
    bool first = true;
    std::size_t i = 0;
    while (i < kMaxCpus) {
      if (!test(i)) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j + 1 < kMaxCpus && test(j + 1)) {
        ++j;
      }
      if (!first) {
        out += ',';
      }
      first = false;
      out += std::to_string(i);
      if (j > i) {
        out += '-';
        out += std::to_string(j);
      }
      i = j + 1;
    }
    out += '}';
    return out;
  }

  /// Splits `total` CPUs evenly into `parts` contiguous masks; the first
  /// (total % parts) masks get one extra CPU. This is the policy behind
  /// the hStreams "app API" that divides a domain among streams.
  [[nodiscard]] static std::vector<CpuMask> partition(std::size_t total,
                                                      std::size_t parts) {
    require(parts > 0, "partition into zero parts");
    require(total >= parts, "fewer CPUs than partitions");
    std::vector<CpuMask> out;
    out.reserve(parts);
    const std::size_t base = total / parts;
    const std::size_t extra = total % parts;
    std::size_t begin = 0;
    for (std::size_t p = 0; p < parts; ++p) {
      const std::size_t width = base + (p < extra ? 1 : 0);
      out.push_back(range(begin, begin + width));
      begin += width;
    }
    return out;
  }

 private:
  std::uint64_t words_[kWords]{};
};

}  // namespace hs
