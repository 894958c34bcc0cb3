// Octant: the basic unit of the linearized octree.
//
// An octant is an axis-aligned cube identified by its anchor (minimum corner)
// in integer coordinates on a virtual uniform grid of 2^kMaxLevel cells per
// side, plus its level. Level 0 is the root covering the whole domain; an
// octant at level l has side length 2^(kMaxLevel - l) in integer units.
//
// The space-filling-curve order used throughout is the Morton (Z-order)
// *preorder*: an ancestor sorts before all of its descendants, and disjoint
// octants sort by the Morton order of their anchors. Comparison is done
// without interleaving bits, via the classic most-significant-differing-bit
// trick.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <ostream>

#include "support/check.hpp"
#include "support/types.hpp"
#include "support/vecn.hpp"

namespace pt {

/// Deepest representable refinement level. The paper's flagship run uses
/// level 15; 21 leaves headroom while keeping coordinates in 32 bits.
inline constexpr int kMaxLevel = 21;

/// Number of integer coordinates per side of the virtual finest grid.
inline constexpr std::uint32_t kMaxCoord = 1u << kMaxLevel;

template <int DIM>
struct Octant {
  static_assert(DIM == 2 || DIM == 3, "PhaseTree supports 2D and 3D octrees");

  std::array<std::uint32_t, DIM> x{};  ///< anchor (minimum corner)
  Level level = 0;

  Octant() = default;
  Octant(std::array<std::uint32_t, DIM> anchor, Level lvl)
      : x(anchor), level(lvl) {}

  /// Side length in integer units.
  std::uint32_t size() const { return kMaxCoord >> level; }

  /// Root octant covering the whole domain.
  static Octant root() { return Octant{}; }

  /// The parent octant (one level coarser). Root has itself as parent.
  Octant parent() const {
    if (level == 0) return *this;
    Octant p;
    p.level = static_cast<Level>(level - 1);
    const std::uint32_t mask = ~((kMaxCoord >> p.level) - 1);
    for (int d = 0; d < DIM; ++d) p.x[d] = x[d] & mask;
    return p;
  }

  /// Ancestor at the given (coarser or equal) level.
  Octant ancestorAt(Level lvl) const {
    PT_CHECK(lvl <= level);
    Octant a;
    a.level = lvl;
    const std::uint32_t mask =
        (lvl == 0) ? 0u : ~((kMaxCoord >> lvl) - 1);
    for (int d = 0; d < DIM; ++d) a.x[d] = x[d] & mask;
    return a;
  }

  /// Child c (Morton child index, bit d of c selects the upper half in
  /// dimension d).
  Octant child(int c) const {
    PT_CHECK(level < kMaxLevel);
    Octant ch;
    ch.level = static_cast<Level>(level + 1);
    const std::uint32_t half = size() >> 1;
    for (int d = 0; d < DIM; ++d)
      ch.x[d] = x[d] + (((c >> d) & 1) ? half : 0);
    return ch;
  }

  /// Morton child index of this octant within its parent.
  int childIndex() const {
    if (level == 0) return 0;
    const std::uint32_t bit = kMaxCoord >> level;
    int c = 0;
    for (int d = 0; d < DIM; ++d) c |= ((x[d] & bit) ? 1 : 0) << d;
    return c;
  }

  /// True if `this` is an ancestor of `o` (inclusive: every octant is its
  /// own ancestor).
  bool isAncestorOf(const Octant& o) const {
    if (level > o.level) return false;
    const int shift = kMaxLevel - level;
    for (int d = 0; d < DIM; ++d)
      if ((x[d] >> shift) != (o.x[d] >> shift)) return false;
    return true;
  }

  /// True if the two octants overlap (one is an ancestor of the other).
  friend bool overlaps(const Octant& a, const Octant& b) {
    return a.isAncestorOf(b) || b.isAncestorOf(a);
  }

  /// True if the integer point p (in finest-grid units) lies inside this
  /// octant's half-open box [x, x+size).
  bool containsPoint(const std::array<std::uint32_t, DIM>& p) const {
    for (int d = 0; d < DIM; ++d)
      if (p[d] < x[d] || p[d] >= x[d] + size()) return false;
    return true;
  }

  /// Physical coordinates of the anchor in the unit cube [0,1]^DIM.
  VecN<DIM> anchorCoords() const {
    VecN<DIM> c;
    for (int d = 0; d < DIM; ++d)
      c[d] = static_cast<Real>(x[d]) / static_cast<Real>(kMaxCoord);
    return c;
  }

  /// Physical side length in the unit cube.
  Real physSize() const {
    return static_cast<Real>(size()) / static_cast<Real>(kMaxCoord);
  }

  /// Physical center point.
  VecN<DIM> centerCoords() const {
    VecN<DIM> c = anchorCoords();
    const Real h = physSize() / 2;
    for (int d = 0; d < DIM; ++d) c[d] += h;
    return c;
  }

  /// Integer coordinates of corner `corner` (Morton corner index).
  std::array<std::uint32_t, DIM> cornerPoint(int corner) const {
    std::array<std::uint32_t, DIM> p;
    for (int d = 0; d < DIM; ++d)
      p[d] = x[d] + (((corner >> d) & 1) ? size() : 0);
    return p;
  }

  friend bool operator==(const Octant& a, const Octant& b) {
    return a.level == b.level && a.x == b.x;
  }

  friend std::ostream& operator<<(std::ostream& os, const Octant& o) {
    os << "oct(l=" << int(o.level);
    for (int d = 0; d < DIM; ++d) os << "," << o.x[d];
    return os << ")";
  }
};

namespace detail {
/// True if the most significant set bit of a is below that of b.
inline bool lessMsb(std::uint32_t a, std::uint32_t b) {
  return a < b && a < (a ^ b);
}
}  // namespace detail

/// Morton preorder comparison. Ancestors sort before descendants; disjoint
/// octants sort by Z-order of anchors (dimension DIM-1 most significant).
template <int DIM>
bool sfcLess(const Octant<DIM>& a, const Octant<DIM>& b) {
  int topDim = 0;
  std::uint32_t topXor = a.x[0] ^ b.x[0];
  for (int d = 1; d < DIM; ++d) {
    const std::uint32_t c = a.x[d] ^ b.x[d];
    // Higher dimensions are more significant: replace on >= (not just >)
    // so that equal most-significant-bit ties go to the later dimension,
    // matching the Morton child enumeration (bit d of the child index
    // selects dimension d).
    if (!detail::lessMsb(c, topXor)) {
      topXor = c;
      topDim = d;
    }
  }
  if (topXor == 0) return a.level < b.level;  // same anchor: ancestor first
  return a.x[topDim] < b.x[topDim];
}

/// Strict-weak-ordering functor for std::sort / std::lower_bound.
template <int DIM>
struct SfcLess {
  bool operator()(const Octant<DIM>& a, const Octant<DIM>& b) const {
    return sfcLess(a, b);
  }
};

/// Coarsest common ancestor of two octants.
template <int DIM>
Octant<DIM> commonAncestor(const Octant<DIM>& a, const Octant<DIM>& b) {
  Level lvl = std::min(a.level, b.level);
  while (lvl > 0 && a.ancestorAt(lvl) != b.ancestorAt(lvl))
    lvl = static_cast<Level>(lvl - 1);
  if (a.ancestorAt(lvl) == b.ancestorAt(lvl)) return a.ancestorAt(lvl);
  return Octant<DIM>::root();
}

/// The paper's ⊑ relation, restricted to its irreflexive kernel ⊏:
/// a ⊏ b iff a precedes b on the SFC *and* they do not overlap. Octants in
/// the same overlap equivalence class (sharing an ancestor in the union of
/// the two leaf sets) compare neither ⊏ nor ⊐. Used by the inter-grid
/// partition overlap searches (Sec II-C2c/d of the paper).
template <int DIM>
bool overlapLess(const Octant<DIM>& a, const Octant<DIM>& b) {
  return !overlaps(a, b) && sfcLess(a, b);
}

}  // namespace pt
