//! The bag-local state algebra of Figure 5 (paper §5.1), shared by its
//! three evaluators: the dynamic program and the ground Horn lowering of
//! `mdtw-core`, and the tree automaton of `mdtw-fta`. Figure 5's
//! `solve(s, R, G, B)` splits the bag of node `s` into three colour
//! classes; the proof of Theorem 5.1 reads it as constantly many monadic
//! predicates `solve⟨r,g,b⟩(s)`.
//!
//! - [`BagColoring`]: a colouring as two bitmasks over the sorted bag
//!   positions, with the introduce ([`BagColoring::extensions`]) and forget
//!   ([`BagColoring::drop`]) steps, and all colourings of a bag in base-3
//!   order ([`BagColoring::all`]);
//! - [`BagAdjacency`]: the edges inside one bag as a neighbour mask per
//!   position, built once per node, which decides Figure 5's
//!   `allowed(R) ∧ allowed(G) ∧ allowed(B)` with mask tests and lists a
//!   bag's proper colourings ([`BagAdjacency::proper_colorings`]).

use crate::Graph;
use mdtw_structure::ElemId;

/// A colouring of a bag: bit `i` of `r` (of `g`) colours bag position `i`
/// red (green); every other position is blue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BagColoring {
    /// Red positions.
    pub r: u64,
    /// Green positions.
    pub g: u64,
}

impl BagColoring {
    /// Every colouring of an `n`-element bag (`n < 64`) in base-3 order:
    /// the `k`-th gives position `i` the `i`-th base-3 digit of `k`, least
    /// significant first, as its colour (0 red, 1 green, 2 blue).
    pub fn all(n: usize) -> impl Iterator<Item = Self> {
        assert!(n < 64, "a bag of {n} elements exceeds the bitmask width");
        let first = Self {
            r: (1 << n) - 1,
            g: 0,
        };
        std::iter::successors(Some(first), |c| c.next_from(0))
    }

    /// The first colouring in base-3 order whose digits at positions
    /// `from` and above differ from `self`'s: the lowest non-blue digit
    /// from `from` on steps red → green or green → blue, and every digit
    /// below it becomes red. `None` when those digits are all blue.
    #[inline]
    fn next_from(self, from: usize) -> Option<Self> {
        let coloured = (self.r | self.g) & (!0 << from);
        let bit = coloured & coloured.wrapping_neg();
        (coloured != 0).then(|| Self {
            r: (self.r & !bit) | (bit - 1),
            g: (self.g ^ bit) & !(bit - 1),
        })
    }

    /// The colour of position `pos`: 0 red, 1 green, 2 blue.
    #[inline]
    pub fn color(self, pos: usize) -> u8 {
        (2 - 2 * (self.r >> pos & 1) - (self.g >> pos & 1)) as u8
    }

    /// Opens a blue position at `pos`: the positions from `pos` on move
    /// up by one.
    #[inline]
    pub fn lift(self, pos: usize) -> Self {
        let lift = |m: u64| (m & ((1 << pos) - 1)) | ((m >> pos) << (pos + 1));
        Self {
            r: lift(self.r),
            g: lift(self.g),
        }
    }

    /// Figure 5's forget step: removes position `pos`, and the positions
    /// above it move down by one.
    #[inline]
    pub fn drop(self, pos: usize) -> Self {
        let drop = |m: u64| (m & ((1 << pos) - 1)) | ((m >> (pos + 1)) << pos);
        Self {
            r: drop(self.r),
            g: drop(self.g),
        }
    }

    /// Figure 5's introduce step: the three colourings of the bag with a
    /// new element at `pos`, coloured red, green and blue in that (digit)
    /// order, that agree with `self` elsewhere.
    #[inline]
    pub fn extensions(self, pos: usize) -> [Self; 3] {
        let blue = self.lift(pos);
        [(1 << pos, 0), (0, 1 << pos), (0, 0)].map(|(r, g)| Self {
            r: blue.r | r,
            g: blue.g | g,
        })
    }
}

/// The widest bag whose position pairs fit a `u64` triangular bitmap
/// ([`BagAdjacency::triangle`]): 11 elements have 55 pairs, 12 have 66.
pub const MAX_TRIANGLE_BAG: usize = 11;

/// The edges inside one bag: bit `j` of position `i`'s neighbour mask is
/// set iff the elements at positions `i` and `j` are adjacent. It lives on
/// the stack, so building one per node allocates nothing.
#[derive(Debug, Clone)]
pub struct BagAdjacency {
    n: usize,
    nbr: [u64; 64],
}

/// The position pairs `i < j` of an `n`-element bag in triangular order:
/// pair `(i, j)` is the `j(j-1)/2 + i`-th.
fn pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (1..n).flat_map(|j| (0..j).map(move |i| (i, j)))
}

impl BagAdjacency {
    /// The adjacency of an `n`-element bag (`n < 64`) whose pair `(i, j)`,
    /// the `bit`-th of [`pairs`], is an edge iff `adjacent(bit, (i, j))`.
    fn from_pairs(n: usize, adjacent: impl Fn(usize, (usize, usize)) -> bool) -> Self {
        assert!(n < 64, "a bag of {n} elements exceeds the bitmask width");
        let mut nbr = [0; 64];
        for (bit, (i, j)) in pairs(n).enumerate() {
            if adjacent(bit, (i, j)) {
                nbr[i] |= 1 << j;
                nbr[j] |= 1 << i;
            }
        }
        Self { n, nbr }
    }

    /// The edges of `graph` among the elements of `bag` (vertex `i` =
    /// element `i`): one `has_edge` probe per pair of positions.
    pub fn of_bag(graph: &Graph, bag: &[ElemId]) -> Self {
        Self::from_pairs(bag.len(), |_, (i, j)| graph.has_edge(bag[i].0, bag[j].0))
    }

    /// The adjacency of an `n`-element bag from a triangular bitmap whose
    /// bit `j(j-1)/2 + i` is the pair `i < j`.
    ///
    /// # Panics
    /// Panics if `n` exceeds [`MAX_TRIANGLE_BAG`].
    pub fn from_triangle(n: usize, edges: u64) -> Self {
        assert!(
            n <= MAX_TRIANGLE_BAG,
            "{n} bag positions overflow a triangle"
        );
        Self::from_pairs(n, |bit, _| edges >> bit & 1 == 1)
    }

    /// The triangular bitmap [`from_triangle`](Self::from_triangle) reads.
    ///
    /// # Panics
    /// Panics if the bag has more than [`MAX_TRIANGLE_BAG`] elements.
    pub fn triangle(&self) -> u64 {
        assert!(
            self.n <= MAX_TRIANGLE_BAG,
            "{} bag positions overflow a triangle",
            self.n
        );
        pairs(self.n)
            .enumerate()
            .filter(|&(_, (i, j))| self.nbr[i] >> j & 1 == 1)
            .fold(0, |edges, (bit, _)| edges | 1 << bit)
    }

    /// The highest position that has a neighbour of its own colour above
    /// it: every colouring that agrees with `c` from there up is improper.
    #[inline]
    fn conflict(&self, c: BagColoring) -> Option<usize> {
        let blue = ((1 << self.n) - 1) & !(c.r | c.g);
        let highest = |class: u64| {
            let mut rest = class;
            while rest != 0 {
                let p = 63 - rest.leading_zeros() as usize;
                if (self.nbr[p] & class) >> p != 0 {
                    return Some(p);
                }
                rest ^= 1 << p;
            }
            None
        };
        highest(c.r).max(highest(c.g)).max(highest(blue))
    }

    /// Figure 5's `allowed(R) ∧ allowed(G) ∧ allowed(B)`: no two adjacent
    /// positions share a colour.
    #[inline]
    pub fn is_proper(&self, c: BagColoring) -> bool {
        (0..self.n).all(|p| self.is_proper_at(c, p))
    }

    /// No neighbour of position `pos` shares its colour. After an
    /// introduce step at `pos` from a proper colouring, this decides
    /// [`is_proper`](Self::is_proper).
    #[inline]
    pub fn is_proper_at(&self, c: BagColoring, pos: usize) -> bool {
        let blue = ((1 << self.n) - 1) & !(c.r | c.g);
        self.nbr[pos] & [c.r, c.g, blue][usize::from(c.color(pos))] == 0
    }

    /// The proper colourings of the bag in base-3 order: the colourings of
    /// [`BagColoring::all`] that [`is_proper`](Self::is_proper) accepts,
    /// found without visiting every colouring that agrees with an improper
    /// one from its conflict up (a clique's bag costs far less than `3ⁿ`).
    pub fn proper_colorings(&self) -> impl Iterator<Item = BagColoring> + '_ {
        let mut next = BagColoring::all(self.n).next();
        std::iter::from_fn(move || loop {
            let c = next?;
            let conflict = self.conflict(c);
            next = c.next_from(conflict.unwrap_or(0));
            if conflict.is_none() {
                return Some(c);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_and_triangle_round_trip() {
        let c = BagColoring {
            r: 0b0101,
            g: 0b0010,
        };
        assert_eq!(c.lift(1).drop(1), c);
        for (colour, e) in c.extensions(2).into_iter().enumerate() {
            assert_eq!((e.color(2) as usize, e.drop(2)), (colour, c));
        }
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let adj = BagAdjacency::of_bag(&path, &[0, 1, 2, 3].map(ElemId));
        assert_eq!(BagAdjacency::from_triangle(4, adj.triangle()).nbr, adj.nbr);
        let widest: Vec<_> = (0..MAX_TRIANGLE_BAG as u32).map(ElemId).collect();
        let clique = BagAdjacency::of_bag(&crate::complete(widest.len()), &widest);
        assert_eq!(clique.triangle(), (1 << 55) - 1);
        let round_trip = BagAdjacency::from_triangle(widest.len(), clique.triangle());
        assert_eq!(round_trip.nbr, clique.nbr);
        assert!(adj.is_proper(c) && !adj.is_proper(BagColoring { r: 0b0011, g: 0 }));
        assert!(!adj.is_proper_at(BagColoring { r: 0, g: 0b1100 }, 3));
        for g in [path, crate::complete(5), crate::wheel(6)] {
            let bag: Vec<_> = (0..g.len() as u32).map(ElemId).collect();
            let adj = BagAdjacency::of_bag(&g, &bag);
            let proper = BagColoring::all(g.len()).filter(|&c| adj.is_proper(c));
            assert!(adj.proper_colorings().eq(proper), "{g}");
        }
    }
}
