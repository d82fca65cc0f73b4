//! The PRIMALITY program of Figure 6 (paper §5.2) and its enumeration
//! variant (§5.3, Theorem 5.4).
//!
//! An attribute `a` is *prime* iff there is an attribute set `Y` closed
//! under `F` with `a ∉ Y` and `(Y ∪ {a})⁺ = R` (Example 2.6). The program
//! certifies this via `solve(s, Y, FY, C°, ΔC, FC)` facts over a nice tree
//! decomposition of the {fd, att, lh, rh} structure, where (Property B):
//!
//! * `Y` / `C°` — the bag-local projection of `𝒴` and of the *ordered*
//!   complement `R ∖ 𝒴` (ordered by a derivation sequence from `𝒴 ∪ {a}`),
//! * `FY` — bag FDs already *verified* not to contradict closedness of `𝒴`
//!   (some left-hand-side attribute seen outside `𝒴`),
//! * `FC` — bag FDs used by the derivation sequence,
//! * `ΔC` — bag attributes of `C°` whose derivation has been witnessed.
//!
//! All six components are subsets/orderings of one bag, so a fact packs
//! into a few machine words — the "succinct representation of constantly
//! many monadic predicates solve⟨r1,…,r5⟩(s)" of Theorem 5.3's proof.
//!
//! The decomposition must satisfy the §5.2 convention that every bag
//! containing an FD also contains its right-hand-side attribute
//! ([`PrimalityContext`] enforces it via bag augmentation).
//!
//! A node's table is a sorted, deduplicated `Vec<PrimState>`: each
//! transition pushes the states it derives and sorts once at the end, and
//! [`PrimalityContext::accepts`] reads the table as a slice. A table holds
//! about twenty 16-byte states on the Table 1 workloads, so a flat vector
//! beats a hash set on both time and memory.

use mdtw_decomp::{
    augment_bags, decompose, Heuristic, NiceKind, NiceOptions, NiceTd, NodeId, TreeDecomposition,
};
use mdtw_schema::{encode_schema, AttrId, Schema, SchemaEncoding};
use mdtw_structure::fx::{FxHashMap, FxHashSet};
use mdtw_structure::ElemId;

/// One `solve` fact, packed bag-locally. Attribute components are bitmasks
/// over the sorted *attribute positions* of the bag; FD components over
/// the sorted *FD positions*. `co` stores the ordering of the complement
/// `C°` as 4-bit attribute positions (lowest nibble first); its length is
/// `#bag-attrs − popcount(y)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrimState {
    /// Bag attributes in `Y`.
    pub y: u16,
    /// Bag attributes with a witnessed derivation (`ΔC ⊆ C°`).
    pub dc: u16,
    /// Bag FDs verified non-contradicting (`FY`).
    pub fy: u16,
    /// Bag FDs used in the derivation (`FC`).
    pub fc: u16,
    /// The order of `C°`, packed in nibbles.
    pub co: u64,
}

// --- nibble-sequence helpers for the C° ordering ---------------------------

#[inline]
fn co_get(co: u64, i: usize) -> u8 {
    ((co >> (4 * i)) & 0xF) as u8
}

#[inline]
fn co_insert(co: u64, len: usize, k: usize, pos: u8) -> u64 {
    debug_assert!(k <= len && len < 16);
    let low_mask = (1u64 << (4 * k)) - 1;
    let low = co & low_mask;
    let high = (co & !low_mask) << 4;
    low | ((pos as u64) << (4 * k)) | high
}

#[inline]
fn co_remove(co: u64, k: usize) -> u64 {
    let low_mask = (1u64 << (4 * k)) - 1;
    let low = co & low_mask;
    let high = (co >> (4 * (k + 1))) << (4 * k);
    low | high
}

#[inline]
fn co_index_of(co: u64, len: usize, pos: u8) -> Option<usize> {
    (0..len).find(|&i| co_get(co, i) == pos)
}

#[inline]
fn co_map(co: u64, len: usize, f: impl Fn(u8) -> u8) -> u64 {
    let mut out = 0u64;
    for i in 0..len {
        out |= (f(co_get(co, i)) as u64) << (4 * i);
    }
    out
}

/// Lifts a bitmask when a new position is inserted at `at`.
#[inline]
fn mask_lift(mask: u16, at: usize) -> u16 {
    let m = mask as u32;
    let low = m & ((1u32 << at) - 1);
    let high = (m >> at) << (at + 1);
    (low | high) as u16
}

/// Drops position `at` from a bitmask (the bit at `at` is discarded).
#[inline]
fn mask_drop(mask: u16, at: usize) -> u16 {
    let m = mask as u32;
    let low = m & ((1u32 << at) - 1);
    let high = (m >> (at + 1)) << at;
    (low | high) as u16
}

// --- bag context ------------------------------------------------------------

/// The split of a bag into attribute and FD elements (both sorted).
#[derive(Debug, Clone, Default)]
struct BagCtx {
    attrs: Vec<ElemId>,
    fds: Vec<ElemId>,
}

impl BagCtx {
    fn attr_pos(&self, e: ElemId) -> Option<usize> {
        self.attrs.binary_search(&e).ok()
    }

    fn fd_pos(&self, e: ElemId) -> Option<usize> {
        self.fds.binary_search(&e).ok()
    }
}

/// Per-element classification derived from the τ-structure.
#[derive(Debug, Clone)]
enum ElemInfo {
    Attr,
    Fd { rhs: ElemId, lhs: Vec<ElemId> },
}

/// Everything needed to run the Figure 6 / §5.3 computations: the encoded
/// schema, an rhs-augmented nice tree decomposition and per-bag contexts.
#[derive(Debug)]
pub struct PrimalityContext {
    /// The τ-structure encoding of the schema.
    pub encoding: SchemaEncoding,
    /// The nice tree decomposition (every element occurs in a leaf bag,
    /// supporting the §5.3 `prime()` rule).
    pub nice: NiceTd,
    info: Vec<ElemInfo>,
    bags: Vec<BagCtx>,
}

/// Statistics of a solver run (for the Table 1 harness and ablations).
#[derive(Debug, Clone, Copy, Default)]
pub struct PrimStats {
    /// Total `solve` facts across all nodes (bottom-up pass).
    pub up_facts: usize,
    /// Total `solve↓` facts (top-down pass; 0 for pure decisions).
    pub down_facts: usize,
    /// Number of decomposition nodes.
    pub nodes: usize,
    /// Decomposition width.
    pub width: usize,
}

impl PrimalityContext {
    /// Builds a context from a schema: encode, decompose (min-fill),
    /// augment bags with rhs attributes, convert to the nice form.
    ///
    /// # Panics
    /// Panics if a bag of the augmented decomposition holds more than 16
    /// attributes or more than 16 FDs (the packed [`PrimState`] limit).
    pub fn new(schema: &Schema) -> Self {
        let encoding = encode_schema(schema);
        let td = decompose(&encoding.structure, Heuristic::MinFill);
        Self::from_parts(encoding, td)
    }

    /// Builds a context from an existing decomposition (e.g. the generated
    /// workloads of §6). The decomposition is rerooted/augmented as needed.
    ///
    /// # Panics
    /// Panics if a bag of the augmented decomposition holds more than 16
    /// attributes or more than 16 FDs (the packed [`PrimState`] limit).
    pub fn from_parts(encoding: SchemaEncoding, mut td: TreeDecomposition) -> Self {
        let info = Self::classify(&encoding);
        // §5.2: every bag containing an FD must contain its rhs attribute.
        let info_ref = &info;
        augment_bags(&mut td, |e| match &info_ref[e.index()] {
            ElemInfo::Fd { rhs, .. } => vec![*rhs],
            ElemInfo::Attr => Vec::new(),
        });
        let rank = |e: ElemId| match info_ref[e.index()] {
            ElemInfo::Fd { .. } => 1u8,
            ElemInfo::Attr => 0u8,
        };
        let nice = NiceTd::from_td_with_rank(
            &td,
            NiceOptions {
                every_elem_in_leaf: true,
            },
            &rank,
        );
        Self::assemble(encoding, nice, info)
    }

    /// Like [`from_parts`](Self::from_parts) but reroots the decomposition
    /// at a bag containing `target` first (the decision problem of §5.2
    /// requires the queried attribute in the root bag).
    ///
    /// # Panics
    /// Panics if no bag of `td` contains `target`, or if a bag of the
    /// augmented decomposition holds more than 16 attributes or more than
    /// 16 FDs (the packed [`PrimState`] limit).
    pub fn for_decision(
        encoding: SchemaEncoding,
        mut td: TreeDecomposition,
        target: AttrId,
    ) -> Self {
        let info = Self::classify(&encoding);
        let elem = encoding.elem_of_attr(target);
        let host = td
            .node_ids()
            .find(|&n| td.bag_contains(n, elem))
            .expect("attribute occurs in some bag");
        td.reroot(host);
        let info_ref = &info;
        augment_bags(&mut td, |e| match &info_ref[e.index()] {
            ElemInfo::Fd { rhs, .. } => vec![*rhs],
            ElemInfo::Attr => Vec::new(),
        });
        let rank = |e: ElemId| match info_ref[e.index()] {
            ElemInfo::Fd { .. } => 1u8,
            ElemInfo::Attr => 0u8,
        };
        let nice = NiceTd::from_td_with_rank(&td, NiceOptions::default(), &rank);
        debug_assert!(nice.bag_contains(nice.root(), elem));
        Self::assemble(encoding, nice, info)
    }

    fn classify(encoding: &SchemaEncoding) -> Vec<ElemInfo> {
        let s = &encoding.structure;
        let n = s.domain().len();
        let lh = s.signature().lookup("lh").expect("lh");
        let rh = s.signature().lookup("rh").expect("rh");
        let fd = s.signature().lookup("fd").expect("fd");
        let mut rhs_of: FxHashMap<ElemId, ElemId> = FxHashMap::default();
        for t in s.relation(rh).iter() {
            rhs_of.insert(t[1], t[0]);
        }
        let mut lhs_of: FxHashMap<ElemId, Vec<ElemId>> = FxHashMap::default();
        for t in s.relation(lh).iter() {
            lhs_of.entry(t[1]).or_default().push(t[0]);
        }
        let mut info = Vec::with_capacity(n);
        for e in s.domain().elems() {
            if s.holds(fd, &[e]) {
                info.push(ElemInfo::Fd {
                    rhs: *rhs_of.get(&e).expect("FD has an rhs"),
                    lhs: lhs_of.remove(&e).unwrap_or_default(),
                });
            } else {
                info.push(ElemInfo::Attr);
            }
        }
        info
    }

    /// Splits every bag into attributes and FDs. `PrimState` packs each
    /// component into a `u16` mask and `C°` into 16 nibbles, hence the
    /// 16-attribute / 16-FD cap per bag, checked here.
    fn assemble(encoding: SchemaEncoding, nice: NiceTd, info: Vec<ElemInfo>) -> Self {
        let bags: Vec<BagCtx> = nice
            .node_ids()
            .map(|n| {
                let mut ctx = BagCtx::default();
                for &e in nice.bag(n) {
                    match info[e.index()] {
                        ElemInfo::Attr => ctx.attrs.push(e),
                        ElemInfo::Fd { .. } => ctx.fds.push(e),
                    }
                }
                assert!(ctx.attrs.len() <= 16, "bag attribute count exceeds 16");
                assert!(ctx.fds.len() <= 16, "bag FD count exceeds 16");
                ctx
            })
            .collect();
        Self {
            encoding,
            nice,
            info,
            bags,
        }
    }

    fn is_attr(&self, e: ElemId) -> bool {
        matches!(self.info[e.index()], ElemInfo::Attr)
    }

    fn fd_rhs(&self, f: ElemId) -> ElemId {
        match &self.info[f.index()] {
            ElemInfo::Fd { rhs, .. } => *rhs,
            ElemInfo::Attr => unreachable!("element is not an FD"),
        }
    }

    fn fd_lhs(&self, f: ElemId) -> &[ElemId] {
        match &self.info[f.index()] {
            ElemInfo::Fd { lhs, .. } => lhs,
            ElemInfo::Attr => unreachable!("element is not an FD"),
        }
    }

    // --- predicates of Figure 6 --------------------------------------------

    /// `outside(·, Y, At, {f})`: `rhs(f) ∉ Y` and some lhs attribute of `f`
    /// present in the bag lies outside `Y`.
    fn fd_outside(&self, bag: &BagCtx, y: u16, f: ElemId) -> bool {
        let rhs_pos = bag
            .attr_pos(self.fd_rhs(f))
            .expect("rhs attribute accompanies its FD in every bag");
        if y >> rhs_pos & 1 == 1 {
            return false;
        }
        self.fd_lhs(f)
            .iter()
            .any(|&b| bag.attr_pos(b).is_some_and(|p| y >> p & 1 == 0))
    }

    /// The full `outside(FY, Y, At, Fd)` mask over the bag's FDs.
    fn outside_mask(&self, bag: &BagCtx, y: u16) -> u16 {
        let mut fy = 0u16;
        for (j, &f) in bag.fds.iter().enumerate() {
            if self.fd_outside(bag, y, f) {
                fy |= 1 << j;
            }
        }
        fy
    }

    /// `consistent({f}, C°)`: `rhs(f) ∈ C°` and every lhs attribute of `f`
    /// that is in `C°` precedes `rhs(f)` in the order.
    fn fd_consistent(&self, bag: &BagCtx, y: u16, co: u64, co_len: usize, f: ElemId) -> bool {
        let rhs_pos = bag.attr_pos(self.fd_rhs(f)).expect("rhs in bag") as u8;
        let Some(rhs_idx) = co_index_of(co, co_len, rhs_pos) else {
            return false; // rhs ∈ Y
        };
        for &b in self.fd_lhs(f) {
            if let Some(p) = bag.attr_pos(b) {
                if y >> p & 1 == 1 {
                    continue; // lhs attribute in Y: no ordering constraint
                }
                match co_index_of(co, co_len, p as u8) {
                    Some(bi) if bi < rhs_idx => {}
                    _ => return false,
                }
            }
        }
        true
    }

    /// The positions `{rhs(f) | f ∈ fc}` as an attribute mask.
    fn rhs_mask(&self, bag: &BagCtx, fc: u16) -> u16 {
        let mut out = 0u16;
        let mut bits = fc;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let pos = bag.attr_pos(self.fd_rhs(bag.fds[j])).expect("rhs in bag");
            out |= 1 << pos;
        }
        out
    }

    // --- the leaf rule -------------------------------------------------------

    /// All `solve` facts at a bag treated as a leaf (also the `solve↓`
    /// initialization at the root, whose envelope is the root alone).
    fn leaf_table(&self, bag: &BagCtx) -> Vec<PrimState> {
        let na = bag.attrs.len();
        let nf = bag.fds.len();
        let mut out = Vec::new();
        let mut comp: Vec<u8> = Vec::with_capacity(na);
        let full: u16 = if na == 16 { u16::MAX } else { (1 << na) - 1 };
        for y in 0..=full {
            if na == 0 && y > 0 {
                break;
            }
            comp.clear();
            comp.extend((0..na as u8).filter(|&p| y >> p & 1 == 0));
            let fy = self.outside_mask(bag, y);
            permutations(&mut comp, 0, &mut |order| {
                let co_len = order.len();
                let mut co = 0u64;
                for (i, &p) in order.iter().enumerate() {
                    co |= (p as u64) << (4 * i);
                }
                // Enumerate FC ⊆ Fd with consistent FDs and distinct rhs.
                for fc_bits in 0u32..(1u32 << nf) {
                    let fc = fc_bits as u16;
                    let mut dc = 0u16;
                    let mut ok = true;
                    let mut bits = fc;
                    while bits != 0 {
                        let j = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let f = bag.fds[j];
                        if !self.fd_consistent(bag, y, co, co_len, f) {
                            ok = false;
                            break;
                        }
                        let rhs_pos = bag.attr_pos(self.fd_rhs(f)).expect("rhs in bag");
                        if dc >> rhs_pos & 1 == 1 {
                            ok = false; // two FDs deriving the same attribute
                            break;
                        }
                        dc |= 1 << rhs_pos;
                    }
                    if ok {
                        out.push(PrimState { y, dc, fy, fc, co });
                    }
                }
            });
            if y == full {
                break; // avoid overflow when na == 16
            }
        }
        into_table(out)
    }

    // --- introduction rules ---------------------------------------------------

    /// Attribute introduction (two rules of Figure 6): the destination bag
    /// adds attribute `b` to the source bag.
    fn intro_attr(&self, src: &[PrimState], dst_bag: &BagCtx, b: ElemId) -> Vec<PrimState> {
        let bpos = dst_bag.attr_pos(b).expect("introduced attr in bag");
        let na = dst_bag.attrs.len();
        let mut out = Vec::new();
        for s in src {
            let co_len = na - 1 - (s.y.count_ones() as usize);
            let lifted_co = co_map(
                s.co,
                co_len,
                |p| if (p as usize) < bpos { p } else { p + 1 },
            );
            let y = mask_lift(s.y, bpos);
            let dc = mask_lift(s.dc, bpos);
            // Rule: b joins Y.
            out.push(PrimState {
                y: y | 1 << bpos,
                dc,
                fy: s.fy,
                fc: s.fc,
                co: lifted_co,
            });
            // Rule: b joins C° (each insertion point; consistency with FC;
            // FY picks up newly witnessed FDs).
            for k in 0..=co_len {
                let co = co_insert(lifted_co, co_len, k, bpos as u8);
                let mut consistent = true;
                let mut bits = s.fc;
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let f = dst_bag.fds[j];
                    if !self.fd_consistent(dst_bag, y, co, co_len + 1, f) {
                        consistent = false;
                        break;
                    }
                }
                if !consistent {
                    continue;
                }
                let fy = s.fy | self.outside_mask(dst_bag, y);
                out.push(PrimState {
                    y,
                    dc,
                    fy,
                    fc: s.fc,
                    co,
                });
            }
        }
        into_table(out)
    }

    /// FD introduction (three rules of Figure 6): the destination bag adds
    /// FD `f`.
    fn intro_fd(&self, src: &[PrimState], dst_bag: &BagCtx, f: ElemId) -> Vec<PrimState> {
        let fpos = dst_bag.fd_pos(f).expect("introduced FD in bag");
        let rhs_pos = dst_bag
            .attr_pos(self.fd_rhs(f))
            .expect("rhs accompanies FD") as u8;
        let na = dst_bag.attrs.len();
        let mut out = Vec::new();
        for s in src {
            let fy = mask_lift(s.fy, fpos);
            let fc = mask_lift(s.fc, fpos);
            let co_len = na - s.y.count_ones() as usize;
            if s.y >> rhs_pos & 1 == 1 {
                // Case 1: rhs(f) ∈ Y — carry over.
                out.push(PrimState {
                    y: s.y,
                    dc: s.dc,
                    fy,
                    fc,
                    co: s.co,
                });
                continue;
            }
            let witnessed = if self.fd_outside(dst_bag, s.y, f) {
                1u16 << fpos
            } else {
                0
            };
            // Case 3: rhs(f) ∈ C°, f unused.
            out.push(PrimState {
                y: s.y,
                dc: s.dc,
                fy: fy | witnessed,
                fc,
                co: s.co,
            });
            // Case 2: rhs(f) ∈ C°, f used — rhs joins ΔC (⊎: must be new),
            // and f must be consistent with the order.
            if s.dc >> rhs_pos & 1 == 0 && self.fd_consistent(dst_bag, s.y, s.co, co_len, f) {
                out.push(PrimState {
                    y: s.y,
                    dc: s.dc | 1 << rhs_pos,
                    fy: fy | witnessed,
                    fc: fc | 1 << fpos,
                    co: s.co,
                });
            }
        }
        into_table(out)
    }

    // --- removal rules ----------------------------------------------------------

    /// Attribute removal (two rules): the destination bag lacks attribute
    /// `b`, which sits at position `bpos` of the source bag.
    fn remove_attr(&self, src: &[PrimState], src_bag: &BagCtx, b: ElemId) -> Vec<PrimState> {
        let bpos = src_bag.attr_pos(b).expect("removed attr in source bag");
        let na = src_bag.attrs.len();
        let mut out = Vec::new();
        for s in src {
            let co_len = na - s.y.count_ones() as usize;
            if s.y >> bpos & 1 == 1 {
                // b was in Y.
                out.push(PrimState {
                    y: mask_drop(s.y, bpos),
                    dc: mask_drop(s.dc, bpos),
                    fy: s.fy,
                    fc: s.fc,
                    co: co_map(
                        s.co,
                        co_len,
                        |p| if (p as usize) < bpos { p } else { p - 1 },
                    ),
                });
            } else {
                // b was in C°: its derivation must have been witnessed.
                if s.dc >> bpos & 1 == 0 {
                    continue;
                }
                let k = co_index_of(s.co, co_len, bpos as u8).expect("b in C°");
                let co = co_remove(s.co, k);
                out.push(PrimState {
                    y: mask_drop(s.y, bpos),
                    dc: mask_drop(s.dc, bpos),
                    fy: s.fy,
                    fc: s.fc,
                    co: co_map(
                        co,
                        co_len - 1,
                        |p| if (p as usize) < bpos { p } else { p - 1 },
                    ),
                });
            }
        }
        into_table(out)
    }

    /// FD removal (three rules): the destination bag lacks FD `f`.
    fn remove_fd(&self, src: &[PrimState], src_bag: &BagCtx, f: ElemId) -> Vec<PrimState> {
        let fpos = src_bag.fd_pos(f).expect("removed FD in source bag");
        let rhs_pos = src_bag
            .attr_pos(self.fd_rhs(f))
            .expect("rhs accompanies FD");
        let mut out = Vec::new();
        for s in src {
            if s.y >> rhs_pos & 1 == 1 {
                // Case 1: rhs ∈ Y. Invariant: f ∉ FY, f ∉ FC.
                debug_assert_eq!(s.fy >> fpos & 1, 0);
                debug_assert_eq!(s.fc >> fpos & 1, 0);
                out.push(PrimState {
                    y: s.y,
                    dc: s.dc,
                    fy: mask_drop(s.fy, fpos),
                    fc: mask_drop(s.fc, fpos),
                    co: s.co,
                });
            } else {
                // Cases 2 and 3: rhs ∈ C° — f must be verified (f ∈ FY).
                if s.fy >> fpos & 1 == 0 {
                    continue;
                }
                out.push(PrimState {
                    y: s.y,
                    dc: s.dc,
                    fy: mask_drop(s.fy, fpos),
                    fc: mask_drop(s.fc, fpos),
                    co: s.co,
                });
            }
        }
        into_table(out)
    }

    // --- branch rule ---------------------------------------------------------------

    /// Branch combination: same `Y`, same `C°` order, same `FC`; `FY` and
    /// `ΔC` are united, with `unique(ΔC₁, ΔC₂, FC)` forbidding an attribute
    /// from being derived in both subtrees by different FDs.
    fn branch_combine(
        &self,
        left: &[PrimState],
        right: &[PrimState],
        bag: &BagCtx,
    ) -> Vec<PrimState> {
        let mut by_key: FxHashMap<(u16, u64, u16), Vec<(u16, u16)>> = FxHashMap::default();
        for s in right {
            by_key
                .entry((s.y, s.co, s.fc))
                .or_default()
                .push((s.fy, s.dc));
        }
        let mut out = Vec::new();
        for s in left {
            let Some(partners) = by_key.get(&(s.y, s.co, s.fc)) else {
                continue;
            };
            let shared = self.rhs_mask(bag, s.fc);
            for &(fy2, dc2) in partners {
                if s.dc & dc2 != shared {
                    continue; // unique(ΔC₁, ΔC₂, FC) violated
                }
                out.push(PrimState {
                    y: s.y,
                    dc: s.dc | dc2,
                    fy: s.fy | fy2,
                    fc: s.fc,
                    co: s.co,
                });
            }
        }
        into_table(out)
    }

    // --- passes ----------------------------------------------------------------------

    /// The bottom-up pass: `solve` tables for every node (Figure 6).
    pub fn run_up(&self) -> Vec<Vec<PrimState>> {
        let mut tables: Vec<Vec<PrimState>> = vec![Vec::new(); self.nice.len()];
        for node in self.nice.post_order() {
            let bag = &self.bags[node.index()];
            let table = match self.nice.kind(node) {
                NiceKind::Leaf => self.leaf_table(bag),
                NiceKind::Introduce(e) => {
                    let child = self.nice.node(node).children[0];
                    let src = &tables[child.index()];
                    if self.is_attr(e) {
                        self.intro_attr(src, bag, e)
                    } else {
                        self.intro_fd(src, bag, e)
                    }
                }
                NiceKind::Forget(e) => {
                    let child = self.nice.node(node).children[0];
                    let src = &tables[child.index()];
                    let src_bag = &self.bags[child.index()];
                    if self.is_attr(e) {
                        self.remove_attr(src, src_bag, e)
                    } else {
                        self.remove_fd(src, src_bag, e)
                    }
                }
                NiceKind::Branch => {
                    let children = &self.nice.node(node).children;
                    self.branch_combine(
                        &tables[children[0].index()],
                        &tables[children[1].index()],
                        bag,
                    )
                }
            };
            tables[node.index()] = table;
        }
        tables
    }

    /// The top-down pass of §5.3: `solve↓` tables describing the envelope
    /// `T̄_s` of every node. The root's envelope is the root alone, so its
    /// table is the leaf rule; every step down inverts the parent's kind
    /// (an introduction becomes a removal and vice versa; a branch merges
    /// the parent's envelope with the sibling's bottom-up table).
    pub fn run_down(&self, up: &[Vec<PrimState>]) -> Vec<Vec<PrimState>> {
        let mut down: Vec<Vec<PrimState>> = vec![Vec::new(); self.nice.len()];
        for node in self.nice.pre_order() {
            if node == self.nice.root() {
                down[node.index()] = self.leaf_table(&self.bags[node.index()]);
                continue;
            }
            let parent = self.nice.node(node).parent.expect("non-root");
            let parent_bag = &self.bags[parent.index()];
            let node_bag = &self.bags[node.index()];
            let table = match self.nice.kind(parent) {
                NiceKind::Introduce(e) => {
                    // Going down, e leaves the bag.
                    if self.is_attr(e) {
                        self.remove_attr(&down[parent.index()], parent_bag, e)
                    } else {
                        self.remove_fd(&down[parent.index()], parent_bag, e)
                    }
                }
                NiceKind::Forget(e) => {
                    // Going down, e (re-)enters the bag; in the envelope it
                    // is fresh (its occurrences lie below this child).
                    if self.is_attr(e) {
                        self.intro_attr(&down[parent.index()], node_bag, e)
                    } else {
                        self.intro_fd(&down[parent.index()], node_bag, e)
                    }
                }
                NiceKind::Branch => {
                    let siblings = &self.nice.node(parent).children;
                    let sibling = if siblings[0] == node {
                        siblings[1]
                    } else {
                        siblings[0]
                    };
                    self.branch_combine(&down[parent.index()], &up[sibling.index()], node_bag)
                }
                NiceKind::Leaf => unreachable!("leaf cannot be a parent"),
            };
            down[node.index()] = table;
        }
        down
    }

    /// The acceptance test of the `success` / `prime()` rules: some state
    /// at `node` has `a ∉ Y`, `FY = {f ∈ Fd | rhs(f) ∉ Y}` and
    /// `ΔC = C° ∖ {a}`.
    pub fn accepts(&self, node: NodeId, table: &[PrimState], a: ElemId) -> bool {
        let bag = &self.bags[node.index()];
        let Some(apos) = bag.attr_pos(a) else {
            return false;
        };
        let na = bag.attrs.len();
        let full: u16 = if na == 16 { u16::MAX } else { (1 << na) - 1 };
        table.iter().any(|s| {
            if s.y >> apos & 1 == 1 {
                return false;
            }
            let co_mask = full & !s.y;
            if s.dc != co_mask & !(1 << apos) {
                return false;
            }
            s.fy == self.required_fy(bag, s.y)
        })
    }

    /// `{f ∈ Fd | rhs(f) ∉ Y}` as an FD mask.
    fn required_fy(&self, bag: &BagCtx, y: u16) -> u16 {
        let mut out = 0u16;
        for (j, &f) in bag.fds.iter().enumerate() {
            let rhs_pos = bag.attr_pos(self.fd_rhs(f)).expect("rhs in bag");
            if y >> rhs_pos & 1 == 0 {
                out |= 1 << j;
            }
        }
        out
    }
}

/// Sorts and deduplicates the states a transition pushed: the table form
/// every pass stores and [`PrimalityContext::accepts`] reads.
fn into_table(mut states: Vec<PrimState>) -> Vec<PrimState> {
    states.sort_unstable();
    states.dedup();
    states
}

/// Invokes `f` on every permutation of `buf[k..]` (after `buf[..k]`),
/// leaving `buf` as it found it.
fn permutations(buf: &mut [u8], k: usize, f: &mut impl FnMut(&[u8])) {
    if k == buf.len() {
        f(buf);
        return;
    }
    for i in k..buf.len() {
        buf.swap(k, i);
        permutations(buf, k + 1, f);
        buf.swap(k, i);
    }
}

// --- public API ------------------------------------------------------------------------

/// The PRIMALITY decision problem (§5.2): is `attr` part of a key?
/// Runs in time `f(w) · |(R, F)|` given bounded treewidth (Theorem 5.3).
pub fn is_prime_fpt(schema: &Schema, attr: AttrId) -> bool {
    let encoding = encode_schema(schema);
    let td = decompose(&encoding.structure, Heuristic::MinFill);
    is_prime_fpt_with_td(encoding, td, attr)
}

/// Decision variant reusing a caller-supplied decomposition.
///
/// # Panics
/// Panics if no bag of `td` contains `attr`, or on the bag cap of
/// [`PrimalityContext::for_decision`].
pub fn is_prime_fpt_with_td(encoding: SchemaEncoding, td: TreeDecomposition, attr: AttrId) -> bool {
    let ctx = PrimalityContext::for_decision(encoding, td, attr);
    let up = ctx.run_up();
    let root = ctx.nice.root();
    ctx.accepts(root, &up[root.index()], ctx.encoding.elem_of_attr(attr))
}

/// The PRIMALITY enumeration problem (§5.3, Theorem 5.4): all prime
/// attributes in a single bottom-up + top-down sweep (linear time for
/// bounded treewidth, instead of the quadratic "re-root for every
/// attribute" approach).
pub fn prime_attributes_fpt(schema: &Schema) -> Vec<AttrId> {
    let ctx = PrimalityContext::new(schema);
    let (primes, _) = enumerate_primes(&ctx);
    primes
        .into_iter()
        .map(|e| ctx.encoding.attr_of_elem(e).expect("attr element"))
        .collect()
}

/// Enumeration on a prepared context; returns prime attribute *elements*
/// and run statistics.
pub fn enumerate_primes(ctx: &PrimalityContext) -> (Vec<ElemId>, PrimStats) {
    let up = ctx.run_up();
    let down = ctx.run_down(&up);
    let stats = PrimStats {
        up_facts: up.iter().map(Vec::len).sum(),
        down_facts: down.iter().map(Vec::len).sum(),
        nodes: ctx.nice.len(),
        width: ctx.nice.width(),
    };
    let mut primes: FxHashSet<ElemId> = FxHashSet::default();
    for leaf in ctx.nice.leaves() {
        let table = &down[leaf.index()];
        for &e in ctx.nice.bag(leaf) {
            if ctx.is_attr(e) && !primes.contains(&e) && ctx.accepts(leaf, table, e) {
                primes.insert(e);
            }
        }
    }
    let mut out: Vec<ElemId> = primes.into_iter().collect();
    out.sort_unstable();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdtw_schema::{block_tree_instance, example_2_1, random_schema, seeded_rng};

    #[test]
    fn running_example_decision() {
        // Example 2.1: a, b, c, d prime; e, g not.
        let schema = example_2_1();
        for (name, expect) in [
            ("a", true),
            ("b", true),
            ("c", true),
            ("d", true),
            ("e", false),
            ("g", false),
        ] {
            let attr = schema.attr(name).unwrap();
            assert_eq!(is_prime_fpt(&schema, attr), expect, "attribute {name}");
        }
    }

    #[test]
    fn running_example_enumeration() {
        let schema = example_2_1();
        let primes = prime_attributes_fpt(&schema);
        let rendered = schema.render_set(&primes);
        assert_eq!(rendered, "abcd");
    }

    #[test]
    fn enumeration_matches_decision_on_random_schemas() {
        let mut rng = seeded_rng(11);
        for i in 0..20 {
            let schema = random_schema(&mut rng, 4 + i % 3, 2 + i % 3, 3);
            let primes = prime_attributes_fpt(&schema);
            for attr in schema.attrs() {
                assert_eq!(
                    primes.contains(&attr),
                    is_prime_fpt(&schema, attr),
                    "instance {i}, attr {attr:?}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_exact_key_enumeration_on_random_schemas() {
        let mut rng = seeded_rng(23);
        for i in 0..25 {
            let schema = random_schema(&mut rng, 4 + i % 3, 2 + i % 4, 3);
            let fpt = prime_attributes_fpt(&schema);
            let exact = schema.prime_attributes_exact();
            assert_eq!(fpt, exact, "instance {i}: {schema}");
        }
    }

    #[test]
    fn generated_block_trees_have_known_primes() {
        for k in [1, 2, 3, 5, 8] {
            let inst = block_tree_instance(k);
            let ctx = PrimalityContext::from_parts(inst.encoding, inst.td);
            let (prime_elems, stats) = enumerate_primes(&ctx);
            let primes: Vec<AttrId> = prime_elems
                .iter()
                .map(|&e| ctx.encoding.attr_of_elem(e).unwrap())
                .collect();
            assert_eq!(primes, inst.expected_primes, "k={k}");
            assert!(stats.up_facts > 0);
        }
    }

    #[test]
    fn schema_without_fds_has_all_attributes_prime() {
        let mut schema = Schema::new();
        for n in ["x", "y", "z"] {
            schema.add_attr(n);
        }
        let primes = prime_attributes_fpt(&schema);
        assert_eq!(primes.len(), 3);
        for a in schema.attrs() {
            assert!(is_prime_fpt(&schema, a));
        }
    }

    #[test]
    fn single_fd_schema() {
        // x → y: key = {x, z}; y not prime.
        let mut schema = Schema::new();
        let x = schema.add_attr("x");
        let y = schema.add_attr("y");
        let z = schema.add_attr("z");
        schema.add_fd(&[x], y);
        assert!(is_prime_fpt(&schema, x));
        assert!(!is_prime_fpt(&schema, y));
        assert!(is_prime_fpt(&schema, z));
        assert_eq!(prime_attributes_fpt(&schema), vec![x, z]);
    }

    #[test]
    fn cyclic_fds() {
        // x → y, y → x, plus z: keys {x, z} and {y, z}.
        let mut schema = Schema::new();
        let x = schema.add_attr("x");
        let y = schema.add_attr("y");
        let z = schema.add_attr("z");
        schema.add_fd(&[x], y);
        schema.add_fd(&[y], x);
        assert_eq!(prime_attributes_fpt(&schema), vec![x, y, z]);
    }

    #[test]
    fn nibble_helpers() {
        let co = 0u64;
        let co = co_insert(co, 0, 0, 3); // [3]
        let co = co_insert(co, 1, 0, 5); // [5, 3]
        let co = co_insert(co, 2, 2, 7); // [5, 3, 7]
        assert_eq!(co_get(co, 0), 5);
        assert_eq!(co_get(co, 1), 3);
        assert_eq!(co_get(co, 2), 7);
        assert_eq!(co_index_of(co, 3, 3), Some(1));
        assert_eq!(co_index_of(co, 3, 9), None);
        let co = co_remove(co, 1); // [5, 7]
        assert_eq!(co_get(co, 0), 5);
        assert_eq!(co_get(co, 1), 7);
        let mapped = co_map(co, 2, |p| p + 1);
        assert_eq!(co_get(mapped, 0), 6);
        assert_eq!(co_get(mapped, 1), 8);
    }

    #[test]
    fn mask_helpers() {
        assert_eq!(mask_lift(0b1011, 2), 0b10011);
        assert_eq!(mask_drop(0b10011, 2), 0b1011);
        assert_eq!(mask_lift(0b1, 0), 0b10);
        assert_eq!(mask_drop(0b10, 0), 0b1);
    }
}

/// The FPT third-normal-form test the paper motivates in §2.1: 3NF
/// violations computed with the Figure 6 primality oracle, so the whole
/// check is fixed-parameter linear for bounded treewidth (one §5.3
/// enumeration pass supplies every primality answer at once).
pub fn third_nf_violations_fpt(schema: &Schema) -> Vec<mdtw_schema::ThirdNfViolation> {
    let primes = prime_attributes_fpt(schema);
    mdtw_schema::third_nf_violations_with(schema, |a| primes.binary_search(&a).is_ok())
}

/// True if the schema is in third normal form (FPT test).
pub fn is_3nf_fpt(schema: &Schema) -> bool {
    third_nf_violations_fpt(schema).is_empty()
}

#[cfg(test)]
mod nf_tests {
    use super::*;
    use mdtw_schema::{example_2_1, is_3nf_exact, random_schema, seeded_rng};

    #[test]
    fn fpt_3nf_matches_exact_on_running_example() {
        let schema = example_2_1();
        assert!(!is_3nf_fpt(&schema));
        assert_eq!(is_3nf_fpt(&schema), is_3nf_exact(&schema));
    }

    #[test]
    fn fpt_3nf_matches_exact_on_random_schemas() {
        let mut rng = seeded_rng(404);
        for i in 0..25 {
            let schema = random_schema(&mut rng, 4 + i % 3, 2 + i % 4, 3);
            assert_eq!(
                is_3nf_fpt(&schema),
                is_3nf_exact(&schema),
                "instance {i}: {schema}"
            );
        }
    }

    #[test]
    fn violations_identify_offending_fds() {
        let schema = example_2_1();
        let violations = third_nf_violations_fpt(&schema);
        assert!(!violations.is_empty());
        for v in &violations {
            let fd = &schema.fds()[v.fd_index];
            assert_eq!(fd.rhs, v.rhs);
            assert!(!schema.is_superkey(&fd.lhs));
        }
    }
}
