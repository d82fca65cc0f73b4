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
//! A pass keeps the tables of all nodes in one arena, [`PrimTables`]: a
//! single `Vec<PrimState>` and a `(start, end)` span per node. Every
//! transition pushes the states it derives into one scratch buffer that
//! the pass reuses; the pass sorts and deduplicates the buffer and appends
//! it to the arena, so each table is a sorted set and a pass allocates
//! nothing per node. [`PrimalityContext`] compiles the bags once, in CSR
//! form: per bag its attributes and FDs, and per FD the bag position of
//! its right-hand side (`u8`) and the bag positions of its left-hand side
//! as a mask (`u16`). Every predicate of Figure 6 is then a few mask
//! operations indexed by FD position. The §5.3 `prime()` check reads each
//! leaf's `solve↓` table once: a state with `FY = {f | rhs(f) ∉ Y}` and
//! `ΔC ⊆ C°` accepts the one attribute of `C°` that `ΔC` lacks, if `ΔC`
//! lacks exactly one.

use mdtw_decomp::{
    augment_bags, decompose, Heuristic, NiceKind, NiceOptions, NiceTd, NodeId, TreeDecomposition,
};
use mdtw_schema::{encode_schema, AttrId, Schema, SchemaEncoding};
use mdtw_structure::ElemId;
use std::cmp::Ordering;
use std::ops::{Index, Range};

/// One `solve` fact, packed bag-locally. Attribute components are bitmasks
/// over the sorted *attribute positions* of the bag; FD components over
/// the sorted *FD positions*. `co` stores the ordering of the complement
/// `C°` as 4-bit attribute positions (lowest nibble first); its length is
/// `#bag-attrs − popcount(y)`.
///
/// The field order is the sort order of a table: `(Y, FC, C°)` first, the
/// key on which a branch node joins its two children's tables, so the
/// branch rule merges them without sorting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrimState {
    /// Bag attributes in `Y`.
    pub y: u16,
    /// Bag FDs used in the derivation (`FC`).
    pub fc: u16,
    /// The order of `C°`, packed in nibbles.
    pub co: u64,
    /// Bag attributes with a witnessed derivation (`ΔC ⊆ C°`).
    pub dc: u16,
    /// Bag FDs verified non-contradicting (`FY`).
    pub fy: u16,
}

/// The tables of one pass, one per nice node, in a single arena: every
/// state of the pass in one `Vec<PrimState>`, and per node the span of
/// its table. `tables[node.index()]` is that node's table, a sorted and
/// deduplicated slice.
#[derive(Debug, Clone)]
pub struct PrimTables {
    states: Vec<PrimState>,
    spans: Vec<(u32, u32)>,
}

impl PrimTables {
    /// Empty tables for `nodes` nodes.
    fn with_nodes(nodes: usize) -> Self {
        Self {
            states: Vec::new(),
            spans: vec![(0, 0); nodes],
        }
    }

    /// Sorts and deduplicates the states a transition pushed into
    /// `scratch` and appends them as the table of `node`.
    fn append(&mut self, node: NodeId, scratch: &mut Vec<PrimState>) {
        scratch.sort_unstable();
        scratch.dedup();
        let span = |at: usize| u32::try_from(at).expect("a pass holds fewer than 2³² states");
        let start = span(self.states.len());
        self.states.extend_from_slice(scratch);
        self.spans[node.index()] = (start, span(self.states.len()));
    }

    /// The number of states over all tables.
    pub fn facts(&self) -> usize {
        self.states.len()
    }

    /// The tables in node order.
    pub fn iter(&self) -> impl Iterator<Item = &[PrimState]> {
        self.spans
            .iter()
            .map(|&(start, end)| &self.states[start as usize..end as usize])
    }
}

impl Index<usize> for PrimTables {
    type Output = [PrimState];

    /// The table of the node with index `node`.
    fn index(&self, node: usize) -> &[PrimState] {
        let (start, end) = self.spans[node];
        &self.states[start as usize..end as usize]
    }
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

// --- bag contexts ------------------------------------------------------------

/// The bags of the nice decomposition, compiled once in CSR form: node
/// `n`'s attributes are `attrs[offsets[n].0..offsets[n + 1].0]` and its
/// FDs `fds[offsets[n].1..offsets[n + 1].1]` (both sorted); `rhs` and
/// `lhs` run parallel to `fds`.
#[derive(Debug)]
struct BagStore {
    offsets: Vec<(usize, usize)>,
    attrs: Vec<ElemId>,
    fds: Vec<ElemId>,
    /// The bag position of each FD's right-hand side.
    rhs: Vec<u8>,
    /// The bag positions of each FD's left-hand-side attributes, as a mask
    /// (attributes outside the bag are left out).
    lhs: Vec<u16>,
}

impl BagStore {
    /// Splits every bag into attributes and FDs and compiles each FD's
    /// sides into bag positions. `PrimState` packs each component into a
    /// `u16` mask and `C°` into 16 nibbles, hence the 16-attribute /
    /// 16-FD cap per bag, checked here.
    fn compile(nice: &NiceTd, info: &[ElemInfo], lhs_cells: &[ElemId]) -> Self {
        let fds = nice
            .node_ids()
            .flat_map(|n| nice.bag(n))
            .filter(|e| info[e.index()].rhs().is_some())
            .count();
        let cells: usize = nice.node_ids().map(|n| nice.bag(n).len()).sum();
        let mut store = Self {
            offsets: Vec::with_capacity(nice.len() + 1),
            attrs: Vec::with_capacity(cells - fds),
            fds: Vec::with_capacity(fds),
            rhs: Vec::with_capacity(fds),
            lhs: Vec::with_capacity(fds),
        };
        store.offsets.push((0, 0));
        for n in nice.node_ids() {
            let bag = nice.bag(n);
            let first_attr = store.attrs.len();
            let first_fd = store.fds.len();
            store.attrs.extend(
                bag.iter()
                    .filter(|e| matches!(info[e.index()], ElemInfo::Attr)),
            );
            let attrs = &store.attrs[first_attr..];
            assert!(attrs.len() <= 16, "bag attribute count exceeds 16");
            for &f in bag {
                let ElemInfo::Fd { rhs, lhs } = &info[f.index()] else {
                    continue;
                };
                let rhs_pos = attrs
                    .binary_search(rhs)
                    .expect("rhs attribute accompanies its FD in every bag");
                store.fds.push(f);
                store.rhs.push(rhs_pos as u8);
                store.lhs.push(
                    lhs_cells[lhs.start as usize..lhs.end as usize]
                        .iter()
                        .filter_map(|b| attrs.binary_search(b).ok())
                        .fold(0, |m, p| m | 1 << p),
                );
            }
            assert!(store.fds.len() - first_fd <= 16, "bag FD count exceeds 16");
            store.offsets.push((store.attrs.len(), store.fds.len()));
        }
        store
    }

    /// The compiled bag of `node`.
    fn get(&self, node: NodeId) -> BagCtx<'_> {
        let (a0, f0) = self.offsets[node.index()];
        let (a1, f1) = self.offsets[node.index() + 1];
        let f = f0..f1;
        BagCtx {
            attrs: &self.attrs[a0..a1],
            fds: &self.fds[f.clone()],
            rhs: &self.rhs[f.clone()],
            lhs: &self.lhs[f],
        }
    }
}

/// One compiled bag: its attribute and FD elements, and per FD position
/// `j` the attribute position `rhs[j]` of `rhs(f)` and the attribute mask
/// `lhs[j]` of `lhs(f)`.
#[derive(Debug, Clone, Copy)]
struct BagCtx<'a> {
    attrs: &'a [ElemId],
    fds: &'a [ElemId],
    rhs: &'a [u8],
    lhs: &'a [u16],
}

impl BagCtx<'_> {
    fn attr_pos(&self, e: ElemId) -> Option<usize> {
        self.attrs.binary_search(&e).ok()
    }

    fn fd_pos(&self, e: ElemId) -> Option<usize> {
        self.fds.binary_search(&e).ok()
    }

    /// All attribute positions of the bag as a mask.
    fn full(&self) -> u16 {
        ((1u32 << self.attrs.len()) - 1) as u16
    }

    // --- predicates of Figure 6 --------------------------------------------

    /// `outside(·, Y, At, {f})` for the FD at position `j`: `rhs(f) ∉ Y`
    /// and some lhs attribute of `f` present in the bag lies outside `Y`.
    fn fd_outside(&self, y: u16, j: usize) -> bool {
        y >> self.rhs[j] & 1 == 0 && self.lhs[j] & !y != 0
    }

    /// The full `outside(FY, Y, At, Fd)` mask over the bag's FDs.
    fn outside_mask(&self, y: u16) -> u16 {
        (0..self.fds.len())
            .filter(|&j| self.fd_outside(y, j))
            .fold(0, |m, j| m | 1 << j)
    }

    /// The FDs of the mask `fds` that satisfy `consistent({f}, C°)`:
    /// `rhs(f) ∈ C°` and every lhs attribute of `f` that is in `C°`
    /// precedes `rhs(f)` in the order. One walk of `C°` records the mask
    /// of the positions preceding each position.
    fn consistent_fds(&self, y: u16, co: u64, co_len: usize, fds: u16) -> u16 {
        let mut before = [0u16; 16];
        let mut seen = 0u16;
        for i in 0..co_len {
            let p = co_get(co, i);
            before[p as usize] = seen;
            seen |= 1 << p;
        }
        let mut out = 0u16;
        let mut bits = fds;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let r = self.rhs[j];
            if seen >> r & 1 == 1 && self.lhs[j] & !y & !before[r as usize] == 0 {
                out |= 1 << j;
            }
        }
        out
    }

    /// The positions `{rhs(f) | f ∈ fc}` as an attribute mask.
    fn rhs_mask(&self, fc: u16) -> u16 {
        let mut out = 0u16;
        let mut bits = fc;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            out |= 1 << self.rhs[j];
        }
        out
    }

    /// `{f ∈ Fd | rhs(f) ∉ Y}` as an FD mask.
    fn required_fy(&self, y: u16) -> u16 {
        (0..self.fds.len())
            .filter(|&j| y >> self.rhs[j] & 1 == 0)
            .fold(0, |m, j| m | 1 << j)
    }

    /// The acceptance test of the `success` / `prime()` rules for every
    /// bag attribute at once. `s` accepts `a` iff `a ∉ Y`, `ΔC = C° ∖ {a}`
    /// and `FY = {f ∈ Fd | rhs(f) ∉ Y}`, so it accepts at most one
    /// attribute: the single position of `C° ∖ ΔC`, when `ΔC ⊆ C°` and `FY`
    /// is that mask.
    fn accepted(&self, s: &PrimState) -> Option<usize> {
        let co = self.full() & !s.y;
        let missing = co & !s.dc;
        (missing.count_ones() == 1 && s.dc & !co == 0 && s.fy == self.required_fy(s.y))
            .then(|| missing.trailing_zeros() as usize)
    }
}

/// Per-element classification derived from the τ-structure.
#[derive(Debug, Clone)]
enum ElemInfo {
    Attr,
    /// An FD with its right-hand side and the range of its left-hand side
    /// in the flat list [`PrimalityContext::classify`] returns.
    Fd {
        rhs: ElemId,
        lhs: Range<u32>,
    },
}

impl ElemInfo {
    /// The right-hand side of an FD element; `None` for an attribute.
    fn rhs(&self) -> Option<ElemId> {
        match self {
            ElemInfo::Fd { rhs, .. } => Some(*rhs),
            ElemInfo::Attr => None,
        }
    }
}

/// Everything needed to run the Figure 6 / §5.3 computations: the encoded
/// schema, an rhs-augmented nice tree decomposition and its compiled bags.
#[derive(Debug)]
pub struct PrimalityContext {
    /// The τ-structure encoding of the schema.
    pub encoding: SchemaEncoding,
    /// The nice tree decomposition (every element occurs in a leaf bag,
    /// supporting the §5.3 `prime()` rule).
    pub nice: NiceTd,
    info: Vec<ElemInfo>,
    bags: BagStore,
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
    pub fn from_parts(encoding: SchemaEncoding, td: TreeDecomposition) -> Self {
        let options = NiceOptions {
            every_elem_in_leaf: true,
        };
        Self::assemble(encoding, td, options)
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
        let elem = encoding.elem_of_attr(target);
        let host = td
            .node_ids()
            .find(|&n| td.bag_contains(n, elem))
            .expect("attribute occurs in some bag");
        td.reroot(host);
        let ctx = Self::assemble(encoding, td, NiceOptions::default());
        debug_assert!(ctx.nice.bag_contains(ctx.nice.root(), elem));
        ctx
    }

    /// Augments every bag with the rhs attributes of its FDs (§5.2), turns
    /// `td` into a nice decomposition with FDs ranked above attributes and
    /// compiles its bags.
    fn assemble(encoding: SchemaEncoding, mut td: TreeDecomposition, options: NiceOptions) -> Self {
        let (info, lhs) = Self::classify(&encoding);
        augment_bags(&mut td, |e| info[e.index()].rhs());
        let rank = |e: ElemId| u8::from(info[e.index()].rhs().is_some());
        let nice = NiceTd::from_td_with_rank(&td, options, &rank);
        let bags = BagStore::compile(&nice, &info, &lhs);
        Self {
            encoding,
            nice,
            info,
            bags,
        }
    }

    /// Classifies every element, and lists the left-hand sides of all FDs
    /// flat, each FD's attributes in `lh` order.
    fn classify(encoding: &SchemaEncoding) -> (Vec<ElemInfo>, Vec<ElemId>) {
        let s = &encoding.structure;
        let n = s.domain().len();
        let lh = s.signature().lookup("lh").expect("lh");
        let rh = s.signature().lookup("rh").expect("rh");
        let fd = s.signature().lookup("fd").expect("fd");
        let mut rhs_of: Vec<Option<ElemId>> = vec![None; n];
        for t in s.relation(rh).iter() {
            rhs_of[t[1].index()] = Some(t[0]);
        }
        // `start[f]..start[f + 1]` is FD `f`'s slice of `lhs`.
        let mut start = vec![0u32; n + 1];
        for t in s.relation(lh).iter() {
            start[t[1].index() + 1] += 1;
        }
        for e in 0..n {
            start[e + 1] += start[e];
        }
        let mut fill = start.clone();
        let mut lhs = vec![ElemId(0); s.relation(lh).len()];
        for t in s.relation(lh).iter() {
            lhs[fill[t[1].index()] as usize] = t[0];
            fill[t[1].index()] += 1;
        }
        let info = s
            .domain()
            .elems()
            .map(|e| {
                if s.holds(fd, &[e]) {
                    ElemInfo::Fd {
                        rhs: rhs_of[e.index()].expect("FD has an rhs"),
                        lhs: start[e.index()]..start[e.index() + 1],
                    }
                } else {
                    ElemInfo::Attr
                }
            })
            .collect();
        (info, lhs)
    }

    fn is_attr(&self, e: ElemId) -> bool {
        matches!(self.info[e.index()], ElemInfo::Attr)
    }

    // --- the leaf rule -------------------------------------------------------

    /// All `solve` facts at a bag treated as a leaf (also the `solve↓`
    /// initialization at the root, whose envelope is the root alone).
    fn leaf_table(&self, bag: BagCtx<'_>, out: &mut Vec<PrimState>) {
        let na = bag.attrs.len();
        let all_fds = ((1u32 << bag.fds.len()) - 1) as u16;
        let mut comp = [0u8; 16];
        for y in 0..=bag.full() {
            let mut co_len = 0;
            for p in (0..na as u8).filter(|&p| y >> p & 1 == 0) {
                comp[co_len] = p;
                co_len += 1;
            }
            let fy = bag.outside_mask(y);
            permutations(&mut comp[..co_len], 0, &mut |order| {
                let co = order
                    .iter()
                    .enumerate()
                    .fold(0u64, |co, (i, &p)| co | (p as u64) << (4 * i));
                // Every FC of consistent FDs with distinct right-hand sides.
                let consistent = bag.consistent_fds(y, co, co_len, all_fds);
                let mut fc = consistent;
                loop {
                    let dc = bag.rhs_mask(fc);
                    if dc.count_ones() == fc.count_ones() {
                        out.push(PrimState { y, dc, fy, fc, co });
                    }
                    if fc == 0 {
                        break;
                    }
                    fc = (fc - 1) & consistent;
                }
            });
        }
    }

    // --- introduction rules ---------------------------------------------------

    /// Attribute introduction (two rules of Figure 6): the destination bag
    /// adds attribute `b` to the source bag.
    fn intro_attr(
        &self,
        src: &[PrimState],
        dst_bag: BagCtx<'_>,
        b: ElemId,
        out: &mut Vec<PrimState>,
    ) {
        let bpos = dst_bag.attr_pos(b).expect("introduced attr in bag");
        let na = dst_bag.attrs.len();
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
            let fy = s.fy | dst_bag.outside_mask(y);
            for k in 0..=co_len {
                let co = co_insert(lifted_co, co_len, k, bpos as u8);
                if dst_bag.consistent_fds(y, co, co_len + 1, s.fc) != s.fc {
                    continue;
                }
                out.push(PrimState {
                    y,
                    dc,
                    fy,
                    fc: s.fc,
                    co,
                });
            }
        }
    }

    /// FD introduction (three rules of Figure 6): the destination bag adds
    /// FD `f`.
    fn intro_fd(
        &self,
        src: &[PrimState],
        dst_bag: BagCtx<'_>,
        f: ElemId,
        out: &mut Vec<PrimState>,
    ) {
        let fpos = dst_bag.fd_pos(f).expect("introduced FD in bag");
        let rhs_pos = dst_bag.rhs[fpos];
        let na = dst_bag.attrs.len();
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
            let witnessed = u16::from(dst_bag.fd_outside(s.y, fpos)) << fpos;
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
            if s.dc >> rhs_pos & 1 == 0 && dst_bag.consistent_fds(s.y, s.co, co_len, 1 << fpos) != 0
            {
                out.push(PrimState {
                    y: s.y,
                    dc: s.dc | 1 << rhs_pos,
                    fy: fy | witnessed,
                    fc: fc | 1 << fpos,
                    co: s.co,
                });
            }
        }
    }

    // --- removal rules ----------------------------------------------------------

    /// Attribute removal (two rules): the destination bag lacks attribute
    /// `b`, which sits at position `bpos` of the source bag.
    fn remove_attr(
        &self,
        src: &[PrimState],
        src_bag: BagCtx<'_>,
        b: ElemId,
        out: &mut Vec<PrimState>,
    ) {
        let bpos = src_bag.attr_pos(b).expect("removed attr in source bag");
        let na = src_bag.attrs.len();
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
    }

    /// FD removal (three rules): the destination bag lacks FD `f`.
    fn remove_fd(
        &self,
        src: &[PrimState],
        src_bag: BagCtx<'_>,
        f: ElemId,
        out: &mut Vec<PrimState>,
    ) {
        let fpos = src_bag.fd_pos(f).expect("removed FD in source bag");
        let rhs_pos = src_bag.rhs[fpos];
        for s in src {
            if s.y >> rhs_pos & 1 == 1 {
                // Case 1: rhs ∈ Y. Invariant: f ∉ FY, f ∉ FC.
                debug_assert_eq!(s.fy >> fpos & 1, 0);
                debug_assert_eq!(s.fc >> fpos & 1, 0);
            } else if s.fy >> fpos & 1 == 0 {
                // Cases 2 and 3: rhs ∈ C° — f must be verified (f ∈ FY).
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

    // --- branch rule ---------------------------------------------------------------

    /// Branch combination: same `Y`, same `C°` order, same `FC`; `FY` and
    /// `ΔC` are united, with `unique(ΔC₁, ΔC₂, FC)` forbidding an attribute
    /// from being derived in both subtrees by different FDs.
    ///
    /// A sort-merge join on `(Y, FC, C°)`: both tables are sorted on that
    /// key already (it leads [`PrimState`]'s field order), so one merge
    /// pass pairs every run of equal keys on the left with the matching
    /// run on the right.
    fn branch_combine(
        &self,
        left: &[PrimState],
        right: &[PrimState],
        bag: BagCtx<'_>,
        out: &mut Vec<PrimState>,
    ) {
        let key = |s: &PrimState| (s.y, s.fc, s.co);
        let run_end = |t: &[PrimState], at: usize| {
            let k = key(&t[at]);
            at + t[at..].partition_point(|s| key(s) == k)
        };
        let (mut i, mut j) = (0, 0);
        while i < left.len() && j < right.len() {
            match key(&left[i]).cmp(&key(&right[j])) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    let (i_end, j_end) = (run_end(left, i), run_end(right, j));
                    let shared = bag.rhs_mask(left[i].fc);
                    for l in &left[i..i_end] {
                        for r in &right[j..j_end] {
                            if l.dc & r.dc != shared {
                                continue; // unique(ΔC₁, ΔC₂, FC) violated
                            }
                            out.push(PrimState {
                                dc: l.dc | r.dc,
                                fy: l.fy | r.fy,
                                ..*l
                            });
                        }
                    }
                    (i, j) = (i_end, j_end);
                }
            }
        }
    }

    // --- passes ----------------------------------------------------------------------

    /// The bottom-up pass: `solve` tables for every node (Figure 6), in
    /// one arena. `tables[node.index()]` is the table of `node`.
    pub fn run_up(&self) -> PrimTables {
        let mut tables = PrimTables::with_nodes(self.nice.len());
        let mut scratch = Vec::new();
        for node in self.nice.post_order() {
            let bag = self.bags.get(node);
            let mut children = self.nice.children(node);
            scratch.clear();
            match (self.nice.kind(node), children.next(), children.next()) {
                (NiceKind::Leaf, None, None) => self.leaf_table(bag, &mut scratch),
                (NiceKind::Introduce(e), Some(child), None) => {
                    let src = &tables[child.index()];
                    if self.is_attr(e) {
                        self.intro_attr(src, bag, e, &mut scratch);
                    } else {
                        self.intro_fd(src, bag, e, &mut scratch);
                    }
                }
                (NiceKind::Forget(e), Some(child), None) => {
                    let src = &tables[child.index()];
                    let src_bag = self.bags.get(child);
                    if self.is_attr(e) {
                        self.remove_attr(src, src_bag, e, &mut scratch);
                    } else {
                        self.remove_fd(src, src_bag, e, &mut scratch);
                    }
                }
                (NiceKind::Branch, Some(left), Some(right)) => self.branch_combine(
                    &tables[left.index()],
                    &tables[right.index()],
                    bag,
                    &mut scratch,
                ),
                _ => unreachable!("a nice node's kind gives its child count"),
            }
            tables.append(node, &mut scratch);
        }
        tables
    }

    /// The top-down pass of §5.3: `solve↓` tables describing the envelope
    /// `T̄_s` of every node, in one arena like [`run_up`](Self::run_up)'s.
    /// The root's envelope is the root alone, so its table is the leaf
    /// rule; every step down inverts the parent's kind (an introduction
    /// becomes a removal and vice versa; a branch merges the parent's
    /// envelope with the sibling's bottom-up table from `up`).
    pub fn run_down(&self, up: &PrimTables) -> PrimTables {
        let mut down = PrimTables::with_nodes(self.nice.len());
        // An envelope's table is about as large as its subtree's.
        down.states.reserve(up.facts());
        let mut scratch = Vec::new();
        for node in self.nice.pre_order() {
            let node_bag = self.bags.get(node);
            scratch.clear();
            let Some(parent) = self.nice.parent(node) else {
                self.leaf_table(node_bag, &mut scratch);
                down.append(node, &mut scratch);
                continue;
            };
            let parent_bag = self.bags.get(parent);
            let src = &down[parent.index()];
            match self.nice.kind(parent) {
                NiceKind::Introduce(e) => {
                    // Going down, e leaves the bag.
                    if self.is_attr(e) {
                        self.remove_attr(src, parent_bag, e, &mut scratch);
                    } else {
                        self.remove_fd(src, parent_bag, e, &mut scratch);
                    }
                }
                NiceKind::Forget(e) => {
                    // Going down, e (re-)enters the bag; in the envelope it
                    // is fresh (its occurrences lie below this child).
                    if self.is_attr(e) {
                        self.intro_attr(src, node_bag, e, &mut scratch);
                    } else {
                        self.intro_fd(src, node_bag, e, &mut scratch);
                    }
                }
                NiceKind::Branch => {
                    let mut siblings = self.nice.children(parent);
                    let first = siblings.next().expect("a branch node has children");
                    let sibling = if first == node {
                        siblings.next().expect("a branch node has two children")
                    } else {
                        first
                    };
                    self.branch_combine(src, &up[sibling.index()], node_bag, &mut scratch);
                }
                NiceKind::Leaf => unreachable!("leaf cannot be a parent"),
            }
            down.append(node, &mut scratch);
        }
        down
    }

    /// The acceptance test of the `success` / `prime()` rules: some state
    /// at `node` has `a ∉ Y`, `FY = {f ∈ Fd | rhs(f) ∉ Y}` and
    /// `ΔC = C° ∖ {a}`.
    pub fn accepts(&self, node: NodeId, table: &[PrimState], a: ElemId) -> bool {
        let bag = self.bags.get(node);
        let Some(apos) = bag.attr_pos(a) else {
            return false;
        };
        table.iter().any(|s| bag.accepted(s) == Some(apos))
    }
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
/// and run statistics. Each leaf's `solve↓` table is read once: every
/// state marks the attribute it accepts, if any.
pub fn enumerate_primes(ctx: &PrimalityContext) -> (Vec<ElemId>, PrimStats) {
    let up = ctx.run_up();
    let down = ctx.run_down(&up);
    let stats = PrimStats {
        up_facts: up.facts(),
        down_facts: down.facts(),
        nodes: ctx.nice.len(),
        width: ctx.nice.width(),
    };
    let mut prime = vec![false; ctx.info.len()];
    for leaf in ctx.nice.leaves() {
        let bag = ctx.bags.get(leaf);
        for s in &down[leaf.index()] {
            if let Some(p) = bag.accepted(s) {
                prime[bag.attrs[p].index()] = true;
            }
        }
    }
    let out = prime
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p)
        .map(|(e, _)| ElemId(e as u32))
        .collect();
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
    fn attributes_named_like_fd_elements_keep_their_primes() {
        // `f1` is also the name `encode_schema` gives the first FD.
        let mut schema = Schema::new();
        let f1 = schema.add_attr("f1");
        let f2 = schema.add_attr("f2");
        let x = schema.add_attr("x");
        schema.add_fd(&[f1], x);
        schema.add_fd(&[x], f2);
        let primes = prime_attributes_fpt(&schema);
        let brute: Vec<AttrId> = schema
            .attrs()
            .filter(|&a| schema.is_prime_bruteforce(a))
            .collect();
        assert_eq!(primes, brute);
        assert_eq!(primes, [f1]);
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

    /// The table a transition derives: its pushed states, sorted and
    /// deduplicated.
    fn table_of(transition: impl FnOnce(&mut Vec<PrimState>)) -> Vec<PrimState> {
        let mut out = Vec::new();
        transition(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    // --- the element-list definitions the mask predicates compile --------

    fn fd_rhs(ctx: &PrimalityContext, f: ElemId) -> ElemId {
        ctx.info[f.index()].rhs().expect("element is an FD")
    }

    /// The left-hand side of FD `f`, read off the `lh` relation.
    fn fd_lhs(ctx: &PrimalityContext, f: ElemId) -> Vec<ElemId> {
        let s = &ctx.encoding.structure;
        let lh = s.signature().lookup("lh").expect("lh");
        s.relation(lh)
            .iter()
            .filter(|t| t[1] == f)
            .map(|t| t[0])
            .collect()
    }

    /// `outside(·, Y, At, {f})` by binary searches of the bag.
    fn fd_outside_reference(ctx: &PrimalityContext, bag: BagCtx<'_>, y: u16, f: ElemId) -> bool {
        let rhs_pos = bag.attr_pos(fd_rhs(ctx, f)).expect("rhs in bag");
        if y >> rhs_pos & 1 == 1 {
            return false;
        }
        fd_lhs(ctx, f)
            .into_iter()
            .any(|b| bag.attr_pos(b).is_some_and(|p| y >> p & 1 == 0))
    }

    /// `consistent({f}, C°)` by looking up the index in `C°` of `rhs(f)`
    /// and of every lhs attribute of `f`.
    fn fd_consistent_reference(
        ctx: &PrimalityContext,
        bag: BagCtx<'_>,
        y: u16,
        co: u64,
        co_len: usize,
        f: ElemId,
    ) -> bool {
        let rhs_pos = bag.attr_pos(fd_rhs(ctx, f)).expect("rhs in bag") as u8;
        let Some(rhs_idx) = co_index_of(co, co_len, rhs_pos) else {
            return false; // rhs ∈ Y
        };
        for b in fd_lhs(ctx, f) {
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

    /// `{rhs(f) | f ∈ fc}` by binary searches of the bag.
    fn rhs_mask_reference(ctx: &PrimalityContext, bag: BagCtx<'_>, fc: u16) -> u16 {
        (0..bag.fds.len())
            .filter(|&j| fc >> j & 1 == 1)
            .map(|j| 1u16 << bag.attr_pos(fd_rhs(ctx, bag.fds[j])).expect("rhs in bag"))
            .fold(0, |m, b| m | b)
    }

    /// `{f ∈ Fd | rhs(f) ∉ Y}` by binary searches of the bag.
    fn required_fy_reference(ctx: &PrimalityContext, bag: BagCtx<'_>, y: u16) -> u16 {
        (0..bag.fds.len())
            .filter(|&j| {
                let rhs_pos = bag.attr_pos(fd_rhs(ctx, bag.fds[j])).expect("rhs in bag");
                y >> rhs_pos & 1 == 0
            })
            .fold(0, |m, j| m | 1 << j)
    }

    /// The acceptance test for one attribute `a`, scanning the table.
    fn accepts_reference(
        ctx: &PrimalityContext,
        bag: BagCtx<'_>,
        table: &[PrimState],
        a: ElemId,
    ) -> bool {
        let Some(apos) = bag.attr_pos(a) else {
            return false;
        };
        let full = ((1u32 << bag.attrs.len()) - 1) as u16;
        table.iter().any(|s| {
            s.y >> apos & 1 == 0
                && s.dc == full & !s.y & !(1 << apos)
                && s.fy == required_fy_reference(ctx, bag, s.y)
        })
    }

    /// Compares every mask predicate with its element-list definition:
    /// `fd_outside`, `outside_mask` and `required_fy` on every `Y` of every
    /// bag, `rhs_mask` on every `FC`, `consistent_fds` on every `(Y, C°)`
    /// of a `run_up` or `run_down` table, and `accepts` on every bag
    /// attribute of those tables.
    #[test]
    fn mask_predicates_match_the_element_list_definitions() {
        let mut rng = seeded_rng(17);
        let (mut consistent, mut inconsistent, mut accepted) = (0, 0, 0);
        for i in 0..20 {
            let schema = random_schema(&mut rng, 4 + i % 3, 2 + i % 4, 3);
            let ctx = PrimalityContext::new(&schema);
            let up = ctx.run_up();
            let down = ctx.run_down(&up);
            for node in ctx.nice.node_ids() {
                let bag = ctx.bags.get(node);
                let what = format!("{schema}, node {node}");
                for y in 0..=bag.full() {
                    for (j, &f) in bag.fds.iter().enumerate() {
                        let expect = fd_outside_reference(&ctx, bag, y, f);
                        assert_eq!(bag.fd_outside(y, j), expect, "{what}: y {y:b}, FD {j}");
                    }
                    let outside = (0..bag.fds.len())
                        .filter(|&j| fd_outside_reference(&ctx, bag, y, bag.fds[j]))
                        .fold(0, |m, j| m | 1 << j);
                    assert_eq!(bag.outside_mask(y), outside, "{what}: y {y:b}");
                    let required = required_fy_reference(&ctx, bag, y);
                    assert_eq!(bag.required_fy(y), required, "{what}: y {y:b}");
                }
                for fc in 0..1u32 << bag.fds.len() {
                    let fc = fc as u16;
                    let expect = rhs_mask_reference(&ctx, bag, fc);
                    assert_eq!(bag.rhs_mask(fc), expect, "{what}: fc {fc:b}");
                }
                for table in [&up[node.index()], &down[node.index()]] {
                    for s in table {
                        let co_len = bag.attrs.len() - s.y.count_ones() as usize;
                        let mut all = 0u16;
                        for (j, &f) in bag.fds.iter().enumerate() {
                            let expect = fd_consistent_reference(&ctx, bag, s.y, s.co, co_len, f);
                            let got = bag.consistent_fds(s.y, s.co, co_len, 1 << j) != 0;
                            assert_eq!(got, expect, "{what}: {s:?}, FD {j}");
                            all |= u16::from(expect) << j;
                            consistent += usize::from(expect);
                            inconsistent += usize::from(!expect);
                        }
                        let every_fd = ((1u32 << bag.fds.len()) - 1) as u16;
                        let got = bag.consistent_fds(s.y, s.co, co_len, every_fd);
                        assert_eq!(got, all, "{what}: {s:?}");
                    }
                    for &a in bag.attrs {
                        let expect = accepts_reference(&ctx, bag, table, a);
                        assert_eq!(ctx.accepts(node, table, a), expect, "{what}: {a:?}");
                        accepted += usize::from(expect);
                    }
                }
            }
        }
        assert!(consistent > 1000, "only {consistent} consistent FD tests");
        assert!(
            inconsistent > 1000,
            "only {inconsistent} inconsistent FD tests"
        );
        assert!(accepted > 100, "only {accepted} accepting tables");
    }

    /// The branch rule by nested loops over both tables, with the shared
    /// `rhs(FC)` mask recomputed per pair.
    fn branch_combine_reference(
        ctx: &PrimalityContext,
        left: &[PrimState],
        right: &[PrimState],
        bag: BagCtx<'_>,
    ) -> Vec<PrimState> {
        let mut out = std::collections::BTreeSet::new();
        for l in left {
            for r in right {
                if (l.y, l.co, l.fc) != (r.y, r.co, r.fc) {
                    continue;
                }
                let shared = rhs_mask_reference(ctx, bag, l.fc);
                if l.dc & r.dc == shared {
                    out.insert(PrimState {
                        dc: l.dc | r.dc,
                        fy: l.fy | r.fy,
                        ..*l
                    });
                }
            }
        }
        out.into_iter().collect()
    }

    /// Checks every branch node's `run_up` table and its children's
    /// `run_down` tables against the reference, then joins sub-tables of
    /// the same inputs (every other state of one side, so the two sides'
    /// key sets differ) and every key-matching pair on its own; returns the
    /// number of table joins whose result is not empty.
    fn check_branch_joins(ctx: &PrimalityContext, what: &str) -> usize {
        let halve = |t: &[PrimState], parity: usize| -> Vec<PrimState> {
            t.iter().skip(parity).step_by(2).copied().collect()
        };
        let combined = |l: &[PrimState], r: &[PrimState], bag: BagCtx<'_>| {
            table_of(|out| ctx.branch_combine(l, r, bag, out))
        };
        let up = ctx.run_up();
        let down = ctx.run_down(&up);
        let mut non_empty = 0;
        for node in ctx.nice.node_ids() {
            if ctx.nice.kind(node) != NiceKind::Branch {
                continue;
            }
            let bag = ctx.bags.get(node);
            let mut children = ctx.nice.children(node);
            let (Some(a), Some(b)) = (children.next(), children.next()) else {
                panic!("{what}: branch {node} has two children");
            };
            let joins = [
                (&up[a.index()], &up[b.index()], &up[node.index()]),
                (&down[node.index()], &up[b.index()], &down[a.index()]),
                (&down[node.index()], &up[a.index()], &down[b.index()]),
            ];
            for (left, right, got) in joins {
                let expect = branch_combine_reference(ctx, left, right, bag);
                assert_eq!(got, &expect[..], "{what}: table at or below {node}");
                let sub_joins = [
                    (left.to_vec(), right.to_vec()),
                    (halve(left, 0), right.to_vec()),
                    (left.to_vec(), halve(right, 1)),
                ];
                for (l, r) in sub_joins {
                    let expect = branch_combine_reference(ctx, &l, &r, bag);
                    assert_eq!(combined(&l, &r, bag), expect, "{what}: {node}");
                    non_empty += usize::from(!expect.is_empty());
                }
                // One state a side: a pair the full tables reject can share
                // its union with a pair they accept.
                for l in left {
                    for r in right
                        .iter()
                        .filter(|r| (r.y, r.fc, r.co) == (l.y, l.fc, l.co))
                    {
                        let (l, r) = (&[*l][..], &[*r][..]);
                        let expect = branch_combine_reference(ctx, l, r, bag);
                        assert_eq!(combined(l, r, bag), expect, "{what}: {node}");
                    }
                }
            }
        }
        non_empty
    }

    #[test]
    fn branch_combine_matches_the_nested_loop_reference() {
        let mut rng = seeded_rng(5);
        let mut non_empty = 0;
        for i in 0..20 {
            let schema = random_schema(&mut rng, 4 + i % 3, 2 + i % 4, 3);
            non_empty += check_branch_joins(&PrimalityContext::new(&schema), &format!("{schema}"));
        }
        for k in 1..=8 {
            let inst = block_tree_instance(k);
            let ctx = PrimalityContext::from_parts(inst.encoding, inst.td);
            non_empty += check_branch_joins(&ctx, &format!("block tree {k}"));
        }
        // `a → x` and `b → x` forgotten in sibling subtrees below a bag
        // holding `x`: the only shape in which `unique(ΔC₁, ΔC₂, FC)`
        // rejects a pair (min-fill keeps such FDs together on the small
        // random schemas above).
        let mut schema = Schema::new();
        let [x, a, b] = ["x", "a", "b"].map(|n| schema.add_attr(n));
        let (fa, fb) = (schema.add_fd(&[a], x), schema.add_fd(&[b], x));
        let encoding = encode_schema(&schema);
        let (ex, ea, eb) = (
            encoding.elem_of_attr(x),
            encoding.elem_of_attr(a),
            encoding.elem_of_attr(b),
        );
        let mut td = TreeDecomposition::singleton(vec![ex, ea, eb]);
        let root = td.root();
        td.add_child(root, vec![ex, ea, encoding.elem_of_fd(fa)]);
        td.add_child(root, vec![ex, eb, encoding.elem_of_fd(fb)]);
        let ctx = PrimalityContext::from_parts(encoding, td);
        non_empty += check_branch_joins(&ctx, "sibling FDs with one rhs");
        assert_eq!(enumerate_primes(&ctx).0.len(), 2);
        assert!(non_empty > 100, "only {non_empty} non-empty joins");
    }

    /// FNV-1a over every table of a pass in node order: each table's
    /// length, then each state's five fields.
    fn fnv_tables<T: AsRef<[PrimState]>>(tables: impl Iterator<Item = T>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for t in tables {
            let t = t.as_ref();
            eat(t.len() as u64);
            for s in t {
                for x in [
                    u64::from(s.y),
                    u64::from(s.fc),
                    s.co,
                    u64::from(s.dc),
                    u64::from(s.fy),
                ] {
                    eat(x);
                }
            }
        }
        h
    }

    /// Hashes of the up and down tables, the fact counts of
    /// [`enumerate_primes`] and its primes, as recorded before the tables
    /// moved into one arena per pass and the FD predicates became masks.
    #[test]
    fn tables_stats_and_primes_are_pinned() {
        let mut cases = vec![(
            "example 2.1".to_string(),
            PrimalityContext::new(&example_2_1()),
        )];
        for k in [8, 64] {
            let inst = block_tree_instance(k);
            cases.push((
                format!("block tree {k}"),
                PrimalityContext::from_parts(inst.encoding, inst.td),
            ));
        }
        for (seed, attrs, fds) in [(41, 6, 5), (43, 5, 6)] {
            let schema = random_schema(&mut seeded_rng(seed), attrs, fds, 3);
            cases.push((format!("random {seed}"), PrimalityContext::new(&schema)));
        }
        let got: Vec<_> = cases
            .iter()
            .map(|(name, ctx)| {
                let up = ctx.run_up();
                let down = ctx.run_down(&up);
                let (primes, stats) = enumerate_primes(ctx);
                let primes: Vec<u32> = primes.iter().map(|e| e.0).collect();
                (
                    name.as_str(),
                    fnv_tables(up.iter()),
                    fnv_tables(down.iter()),
                    stats.up_facts,
                    stats.down_facts,
                    primes,
                )
            })
            .collect();
        // Block tree `k` has attributes `u_i, v_i, w_i` at `3i, 3i+1, 3i+2`;
        // the `u`s and `v`s are prime.
        let blocks = |k: u32| (0..3 * k).filter(|e| e % 3 != 2).collect::<Vec<_>>();
        let expect = vec![
            (
                "example 2.1",
                2302207924994961303,
                2731369194138820205,
                164,
                180,
                vec![0, 1, 2, 3],
            ),
            (
                "block tree 8",
                7796050424824316180,
                14261726772998057879,
                864,
                825,
                blocks(8),
            ),
            (
                "block tree 64",
                15918252778402170292,
                556066626691025719,
                7024,
                6649,
                blocks(64),
            ),
            (
                "random 41",
                2294690123385771315,
                9319648724141023045,
                823,
                835,
                vec![0, 1, 2, 3, 4],
            ),
            (
                "random 43",
                12976610887658716055,
                185551404349613343,
                1527,
                1505,
                vec![0, 1, 3, 4],
            ),
        ];
        assert_eq!(got, expect);
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
