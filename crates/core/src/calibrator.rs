//! The calibrator tree (paper §3).
//!
//! An implicit binary tree over the file's `M` logical page addresses. Every
//! node `v` covers a contiguous address range `RANGE(v) = [A⁻ᵥ, A⁺ᵥ]` and
//! stores a *rank counter* `N_v` — the number of records currently stored in
//! that range. The root covers the whole file; an internal node with range
//! `[lo, hi]` splits at `mid = ⌊(lo+hi)/2⌋` into `[lo, mid]` and
//! `[mid+1, hi]`; a leaf covers exactly one page.
//!
//! The shape is [`Geometry`]: a node's range follows from `M` and its heap
//! index alone, so none of it is stored. `M_v` is `O(1)` arithmetic,
//! `RANGE(v)` one register step per level, and ancestry a shift of heap
//! indices. The one geometric table kept is the slot-to-leaf map (4 bytes
//! per slot), since a lookup there is an order of magnitude cheaper than
//! the descent that recomputes it.
//!
//! On top of the paper's counters this implementation keeps:
//!
//! * a `min_key` per node — the concretization (DESIGN.md §3.1) that lets
//!   the calibrator act as the binary search tree of step 1. It is stored
//!   untagged: a node's counter says whether it is empty, and an empty
//!   node's key is a placeholder that no reader looks at;
//! * per-node `WARNING` flags and `DEST` pointers for CONTROL 2, plus two
//!   subtree aggregates (`warn_count`, `max_warn_depth`) that make the
//!   paper's SELECT subroutine an `O(log M)` walk;
//! * **exact integer** density-threshold comparisons: with `L = ⌈log₂M⌉`
//!   and thresholds `g(v, q/3) = d + (depth(v) + q/3 − 1)/L · (D−d)`,
//!   the test `p(v) ≥ g(v, q/3)` is evaluated as
//!   `3L·N_v ≥ M_v·(3L·d + (3·depth(v)+q−3)(D−d))` — no floating point
//!   anywhere in the invariant logic;
//! * a leaf-first neighbour search ([`Calibrator::next_nonempty`],
//!   [`Calibrator::prev_nonempty`]) for SHIFT's SOURCE and for scans
//!   stepping to the next occupied page: an occupied neighbour costs
//!   `O(1)` (its own leaf counter), any other `O(log distance)` levels
//!   for a typical start, climbing from the start's leaf instead of
//!   descending from the root. The read view runs the same search over
//!   its published copy of the counters' emptiness.
//!
//! Per heap entry that is 26 bytes for `u64` keys (counter 8, key 8, flag
//! 1, `DEST` 4, `warn_count` 4, `max_warn_depth` 1), plus the leaf map.
//!
//! The calibrator is an in-memory structure; consulting or updating it
//! charges no page accesses, exactly as in the paper's cost model.

use dsf_pagestore::Key;
use std::cmp::Ordering;

use crate::config::ceil_log2;

/// Identifier of a calibrator node: its 1-based heap index (root = 1,
/// children of `i` are `2i` and `2i+1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The root node.
    pub const ROOT: NodeId = NodeId(1);

    /// Depth of this node (root = 0, the paper's convention).
    pub fn depth(self) -> u32 {
        self.0.ilog2()
    }

    /// Parent node (`None` for the root).
    pub fn parent(self) -> Option<NodeId> {
        if self.0 <= 1 {
            None
        } else {
            Some(NodeId(self.0 >> 1))
        }
    }

    /// The paper's `DIR(v)`: `true` iff `v` is the right son of its father.
    pub fn is_right_child(self) -> bool {
        self.0 > 1 && self.0 & 1 == 1
    }

    /// Whether `self` is `x` or one of its ancestors: `x`'s heap index
    /// shifted up to `self`'s depth.
    pub fn is_ancestor_of(self, x: NodeId) -> bool {
        let (d, dx) = (self.depth(), x.depth());
        dx >= d && x.0 >> (dx - d) == self.0
    }

    pub(crate) fn left(self) -> NodeId {
        NodeId(self.0 << 1)
    }

    pub(crate) fn right(self) -> NodeId {
        NodeId((self.0 << 1) | 1)
    }
}

/// The calibrator's shape over `M` slots, computed rather than stored.
///
/// Every split gives the left son `⌈s/2⌉` of its father's `s` slots, so a
/// node at depth `d` and position `p = v − 2ᵈ` covers
/// `M_v = (M + rev_d(!p)) >> d` slots, where `rev_d` reverses the low `d`
/// bits. Nodes past a leaf have `M_v ≤ 1`, which is how [`exists`]
/// tells them apart. Heap indices are `u32`, so every node has one while
/// `M ≤ 2^31`; past that, only nodes above depth 32.
///
/// [`exists`]: Geometry::exists
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    slots: u32,
}

impl Geometry {
    /// The shape of a calibrator over `slots` pages.
    pub fn new(slots: u32) -> Self {
        assert!(slots > 0, "calibrator needs at least one slot");
        Geometry { slots }
    }

    /// Number of slots (`M`).
    pub fn slots(self) -> u32 {
        self.slots
    }

    /// Length of per-node arrays in heap layout, `2^(⌈log₂M⌉+1)` (index 0
    /// unused).
    pub fn heap_len(self) -> usize {
        1usize << (ceil_log2(self.slots) + 1)
    }

    /// `M_v`, in `O(1)`.
    pub fn width(self, n: NodeId) -> u64 {
        let d = n.depth();
        // The low `d` bits of `!n` are `!p`; reversed into the top of a
        // `u32`, then brought down to `d` bits (zero for the root).
        let rev = u64::from((!n.0).reverse_bits()) << d >> 32;
        (u64::from(self.slots) + rev) >> d
    }

    /// Whether `n` is a node of this tree: the root, or a son of a node
    /// of two or more slots.
    pub fn exists(self, n: NodeId) -> bool {
        n.0 == 1 || (n.0 > 1 && self.width(NodeId(n.0 >> 1)) >= 2)
    }

    /// Whether `n` is a leaf (covers a single slot).
    pub fn is_leaf(self, n: NodeId) -> bool {
        self.width(n) == 1
    }

    /// `RANGE(v)` in 0-based slot addresses, following `v`'s bits from the
    /// root: each right step passes over the left son's `⌈s/2⌉` slots.
    /// Branch-free, one step per level.
    pub fn range(self, n: NodeId) -> (u32, u32) {
        debug_assert!(self.exists(n));
        let (mut lo, mut w) = (0u64, u64::from(self.slots));
        for i in (0..n.depth()).rev() {
            let right = u64::from(n.0 >> i & 1);
            lo += (w + 1) >> 1 & right.wrapping_neg();
            w = (w + 1 - right) >> 1;
        }
        (lo as u32, (lo + w - 1) as u32)
    }

    /// The leaf covering `slot`, by descent from the root (`O(log M)`;
    /// the calibrator keeps these in a table).
    pub fn leaf_of(self, slot: u32) -> NodeId {
        debug_assert!(slot < self.slots);
        let (mut n, mut lo, mut hi) = (NodeId::ROOT, 0, self.slots - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if slot > mid {
                (n, lo) = (n.right(), mid + 1);
            } else {
                (n, hi) = (n.left(), mid);
            }
        }
        n
    }

    /// Every node in heap order (so by depth, shallowest first).
    pub(crate) fn nodes(self) -> impl Iterator<Item = NodeId> {
        let last = u32::try_from(self.heap_len() - 1).unwrap_or(u32::MAX);
        (1..=last).map(NodeId).filter(move |&n| self.exists(n))
    }

    /// Step 1's descent: into the right son `r` when `go_right(r)`, else
    /// the left, down to one slot. Ranges follow the floor split, computed
    /// on the way down, so a copy of the per-node keys (the read view's)
    /// descends exactly like [`Calibrator::find_slot`].
    pub(crate) fn descend(self, go_right: impl FnMut(NodeId) -> bool) -> u32 {
        descend_within(NodeId::ROOT, 0, self.slots - 1, go_right)
    }

    /// The slot nearest `from` on its `forward` (else backward) side,
    /// `from` and `bound` included, whose leaf is `nonempty`; `leaf` is
    /// `from`'s leaf. A finger search: an occupied `from` answers at its
    /// own leaf; otherwise the search climbs from that leaf to the first
    /// `nonempty` sibling on the search side, or stops at the first
    /// sibling wholly past `bound`, and descends inside that sibling to its
    /// nearest `nonempty` leaf. It reads flags only below the lowest common
    /// ancestor of `from` and the answer: O(log distance) levels for a
    /// typical `from`, `2·log M` at worst (a neighbour across a high
    /// split). Whatever `nonempty` answers, the result is `from` or lies
    /// strictly past it, so a reader of racing flags still makes progress.
    pub(crate) fn nearest_nonempty(
        self,
        from: u32,
        leaf: NodeId,
        bound: u32,
        forward: bool,
        nonempty: impl Fn(NodeId) -> bool,
    ) -> Option<u32> {
        let mut n = leaf;
        if nonempty(n) {
            return Some(from);
        }
        // `edge` ends `n`'s range on the search side; every slot from
        // `from` to `edge` is empty.
        let mut edge = from;
        let (sib, near, far) = loop {
            let parent = n.parent()?;
            if n.is_right_child() != forward {
                // The sibling on the search side starts just past `edge`.
                let sib = NodeId(n.0 ^ 1);
                let near = if forward { edge + 1 } else { edge - 1 };
                let past = if forward { near > bound } else { near < bound };
                if past {
                    return None;
                }
                let span = (self.width(sib) - 1) as u32;
                let far = if forward { near + span } else { near - span };
                if nonempty(sib) {
                    break (sib, near, far);
                }
                edge = far;
            }
            n = parent;
        };
        // Into the nearer son whenever it holds a record.
        let found = if forward {
            descend_within(sib, near, far, |r| !nonempty(NodeId(r.0 - 1)))
        } else {
            descend_within(sib, far, near, &nonempty)
        };
        let within = if forward {
            found <= bound
        } else {
            found >= bound
        };
        within.then_some(found)
    }
}

/// [`Geometry::descend`] from node `n`, whose range is `[lo, hi]`.
fn descend_within(
    mut n: NodeId,
    mut lo: u32,
    mut hi: u32,
    mut go_right: impl FnMut(NodeId) -> bool,
) -> u32 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if go_right(n.right()) {
            (n, lo) = (n.right(), mid + 1);
        } else {
            (n, hi) = (n.left(), mid);
        }
    }
    lo
}

/// The calibrator tree over `slots` logical pages.
#[derive(Debug, Clone)]
pub struct Calibrator<K> {
    geo: Geometry,
    /// `L = max(1, ⌈log₂ slots⌉)` — the threshold denominator.
    log_slots: u32,
    /// Per-slot lower density `d#`.
    dmin: u64,
    /// Per-slot upper density `D#`.
    dmax: u64,
    count: Vec<u64>,
    /// Each node's minimum key, meaningful only where its count is
    /// non-zero. Empty until the first key arrives, which then fills every
    /// entry as the placeholder (see [`Calibrator::store_min`]).
    min_key: Vec<K>,
    warning: Vec<bool>,
    dest: Vec<u32>,
    /// Number of warned nodes in the subtree (including the node itself).
    warn_count: Vec<u32>,
    /// Maximum depth of a warned node in the subtree, or -1.
    max_warn_depth: Vec<i8>,
    /// Slot to leaf (heap index).
    leaf: Vec<u32>,
    total: u64,
}

impl<K: Key> Calibrator<K> {
    /// Builds the calibrator for `slots` pages with per-slot densities
    /// `dmin < dmax`.
    pub fn new(slots: u32, dmin: u64, dmax: u64) -> Self {
        assert!(dmin < dmax, "calibrator needs dmin < dmax");
        let geo = Geometry::new(slots);
        let size = geo.heap_len();
        let mut leaf = vec![0; slots as usize];
        let mut stack = vec![(NodeId::ROOT, 0u32, slots - 1)];
        while let Some((n, lo, hi)) = stack.pop() {
            if lo == hi {
                leaf[lo as usize] = n.0;
            } else {
                let mid = lo + (hi - lo) / 2; // == ⌊(lo+hi)/2⌋ without overflow
                stack.push((n.left(), lo, mid));
                stack.push((n.right(), mid + 1, hi));
            }
        }
        Calibrator {
            geo,
            log_slots: ceil_log2(slots).max(1),
            dmin,
            dmax,
            count: vec![0; size],
            min_key: Vec::new(),
            warning: vec![false; size],
            dest: vec![0; size],
            warn_count: vec![0; size],
            max_warn_depth: vec![-1; size],
            leaf,
            total: 0,
        }
    }

    // ------------------------------------------------------------------
    // Geometry.
    // ------------------------------------------------------------------

    /// The tree's shape.
    pub(crate) fn geometry(&self) -> Geometry {
        self.geo
    }

    /// Number of slots (the calibrator's `M`).
    pub fn slots(&self) -> u32 {
        self.geo.slots
    }

    /// The threshold denominator `L = max(1, ⌈log₂ slots⌉)`.
    pub fn log_slots(&self) -> u32 {
        self.log_slots
    }

    /// Per-slot density bounds `(d#, D#)`.
    pub fn densities(&self) -> (u64, u64) {
        (self.dmin, self.dmax)
    }

    /// Length of the per-node arrays in heap layout (index 0 unused).
    pub(crate) fn heap_len(&self) -> usize {
        self.count.len()
    }

    /// Whether `n` is a node of this tree.
    pub fn exists(&self, n: NodeId) -> bool {
        self.geo.exists(n)
    }

    /// `RANGE(v) = [A⁻ᵥ, A⁺ᵥ]` in 0-based slot addresses.
    pub fn range(&self, n: NodeId) -> (u32, u32) {
        self.geo.range(n)
    }

    /// `M_v`: the number of slots in `RANGE(v)`.
    pub fn width(&self, n: NodeId) -> u64 {
        self.geo.width(n)
    }

    /// Whether `n` is a leaf (covers a single slot).
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.geo.is_leaf(n)
    }

    /// The children of an internal node.
    pub fn children(&self, n: NodeId) -> Option<(NodeId, NodeId)> {
        if self.is_leaf(n) {
            None
        } else {
            Some((n.left(), n.right()))
        }
    }

    /// The leaf covering `slot`.
    pub fn leaf_of(&self, slot: u32) -> NodeId {
        NodeId(self.leaf[slot as usize])
    }

    /// Whether `slot ∈ RANGE(n)`.
    pub fn contains(&self, n: NodeId, slot: u32) -> bool {
        n.is_ancestor_of(self.leaf_of(slot))
    }

    // ------------------------------------------------------------------
    // Rank counters and search keys.
    // ------------------------------------------------------------------

    /// The rank counter `N_v`.
    pub fn count(&self, n: NodeId) -> u64 {
        self.count[n.0 as usize]
    }

    /// Total records in the file (`N_root`).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Minimum key stored in `RANGE(n)`, if any.
    pub fn min_key(&self, n: NodeId) -> Option<K> {
        self.min_at(n.0 as usize)
    }

    /// Node `i`'s minimum: its stored key where its count says non-empty.
    fn min_at(&self, i: usize) -> Option<K> {
        if self.count[i] > 0 {
            self.min_key.get(i).copied()
        } else {
            None
        }
    }

    /// Records `m` as node `i`'s minimum. The first key ever stored fills
    /// every entry: a count of 0 masks whatever an empty node holds, so
    /// any key is a valid placeholder, and none needs a default.
    fn store_min(&mut self, i: usize, m: K) {
        if self.min_key.is_empty() {
            self.min_key = vec![m; self.count.len()];
        }
        self.min_key[i] = m;
    }

    /// The minimum of internal node `p`'s sons.
    fn sons_min(&self, p: NodeId) -> Option<K> {
        match (
            self.min_at(p.left().0 as usize),
            self.min_at(p.right().0 as usize),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Recomputes internal node `p`'s minimum from its sons (an empty `p`
    /// keeps its placeholder).
    fn pull_min(&mut self, p: NodeId) {
        if let Some(m) = self.sons_min(p) {
            self.store_min(p.0 as usize, m);
        }
    }

    /// Adds `delta` to node `i`'s counter, returning the old value.
    fn bump(&mut self, i: usize, delta: i64) -> u64 {
        let old = self.count[i];
        self.count[i] = old
            .checked_add_signed(delta)
            .expect("calibrator count underflow");
        old
    }

    /// The leaf-to-root path of `slot`, leaf first.
    pub fn path_to_root(&self, slot: u32) -> impl Iterator<Item = NodeId> {
        std::iter::successors(Some(self.leaf_of(slot)), |n| n.parent())
    }

    /// Applies a record-count delta along the leaf-to-root path of `slot`.
    pub fn add_count(&mut self, slot: u32, delta: i64) {
        for n in self.path_to_root(slot) {
            self.bump(n.0 as usize, delta);
        }
        self.total = self
            .total
            .checked_add_signed(delta)
            .expect("calibrator total underflow");
    }

    /// Recomputes the cached minimum key along the leaf-to-root path of
    /// `slot`, given the slot's new minimum, against the current counts.
    pub fn refresh_min(&mut self, slot: u32, slot_min: Option<K>) {
        let leaf = self.leaf_of(slot);
        if let Some(m) = slot_min {
            self.store_min(leaf.0 as usize, m);
        }
        let mut n = leaf;
        while let Some(p) = n.parent() {
            self.pull_min(p);
            n = p;
        }
    }

    /// Step 1's calibrator update after `slot` gained (lost) `delta`
    /// records and now has minimum `slot_min`: counts and minima in one
    /// climb. Counts go to the root; minima stop at the first ancestor that
    /// was non-empty before and keeps its minimum, since every node above
    /// it then keeps both its emptiness and its minimum.
    ///
    /// Emptiness is read from the counts, so the calibrator must hold every
    /// other slot as it was: a command that changes two slots (SHIFT)
    /// updates one, then the other.
    pub(crate) fn update_slot(&mut self, slot: u32, delta: i64, slot_min: Option<K>) {
        let mut n = self.leaf_of(slot);
        self.bump(n.0 as usize, delta);
        if let Some(m) = slot_min {
            self.store_min(n.0 as usize, m);
        }
        let mut mins = true;
        while let Some(p) = n.parent() {
            let i = p.0 as usize;
            let was = self.bump(i, delta);
            if mins {
                if let Some(m) = self.sons_min(p) {
                    if was > 0 && self.min_key.get(i) == Some(&m) {
                        mins = false;
                    } else {
                        self.store_min(i, m);
                    }
                }
            }
            n = p;
        }
        self.total = self
            .total
            .checked_add_signed(delta)
            .expect("calibrator total underflow");
    }

    /// Sets a leaf's counter and minimum without propagating (bulk-load /
    /// redistribution helper; pair with [`Calibrator::recompute_subtree`]).
    pub fn set_leaf_raw(&mut self, slot: u32, count: u64, min: Option<K>) {
        let leaf = self.leaf_of(slot).0 as usize;
        self.count[leaf] = count;
        if let Some(m) = min {
            self.store_min(leaf, m);
        }
    }

    /// Recomputes counters and minimum keys of every internal node in the
    /// subtree of `n` from its leaves, then refreshes `total`.
    pub fn recompute_subtree(&mut self, n: NodeId) {
        self.recompute_inner(n, self.width(n));
        // Propagate count/min deltas above n: ancestors sum their children.
        let mut cur = n;
        while let Some(p) = cur.parent() {
            self.count[p.0 as usize] =
                self.count[p.left().0 as usize] + self.count[p.right().0 as usize];
            self.pull_min(p);
            cur = p;
        }
        self.total = self.count[NodeId::ROOT.0 as usize];
    }

    /// [`recompute_subtree`](Self::recompute_subtree) below `n`, which
    /// covers `width` slots.
    fn recompute_inner(&mut self, n: NodeId, width: u64) {
        if width == 1 {
            return;
        }
        let (l, r) = (n.left(), n.right());
        self.recompute_inner(l, width.div_ceil(2));
        self.recompute_inner(r, width / 2);
        self.count[n.0 as usize] = self.count[l.0 as usize] + self.count[r.0 as usize];
        self.pull_min(n);
    }

    // ------------------------------------------------------------------
    // Density thresholds (exact integer arithmetic).
    // ------------------------------------------------------------------

    /// Compares `p(v)` with `g(v, q/3)` exactly. `q ∈ {0, 1, 2, 3}` selects
    /// the threshold (`g(v,0)`, `g(v,⅓)`, `g(v,⅔)`, `g(v,1)`).
    pub fn density_cmp(&self, n: NodeId, q: u8) -> Ordering {
        debug_assert!(q <= 3);
        let l = i128::from(self.log_slots);
        let lhs = 3 * l * i128::from(self.count(n));
        let rhs = self.g_numerator(n, q);
        lhs.cmp(&rhs)
    }

    /// `M_v · 3L · g(v, q/3)` as an exact integer.
    fn g_numerator(&self, n: NodeId, q: u8) -> i128 {
        let l = i128::from(self.log_slots);
        let depth = i128::from(n.depth());
        let gap = i128::from(self.dmax - self.dmin);
        let per_slot = 3 * l * i128::from(self.dmin) + (3 * depth + i128::from(q) - 3) * gap;
        i128::from(self.width(n)) * per_slot
    }

    /// `p(v) ≥ g(v, q/3)`.
    pub fn p_ge(&self, n: NodeId, q: u8) -> bool {
        self.density_cmp(n, q) != Ordering::Less
    }

    /// `p(v) ≤ g(v, q/3)`.
    pub fn p_le(&self, n: NodeId, q: u8) -> bool {
        self.density_cmp(n, q) != Ordering::Greater
    }

    /// `p(v) > g(v, q/3)`.
    pub fn p_gt(&self, n: NodeId, q: u8) -> bool {
        self.density_cmp(n, q) == Ordering::Greater
    }

    /// The smallest number of records whose addition to `RANGE(n)` makes
    /// `p(n) ≥ g(n, q/3)` (0 if already there). This is SHIFT's step-2 stop
    /// computation, done in closed form instead of record-at-a-time.
    pub fn records_until_ge(&self, n: NodeId, q: u8) -> u64 {
        let l = i128::from(self.log_slots);
        let lhs = 3 * l * i128::from(self.count(n));
        let rhs = self.g_numerator(n, q);
        if lhs >= rhs {
            0
        } else {
            let deficit = rhs - lhs;
            let step = 3 * l;
            ((deficit + step - 1) / step) as u64
        }
    }

    /// `g(v, q/3)` as a float, for display only (figures, diagnostics).
    pub fn g_display(&self, n: NodeId, q: u8) -> f64 {
        self.g_numerator(n, q) as f64 / (3.0 * f64::from(self.log_slots) * self.width(n) as f64)
    }

    /// `p(v)` as a float, for display only.
    pub fn p_display(&self, n: NodeId) -> f64 {
        self.count(n) as f64 / self.width(n) as f64
    }

    // ------------------------------------------------------------------
    // Key search (the paper's "use the calibrator as a binary search tree").
    // ------------------------------------------------------------------

    /// The slot that holds the greatest record with key ≤ `key` — the slot
    /// step 1 addresses for both lookups and insertions. Falls back to the
    /// leftmost descent when no such record exists (inserting there keeps
    /// the file sorted). Returns slot 0 for an empty file.
    pub fn find_slot(&self, key: &K) -> u32 {
        self.geo
            .descend(|r| self.min_at(r.0 as usize).is_some_and(|m| m <= *key))
    }

    /// [`find_slot`](Self::find_slot) seeded with a caller-supplied `hint`
    /// — the slot a nearby command in the same batch resolved to. The hint
    /// is *validated*, never trusted: it is returned only when the counters
    /// prove it is exactly what the full descent would compute, so batched
    /// and one-at-a-time application resolve identical slots. A stale or
    /// nonsensical hint silently falls back to the full descent.
    ///
    /// Like everything else in the calibrator this is in-memory and charges
    /// no page accesses; the saving is CPU only (the hint's leaf and a
    /// leaf-first search for its successor instead of an `O(log M)`
    /// descent from the root).
    pub fn find_slot_hinted(&self, key: &K, hint: u32) -> u32 {
        if self.hint_holds(key, hint) {
            hint
        } else {
            self.find_slot(key)
        }
    }

    /// `hint == find_slot(key)` iff `hint` is non-empty with minimum ≤
    /// `key` while the *next* non-empty slot's minimum exceeds `key`
    /// (cross-slot order makes slot minima ascend, so checking one
    /// successor suffices). Density keeps that successor within a few
    /// slots almost always, where the leaf-first search finds it in a
    /// level or two.
    fn hint_holds(&self, key: &K, hint: u32) -> bool {
        hint < self.slots()
            && self.min_key(self.leaf_of(hint)).is_some_and(|m| m <= *key)
            && self
                .next_nonempty(hint + 1, self.slots() - 1)
                .is_none_or(|s| self.min_key(self.leaf_of(s)).is_some_and(|m| m > *key))
    }

    /// Smallest non-empty slot in `[from, hi]`, using the counters only.
    pub fn next_nonempty(&self, from: u32, hi: u32) -> Option<u32> {
        if from > hi || from >= self.slots() {
            return None;
        }
        self.nearest_nonempty(from, hi, true)
    }

    /// Largest non-empty slot in `[lo, upto]`, using the counters only.
    pub fn prev_nonempty(&self, lo: u32, upto: u32) -> Option<u32> {
        let upto = upto.min(self.slots() - 1);
        if lo > upto {
            return None;
        }
        self.nearest_nonempty(upto, lo, false)
    }

    /// [`Geometry::nearest_nonempty`] over the counters.
    fn nearest_nonempty(&self, from: u32, bound: u32, forward: bool) -> Option<u32> {
        self.geo
            .nearest_nonempty(from, self.leaf_of(from), bound, forward, |n| {
                self.count(n) > 0
            })
    }

    // ------------------------------------------------------------------
    // Warning flags, DEST pointers, SELECT support.
    // ------------------------------------------------------------------

    /// `WARNING(v)`.
    pub fn is_warned(&self, n: NodeId) -> bool {
        self.warning[n.0 as usize]
    }

    /// Raises or lowers `WARNING(v)`, maintaining the subtree aggregates
    /// that make SELECT an `O(log M)` operation.
    pub fn set_warning(&mut self, n: NodeId, on: bool) {
        if self.warning[n.0 as usize] == on {
            return;
        }
        self.warning[n.0 as usize] = on;
        // Only `n` itself may be a leaf; its ancestors are internal.
        let mut internal = !self.is_leaf(n);
        let mut cur = n;
        loop {
            let i = cur.0 as usize;
            if on {
                self.warn_count[i] += 1;
            } else {
                self.warn_count[i] -= 1;
            }
            // Recompute max warned depth from self + children.
            let mut mwd = if self.warning[i] {
                cur.depth() as i8
            } else {
                -1
            };
            if internal {
                mwd = mwd
                    .max(self.max_warn_depth[cur.left().0 as usize])
                    .max(self.max_warn_depth[cur.right().0 as usize]);
            }
            self.max_warn_depth[i] = mwd;
            match cur.parent() {
                Some(p) => cur = p,
                None => break,
            }
            internal = true;
        }
    }

    /// Number of warned nodes in the whole tree.
    pub fn warned_total(&self) -> u32 {
        self.warn_count[NodeId::ROOT.0 as usize]
    }

    /// `DEST(v)` — meaningful only while `v` is warned.
    pub fn dest(&self, n: NodeId) -> u32 {
        self.dest[n.0 as usize]
    }

    /// Sets `DEST(v)`.
    pub fn set_dest(&mut self, n: NodeId, slot: u32) {
        self.dest[n.0 as usize] = slot;
    }

    /// The paper's `SELECT(L)` for the leaf of `slot`:
    ///
    /// 1. find the lowest ancestor `α` of the leaf with a warned *proper*
    ///    descendant;
    /// 2. return a deepest warned descendant of `α` (leftmost on ties).
    ///
    /// Returns `None` when no node in the tree is warned.
    pub fn select(&self, slot: u32) -> Option<NodeId> {
        let a = self.lowest_ancestor_with_warned_descendant(slot)?;
        // Deepest warned proper descendant of `a` (an internal node).
        let (l, r) = (a.left(), a.right());
        let lm = self.max_warn_depth[l.0 as usize];
        let rm = self.max_warn_depth[r.0 as usize];
        let target = lm.max(rm);
        debug_assert!(target >= 0);
        let mut cur = if lm >= rm { l } else { r };
        while cur.depth() as i8 != target || !self.warning[cur.0 as usize] {
            // A deep-enough warned node lies below, so `cur` is internal.
            let l = cur.left();
            cur = if self.max_warn_depth[l.0 as usize] == target {
                l
            } else {
                cur.right()
            };
        }
        Some(cur)
    }

    /// SELECT step 1: the lowest ancestor `α` of `slot`'s leaf with a
    /// warned *proper* descendant (shared by SELECT and its ablation
    /// variant so the two cannot drift).
    fn lowest_ancestor_with_warned_descendant(&self, slot: u32) -> Option<NodeId> {
        let mut a = self.leaf_of(slot).parent()?;
        loop {
            let proper = self.warn_count[a.0 as usize] - u32::from(self.warning[a.0 as usize]);
            if proper > 0 {
                return Some(a);
            }
            a = a.parent()?; // root without warned proper descendants → None
        }
    }

    /// Ablation variant of SELECT (E8): the *shallowest* warned proper
    /// descendant of the paper's `α`, breadth-first, instead of the deepest.
    pub fn select_shallowest(&self, slot: u32) -> Option<NodeId> {
        let a = self.lowest_ancestor_with_warned_descendant(slot)?;
        let mut queue = std::collections::VecDeque::from([a.left(), a.right()]);
        while let Some(n) = queue.pop_front() {
            if self.warn_count[n.0 as usize] == 0 {
                continue;
            }
            if self.warning[n.0 as usize] {
                return Some(n);
            }
            if let Some((l, r)) = self.children(n) {
                queue.extend([l, r]);
            }
        }
        None
    }

    /// Every warned node (checker/diagnostics; `O(size)`).
    pub fn warned_nodes(&self) -> Vec<NodeId> {
        self.geo
            .nodes()
            .filter(|&n| self.warning[n.0 as usize])
            .collect()
    }

    /// Every node of the tree in heap order (checker/diagnostics).
    pub fn all_nodes(&self) -> Vec<NodeId> {
        self.geo.nodes().collect()
    }

    /// The nodes of `UP(v)` for a shift from `source` towards `dest`: every
    /// node containing `dest` but not `source`, i.e. the path from the leaf
    /// of `dest` up to (excluding) the least common ancestor. Deepest
    /// first; computed on the fly, with no allocation.
    pub fn up_path(&self, dest: u32, source: u32) -> impl Iterator<Item = NodeId> + Clone {
        debug_assert_ne!(dest, source);
        let src = self.leaf_of(source);
        std::iter::successors(Some(self.leaf_of(dest)), |n| n.parent())
            .take_while(move |n| !n.is_ancestor_of(src))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Example 5.2 calibrator: M=8, d=9, D=18 (Figure 3).
    fn example_cal() -> Calibrator<u64> {
        Calibrator::new(8, 9, 18)
    }

    /// Loads the paper's t₀ distribution [16,1,0,1,9,9,9,16].
    fn load_t0(cal: &mut Calibrator<u64>) {
        for (slot, &n) in [16u64, 1, 0, 1, 9, 9, 9, 16].iter().enumerate() {
            let min = if n > 0 {
                Some(slot as u64 * 1000)
            } else {
                None
            };
            cal.set_leaf_raw(slot as u32, n, min);
        }
        cal.recompute_subtree(NodeId::ROOT);
    }

    #[test]
    fn geometry_matches_figure_3() {
        let cal = example_cal();
        assert_eq!(cal.range(NodeId::ROOT), (0, 7));
        let (v2, v3) = cal.children(NodeId::ROOT).unwrap();
        assert_eq!(cal.range(v2), (0, 3)); // pages 1-4 in the paper's 1-based numbering
        assert_eq!(cal.range(v3), (4, 7)); // pages 5-8
        let (v6, v7) = cal.children(v3).unwrap();
        assert_eq!(cal.range(v6), (4, 5));
        assert_eq!(cal.range(v7), (6, 7));
        assert_eq!(cal.leaf_of(7), NodeId(15));
        assert!(cal.is_leaf(NodeId(15)));
        assert_eq!(NodeId(15).depth(), 3);
        assert!(NodeId(15).is_right_child());
        assert!(!NodeId(14).is_right_child());
        assert_eq!(cal.log_slots(), 3);
    }

    #[test]
    fn non_power_of_two_geometry_uses_floor_splits() {
        let cal: Calibrator<u64> = Calibrator::new(5, 1, 100);
        // [0,4] → [0,2] + [3,4]; [0,2] → [0,1] + [2,2].
        assert_eq!(cal.range(NodeId(2)), (0, 2));
        assert_eq!(cal.range(NodeId(3)), (3, 4));
        assert_eq!(cal.range(NodeId(5)), (2, 2));
        assert!(cal.is_leaf(NodeId(5)));
        // Every slot has a leaf and the leaf covers it.
        for s in 0..5 {
            let l = cal.leaf_of(s);
            assert!(cal.is_leaf(l));
            assert_eq!(cal.range(l), (s, s));
        }
    }

    #[test]
    fn thresholds_match_example_5_2_values() {
        // With M=8, d=9, D=18, L=3: for a leaf (depth 3):
        //   g(leaf,0)=15, g(leaf,1/3)=16, g(leaf,2/3)=17, g(leaf,1)=18.
        let cal = example_cal();
        let leaf = cal.leaf_of(0);
        for (q, want) in [(0u8, 15.0), (1, 16.0), (2, 17.0), (3, 18.0)] {
            assert!(
                (cal.g_display(leaf, q) - want).abs() < 1e-12,
                "g(leaf,{q}/3)"
            );
        }
        // v3 (depth 1, pages 5-8): g(v3,0)=9, 1/3→10, 2/3→11, 1→12.
        let v3 = NodeId(3);
        for (q, want) in [(0u8, 9.0), (1, 10.0), (2, 11.0), (3, 12.0)] {
            assert!((cal.g_display(v3, q) - want).abs() < 1e-12, "g(v3,{q}/3)");
        }
        // v4 (depth 2, pages 1-2): g(v4,0)=12, g(v4,1)=15.
        let v4 = NodeId(4);
        assert!((cal.g_display(v4, 0) - 12.0).abs() < 1e-12);
        assert!((cal.g_display(v4, 3) - 15.0).abs() < 1e-12);
        // Root: g(root,1) = d = 9.
        assert!((cal.g_display(NodeId::ROOT, 3) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn density_cmp_agrees_with_example_boundary_cases() {
        let mut cal = example_cal();
        load_t0(&mut cal);
        // After inserting into page 8 (slot 7): p(L8)=17 ≥ g(2/3)=17.
        cal.add_count(7, 1);
        let l8 = cal.leaf_of(7);
        assert!(cal.p_ge(l8, 2));
        assert!(!cal.p_gt(l8, 2)); // exactly at the threshold
        assert!(cal.p_le(l8, 3)); // within BALANCE
                                  // p(v3) = 44/4 = 11 ≥ g(v3,2/3) = 11.
        assert!(cal.p_ge(NodeId(3), 2));
        // p(v7) = 26/2 = 13 < g(v7,2/3) = 14.
        assert!(!cal.p_ge(NodeId(7), 2));
    }

    #[test]
    fn records_until_ge_matches_example_shift_quantities() {
        let mut cal = example_cal();
        load_t0(&mut cal);
        cal.add_count(7, 1); // the Z1 insertion
                             // SHIFT(L8) stops after 6 records: L7 has 9, g(L7,0)=15 → 6 more.
        assert_eq!(cal.records_until_ge(cal.leaf_of(6), 0), 6);
        // L1 has 16 ≥ g(L1,0)=15 already → 0.
        assert_eq!(cal.records_until_ge(cal.leaf_of(0), 0), 0);
        // L2 has 1 → 14 to reach 15.
        assert_eq!(cal.records_until_ge(cal.leaf_of(1), 0), 14);
        // v4 has 17 → 7 to reach 24 (= 12·2).
        assert_eq!(cal.records_until_ge(NodeId(4), 0), 7);
    }

    #[test]
    fn counters_and_total_track_deltas() {
        let mut cal = example_cal();
        load_t0(&mut cal);
        assert_eq!(cal.total(), 61);
        assert_eq!(cal.count(NodeId(3)), 43); // pages 5..8: 9+9+9+16
        cal.add_count(4, 3);
        assert_eq!(cal.count(NodeId(3)), 46);
        assert_eq!(cal.total(), 64);
        cal.add_count(4, -3);
        assert_eq!(cal.total(), 61);
    }

    #[test]
    fn find_slot_follows_min_keys() {
        let mut cal: Calibrator<u64> = Calibrator::new(8, 1, 100);
        // Records: slot 1 → keys {100,200}, slot 5 → keys {500}.
        cal.set_leaf_raw(1, 2, Some(100));
        cal.set_leaf_raw(5, 1, Some(500));
        cal.recompute_subtree(NodeId::ROOT);
        assert_eq!(cal.find_slot(&150), 1); // predecessor 100 lives in slot 1
        assert_eq!(cal.find_slot(&100), 1); // exact key
        assert_eq!(cal.find_slot(&500), 5);
        assert_eq!(cal.find_slot(&9999), 5); // greatest record ≤ key in slot 5
        assert_eq!(cal.find_slot(&50), 0); // below every key → leftmost descent
    }

    #[test]
    fn find_slot_on_empty_tree_returns_zero() {
        let cal: Calibrator<u64> = Calibrator::new(8, 1, 2);
        assert_eq!(cal.find_slot(&42), 0);
    }

    #[test]
    fn find_slot_hinted_always_agrees_with_find_slot() {
        // Batched planning is only *correct* because a hint can steer the
        // answer but never change it: for every key and every hint —
        // right, wrong, stale, or out of range — the hinted lookup must
        // return exactly what a fresh root descent would.
        let mut cal: Calibrator<u64> = Calibrator::new(8, 1, 100);
        cal.set_leaf_raw(1, 2, Some(100));
        cal.set_leaf_raw(3, 1, Some(300));
        cal.set_leaf_raw(5, 1, Some(500));
        cal.recompute_subtree(NodeId::ROOT);
        for key in [0u64, 50, 100, 150, 299, 300, 301, 499, 500, 501, 9999] {
            let want = cal.find_slot(&key);
            for hint in 0..=9u32 {
                // 8 and 9 are out of range on purpose.
                assert_eq!(
                    cal.find_slot_hinted(&key, hint),
                    want,
                    "key {key} hint {hint}"
                );
            }
        }
    }

    #[test]
    fn refresh_min_propagates_and_short_circuits() {
        let mut cal: Calibrator<u64> = Calibrator::new(8, 1, 100);
        cal.set_leaf_raw(3, 1, Some(300));
        cal.recompute_subtree(NodeId::ROOT);
        assert_eq!(cal.min_key(NodeId::ROOT), Some(300));
        cal.add_count(6, 1);
        cal.refresh_min(6, Some(600));
        assert_eq!(cal.min_key(NodeId(3)), Some(600));
        assert_eq!(cal.min_key(NodeId::ROOT), Some(300));
        cal.add_count(3, -1);
        cal.refresh_min(3, None);
        assert_eq!(cal.min_key(NodeId::ROOT), Some(600));
    }

    #[test]
    fn nonempty_scans_use_counters() {
        let mut cal: Calibrator<u64> = Calibrator::new(8, 1, 100);
        for s in [1u32, 4, 6] {
            cal.set_leaf_raw(s, 2, Some(u64::from(s)));
        }
        cal.recompute_subtree(NodeId::ROOT);
        assert_eq!(cal.next_nonempty(0, 7), Some(1));
        assert_eq!(cal.next_nonempty(2, 7), Some(4));
        assert_eq!(cal.next_nonempty(5, 7), Some(6));
        assert_eq!(cal.next_nonempty(7, 7), None);
        assert_eq!(cal.prev_nonempty(0, 7), Some(6));
        assert_eq!(cal.prev_nonempty(0, 5), Some(4));
        assert_eq!(cal.prev_nonempty(0, 0), None);
        assert_eq!(cal.prev_nonempty(2, 3), None);
    }

    #[test]
    fn warning_aggregates_support_select() {
        let mut cal = example_cal();
        load_t0(&mut cal);
        // Raise L8 and v3 as after Z1's step 3.
        cal.set_warning(cal.leaf_of(7), true);
        cal.set_warning(NodeId(3), true);
        assert_eq!(cal.warned_total(), 2);
        // SELECT from L8: deepest warned under the lowest qualifying ancestor is L8 itself.
        assert_eq!(cal.select(7), Some(cal.leaf_of(7)));
        // Lower L8: now only v3 is warned; SELECT from slot 7 climbs to the root.
        cal.set_warning(cal.leaf_of(7), false);
        assert_eq!(cal.select(7), Some(NodeId(3)));
        // SELECT from slot 0 also finds v3 (root is the qualifying ancestor).
        assert_eq!(cal.select(0), Some(NodeId(3)));
        cal.set_warning(NodeId(3), false);
        assert_eq!(cal.select(7), None);
        assert_eq!(cal.warned_total(), 0);
    }

    #[test]
    fn select_prefers_deepest_then_leftmost() {
        let mut cal = example_cal();
        cal.set_warning(NodeId(3), true); // depth 1
        cal.set_warning(NodeId(9), true); // depth 3 (leaf of slot 1)
        cal.set_warning(NodeId(10), true); // depth 3 (leaf of slot 2)
                                           // From slot 7: α = root, deepest warned = depth 3, leftmost = NodeId(9).
        assert_eq!(cal.select(7), Some(NodeId(9)));
    }

    #[test]
    fn up_path_is_dest_side_only() {
        let cal = example_cal();
        // dest slot 1, source slot 4 (the t7→t8 shift): LCA is the root;
        // UP = {L2, v4, v2} = heap {9, 4, 2}.
        let up: Vec<NodeId> = cal.up_path(1, 4).collect();
        assert_eq!(up, vec![NodeId(9), NodeId(4), NodeId(2)]);
        // dest 6, source 7: UP = {L7} = {14}.
        assert_eq!(cal.up_path(6, 7).collect::<Vec<_>>(), vec![NodeId(14)]);
    }

    /// The calibrator's heap bytes. The pattern names every field, so a
    /// field added later fails to compile here until it is counted.
    fn heap_bytes(cal: &Calibrator<u64>) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let Calibrator {
            geo: _,
            log_slots: _,
            dmin: _,
            dmax: _,
            count,
            min_key,
            warning,
            dest,
            warn_count,
            max_warn_depth,
            leaf,
            total: _,
        } = cal;
        bytes(count)
            + bytes(min_key)
            + bytes(warning)
            + bytes(dest)
            + bytes(warn_count)
            + bytes(max_warn_depth)
            + bytes(leaf)
    }

    #[test]
    fn footprint_is_at_most_26_bytes_per_node_plus_the_leaf_map() {
        let slots = 1u32 << 20;
        let mut cal: Calibrator<u64> = Calibrator::new(slots, 8, 80);
        let nodes = cal.heap_len();
        let leaf_map = 4 * slots as usize;
        // Keys are stored from the first one on; before it, 18 bytes.
        assert_eq!(heap_bytes(&cal), 18 * nodes + leaf_map);
        cal.update_slot(slots / 2, 1, Some(7));
        let per_node = (heap_bytes(&cal) - leaf_map) as f64 / nodes as f64;
        assert!(per_node <= 26.0, "{per_node} bytes per node");
        assert_eq!(cal.min_key(NodeId::ROOT), Some(7));
    }

    #[test]
    fn empty_nodes_hold_placeholders_that_counts_mask() {
        let mut cal: Calibrator<u64> = Calibrator::new(8, 1, 100);
        assert_eq!(cal.min_key(NodeId::ROOT), None);
        cal.update_slot(5, 1, Some(50));
        cal.update_slot(5, -1, None);
        // Slot 5's path keeps 50 as its placeholder, masked by a zero count.
        for n in cal.path_to_root(5) {
            assert_eq!((cal.count(n), cal.min_key(n)), (0, None));
        }
        assert_eq!(cal.find_slot(&60), 0);
        cal.update_slot(2, 1, Some(90));
        assert_eq!(cal.min_key(NodeId::ROOT), Some(90));
        assert_eq!(cal.min_key(NodeId(3)), None);
        assert_eq!(cal.find_slot(&95), 2);
    }

    #[test]
    fn single_slot_tree_is_just_a_root() {
        let cal: Calibrator<u64> = Calibrator::new(1, 2, 4);
        assert!(cal.is_leaf(NodeId::ROOT));
        assert_eq!(cal.leaf_of(0), NodeId::ROOT);
        assert_eq!(cal.select(0), None);
        assert_eq!(cal.log_slots(), 1); // clamped for threshold arithmetic
    }

    #[test]
    fn recompute_subtree_propagates_to_ancestors() {
        let mut cal: Calibrator<u64> = Calibrator::new(8, 1, 100);
        cal.set_leaf_raw(4, 5, Some(40));
        cal.set_leaf_raw(5, 2, Some(50));
        cal.recompute_subtree(NodeId(6)); // subtree over slots {4,5}
        assert_eq!(cal.count(NodeId(6)), 7);
        assert_eq!(cal.count(NodeId(3)), 7);
        assert_eq!(cal.count(NodeId::ROOT), 7);
        assert_eq!(cal.total(), 7);
        assert_eq!(cal.min_key(NodeId::ROOT), Some(40));
    }
}
