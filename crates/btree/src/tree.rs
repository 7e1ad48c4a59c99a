//! A disk-oriented B+-tree over a page arena with access accounting.

use dsf_pagestore::{AccessKind, IoStats, Key, Record, TraceBuffer};
use std::ops::Bound;

/// Sizing of a [`BPlusTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTreeConfig {
    /// Maximum records per leaf node (a leaf is one page; choose the same
    /// value as the dense file's `D` for a fair comparison).
    pub leaf_capacity: usize,
    /// Maximum children per internal node.
    pub fanout: usize,
}

impl BTreeConfig {
    /// A configuration whose leaves hold at most `page_capacity` records,
    /// with a fanout that assumes separators cost about the same as records.
    pub fn with_page_capacity(page_capacity: usize) -> Self {
        BTreeConfig {
            leaf_capacity: page_capacity,
            fanout: page_capacity.max(4),
        }
    }

    fn min_leaf(&self) -> usize {
        self.leaf_capacity.div_ceil(2)
    }

    fn min_fanout(&self) -> usize {
        self.fanout.div_ceil(2)
    }
}

/// Errors raised by [`BPlusTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BTreeError {
    /// `leaf_capacity` or `fanout` below the supported minimum.
    InvalidConfig,
    /// Bulk load on a non-empty tree.
    NotEmpty,
    /// Bulk-load input keys not strictly ascending.
    NotSorted {
        /// Index of the offending input record.
        index: usize,
    },
}

impl std::fmt::Display for BTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BTreeError::InvalidConfig => write!(f, "leaf_capacity and fanout must be ≥ 4"),
            BTreeError::NotEmpty => write!(f, "tree already contains records"),
            BTreeError::NotSorted { index } => {
                write!(
                    f,
                    "keys must be strictly ascending (violated at input index {index})"
                )
            }
        }
    }
}

impl std::error::Error for BTreeError {}

#[derive(Debug)]
enum Node<K, V> {
    Internal {
        keys: Vec<K>,
        children: Vec<u32>,
    },
    Leaf {
        recs: Vec<Record<K, V>>,
        next: Option<u32>,
    },
    Free,
}

enum Ins<K, V> {
    Done,
    Replaced(V),
    Split { sep: K, right: u32 },
}

/// A B+-tree whose every node occupies one accounted page.
#[derive(Debug)]
pub struct BPlusTree<K, V> {
    cfg: BTreeConfig,
    nodes: Vec<Node<K, V>>,
    free: Vec<u32>,
    root: u32,
    len: u64,
    stats: IoStats,
    trace: TraceBuffer,
}

impl<K: Key, V> BPlusTree<K, V> {
    /// Creates an empty tree.
    pub fn new(cfg: BTreeConfig) -> Result<Self, BTreeError> {
        if cfg.leaf_capacity < 4 || cfg.fanout < 4 {
            return Err(BTreeError::InvalidConfig);
        }
        Ok(BPlusTree {
            cfg,
            nodes: vec![Node::Leaf {
                recs: Vec::new(),
                next: None,
            }],
            free: Vec::new(),
            root: 0,
            len: 0,
            stats: IoStats::new(),
            trace: TraceBuffer::new(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> BTreeConfig {
        self.cfg
    }

    /// Number of records stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Page-access counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Optional physical access trace (for the disk model).
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Pages currently allocated (nodes, including the root).
    pub fn node_pages(&self) -> u64 {
        (self.nodes.len() - self.free.len()) as u64
    }

    /// Height of the tree (a root-only tree has height 1).
    pub fn height(&self) -> u32 {
        let mut h = 1;
        let mut n = self.root;
        while let Node::Internal { children, .. } = &self.nodes[n as usize] {
            n = children[0];
            h += 1;
        }
        h
    }

    #[inline]
    fn read(&self, id: u32) {
        self.stats.charge_reads(1);
        self.trace.record(u64::from(id), AccessKind::Read);
    }

    #[inline]
    fn write(&self, id: u32) {
        self.stats.charge_writes(1);
        self.trace.record(u64::from(id), AccessKind::Write);
    }

    fn alloc(&mut self, node: Node<K, V>) -> u32 {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn dealloc(&mut self, id: u32) {
        self.nodes[id as usize] = Node::Free;
        self.free.push(id);
    }

    /// Index of the child an internal node routes `key` to.
    fn route(keys: &[K], key: &K) -> usize {
        keys.partition_point(|s| s <= key)
    }

    // ------------------------------------------------------------------
    // Lookup.
    // ------------------------------------------------------------------

    /// Looks up a key, charging one read per level.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut n = self.root;
        loop {
            self.read(n);
            match &self.nodes[n as usize] {
                Node::Internal { keys, children } => n = children[Self::route(keys, key)],
                Node::Leaf { recs, .. } => {
                    return recs
                        .binary_search_by(|r| r.key.cmp(key))
                        .ok()
                        .map(|i| &recs[i].value);
                }
                Node::Free => unreachable!("routing reached a free page"),
            }
        }
    }

    /// Whether a key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    // ------------------------------------------------------------------
    // Insert.
    // ------------------------------------------------------------------

    /// Inserts a record, returning the previous value if the key existed.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.insert_rec(self.root, key, value) {
            Ins::Done => {
                self.len += 1;
                None
            }
            Ins::Replaced(v) => Some(v),
            Ins::Split { sep, right } => {
                let old_root = self.root;
                let new_root = self.alloc(Node::Internal {
                    keys: vec![sep],
                    children: vec![old_root, right],
                });
                self.root = new_root;
                self.write(new_root);
                self.len += 1;
                None
            }
        }
    }

    fn insert_rec(&mut self, n: u32, key: K, value: V) -> Ins<K, V> {
        self.read(n);
        let descend = match &self.nodes[n as usize] {
            Node::Internal { keys, children } => {
                let idx = Self::route(keys, &key);
                Some((children[idx], idx))
            }
            Node::Leaf { .. } => None,
            Node::Free => unreachable!("routing reached a free page"),
        };
        match descend {
            Some((child, idx)) => match self.insert_rec(child, key, value) {
                Ins::Split { sep, right } => {
                    let overflow = {
                        let Node::Internal { keys, children } = &mut self.nodes[n as usize] else {
                            unreachable!()
                        };
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        children.len() > self.cfg.fanout
                    };
                    self.write(n);
                    if overflow {
                        self.split_internal(n)
                    } else {
                        Ins::Done
                    }
                }
                other => other,
            },
            None => {
                let (replaced, overflow) = {
                    let Node::Leaf { recs, .. } = &mut self.nodes[n as usize] else {
                        unreachable!()
                    };
                    match recs.binary_search_by(|r| r.key.cmp(&key)) {
                        Ok(i) => (Some(std::mem::replace(&mut recs[i].value, value)), false),
                        Err(i) => {
                            recs.insert(i, Record::new(key, value));
                            (None, recs.len() > self.cfg.leaf_capacity)
                        }
                    }
                };
                self.write(n);
                match (replaced, overflow) {
                    (Some(old), _) => Ins::Replaced(old),
                    (None, true) => self.split_leaf(n),
                    (None, false) => Ins::Done,
                }
            }
        }
    }

    fn split_leaf(&mut self, n: u32) -> Ins<K, V> {
        let Node::Leaf { recs, next } = &mut self.nodes[n as usize] else {
            unreachable!()
        };
        let mid = recs.len() / 2;
        let right_recs = recs.split_off(mid);
        let old_next = *next;
        let sep = right_recs[0].key;
        let right = self.alloc(Node::Leaf {
            recs: right_recs,
            next: old_next,
        });
        let Node::Leaf { next, .. } = &mut self.nodes[n as usize] else {
            unreachable!()
        };
        *next = Some(right);
        self.write(n);
        self.write(right);
        Ins::Split { sep, right }
    }

    fn split_internal(&mut self, n: u32) -> Ins<K, V> {
        let Node::Internal { keys, children } = &mut self.nodes[n as usize] else {
            unreachable!()
        };
        let mid = keys.len() / 2;
        let sep = keys[mid];
        let right_keys = keys.split_off(mid + 1);
        keys.pop(); // the promoted separator
        let right_children = children.split_off(mid + 1);
        let right = self.alloc(Node::Internal {
            keys: right_keys,
            children: right_children,
        });
        self.write(n);
        self.write(right);
        Ins::Split { sep, right }
    }

    // ------------------------------------------------------------------
    // Remove.
    // ------------------------------------------------------------------

    /// Deletes a key, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let out = self.remove_rec(self.root, key)?;
        self.len -= 1;
        // Collapse a root with a single child.
        if let Node::Internal { children, .. } = &self.nodes[self.root as usize] {
            if children.len() == 1 {
                let only = children[0];
                let old = self.root;
                self.root = only;
                self.dealloc(old);
            }
        }
        Some(out)
    }

    fn remove_rec(&mut self, n: u32, key: &K) -> Option<V> {
        self.read(n);
        match &mut self.nodes[n as usize] {
            Node::Leaf { recs, .. } => match recs.binary_search_by(|r| r.key.cmp(key)) {
                Ok(i) => {
                    let rec = recs.remove(i);
                    self.write(n);
                    Some(rec.value)
                }
                Err(_) => None,
            },
            Node::Internal { keys, children } => {
                let idx = Self::route(keys, key);
                let child = children[idx];
                let out = self.remove_rec(child, key)?;
                if self.is_deficient(child) {
                    self.rebalance_child(n, idx);
                }
                Some(out)
            }
            Node::Free => unreachable!("routing reached a free page"),
        }
    }

    fn is_deficient(&self, n: u32) -> bool {
        match &self.nodes[n as usize] {
            Node::Leaf { recs, .. } => recs.len() < self.cfg.min_leaf(),
            Node::Internal { children, .. } => children.len() < self.cfg.min_fanout(),
            Node::Free => unreachable!(),
        }
    }

    fn child_size(&self, n: u32) -> usize {
        match &self.nodes[n as usize] {
            Node::Leaf { recs, .. } => recs.len(),
            Node::Internal { children, .. } => children.len(),
            Node::Free => unreachable!(),
        }
    }

    fn child_min(&self, n: u32) -> usize {
        match &self.nodes[n as usize] {
            Node::Leaf { .. } => self.cfg.min_leaf(),
            Node::Internal { .. } => self.cfg.min_fanout(),
            Node::Free => unreachable!(),
        }
    }

    /// Restores the size invariant of `parent`'s `idx`-th child by borrowing
    /// from a sibling when possible, merging otherwise.
    fn rebalance_child(&mut self, parent: u32, idx: usize) {
        let (left_sib, right_sib, child) = {
            let Node::Internal { children, .. } = &self.nodes[parent as usize] else {
                unreachable!()
            };
            (
                if idx > 0 {
                    Some(children[idx - 1])
                } else {
                    None
                },
                children.get(idx + 1).copied(),
                children[idx],
            )
        };
        if let Some(l) = left_sib {
            if self.child_size(l) > self.child_min(l) {
                self.read(l);
                self.borrow_from_left(parent, idx, l, child);
                return;
            }
        }
        if let Some(r) = right_sib {
            if self.child_size(r) > self.child_min(r) {
                self.read(r);
                self.borrow_from_right(parent, idx, child, r);
                return;
            }
        }
        // Merge with a sibling (prefer left).
        if let Some(l) = left_sib {
            self.read(l);
            self.merge_children(parent, idx - 1, l, child);
        } else if let Some(r) = right_sib {
            self.read(r);
            self.merge_children(parent, idx, child, r);
        }
        // A root child with no siblings is legal at any size.
    }

    fn borrow_from_left(&mut self, parent: u32, idx: usize, left: u32, child: u32) {
        // Move the left sibling's last entry into the child's front.
        if matches!(self.nodes[child as usize], Node::Leaf { .. }) {
            let Node::Leaf { recs: lrecs, .. } = &mut self.nodes[left as usize] else {
                unreachable!()
            };
            let moved = lrecs.pop().expect("left sibling above minimum");
            let new_sep = moved.key;
            let Node::Leaf { recs, .. } = &mut self.nodes[child as usize] else {
                unreachable!()
            };
            recs.insert(0, moved);
            let Node::Internal { keys, .. } = &mut self.nodes[parent as usize] else {
                unreachable!()
            };
            keys[idx - 1] = new_sep;
        } else {
            let Node::Internal {
                keys: lkeys,
                children: lchildren,
            } = &mut self.nodes[left as usize]
            else {
                unreachable!()
            };
            let moved_child = lchildren.pop().expect("left sibling above minimum");
            let moved_key = lkeys.pop().expect("internal node has keys");
            let Node::Internal { keys: pkeys, .. } = &mut self.nodes[parent as usize] else {
                unreachable!()
            };
            let sep = std::mem::replace(&mut pkeys[idx - 1], moved_key);
            let Node::Internal { keys, children } = &mut self.nodes[child as usize] else {
                unreachable!()
            };
            keys.insert(0, sep);
            children.insert(0, moved_child);
        }
        self.write(left);
        self.write(child);
        self.write(parent);
    }

    fn borrow_from_right(&mut self, parent: u32, idx: usize, child: u32, right: u32) {
        if matches!(self.nodes[child as usize], Node::Leaf { .. }) {
            let Node::Leaf { recs: rrecs, .. } = &mut self.nodes[right as usize] else {
                unreachable!()
            };
            let moved = rrecs.remove(0);
            let new_sep = rrecs[0].key;
            let Node::Leaf { recs, .. } = &mut self.nodes[child as usize] else {
                unreachable!()
            };
            recs.push(moved);
            let Node::Internal { keys, .. } = &mut self.nodes[parent as usize] else {
                unreachable!()
            };
            keys[idx] = new_sep;
        } else {
            let Node::Internal {
                keys: rkeys,
                children: rchildren,
            } = &mut self.nodes[right as usize]
            else {
                unreachable!()
            };
            let moved_child = rchildren.remove(0);
            let moved_key = rkeys.remove(0);
            let Node::Internal { keys: pkeys, .. } = &mut self.nodes[parent as usize] else {
                unreachable!()
            };
            let sep = std::mem::replace(&mut pkeys[idx], moved_key);
            let Node::Internal { keys, children } = &mut self.nodes[child as usize] else {
                unreachable!()
            };
            keys.push(sep);
            children.push(moved_child);
        }
        self.write(right);
        self.write(child);
        self.write(parent);
    }

    /// Merges `children[i+1]` into `children[i]` of `parent`.
    fn merge_children(&mut self, parent: u32, i: usize, left: u32, right: u32) {
        let Node::Internal { keys, children } = &mut self.nodes[parent as usize] else {
            unreachable!()
        };
        let sep = keys.remove(i);
        children.remove(i + 1);
        match std::mem::replace(&mut self.nodes[right as usize], Node::Free) {
            Node::Leaf {
                recs: rrecs,
                next: rnext,
            } => {
                let Node::Leaf { recs, next } = &mut self.nodes[left as usize] else {
                    unreachable!()
                };
                recs.extend(rrecs);
                *next = rnext;
            }
            Node::Internal {
                keys: rkeys,
                children: rchildren,
            } => {
                let Node::Internal { keys, children } = &mut self.nodes[left as usize] else {
                    unreachable!()
                };
                keys.push(sep);
                keys.extend(rkeys);
                children.extend(rchildren);
            }
            Node::Free => unreachable!(),
        }
        self.free.push(right);
        self.write(left);
        self.write(parent);
    }

    // ------------------------------------------------------------------
    // Bulk load.
    // ------------------------------------------------------------------

    /// Builds the tree from strictly-ascending records, filling leaves to
    /// ~90% — the layout a fresh offline build produces. Leaves come out
    /// physically adjacent; the `exp_stream_retrieval` experiment shows how
    /// update traffic destroys that adjacency over time.
    pub fn bulk_load<I>(&mut self, items: I) -> Result<(), BTreeError>
    where
        I: IntoIterator<Item = (K, V)>,
    {
        if self.len > 0 {
            return Err(BTreeError::NotEmpty);
        }
        let mut recs: Vec<Record<K, V>> = Vec::new();
        for (index, (k, v)) in items.into_iter().enumerate() {
            if let Some(prev) = recs.last() {
                if prev.key >= k {
                    return Err(BTreeError::NotSorted { index });
                }
            }
            recs.push(Record::new(k, v));
        }
        self.nodes.clear();
        self.free.clear();
        self.len = recs.len() as u64;
        if recs.is_empty() {
            self.nodes.push(Node::Leaf {
                recs: Vec::new(),
                next: None,
            });
            self.root = 0;
            return Ok(());
        }

        // Leaves: evenly-sized groups targeting ~90% fill, clamped so every
        // leaf respects [min_leaf, leaf_capacity].
        let n = recs.len();
        let target = (self.cfg.leaf_capacity * 9 / 10).max(1);
        let groups = Self::group_count(n, self.cfg.min_leaf(), self.cfg.leaf_capacity, target);
        let mut chunks: Vec<Vec<Record<K, V>>> = Vec::with_capacity(groups);
        for i in (0..groups).rev() {
            chunks.push(recs.split_off(n * i / groups));
        }
        chunks.reverse();
        let mut leaves: Vec<u32> = Vec::with_capacity(groups);
        let mut seps: Vec<K> = Vec::with_capacity(groups.saturating_sub(1));
        for chunk in chunks {
            if !leaves.is_empty() {
                seps.push(chunk[0].key);
            }
            let id = self.alloc(Node::Leaf {
                recs: chunk,
                next: None,
            });
            if let Some(&prev) = leaves.last() {
                let Node::Leaf { next, .. } = &mut self.nodes[prev as usize] else {
                    unreachable!()
                };
                *next = Some(id);
            }
            self.write(id);
            leaves.push(id);
        }
        self.root = self.build_internal_levels(leaves, seps);
        Ok(())
    }

    /// Number of evenly-sized groups for `n` items such that every group
    /// lands in `[min, max]`, preferring sizes near `target`. Requires the
    /// classic B-tree feasibility `min = ⌈max/2⌉`; a single group is always
    /// legal at the root.
    fn group_count(n: usize, min: usize, max: usize, target: usize) -> usize {
        if n <= max {
            return 1;
        }
        let lo = n.div_ceil(max);
        let hi = n / min;
        debug_assert!(
            lo <= hi,
            "B-tree grouping infeasible: n={n} min={min} max={max}"
        );
        n.div_ceil(target).clamp(lo, hi)
    }

    fn build_internal_levels(&mut self, mut level: Vec<u32>, mut seps: Vec<K>) -> u32 {
        let target = (self.cfg.fanout * 9 / 10).max(2);
        while level.len() > 1 {
            debug_assert_eq!(seps.len() + 1, level.len());
            let n = level.len();
            let groups = Self::group_count(n, self.cfg.min_fanout(), self.cfg.fanout, target);
            let mut next_level = Vec::with_capacity(groups);
            let mut next_seps = Vec::with_capacity(groups.saturating_sub(1));
            for g in 0..groups {
                let start = n * g / groups;
                let end = n * (g + 1) / groups;
                let children: Vec<u32> = level[start..end].to_vec();
                let keys: Vec<K> = seps[start..end - 1].to_vec();
                if end < n {
                    next_seps.push(seps[end - 1]);
                }
                let id = self.alloc(Node::Internal { keys, children });
                self.write(id);
                next_level.push(id);
            }
            level = next_level;
            seps = next_seps;
        }
        level[0]
    }

    // ------------------------------------------------------------------
    // Scans.
    // ------------------------------------------------------------------

    /// Streams records with keys in `[start, end)` bounds in key order,
    /// charging one read per node on the initial descent and one per leaf
    /// visited along the chain.
    pub fn scan<F: FnMut(&K, &V)>(&self, start: Bound<K>, end: Bound<K>, mut f: F) {
        if self.len == 0 {
            return;
        }
        // Descend to the first candidate leaf.
        let mut n = self.root;
        loop {
            self.read(n);
            match &self.nodes[n as usize] {
                Node::Internal { keys, children } => {
                    let idx = match &start {
                        Bound::Unbounded => 0,
                        Bound::Included(k) | Bound::Excluded(k) => Self::route(keys, k),
                    };
                    n = children[idx];
                }
                Node::Leaf { .. } => break,
                Node::Free => unreachable!(),
            }
        }
        let mut leaf = Some(n);
        let mut first = true;
        while let Some(id) = leaf {
            if !first {
                self.read(id);
            }
            first = false;
            let Node::Leaf { recs, next } = &self.nodes[id as usize] else {
                unreachable!()
            };
            for rec in recs {
                let after_start = match &start {
                    Bound::Unbounded => true,
                    Bound::Included(s) => rec.key >= *s,
                    Bound::Excluded(s) => rec.key > *s,
                };
                if !after_start {
                    continue;
                }
                let before_end = match &end {
                    Bound::Unbounded => true,
                    Bound::Included(e) => rec.key <= *e,
                    Bound::Excluded(e) => rec.key < *e,
                };
                if !before_end {
                    return;
                }
                f(&rec.key, &rec.value);
            }
            leaf = *next;
        }
    }

    /// Streams at most `limit` records with keys ≥ `start`, stopping early —
    /// the cost-faithful form of stream retrieval (reads only the leaves it
    /// must). Returns how many records were produced.
    pub fn scan_limited<F: FnMut(&K, &V)>(&self, start: &K, limit: usize, mut f: F) -> usize {
        if self.len == 0 || limit == 0 {
            return 0;
        }
        let mut n = self.root;
        loop {
            self.read(n);
            match &self.nodes[n as usize] {
                Node::Internal { keys, children } => n = children[Self::route(keys, start)],
                Node::Leaf { .. } => break,
                Node::Free => unreachable!(),
            }
        }
        let mut produced = 0usize;
        let mut leaf = Some(n);
        let mut first = true;
        while let Some(id) = leaf {
            if !first {
                self.read(id);
            }
            first = false;
            let Node::Leaf { recs, next } = &self.nodes[id as usize] else {
                unreachable!()
            };
            for rec in recs {
                if rec.key < *start {
                    continue;
                }
                f(&rec.key, &rec.value);
                produced += 1;
                if produced >= limit {
                    return produced;
                }
            }
            leaf = *next;
        }
        produced
    }

    /// Streams records with keys in `range` as an iterator (charging one
    /// read per node on the initial descent and one per leaf crossed).
    pub fn iter_range<R: std::ops::RangeBounds<K>>(&self, range: R) -> BTreeIter<'_, K, V> {
        BTreeIter::new(
            self,
            range.start_bound().cloned(),
            range.end_bound().cloned(),
        )
    }

    /// Streams every record in key order.
    pub fn iter(&self) -> BTreeIter<'_, K, V> {
        self.iter_range(..)
    }

    /// The page numbers of the leaf chain in key order — the physical
    /// scatter a stream retrieval must traverse.
    pub fn leaf_page_ids(&self) -> Vec<u32> {
        let mut n = self.root;
        loop {
            match &self.nodes[n as usize] {
                Node::Internal { children, .. } => n = children[0],
                Node::Leaf { .. } => break,
                Node::Free => unreachable!(),
            }
        }
        let mut out = Vec::new();
        let mut leaf = Some(n);
        while let Some(id) = leaf {
            out.push(id);
            let Node::Leaf { next, .. } = &self.nodes[id as usize] else {
                unreachable!()
            };
            leaf = *next;
        }
        out
    }

    // ------------------------------------------------------------------
    // Structural checking (tests).
    // ------------------------------------------------------------------

    /// Verifies the structural invariants; returns a description of the
    /// first problem found.
    pub fn check_structure(&self) -> Result<(), String> {
        let mut leaf_depths = Vec::new();
        self.check_node(self.root, None, None, 0, true, &mut leaf_depths)?;
        if leaf_depths.windows(2).any(|w| w[0] != w[1]) {
            return Err("leaves at differing depths".into());
        }
        // Leaf chain must be globally sorted and cover `len` records.
        let mut total = 0u64;
        let mut prev: Option<K> = None;
        for id in self.leaf_page_ids() {
            let Node::Leaf { recs, .. } = &self.nodes[id as usize] else {
                return Err(format!("leaf chain reached non-leaf page {id}"));
            };
            for r in recs {
                if let Some(p) = prev {
                    if p >= r.key {
                        return Err(format!("leaf chain out of order at page {id}"));
                    }
                }
                prev = Some(r.key);
                total += 1;
            }
        }
        if total != self.len {
            return Err(format!("len {} but leaf chain holds {total}", self.len));
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn check_node(
        &self,
        n: u32,
        lower: Option<K>,
        upper: Option<K>,
        depth: u32,
        is_root: bool,
        leaf_depths: &mut Vec<u32>,
    ) -> Result<(), String> {
        match &self.nodes[n as usize] {
            Node::Free => Err(format!("reachable free page {n}")),
            Node::Leaf { recs, .. } => {
                if !is_root && recs.len() < self.cfg.min_leaf() {
                    return Err(format!("leaf {n} under-full ({})", recs.len()));
                }
                if recs.len() > self.cfg.leaf_capacity {
                    return Err(format!("leaf {n} over-full ({})", recs.len()));
                }
                for r in recs {
                    if lower.is_some_and(|b| r.key < b) || upper.is_some_and(|b| r.key >= b) {
                        return Err(format!("leaf {n} key out of separator bounds"));
                    }
                }
                leaf_depths.push(depth);
                Ok(())
            }
            Node::Internal { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err(format!("internal {n} arity mismatch"));
                }
                if !is_root && children.len() < self.cfg.min_fanout() {
                    return Err(format!("internal {n} under-full"));
                }
                if children.len() > self.cfg.fanout {
                    return Err(format!("internal {n} over-full"));
                }
                if !keys.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("internal {n} separators unsorted"));
                }
                for (i, &c) in children.iter().enumerate() {
                    let lo = if i == 0 { lower } else { Some(keys[i - 1]) };
                    let hi = if i == keys.len() {
                        upper
                    } else {
                        Some(keys[i])
                    };
                    self.check_node(c, lo, hi, depth + 1, false, leaf_depths)?;
                }
                Ok(())
            }
        }
    }
}

/// An ordered iterator over a [`BPlusTree`], yielding `(&K, &V)`.
pub struct BTreeIter<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    /// Current leaf page, or `None` when exhausted.
    leaf: Option<u32>,
    /// Next record index within the current leaf.
    idx: usize,
    /// Whether the current leaf's read has been charged.
    charged: bool,
    start: Bound<K>,
    end: Bound<K>,
    started: bool,
}

impl<'a, K: Key, V> BTreeIter<'a, K, V> {
    fn new(tree: &'a BPlusTree<K, V>, start: Bound<K>, end: Bound<K>) -> Self {
        let leaf = if tree.len == 0 {
            None
        } else {
            let mut n = tree.root;
            loop {
                tree.read(n);
                match &tree.nodes[n as usize] {
                    Node::Internal { keys, children } => {
                        let idx = match &start {
                            Bound::Unbounded => 0,
                            Bound::Included(k) | Bound::Excluded(k) => {
                                BPlusTree::<K, V>::route(keys, k)
                            }
                        };
                        n = children[idx];
                    }
                    Node::Leaf { .. } => break,
                    Node::Free => unreachable!(),
                }
            }
            Some(n)
        };
        BTreeIter {
            tree,
            leaf,
            idx: 0,
            charged: true, // the descent already read the first leaf
            start,
            end,
            started: false,
        }
    }
}

impl<'a, K: Key, V> Iterator for BTreeIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let id = self.leaf?;
            if !self.charged {
                self.tree.read(id);
                self.charged = true;
            }
            let Node::Leaf { recs, next } = &self.tree.nodes[id as usize] else {
                unreachable!()
            };
            if self.idx >= recs.len() {
                self.leaf = *next;
                self.idx = 0;
                self.charged = false;
                continue;
            }
            let rec = &recs[self.idx];
            self.idx += 1;
            if !self.started {
                let before = match &self.start {
                    Bound::Unbounded => false,
                    Bound::Included(s) => rec.key < *s,
                    Bound::Excluded(s) => rec.key <= *s,
                };
                if before {
                    continue;
                }
                self.started = true;
            }
            let past = match &self.end {
                Bound::Unbounded => false,
                Bound::Included(e) => rec.key > *e,
                Bound::Excluded(e) => rec.key >= *e,
            };
            if past {
                self.leaf = None;
                return None;
            }
            return Some((&rec.key, &rec.value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(cap: usize) -> BPlusTree<u64, u64> {
        BPlusTree::new(BTreeConfig::with_page_capacity(cap)).unwrap()
    }

    #[test]
    fn rejects_tiny_configs() {
        assert_eq!(
            BPlusTree::<u64, u64>::new(BTreeConfig {
                leaf_capacity: 2,
                fanout: 8
            })
            .unwrap_err(),
            BTreeError::InvalidConfig
        );
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = tree(8);
        for k in 0..100u64 {
            assert_eq!(t.insert(k * 3, k), None);
        }
        assert_eq!(t.len(), 100);
        t.check_structure().unwrap();
        for k in 0..100u64 {
            assert_eq!(t.get(&(k * 3)), Some(&k));
        }
        assert_eq!(t.get(&1), None);
        assert_eq!(t.insert(30, 999), Some(10));
        for k in 0..100u64 {
            assert!(t.remove(&(k * 3)).is_some(), "key {k}");
            t.check_structure().unwrap();
        }
        assert!(t.is_empty());
    }

    #[test]
    fn random_workload_matches_btreemap() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        let mut t = tree(12);
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..5000 {
            let k = rng.gen_range(0..800u64);
            if rng.gen_bool(0.6) {
                assert_eq!(t.insert(k, k * 2), model.insert(k, k * 2));
            } else {
                assert_eq!(t.remove(&k), model.remove(&k));
            }
        }
        t.check_structure().unwrap();
        let got: Vec<(u64, u64)> = t.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn bulk_load_builds_a_valid_tree() {
        let mut t = tree(16);
        t.bulk_load((0..1000u64).map(|k| (k * 2, k))).unwrap();
        assert_eq!(t.len(), 1000);
        t.check_structure().unwrap();
        assert_eq!(t.get(&500), Some(&250));
        assert_eq!(t.get(&501), None);
        let all: Vec<(u64, u64)> = t.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(all.len(), 1000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn bulk_load_rejects_unsorted_and_non_empty() {
        let mut t = tree(8);
        assert_eq!(
            t.bulk_load([(5u64, 0u64), (3, 0)]).unwrap_err(),
            BTreeError::NotSorted { index: 1 }
        );
        let mut t = tree(8);
        t.insert(1, 1);
        assert_eq!(
            t.bulk_load([(5u64, 0u64)]).unwrap_err(),
            BTreeError::NotEmpty
        );
    }

    #[test]
    fn bulk_load_of_tiny_inputs() {
        for n in 0..20u64 {
            let mut t = tree(8);
            t.bulk_load((0..n).map(|k| (k, k))).unwrap();
            assert_eq!(t.len(), n);
            t.check_structure().unwrap();
            assert_eq!(t.iter().count() as u64, n);
        }
    }

    #[test]
    fn scans_respect_bounds() {
        let mut t = tree(8);
        t.bulk_load((0..100u64).map(|k| (k * 10, k))).unwrap();
        let mut got = Vec::new();
        t.scan(Bound::Included(250), Bound::Included(500), |k, _| {
            got.push(*k)
        });
        assert_eq!(got.first(), Some(&250));
        assert_eq!(got.last(), Some(&500));
        assert_eq!(got.len(), 26);
        let mut got = Vec::new();
        t.scan(Bound::Excluded(250), Bound::Excluded(500), |k, _| {
            got.push(*k)
        });
        assert_eq!(got.first(), Some(&260));
        assert_eq!(got.last(), Some(&490));
    }

    #[test]
    fn update_traffic_scatters_the_leaf_chain() {
        // Bulk-loaded leaves are physically consecutive; random inserts
        // break the adjacency — the effect the disk-model experiment
        // quantifies.
        let mut t = tree(16);
        t.bulk_load((0..2000u64).map(|k| (k * 4, k))).unwrap();
        let fresh = t.leaf_page_ids();
        let fresh_adjacent =
            fresh.windows(2).filter(|w| w[1] == w[0] + 1).count() as f64 / fresh.len() as f64;
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..4000 {
            let k = rng.gen_range(0..8000u64);
            t.insert(k, 0);
        }
        t.check_structure().unwrap();
        let aged = t.leaf_page_ids();
        let aged_adjacent =
            aged.windows(2).filter(|w| w[1] == w[0] + 1).count() as f64 / aged.len() as f64;
        assert!(
            aged_adjacent < fresh_adjacent,
            "adjacency should decay: fresh {fresh_adjacent:.2} aged {aged_adjacent:.2}"
        );
    }

    #[test]
    fn io_costs_scale_with_height() {
        let mut t = tree(8);
        t.bulk_load((0..5000u64).map(|k| (k, k))).unwrap();
        let h = t.height() as u64;
        assert!(h >= 3);
        let snap = t.stats().snapshot();
        t.get(&2500);
        let d = t.stats().since(snap);
        assert_eq!(d.reads, h);
        assert_eq!(d.writes, 0);
    }

    #[test]
    fn height_and_pages_reported() {
        let mut t = tree(8);
        assert_eq!(t.height(), 1);
        assert_eq!(t.node_pages(), 1);
        for k in 0..200u64 {
            t.insert(k, k);
        }
        assert!(t.height() >= 2);
        assert!(t.node_pages() > 20);
    }

    #[test]
    fn iterator_matches_callback_scan() {
        let mut t = tree(8);
        t.bulk_load((0..500u64).map(|k| (k * 3, k))).unwrap();
        let via_iter: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        let mut via_scan = Vec::new();
        t.scan(Bound::Unbounded, Bound::Unbounded, |k, _| via_scan.push(*k));
        assert_eq!(via_iter, via_scan);
        let bounded: Vec<u64> = t.iter_range(30..=60).map(|(k, _)| *k).collect();
        assert_eq!(bounded, vec![30, 33, 36, 39, 42, 45, 48, 51, 54, 57, 60]);
        assert_eq!(t.iter_range(1..3).count(), 0);
        let empty = tree(8);
        assert_eq!(empty.iter().count(), 0);
    }

    #[test]
    fn empty_scan_is_free_of_panics() {
        let t = tree(8);
        let mut count = 0;
        t.scan(Bound::Unbounded, Bound::Unbounded, |_, _| count += 1);
        assert_eq!(count, 0);
    }

    /// Builds a small two-level tree (leaf capacity 4, so minimum fill 2),
    /// the geometry where individual rebalancing paths are easy to drive.
    fn two_level(records: u64) -> BPlusTree<u64, u64> {
        let mut t = BPlusTree::new(BTreeConfig {
            leaf_capacity: 4,
            fanout: 4,
        })
        .unwrap();
        t.bulk_load((0..records).map(|k| (k * 10, k))).unwrap();
        assert!(t.height() >= 2, "need an internal level");
        t.check_structure().unwrap();
        t
    }

    #[test]
    fn delete_exercises_borrow_from_left_sibling() {
        let mut t = two_level(9);
        // Drain the rightmost leaf until it underflows; with fuller left
        // siblings the fix must be a borrow (structure check would catch a
        // bad separator).
        let keys: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        for k in keys.iter().rev().take(4) {
            t.remove(k).unwrap();
            t.check_structure().unwrap();
        }
        assert_eq!(t.len(), keys.len() as u64 - 4);
    }

    #[test]
    fn delete_exercises_borrow_from_right_sibling() {
        let mut t = two_level(9);
        let keys: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        // Drain from the front: the leftmost leaf underflows and must borrow
        // from (or merge with) its right sibling.
        for k in keys.iter().take(4) {
            t.remove(k).unwrap();
            t.check_structure().unwrap();
        }
        assert_eq!(t.len(), keys.len() as u64 - 4);
    }

    #[test]
    fn deletes_shrink_height_via_root_collapse() {
        let mut t = tree(4);
        for k in 0..64u64 {
            t.insert(k, k);
        }
        let tall = t.height();
        assert!(tall >= 3);
        for k in 0..60u64 {
            t.remove(&k);
            t.check_structure().unwrap();
        }
        assert!(t.height() < tall, "root collapse must shrink the tree");
        assert_eq!(t.len(), 4);
        for k in 60..64u64 {
            assert_eq!(t.get(&k), Some(&k));
        }
    }

    #[test]
    fn interleaved_insert_delete_churn_at_min_occupancy() {
        // Hold the tree near minimum fill while churning, so borrows and
        // merges fire constantly in both directions.
        let mut t = tree(4);
        for k in 0..40u64 {
            t.insert(k, k);
        }
        for round in 0..200u64 {
            let del = (round * 7) % 40;
            let ins = 1000 + round;
            t.remove(&del);
            t.insert(ins, ins);
            t.insert(del, del); // put it back
            t.remove(&ins);
            if round % 10 == 0 {
                t.check_structure().unwrap();
            }
        }
        t.check_structure().unwrap();
        assert_eq!(t.len(), 40);
    }

    #[test]
    fn scan_limited_charges_less_than_full_scan() {
        let mut t = tree(8);
        t.bulk_load((0..2000u64).map(|k| (k, k))).unwrap();
        let snap = t.stats().snapshot();
        let got = t.scan_limited(&500, 10, |_, _| {});
        assert_eq!(got, 10);
        let short = t.stats().since(snap).reads;
        let snap = t.stats().snapshot();
        let got = t.scan_limited(&0, usize::MAX, |_, _| {});
        assert_eq!(got, 2000);
        let full = t.stats().since(snap).reads;
        assert!(
            short * 4 < full,
            "early termination must save reads: {short} vs {full}"
        );
    }

    #[test]
    fn descending_inserts_then_full_drain() {
        let mut t = tree(8);
        for k in (0..500u64).rev() {
            t.insert(k, k);
        }
        t.check_structure().unwrap();
        assert_eq!(t.len(), 500);
        for k in 0..500u64 {
            assert_eq!(t.remove(&k), Some(k));
        }
        t.check_structure().unwrap();
        assert!(t.is_empty());
        // And the tree is reusable afterwards.
        t.insert(7, 7);
        assert_eq!(t.get(&7), Some(&7));
    }
}
