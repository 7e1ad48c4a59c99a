//! Optimistic lock-free reads: a published, epoch-validated snapshot of the
//! file.
//!
//! The write path's density machinery ("Online List Labeling" keeps its page
//! bounds untouched) stays exactly as the paper specifies; the read path
//! goes *around* it. A [`ReadView`] is a shared, immutable-per-generation
//! image of every slot's records that the owning [`DenseFile`] republishes
//! at the end of each single command, each batch and each offline pass,
//! guarded by a seqlock-style protocol: one **epoch** counter for the whole
//! view — even = stable, odd = a publication is in progress. Every cell
//! swap happens inside the odd window, and each cell is a mutex around its
//! `Arc`, so a reader's cell lock is ordered against the swap: a reader
//! that saw a swapped (or half-published) cell also sees the epoch moved.
//!
//! **Once per batch.** [`DenseFile::apply_batch`] holds publication across
//! its commands and publishes once at the end, over the batch's
//! deduplicated dirty slots (see [`DenseFile::hold_publication`]; holds
//! nest, so a durable layer can hold across its whole commit). Mid-command
//! SHIFT states and mid-batch states are never published: every view
//! generation is the state at a batch boundary (a single command being a
//! batch of one) — the linearizability the E20 oracle checks.
//!
//! **Recycled images.** The images a publication replaces are retired into
//! a small bounded pool owned by the writer. The next publication refills
//! a pooled image in place (field-wise `clone_from`, so `String` payload
//! buffers are reused) when `Arc::get_mut` proves no reader still holds
//! it, and allocates only on a pool miss. A steady-state publication
//! therefore allocates and frees nothing.
//!
//! **Pointer swaps only.** The fresh images are filled *before* the epoch
//! goes odd, and the retired ones go back to the pool (or are freed)
//! *after* it is even again, so the odd window spans only the `Arc`
//! pointer swaps and the routing-node stores — a long CONTROL-2 rebalance (SHIFT chains across many
//! slots) does its page work and its copies entirely outside the window
//! and can never livelock readers for the duration of the rebalance.
//!
//! **One router.** The view also publishes the calibrator's per-node min
//! keys (DESIGN.md §3.1), as `u64` images (hence `K: Into<u64>`), in the
//! same odd window. Reads route by [`Calibrator::find_slot`]'s own descent
//! over that copy: ⌈log M⌉ atomic loads and no lock, on any layout.
//!
//! Readers run [`ReadView::try_get`] / [`ReadView::try_collect_range`]
//! without taking any file lock: load the epoch (must be even), route, read
//! the cell(s) they need, then re-check the epoch. A torn read retries with
//! bounded backoff ([`MAX_ATTEMPTS`]); a *decline* (a collection of more than
//! `SCAN_SLOT_LIMIT` occupied slots) seen under an unchanged even epoch
//! gives up at once, since every retry against that generation would
//! decline the same way. Either way the caller gets [`ReadConflict`] and
//! falls back to the shard read lock. Outcomes are counted **unsampled**
//! in `dsf_read_optimistic_hits` / `dsf_read_retries` /
//! `dsf_read_fallbacks`.

use std::collections::VecDeque;
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dsf_pagestore::{Key, PagedStore, Record, SlotId};
use dsf_telemetry::Counter;

use crate::calibrator::{Calibrator, Geometry, NodeId};
use crate::config::ResolvedConfig;

/// Attempts (1 initial + retries) before an optimistic read gives up.
///
/// Deliberately small: on parallel hardware a lost validation resolves
/// within a few spins (the writer's publication window is nanoseconds),
/// while on an oversubscribed host extra yield-retries only prolong the
/// stall — the writer needs the CPU, and the locked fallback *parks*,
/// which donates it. Four spins catch the fast case; two yields cover
/// scheduler jitter; then the caller takes the lock.
pub const MAX_ATTEMPTS: u32 = 6;

/// Collections that would collect more than this many occupied slots
/// decline: collecting S cells under one epoch window takes time linear in
/// S, and past this width a concurrent writer publishing every command
/// would win the race often enough that the retries are wasted work. Empty
/// slots in between are passed over uncounted, so where the records sit
/// never decides whether a collection with a limit is answered.
const SCAN_SLOT_LIMIT: u64 = 1024;

/// An optimistic read lost [`MAX_ATTEMPTS`] races, or the view declined a
/// collection too wide to read; the caller should fall back to a locked
/// read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadConflict;

impl std::fmt::Display for ReadConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "optimistic read conflicted; use the locked fallback")
    }
}

impl std::error::Error for ReadConflict {}

/// Unsampled outcome counters for the optimistic read path. Unlike the
/// 1-in-16 sampled `dsf_shard_lock_wait_micros` histogram, these count
/// **every** operation, so the telemetry reconcile test can assert them
/// exactly: `hits + fallbacks = operations`, `retries = extra attempts`.
pub(crate) struct ReadTel {
    /// `dsf_read_optimistic_hits` — reads answered lock-free.
    pub hits: Arc<Counter>,
    /// `dsf_read_retries` — attempts beyond each read's first.
    pub retries: Arc<Counter>,
    /// `dsf_read_fallbacks` — reads that gave up (lost [`MAX_ATTEMPTS`]
    /// races, or were collections declined as too wide).
    pub fallbacks: Arc<Counter>,
}

pub(crate) fn read_tel() -> &'static ReadTel {
    static TEL: OnceLock<ReadTel> = OnceLock::new();
    TEL.get_or_init(|| {
        let r = dsf_telemetry::global();
        ReadTel {
            hits: r.counter(
                "dsf_read_optimistic_hits",
                "reads answered by the optimistic lock-free path",
            ),
            retries: r.counter(
                "dsf_read_retries",
                "optimistic read attempts beyond each read's first",
            ),
            fallbacks: r.counter(
                "dsf_read_fallbacks",
                "optimistic reads that were declined as too wide or exhausted retries and fell back to a lock",
            ),
        }
    })
}

/// A published generation of one slot's records, shared by `Arc` so a
/// validated reader walks it without copying.
pub(crate) type SlotImage<K, V> = Arc<Vec<Record<K, V>>>;

/// One slot's published image. The mutex makes the `Arc` clone atomic
/// against a swap; the view's epoch, not the cell, tells a reader that a
/// publication overlapped it (see [`ReadView::read_cell`]).
type SlotCell<K, V> = Mutex<SlotImage<K, V>>;

/// One calibrator node's published min key. `min` is the key's `u64`
/// image, or `u64::MAX` for an empty node; since `u64::MAX` is also a
/// legal key image, `nonempty` tells the two apart.
struct NodeKey {
    min: AtomicU64,
    nonempty: AtomicBool,
}

impl NodeKey {
    /// Copies node `n`'s min key (`None` exactly for a zero count).
    /// `Release` pairs with the readers' `Acquire` loads.
    fn publish<K: Key + Into<u64>>(&self, cal: &Calibrator<K>, n: NodeId) {
        let min = cal.min_key(n);
        self.min
            .store(min.map_or(u64::MAX, Into::into), Ordering::Release);
        self.nonempty.store(min.is_some(), Ordering::Release);
    }

    fn nonempty(&self) -> bool {
        self.nonempty.load(Ordering::Acquire)
    }

    /// `find_slot`'s step into this right son: it holds a record ≤ `key`.
    /// Only a probe for `u64::MAX` itself loads the flag.
    fn reaches(&self, key: u64) -> bool {
        let min = self.min.load(Ordering::Acquire);
        min <= key && (min < u64::MAX || self.nonempty())
    }
}

/// Shared state behind [`ReadView`] handles and the owning file.
pub(crate) struct ViewInner<K, V> {
    /// View-wide publication epoch: even = stable, odd = publication in
    /// progress. Readers must observe the same even value before and after.
    epoch: AtomicU64,
    cells: Vec<SlotCell<K, V>>,
    /// The calibrator's min keys, one per node in its heap layout (root =
    /// 1, sons `2i` and `2i+1`), as of the published generation.
    nodes: Vec<NodeKey>,
    /// Total records in the published generation.
    records: AtomicU64,
    pub(crate) cfg: ResolvedConfig,
}

impl<K: Key, V> ViewInner<K, V> {
    fn new(cfg: ResolvedConfig, heap_len: usize) -> Self {
        ViewInner {
            epoch: AtomicU64::new(0),
            cells: (0..cfg.slots)
                .map(|_| Mutex::new(Arc::new(Vec::new())))
                .collect(),
            nodes: (0..heap_len)
                .map(|_| NodeKey {
                    min: AtomicU64::new(u64::MAX),
                    nonempty: AtomicBool::new(false),
                })
                .collect(),
            records: AtomicU64::new(0),
            cfg,
        }
    }
}

/// Retired slot images the publisher keeps for refilling. A publication
/// needs one image per dirtied slot; a served batch of up to 64 commands
/// dirties about one slot per command, so this pool turns every such
/// refill into a copy into buffers that already have the capacity. Bulk
/// batches and offline passes that republish more slots overflow it: the
/// excess is allocated fresh, and freed once retired (outside the odd
/// window). Each pooled image holds a slot's worth of memory, so the pool
/// stays small.
const POOL_IMAGES: usize = 64;

/// Publishes the current contents of `dirty` slots, and the calibrator
/// nodes above them, into the view.
///
/// This is the only writer of the view and is always called from the thread
/// that owns the `DenseFile` (commands already hold the shard write lock),
/// so publications never race each other — only readers. The images are
/// prepared *before* the epoch goes odd, and the images they replace are
/// retired into the pool (or freed) *after* it is even again, so the odd
/// window spans only the pointer swaps and the node stores.
pub(crate) fn publish_into<K: Key + Into<u64>, V: Clone>(
    vs: &mut ViewState<K, V>,
    store: &PagedStore<K, V>,
    cal: &Calibrator<K>,
    dirty: &[SlotId],
) {
    if dirty.is_empty() {
        return;
    }
    let mut swaps = std::mem::take(&mut vs.swaps);
    swaps.extend(
        dirty
            .iter()
            .map(|&s| (s, refill(&mut vs.pool, store.peek_slot(s)))),
    );
    let inner = &*vs.inner;
    let e = inner.epoch.fetch_add(1, Ordering::AcqRel); // even → odd
    debug_assert!(e.is_multiple_of(2), "publication must start stable");
    // Each fresh image goes in; the retired one comes back in its place.
    for (s, image) in swaps.iter_mut() {
        let mut cell = inner.cells[*s as usize].lock().expect("view cell poisoned");
        std::mem::swap(&mut *cell, image);
    }
    // Every node once when every slot is dirty, else each dirty path.
    if dirty.len() == inner.cells.len() {
        for (i, node) in inner.nodes.iter().enumerate().skip(1) {
            node.publish(cal, NodeId(i as u32));
        }
    } else {
        for &s in dirty {
            for n in cal.path_to_root(s) {
                inner.nodes[n.0 as usize].publish(cal, n);
            }
        }
    }
    inner
        .records
        .store(store.total_records() as u64, Ordering::Release);
    inner.epoch.fetch_add(1, Ordering::AcqRel); // odd → even
    for (_, retired) in swaps.drain(..) {
        if vs.pool.len() < POOL_IMAGES {
            vs.pool.push_back(retired);
        }
    }
    vs.swaps = swaps;
}

/// A fresh image holding `records`: the oldest pooled image refilled in
/// place when no reader still holds it (`Arc::get_mut` is the proof — a
/// retired image is out of its cell, so no new reader can reach it), else
/// a new allocation. A held image is dropped here; its last reader frees it.
fn refill<K: Key, V: Clone>(
    pool: &mut VecDeque<SlotImage<K, V>>,
    records: &[Record<K, V>],
) -> SlotImage<K, V> {
    if let Some(mut image) = pool.pop_front() {
        if let Some(buf) = Arc::get_mut(&mut image) {
            // Exact growth: the default doubling would leave recycled
            // images with up to twice the capacity `to_vec` gives.
            buf.reserve_exact(records.len().saturating_sub(buf.len()));
            records.clone_into(buf);
            return image;
        }
    }
    Arc::new(records.to_vec())
}

/// The monomorphized publisher held as a plain `fn` pointer (see
/// [`ViewState::publish`]).
pub(crate) type PublishFn<K, V> =
    fn(&mut ViewState<K, V>, &PagedStore<K, V>, &Calibrator<K>, &[SlotId]);

/// The per-file view state held by `DenseFile`. Stores the monomorphized
/// publisher as a plain `fn` pointer so command code compiled without the
/// `V: Clone` and `K: Into<u64>` bounds can still republish (the bounds are
/// discharged once, at
/// [`DenseFile::enable_optimistic_reads`](crate::DenseFile::enable_optimistic_reads)).
/// Everything besides `inner` is the writer's own: reusable buffers, so a
/// steady-state publication allocates nothing.
pub(crate) struct ViewState<K, V> {
    pub(crate) inner: Arc<ViewInner<K, V>>,
    pub(crate) publish: PublishFn<K, V>,
    /// The dirty-slot set being published (drained from the store).
    pub(crate) dirty: Vec<SlotId>,
    /// `(slot, image)` pairs: fresh images before the swaps, retired after.
    swaps: Vec<(SlotId, SlotImage<K, V>)>,
    /// Retired images, oldest first, at most [`POOL_IMAGES`].
    pool: VecDeque<SlotImage<K, V>>,
}

impl<K: Key + Into<u64>, V: Clone> ViewState<K, V> {
    pub(crate) fn new(cfg: ResolvedConfig, cal: &Calibrator<K>) -> Self {
        ViewState {
            inner: Arc::new(ViewInner::new(cfg, cal.heap_len())),
            publish: publish_into::<K, V>,
            dirty: Vec::new(),
            swaps: Vec::new(),
            pool: VecDeque::with_capacity(POOL_IMAGES),
        }
    }
}

/// A cloneable, `Send + Sync` handle for lock-free reads against a
/// [`DenseFile`](crate::DenseFile) that had
/// [`enable_optimistic_reads`](crate::DenseFile::enable_optimistic_reads)
/// called. Handles stay valid for the file's lifetime; they read whatever
/// generation was last published.
pub struct ReadView<K, V> {
    pub(crate) inner: Arc<ViewInner<K, V>>,
}

impl<K, V> Clone for ReadView<K, V> {
    fn clone(&self) -> Self {
        ReadView {
            inner: self.inner.clone(),
        }
    }
}

/// Why one optimistic attempt produced no answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Miss {
    /// A publication overlapped the read: a retry may succeed.
    Torn,
    /// The collection is too wide to read under one epoch window.
    /// Validated by an unchanged even epoch, it holds for every retry
    /// against that generation.
    Declined,
}

impl<K: Key, V: Clone> ReadView<K, V> {
    /// Records in the latest published generation.
    pub fn records(&self) -> u64 {
        self.inner.records.load(Ordering::Acquire)
    }

    /// The geometry the view was created with.
    pub fn slots(&self) -> u32 {
        self.inner.cfg.slots
    }

    /// The calibrator's shape, for routing over the published nodes.
    fn geometry(&self) -> Geometry {
        Geometry::new(self.inner.cfg.slots)
    }

    /// Clones `slot`'s published image. Called only inside an
    /// [`attempt`](Self::attempt): the cell lock orders this clone against
    /// the publisher's swap, which happens inside the odd epoch window, so
    /// a clone that overlapped a publication fails the attempt's closing
    /// epoch check.
    fn read_cell(&self, slot: SlotId) -> SlotImage<K, V> {
        self.inner.cells[slot as usize]
            .lock()
            .expect("view cell poisoned")
            .clone()
    }

    /// One validated attempt: run `f` between two matching even epoch
    /// observations. A changed epoch makes any outcome [`Miss::Torn`]; an
    /// unchanged one validates `f`'s answer or its decline.
    fn attempt<R>(&self, f: impl Fn(&Self) -> Result<R, Miss>) -> Result<R, Miss> {
        let e1 = self.inner.epoch.load(Ordering::Acquire);
        if !e1.is_multiple_of(2) {
            return Err(Miss::Torn);
        }
        let out = f(self);
        let e2 = self.inner.epoch.load(Ordering::Acquire);
        if e1 != e2 {
            return Err(Miss::Torn);
        }
        out
    }

    /// Retry loop with bounded spin-only backoff. No yields: on a parallel
    /// host a lost validation resolves within a few spins (the publication
    /// window is nanoseconds), and on an oversubscribed host a yield costs
    /// a full scheduler rotation behind every other runnable thread —
    /// convoying readers behind a descheduled writer. Giving up into the
    /// locked fallback instead parks FIFO on the shard lock, which donates
    /// the CPU straight to the writer. A validated decline gives up at once.
    /// Counts outcomes unsampled: `hits + fallbacks` = reads and `retries`
    /// = attempts − reads.
    fn with_retries<R>(&self, f: impl Fn(&Self) -> Result<R, Miss>) -> Result<R, ReadConflict> {
        let mut retries = 0;
        let out = loop {
            match self.attempt(&f) {
                Ok(r) => break Ok(r),
                Err(Miss::Torn) if retries + 1 < MAX_ATTEMPTS => {
                    retries += 1;
                    std::hint::spin_loop();
                }
                Err(_) => break Err(ReadConflict),
            }
        };
        if dsf_telemetry::enabled() {
            let t = read_tel();
            t.retries.add(u64::from(retries));
            match out {
                Ok(_) => t.hits.inc(),
                Err(_) => t.fallbacks.inc(),
            }
        }
        out
    }

    /// Collects every cell image under one validated window — the building
    /// block of [`ReadView::try_snapshot_bytes`](crate::snapshot)-style
    /// whole-file reads. `Err` after [`MAX_ATTEMPTS`] races.
    pub(crate) fn collect_all_cells(&self) -> Result<Vec<SlotImage<K, V>>, ReadConflict> {
        self.with_retries(|view| {
            Ok((0..view.inner.cfg.slots)
                .map(|s| view.read_cell(s))
                .collect())
        })
    }

    /// Forces every optimistic read to conflict until
    /// [`unpoison_epoch_for_test`](Self::unpoison_epoch_for_test) — makes
    /// the retry/fallback counters deterministic for the telemetry
    /// reconcile test. **Tests only.**
    #[doc(hidden)]
    pub fn poison_epoch_for_test(&self) {
        self.inner.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Undoes [`poison_epoch_for_test`](Self::poison_epoch_for_test).
    #[doc(hidden)]
    pub fn unpoison_epoch_for_test(&self) {
        self.inner.epoch.fetch_add(1, Ordering::AcqRel);
    }
}

impl<K: Key + Into<u64>, V: Clone> ReadView<K, V> {
    /// The slot [`Calibrator::find_slot`] returns for the key image `key`
    /// in the published generation: the one holding the greatest record ≤
    /// `key`, else slot 0. A publication racing the descent can send it to
    /// a wrong slot; the caller's epoch validation rejects that attempt.
    fn route(&self, key: u64) -> SlotId {
        let nodes = &self.inner.nodes;
        self.geometry()
            .descend(|r| nodes[r.0 as usize].reaches(key))
    }

    /// The first occupied slot of the published generation, by the same
    /// descent: into the right son only when the left one is empty.
    fn first_occupied(&self) -> SlotId {
        let nodes = &self.inner.nodes;
        self.geometry()
            .descend(|r| !nodes[r.0 as usize - 1].nonempty())
    }

    /// The first occupied slot in `[from, last]` of the published
    /// generation: the calibrator's leaf-first search over the published
    /// nonempty flags, from `from`'s leaf (found by descent). A racing
    /// publication can make the answer wrong, never smaller than `from`.
    fn next_occupied(&self, from: SlotId, last: SlotId) -> Option<SlotId> {
        if from > last {
            return None;
        }
        let geo = self.geometry();
        let nodes = &self.inner.nodes;
        geo.nearest_nonempty(from, geo.leaf_of(from), last, true, |n| {
            nodes[n.0 as usize].nonempty()
        })
    }

    /// Lock-free point lookup against the latest published generation.
    ///
    /// `Ok(None)` is a definitive miss; `Err(ReadConflict)` means the view
    /// lost [`MAX_ATTEMPTS`] races (a get is never declined), and the
    /// caller should take the lock.
    pub fn try_get(&self, key: &K) -> Result<Option<V>, ReadConflict> {
        self.with_retries(|view| {
            let recs = view.read_cell(view.route((*key).into()));
            Ok(recs
                .binary_search_by(|r| r.key.cmp(key))
                .ok()
                .map(|i| recs[i].value.clone()))
        })
    }

    /// Lock-free range collection in key order: every record in the range
    /// (see [`try_collect_range_limited`](Self::try_collect_range_limited)).
    pub fn try_collect_range(
        &self,
        start: Bound<K>,
        end: Bound<K>,
    ) -> Result<Vec<(K, V)>, ReadConflict> {
        self.try_collect_range_limited(start, end, usize::MAX)
    }

    /// Lock-free collection of the first `limit` records in the range, in
    /// key order.
    ///
    /// Collects the cell images the range touches inside one validated
    /// window (cheap `Arc` clones), stopping at the first cell that brings
    /// the in-range count to `limit`, then clones at most `limit` records
    /// out of them. A run of empty slots costs one cell read and a climb
    /// over the published nonempty flags (the calibrator's leaf-first
    /// search), not a cell read per slot. Declines when that would collect more than
    /// `SCAN_SLOT_LIMIT` (1024) occupied slots, or when a limit the whole
    /// generation cannot fill meets a range wider than that many slots.
    pub fn try_collect_range_limited(
        &self,
        start: Bound<K>,
        end: Bound<K>,
        limit: usize,
    ) -> Result<Vec<(K, V)>, ReadConflict> {
        let range = (start.as_ref(), end.as_ref());
        let arcs = self.with_retries(|view| {
            if limit == 0 || view.records() == 0 {
                return Ok(Vec::new());
            }
            // A bound's records start (end) in the slot it routes to. The
            // walk spans at most the first to the last occupied slot.
            let first = match &start {
                Bound::Unbounded => view.first_occupied(),
                Bound::Included(k) | Bound::Excluded(k) => {
                    view.route((*k).into()).max(view.first_occupied())
                }
            };
            let last = view.route(match &end {
                Bound::Unbounded => u64::MAX,
                Bound::Included(k) | Bound::Excluded(k) => (*k).into(),
            });
            let width = u64::from(last.saturating_sub(first)) + 1;
            // A limit the whole generation cannot fill reads every cell.
            if width > SCAN_SLOT_LIMIT && limit as u64 > view.records() {
                return Err(Miss::Declined);
            }
            let mut arcs = Vec::new();
            let mut found = 0;
            let mut s = first;
            while s <= last {
                let a = view.read_cell(s);
                if a.is_empty() {
                    // A hollow: jump it by the published flags, not cell by
                    // cell. Past `s`, so a torn flag cannot stall the walk.
                    match view.next_occupied(s + 1, last) {
                        Some(t) => s = t,
                        None => break,
                    }
                    continue;
                }
                if arcs.len() as u64 == SCAN_SLOT_LIMIT {
                    return Err(Miss::Declined);
                }
                found += a.iter().filter(|r| range.contains(&r.key)).count();
                arcs.push(a);
                if found >= limit {
                    break;
                }
                s += 1;
            }
            Ok(arcs)
        })?;
        Ok(arcs
            .iter()
            .flat_map(|a| a.iter())
            .filter(|r| range.contains(&r.key))
            .take(limit)
            .map(|r| (r.key, r.value.clone()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Command;
    use crate::config::DenseFileConfig;
    use crate::file::DenseFile;

    fn view_file(n: u64) -> (DenseFile<u64, u64>, ReadView<u64, u64>) {
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(64, 8, 40)).unwrap();
        f.bulk_load((0..n).map(|i| (i * 10, i))).unwrap();
        let view = f.enable_optimistic_reads();
        (f, view)
    }

    #[test]
    fn view_answers_gets_without_touching_the_file() {
        let (f, view) = view_file(300);
        for i in 0..300u64 {
            assert_eq!(view.try_get(&(i * 10)).unwrap(), Some(i));
        }
        assert_eq!(view.try_get(&5).unwrap(), None);
        assert_eq!(view.try_get(&100_000).unwrap(), None);
        assert_eq!(view.records(), f.len());
    }

    #[test]
    fn view_tracks_inserts_removes_and_replaces() {
        let (mut f, view) = view_file(100);
        f.insert(55, 999).unwrap();
        assert_eq!(view.try_get(&55).unwrap(), Some(999));
        f.insert(55, 1000).unwrap(); // replace path
        assert_eq!(view.try_get(&55).unwrap(), Some(1000));
        f.remove(&55).unwrap();
        assert_eq!(view.try_get(&55).unwrap(), None);
        assert_eq!(view.records(), f.len());
    }

    #[test]
    fn view_range_matches_locked_range() {
        let (mut f, view) = view_file(200);
        for i in 0..100u64 {
            f.insert(i * 20 + 5, 7000 + i).unwrap();
        }
        let locked: Vec<(u64, u64)> = f.range(250..=990).map(|(k, v)| (*k, *v)).collect();
        let optimistic = view
            .try_collect_range(Bound::Included(250), Bound::Included(990))
            .unwrap();
        assert_eq!(locked, optimistic);
        // Unbounded matches the full iteration.
        let all: Vec<(u64, u64)> = f.iter().map(|(k, v)| (*k, *v)).collect();
        let opt_all = view
            .try_collect_range(Bound::Unbounded, Bound::Unbounded)
            .unwrap();
        assert_eq!(all, opt_all);
        // Empty range between keys.
        assert!(view
            .try_collect_range(Bound::Excluded(250), Bound::Excluded(255))
            .unwrap()
            .is_empty());
        // Range ending before every key.
        assert!(view
            .try_collect_range(Bound::Unbounded, Bound::Excluded(0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn view_survives_offline_passes() {
        let (mut f, view) = view_file(200);
        for i in (0..200u64).step_by(2) {
            f.remove(&(i * 10));
        }
        f.vacuum();
        assert_eq!(view.records(), f.len());
        for (k, v) in f.iter() {
            assert_eq!(view.try_get(k).unwrap(), Some(*v));
        }
        f.merge_bulk((0..50u64).map(|i| (i * 10 + 3, i))).unwrap();
        assert_eq!(view.try_get(&13).unwrap(), Some(1));
        f.retain(|k, _| k % 2 == 1);
        assert_eq!(view.records(), f.len());
        assert_eq!(view.try_get(&13).unwrap(), Some(1));
    }

    #[test]
    fn routing_survives_a_hollowed_out_prefix() {
        // Deleting every record that precedes the file's first occupied
        // slot leaves an empty slot prefix: gets for the smallest surviving
        // keys, and ranges ending there, must still find them.
        let (mut f, view) = view_file(300);
        // Empty the low half so the smallest survivor sits after a long
        // run of empty slots.
        for i in 0..250u64 {
            f.remove(&(i * 10));
        }
        let smallest = 250u64 * 10;
        assert_eq!(view.try_get(&smallest).unwrap(), Some(250));
        for i in 250..300u64 {
            assert_eq!(view.try_get(&(i * 10)).unwrap(), Some(i));
        }
        // Keys preceding everything are still definitive misses.
        assert_eq!(view.try_get(&0).unwrap(), None);
        assert_eq!(view.try_get(&(smallest - 1)).unwrap(), None);
        // A range whose end bound routes into the first occupied slot.
        assert_eq!(
            view.try_collect_range(Bound::Unbounded, Bound::Included(smallest))
                .unwrap(),
            vec![(smallest, 250)]
        );
        assert_eq!(
            view.try_collect_range(Bound::Unbounded, Bound::Unbounded)
                .unwrap()
                .len(),
            50
        );
    }

    #[test]
    fn limited_collections_match_the_locked_prefix() {
        let (mut f, view) = view_file(300);
        for i in 0..100u64 {
            f.insert(i * 20 + 5, 7000 + i).unwrap();
        }
        for start in [0u64, 5, 995, 2_450, 2_985, 2_990, 5_000] {
            for limit in [0usize, 1, 7, 64, usize::MAX] {
                let locked: Vec<(u64, u64)> = f
                    .range(start..)
                    .take(limit)
                    .map(|(k, v)| (*k, *v))
                    .collect();
                let got = view
                    .try_collect_range_limited(Bound::Included(start), Bound::Unbounded, limit)
                    .unwrap();
                assert_eq!(got, locked, "start {start}, limit {limit}");
            }
        }
        let locked: Vec<(u64, u64)> = f.range(250..=990).take(9).map(|(k, v)| (*k, *v)).collect();
        let got = view
            .try_collect_range_limited(Bound::Excluded(245), Bound::Included(990), 9)
            .unwrap();
        assert_eq!(got, locked);
    }

    #[test]
    fn a_limited_collection_reads_only_the_slots_it_needs() {
        // More occupied slots than SCAN_SLOT_LIMIT: the whole range is too
        // wide to collect, but its first 64 records sit in a few slots.
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(4096, 8, 48)).unwrap();
        let n = 20_000u64;
        f.bulk_load((0..n).map(|i| (i * 3, i))).unwrap();
        let view = f.enable_optimistic_reads();
        assert!(u64::from(view.slots()) > SCAN_SLOT_LIMIT);
        assert_eq!(
            view.try_collect_range(Bound::Included(0), Bound::Unbounded),
            Err(ReadConflict)
        );
        let got = view
            .try_collect_range_limited(Bound::Included(0), Bound::Unbounded, 64)
            .unwrap();
        let locked: Vec<(u64, u64)> = f.iter().take(64).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, locked);
        // A limit no generation can fill declines up front.
        assert_eq!(
            view.try_collect_range_limited(Bound::Included(0), Bound::Unbounded, n as usize + 1),
            Err(ReadConflict)
        );
    }

    #[test]
    fn a_validated_decline_falls_back_at_once() {
        let (_f, view) = view_file(50);
        let attempts = std::cell::Cell::new(0u32);
        let out: Result<(), ReadConflict> = view.with_retries(|_| {
            attempts.set(attempts.get() + 1);
            Err(Miss::Declined)
        });
        assert_eq!(out, Err(ReadConflict));
        assert_eq!(attempts.get(), 1, "an unchanged epoch proves the decline");
    }

    #[test]
    fn a_decline_under_a_moving_epoch_is_retried() {
        let (_f, view) = view_file(50);
        let attempts = std::cell::Cell::new(0u32);
        let out: Result<(), ReadConflict> = view.with_retries(|v| {
            attempts.set(attempts.get() + 1);
            // A whole publication lands mid-attempt.
            v.inner.epoch.fetch_add(2, Ordering::AcqRel);
            Err(Miss::Declined)
        });
        assert_eq!(out, Err(ReadConflict));
        assert_eq!(attempts.get(), MAX_ATTEMPTS, "a torn decline is a race");
        // The same race, resolved on a retry, answers.
        attempts.set(0);
        let out = view.with_retries(|v| {
            attempts.set(attempts.get() + 1);
            if attempts.get() < 3 {
                v.inner.epoch.fetch_add(2, Ordering::AcqRel);
                return Err(Miss::Declined);
            }
            Ok(7)
        });
        assert_eq!(out, Ok(7));
        assert_eq!(attempts.get(), 3);
    }

    #[test]
    fn poisoned_epoch_forces_fallback() {
        let (_f, view) = view_file(50);
        view.poison_epoch_for_test();
        assert_eq!(view.try_get(&0), Err(ReadConflict));
        assert_eq!(
            view.try_collect_range(Bound::Unbounded, Bound::Unbounded),
            Err(ReadConflict)
        );
        view.unpoison_epoch_for_test();
        assert_eq!(view.try_get(&0).unwrap(), Some(0));
    }

    #[test]
    fn empty_file_view_is_a_definitive_miss() {
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(16, 4, 24)).unwrap();
        let view = f.enable_optimistic_reads();
        assert_eq!(view.try_get(&7).unwrap(), None);
        assert!(view
            .try_collect_range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .is_empty());
        f.insert(7, 70).unwrap();
        assert_eq!(view.try_get(&7).unwrap(), Some(70));
    }

    fn epoch(view: &ReadView<u64, u64>) -> u64 {
        view.inner.epoch.load(Ordering::Acquire)
    }

    #[test]
    fn a_batch_publishes_once_at_its_end() {
        let (mut f, view) = view_file(300);
        let e0 = epoch(&view);
        let cmds: Vec<Command<u64, u64>> = (0..60u64)
            .map(|i| match i % 3 {
                0 => Command::Remove(i * 40),
                1 => Command::Insert(i * 40 + 7, i),
                _ => Command::Insert(i * 40, i + 1_000), // replace
            })
            .collect();
        f.apply_batch(&cmds);
        assert_eq!(epoch(&view), e0 + 2, "one publication for the batch");
        let locked: Vec<(u64, u64)> = f.iter().map(|(k, v)| (*k, *v)).collect();
        let published = view
            .try_collect_range(Bound::Unbounded, Bound::Unbounded)
            .unwrap();
        assert_eq!(published, locked);
        assert_eq!(view.records(), f.len());

        // Holds nest: nothing is visible until the outermost release.
        let e1 = epoch(&view);
        f.hold_publication();
        f.apply_batch(&[Command::Insert(1, 11), Command::Insert(3, 33)]);
        f.insert(5, 55).unwrap();
        f.remove(&10);
        assert_eq!(epoch(&view), e1);
        assert_eq!(view.try_get(&1).unwrap(), None);
        assert_eq!(view.try_get(&10).unwrap(), Some(1));
        f.release_publication();
        assert_eq!(epoch(&view), e1 + 2);
        for (k, v) in [(1, Some(11)), (3, Some(33)), (5, Some(55)), (10, None)] {
            assert_eq!(view.try_get(&k).unwrap(), v);
        }
        // Single commands keep their own publication each.
        f.insert(9, 99).unwrap();
        assert_eq!(epoch(&view), e1 + 4);
    }

    #[test]
    fn steady_state_publication_refills_pooled_images() {
        let (mut f, view) = view_file(300);
        // Warm up: every slot republished a few times, so the pool holds
        // images retired by ordinary publications.
        for round in 1..4u64 {
            for i in 0..300u64 {
                f.insert(i * 10, i + round).unwrap();
            }
        }
        let pooled = |f: &DenseFile<u64, u64>| f.view.as_ref().unwrap().pool.len();
        let size = pooled(&f);
        assert!(size > 0);
        for i in 0..300u64 {
            let next = Arc::as_ptr(f.view.as_ref().unwrap().pool.front().unwrap());
            f.insert(i * 10, i).unwrap(); // dirties exactly the key's slot
            let slot = view.route(i * 10);
            let image = view.read_cell(slot);
            assert_eq!(Arc::as_ptr(&image), next, "key {}: not refilled", i * 10);
            assert_eq!(pooled(&f), size, "retired image went back to the pool");
        }
    }

    #[test]
    fn an_image_a_reader_holds_is_never_refilled() {
        let mut f: DenseFile<u64, String> =
            DenseFile::new(DenseFileConfig::control2(64, 8, 40)).unwrap();
        f.bulk_load((0..300u64).map(|i| (i * 10, format!("v{i}"))))
            .unwrap();
        let view = f.enable_optimistic_reads();
        let slot = view.route(1000);
        let held = view.read_cell(slot);
        let before: Vec<Record<u64, String>> = held.to_vec();
        // Republish every slot many times over, cycling the whole pool,
        // with payloads of other lengths.
        for round in 0..40u64 {
            for i in 0..300u64 {
                f.insert(i * 10, format!("round {round} value {i}"))
                    .unwrap();
            }
            f.apply_batch(&[Command::Insert(1001, "x".repeat(round as usize))]);
            f.remove(&1001);
        }
        assert_eq!(*held, before, "a held image changed under its reader");
        assert_eq!(
            view.try_get(&1000).unwrap().as_deref(),
            Some("round 39 value 100")
        );
    }

    #[test]
    fn enable_is_idempotent_and_handles_share_state() {
        let (mut f, view) = view_file(10);
        let again = f.enable_optimistic_reads();
        f.insert(1, 11).unwrap();
        assert_eq!(view.try_get(&1).unwrap(), Some(11));
        assert_eq!(again.try_get(&1).unwrap(), Some(11));
        let handle = f.read_view().expect("view enabled");
        assert_eq!(handle.try_get(&1).unwrap(), Some(11));
    }
}
