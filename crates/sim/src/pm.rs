//! The persistent-memory device: durable media plus the volatile pending
//! state that sits between a store and its persist.
//!
//! Writes that enter the persistence domain (the ADR-protected write-pending
//! queue, or the whole cache hierarchy under eADR) go straight to *media*.
//! Writes that are merely *visible* — cached in the CPU LLC by DDIO, or not
//! yet drained — are recorded as *pending lines*: they are observable by
//! reads, but a crash applies an arbitrary subset of them (modelling cache
//! eviction order) and drops the rest. This is exactly the hazard the paper's
//! recovery protocols must survive (§2, §5).
//!
//! Both sides of the device are paged for hot-path speed. Media lives in
//! [`PagedBytes`] (fixed 64 KiB pages, so growth never re-zeroes established
//! bytes). Pending lines live in a paged sparse line table: a directory of
//! 4 KiB-span pages, each holding a 64-line presence bitmap and per-line
//! *slot indices* into a device-wide line pool — no hashing on the store
//! path, no heap allocation per line in steady state.
//!
//! The pool indirection matters for scattered access patterns. An earlier
//! layout embedded every line's 64 data bytes and writer set directly in the
//! page, making each page a ~7 KiB zero-initialised allocation; a workload
//! striding 1 KiB apart touched 4 of a page's 64 lines and paid ~94% of that
//! allocation as waste (the dominant per-op cost of the `scattered_store_256k`
//! engine bench). Pages are now ~300 bytes, line storage is allocated once in
//! the pool, and slots drained by a fence are recycled through a free list,
//! so steady-state fence-per-store traffic allocates nothing at all.
//!
//! Writer-scoped drains — a strict fence ([`PmDevice::persist_writer`], a
//! warp's [`PmDevice::persist_writers_range`]) and an epoch close
//! ([`PmDevice::close_writer`], [`PmDevice::close_writers_range`]) — go
//! through a *pending-line index* keyed by 32-writer bucket (`writer / 32`,
//! one warp's writer range). Each bucket lists the pool slots of the lines
//! its writers dirtied, so a fence visits only its own lines (one bucket, or
//! two for an unaligned warp) instead of every directory page between the
//! occupied-page watermarks. List entries carry the slot's generation, which
//! bumps whenever the slot is released; entries for lines drained by anyone
//! else are detected by a generation mismatch and compacted away in the next
//! pass over the list. Buckets live in 64-bucket chunks behind a hash
//! directory, so sparse writer ids (GPU global ids, `0xF000_0001`-style CPU
//! writers) cost one chunk each; [`HOST_WRITER`] is never writer-fenced and
//! is not indexed.
//!
//! Whole-table walks — [`PmDevice::crash`], [`PmDevice::crash_with_policy`],
//! [`PmDevice::persist_all`], [`PmDevice::drain_closed`] — keep visiting
//! the directory in ascending address order: crash subsets are defined by
//! that order.

use std::collections::HashMap;

use crate::addr::{line_span, CPU_LINE};
use crate::error::{SimError, SimResult};
use crate::paged::PagedBytes;
use crate::rng::Xoshiro256StarStar;

/// Identifies the agent (GPU thread, CPU thread, DMA engine) that issued a
/// write, so that a fence by that agent persists exactly its own lines.
pub type WriterId = u32;

/// Reserved writer id for host-side bulk operations (DMA, file writes).
pub const HOST_WRITER: WriterId = u32::MAX;

/// Cache lines covered by one page of the pending line table.
const LINES_PER_PAGE: u64 = 64;

/// Arbitrary writers tracked inline per line before spilling to the heap.
/// Three keeps [`Writers`] at 24 bytes; the common many-writer case, a
/// warp's lockstep store putting up to `CPU_LINE / 4 = 16` consecutive
/// writers on one line, is a [`Writers::Range`] and never spills.
const INLINE_WRITERS: usize = 3;

/// The set of writers with un-persisted stores to one line.
#[derive(Debug, Clone)]
enum Writers {
    /// Up to [`INLINE_WRITERS`] arbitrary ids.
    Inline {
        ids: [WriterId; INLINE_WRITERS],
        len: u8,
    },
    /// The consecutive ids `[lo, lo + n)`, `n >= 1`: what lockstep lanes
    /// leave on a line they share.
    Range { lo: WriterId, n: u32 },
    /// Any other set, for byte-granular sharing.
    Spill(Vec<WriterId>),
}

impl Default for Writers {
    fn default() -> Writers {
        Writers::Inline {
            ids: [0; INLINE_WRITERS],
            len: 0,
        }
    }
}

impl Writers {
    fn clear(&mut self) {
        *self = Writers::default();
    }

    fn is_empty(&self) -> bool {
        matches!(self, Writers::Inline { len: 0, .. })
    }

    /// The set holding exactly `ids` (distinct).
    fn from_ids(ids: Vec<WriterId>) -> Writers {
        if ids.len() > INLINE_WRITERS {
            return Writers::Spill(ids);
        }
        let mut inline = [0; INLINE_WRITERS];
        inline[..ids.len()].copy_from_slice(&ids);
        Writers::Inline {
            ids: inline,
            len: ids.len() as u8,
        }
    }

    /// Whether any tracked writer falls in `[w0, w0 + n)`. One pass over the
    /// set, so a warp-wide fence probes each line once instead of 32 times.
    fn contains_range(&self, w0: WriterId, n: u32) -> bool {
        let hit = |w: WriterId| w.wrapping_sub(w0) < n;
        match self {
            Writers::Inline { ids, len } => ids[..*len as usize].iter().copied().any(hit),
            Writers::Range { lo, n: count } => {
                let (lo, w0) = (u64::from(*lo), u64::from(w0));
                lo < w0 + u64::from(n) && w0 < lo + u64::from(*count)
            }
            Writers::Spill(v) => v.iter().copied().any(hit),
        }
    }

    fn insert(&mut self, w: WriterId) {
        match self {
            Writers::Inline { ids, len } => {
                let l = *len as usize;
                if ids[..l].contains(&w) {
                    return;
                }
                if l == 1 && (ids[0].checked_add(1) == Some(w) || w.checked_add(1) == Some(ids[0]))
                {
                    *self = Writers::Range {
                        lo: ids[0].min(w),
                        n: 2,
                    };
                } else if l < INLINE_WRITERS {
                    ids[l] = w;
                    *len += 1;
                } else {
                    let mut v = ids.to_vec();
                    v.push(w);
                    *self = Writers::Spill(v);
                }
            }
            Writers::Range { lo, n } => {
                if w.wrapping_sub(*lo) < *n {
                    return;
                }
                if lo.checked_add(*n) == Some(w) {
                    *n += 1;
                } else if w.checked_add(1) == Some(*lo) {
                    *lo = w;
                    *n += 1;
                } else {
                    let (lo, n) = (*lo, *n);
                    *self = Writers::from_ids((0..n).map(|i| lo + i).chain([w]).collect());
                }
            }
            Writers::Spill(v) => {
                if !v.contains(&w) {
                    v.push(w);
                }
            }
        }
    }
}

/// Backing storage for one pending line, held in the device-wide pool.
#[derive(Debug, Clone)]
struct LineSlot {
    /// The line's visible contents.
    data: [u8; CPU_LINE as usize],
    /// Writers with un-persisted stores to the line.
    writers: Writers,
    /// The cache line this slot holds while allocated.
    line: u64,
    /// Bumped every time the slot is released, so an index entry taken
    /// before the release no longer matches.
    gen: u32,
}

/// Writers per pending-line index bucket: one warp's lockstep writer range.
const BUCKET_WRITERS: u32 = 32;

/// The index bucket holding `writer`'s lines.
fn bucket_of(writer: WriterId) -> u32 {
    writer / BUCKET_WRITERS
}

/// The indexed writers of bucket `b`: `[w0, w0 + n)`. The last bucket stops
/// short of [`HOST_WRITER`], which is not indexed.
fn bucket_writers(b: u32) -> (WriterId, u32) {
    let w0 = b * BUCKET_WRITERS;
    (w0, BUCKET_WRITERS.min(HOST_WRITER - w0))
}

/// One entry of a bucket list: a pool slot and the generation it had when
/// the entry was pushed. Live iff the slot still has that generation.
#[derive(Debug, Clone, Copy)]
struct LineRef {
    idx: u32,
    gen: u32,
}

impl LineRef {
    fn live(self, pool: &[LineSlot]) -> bool {
        pool[self.idx as usize].gen == self.gen
    }
}

/// End-of-list marker for [`LineIndex`] links.
const NIL: u32 = u32::MAX;

/// Buckets per directory chunk of the [`LineIndex`].
const CHUNK_BUCKETS: u32 = 64;

/// Length below which a bucket list is never compacted on push.
const MIN_COMPACT_AT: u32 = 32;

/// A bucket's list of pending lines, singly linked through
/// [`LineIndex::nodes`], newest first. Holds at most one live entry per
/// line. Stale entries are dropped by the next walk of the list — a drain,
/// or a push once `len` reaches `compact_at` — so a list stays within twice
/// its live lines plus [`MIN_COMPACT_AT`].
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    len: u32,
    compact_at: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        len: 0,
        compact_at: MIN_COMPACT_AT,
    };
}

#[derive(Debug, Clone, Copy)]
struct Node {
    line: LineRef,
    next: u32,
}

/// The pending-line index: per 32-writer bucket, the lines its writers
/// dirtied. Buckets live in 64-bucket chunks found through a hash
/// directory, so sparse writer ids cost one chunk each and a warp store
/// usually hits the cached chunk of the previous one. List nodes share one
/// arena with a free list, so steady-state traffic allocates nothing.
#[derive(Debug, Default)]
struct LineIndex {
    /// Chunk id (`bucket / 64`) → chunk number; chunk `c` owns
    /// `buckets[c * 64 .. c * 64 + 64]`.
    dir: HashMap<u32, u32>,
    buckets: Vec<Bucket>,
    /// The most recently used `(chunk id, chunk number)`.
    last: Option<(u32, u32)>,
    nodes: Vec<Node>,
    /// Node ids whose entries were dropped, ready for reuse.
    free_nodes: Vec<u32>,
}

impl LineIndex {
    /// Position of bucket `b` in `buckets`, creating its chunk if `create`.
    fn find(&mut self, b: u32, create: bool) -> Option<usize> {
        let chunk = b / CHUNK_BUCKETS;
        let c = match self.last {
            Some((id, c)) if id == chunk => c,
            _ => {
                let c = match self.dir.get(&chunk) {
                    Some(&c) => c,
                    None if create => {
                        let c = (self.buckets.len() / CHUNK_BUCKETS as usize) as u32;
                        self.buckets
                            .resize(self.buckets.len() + CHUNK_BUCKETS as usize, Bucket::EMPTY);
                        self.dir.insert(chunk, c);
                        c
                    }
                    None => return None,
                };
                self.last = Some((chunk, c));
                c
            }
        };
        Some((c * CHUNK_BUCKETS + b % CHUNK_BUCKETS) as usize)
    }

    /// Pushes `line` onto bucket `b`'s list, compacting the list first once
    /// it has reached its compaction mark.
    fn push(&mut self, b: u32, line: LineRef, pool: &[LineSlot]) {
        let pos = self.find(b, true).expect("created");
        if self.buckets[pos].len >= self.buckets[pos].compact_at {
            self.walk(pos, |r| r.live(pool));
        }
        let bucket = &mut self.buckets[pos];
        let node = Node {
            line,
            next: bucket.head,
        };
        bucket.head = match self.free_nodes.pop() {
            Some(n) => {
                self.nodes[n as usize] = node;
                n
            }
            None => {
                self.nodes.push(node);
                u32::try_from(self.nodes.len() - 1).expect("index exceeds u32 nodes")
            }
        };
        bucket.len += 1;
    }

    /// Walks the list at `pos`, keeping the entries `keep` accepts and
    /// returning the rest to the node free list.
    fn walk(&mut self, pos: usize, mut keep: impl FnMut(LineRef) -> bool) {
        let Bucket { mut head, .. } = self.buckets[pos];
        let (mut cur, mut prev, mut len) = (head, NIL, 0);
        while cur != NIL {
            let Node { line, next } = self.nodes[cur as usize];
            if keep(line) {
                prev = cur;
                len += 1;
            } else {
                if prev == NIL {
                    head = next;
                } else {
                    self.nodes[prev as usize].next = next;
                }
                self.free_nodes.push(cur);
            }
            cur = next;
        }
        self.buckets[pos] = Bucket {
            head,
            len,
            compact_at: (2 * len).max(MIN_COMPACT_AT),
        };
    }

    /// Empties every list (the pending table has drained completely).
    fn clear(&mut self) {
        self.buckets.fill(Bucket::EMPTY);
        self.nodes.clear();
        self.free_nodes.clear();
    }
}

/// One page of the pending line table: 64 consecutive cache lines. Only the
/// presence bitmap and pool indices live here, so allocating a page for a
/// sparsely-touched address range is cheap.
#[derive(Debug, Clone)]
struct PendingPage {
    /// Bit `i` set ⇔ line `page*64 + i` is pending.
    present: u64,
    /// Bit `i` set ⇔ line `page*64 + i` is pending *and* epoch-ordered: a
    /// fence under epoch persistency has closed it into the current persist
    /// epoch, so the epoch-boundary drain will make it durable. A later
    /// rewrite reopens the line (clears the bit) — the WPQ coalesces the new
    /// store into the queued entry, deferring it to the next epoch. Always a
    /// subset of `present`.
    closed: u64,
    /// Pool index of line `i`'s storage; meaningful only when bit `i` of
    /// `present` is set.
    slots: [u32; LINES_PER_PAGE as usize],
}

impl PendingPage {
    fn new() -> PendingPage {
        PendingPage {
            present: 0,
            closed: 0,
            slots: [0; LINES_PER_PAGE as usize],
        }
    }
}

/// Outcome of a crash: how pending state was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CrashReport {
    /// Pending lines that happened to reach media before power was lost.
    pub lines_applied: u64,
    /// Pending lines whose contents were lost.
    pub lines_dropped: u64,
}

/// How a crash chooses the subset of pending lines that reach media.
///
/// [`PmDevice::crash`] draws the subset from the machine RNG — one random
/// outcome per machine seed. A crash-consistency *campaign* instead wants to
/// steer the subset deterministically so the same crash point can be replayed
/// under every interesting eviction order. Every policy is a pure function of
/// its parameters: replaying a `(fuel, policy)` pair reproduces the exact
/// same post-crash media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPolicy {
    /// Every pending line reaches media (the cache drained completely just
    /// before power was lost).
    AllApplied,
    /// Every pending line is lost (nothing had been written back).
    NoneApplied,
    /// Deterministic subset walk: pending line `i` — counted in the
    /// ascending address order [`PmDevice::crash`] visits lines in — is
    /// applied iff bit `i % 64` of the reflected Gray code `g(k) = k ^ (k >>
    /// 1)` is set. Adjacent indices `k` and `k + 1` differ in exactly one
    /// mask bit, so stepping `k` walks one-line-off neighbours; `k = 0` is
    /// the none-applied extreme and [`CrashPolicy::GRAY_ALL_ONES`] the
    /// all-applied one.
    GrayCode(u64),
    /// Random subset drawn from a dedicated [`Xoshiro256StarStar`] seeded
    /// with the given value — independent of the machine RNG, so the outcome
    /// is reproducible from the seed alone.
    Random(u64),
}

impl CrashPolicy {
    /// The `GrayCode` index whose subset mask is all ones: `g(k) = !0`
    /// exactly for the alternating-bit pattern `0b1010…`, since each Gray
    /// bit is the XOR of two adjacent index bits.
    pub const GRAY_ALL_ONES: u64 = 0xAAAA_AAAA_AAAA_AAAA;

    /// The 64-bit apply mask of a `GrayCode` policy (`None` for the other
    /// variants, whose membership is not mask-driven).
    pub fn gray_mask(self) -> Option<u64> {
        match self {
            CrashPolicy::GrayCode(k) => Some(k ^ (k >> 1)),
            _ => None,
        }
    }
}

impl std::fmt::Display for CrashPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashPolicy::AllApplied => write!(f, "all"),
            CrashPolicy::NoneApplied => write!(f, "none"),
            CrashPolicy::GrayCode(k) => write!(f, "gray:{k}"),
            CrashPolicy::Random(s) => write!(f, "random:{s}"),
        }
    }
}

impl std::str::FromStr for CrashPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<CrashPolicy, String> {
        match s {
            "all" => Ok(CrashPolicy::AllApplied),
            "none" => Ok(CrashPolicy::NoneApplied),
            _ => {
                let parse = |v: &str| v.parse::<u64>().map_err(|e| e.to_string());
                if let Some(k) = s.strip_prefix("gray:") {
                    Ok(CrashPolicy::GrayCode(parse(k)?))
                } else if let Some(seed) = s.strip_prefix("random:") {
                    Ok(CrashPolicy::Random(parse(seed)?))
                } else {
                    Err(format!(
                        "unknown crash policy {s:?} (expected all, none, gray:K, random:SEED)"
                    ))
                }
            }
        }
    }
}

/// The simulated Optane persistent-memory device.
///
/// # Examples
///
/// ```
/// use gpm_sim::pm::PmDevice;
/// let mut pm = PmDevice::new(1 << 20);
/// pm.write_visible(7, 0, &[1, 2, 3])?;      // visible, not durable
/// let mut buf = [0u8; 3];
/// pm.read(0, &mut buf)?;
/// assert_eq!(buf, [1, 2, 3]);               // reads see pending data
/// pm.persist_writer(7);                      // fence: now durable
/// # Ok::<(), gpm_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct PmDevice {
    media: PagedBytes,
    capacity: u64,
    pending: Vec<Option<Box<PendingPage>>>,
    pending_count: u64,
    /// Storage for pending lines, indexed by [`PendingPage::slots`].
    pool: Vec<LineSlot>,
    /// Pool indices whose lines have drained, ready for reuse.
    free_slots: Vec<u32>,
    /// Pending-line index: bucket `writer / 32` → the lines its writers
    /// dirtied. Every pending line with a non-host writer `w` has a live
    /// entry in bucket `w / 32`.
    index: LineIndex,
    /// Scratch for a writer drain: the lines one bucket walk selected.
    hits: Vec<u64>,
    /// Watermarks bounding the directory pages that may hold pending lines
    /// (`occ_lo > occ_hi` ⇔ none). They only widen while lines are pending
    /// and snap shut when the table drains, bounding the address-order walks
    /// of crashes and epoch-boundary drains.
    occ_lo: usize,
    occ_hi: usize,
}

impl PmDevice {
    /// Creates a device with the given capacity in bytes. Media is allocated
    /// lazily, page by page, as it is touched.
    pub fn new(capacity: u64) -> PmDevice {
        PmDevice {
            media: PagedBytes::new(),
            capacity,
            pending: Vec::new(),
            pending_count: 0,
            pool: Vec::new(),
            free_slots: Vec::new(),
            index: LineIndex::default(),
            hits: Vec::new(),
            occ_lo: usize::MAX,
            occ_hi: 0,
        }
    }

    /// Takes a line slot for `line` from the free list (writer set cleared)
    /// or grows the pool. The data bytes are left stale: every caller fills
    /// the whole line from media before exposing it.
    fn alloc_slot(&mut self, line: u64) -> u32 {
        match self.free_slots.pop() {
            Some(idx) => {
                let slot = &mut self.pool[idx as usize];
                slot.writers.clear();
                slot.line = line;
                idx
            }
            None => {
                self.pool.push(LineSlot {
                    data: [0; CPU_LINE as usize],
                    writers: Writers::default(),
                    line,
                    gen: 0,
                });
                u32::try_from(self.pool.len() - 1).expect("pending-line pool exceeds u32 slots")
            }
        }
    }

    /// Returns a drained or dropped line's slot to the free list. Bumping
    /// the generation turns every index entry for it stale.
    fn release_slot(&mut self, idx: u32) {
        let slot = &mut self.pool[idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        self.free_slots.push(idx);
    }

    /// Indexes slot `idx` under every bucket among writers `[w_first,
    /// w_last]` that has no writer on the line yet. Called before the
    /// writers are inserted, so each line enters a bucket list once.
    fn index_writers(&mut self, idx: u32, w_first: WriterId, w_last: WriterId) {
        if w_first == HOST_WRITER {
            return;
        }
        let slot = &self.pool[idx as usize];
        let line = LineRef { idx, gen: slot.gen };
        for b in bucket_of(w_first)..=bucket_of(w_last.min(HOST_WRITER - 1)) {
            let (w0, n) = bucket_writers(b);
            if !slot.writers.contains_range(w0, n) {
                self.index.push(b, line, &self.pool);
            }
        }
    }

    /// Narrows the occupied-page watermarks once the table is empty. Called
    /// at the end of every draining operation.
    fn settle_watermarks(&mut self) {
        if self.pending_count == 0 {
            self.occ_lo = usize::MAX;
            self.occ_hi = 0;
        }
    }

    /// The (inclusive) directory-page range that can hold pending lines, or
    /// `None` when nothing is pending.
    fn occupied_pages(&self) -> Option<std::ops::RangeInclusive<usize>> {
        if self.pending_count == 0 || self.occ_lo > self.occ_hi {
            return None;
        }
        Some(self.occ_lo..=self.occ_hi.min(self.pending.len().saturating_sub(1)))
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn check(&self, offset: u64, len: u64) -> SimResult<()> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.capacity)
        {
            return Err(SimError::OutOfBounds {
                addr: crate::addr::Addr::pm(offset),
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Writes bytes that are immediately durable (persistence domain:
    /// DDIO-off ADR path after its fence, eADR, or host-initialized data).
    ///
    /// A pending line the write *fully* covers is retired: its content is now
    /// durable byte for byte, so it no longer counts as crash-vulnerable (and
    /// no longer inflates [`CrashReport`] line counts). A partially covered
    /// pending line instead has the written bytes folded into its visible
    /// copy so reads stay coherent.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds capacity.
    pub fn write_durable(&mut self, offset: u64, bytes: &[u8]) -> SimResult<()> {
        self.check(offset, bytes.len() as u64)?;
        self.media.write(offset, bytes);
        if self.pending_count == 0 {
            return Ok(());
        }
        let end = offset + bytes.len() as u64;
        for line in line_span(offset, bytes.len() as u64) {
            let ppage = (line / LINES_PER_PAGE) as usize;
            let slot = (line % LINES_PER_PAGE) as usize;
            let Some(page) = self.pending.get_mut(ppage).and_then(|p| p.as_deref_mut()) else {
                continue;
            };
            let bit = 1u64 << slot;
            if page.present & bit == 0 {
                continue;
            }
            let idx = page.slots[slot];
            let lstart = line * CPU_LINE;
            let lend = (lstart + CPU_LINE).min(self.capacity);
            if offset <= lstart && end >= lend {
                page.present &= !bit;
                page.closed &= !bit;
                self.release_slot(idx);
                self.pending_count -= 1;
            } else {
                let s = offset.max(lstart);
                let e = end.min(lstart + CPU_LINE);
                self.pool[idx as usize].data[(s - lstart) as usize..(e - lstart) as usize]
                    .copy_from_slice(&bytes[(s - offset) as usize..(e - offset) as usize]);
            }
        }
        Ok(())
    }

    /// Writes bytes that are visible to all observers but not yet durable.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds capacity.
    pub fn write_visible(&mut self, writer: WriterId, offset: u64, bytes: &[u8]) -> SimResult<()> {
        self.check(offset, bytes.len() as u64)?;
        let end = offset + bytes.len() as u64;
        for line in line_span(offset, bytes.len() as u64) {
            let lstart = line * CPU_LINE;
            let ppage = (line / LINES_PER_PAGE) as usize;
            let slot = (line % LINES_PER_PAGE) as usize;
            if ppage >= self.pending.len() {
                self.pending.resize_with(ppage + 1, || None);
            }
            let bit = 1u64 << slot;
            let absent = match self.pending[ppage].as_deref() {
                Some(page) => page.present & bit == 0,
                None => true,
            };
            let idx = if absent {
                let idx = self.alloc_slot(line);
                self.media.read(lstart, &mut self.pool[idx as usize].data);
                let page = self.pending[ppage].get_or_insert_with(|| Box::new(PendingPage::new()));
                page.present |= bit;
                page.slots[slot] = idx;
                self.pending_count += 1;
                self.occ_lo = self.occ_lo.min(ppage);
                self.occ_hi = self.occ_hi.max(ppage);
                idx
            } else {
                let page = self.pending[ppage].as_deref_mut().expect("page resident");
                // Rewriting a queued line reopens it: the WPQ coalesces the
                // new store, deferring durability to the next epoch close.
                page.closed &= !bit;
                page.slots[slot]
            };
            self.index_writers(idx, writer, writer);
            let lslot = &mut self.pool[idx as usize];
            lslot.writers.insert(writer);
            let s = offset.max(lstart);
            let e = end.min(lstart + CPU_LINE);
            lslot.data[(s - lstart) as usize..(e - lstart) as usize]
                .copy_from_slice(&bytes[(s - offset) as usize..(e - offset) as usize]);
        }
        Ok(())
    }

    /// Batched [`PmDevice::write_visible`] for a warp's lockstep lanes: byte
    /// `j` of `bytes` was stored by writer `writer0 + j / lane_bytes`, i.e.
    /// the payload is `bytes.len() / lane_bytes` consecutive writers' stores
    /// packed contiguously (lane 0 first). Produces exactly the pending-line
    /// state of the equivalent per-lane `write_visible` calls in lane order,
    /// but touches each CPU line's directory entry once and skips the
    /// fill-from-media for lines the write fully covers.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds capacity.
    pub fn write_visible_lanes(
        &mut self,
        writer0: WriterId,
        lane_bytes: u32,
        offset: u64,
        bytes: &[u8],
    ) -> SimResult<()> {
        debug_assert!(lane_bytes > 0 && bytes.len().is_multiple_of(lane_bytes as usize));
        self.check(offset, bytes.len() as u64)?;
        let end = offset + bytes.len() as u64;
        for line in line_span(offset, bytes.len() as u64) {
            let lstart = line * CPU_LINE;
            let ppage = (line / LINES_PER_PAGE) as usize;
            let slot = (line % LINES_PER_PAGE) as usize;
            if ppage >= self.pending.len() {
                self.pending.resize_with(ppage + 1, || None);
            }
            let bit = 1u64 << slot;
            let absent = match self.pending[ppage].as_deref() {
                Some(page) => page.present & bit == 0,
                None => true,
            };
            let s = offset.max(lstart);
            let e = end.min(lstart + CPU_LINE);
            let idx = if absent {
                let idx = self.alloc_slot(line);
                if e - s < CPU_LINE {
                    // Partially covered fresh line: expose media for the
                    // untouched bytes. A fully covered line skips the fill —
                    // every byte is overwritten below.
                    self.media.read(lstart, &mut self.pool[idx as usize].data);
                }
                let page = self.pending[ppage].get_or_insert_with(|| Box::new(PendingPage::new()));
                page.present |= bit;
                page.closed &= !bit;
                page.slots[slot] = idx;
                self.pending_count += 1;
                self.occ_lo = self.occ_lo.min(ppage);
                self.occ_hi = self.occ_hi.max(ppage);
                idx
            } else {
                let page = self.pending[ppage].as_deref_mut().expect("page resident");
                page.closed &= !bit;
                page.slots[slot]
            };
            // Writers covering this line, in ascending (= lane) order.
            let w_first = writer0 + ((s - offset) / lane_bytes as u64) as WriterId;
            let w_last = writer0 + ((e - 1 - offset) / lane_bytes as u64) as WriterId;
            self.index_writers(idx, w_first, w_last);
            let lslot = &mut self.pool[idx as usize];
            if lslot.writers.is_empty() {
                // Fresh slot: the lanes are one consecutive range.
                lslot.writers = Writers::Range {
                    lo: w_first,
                    n: w_last - w_first + 1,
                };
            } else {
                for w in w_first..=w_last {
                    lslot.writers.insert(w);
                }
            }
            lslot.data[(s - lstart) as usize..(e - lstart) as usize]
                .copy_from_slice(&bytes[(s - offset) as usize..(e - offset) as usize]);
        }
        Ok(())
    }

    /// Reads bytes as any coherent observer would see them: durable media
    /// overlaid with pending (visible) lines.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds capacity.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> SimResult<()> {
        self.check(offset, buf.len() as u64)?;
        self.media.read(offset, buf);
        if self.pending_count == 0 {
            return Ok(());
        }
        let end = offset + buf.len() as u64;
        for line in line_span(offset, buf.len() as u64) {
            let ppage = (line / LINES_PER_PAGE) as usize;
            let slot = (line % LINES_PER_PAGE) as usize;
            let Some(page) = self.pending.get(ppage).and_then(|p| p.as_deref()) else {
                continue;
            };
            if page.present & (1u64 << slot) == 0 {
                continue;
            }
            let lstart = line * CPU_LINE;
            let data = &self.pool[page.slots[slot] as usize].data;
            let s = offset.max(lstart);
            let e = end.min(lstart + CPU_LINE);
            buf[(s - offset) as usize..(e - offset) as usize]
                .copy_from_slice(&data[(s - lstart) as usize..(e - lstart) as usize]);
        }
        Ok(())
    }

    /// Copies a pending line into media and clears its table entry. The
    /// caller guarantees the line is present.
    fn apply_line_at(&mut self, ppage: usize, slot: usize) {
        let line = ppage as u64 * LINES_PER_PAGE + slot as u64;
        let lstart = line * CPU_LINE;
        let end = (lstart + CPU_LINE).min(self.capacity);
        let mut buf = [0u8; CPU_LINE as usize];
        {
            let page = self.pending[ppage].as_deref_mut().expect("line present");
            let idx = page.slots[slot];
            buf.copy_from_slice(&self.pool[idx as usize].data);
            page.present &= !(1u64 << slot);
            page.closed &= !(1u64 << slot);
            self.release_slot(idx);
        }
        self.media.write(lstart, &buf[..(end - lstart) as usize]);
        self.pending_count -= 1;
    }

    /// Drops a pending line without applying it (a crash lost it). The
    /// caller guarantees the line is present.
    fn drop_line_at(&mut self, ppage: usize, slot: usize) {
        let page = self.pending[ppage].as_deref_mut().expect("line present");
        page.present &= !(1u64 << slot);
        page.closed &= !(1u64 << slot);
        let idx = page.slots[slot];
        self.release_slot(idx);
        self.pending_count -= 1;
    }

    /// Drains every pending line tagged with `writer` into media (the effect
    /// of a successful persist fence by that writer). Lines shared with other
    /// writers are drained whole — flushing is line-granular.
    ///
    /// Returns the number of lines made durable.
    pub fn persist_writer(&mut self, writer: WriterId) -> u64 {
        self.persist_writers_range(writer, 1)
    }

    /// Drains every pending line tagged with any writer in
    /// `[writer0, writer0 + lanes)` — the effect of a warp's 32 lockstep
    /// persist fences, executed as one pass over the warp's index bucket
    /// instead of 32.
    ///
    /// Returns the number of lines made durable.
    pub fn persist_writers_range(&mut self, writer0: WriterId, lanes: u32) -> u64 {
        let n = self.drain_writers(writer0, lanes, true);
        self.settle_watermarks();
        n
    }

    /// Epoch-persistency fence: marks every pending line tagged with `writer`
    /// as *closed* into the current persist epoch. Closed lines stay pending
    /// (a crash can still drop them) until [`PmDevice::drain_closed`] runs at
    /// the epoch boundary. Returns the number of lines newly closed.
    pub fn close_writer(&mut self, writer: WriterId) -> u64 {
        self.close_writers_range(writer, 1)
    }

    /// Batched [`PmDevice::close_writer`] over `[writer0, writer0 + lanes)`:
    /// one index pass for a warp's lockstep epoch fences.
    pub fn close_writers_range(&mut self, writer0: WriterId, lanes: u32) -> u64 {
        self.drain_writers(writer0, lanes, false)
    }

    /// Walks the bucket lists covering `[writer0, writer0 + lanes)` and, for
    /// every live line with a writer in that range, applies it to media
    /// (`apply`) or closes it into the open epoch (`!apply`). Stale entries
    /// and applied lines leave the lists in the same pass. Returns the
    /// number of lines applied or newly closed.
    fn drain_writers(&mut self, writer0: WriterId, lanes: u32, apply: bool) -> u64 {
        if lanes == 0 || self.pending_count == 0 {
            return 0;
        }
        debug_assert!(
            writer0.checked_add(lanes).is_some(),
            "HOST_WRITER is never writer-fenced"
        );
        let mut n = 0;
        let mut hits = std::mem::take(&mut self.hits);
        for b in bucket_of(writer0)..=bucket_of(writer0 + (lanes - 1)) {
            let Some(pos) = self.index.find(b, false) else {
                continue;
            };
            let (pool, pending) = (&self.pool, &mut self.pending);
            self.index.walk(pos, |r| {
                let slot = &pool[r.idx as usize];
                if slot.gen != r.gen {
                    return false;
                }
                if !slot.writers.contains_range(writer0, lanes) {
                    return true;
                }
                if apply {
                    hits.push(slot.line);
                    return false;
                }
                let page = pending[(slot.line / LINES_PER_PAGE) as usize]
                    .as_deref_mut()
                    .expect("line present");
                let bit = 1u64 << (slot.line % LINES_PER_PAGE);
                if page.closed & bit == 0 {
                    page.closed |= bit;
                    n += 1;
                }
                true
            });
            // Applied after the walk, so a line listed in both buckets of
            // an unaligned warp is stale by the second walk.
            for &line in &hits {
                self.apply_line_at(
                    (line / LINES_PER_PAGE) as usize,
                    (line % LINES_PER_PAGE) as usize,
                );
            }
            n += hits.len() as u64;
            hits.clear();
        }
        self.hits = hits;
        n
    }

    /// Epoch boundary: drains every closed pending line into media, in
    /// ascending address order. Returns the number of lines made durable.
    pub fn drain_closed(&mut self) -> u64 {
        let Some(pages) = self.occupied_pages() else {
            return 0;
        };
        let mut n = 0;
        for ppage in pages {
            let Some(page) = self.pending[ppage].as_deref() else {
                continue;
            };
            let mut bits = page.present & page.closed;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.apply_line_at(ppage, slot);
                n += 1;
            }
        }
        self.settle_watermarks();
        n
    }

    /// Number of pending lines currently closed into the open persist epoch.
    pub fn closed_line_count(&self) -> usize {
        let Some(pages) = self.occupied_pages() else {
            return 0;
        };
        pages
            .filter_map(|p| self.pending[p].as_deref())
            .map(|p| (p.present & p.closed).count_ones() as usize)
            .sum()
    }

    /// Drains every pending line intersecting `[offset, offset+len)` into
    /// media (the effect of CLFLUSH over a range followed by SFENCE).
    ///
    /// Returns the number of lines made durable.
    pub fn persist_range(&mut self, offset: u64, len: u64) -> u64 {
        if self.pending_count == 0 {
            return 0;
        }
        let mut n = 0;
        for line in line_span(offset, len) {
            let ppage = (line / LINES_PER_PAGE) as usize;
            let slot = (line % LINES_PER_PAGE) as usize;
            let present = self
                .pending
                .get(ppage)
                .and_then(|p| p.as_deref())
                .is_some_and(|p| p.present & (1u64 << slot) != 0);
            if present {
                self.apply_line_at(ppage, slot);
                n += 1;
            }
        }
        n
    }

    /// Drains all pending lines (e.g. an orderly shutdown).
    pub fn persist_all(&mut self) -> u64 {
        let Some(pages) = self.occupied_pages() else {
            return 0;
        };
        let mut n = 0;
        for ppage in pages {
            let Some(page) = self.pending[ppage].as_deref() else {
                continue;
            };
            let mut bits = page.present;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.apply_line_at(ppage, slot);
                n += 1;
            }
        }
        self.settle_watermarks();
        self.index.clear();
        n
    }

    /// Number of lines currently visible but not durable.
    pub fn pending_line_count(&self) -> usize {
        self.pending_count as usize
    }

    /// Whether any byte of `[offset, offset+len)` is pending (not durable).
    pub fn is_pending(&self, offset: u64, len: u64) -> bool {
        if self.pending_count == 0 {
            return false;
        }
        line_span(offset, len).any(|line| {
            let ppage = (line / LINES_PER_PAGE) as usize;
            let slot = (line % LINES_PER_PAGE) as usize;
            self.pending
                .get(ppage)
                .and_then(|p| p.as_deref())
                .is_some_and(|p| p.present & (1u64 << slot) != 0)
        })
    }

    /// Power failure: each pending line independently either reached media
    /// (natural eviction had already written it back) or is lost. The choice
    /// is random, modelling the unconstrained order in which a cache writes
    /// lines back. Lines are visited in ascending address order, so a given
    /// RNG state yields one reproducible crash outcome.
    pub fn crash(&mut self, rng: &mut Xoshiro256StarStar) -> CrashReport {
        let mut report = CrashReport::default();
        let Some(pages) = self.occupied_pages() else {
            return report;
        };
        for ppage in pages {
            let Some(page) = self.pending[ppage].as_deref() else {
                continue;
            };
            let mut bits = page.present;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if rng.gen_bool(0.5) {
                    self.apply_line_at(ppage, slot);
                    report.lines_applied += 1;
                } else {
                    self.drop_line_at(ppage, slot);
                    report.lines_dropped += 1;
                }
            }
        }
        self.settle_watermarks();
        self.index.clear();
        report
    }

    /// Power failure with a *chosen* eviction outcome: the subset of pending
    /// lines that reach media is dictated by `policy` instead of the machine
    /// RNG. Lines are visited in the same ascending address order as
    /// [`PmDevice::crash`], so the `i`-th visited line is well defined and a
    /// `(pending state, policy)` pair always yields the same media.
    pub fn crash_with_policy(&mut self, policy: CrashPolicy) -> CrashReport {
        let mut rng = match policy {
            CrashPolicy::Random(seed) => Some(Xoshiro256StarStar::seed_from_u64(seed)),
            _ => None,
        };
        let mask = policy.gray_mask().unwrap_or(0);
        let mut report = CrashReport::default();
        let Some(pages) = self.occupied_pages() else {
            return report;
        };
        let mut visited = 0u64;
        for ppage in pages {
            let Some(page) = self.pending[ppage].as_deref() else {
                continue;
            };
            let mut bits = page.present;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let apply = match policy {
                    CrashPolicy::AllApplied => true,
                    CrashPolicy::NoneApplied => false,
                    CrashPolicy::GrayCode(_) => mask >> (visited % 64) & 1 == 1,
                    CrashPolicy::Random(_) => rng
                        .as_mut()
                        .expect("random policy has an rng")
                        .gen_bool(0.5),
                };
                visited += 1;
                if apply {
                    self.apply_line_at(ppage, slot);
                    report.lines_applied += 1;
                } else {
                    self.drop_line_at(ppage, slot);
                    report.lines_dropped += 1;
                }
            }
        }
        self.settle_watermarks();
        self.index.clear();
        report
    }

    /// Reads directly from durable media, ignoring pending lines. Intended
    /// for tests asserting what would survive an immediate crash that drops
    /// everything pending.
    pub fn read_media(&self, offset: u64, buf: &mut [u8]) -> SimResult<()> {
        self.check(offset, buf.len() as u64)?;
        self.media.read(offset, buf);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn durable_write_survives_crash() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_durable(100, &[9, 8, 7]).unwrap();
        pm.crash(&mut rng(1));
        let mut buf = [0u8; 3];
        pm.read(100, &mut buf).unwrap();
        assert_eq!(buf, [9, 8, 7]);
    }

    #[test]
    fn visible_write_is_readable_but_not_durable() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        pm.read(0, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        pm.read_media(0, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0, 0]);
        assert!(pm.is_pending(0, 4));
    }

    #[test]
    fn persist_writer_drains_only_that_writer() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1]).unwrap();
        pm.write_visible(2, 4096, &[2]).unwrap();
        assert_eq!(pm.persist_writer(1), 1);
        assert!(!pm.is_pending(0, 1));
        assert!(pm.is_pending(4096, 1));
        let mut b = [0u8];
        pm.read_media(0, &mut b).unwrap();
        assert_eq!(b, [1]);
    }

    #[test]
    fn shared_line_flushes_whole() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1]).unwrap();
        pm.write_visible(2, 8, &[2]).unwrap(); // same 64 B line
        pm.persist_writer(1);
        let mut b = [0u8; 9];
        pm.read_media(0, &mut b).unwrap();
        assert_eq!(b[0], 1);
        assert_eq!(b[8], 2, "line-granular flush carries the co-located write");
    }

    #[test]
    fn persist_range_flushes_intersecting_lines() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 60, &[7; 8]).unwrap(); // spans lines 0 and 1
        assert_eq!(pm.persist_range(60, 1), 1);
        assert_eq!(pm.persist_range(64, 4), 1);
        assert!(!pm.is_pending(60, 8));
    }

    #[test]
    fn crash_applies_random_subset() {
        let mut pm = PmDevice::new(1 << 20);
        for i in 0..256u64 {
            pm.write_visible(i as WriterId, i * 64, &[i as u8; 8])
                .unwrap();
        }
        let report = pm.crash(&mut rng(42));
        assert_eq!(report.lines_applied + report.lines_dropped, 256);
        assert!(
            report.lines_applied > 32,
            "with p=0.5 over 256 lines, >32 expected"
        );
        assert!(report.lines_dropped > 32);
        assert_eq!(pm.pending_line_count(), 0);
        // Applied lines are readable from media; dropped lines read as zero.
        let mut applied = 0;
        for i in 0..256u64 {
            let mut b = [0u8];
            pm.read(i * 64, &mut b).unwrap();
            if b[0] == i as u8 && b[0] != 0 {
                applied += 1;
            }
        }
        assert!(applied > 0);
    }

    #[test]
    fn crash_outcome_is_reproducible_for_a_seed() {
        let run = |seed: u64| -> (CrashReport, Vec<u8>) {
            let mut pm = PmDevice::new(1 << 20);
            for i in 0..64u64 {
                pm.write_visible(i as WriterId, i * 64, &[i as u8 + 1; 16])
                    .unwrap();
            }
            let report = pm.crash(&mut rng(seed));
            let mut buf = vec![0u8; 64 * 64];
            pm.read_media(0, &mut buf).unwrap();
            (report, buf)
        };
        assert_eq!(run(7), run(7), "same seed, same crash outcome");
        assert_ne!(run(7).1, run(8).1, "different seeds diverge");
    }

    #[test]
    fn write_spanning_lines() {
        let mut pm = PmDevice::new(1 << 16);
        let data: Vec<u8> = (0..200u16).map(|x| x as u8).collect();
        pm.write_visible(3, 30, &data).unwrap();
        let mut buf = vec![0u8; 200];
        pm.read(30, &mut buf).unwrap();
        assert_eq!(buf, data);
        pm.persist_writer(3);
        pm.read_media(30, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn durable_write_updates_pending_copy() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1, 1, 1, 1]).unwrap();
        pm.write_durable(1, &[9, 9]).unwrap();
        let mut b = [0u8; 4];
        pm.read(0, &mut b).unwrap();
        assert_eq!(b, [1, 9, 9, 1], "read must see the newest data");
        // Even if the pending line is dropped on crash, only bytes 1..3 were
        // guaranteed durable.
        let mut media = [0u8; 4];
        pm.read_media(0, &mut media).unwrap();
        assert_eq!(media[1], 9);
        assert_eq!(media[2], 9);
    }

    #[test]
    fn durable_write_retires_fully_covered_pending_lines() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1; 64]).unwrap();
        pm.write_visible(1, 64, &[2; 8]).unwrap();
        assert_eq!(pm.pending_line_count(), 2);
        // Covers all of line 0 but only part of line 1.
        pm.write_durable(0, &[9; 96]).unwrap();
        assert_eq!(pm.pending_line_count(), 1, "fully covered line retired");
        assert!(!pm.is_pending(0, 64));
        assert!(pm.is_pending(64, 8));
        // A crash that drops the rest cannot lose the retired line's data.
        let report = pm.crash(&mut rng(3));
        assert_eq!(report.lines_applied + report.lines_dropped, 1);
        let mut b = [0u8; 64];
        pm.read_media(0, &mut b).unwrap();
        assert_eq!(b, [9; 64]);
    }

    #[test]
    fn retired_line_not_drained_by_later_fence() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(5, 0, &[1; 64]).unwrap();
        pm.write_durable(0, &[2; 64]).unwrap();
        assert_eq!(pm.persist_writer(5), 0, "nothing left to drain");
        let mut b = [0u8; 64];
        pm.read(0, &mut b).unwrap();
        assert_eq!(b, [2; 64]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut pm = PmDevice::new(64);
        assert!(matches!(
            pm.write_durable(60, &[0; 8]),
            Err(SimError::OutOfBounds { .. })
        ));
        assert!(matches!(
            pm.write_visible(0, 64, &[0]),
            Err(SimError::OutOfBounds { .. })
        ));
        let mut b = [0u8; 2];
        assert!(pm.read(63, &mut b).is_err());
        assert!(pm.read(62, &mut b).is_ok());
    }

    #[test]
    fn persist_all_drains_everything() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1]).unwrap();
        pm.write_visible(2, 1000, &[2]).unwrap();
        assert_eq!(pm.persist_all(), 2);
        assert_eq!(pm.pending_line_count(), 0);
    }

    /// 40 pending lines at 64-byte stride, payload = line index + 1.
    fn pm_with_pending_lines() -> PmDevice {
        let mut pm = PmDevice::new(1 << 20);
        for i in 0..40u64 {
            pm.write_visible(i as WriterId, i * 64, &[i as u8 + 1; 8])
                .unwrap();
        }
        pm
    }

    fn applied_lines(pm: &PmDevice) -> Vec<u64> {
        (0..40u64)
            .filter(|&i| {
                let mut b = [0u8];
                pm.read_media(i * 64, &mut b).unwrap();
                b[0] == i as u8 + 1
            })
            .collect()
    }

    #[test]
    fn policy_extremes_apply_everything_or_nothing() {
        let mut pm = pm_with_pending_lines();
        let r = pm.crash_with_policy(CrashPolicy::AllApplied);
        assert_eq!((r.lines_applied, r.lines_dropped), (40, 0));
        assert_eq!(applied_lines(&pm).len(), 40);

        let mut pm = pm_with_pending_lines();
        let r = pm.crash_with_policy(CrashPolicy::NoneApplied);
        assert_eq!((r.lines_applied, r.lines_dropped), (0, 40));
        assert_eq!(applied_lines(&pm), Vec::<u64>::new());
        assert_eq!(pm.pending_line_count(), 0, "dropped lines are gone");
    }

    #[test]
    fn gray_walk_visits_both_extremes() {
        // g(0) = 0 is the none-applied mask and g(GRAY_ALL_ONES) all ones —
        // the Gray walk's endpoints coincide with the two extreme policies.
        let mut pm = pm_with_pending_lines();
        let r = pm.crash_with_policy(CrashPolicy::GrayCode(0));
        assert_eq!(r.lines_applied, 0, "gray:0 is none-applied");

        let mut pm = pm_with_pending_lines();
        let r = pm.crash_with_policy(CrashPolicy::GrayCode(CrashPolicy::GRAY_ALL_ONES));
        assert_eq!(r.lines_applied, 40, "gray:GRAY_ALL_ONES is all-applied");
        assert_eq!(
            CrashPolicy::GrayCode(CrashPolicy::GRAY_ALL_ONES).gray_mask(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn gray_neighbours_differ_in_one_line() {
        // Stepping k toggles exactly one mask bit, so the applied sets of
        // adjacent k differ by at most one line per 64-line window (exactly
        // one when fewer than 64 lines are pending).
        for k in [0u64, 1, 2, 7, 1000] {
            let mut a = pm_with_pending_lines();
            a.crash_with_policy(CrashPolicy::GrayCode(k));
            let mut b = pm_with_pending_lines();
            b.crash_with_policy(CrashPolicy::GrayCode(k + 1));
            let sa = applied_lines(&a);
            let sb = applied_lines(&b);
            let diff = sa
                .iter()
                .filter(|l| !sb.contains(l))
                .chain(sb.iter().filter(|l| !sa.contains(l)))
                .count();
            assert_eq!(diff, 1, "gray:{k} vs gray:{} must differ by 1 line", k + 1);
        }
    }

    #[test]
    fn every_policy_is_reproducible() {
        for policy in [
            CrashPolicy::AllApplied,
            CrashPolicy::NoneApplied,
            CrashPolicy::GrayCode(12345),
            CrashPolicy::Random(99),
        ] {
            let run = || {
                let mut pm = pm_with_pending_lines();
                let r = pm.crash_with_policy(policy);
                (r, applied_lines(&pm))
            };
            assert_eq!(run(), run(), "{policy} must be deterministic");
        }
        // Distinct random seeds pick distinct subsets (over 40 lines a
        // collision is a 2^-40 event).
        let subset = |seed| {
            let mut pm = pm_with_pending_lines();
            pm.crash_with_policy(CrashPolicy::Random(seed));
            applied_lines(&pm)
        };
        assert_ne!(subset(1), subset(2));
    }

    #[test]
    fn policy_round_trips_through_display() {
        for policy in [
            CrashPolicy::AllApplied,
            CrashPolicy::NoneApplied,
            CrashPolicy::GrayCode(7),
            CrashPolicy::Random(42),
        ] {
            let s = policy.to_string();
            assert_eq!(s.parse::<CrashPolicy>().unwrap(), policy, "{s}");
        }
        assert!("bogus".parse::<CrashPolicy>().is_err());
    }

    #[test]
    fn lanes_write_matches_per_lane_writes() {
        // A warp's 32 coalesced 8-byte stores, batched vs lane by lane.
        let mut batched = PmDevice::new(1 << 16);
        let mut perlane = PmDevice::new(1 << 16);
        let bytes: Vec<u8> = (0..=255u8).collect();
        // Unaligned base so head and tail lines are partially covered.
        batched.write_visible_lanes(100, 8, 24, &bytes).unwrap();
        for lane in 0..32u32 {
            let s = lane as usize * 8;
            perlane
                .write_visible(100 + lane, 24 + s as u64, &bytes[s..s + 8])
                .unwrap();
        }
        assert_eq!(batched.pending_line_count(), perlane.pending_line_count());
        let mut a = vec![0u8; 512];
        let mut b = vec![0u8; 512];
        batched.read(0, &mut a).unwrap();
        perlane.read(0, &mut b).unwrap();
        assert_eq!(a, b, "visible contents must match");
        // Each lane's fence drains the same lines in both devices.
        for lane in 0..32u32 {
            assert_eq!(
                batched.persist_writer(100 + lane),
                perlane.persist_writer(100 + lane),
                "lane {lane} fence"
            );
        }
        batched.read_media(0, &mut a).unwrap();
        perlane.read_media(0, &mut b).unwrap();
        assert_eq!(a, b, "media after fences must match");
    }

    #[test]
    fn lanes_write_full_cover_skips_media_fill_correctly() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_durable(0, &[0xAB; 256]).unwrap();
        // Fully covers lines 0..4: the fill is skipped, and every byte is
        // still correct because the write overwrites the whole line.
        pm.write_visible_lanes(0, 8, 0, &[7u8; 256]).unwrap();
        let mut b = [0u8; 256];
        pm.read(0, &mut b).unwrap();
        assert_eq!(b, [7u8; 256]);
        // Drop the pending lines: media still holds the old durable bytes.
        pm.crash_with_policy(CrashPolicy::NoneApplied);
        pm.read(0, &mut b).unwrap();
        assert_eq!(b, [0xAB; 256]);
    }

    #[test]
    fn persist_writers_range_drains_exactly_the_range() {
        let mut pm = PmDevice::new(1 << 16);
        for w in 0..8u32 {
            pm.write_visible(w, w as u64 * 64, &[w as u8 + 1; 8])
                .unwrap();
        }
        assert_eq!(pm.persist_writers_range(2, 3), 3, "writers 2, 3, 4");
        assert!(!pm.is_pending(2 * 64, 8));
        assert!(!pm.is_pending(4 * 64, 8));
        assert!(pm.is_pending(0, 8));
        assert!(pm.is_pending(5 * 64, 8));
        assert_eq!(pm.persist_writers_range(0, 8), 5, "the rest");
    }

    #[test]
    fn epoch_close_defers_drain_to_boundary() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1; 8]).unwrap();
        pm.write_visible(2, 64, &[2; 8]).unwrap();
        assert_eq!(pm.close_writer(1), 1);
        assert_eq!(pm.closed_line_count(), 1);
        // Closed lines are still pending: nothing durable yet.
        assert!(pm.is_pending(0, 8));
        let mut b = [0u8; 8];
        pm.read_media(0, &mut b).unwrap();
        assert_eq!(b, [0; 8]);
        // Boundary: only the closed line drains.
        assert_eq!(pm.drain_closed(), 1);
        assert!(!pm.is_pending(0, 8));
        assert!(pm.is_pending(64, 8));
        pm.read_media(0, &mut b).unwrap();
        assert_eq!(b, [1; 8]);
        assert_eq!(pm.closed_line_count(), 0);
    }

    #[test]
    fn epoch_rewrite_reopens_closed_line() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1; 8]).unwrap();
        pm.close_writer(1);
        assert_eq!(pm.closed_line_count(), 1);
        // WPQ coalescing: a rewrite folds into the queued entry and defers
        // the line to the next epoch close.
        pm.write_visible(1, 0, &[9; 8]).unwrap();
        assert_eq!(pm.closed_line_count(), 0);
        assert_eq!(pm.drain_closed(), 0);
        assert!(pm.is_pending(0, 8));
        assert_eq!(pm.close_writer(1), 1);
        assert_eq!(pm.drain_closed(), 1);
        let mut b = [0u8; 8];
        pm.read_media(0, &mut b).unwrap();
        assert_eq!(b, [9; 8]);
    }

    #[test]
    fn closed_lines_still_crash_vulnerable() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1; 8]).unwrap();
        pm.close_writer(1);
        let r = pm.crash_with_policy(CrashPolicy::NoneApplied);
        assert_eq!(r.lines_dropped, 1, "epoch-closed lines can be lost");
        let mut b = [0u8; 8];
        pm.read_media(0, &mut b).unwrap();
        assert_eq!(b, [0; 8]);
        assert_eq!(pm.closed_line_count(), 0);
    }

    #[test]
    fn close_writers_range_batches_warp_fences() {
        let mut pm = PmDevice::new(1 << 16);
        for w in 0..8u32 {
            pm.write_visible(w, w as u64 * 64, &[1; 8]).unwrap();
        }
        assert_eq!(pm.close_writers_range(0, 4), 4);
        // Already-closed lines are not re-counted.
        assert_eq!(pm.close_writers_range(0, 8), 4);
        assert_eq!(pm.drain_closed(), 8);
        assert_eq!(pm.pending_line_count(), 0);
    }

    #[test]
    fn many_writers_on_one_line_spill_correctly() {
        let mut pm = PmDevice::new(1 << 16);
        // 64 byte-granular writers share one line — far beyond the inline set.
        for w in 0..64u32 {
            pm.write_visible(w, w as u64, &[w as u8 + 1]).unwrap();
        }
        assert_eq!(pm.pending_line_count(), 1);
        // A fence by the last writer drains the shared line whole.
        assert_eq!(pm.persist_writer(63), 1);
        let mut b = [0u8; 64];
        pm.read_media(0, &mut b).unwrap();
        for (w, &byte) in b.iter().enumerate() {
            assert_eq!(byte, w as u8 + 1);
        }
    }

    /// Entries (live or stale) in the list of `writer`'s bucket.
    fn bucket_len(pm: &mut PmDevice, writer: WriterId) -> u32 {
        let b = bucket_of(writer);
        pm.index
            .find(b, false)
            .map_or(0, |pos| pm.index.buckets[pos].len)
    }

    /// The bound every bucket list keeps: twice its live lines plus the
    /// compaction floor.
    fn assert_bounded(pm: &mut PmDevice, writer: WriterId, live: usize) {
        let len = bucket_len(pm, writer) as usize;
        assert!(
            len <= 2 * live + MIN_COMPACT_AT as usize,
            "bucket of writer {writer} holds {len} entries for {live} live lines"
        );
    }

    #[test]
    fn lines_drained_by_others_do_not_accumulate_in_a_bucket() {
        // Writer 5 (warp 0) keeps re-dirtying eight lines that someone else
        // drains every round: a fence by warp 1 sharing the line, a CPU
        // flush by address, or a durable write covering the line. Warp 0
        // never fences, so only compaction keeps its list short.
        let mut pm = PmDevice::new(1 << 16);
        for round in 0..3_000u64 {
            let off = (round % 8) * 64;
            pm.write_visible(5, off, &[1; 8]).unwrap();
            match round % 3 {
                0 => {
                    pm.write_visible(40, off + 8, &[2; 8]).unwrap();
                    assert_eq!(pm.persist_writer(40), 1);
                }
                1 => assert_eq!(pm.persist_range(off, 1), 1),
                _ => pm.write_durable(off, &[3; 64]).unwrap(),
            }
            assert_eq!(pm.pending_line_count(), 0);
            assert_bounded(&mut pm, 5, 0);
        }
        // A warp fence still finds exactly its live lines afterwards.
        pm.write_visible_lanes(0, 8, 0, &[9; 256]).unwrap();
        assert_eq!(pm.persist_writers_range(0, 32), 4);
        assert_eq!(bucket_len(&mut pm, 5), 0, "the drain compacts the list");
    }

    #[test]
    fn a_writer_that_never_fences_keeps_one_entry_per_live_line() {
        let mut pm = PmDevice::new(1 << 20);
        // Rewriting the same lines adds nothing: the line already has a
        // writer from the bucket.
        for _ in 0..10 {
            for i in 0..1000u64 {
                pm.write_visible(7, i * 64, &[1; 8]).unwrap();
            }
        }
        assert_eq!(bucket_len(&mut pm, 7), 1000);
        // Half the lines drain by address and get re-dirtied, over and over.
        for _ in 0..20 {
            pm.persist_range(0, 500 * 64);
            for i in 0..500u64 {
                pm.write_visible(7, i * 64, &[2; 8]).unwrap();
            }
            assert_bounded(&mut pm, 7, 1000);
        }
        assert_eq!(pm.persist_writer(7), 1000);
        assert_eq!(bucket_len(&mut pm, 7), 0);
    }

    #[test]
    fn sparse_writer_ids_cost_one_bucket_chunk_each() {
        let mut pm = PmDevice::new(1 << 24);
        pm.write_visible(0xF000_0001, 0, &[1; 8]).unwrap();
        pm.write_visible(0xF000_0002, 64, &[2; 8]).unwrap();
        // The last warp of a 1M-thread grid, and two warps in between.
        for warp in [0u32, 1000, 32_767] {
            pm.write_visible_lanes(warp * 32, 8, 4096 + u64::from(warp) * 256, &[3; 256])
                .unwrap();
        }
        pm.write_visible(HOST_WRITER, 128, &[4; 8]).unwrap();
        // Two CPU writers share a chunk; the three GPU warps need three;
        // the host needs none.
        assert_eq!(pm.index.dir.len(), 4);
        assert_eq!(pm.index.buckets.len(), 4 * CHUNK_BUCKETS as usize);
        assert_eq!(pm.index.nodes.len(), 2 + 3 * 4);
        assert_eq!(pm.persist_writer(0xF000_0001), 1);
        assert_eq!(pm.persist_writers_range(32_767 * 32, 32), 4);
        // Host lines drain only by address, by a full drain or by a crash.
        assert_eq!(pm.pending_line_count(), 1 + 2 * 4 + 1);
        assert_eq!(pm.persist_all(), 10);
    }

    #[test]
    fn writer_sets_keep_set_semantics_across_representations() {
        let mut w = Writers::default();
        for id in [10, 11, 9, 12, 11] {
            w.insert(id);
        }
        assert!(matches!(w, Writers::Range { lo: 9, n: 4 }));
        assert!(w.contains_range(12, 1) && w.contains_range(0, 10));
        assert!(!w.contains_range(13, 100) && !w.contains_range(0, 9));
        // A non-adjacent id turns the range into an explicit set.
        w.insert(40);
        assert!(matches!(w, Writers::Spill(ref v) if v.len() == 5));
        assert!(w.contains_range(40, 1) && !w.contains_range(13, 27));
        let mut small = Writers::Range { lo: 5, n: 2 };
        small.insert(9);
        assert!(matches!(small, Writers::Inline { len: 3, .. }));
        assert!(small.contains_range(9, 1) && !small.contains_range(7, 2));
        // The top of the id space does not overflow.
        let mut top = Writers::default();
        top.insert(HOST_WRITER - 1);
        top.insert(HOST_WRITER);
        assert!(top.contains_range(HOST_WRITER, 1));
        assert!(matches!(top, Writers::Range { n: 2, .. }));
    }

    #[test]
    fn unaligned_warp_fence_drains_both_buckets() {
        let mut pm = PmDevice::new(1 << 16);
        // Writers 16..48 straddle buckets 0 and 1; one line each.
        for w in 16..48u32 {
            pm.write_visible(w, u64::from(w) * 64, &[1; 8]).unwrap();
        }
        assert_eq!(pm.close_writers_range(16, 32), 32);
        assert_eq!(pm.close_writers_range(16, 32), 0, "already closed");
        assert_eq!(pm.persist_writers_range(16, 32), 32);
        assert_eq!(pm.pending_line_count(), 0);
    }
}
