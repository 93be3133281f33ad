//! # rsk-api — common trait surface for stream-summary sketches
//!
//! The stream-summary problem (paper §2.1): given a stream of
//! `⟨key, value⟩` pairs, estimate for any key `e` the sum `f(e)` of all
//! values carried by that key. An *outlier* is a key whose estimate misses
//! the truth by more than the user's tolerance `Λ`.
//!
//! This crate defines the minimal trait vocabulary shared by the
//! ReliableSketch implementation (`rsk-core`), the nine baselines
//! (`rsk-baselines`), the hardware models (`rsk-dataplane`) and the
//! evaluation harness (`rsk-metrics`, `rsk-exp`):
//!
//! * [`StreamSummary`] — insert / point-query;
//! * [`ErrorSensing`] — point-query with a certified [`Estimate`] interval
//!   (the paper's "Maximum Possible Error"); only ReliableSketch and the
//!   exact oracle can implement this;
//! * [`TopK`] — certified top-K heavy hitters: entries carry the per-key
//!   MPE as error bars and the answer certifies its own recall
//!   ([`CertifiedTopK`]);
//! * [`SubpopulationWeight`] — certified aggregate queries: the total
//!   weight of a [`KeySet`]-selected key subset with a sound
//!   [`CertifiedWeight`] interval summed from the per-key bounds;
//! * [`MemoryFootprint`] — bytes used, so experiments can sweep memory;
//! * [`Algorithm`] — display name for harness tables;
//! * [`Clear`] — reset without reallocation (benchmarks).
//!
//! All traits are object safe: the harness manipulates
//! `Box<dyn Sketch<u64>>` values uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rsk_hash::HashKey;

/// Marker bound for key types accepted by every sketch in the workspace.
///
/// `Key` is automatically implemented for all [`HashKey`] types (`u32`,
/// `u64`, `u128`, 13-byte 5-tuples).
pub trait Key: HashKey + 'static {}
impl<T: HashKey + 'static> Key for T {}

/// A point-query answer together with its certified error bound.
///
/// ReliableSketch guarantees `truth ∈ [value − max_possible_error, value]`
/// for every key (paper §3.1): estimates never undershoot and overshoot by
/// at most the Maximum Possible Error (MPE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Estimate {
    /// The estimated value sum `f̂(e)` (an upper bound on the truth).
    pub value: u64,
    /// Maximum Possible Error: `f̂(e) − f(e) ≤ max_possible_error`.
    pub max_possible_error: u64,
}

impl Estimate {
    /// An exact answer (MPE = 0).
    #[inline]
    pub fn exact(value: u64) -> Self {
        Self {
            value,
            max_possible_error: 0,
        }
    }

    /// Lower end of the certified interval, `value − MPE` (saturating).
    #[inline]
    pub fn lower_bound(&self) -> u64 {
        self.value.saturating_sub(self.max_possible_error)
    }

    /// Upper end of the certified interval (the estimate itself).
    #[inline]
    pub fn upper_bound(&self) -> u64 {
        self.value
    }

    /// Does the certified interval contain `truth`?
    #[inline]
    pub fn contains(&self, truth: u64) -> bool {
        self.lower_bound() <= truth && truth <= self.value
    }

    /// Width of the certified interval (= MPE).
    #[inline]
    pub fn width(&self) -> u64 {
        self.max_possible_error
    }
}

/// The stream-summary interface: feed `⟨key, value⟩` pairs, point-query sums.
pub trait StreamSummary<K: Key> {
    /// Process one stream item, adding `value` to key `key`.
    fn insert(&mut self, key: &K, value: u64);

    /// Estimate the value sum of `key`.
    fn query(&self, key: &K) -> u64;

    /// Convenience: insert with value 1 (frequency estimation).
    #[inline]
    fn insert_one(&mut self, key: &K) {
        self.insert(key, 1);
    }
}

/// A sketch that reports a certified error interval with every answer.
///
/// `query_with_error(e).value` must equal `query(e)`, and the interval must
/// contain the truth whenever the sketch's guarantee holds.
pub trait ErrorSensing<K: Key>: StreamSummary<K> {
    /// Estimate the value sum of `key` along with its Maximum Possible
    /// Error.
    fn query_with_error(&self, key: &K) -> Estimate;
}

/// One reported heavy hitter in a [`CertifiedTopK`] answer.
///
/// `count` never undershoots the key's true value sum and overshoots it
/// by at most `error` (the sketch's certified per-key Maximum Possible
/// Error at the moment the entry was claimed), so
/// `truth ∈ [count − error, count]` — the same one-sided interval as
/// [`Estimate`], carried per top-K entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TopKEntry<K> {
    /// The reported key.
    pub key: K,
    /// Certified upper bound on the key's true value sum.
    pub count: u64,
    /// Certified overestimation bound: `count − truth ≤ error`.
    pub error: u64,
}

impl<K> TopKEntry<K> {
    /// Lower end of the certified interval, `count − error` (saturating).
    #[inline]
    pub fn lower_bound(&self) -> u64 {
        self.count.saturating_sub(self.error)
    }

    /// Does the certified interval contain `truth`?
    #[inline]
    pub fn contains(&self, truth: u64) -> bool {
        self.lower_bound() <= truth && truth <= self.count
    }
}

/// A certified top-K answer: up to `k` entries sorted by `count`
/// descending, plus the two ceilings that turn the list into a *recall
/// guarantee* rather than a best-effort report.
///
/// * [`miss_bound`](Self::miss_bound) — no key absent from the backing
///   summary can have a true value sum above this;
/// * [`next_count`](Self::next_count) — the certified count of the best
///   summary entry *not* reported (the (k+1)-th), `0` when the summary
///   held no more than `k` entries.
///
/// Any key with true count above
/// [`guaranteed_floor()`](Self::guaranteed_floor) (the larger of the
/// two) is provably among the reported entries; when additionally every
/// reported entry's certified lower bound clears that floor
/// ([`recall_certified()`](Self::recall_certified)), the reported set is
/// provably *exactly* the set of keys whose true count exceeds the floor
/// — recall 1.0, certified from the k-th/(k+1)-th gap, no oracle needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedTopK<K> {
    /// Reported entries, `count` descending. May be shorter than the
    /// requested `k` when the summary tracked fewer keys.
    pub entries: Vec<TopKEntry<K>>,
    /// Upper bound on the true count of any key the summary does not
    /// track ([`u64::MAX`] for a vacuous answer from a sketch without a
    /// top-K layer).
    pub miss_bound: u64,
    /// Certified count of the best unreported summary entry (`0` when
    /// everything tracked was reported).
    pub next_count: u64,
}

impl<K> CertifiedTopK<K> {
    /// A vacuous answer: no entries, no guarantee (`miss_bound` = MAX).
    pub fn vacuous() -> Self {
        Self {
            entries: Vec::new(),
            miss_bound: u64::MAX,
            next_count: 0,
        }
    }

    /// The certified floor: every key with true count strictly above
    /// this is among [`entries`](Self::entries).
    #[inline]
    pub fn guaranteed_floor(&self) -> u64 {
        self.miss_bound.max(self.next_count)
    }

    /// Is the reported set provably exact? True when every entry's
    /// certified lower bound strictly clears
    /// [`guaranteed_floor()`](Self::guaranteed_floor): reported keys then
    /// all have true counts above the floor, unreported keys all sit at
    /// or below it, so the entry set equals the true top-`len(entries)`
    /// (as a set — ordering *within* the reported set is not certified).
    /// Vacuously true for an empty report (nothing claimed, nothing
    /// wrong); callers wanting `k` certified entries should also check
    /// `entries.len() == k`.
    pub fn recall_certified(&self) -> bool {
        let floor = self.guaranteed_floor();
        self.entries.iter().all(|e| e.lower_bound() > floor)
    }
}

/// A sketch carrying an error-certified top-K heavy-hitter layer.
///
/// The trait is object safe — a service can hold tenants as
/// `Box<dyn TopK<u64>>` — and deliberately read-only: entries are
/// claimed internally by the sketch's own insertion path (elephant
/// promotion), never by the caller.
pub trait TopK<K: Key> {
    /// The certified top-`k` answer over everything inserted so far.
    ///
    /// Sketches without an enabled top-K layer return
    /// [`CertifiedTopK::vacuous`].
    fn certified_top_k(&self, k: usize) -> CertifiedTopK<K>;

    /// Capacity of the backing summary, or `None` when the top-K layer
    /// is disabled.
    fn top_k_capacity(&self) -> Option<usize>;
}

/// A certified subpopulation-weight answer: the estimated total value of
/// a [`KeySet`]-selected key subset, plus a sound interval around it.
///
/// The containment contract extends the per-key [`Estimate`] guarantee to
/// aggregates (Cohen & Kaplan's subpopulation-weight query, answered with
/// ReliableSketch's certified per-key bounds instead of tail
/// probabilities):
///
/// ```text
/// lo  ≤  truth  ≤  hi + slack        (truth = Σ f(k) over k ∈ set)
/// lo  ≤  estimate  ≤  hi
/// ```
///
/// * `lo`/`hi` are sums of per-key certified bounds (lower bounds and
///   estimates for enumerable sets; for non-enumerable sets `hi` also
///   charges every possibly-present untracked key its certified per-key
///   ceiling — the top-K layer's `miss_bound` when enabled, the sketch's
///   `mpe_ceiling` otherwise — which saturates to a vacuous-but-sound
///   [`u64::MAX`] on unbounded sets);
/// * `slack` is the *documented contention slack* of concurrent reads:
///   the summed per-key amount by which a racing producer may leave an
///   estimate trailing the truth (`(arrays − 1) × threshold` per key for
///   a filtered concurrent ReliableSketch, × generations for an epoched
///   window). Sequential sketches and quiescent concurrent sketches
///   answer with `slack` still reported but not needed — the interval
///   `[lo, hi]` alone then contains the truth.
///
/// # Examples
///
/// ```
/// use rsk_api::CertifiedWeight;
///
/// let w = CertifiedWeight { estimate: 120, lo: 100, hi: 120, slack: 8 };
/// assert_eq!(w.lower_bound(), 100);
/// assert_eq!(w.upper_bound(), 128); // hi + slack, saturating
/// assert!(w.contains(100) && w.contains(128));
/// assert!(!w.contains(99) && !w.contains(129));
/// assert_eq!(w.width(), 28);
/// assert_eq!(CertifiedWeight::exact(7).width(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CertifiedWeight {
    /// The estimated subset value sum (the answer a point-query sum would
    /// give; `lo ≤ estimate ≤ hi`).
    pub estimate: u64,
    /// Certified lower bound on the true subset weight.
    pub lo: u64,
    /// Certified upper bound on the true subset weight, before contention
    /// slack.
    pub hi: u64,
    /// Documented contention slack: a concurrent read may trail the truth
    /// by at most this much, so the sound upper bound is `hi + slack`.
    pub slack: u64,
}

impl CertifiedWeight {
    /// An exact answer: `truth = estimate`, zero-width interval.
    #[inline]
    pub fn exact(value: u64) -> Self {
        Self {
            estimate: value,
            lo: value,
            hi: value,
            slack: 0,
        }
    }

    /// The empty-subset answer (exactly zero).
    #[inline]
    pub fn zero() -> Self {
        Self::exact(0)
    }

    /// Lower end of the certified interval.
    #[inline]
    pub fn lower_bound(&self) -> u64 {
        self.lo
    }

    /// Upper end of the certified interval, `hi + slack` (saturating).
    #[inline]
    pub fn upper_bound(&self) -> u64 {
        self.hi.saturating_add(self.slack)
    }

    /// Does the certified interval contain `truth`?
    #[inline]
    pub fn contains(&self, truth: u64) -> bool {
        self.lo <= truth && truth <= self.upper_bound()
    }

    /// Width of the certified interval, `upper_bound − lo`.
    #[inline]
    pub fn width(&self) -> u64 {
        self.upper_bound().saturating_sub(self.lo)
    }

    /// Is the answer vacuous (upper bound saturated at [`u64::MAX`])?
    ///
    /// Returned for subsets the sketch cannot bound meaningfully — e.g. a
    /// non-enumerable set queried against a flavour whose tracked-key
    /// inventory cannot cover it. Still sound: the interval contains the
    /// truth, it just excludes nothing above `lo`.
    #[inline]
    pub fn is_vacuous(&self) -> bool {
        self.upper_bound() == u64::MAX
    }
}

/// A predicate over `u64` keys selecting the subpopulation to weigh.
///
/// The three shapes are the natural selectors for network telemetry keys
/// (flow IDs, addresses): an explicit list, a contiguous range, and a
/// bit-mask pattern (the generalization of a CIDR prefix).
///
/// Construct through [`explicit`](Self::explicit),
/// [`range`](Self::range), [`mask`](Self::mask) or
/// [`prefix`](Self::prefix) — the constructors normalize (sort + dedup
/// the explicit list, reduce the mask pattern) so that equal predicates
/// compare equal and membership tests are `O(log n)` / `O(1)`.
///
/// # Examples
///
/// ```
/// use rsk_api::KeySet;
///
/// let s = KeySet::explicit(vec![7, 3, 3, 9]);
/// assert!(s.contains(3) && !s.contains(4));
/// assert_eq!(s.cardinality(), Some(3));
///
/// let r = KeySet::range(10, 19);
/// assert!(r.contains(10) && r.contains(19) && !r.contains(20));
/// assert_eq!(r.cardinality(), Some(10));
///
/// // the /8-style prefix 0x2A______ over 32-bit keys:
/// let p = KeySet::prefix(0x2A00_0000, 40); // 32 leading zeros + 8 prefix bits
/// assert!(p.contains(0x2A12_3456));
/// assert!(!p.contains(0x2B00_0000));
/// assert_eq!(p.cardinality(), Some(1 << 24));
///
/// // enumeration is ascending and capped
/// assert_eq!(KeySet::range(5, 7).enumerate(16), Some(vec![5, 6, 7]));
/// assert_eq!(KeySet::range(0, 1_000_000).enumerate(16), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeySet {
    /// An explicit key list (held sorted and deduplicated).
    Explicit(Vec<u64>),
    /// The inclusive range `start ..= end`.
    Range {
        /// Smallest member.
        start: u64,
        /// Largest member (inclusive).
        end: u64,
    },
    /// All keys `k` with `k & mask == pattern` (pattern is normalized to
    /// `pattern & mask`). `mask == u64::MAX` selects the single key
    /// `pattern`; `mask == 0` selects the full universe.
    Mask {
        /// Required bit values on the masked positions.
        pattern: u64,
        /// Which bit positions the predicate constrains.
        mask: u64,
    },
}

impl KeySet {
    /// An explicit key set (input is sorted and deduplicated).
    pub fn explicit(mut keys: Vec<u64>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        KeySet::Explicit(keys)
    }

    /// The inclusive range `start ..= end`.
    ///
    /// # Panics
    /// If `start > end` (an empty range is spelled
    /// `KeySet::explicit(vec![])`).
    pub fn range(start: u64, end: u64) -> Self {
        assert!(start <= end, "KeySet::range requires start <= end");
        KeySet::Range { start, end }
    }

    /// All keys matching `pattern` on the bit positions set in `mask`
    /// (the pattern is normalized to the masked positions).
    pub fn mask(pattern: u64, mask: u64) -> Self {
        KeySet::Mask {
            pattern: pattern & mask,
            mask,
        }
    }

    /// The CIDR-style prefix predicate: keys whose top `bits` bits equal
    /// the top `bits` bits of `pattern`. `bits == 0` is the full
    /// universe; `bits == 64` the single key `pattern`.
    ///
    /// # Panics
    /// If `bits > 64`.
    pub fn prefix(pattern: u64, bits: u32) -> Self {
        assert!(bits <= 64, "prefix length exceeds the 64-bit key space");
        let mask = if bits == 0 {
            0
        } else {
            u64::MAX << (64 - bits)
        };
        Self::mask(pattern, mask)
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        match self {
            KeySet::Explicit(keys) => keys.binary_search(&key).is_ok(),
            KeySet::Range { start, end } => (*start..=*end).contains(&key),
            KeySet::Mask { pattern, mask } => key & mask == *pattern,
        }
    }

    /// Number of members, or `None` when it does not fit a `u64` (only
    /// the full 2⁶⁴ universe: `range(0, u64::MAX)` or `mask(_, 0)`).
    pub fn cardinality(&self) -> Option<u64> {
        match self {
            KeySet::Explicit(keys) => Some(keys.len() as u64),
            KeySet::Range { start, end } => end.checked_sub(*start)?.checked_add(1),
            KeySet::Mask { mask, .. } => {
                let free_bits = 64 - mask.count_ones();
                if free_bits == 64 {
                    None
                } else {
                    Some(1u64 << free_bits)
                }
            }
        }
    }

    /// Is the set empty? (Only an explicit list can be.)
    #[inline]
    pub fn is_empty(&self) -> bool {
        matches!(self, KeySet::Explicit(keys) if keys.is_empty())
    }

    /// The members in ascending order, or `None` when the set has more
    /// than `limit` members (dense evaluation would be too expensive —
    /// callers fall back to a tracked-key decode).
    pub fn enumerate(&self, limit: usize) -> Option<Vec<u64>> {
        let n = self.cardinality()?;
        if n > limit as u64 {
            return None;
        }
        match self {
            KeySet::Explicit(keys) => Some(keys.clone()),
            KeySet::Range { start, end } => Some((*start..=*end).collect()),
            KeySet::Mask { pattern, mask } => {
                // ascending submask enumeration of the free positions:
                // v steps through the subsets of !mask in increasing order
                let free = !mask;
                let mut out = Vec::with_capacity(n as usize);
                let mut v = 0u64;
                loop {
                    out.push(pattern | v);
                    v = (v | mask).wrapping_add(1) & free;
                    if v == 0 {
                        break;
                    }
                }
                Some(out)
            }
        }
    }
}

/// A sketch that answers certified subpopulation-weight queries: the
/// total value carried by a [`KeySet`]-selected key subset, with a sound
/// interval from the per-key certified bounds.
///
/// The trait is object safe — a service can hold tenants as
/// `Box<dyn SubpopulationWeight>` — and is deliberately `u64`-keyed: the
/// predicate shapes (ranges, masks) are defined on the key's bit pattern.
///
/// Contract: the returned interval must satisfy
/// `lo ≤ Σ_{k ∈ set} f(k) ≤ hi + slack` under the same conditions as the
/// implementation's point-query guarantee (sequential: always; concurrent:
/// `slack` covers the documented bounded contention undershoot). The
/// answer for the empty set must be [`CertifiedWeight::zero`].
pub trait SubpopulationWeight {
    /// The certified total weight of `set`.
    fn subpopulation_weight(&self, set: &KeySet) -> CertifiedWeight;
}

/// Bytes of memory occupied by the sketch's data structure.
///
/// This is the *model* footprint used for the paper's memory sweeps: it
/// counts the bit-widths the paper assigns to each field (e.g. 32-bit `YES`,
/// 16-bit `NO`, 32-bit `ID` per bucket — §6.1.1), not Rust allocator
/// overhead, so memory axes are comparable across algorithms.
pub trait MemoryFootprint {
    /// Model memory footprint in bytes.
    fn memory_bytes(&self) -> usize;
}

/// Display name for result tables (e.g. `"Ours"`, `"CM_fast"`, `"SS"`).
pub trait Algorithm {
    /// Short, stable identifier used in figures and CSV output.
    fn name(&self) -> String;
}

/// Reset the sketch to its empty state without reallocating.
pub trait Clear {
    /// Clear all cells; the sketch afterwards behaves as freshly built.
    fn clear(&mut self);
}

/// How a parallel ingestion distributes its per-shard work units over
/// worker threads.
///
/// Both policies preserve the determinism contract of sharded parallel
/// ingestion: a work unit is one *whole shard's* sub-stream in stream
/// order, applied by exactly one worker, so the resulting sketch is
/// bit-identical under either policy and any worker count. The policies
/// differ only in *which* worker applies a unit and therefore in
/// wall-clock behaviour under skew:
///
/// * [`Static`](IngestPolicy::Static) claims shards from a shared ticket
///   in shard-index order. Simple and cheap, but when one shard carries
///   most of the stream (a skewed key distribution routes the hot key's
///   whole mass to a single shard), whichever worker draws the hot
///   ticket becomes the critical path while the others idle.
/// * [`WorkStealing`](IngestPolicy::WorkStealing) seeds per-worker
///   queues (heaviest unit first), and idle
///   workers steal *whole* pending units from busy owners — never
///   splitting a shard, so determinism survives. `steal_threshold` is
///   the minimum number of items a queued unit must carry to be worth
///   migrating off its preferred owner; `0` steals anything.
///
/// # Examples
///
/// ```
/// use rsk_api::IngestPolicy;
///
/// assert_eq!(IngestPolicy::default(), IngestPolicy::Static);
/// let ws = IngestPolicy::work_stealing();
/// assert!(matches!(ws, IngestPolicy::WorkStealing { .. }));
/// // any queued unit is worth stealing once it meets the threshold
/// let picky = IngestPolicy::WorkStealing { steal_threshold: 4096 };
/// assert_ne!(ws, picky);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IngestPolicy {
    /// Workers claim whole shards from a shared ticket counter in shard
    /// order (the original two-phase schedule).
    #[default]
    Static,
    /// Per-worker queues with whole-unit stealing for skewed shard loads.
    WorkStealing {
        /// Minimum item count a queued unit must carry before an idle
        /// worker may steal it (`0` = steal anything pending).
        steal_threshold: usize,
    },
}

impl IngestPolicy {
    /// Items a stolen unit must carry under [`Self::work_stealing`]:
    /// small enough that real skew always triggers migration, large
    /// enough that thieves don't bounce cache lines over trivial tails.
    pub const DEFAULT_STEAL_THRESHOLD: usize = 256;

    /// Work stealing at the default threshold
    /// ([`Self::DEFAULT_STEAL_THRESHOLD`]).
    #[inline]
    pub fn work_stealing() -> Self {
        IngestPolicy::WorkStealing {
            steal_threshold: Self::DEFAULT_STEAL_THRESHOLD,
        }
    }

    /// Short display form for tables (`static` / `steal:256`).
    pub fn describe(&self) -> String {
        match self {
            IngestPolicy::Static => "static".into(),
            IngestPolicy::WorkStealing { steal_threshold } => format!("steal:{steal_threshold}"),
        }
    }
}

/// A sketch that supports lock-free ingestion through a shared reference,
/// so any number of producer threads can feed it concurrently.
///
/// Contract: `insert_concurrent` must be safe to call from many threads at
/// once, and every unit of inserted value must be visible to queries that
/// start after the insertion returns — estimates never undershoot the mass
/// already absorbed, up to any *documented, bounded* relaxation the
/// implementation declares for contended paths (e.g. a filtered
/// concurrent ReliableSketch's `(arrays − 1) × threshold` slack, the
/// relaxed-semantics trade of Fast Concurrent Data Sketches, Rinberg et
/// al.). `ingest_parallel` distributes a materialized stream over
/// `n_workers` threads; the default implementation is a sequential
/// fallback for implementations without a dedicated parallel path.
///
/// The trait is object safe: ingestion pipelines can hold
/// `Box<dyn ConcurrentSummary<u64>>` and stay agnostic of the sketch.
///
/// # Examples
///
/// Implementing the trait on a trivial exact store (real sketches use
/// atomics instead of a mutex — see `rsk_core::atomic` — but the contract
/// is the same):
///
/// ```
/// use rsk_api::ConcurrentSummary;
/// use std::collections::HashMap;
/// use std::sync::Mutex;
///
/// #[derive(Default)]
/// struct SharedExact(Mutex<HashMap<u64, u64>>);
///
/// impl ConcurrentSummary<u64> for SharedExact {
///     fn insert_concurrent(&self, key: &u64, value: u64) {
///         *self.0.lock().unwrap().entry(*key).or_insert(0) += value;
///     }
///     fn query_concurrent(&self, key: &u64) -> u64 {
///         self.0.lock().unwrap().get(key).copied().unwrap_or(0)
///     }
/// }
///
/// let store = SharedExact::default();
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         let store = &store;
///         s.spawn(move || store.insert_concurrent(&7, 25));
///     }
/// });
/// assert_eq!(store.query_concurrent(&7), 100);
/// ```
pub trait ConcurrentSummary<K: Key>: Sync {
    /// Process one stream item through a shared reference.
    fn insert_concurrent(&self, key: &K, value: u64);

    /// Estimate the value sum of `key` through a shared reference.
    fn query_concurrent(&self, key: &K) -> u64;

    /// Ingest a stream with `n_workers` threads; returns the number of
    /// items processed.
    fn ingest_parallel(&self, items: &[(K, u64)], n_workers: usize) -> usize {
        let _ = n_workers;
        for (k, v) in items {
            self.insert_concurrent(k, *v);
        }
        items.len()
    }

    /// Ingest a stream with `n_workers` threads under an explicit
    /// [`IngestPolicy`]. Implementations with a scheduled parallel path
    /// (e.g. a sharded sketch) honor the policy; the default falls back
    /// to [`Self::ingest_parallel`], which treats every policy as
    /// [`IngestPolicy::Static`].
    fn ingest_parallel_policy(
        &self,
        items: &[(K, u64)],
        n_workers: usize,
        policy: IngestPolicy,
    ) -> usize {
        let _ = policy;
        self.ingest_parallel(items, n_workers)
    }
}

/// Certified error sensing through a shared reference — the concurrent
/// twin of [`ErrorSensing`], and the query surface a served (multi-tenant,
/// multi-reader) deployment exposes as `QueryCertified`.
///
/// Contract: `query_with_error_concurrent(e).value` must equal
/// [`query_concurrent(e)`](ConcurrentSummary::query_concurrent), and the
/// certified interval must contain the truth under the same conditions as
/// the sequential guarantee, relaxed only by the implementation's
/// *documented, bounded* contention slack (mirroring
/// [`ConcurrentSummary`]): a filtered concurrent ReliableSketch may trail
/// the true mass by at most `(arrays − 1) × threshold` while producer
/// threads race on the same key, so under contention the containment
/// check is `lower_bound() ≤ truth ≤ value + slack`. Once producers are
/// quiescent (all insertions returned before the query started), the
/// slack is not needed and the interval contains the truth exactly as in
/// the sequential case; uncontended single-writer histories must answer
/// **bit-for-bit** like their sequential twin.
///
/// Reads against a *sealed* structure (a frozen epoch generation whose
/// atomic words are never CASed again) are wait-free: plain loads, no
/// retry loop.
///
/// The trait is object safe: a service can hold tenants as
/// `Box<dyn ConcurrentErrorSensing<u64>>` and stay agnostic of the
/// concrete sketch.
///
/// # Examples
///
/// ```
/// use rsk_api::{ConcurrentErrorSensing, ConcurrentSummary, Estimate};
/// use std::collections::HashMap;
/// use std::sync::Mutex;
///
/// #[derive(Default)]
/// struct SharedExact(Mutex<HashMap<u64, u64>>);
///
/// impl ConcurrentSummary<u64> for SharedExact {
///     fn insert_concurrent(&self, key: &u64, value: u64) {
///         *self.0.lock().unwrap().entry(*key).or_insert(0) += value;
///     }
///     fn query_concurrent(&self, key: &u64) -> u64 {
///         self.0.lock().unwrap().get(key).copied().unwrap_or(0)
///     }
/// }
///
/// impl ConcurrentErrorSensing<u64> for SharedExact {
///     fn query_with_error_concurrent(&self, key: &u64) -> Estimate {
///         Estimate::exact(self.query_concurrent(key)) // exact store: MPE = 0
///     }
/// }
///
/// let store = SharedExact::default();
/// store.insert_concurrent(&7, 100);
/// let est = store.query_with_error_concurrent(&7);
/// assert_eq!(est.value, store.query_concurrent(&7));
/// assert!(est.contains(100));
/// // object safety: certified tenants behind one trait object
/// let boxed: Box<dyn ConcurrentErrorSensing<u64>> = Box::new(store);
/// assert!(boxed.query_with_error_concurrent(&7).contains(100));
/// ```
pub trait ConcurrentErrorSensing<K: Key>: ConcurrentSummary<K> {
    /// Estimate the value sum of `key` along with its Maximum Possible
    /// Error, through a shared reference.
    fn query_with_error_concurrent(&self, key: &K) -> Estimate;
}

/// Why two sketch instances refused to merge.
///
/// Merging requires both operands to have been built with identical
/// parameters; the variants name the precondition that failed. The enum
/// is `#[non_exhaustive]` so future preconditions can gain their own
/// variant without a breaking change — match with a wildcard arm.
///
/// # Examples
///
/// ```
/// use rsk_api::MergeError;
///
/// let e = MergeError::Incompatible("mice filter presence mismatch".into());
/// assert_eq!(e.to_string(), "incompatible operands: mice filter presence mismatch");
/// // it is a real std error, so `?` can cross into Box<dyn Error> code
/// let boxed: Box<dyn std::error::Error> = Box::new(MergeError::SeedMismatch);
/// assert!(boxed.to_string().contains("seed"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MergeError {
    /// The operands' dimensions differ (memory budget, layer geometry,
    /// filter shape, shard count, width/depth, …): bucket `(i, j)` of one
    /// operand has no counterpart in the other.
    ShapeMismatch,
    /// Same shape, different hash seeds: bucket `(i, j)` observed a
    /// different key population in each operand, so counters cannot be
    /// combined soundly.
    SeedMismatch,
    /// Any other incompatibility (mixed emergency policies, mixed
    /// mice-filter presence, an empty merge set, …), described in text.
    Incompatible(String),
}

impl core::fmt::Display for MergeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MergeError::ShapeMismatch => write!(f, "shape mismatch between merge operands"),
            MergeError::SeedMismatch => write!(f, "hash seed mismatch between merge operands"),
            MergeError::Incompatible(why) => write!(f, "incompatible operands: {why}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Why a replication payload was refused.
///
/// The replication layer (`rsk_core::replicate`) ships sketch state
/// between processes as self-describing binary payloads; these variants
/// name the precondition that failed when producing or applying one.
/// Like [`MergeError`] the enum is `#[non_exhaustive]` — match with a
/// wildcard arm.
///
/// # Examples
///
/// ```
/// use rsk_api::ReplicateError;
///
/// let e = ReplicateError::UnsupportedFormat { version: 9 };
/// assert_eq!(e.to_string(), "unsupported replication format version 9");
/// // a real std error, so `?` can cross into Box<dyn Error> code
/// let boxed: Box<dyn std::error::Error> = Box::new(ReplicateError::Truncated);
/// assert!(boxed.to_string().contains("truncated"));
/// // merge preconditions surface directly when applying deltas
/// let from_merge: ReplicateError = rsk_api::MergeError::SeedMismatch.into();
/// assert!(matches!(from_merge, ReplicateError::Incompatible(_)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplicateError {
    /// The payload ended before its declared structure was complete.
    Truncated,
    /// The payload's header declares a codec version this build cannot
    /// read (or the magic/kind byte is not a replication payload at all).
    UnsupportedFormat {
        /// The version byte found in the header.
        version: u8,
    },
    /// The payload decoded structurally but its contents are inconsistent
    /// (bad tag, out-of-range index, shape violation, trailing bytes, …).
    Corrupt(String),
    /// The payload is well-formed but cannot be applied to *this* sketch
    /// (config/seed/geometry mismatch, wrong payload kind, stale epoch).
    Incompatible(String),
}

impl core::fmt::Display for ReplicateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReplicateError::Truncated => write!(f, "truncated replication payload"),
            ReplicateError::UnsupportedFormat { version } => {
                write!(f, "unsupported replication format version {version}")
            }
            ReplicateError::Corrupt(why) => write!(f, "corrupt replication payload: {why}"),
            ReplicateError::Incompatible(why) => {
                write!(f, "payload incompatible with this sketch: {why}")
            }
        }
    }
}

impl std::error::Error for ReplicateError {}

impl From<MergeError> for ReplicateError {
    fn from(e: MergeError) -> Self {
        ReplicateError::Incompatible(e.to_string())
    }
}

/// Sketch state that can leave the process: full snapshots, slim
/// query-only summaries, and dirty-bucket deltas, all as self-describing
/// binary payloads (see `rsk_core::replicate` for the codec).
///
/// The trait is deliberately byte-oriented so it stays object safe and
/// implementation-agnostic: a replication pipeline can hold
/// `Box<dyn Replicate>` tenants and ship whatever they emit. Payloads are
/// self-describing — [`apply_bytes`](Self::apply_bytes) accepts either a
/// full snapshot (replacing this sketch's state) or a delta (folding in
/// buckets dirtied since the source's last [`delta_bytes`] call), and
/// refuses anything incompatible with a typed [`ReplicateError`].
///
/// Contract:
///
/// * `snapshot_bytes` → `apply_bytes` on a same-config sketch must make
///   the replica answer `query_with_error` identically to the source at
///   snapshot time;
/// * `delta_bytes` emits every bucket touched since the previous
///   `delta_bytes`/`snapshot_bytes` call **and marks the state clean**
///   (hence `&mut self`: emission is a cut point, not a pure read);
/// * applying a snapshot and then every subsequent delta, in order,
///   keeps the replica equivalent to the source at each cut;
/// * `slim_bytes` emits a query-only distillate (a `SlimSummary` in
///   `rsk-core` terms): smaller than a snapshot, answers certified
///   queries standalone within a documented widening, but cannot be
///   updated or merged further.
///
/// [`delta_bytes`]: Self::delta_bytes
pub trait Replicate {
    /// Serialize the complete sketch state.
    ///
    /// # Errors
    /// [`ReplicateError`] if the state cannot be captured (e.g. the
    /// implementation requires a sealed generation it cannot take here).
    fn snapshot_bytes(&self) -> Result<Vec<u8>, ReplicateError>;

    /// Serialize a slim query-only summary of the current state.
    ///
    /// # Errors
    /// [`ReplicateError`] if the state cannot be distilled.
    fn slim_bytes(&self) -> Result<Vec<u8>, ReplicateError>;

    /// Serialize only state dirtied since the last cut, and mark clean.
    ///
    /// # Errors
    /// [`ReplicateError`] if the dirty state cannot be captured.
    fn delta_bytes(&mut self) -> Result<Vec<u8>, ReplicateError>;

    /// Apply a payload produced by [`Self::snapshot_bytes`] (replaces
    /// state) or [`Self::delta_bytes`] (folds in dirtied buckets).
    ///
    /// # Errors
    /// [`ReplicateError`] naming why the payload was refused; on error
    /// the sketch is unchanged.
    fn apply_bytes(&mut self, payload: &[u8]) -> Result<(), ReplicateError>;
}

/// Sketches that can absorb another instance built with identical
/// parameters (same shape, same seeds) — the distributed-aggregation
/// primitive: summarize per shard, merge centrally.
///
/// After `a.merge(&b)`, `a` must answer as if it had ingested both input
/// streams (exactly for linear sketches like CM/Count; within the usual
/// one-sided error for CU).
pub trait Merge {
    /// Fold `other` into `self`.
    ///
    /// # Errors
    /// Returns a [`MergeError`] naming the violated precondition when the
    /// instances are not mergeable (mismatched shape, hash seeds, or any
    /// other incompatibility).
    fn merge(&mut self, other: &Self) -> Result<(), MergeError>;
}

/// Object-safe bundle used by the evaluation harness.
pub trait Sketch<K: Key>: StreamSummary<K> + MemoryFootprint + Algorithm {}
impl<K: Key, T: StreamSummary<K> + MemoryFootprint + Algorithm> Sketch<K> for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Minimal exact implementation used to validate the trait surface.
    #[derive(Default)]
    struct Exact(HashMap<u64, u64>);

    impl StreamSummary<u64> for Exact {
        fn insert(&mut self, key: &u64, value: u64) {
            *self.0.entry(*key).or_insert(0) += value;
        }
        fn query(&self, key: &u64) -> u64 {
            self.0.get(key).copied().unwrap_or(0)
        }
    }
    impl ErrorSensing<u64> for Exact {
        fn query_with_error(&self, key: &u64) -> Estimate {
            Estimate::exact(self.query(key))
        }
    }
    impl MemoryFootprint for Exact {
        fn memory_bytes(&self) -> usize {
            self.0.len() * 16
        }
    }
    impl Algorithm for Exact {
        fn name(&self) -> String {
            "Exact".into()
        }
    }

    #[test]
    fn estimate_interval_logic() {
        let e = Estimate {
            value: 100,
            max_possible_error: 30,
        };
        assert_eq!(e.lower_bound(), 70);
        assert_eq!(e.upper_bound(), 100);
        assert!(e.contains(70) && e.contains(100) && e.contains(85));
        assert!(!e.contains(69) && !e.contains(101));
        assert_eq!(e.width(), 30);
    }

    #[test]
    fn estimate_saturates_at_zero() {
        let e = Estimate {
            value: 5,
            max_possible_error: 30,
        };
        assert_eq!(e.lower_bound(), 0);
        assert!(e.contains(0));
    }

    #[test]
    fn exact_estimate_is_tight() {
        let e = Estimate::exact(7);
        assert!(e.contains(7));
        assert!(!e.contains(6) && !e.contains(8));
    }

    #[test]
    fn trait_object_usage() {
        let mut s: Box<dyn Sketch<u64>> = Box::<Exact>::default();
        s.insert(&1, 5);
        s.insert_one(&1);
        assert_eq!(s.query(&1), 6);
        assert_eq!(s.query(&2), 0);
        assert_eq!(s.name(), "Exact");
        assert_eq!(s.memory_bytes(), 16);
    }

    #[test]
    fn concurrent_summary_default_ingest_is_sequential() {
        use std::sync::Mutex;

        #[derive(Default)]
        struct SharedExact(Mutex<HashMap<u64, u64>>);
        impl ConcurrentSummary<u64> for SharedExact {
            fn insert_concurrent(&self, key: &u64, value: u64) {
                *self.0.lock().unwrap().entry(*key).or_insert(0) += value;
            }
            fn query_concurrent(&self, key: &u64) -> u64 {
                self.0.lock().unwrap().get(key).copied().unwrap_or(0)
            }
        }

        let s = SharedExact::default();
        let items: Vec<(u64, u64)> = (0..100).map(|i| (i % 10, 2)).collect();
        assert_eq!(s.ingest_parallel(&items, 4), 100);
        for k in 0..10u64 {
            assert_eq!(s.query_concurrent(&k), 20);
        }
        // object safety: the trait must box
        let boxed: Box<dyn ConcurrentSummary<u64>> = Box::new(SharedExact::default());
        boxed.insert_concurrent(&1, 3);
        assert_eq!(boxed.query_concurrent(&1), 3);
    }

    #[test]
    fn certified_weight_interval_logic() {
        let w = CertifiedWeight {
            estimate: 50,
            lo: 40,
            hi: 55,
            slack: 5,
        };
        assert_eq!(w.lower_bound(), 40);
        assert_eq!(w.upper_bound(), 60);
        assert!(w.contains(40) && w.contains(60) && !w.contains(39) && !w.contains(61));
        assert_eq!(w.width(), 20);
        assert!(!w.is_vacuous());
        assert_eq!(CertifiedWeight::zero(), CertifiedWeight::exact(0));
        let vac = CertifiedWeight {
            estimate: 0,
            lo: 0,
            hi: u64::MAX,
            slack: 0,
        };
        assert!(vac.is_vacuous() && vac.contains(u64::MAX));
        // saturating slack also reads as vacuous
        let sat = CertifiedWeight {
            estimate: 1,
            lo: 1,
            hi: u64::MAX - 3,
            slack: 100,
        };
        assert!(sat.is_vacuous());
    }

    #[test]
    fn keyset_explicit_normalizes() {
        let s = KeySet::explicit(vec![9, 1, 5, 5, 1]);
        assert_eq!(s, KeySet::explicit(vec![1, 5, 9]));
        assert_eq!(s.cardinality(), Some(3));
        assert!(!s.is_empty());
        assert!(s.contains(5) && !s.contains(2));
        assert_eq!(s.enumerate(10), Some(vec![1, 5, 9]));
        assert_eq!(s.enumerate(2), None);
        let empty = KeySet::explicit(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.cardinality(), Some(0));
        assert_eq!(empty.enumerate(0), Some(vec![]));
    }

    #[test]
    fn keyset_range_edges() {
        let r = KeySet::range(3, 3);
        assert_eq!(r.cardinality(), Some(1));
        assert_eq!(r.enumerate(4), Some(vec![3]));
        let top = KeySet::range(u64::MAX - 1, u64::MAX);
        assert_eq!(top.cardinality(), Some(2));
        assert!(top.contains(u64::MAX));
        // the full universe does not fit a u64 cardinality
        let all = KeySet::range(0, u64::MAX);
        assert_eq!(all.cardinality(), None);
        assert_eq!(all.enumerate(usize::MAX), None);
        assert!(all.contains(0) && all.contains(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "start <= end")]
    fn keyset_range_rejects_inverted() {
        let _ = KeySet::range(5, 4);
    }

    #[test]
    fn keyset_mask_semantics() {
        // pattern bits outside the mask are stripped
        assert_eq!(KeySet::mask(0xFF, 0x0F), KeySet::mask(0x0F, 0x0F));
        // constrain all but the low 4 bits: 16 members
        let m = KeySet::mask(0b1010_0000, !0b1111u64);
        assert!(m.contains(0b1010_0101) && !m.contains(0b1011_0000));
        assert_eq!(m.cardinality(), Some(16));
        let members = m.enumerate(16).unwrap();
        assert_eq!(members.len(), 16);
        assert!(members.windows(2).all(|w| w[0] < w[1]), "ascending order");
        assert!(members.iter().all(|&k| m.contains(k)));
        // exact-key and universe masks
        assert_eq!(KeySet::mask(42, u64::MAX).cardinality(), Some(1));
        assert_eq!(KeySet::mask(42, u64::MAX).enumerate(1), Some(vec![42]));
        assert_eq!(KeySet::mask(0, 0).cardinality(), None);
        assert!(KeySet::mask(0, 0).contains(u64::MAX));
    }

    #[test]
    fn keyset_prefix_matches_cidr_intuition() {
        // 64-bit analogue of 10.0.0.0/8 over the low 32 bits:
        // 32 zero bits of "padding" + 8 prefix bits
        let p = KeySet::prefix(0x0A00_0000, 40);
        assert!(p.contains(0x0A33_4455));
        assert!(!p.contains(0x0B00_0000));
        assert!(!p.contains(0x1_0A00_0000)); // padding bits differ
        assert_eq!(p.cardinality(), Some(1 << 24));
        assert_eq!(KeySet::prefix(7, 64).enumerate(1), Some(vec![7]));
        assert_eq!(KeySet::prefix(7, 0).cardinality(), None);
    }

    #[test]
    fn subpopulation_weight_is_object_safe() {
        struct Zero;
        impl SubpopulationWeight for Zero {
            fn subpopulation_weight(&self, set: &KeySet) -> CertifiedWeight {
                if set.is_empty() {
                    CertifiedWeight::zero()
                } else {
                    CertifiedWeight::exact(0)
                }
            }
        }
        let boxed: Box<dyn SubpopulationWeight> = Box::new(Zero);
        let w = boxed.subpopulation_weight(&KeySet::explicit(vec![]));
        assert_eq!(w, CertifiedWeight::zero());
    }

    #[test]
    fn error_sensing_consistency() {
        let mut s = Exact::default();
        for k in 0u64..100 {
            s.insert(&k, k);
        }
        for k in 0u64..100 {
            let est = s.query_with_error(&k);
            assert_eq!(est.value, s.query(&k));
            assert!(est.contains(k));
        }
    }
}
