//! Lemma 4 as a verified computation: the `S_4` block-path oracle.
//!
//! Every 4-vertex of the `R^4` is isomorphic to `S_4` via its local
//! coordinates ([`star_graph::Pattern::to_local`]), so block-path queries
//! reduce to queries on one canonical 24-vertex graph:
//!
//! > given entry `u`, exit `v` and at most one faulty vertex `f`, find a
//! > healthy `u`-`v` path through `4! - 2·|f|` vertices.
//!
//! Lemma 4 (checked exhaustively in the tests, replacing the paper's
//! OCR-damaged path tables) guarantees such a path exists whenever `u, v`
//! have opposite parity and are healthy — for the faulty case the paper
//! states it for adjacent `u, v`, and the exhaustive sweep shows it in fact
//! holds for **all** opposite-parity healthy pairs, which gives the
//! assembler slack.
//!
//! ## One block path: table or search
//!
//! Every block-path query — the expander's per-block fill, a repair, the
//! public [`block_path`] — goes through one rule, which yields the path
//! as local `S_4` ranks: the expander turns them into step dimensions,
//! [`block_path`] lifts them into vertices. A block with `k` vertex
//! faults reads the memo table below iff `k <= 1`, no faulty edge lies
//! inside it, and the target is `24 - 2k`. Anything else (a second fault
//! in one block, a faulty edge, the loss-4 baseline's 20-vertex target)
//! runs one uncached exact search on the block's local `S_4`, with the
//! faulty vertices blocked and the in-block faulty edges removed. The
//! expander hands in each block's fault census from its seam plan, and
//! the search is kept out of line, so the table branch stays a few table
//! reads per block.
//!
//! ## Dense lock-free memo table
//!
//! The canonical query space is tiny and fixed: `24` entries × `24` exits
//! × `25` fault choices (24 vertices plus "no fault") = [`TABLE_SLOTS`]
//! `= 14,400` keys. Results live in a dense array indexed by
//! `(entry · 24 + exit) · 25 + fault`, one `OnceLock` per slot:
//!
//! * **reads are lock-free** — a warm query is one atomic load plus a
//!   slice borrow (no map lookup, no lock, no clone);
//! * **each key is computed exactly once** — concurrent cold misses on
//!   the same key race into the slot's `OnceLock`; one thread runs the
//!   search, the others block briefly and observe its result (the old
//!   `RwLock<HashMap>` let both run the identical DFS and the second
//!   insert clobbered the first, double-counting `misses`);
//! * **[`warm`] precomputes the whole table** (in parallel via
//!   `star-pool`), after which every block of every subsequent expansion
//!   is answered in O(1) — batch sweeps call it once up front.
//!
//! Lifetime hit/miss/entry counters (`cache_stats`) feed the oracle
//! figures of `embed_with_report`; warming is counted separately (`oracle.warm`) so `misses` keeps
//! meaning "queries that ran the exact search".

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use star_fault::FaultSet;
use star_graph::smallgraph::SmallGraph;
use star_graph::Pattern;
use star_perm::Perm;

use crate::blockctx::BlockCtx;

/// Vertices of a healthy block traversal: `4! = 24`.
pub const HEALTHY_BLOCK_VERTICES: usize = 24;

/// Vertices of a one-fault block traversal: `4! - 2 = 22` (Lemma 4).
pub const FAULTY_BLOCK_VERTICES: usize = 22;

/// Size of the dense canonical-query table: `24 · 24 · 25` slots, one per
/// `(entry, exit, fault-or-none)` triple.
pub const TABLE_SLOTS: usize = 24 * 24 * 25;

/// Local-rank sentinel meaning "no fault in the block".
const NO_FAULT: u8 = 24;

/// Bounded consistency retries in [`OracleTable::stats`]: after this many
/// passes without observing a quiet pair of reads, the last reading is
/// returned as-is.
const STATS_MAX_PASSES: usize = 8;

/// Blocks allotted to each worker when [`warm`] fans out over the table.
const WARM_SLOTS_PER_WORKER: usize = 600;

/// A consistent reading of the canonical-query memo's lifetime counters.
/// Callers diff two readings to attribute cost to one embed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Memoized queries answered from the table.
    pub hits: u64,
    /// Queries that ran the exact search.
    pub misses: u64,
    /// Distinct canonical queries currently memoized (gauge; bounded by
    /// [`TABLE_SLOTS`]; [`warm`]ed entries count here but not in
    /// `misses`).
    pub entries: usize,
}

/// One memo slot: lazily initialized, immutable once set. `None` means
/// "no such path exists" — a memoized answer, not an empty slot.
type Slot = OnceLock<Option<Box<[u8]>>>;

/// The dense canonical-`S_4` memo table. The embedder uses one
/// process-global instance (see the free functions [`warm`],
/// [`block_path`]); benchmarks construct private instances to
/// measure cold-table behavior without resetting global state.
pub struct OracleTable {
    graph: SmallGraph,
    /// `TABLE_SLOTS` once-cells: `None` result = "no such path" (e.g.
    /// same-parity endpoints), memoized like any other answer.
    slots: Box<[Slot]>,
    /// Initialized-slot count (gauge backing `CacheStats::entries`).
    entries: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Mirrors of `hits`/`misses` in the star-obs registry (`oracle.hit`,
    /// `oracle.miss`), the canonical-search latency histogram
    /// (`oracle.build`) and the precompute counter (`oracle.warm`),
    /// resolved once per table.
    obs_hit: star_obs::Counter,
    obs_miss: star_obs::Counter,
    obs_build: star_obs::Hist,
    obs_warm: star_obs::Counter,
}

impl Default for OracleTable {
    fn default() -> Self {
        Self::new()
    }
}

impl OracleTable {
    /// An empty (cold) table over the canonical `S_4`.
    pub fn new() -> Self {
        OracleTable {
            graph: SmallGraph::from_star(4),
            slots: (0..TABLE_SLOTS).map(|_| OnceLock::new()).collect(),
            entries: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            obs_hit: star_obs::counter("oracle.hit"),
            obs_miss: star_obs::counter("oracle.miss"),
            obs_build: star_obs::histogram("oracle.build"),
            obs_warm: star_obs::counter("oracle.warm"),
        }
    }

    fn index(entry: u8, exit: u8, fault: u8) -> usize {
        debug_assert!(entry < 24 && exit < 24 && fault <= NO_FAULT);
        (entry as usize * 24 + exit as usize) * 25 + fault as usize
    }

    /// Canonical query: maximum-length healthy path from local rank
    /// `entry` to `exit` avoiding `fault` (`24 - 2·|f|` vertices), or
    /// `None` if no such path exists. Lock-free once the slot is filled;
    /// a cold slot is computed by exactly one caller.
    pub fn query(&self, entry: u8, exit: u8, fault: Option<u8>) -> Option<&[u8]> {
        let slot = &self.slots[Self::index(entry, exit, fault.unwrap_or(NO_FAULT))];
        if let Some(cached) = slot.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.obs_hit.incr(1);
            return cached.as_deref();
        }
        let mut computed_here = false;
        let value = slot.get_or_init(|| {
            computed_here = true;
            self.entries.fetch_add(1, Ordering::Relaxed);
            self.compute(entry, exit, fault)
        });
        if computed_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.obs_miss.incr(1);
            if star_obs::flightrec::enabled() {
                star_obs::flightrec::record(
                    "oracle.miss",
                    format!("{entry}->{exit}"),
                    &[(
                        "fault",
                        star_obs::FieldValue::U64(u64::from(fault.unwrap_or(NO_FAULT))),
                    )],
                );
            }
        } else {
            // Lost the init race: another thread ran the search; this
            // query was served from the table like any other hit.
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.obs_hit.incr(1);
        }
        value.as_deref()
    }

    /// The exact search behind a cold slot.
    fn compute(&self, entry: u8, exit: u8, fault: Option<u8>) -> Option<Box<[u8]>> {
        // Parity precheck: both targets (24 and 22) are even, and a path
        // with an even vertex count in a bipartite graph must connect
        // opposite sides — so same-parity pairs (and degenerate queries
        // touching the fault) need no search. This keeps full-table
        // warming cheap: infeasible slots short-circuit.
        let pe = Perm::unrank(4, entry as u32).expect("rank < 24");
        let px = Perm::unrank(4, exit as u32).expect("rank < 24");
        if pe.parity() == px.parity() || fault == Some(entry) || fault == Some(exit) {
            return None;
        }
        let mut blocked = vec![false; 24];
        let mut target = HEALTHY_BLOCK_VERTICES;
        if let Some(f) = fault {
            blocked[f as usize] = true;
            target = FAULTY_BLOCK_VERTICES;
        }
        let (found, _) = self.obs_build.time(|| {
            self.graph
                .path_with_exact_count(entry as u16, exit as u16, &blocked, target, u64::MAX)
        });
        found.map(|p| p.into_iter().map(|x| x as u8).collect())
    }

    /// Precomputes every slot of the table (idempotent; fans out over the
    /// shared `star-pool`). Returns the number of slots computed by this
    /// call — already-filled slots are skipped and neither warming nor
    /// skipping moves the hit/miss counters, only `oracle.warm`.
    pub fn warm(&self) -> usize {
        let chunks: Vec<usize> = (0..TABLE_SLOTS.div_ceil(WARM_SLOTS_PER_WORKER)).collect();
        let filled: usize = star_pool::sweep(chunks, |&c| {
            let mut filled = 0usize;
            let lo = c * WARM_SLOTS_PER_WORKER;
            for idx in lo..(lo + WARM_SLOTS_PER_WORKER).min(TABLE_SLOTS) {
                let fault = (idx % 25) as u8;
                let exit = (idx / 25 % 24) as u8;
                let entry = (idx / (25 * 24)) as u8;
                let mut computed_here = false;
                self.slots[idx].get_or_init(|| {
                    computed_here = true;
                    self.entries.fetch_add(1, Ordering::Relaxed);
                    self.compute(entry, exit, (fault < NO_FAULT).then_some(fault))
                });
                filled += computed_here as usize;
            }
            filled
        })
        .into_iter()
        .sum();
        self.obs_warm.incr(filled as u64);
        filled
    }

    /// Number of memoized canonical queries.
    pub fn entries(&self) -> usize {
        self.entries.load(Ordering::Acquire)
    }

    /// Lifetime cache statistics, read as one consistent snapshot when
    /// possible: the counters are re-read until a pass observes no
    /// concurrent movement, so `hits` and `misses` belong to the same
    /// instant. Retries are **bounded** — under sustained concurrent
    /// traffic a quiet pair may never occur, so after
    /// `STATS_MAX_PASSES` the last reading is returned as-is (each
    /// counter is still individually monotone; the pair may be offset by
    /// a few in-flight queries).
    pub fn stats(&self) -> CacheStats {
        let mut hits = self.hits.load(Ordering::Acquire);
        let mut misses = self.misses.load(Ordering::Acquire);
        let mut entries = self.entries.load(Ordering::Acquire);
        for _ in 0..STATS_MAX_PASSES {
            let h = self.hits.load(Ordering::Acquire);
            let m = self.misses.load(Ordering::Acquire);
            if h == hits && m == misses {
                break;
            }
            hits = h;
            misses = m;
            entries = self.entries.load(Ordering::Acquire);
        }
        CacheStats {
            hits,
            misses,
            entries,
        }
    }
}

/// Lifetime cache statistics of the global canonical-query table (see
/// [`OracleTable::stats`] for the consistency contract).
pub(crate) fn cache_stats() -> CacheStats {
    state().stats()
}

/// Number of memoized canonical queries (the `entries` gauge alone).
pub fn entries() -> usize {
    state().entries()
}

/// Precomputes the full global table (all [`TABLE_SLOTS`] canonical
/// queries, in parallel); afterwards every block-path query in the
/// process is a lock-free O(1) read. Idempotent; returns the number of
/// slots this call computed. Batch sweeps ([`crate::embed_many`]) warm
/// automatically; one-shot embeds are usually better off paying only for
/// the handful of keys they touch.
pub fn warm() -> usize {
    state().warm()
}

fn state() -> &'static OracleTable {
    static STATE: OnceLock<OracleTable> = OnceLock::new();
    STATE.get_or_init(OracleTable::new)
}

/// A block's fault census: the facts the table-or-search rule reads.
/// The expander computes it once per block in its seam plan.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlockCensus {
    /// Vertex faults inside the block (0 or 1 under (P1)).
    pub(crate) count: usize,
    /// The first of them: the block's only fault under (P1).
    pub(crate) first: Option<Perm>,
    /// Whether a faulty edge lies inside the block (mixed faults).
    pub(crate) edge_faulty: bool,
}

impl BlockCensus {
    /// Scans the (short) fault lists for members of `block`; allocates
    /// only for a block that holds a faulty edge.
    pub(crate) fn of(block: &Pattern, faults: &FaultSet) -> Self {
        let mut census = BlockCensus::default();
        for f in faults.vertices() {
            if block.contains(f) {
                census.first.get_or_insert(*f);
                census.count += 1;
            }
        }
        census.edge_faulty = !faults.edge_faults_within(block).is_empty();
        census
    }
}

/// Lemma 4 on one block: a path through `block` (an embedded `S_4`) from
/// `entry` to `exit` over exactly `target` vertices, avoiding the vertex
/// faults inside the block and the faulty edges between its members.
///
/// The paper's target is `24 - 2k` for a block with `k` vertex faults.
/// Such queries with `k <= 1` and no faulty edge in the block read the
/// memo table; every other query runs the exact search (the rule in the
/// [module docs](self)). Returns `None` when no such path exists, when an
/// endpoint lies outside the block, when `block` is not a 4-vertex, when
/// `faults` has another dimension, or when `target` is outside `1..=24`;
/// it does not allocate for the invalid inputs.
pub fn block_path(
    block: &Pattern,
    entry: &Perm,
    exit: &Perm,
    faults: &FaultSet,
    target: usize,
) -> Option<Vec<Perm>> {
    if !(1..=HEALTHY_BLOCK_VERTICES).contains(&target)
        || block.r() != 4
        || faults.n() != block.n()
        || !block.contains(entry)
        || !block.contains(exit)
    {
        return None;
    }
    let ctx = BlockCtx::new(block);
    let census = BlockCensus::of(block, faults);
    let ranks = path_ranks(&ctx, &census, faults, entry, exit, target)?;
    Some(ranks.iter().map(|&r| ctx.lift_rank(r)).collect())
}

/// The one Lemma-4 rule, where the module's table-or-search choice is
/// made: the local ranks of a `len`-vertex path from `x` to `y` through
/// `ctx`'s block, borrowed from the table or owned from a search. `x`
/// and `y` must be members of the block. `None` when no such path
/// exists.
#[inline]
pub(crate) fn path_ranks(
    ctx: &BlockCtx,
    census: &BlockCensus,
    faults: &FaultSet,
    x: &Perm,
    y: &Perm,
    len: usize,
) -> Option<Cow<'static, [u8]>> {
    let (entry, exit) = (ctx.local_rank(x), ctx.local_rank(y));
    let ranks = if census.count <= 1
        && !census.edge_faulty
        && len == HEALTHY_BLOCK_VERTICES - 2 * census.count
    {
        Cow::Borrowed(state().query(entry, exit, census.first.map(|f| ctx.local_rank(&f)))?)
    } else {
        Cow::Owned(search(ctx, faults, entry, exit, len)?)
    };
    (ranks.len() == len).then_some(ranks)
}

/// The exact search behind every query off the table: more than one
/// vertex fault, a faulty edge inside the block, or a target other than
/// `24 - 2k`. Uncached, and kept out of line so that it does not weigh
/// on the table branch of the per-block fill.
#[cold]
#[inline(never)]
fn search(
    ctx: &BlockCtx,
    faults: &FaultSet,
    entry: u8,
    exit: u8,
    target: usize,
) -> Option<Vec<u8>> {
    let mut blocked = [false; HEALTHY_BLOCK_VERTICES];
    for f in faults.vertex_faults_in(ctx.block()) {
        blocked[ctx.local_rank(&f) as usize] = true;
    }
    let (found, _) = local_s4(ctx, faults).path_with_exact_count(
        u16::from(entry),
        u16::from(exit),
        &blocked,
        target,
        u64::MAX,
    );
    Some(found?.into_iter().map(|r| r as u8).collect())
}

/// `S_4` in the local ranks of `ctx`'s block, minus the faulty edges
/// between its members. With no such edge this is the canonical graph,
/// adjacency order included, so an exact search returns the same path on
/// either.
pub(crate) fn local_s4(ctx: &BlockCtx, faults: &FaultSet) -> SmallGraph {
    let base = &state().graph;
    let mut g = SmallGraph::new(HEALTHY_BLOCK_VERTICES);
    for u in 0..HEALTHY_BLOCK_VERTICES as u16 {
        let pu = ctx.lift_rank(u as u8);
        for &v in base.neighbors(u) {
            if v > u && !faults.is_edge_faulty(&pu, &ctx.lift_rank(v as u8)) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_perm::Parity;

    fn block_in_s6() -> Pattern {
        Pattern::from_spec(&[0, 3, 0, 0, 6, 0]).unwrap()
    }

    #[test]
    fn healthy_block_hamiltonian_between_opposite_parity() {
        let block = block_in_s6();
        let members: Vec<Perm> = block.vertices().collect();
        let u = members[0];
        let v = members
            .iter()
            .find(|v| v.parity() != u.parity())
            .copied()
            .unwrap();
        let path = block_path(&block, &u, &v, &FaultSet::empty(6), 24).unwrap();
        assert_eq!(path.len(), 24);
        assert_eq!(path[0], u);
        assert_eq!(path[23], v);
        for w in path.windows(2) {
            assert!(w[0].is_adjacent(&w[1]));
        }
        for p in &path {
            assert!(block.contains(p));
        }
    }

    #[test]
    fn same_parity_endpoints_fail() {
        let block = block_in_s6();
        let members: Vec<Perm> = block.vertices().collect();
        let u = members[0];
        let v = members
            .iter()
            .skip(1)
            .find(|v| v.parity() == u.parity())
            .copied()
            .unwrap();
        assert!(block_path(&block, &u, &v, &FaultSet::empty(6), 24).is_none());
    }

    #[test]
    fn lemma_4_exhaustive_on_canonical_s4() {
        // The paper's Lemma 4, strengthened: for every fault f and every
        // healthy opposite-parity pair (u, v), a 22-vertex healthy path
        // exists. 24 * (23 * 11 ... ) ~ 3000 queries, all memoized.
        let block = Pattern::full(4);
        for f_rank in 0..24u32 {
            let f = Perm::unrank(4, f_rank).unwrap();
            let faults = FaultSet::from_vertices(4, [f]).unwrap();
            for u_rank in 0..24u32 {
                let u = Perm::unrank(4, u_rank).unwrap();
                if u == f {
                    continue;
                }
                for v_rank in (u_rank + 1)..24u32 {
                    let v = Perm::unrank(4, v_rank).unwrap();
                    if v == f || v.parity() == u.parity() {
                        continue;
                    }
                    let path = block_path(&block, &u, &v, &faults, 22)
                        .unwrap_or_else(|| panic!("no 22-path for u={u} v={v} f={f}"));
                    assert_eq!(path.len(), 22);
                    assert!(!path.contains(&f));
                    for w in path.windows(2) {
                        assert!(w[0].is_adjacent(&w[1]));
                    }
                }
            }
        }
    }

    #[test]
    fn parity_necessity() {
        // A 22-vertex path has odd edge-length, so endpoints must differ in
        // parity; the oracle refuses same-parity queries.
        let block = Pattern::full(4);
        let f = Perm::from_digits(4, 4321);
        let faults = FaultSet::from_vertices(4, [f]).unwrap();
        let u = Perm::identity(4);
        let same = Perm::from_digits(4, 2314); // even, like the identity
        assert_eq!(u.parity(), Parity::Even);
        assert_eq!(same.parity(), Parity::Even);
        assert!(block_path(&block, &u, &same, &faults, 22).is_none());
    }

    #[test]
    fn faulty_edges_inside_the_block_are_dodged() {
        let block = Pattern::full(4);
        let u = Perm::identity(4);
        let v = u.star_move(2);
        // Fault the direct edge u-v; a Hamiltonian path must dodge it.
        let e = star_graph::Edge::new(u, v).unwrap();
        let faults = FaultSet::from_edges(4, [e]).unwrap();
        let path = block_path(&block, &u, &v, &faults, 24).unwrap();
        assert_eq!(path.len(), 24);
        for w in path.windows(2) {
            assert!(w[0].is_adjacent(&w[1]));
            assert!(!faults.is_edge_faulty(&w[0], &w[1]));
        }
    }

    #[test]
    fn off_table_queries_run_the_exact_search() {
        let block = block_in_s6();
        let members: Vec<Perm> = block.vertices().collect();
        let (u, v) = (members[0], members[1]);
        assert_ne!(u.parity(), v.parity());
        // Two faults in one block (beyond the paper's budget): 20 vertices.
        let two = FaultSet::from_vertices(6, [members[5], members[9]]).unwrap();
        let path = block_path(&block, &u, &v, &two, 20).unwrap();
        assert_eq!(path.len(), 20);
        assert!(!path.contains(&members[5]) && !path.contains(&members[9]));
        // A healthy block at the table's target reads the table; any other
        // target searches, and the table's answer is the search's.
        let none = FaultSet::empty(6);
        let table = block_path(&block, &u, &v, &none, 24).unwrap();
        let ctx = BlockCtx::new(&block);
        let searched = search(&ctx, &none, ctx.local_rank(&u), ctx.local_rank(&v), 24).unwrap();
        let lifted: Vec<Perm> = searched.iter().map(|&r| ctx.lift_rank(r)).collect();
        assert_eq!(table, lifted);
        let short = block_path(&block, &u, &v, &none, 12).unwrap();
        assert_eq!((short.len(), short[0], short[11]), (12, u, v));
        for w in short.windows(2) {
            assert!(w[0].is_adjacent(&w[1]));
        }
    }

    #[test]
    fn local_s4_without_faulty_edges_is_the_canonical_graph() {
        let canonical = SmallGraph::from_star(4);
        for block in [Pattern::full(4), block_in_s6()] {
            let g = local_s4(&BlockCtx::new(&block), &FaultSet::empty(block.n()));
            for u in 0..24u16 {
                assert_eq!(g.neighbors(u), canonical.neighbors(u), "{block} vertex {u}");
            }
        }
    }

    #[test]
    fn concurrent_cold_misses_compute_exactly_once() {
        // Regression for the duplicate-search race: with the old
        // RwLock<HashMap> memo, N threads missing the same cold key each
        // ran the DFS and each bumped `misses`. The dense once-cell table
        // must admit exactly one compute per canonical key.
        let table = OracleTable::new();
        let hit0 = star_obs::counter("oracle.hit").get();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    // Identity (rank 0) to its 0<->1 swap (rank 1): a
                    // healthy Hamiltonian query on a private cold table.
                    let p = table.query(0, 1, None).expect("opposite parity");
                    assert_eq!(p.len(), HEALTHY_BLOCK_VERTICES);
                });
            }
        });
        let stats = table.stats();
        assert_eq!(stats.misses, 1, "exactly one thread may run the search");
        assert_eq!(stats.hits, 7, "the other callers are table hits");
        assert_eq!(stats.entries, 1);
        // The obs mirror moved with them (other tests share the global
        // counter, so check the floor only).
        assert!(star_obs::counter("oracle.hit").get() >= hit0 + 7);
    }

    #[test]
    fn warm_fills_the_whole_table_once() {
        let table = OracleTable::new();
        let first = table.warm();
        assert_eq!(first, TABLE_SLOTS);
        assert_eq!(table.entries(), TABLE_SLOTS);
        // Idempotent: nothing left to compute, counters untouched.
        assert_eq!(table.warm(), 0);
        let stats = table.stats();
        assert_eq!(stats.misses, 0, "warming is not a miss");
        assert_eq!(stats.hits, 0, "warming is not a hit");
        // A post-warm query is a pure table read.
        assert!(table.query(0, 1, None).is_some());
        assert_eq!(
            table.stats(),
            CacheStats {
                hits: 1,
                misses: 0,
                entries: TABLE_SLOTS
            }
        );
    }

    #[test]
    fn warmed_table_agrees_with_lazy_queries() {
        // Same answers whether a slot was warmed or computed on demand.
        let warmed = OracleTable::new();
        warmed.warm();
        let lazy = OracleTable::new();
        for entry in 0..24u8 {
            for exit in 0..24u8 {
                for fault in [None, Some(5u8), Some(23u8)] {
                    assert_eq!(
                        warmed.query(entry, exit, fault),
                        lazy.query(entry, exit, fault),
                        "entry={entry} exit={exit} fault={fault:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_bounded_under_sustained_hammer() {
        // Regression for the unbounded consistency loop: 4 threads keep
        // the counters moving while the main thread snapshots; every call
        // must return (bounded retries) with monotone counters.
        let table = OracleTable::new();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let table = &table;
                let stop = &stop;
                scope.spawn(move || {
                    let mut i = t as u32;
                    while !stop.load(Ordering::Relaxed) {
                        i = i.wrapping_mul(0x9E37_79B9).wrapping_add(1);
                        table.query((i % 24) as u8, (i / 24 % 24) as u8, None);
                    }
                });
            }
            let mut prev = table.stats();
            for _ in 0..5_000 {
                let cur = table.stats();
                assert!(cur.hits >= prev.hits, "hits went backward");
                assert!(cur.misses >= prev.misses, "misses went backward");
                assert!(cur.entries <= TABLE_SLOTS);
                prev = cur;
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Quiescent: reading is exact and every distinct key was computed
        // at most once.
        assert!(table.stats().misses <= 24 * 24);
    }
}
