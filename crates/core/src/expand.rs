//! Lemma 7: expanding the `R^4` into the vertex-level healthy ring.
//!
//! Each 4-vertex `A_i` of the `R^4` is partitioned (at a spare position)
//! into four 3-vertices — 6-cycles forming a `K_4`. The paper's geometry
//! pins everything down:
//!
//! * by Lemma 1 + (P2), exactly one 3-vertex of `A_i` is not connected to
//!   `A_{i-1}` and a *different* one is not connected to `A_{i+1}`, so two
//!   are connected to both neighbors;
//! * a **faulty** `A_i` uses a single healthy, both-connected 3-vertex `Q`
//!   as entry and exit (`X_i = Y_i = Q`) and is traversed by a Lemma-4 path
//!   (22 of its 24 vertices);
//! * a **healthy** `A_i` gets distinct entry/exit 3-vertices via shared
//!   seam symbols and is traversed by a Hamiltonian path (24 vertices);
//! * at the vertex level, Lemma 5 (each 3-vertex has exactly two vertices
//!   connected to a given neighbor, antipodal on its 6-cycle — hence of
//!   opposite parity) makes the walk deterministic: the entry vertex is
//!   forced by the predecessor's exit, and of the two exit candidates
//!   exactly one has the parity an even-size block traversal demands.
//!   Lemma 6 (+ bipartiteness) then guarantees the entry/exit pair of a
//!   pass-through 3-vertex is adjacent, which is Lemma 4's precondition.
//!
//! The only residual freedom is the first entry vertex `x_0` (two
//! choices); the assembler tries both before reporting failure (which the
//! theory rules out under (P1)-(P3)).
//!
//! ## Flat-arena materialization
//!
//! The endpoint pass fixes every block's path length up front (24
//! healthy, `24 - loss` faulty), so the ring is laid out CSR-style: one
//! prefix-sum offset table over the blocks and a single flat `Vec<Perm>`
//! arena. Each block writes its oracle path straight into its own slice
//! through an allocation-free [`crate::blockctx::BlockCtx`] lift —
//! replacing the old per-block `Vec<Perm>` + concatenation, which paid
//! one allocation per block *and* one heap-built vertex for each of the
//! ~360k lifts at `n = 9`. Blocks are independent given the endpoints,
//! so large rings fan the arena fill out over `star-pool` in contiguous
//! chunks of whole blocks; the bytes written are identical for every
//! worker count. The segment-returning path ([`expand_structured`], kept
//! for the repair machinery) shares the endpoint plan and per-block fill,
//! so the two representations cannot drift.

use star_fault::FaultSet;
use star_graph::{Pattern, SuperRing};
use star_perm::{Parity, Perm, MAX_N};

use crate::blockctx::BlockCtx;
use crate::oracle;
use crate::EmbedError;

/// One block's slice of the assembled ring: the 4-vertex, its entry/exit
/// vertices, and the concrete path between them. The maintained-ring
/// repair machinery ([`crate::repair`]) keeps these around so a new fault
/// can be fixed by recomputing a single 24-vertex block.
#[derive(Debug, Clone)]
pub struct BlockSegment {
    /// The 4-vertex this segment traverses.
    pub block: Pattern,
    /// First vertex of the segment (adjacent to the previous segment's
    /// exit).
    pub entry: Perm,
    /// Last vertex of the segment (adjacent to the next segment's entry).
    pub exit: Perm,
    /// The vertex path from `entry` to `exit` (24 vertices healthy, 22 with
    /// one fault).
    pub path: Vec<Perm>,
}

/// Per-block plan produced by the seam pass.
struct BlockPlan {
    /// The 4-vertex.
    block: Pattern,
    /// Entry 3-vertex (sub-pattern at the spare position).
    entry: Pattern,
    /// Exit 3-vertex.
    exit: Pattern,
    /// `A_{i+1}`'s symbol at `dif(A_i, A_{i+1})` — the first symbol a
    /// member of `A_i` must hold to cross forward.
    cross_symbol: u8,
    /// Position where `A_i` and `A_{i+1}` differ.
    cross_dif: usize,
    /// Vertex faults inside the block (0 or 1 under (P1); more only in
    /// out-of-invariant inputs, which take the uncached slow path).
    fault_count: usize,
    /// The block's vertex fault when `fault_count == 1`.
    fault: Option<Perm>,
    /// Whether any faulty edge lies fully inside the block (mixed
    /// extension); forces the uncached edge-avoiding search.
    edge_faulty: bool,
}

impl BlockPlan {
    /// Vertices the block's traversal covers under the given per-fault
    /// loss — fixed by the plan alone, which is what lets the ring be
    /// laid out flat before any path is materialized.
    #[inline]
    fn path_len(&self, faulty_block_loss: usize) -> usize {
        oracle::HEALTHY_BLOCK_VERTICES - faulty_block_loss * self.fault_count
    }
}

/// Expands an `R^4` with properties (P1)-(P3) into the healthy ring of
/// length `sum(24 or 22 per block) = n! - 2|F_v|`.
///
/// `spare_pos` must be a free position (other than 0) of the ring's
/// 4-vertices — one of the three positions Lemma 2 left unpinned.
pub fn expand(
    r4: &SuperRing,
    faults: &FaultSet,
    spare_pos: usize,
) -> Result<Vec<Perm>, EmbedError> {
    expand_with_salt(r4, faults, spare_pos, 0)
}

/// [`expand`] with a seam-choice `salt`: rotates every seam's candidate
/// list, yielding a different (still valid) set of entry/exit 3-vertices.
/// The mixed vertex+edge embedder retries with different salts when a
/// forced seam edge happens to be faulty.
pub fn expand_with_salt(
    r4: &SuperRing,
    faults: &FaultSet,
    spare_pos: usize,
    salt: usize,
) -> Result<Vec<Perm>, EmbedError> {
    expand_with_block_loss(r4, faults, spare_pos, salt, 2)
}

/// [`expand_with_salt`] with a configurable per-faulty-block vertex loss.
///
/// The paper's construction loses exactly **2** vertices per faulty block
/// (Lemma 4). Passing `faulty_block_loss = 4` reproduces the coarser
/// Tseng-style traversal (drop the fault plus a 3-vertex's worth of slack),
/// which is what the `n! - 4|F_v|` prior bound models — used by the
/// baseline crate and the A1 ablation.
///
/// This is the hot entry point: it materializes the ring directly into
/// one flat arena (no per-block buffers). [`expand_structured`] is the
/// segment-returning sibling for callers that need the decomposition.
pub fn expand_with_block_loss(
    r4: &SuperRing,
    faults: &FaultSet,
    spare_pos: usize,
    salt: usize,
    faulty_block_loss: usize,
) -> Result<Vec<Perm>, EmbedError> {
    debug_assert_eq!(r4.r(), 4);
    debug_assert!(faulty_block_loss >= 2 && faulty_block_loss.is_multiple_of(2));
    let plans = plan_blocks(r4, faults, spare_pos, salt)?;
    for (attempt, x0) in entry_candidates(&plans).into_iter().enumerate() {
        let Some(endpoints) = plan_endpoints(&plans, faults, &x0) else {
            continue;
        };
        let Some(ring) = fill_ring(&plans, faults, &endpoints, faulty_block_loss) else {
            continue;
        };
        let healthy = plans.iter().filter(|p| p.fault_count == 0).count();
        record_block_counters(healthy as u64, (plans.len() - healthy) as u64, attempt);
        // Debug builds cross-check the flat arena against the segment
        // path (same endpoints, same oracle), then run the full segment
        // invariants — so any drift between the two representations, or
        // any geometry violation, fails loudly in tests.
        #[cfg(debug_assertions)]
        {
            let segments = make_segments(&plans, faults, &endpoints, faulty_block_loss)
                .expect("segment path must succeed where the flat fill did");
            let concat: Vec<Perm> = segments.iter().flat_map(|s| s.path.clone()).collect();
            debug_assert_eq!(ring, concat, "flat arena drifted from segment path");
            if faulty_block_loss == 2 {
                crate::invariants::debug_assert_segments(r4.n(), faults, &segments, "expand");
            }
        }
        return Ok(ring);
    }
    Err(EmbedError::ExpansionFailed { block: 0 })
}

/// The structured variant: returns the ring as per-block segments (the
/// concatenation of the segment paths is exactly the ring
/// [`expand_with_block_loss`] returns — both share the endpoint plan and
/// per-block fill).
pub fn expand_structured(
    r4: &SuperRing,
    faults: &FaultSet,
    spare_pos: usize,
    salt: usize,
    faulty_block_loss: usize,
) -> Result<Vec<BlockSegment>, EmbedError> {
    debug_assert_eq!(r4.r(), 4);
    debug_assert!(faulty_block_loss >= 2 && faulty_block_loss.is_multiple_of(2));
    let plans = plan_blocks(r4, faults, spare_pos, salt)?;
    for (attempt, x0) in entry_candidates(&plans).into_iter().enumerate() {
        let Some(endpoints) = plan_endpoints(&plans, faults, &x0) else {
            continue;
        };
        let Some(segments) = make_segments(&plans, faults, &endpoints, faulty_block_loss) else {
            continue;
        };
        let healthy = segments
            .iter()
            .filter(|s| s.path.len() == oracle::HEALTHY_BLOCK_VERTICES)
            .count();
        record_block_counters(healthy as u64, (segments.len() - healthy) as u64, attempt);
        if faulty_block_loss == 2 {
            // The paper's regime produces a full ring; the coarser
            // block-loss ablations intentionally skip extra vertices.
            crate::invariants::debug_assert_segments(r4.n(), faults, &segments, "expand");
        }
        return Ok(segments);
    }
    Err(EmbedError::ExpansionFailed { block: 0 })
}

/// Cached star-obs counters for the per-block splice: `expand.block.healthy`,
/// `expand.block.faulty` (blocks traversed by kind) and `expand.retry`
/// (assemblies that needed the second entry candidate).
fn record_block_counters(healthy: u64, faulty: u64, attempt: usize) {
    static COUNTERS: std::sync::OnceLock<(
        star_obs::Counter,
        star_obs::Counter,
        star_obs::Counter,
    )> = std::sync::OnceLock::new();
    let (healthy_ctr, faulty_ctr, retry_ctr) = COUNTERS.get_or_init(|| {
        (
            star_obs::counter("expand.block.healthy"),
            star_obs::counter("expand.block.faulty"),
            star_obs::counter("expand.retry"),
        )
    });
    healthy_ctr.incr(healthy);
    faulty_ctr.incr(faulty);
    retry_ctr.incr(attempt as u64);
}

/// The two vertices of block 0's entry 3-vertex that are adjacent to the
/// last block (i.e. whose first symbol is block `L-1`'s dif symbol toward
/// block 0 — crossing *backward*).
fn entry_candidates(plans: &[BlockPlan]) -> Vec<Perm> {
    let last = plans.len() - 1;
    // Crossing from A_0 back to A_{L-1}: a member of A_0 crosses iff its
    // first symbol equals A_{L-1}'s symbol at the shared dif.
    let d = plans[last].cross_dif;
    let back_symbol = plans[last]
        .block
        .fixed_symbol(d)
        .expect("dif position pinned");
    plans[0]
        .entry
        .vertices()
        .filter(|v| v.first() == back_symbol)
        .collect()
}

/// Chooses entry/exit 3-vertices for every block (the seam-symbol pass).
fn plan_blocks(
    r4: &SuperRing,
    faults: &FaultSet,
    spare_pos: usize,
    salt: usize,
) -> Result<Vec<BlockPlan>, EmbedError> {
    // Rotate the ring so the seam scan starts at two consecutive healthy
    // blocks: the cyclic wrap-around constraint is then slack and the
    // bounded backtracking never cascades around the whole ring. (A faulty
    // block pins its two seams to one symbol; discovering that only at the
    // wrap would otherwise force exponential re-exploration.)
    let r4_rotated = rotate_to_healthy_start(r4, faults);
    let r4 = &r4_rotated;
    let len = r4.len();
    let any_edge_faults = faults.edge_fault_count() > 0;
    // Geometry per block.
    let mut cross_dif = vec![0usize; len];
    let mut cross_symbol = vec![0u8; len]; // A_{i+1}'s symbol at dif(A_i,A_{i+1})
    let mut blocked_prev = vec![0u8; len];
    let mut blocked_next = vec![0u8; len];
    let mut block_fault: Vec<Option<Perm>> = vec![None; len];
    let mut block_fault_count = vec![0usize; len];
    let mut block_edge_faulty = vec![false; len];
    for i in 0..len {
        let cur = r4.get(i);
        let next = r4.get_wrapped(i + 1);
        let prev = r4.get_wrapped(i + len - 1);
        let d = cur.dif(next).expect("ring adjacency");
        cross_dif[i] = d;
        cross_symbol[i] = next.fixed_symbol(d).expect("pinned at dif");
        let dp = prev.dif(cur).expect("ring adjacency");
        blocked_prev[i] = prev.fixed_symbol(dp).expect("pinned at dif");
        blocked_next[i] = cross_symbol[i];
        // Per-block fault census without the per-block Vec the old
        // `vertex_faults_in` call allocated: the global lists are tiny
        // (≤ n-3 vertices), so a linear scan per block is cheaper.
        for f in faults.vertices() {
            if cur.contains(f) {
                if block_fault[i].is_none() {
                    block_fault[i] = Some(*f);
                }
                block_fault_count[i] += 1;
            }
        }
        debug_assert!(block_fault_count[i] <= 1, "(P1)");
        block_edge_faulty[i] = any_edge_faults
            && faults
                .edges()
                .iter()
                .any(|e| cur.contains(e.lo()) && cur.contains(e.hi()));
        // (P2) manifests here: the prev-blocked and next-blocked 3-vertices
        // differ, leaving two both-connected ones.
        debug_assert_ne!(blocked_prev[i], blocked_next[i], "(P2)");
    }

    // Seam symbols w[i] between block i and i+1, chosen by bounded
    // backtracking. Faulty blocks force pass-through (w[i-1] == w[i] == Q's
    // symbol, healthy and both-connected); healthy blocks prefer distinct
    // in/out but tolerate pass-through (the oracle handles both). A block
    // has 4 free symbols, so each candidate list fits a fixed array — no
    // per-block heap traffic in the scan.
    let options = |i: usize| -> ([u8; 4], usize) {
        let cur = r4.get(i);
        let next = r4.get_wrapped(i + 1);
        let inter = cur.free_symbols().intersection(&next.free_symbols());
        let mut opts = [0u8; 4];
        let mut m = 0usize;
        for s in inter.iter() {
            opts[m] = s;
            m += 1;
        }
        // The salt rotates preference order so retries explore different
        // seam assignments (used by the mixed vertex+edge embedder).
        if salt > 0 && m > 0 {
            let k = (salt + i) % m;
            opts[..m].rotate_left(k);
        }
        (opts, m)
    };
    let fault_spare_sym = |i: usize| -> Option<u8> { block_fault[i].map(|f| f.get(spare_pos)) };
    let sv_ok = |i: usize, w_in: u8, w_out: u8| -> bool {
        match fault_spare_sym(i) {
            Some(fsym) => {
                // Pass-through through a healthy, both-connected Q.
                w_in == w_out && w_in != fsym && w_in != blocked_prev[i] && w_in != blocked_next[i]
            }
            None => {
                if w_in == w_out {
                    // Healthy pass-through: Q must be both-connected so the
                    // Lemma-6 disjointness argument applies.
                    w_in != blocked_prev[i] && w_in != blocked_next[i]
                } else {
                    true
                }
            }
        }
    };

    let opt_lists: Vec<([u8; 4], usize)> = (0..len).map(options).collect();
    if opt_lists.iter().any(|&(_, m)| m == 0) {
        return Err(EmbedError::ExpansionFailed { block: 0 });
    }
    let mut choice = vec![0usize; len];
    let mut budget: u64 = 1_000_000u64.max(len as u64 * 50);
    let mut i = 0usize;
    let seams: Vec<u8> = loop {
        if budget == 0 {
            return Err(EmbedError::ExpansionFailed { block: i });
        }
        budget -= 1;
        if choice[i] >= opt_lists[i].1 {
            choice[i] = 0;
            if i == 0 {
                return Err(EmbedError::ExpansionFailed { block: 0 });
            }
            i -= 1;
            choice[i] += 1;
            continue;
        }
        let w_i = opt_lists[i].0[choice[i]];
        let ok = if i >= 1 {
            sv_ok(i, opt_lists[i - 1].0[choice[i - 1]], w_i)
        } else {
            true
        };
        if !ok {
            choice[i] += 1;
            continue;
        }
        if i + 1 == len {
            let w_first = opt_lists[0].0[choice[0]];
            if sv_ok(0, w_i, w_first) {
                break (0..len).map(|j| opt_lists[j].0[choice[j]]).collect();
            }
            choice[i] += 1;
            continue;
        }
        i += 1;
    };

    // Materialize the plans.
    let mut plans = Vec::with_capacity(len);
    for i in 0..len {
        let cur = r4.get(i);
        let w_in = seams[(i + len - 1) % len];
        let w_out = seams[i];
        plans.push(BlockPlan {
            block: *cur,
            entry: cur.sub(spare_pos, w_in).expect("seam symbol free"),
            exit: cur.sub(spare_pos, w_out).expect("seam symbol free"),
            cross_symbol: cross_symbol[i],
            cross_dif: cross_dif[i],
            fault_count: block_fault_count[i],
            fault: block_fault[i],
            edge_faulty: block_edge_faulty[i],
        });
    }
    Ok(plans)
}

/// Returns a copy of the ring rotated so that indices 0 and `len-1` are
/// fault-free (such a pair exists whenever faulty blocks are non-adjacent
/// and fewer than half the ring — guaranteed under (P3) with the paper's
/// budget). Falls back to a single healthy block 0, then to no rotation.
fn rotate_to_healthy_start(r4: &SuperRing, faults: &FaultSet) -> SuperRing {
    let len = r4.len();
    let faulty: Vec<bool> = r4
        .iter()
        .map(|p| faults.count_vertex_faults_in(p) > 0)
        .collect();
    let start = (0..len)
        .find(|&k| !faulty[k] && !faulty[(k + len - 1) % len])
        .or_else(|| (0..len).find(|&k| !faulty[k]))
        .unwrap_or(0);
    if start == 0 {
        return r4.clone();
    }
    let mut patterns: Vec<Pattern> = r4.iter().copied().collect();
    patterns.rotate_left(start);
    SuperRing::new(patterns).expect("rotation preserves ring validity")
}

/// The unique cross vertex of an exit 3-vertex with the demanded parity:
/// first symbol `cross_symbol`, the other two free symbols arranged so
/// the parity comes out right. Lemma 5 guarantees exactly two cross
/// vertices (one per parity — they differ by one transposition), so this
/// direct construction returns the same vertex the old
/// `vertices().find(...)` scan did, without enumerating (and heap-lifting)
/// up to six members. `None` iff `cross_symbol` is not free in the
/// 3-vertex (no cross vertex exists).
fn cross_exit(exit: &Pattern, cross_symbol: u8, want: Parity) -> Option<Perm> {
    let n = exit.n();
    let mut buf = [0u8; MAX_N];
    let mut fpos = [0usize; 3];
    let mut k = 0usize;
    for (pos, slot) in buf.iter_mut().enumerate().take(n) {
        match exit.fixed_symbol(pos) {
            Some(s) => *slot = s,
            None => {
                debug_assert!(k < 3, "exit patterns are 3-vertices");
                fpos[k] = pos;
                k += 1;
            }
        }
    }
    debug_assert_eq!(k, 3);
    let free = exit.free_symbols();
    if !free.contains(cross_symbol) {
        return None;
    }
    let mut rest = [0u8; 2];
    let mut m = 0usize;
    for s in free.iter() {
        if s != cross_symbol {
            debug_assert!(m < 2, "3-vertices have exactly three free symbols");
            rest[m] = s;
            m += 1;
        }
    }
    debug_assert_eq!(m, 2);
    buf[fpos[0]] = cross_symbol; // fpos[0] == 0: the crossing position
    buf[fpos[1]] = rest[0];
    buf[fpos[2]] = rest[1];
    let cand = Perm::from_slice_trusted(&buf[..n]);
    if cand.parity() == want {
        Some(cand)
    } else {
        Some(cand.swapped(fpos[1], fpos[2]))
    }
}

/// Phase 1 of assembly: every block's (entry, exit) vertex pair, or
/// `None` when a seam lands on a fault (the caller retries with the other
/// starting vertex).
///
/// The walk looks sequential (each entry is the predecessor's exit
/// crossed over the seam), but every block traversal has an even vertex
/// count, so ALL entries share `x0`'s parity and every exit is the unique
/// parity-correct cross vertex of its exit 3-vertex — each endpoint is
/// determined by `x0` alone. O(len), no allocation beyond the output.
fn plan_endpoints(plans: &[BlockPlan], faults: &FaultSet, x0: &Perm) -> Option<Vec<(Perm, Perm)>> {
    let len = plans.len();
    let want_parity = !x0.parity();
    // Fault membership by linear scan over the (≤ n-3 entry) fault list:
    // an inline `Perm` compare per entry beats the rank-then-hash lookup
    // (`O(n²)` Lehmer code) the general `is_vertex_faulty` pays.
    let fault_list = faults.vertices();
    let is_faulty = |v: &Perm| fault_list.iter().any(|f| f == v);
    let check_edges = faults.edge_fault_count() > 0;

    let mut exits: Vec<Perm> = Vec::with_capacity(len);
    for (i, plan) in plans.iter().enumerate() {
        let y = if i + 1 == len {
            // Close the cycle: the exit must be the unique neighbor of x0
            // across the wrap-around super-edge (same vertex the parity
            // rule picks; this form also validates membership).
            let y = x0.swapped(0, plan.cross_dif);
            if !plan.exit.contains(&y) || is_faulty(&y) {
                return None;
            }
            y
        } else {
            cross_exit(&plan.exit, plan.cross_symbol, want_parity)?
        };
        exits.push(y);
    }
    // Entries + seam health (vertices and, when present, edges).
    let mut endpoints: Vec<(Perm, Perm)> = Vec::with_capacity(len);
    for (i, plan) in plans.iter().enumerate() {
        let x = if i == 0 {
            *x0
        } else {
            exits[i - 1].swapped(0, plans[i - 1].cross_dif)
        };
        debug_assert!(plan.entry.contains(&x), "entry vertex in entry 3-vertex");
        if is_faulty(&x) {
            return None;
        }
        if check_edges {
            let next_entry = if i + 1 == len {
                *x0
            } else {
                exits[i].swapped(0, plan.cross_dif)
            };
            if faults.is_edge_faulty(&exits[i], &next_entry) {
                return None;
            }
        }
        endpoints.push((x, exits[i]));
    }
    Some(endpoints)
}

/// Phase 2, shared per-block fill: writes the block's oracle path over
/// `out` (whose length is the plan's `path_len`). The healthy/one-fault
/// Lemma-4 regime reads local ranks straight from the canonical table and
/// lifts them through the [`BlockCtx`]; out-of-invariant blocks (multiple
/// faults, internal edge faults, coarser loss) fall back to the uncached
/// oracle searches and copy. Returns `false` when no path exists.
fn fill_block(
    plan: &BlockPlan,
    faults: &FaultSet,
    x: &Perm,
    y: &Perm,
    faulty_block_loss: usize,
    out: &mut [Perm],
) -> bool {
    if !plan.edge_faulty && faulty_block_loss == 2 && plan.fault_count <= 1 {
        let ctx = BlockCtx::new(&plan.block);
        let entry = ctx.local_rank(x);
        let exit = ctx.local_rank(y);
        let fault = plan.fault.as_ref().map(|f| ctx.local_rank(f));
        let Some(ranks) = oracle::query_local(entry, exit, fault) else {
            return false;
        };
        debug_assert_eq!(ranks.len(), out.len());
        for (slot, &r) in out.iter_mut().zip(ranks) {
            *slot = ctx.lift_rank(r);
        }
        true
    } else {
        let target = out.len();
        let path = if plan.edge_faulty {
            // Edge faults inside the block (mixed extension): uncached
            // exact search avoiding them; edge faults cost no vertices.
            oracle::block_path_avoiding_edges(&plan.block, x, y, faults, target)
        } else if faulty_block_loss == 2 {
            oracle::block_path(&plan.block, x, y, faults)
        } else {
            oracle::block_path_with_target(&plan.block, x, y, faults, target)
        };
        match path {
            Some(p) if p.len() == out.len() => {
                out.copy_from_slice(&p);
                true
            }
            _ => false,
        }
    }
}

/// Minimum blocks allotted per worker before the expansion fans out under
/// the auto thread policy (a 2048-block ring — `n >= 9` — is the first to
/// parallelize, matching where the per-thread overhead amortizes).
const MIN_BLOCKS_PER_WORKER: usize = 256;

/// Materializes the ring as one flat arena: CSR offsets from the plans'
/// fixed path lengths, then every block fills its own disjoint slice —
/// serially inline, or in contiguous whole-block chunks over the
/// `star-pool` when [`star_pool::workers_for`] grants more than one
/// worker. Byte-identical output for every worker count.
fn fill_ring(
    plans: &[BlockPlan],
    faults: &FaultSet,
    endpoints: &[(Perm, Perm)],
    faulty_block_loss: usize,
) -> Option<Vec<Perm>> {
    let len = plans.len();
    let mut offsets: Vec<usize> = Vec::with_capacity(len + 1);
    offsets.push(0);
    let mut total = 0usize;
    for plan in plans {
        total += plan.path_len(faulty_block_loss);
        offsets.push(total);
    }
    // The arena. The fill overwrites every slot (or aborts); seeding with
    // x0 keeps the buffer initialized without a Default on `Perm`.
    let mut ring: Vec<Perm> = vec![endpoints[0].0; total];

    let fill_one = |i: usize, out: &mut [Perm]| -> bool {
        let (x, y) = &endpoints[i];
        fill_block(&plans[i], faults, x, y, faulty_block_loss, out)
    };

    let workers = star_pool::workers_for(len, MIN_BLOCKS_PER_WORKER);
    if workers <= 1 {
        for i in 0..len {
            if !fill_one(i, &mut ring[offsets[i]..offsets[i + 1]]) {
                return None;
            }
        }
        return Some(ring);
    }
    // Chunk at block granularity, then translate the cuts to vertex
    // offsets so each worker owns a contiguous run of whole blocks.
    let block_cuts = star_pool::chunk_cuts(len, workers);
    let vertex_cuts: Vec<usize> = block_cuts.iter().map(|&b| offsets[b]).collect();
    let ok = star_pool::try_fill_chunks(&mut ring, &vertex_cuts, |cctx, out| {
        let (blo, bhi) = (block_cuts[cctx.index], block_cuts[cctx.index + 1]);
        let base = offsets[blo];
        for i in blo..bhi {
            if cctx.aborted() {
                return false;
            }
            if !fill_one(i, &mut out[offsets[i] - base..offsets[i + 1] - base]) {
                return false;
            }
        }
        true
    });
    ok.then_some(ring)
}

/// Segment-returning phase 2 (the repair path's representation): same
/// endpoints, same per-block [`fill_block`], one owned path per block.
/// Fans out over the pool like the flat fill.
fn make_segments(
    plans: &[BlockPlan],
    faults: &FaultSet,
    endpoints: &[(Perm, Perm)],
    faulty_block_loss: usize,
) -> Option<Vec<BlockSegment>> {
    let len = plans.len();
    let make_segment = |i: usize| -> Option<BlockSegment> {
        let plan = &plans[i];
        let (x, y) = &endpoints[i];
        let mut path = vec![*x; plan.path_len(faulty_block_loss)];
        if !fill_block(plan, faults, x, y, faulty_block_loss, &mut path) {
            return None;
        }
        Some(BlockSegment {
            block: plan.block,
            entry: *x,
            exit: *y,
            path,
        })
    };
    let workers = star_pool::workers_for(len, MIN_BLOCKS_PER_WORKER);
    star_pool::try_map_indexed(len, workers, make_segment)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_parallel_expansion_matches_serial() {
        // Even on a single-core host, an explicit thread override forces
        // the pooled path on a small ring; the seam plan pins every
        // block's endpoints, so the output must be byte-identical to the
        // serial walk. (The umbrella `tests/parallel.rs` sweeps this
        // invariant over n = 5..7 and 20+ seeded fault sets end-to-end.)
        let r4 = {
            let parts = star_graph::partition::i_partition(&Pattern::full(6), 5).unwrap();
            let ring = SuperRing::new(parts).unwrap();
            crate::hierarchy::refine(&ring, 4, &FaultSet::empty(6), true).unwrap()
        };
        let faults = FaultSet::empty(6);
        star_pool::set_threads(1);
        let serial = expand(&r4, &faults, 1).unwrap();
        star_pool::set_threads(4);
        let parallel = expand(&r4, &faults, 1).unwrap();
        star_pool::set_threads(0);
        assert_eq!(serial, parallel, "worker count must not change the ring");
    }
    use star_graph::partition::i_partition;

    /// n = 5 K_5 ring (the Theorem-1 small case) exercises expand directly.
    fn k5_r4(order: &[u8]) -> SuperRing {
        let parts = i_partition(&Pattern::full(5), 4).unwrap();
        let ring: Vec<Pattern> = order.iter().map(|&s| parts[(s - 1) as usize]).collect();
        SuperRing::new(ring).unwrap()
    }

    #[test]
    fn entry_candidates_are_two_opposite_parity_cross_vertices() {
        let r4 = k5_r4(&[1, 2, 3, 4, 5]);
        let plans = plan_blocks(&r4, &FaultSet::empty(5), 1, 0).unwrap();
        let cands = entry_candidates(&plans);
        assert_eq!(cands.len(), 2, "Lemma 5: exactly two cross vertices");
        assert_ne!(cands[0].parity(), cands[1].parity());
        for c in &cands {
            assert!(plans[0].entry.contains(c));
        }
    }

    #[test]
    fn cross_exit_matches_member_scan() {
        // The direct construction must return exactly the vertex the
        // enumerate-and-find scan used to pick, for both parities.
        let r4 = k5_r4(&[1, 2, 3, 4, 5]);
        let plans = plan_blocks(&r4, &FaultSet::empty(5), 1, 0).unwrap();
        for plan in &plans {
            for want in [Parity::Even, Parity::Odd] {
                let scanned = plan
                    .exit
                    .vertices()
                    .find(|v| v.first() == plan.cross_symbol && v.parity() == want);
                assert_eq!(
                    cross_exit(&plan.exit, plan.cross_symbol, want),
                    scanned,
                    "{} cross={} want={want:?}",
                    plan.exit,
                    plan.cross_symbol
                );
            }
        }
        // A symbol that is pinned (not free) in the 3-vertex has no cross
        // vertex: both paths agree on None.
        let exit = &plans[0].exit;
        let pinned = exit
            .fixed_positions()
            .next()
            .map(|p| exit.fixed_symbol(p).unwrap());
        if let Some(s) = pinned {
            assert_eq!(cross_exit(exit, s, Parity::Even), None);
        }
    }

    #[test]
    fn structured_concat_equals_flat_ring() {
        // The repair path's segments and the flat arena must be the same
        // ring, block for block.
        let f = Perm::from_digits(5, 21345);
        let faults = FaultSet::from_vertices(5, [f]).unwrap();
        let r4 = k5_r4(&[5, 1, 2, 3, 4]);
        let flat = expand_with_block_loss(&r4, &faults, 1, 0, 2).unwrap();
        let segments = expand_structured(&r4, &faults, 1, 0, 2).unwrap();
        let concat: Vec<Perm> = segments.iter().flat_map(|s| s.path.clone()).collect();
        assert_eq!(flat, concat);
        assert_eq!(segments.len(), 5);
        for s in &segments {
            assert_eq!(s.path.first(), Some(&s.entry));
            assert_eq!(s.path.last(), Some(&s.exit));
        }
    }

    #[test]
    fn fault_free_s5_hamiltonian() {
        let r4 = k5_r4(&[1, 2, 3, 4, 5]);
        let faults = FaultSet::empty(5);
        let ring = expand(&r4, &faults, 1).unwrap();
        assert_eq!(ring.len(), 120);
        crate::embed_impl::verify_ring(&crate::EmbeddedRing::new(5, ring), &faults).unwrap();
    }

    #[test]
    fn one_fault_s5() {
        let f = Perm::from_digits(5, 21345);
        let faults = FaultSet::from_vertices(5, [f]).unwrap();
        // Fault lives in the block pinned to 5 at position 4.
        let r4 = k5_r4(&[5, 1, 2, 3, 4]);
        let ring = expand(&r4, &faults, 1).unwrap();
        assert_eq!(ring.len(), 118);
        crate::embed_impl::verify_ring(&crate::EmbeddedRing::new(5, ring), &faults).unwrap();
    }

    #[test]
    fn two_faults_s5_nonadjacent_blocks() {
        // Faults in blocks 1 and 3 of the ring order (non-consecutive).
        let f1 = Perm::from_digits(5, 23451); // block with symbol 1 at pos 4
        let f2 = Perm::from_digits(5, 24153); // block with symbol 3 at pos 4
        let faults = FaultSet::from_vertices(5, [f1, f2]).unwrap();
        let r4 = k5_r4(&[1, 2, 3, 4, 5]);
        let ring = expand(&r4, &faults, 1).unwrap();
        assert_eq!(ring.len(), 116);
        assert!(!ring.contains(&f1));
        assert!(!ring.contains(&f2));
    }
}
