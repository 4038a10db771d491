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
//! ## One pass, straight to the delta
//!
//! The seam plan fixes every block's path length up front (24 healthy,
//! `24 - loss` faulty), and the ring is written as the one
//! representation every consumer shares: a [`RingDelta`], the start
//! vertex `x_0` plus one star dimension per step. Each block reads its
//! Lemma-4 path as local `S_4` ranks from [`crate::oracle`]'s one rule
//! and turns each pair of adjacent ranks into the block's free position
//! they differ at (`BlockCtx::step_dim`); no vertex is lifted. Every
//! path has an even length, so block `i` owns whole bytes of the nibble
//! arena: its in-block steps, then its seam step. Endpoints and paths
//! are computed in one serial pass over the blocks; `expand_structured`,
//! for the repair machinery, decodes the delta and cuts it into
//! per-block [`BlockSegment`]s.

use star_fault::FaultSet;
use star_graph::{Pattern, SuperRing};
use star_perm::delta::RingDelta;
use star_perm::packed::PackedPerm;
use star_perm::{Parity, Perm, MAX_N};

use crate::blockctx::BlockCtx;
use crate::oracle::{self, BlockCensus};
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
    /// The block's faults, counted once here and read by every fill.
    census: BlockCensus,
}

impl BlockPlan {
    /// Vertices the block's traversal covers under the given per-fault
    /// loss — fixed by the plan alone, which is what lets the ring be
    /// laid out before any path is read.
    #[inline]
    fn path_len(&self, faulty_block_loss: usize) -> usize {
        oracle::HEALTHY_BLOCK_VERTICES - faulty_block_loss * self.census.count
    }
}

/// Expands an `R^4` with properties (P1)-(P3) into the healthy ring of
/// length `sum(24 or 24 - loss per block) = n! - loss·|F_v|`.
///
/// * `spare_pos` must be a free position (other than 0) of the ring's
///   4-vertices — one of the three positions Lemma 2 left unpinned.
/// * `salt` rotates every seam's candidate list, yielding a different
///   (still valid) set of entry/exit 3-vertices; 0 is the canonical
///   choice. The mixed vertex+edge embedder retries with other salts when
///   a forced seam edge happens to be faulty.
/// * `faulty_block_loss` is the vertices each faulty block gives up. The
///   paper's construction loses exactly **2** (Lemma 4). Passing 4
///   reproduces the coarser Tseng-style traversal (drop the fault plus a
///   3-vertex's worth of slack), which is what the `n! - 4|F_v|` prior
///   bound models — used by the baseline crate and the A1 ablation.
pub fn expand(
    r4: &SuperRing,
    faults: &FaultSet,
    spare_pos: usize,
    salt: usize,
    faulty_block_loss: usize,
) -> Result<RingDelta, EmbedError> {
    let (_, ring) = fill(r4, faults, spare_pos, salt, faulty_block_loss)?;
    crate::invariants::debug_assert_ring(faults, &ring, "expand");
    Ok(ring)
}

/// [`expand`]'s ring, decoded and cut into per-block segments (their
/// paths concatenate to exactly that ring), for the repair machinery.
pub(crate) fn expand_structured(
    r4: &SuperRing,
    faults: &FaultSet,
    spare_pos: usize,
    salt: usize,
    faulty_block_loss: usize,
) -> Result<Vec<BlockSegment>, EmbedError> {
    let (plans, ring) = fill(r4, faults, spare_pos, salt, faulty_block_loss)?;
    let vertices = ring.decode();
    let mut rest = vertices.as_slice();
    let segments: Vec<BlockSegment> = plans
        .iter()
        .map(|plan| {
            let (path, tail) = rest.split_at(plan.path_len(faulty_block_loss));
            rest = tail;
            BlockSegment {
                block: plan.block,
                entry: path[0],
                exit: path[path.len() - 1],
                path: path.to_vec(),
            }
        })
        .collect();
    crate::invariants::debug_assert_segments(r4.n(), faults, &segments, "expand");
    Ok(segments)
}

/// The seam plan and the filled ring, trying both starting vertices.
fn fill(
    r4: &SuperRing,
    faults: &FaultSet,
    spare_pos: usize,
    salt: usize,
    faulty_block_loss: usize,
) -> Result<(Vec<BlockPlan>, RingDelta), EmbedError> {
    debug_assert_eq!(r4.r(), 4);
    debug_assert!(faulty_block_loss >= 2 && faulty_block_loss.is_multiple_of(2));
    let plans = plan_blocks(r4, faults, spare_pos, salt)?;
    let (attempt, ring) = entry_candidates(&plans)
        .enumerate()
        .find_map(|(attempt, x0)| {
            Some((attempt, fill_ring(&plans, faults, x0, faulty_block_loss)?))
        })
        .ok_or(EmbedError::ExpansionFailed { block: 0 })?;
    let healthy = plans.iter().filter(|p| p.census.count == 0).count();
    record_block_counters(healthy as u64, (plans.len() - healthy) as u64, attempt);
    Ok((plans, ring))
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
fn entry_candidates(plans: &[BlockPlan]) -> impl Iterator<Item = Perm> + '_ {
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
        .filter(move |v| v.first() == back_symbol)
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
    // Geometry per block.
    let mut cross_dif = vec![0usize; len];
    let mut cross_symbol = vec![0u8; len]; // A_{i+1}'s symbol at dif(A_i,A_{i+1})
    let mut blocked_prev = vec![0u8; len];
    let mut blocked_next = vec![0u8; len];
    let mut census = vec![BlockCensus::default(); len];
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
        // The block's fault census, taken once: the global lists are tiny
        // (≤ n-3 entries), so a linear scan per block is cheap.
        census[i] = BlockCensus::of(cur, faults);
        debug_assert!(census[i].count <= 1, "(P1)");
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
    let fault_spare_sym = |i: usize| -> Option<u8> { census[i].first.map(|f| f.get(spare_pos)) };
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
            census: census[i],
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

/// Phase 1 of assembly: every block's (entry, exit) vertex pair in ring
/// order, each `None` when a seam lands on a fault (the caller then
/// retries with the other starting vertex).
///
/// The walk looks sequential (each entry is the predecessor's exit
/// crossed over the seam), but every block traversal has an even vertex
/// count, so ALL entries share `x0`'s parity and every exit is the unique
/// parity-correct cross vertex of its exit 3-vertex — each endpoint is
/// determined by `x0` alone. O(1) per block, no allocation.
fn endpoints<'a>(
    plans: &'a [BlockPlan],
    faults: &'a FaultSet,
    x0: Perm,
) -> impl Iterator<Item = Option<(Perm, Perm)>> + 'a {
    let want_parity = !x0.parity();
    // Fault membership by linear scan over the (≤ n-3 entry) fault list:
    // an inline `Perm` compare per entry beats the rank-then-hash lookup
    // (`O(n²)` Lehmer code) the general `is_vertex_faulty` pays.
    let fault_list = faults.vertices();
    let is_faulty = move |v: &Perm| fault_list.iter().any(|f| f == v);
    let check_edges = faults.edge_fault_count() > 0;
    let last = plans.len() - 1;
    let mut x = x0;
    plans.iter().enumerate().map(move |(i, plan)| {
        debug_assert!(plan.entry.contains(&x), "entry vertex in entry 3-vertex");
        let (y, next) = if i == last {
            // Close the cycle: the exit must be the unique neighbor of x0
            // across the wrap-around super-edge (same vertex the parity
            // rule picks; this form also validates membership).
            let y = x0.swapped(0, plan.cross_dif);
            if !plan.exit.contains(&y) || is_faulty(&y) {
                return None;
            }
            (y, x0)
        } else {
            let y = cross_exit(&plan.exit, plan.cross_symbol, want_parity)?;
            (y, y.swapped(0, plan.cross_dif))
        };
        // Seam health: the entry vertex and, when present, the edge out.
        if is_faulty(&x) || (check_edges && faults.is_edge_faulty(&y, &next)) {
            return None;
        }
        let ends = (x, y);
        x = next;
        Some(ends)
    })
}

/// Phase 2, in the same pass as phase 1: writes the ring from `x0` as one
/// nibble arena of step dimensions, or `None` when a seam or a block
/// path fails. Block `i` starts at an even ring offset `off_i` and has
/// an even path length, so it owns the bytes `off_i/2 .. off_{i+1}/2`:
/// its `len - 1` in-block steps, then its seam step along `cross_dif`.
/// The last block's seam nibble is the padding, because the closing edge
/// is not stored; the start vertex is `x0`.
fn fill_ring(
    plans: &[BlockPlan],
    faults: &FaultSet,
    x0: Perm,
    faulty_block_loss: usize,
) -> Option<RingDelta> {
    let total: usize = plans.iter().map(|p| p.path_len(faulty_block_loss)).sum();
    let mut dims = vec![0u8; total / 2];
    let mut at = 0usize;
    for (i, (plan, ends)) in plans.iter().zip(endpoints(plans, faults, x0)).enumerate() {
        let (x, y) = ends?;
        let len = plan.path_len(faulty_block_loss);
        let ctx = BlockCtx::new(&plan.block);
        let ranks = oracle::path_ranks(&ctx, &plan.census, faults, &x, &y, len)?;
        let seam = if i + 1 == plans.len() {
            0
        } else {
            plan.cross_dif as u8
        };
        for (j, byte) in dims[at..at + len / 2].iter_mut().enumerate() {
            let high = match ranks.get(2 * j + 2) {
                Some(&next) => ctx.step_dim(ranks[2 * j + 1], next),
                None => seam,
            };
            *byte = ctx.step_dim(ranks[2 * j], ranks[2 * j + 1]) | high << 4;
        }
        at += len / 2;
    }
    let start = PackedPerm::from_perm(&x0);
    let ring = RingDelta::from_parts(start.n(), total as u32, start.bits(), dims);
    Some(ring.expect("the fill writes dimensions in 1..n and a zero padding nibble"))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cands: Vec<Perm> = entry_candidates(&plans).collect();
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
    fn dimension_fill_matches_the_lifted_block_paths() {
        // Lifting every block's path into vertices and encoding the
        // ring gives the delta the dimension fill writes, at both
        // losses and for both starting vertices.
        let f = Perm::from_digits(5, 21345);
        let mut checked = 0;
        for (order, faults) in [
            (&[1u8, 2, 3, 4, 5], FaultSet::empty(5)),
            (&[5, 1, 2, 3, 4], FaultSet::from_vertices(5, [f]).unwrap()),
        ] {
            let r4 = k5_r4(order);
            let plans = plan_blocks(&r4, &faults, 1, 0).unwrap();
            for loss in [2, 4] {
                for x0 in entry_candidates(&plans) {
                    let Some(endpoints) =
                        endpoints(&plans, &faults, x0).collect::<Option<Vec<_>>>()
                    else {
                        continue;
                    };
                    let lifted: Vec<Perm> = plans
                        .iter()
                        .zip(&endpoints)
                        .flat_map(|(plan, (x, y))| {
                            let len = plan.path_len(loss);
                            oracle::block_path(&plan.block, x, y, &faults, len).unwrap()
                        })
                        .collect();
                    let filled = fill_ring(&plans, &faults, x0, loss).unwrap();
                    assert_eq!(filled, RingDelta::encode(&lifted).unwrap(), "loss {loss}");
                    checked += 1;
                }
            }
        }
        assert!(checked >= 4, "{checked} fills compared");
    }

    #[test]
    fn structured_concat_equals_flat_ring() {
        // The repair path's segments and the delta must be the same
        // ring, block for block.
        let f = Perm::from_digits(5, 21345);
        let faults = FaultSet::from_vertices(5, [f]).unwrap();
        let r4 = k5_r4(&[5, 1, 2, 3, 4]);
        let flat = expand(&r4, &faults, 1, 0, 2).unwrap();
        let segments = expand_structured(&r4, &faults, 1, 0, 2).unwrap();
        let concat: Vec<Perm> = segments.iter().flat_map(|s| s.path.clone()).collect();
        assert_eq!(flat.decode(), concat);
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
        let ring = expand(&r4, &faults, 1, 0, 2).unwrap();
        assert_eq!(ring.len(), 120);
        crate::embed_impl::verify_ring(&ring, &faults).unwrap();
    }

    #[test]
    fn one_fault_s5() {
        let f = Perm::from_digits(5, 21345);
        let faults = FaultSet::from_vertices(5, [f]).unwrap();
        // Fault lives in the block pinned to 5 at position 4.
        let r4 = k5_r4(&[5, 1, 2, 3, 4]);
        let ring = expand(&r4, &faults, 1, 0, 2).unwrap();
        assert_eq!(ring.len(), 118);
        crate::embed_impl::verify_ring(&ring, &faults).unwrap();
    }

    #[test]
    fn two_faults_s5_nonadjacent_blocks() {
        // Faults in blocks 1 and 3 of the ring order (non-consecutive).
        let f1 = Perm::from_digits(5, 23451); // block with symbol 1 at pos 4
        let f2 = Perm::from_digits(5, 24153); // block with symbol 3 at pos 4
        let faults = FaultSet::from_vertices(5, [f1, f2]).unwrap();
        let r4 = k5_r4(&[1, 2, 3, 4, 5]);
        let ring = expand(&r4, &faults, 1, 0, 2).unwrap().decode();
        assert_eq!(ring.len(), 116);
        assert!(!ring.contains(&f1));
        assert!(!ring.contains(&f2));
    }
}
