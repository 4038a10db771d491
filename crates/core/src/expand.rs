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
//! are computed in one serial pass over the blocks, and after each block
//! the fill hands every window of the ring it has passed to the
//! caller's `Windows` (`crate::window`), so a ring can leave while it is
//! built. `expand_structured`, for the repair machinery, decodes the
//! delta and cuts it into per-block [`BlockSegment`]s.

use star_fault::FaultSet;
use star_graph::{Pattern, SuperRing};
use star_perm::delta::RingDelta;
use star_perm::packed::PackedPerm;
use star_perm::{Parity, Perm, MAX_N};

use crate::blockctx::BlockCtx;
use crate::oracle::{self, BlockCensus};
use crate::seam::{self, Seat, Symbols};
use crate::window::Windows;
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

/// `BlockPlan::fault` of a block that holds no vertex fault.
const NO_FAULT: u32 = u32::MAX;

/// One block's share of the seam plan, 12 bytes next to its seam byte in
/// [`Seams::seams`]. The block itself is read from the `R^4` by index,
/// and its entry and exit 3-vertices are `sub(spare, seam)` of the
/// previous block's seam and its own.
#[derive(Debug, Clone, Copy)]
struct BlockPlan {
    /// Index into `faults.vertices()` of the block's first vertex fault,
    /// or [`NO_FAULT`] (a fault list is shorter than `12!`).
    fault: u32,
    /// Where the block meets its neighbours: `dif` toward the next block
    /// and Lemma 1's blocked symbol toward each side.
    seat: Seat,
    /// Vertex faults inside the block (0 or 1 under (P1)).
    faults: u8,
    /// Whether a faulty edge lies inside the block (mixed faults).
    edge_faulty: bool,
}

/// The seam pass's result: one [`BlockPlan`] and one seam per block of
/// the `R^4`, in ring order from the block at `start`.
struct Seams<'a> {
    r4: &'a SuperRing,
    /// Index in `r4` of plan block 0: a healthy block after a healthy
    /// one, so the scan's wrap-around is slack.
    start: usize,
    spare: usize,
    plans: Vec<BlockPlan>,
    /// The seam symbol `w_i` toward the next block: the spare-position
    /// symbol of block `i`'s exit 3-vertex and of block `i+1`'s entry.
    seams: Vec<u8>,
}

impl Seams<'_> {
    fn len(&self) -> usize {
        self.plans.len()
    }

    /// Plan block `i`'s 4-vertex.
    #[inline]
    fn block(&self, i: usize) -> &Pattern {
        self.r4.get((self.start + i) % self.len())
    }

    /// The 3-vertex of block `i` holding `seam` at the spare position.
    #[inline]
    fn sub(&self, i: usize, seam: u8) -> Pattern {
        self.block(i)
            .sub(self.spare, seam)
            .expect("seam symbol free")
    }

    /// Block `i`'s entry 3-vertex.
    fn entry(&self, i: usize) -> Pattern {
        self.sub(i, self.seams[(i + self.len() - 1) % self.len()])
    }

    /// Block `i`'s exit 3-vertex.
    fn exit(&self, i: usize) -> Pattern {
        self.sub(i, self.seams[i])
    }

    /// Block `i`'s fault census, as the table-or-search rule reads it.
    fn census(&self, i: usize, faults: &FaultSet) -> BlockCensus {
        let plan = &self.plans[i];
        BlockCensus {
            count: plan.faults as usize,
            first: (plan.fault != NO_FAULT).then(|| faults.vertices()[plan.fault as usize]),
            edge_faulty: plan.edge_faulty,
        }
    }

    /// Vertices block `i`'s traversal covers under the given per-fault
    /// loss — fixed by the plan alone, which is what lets the ring be
    /// laid out before any path is read.
    #[inline]
    fn path_len(&self, i: usize, faulty_block_loss: usize) -> usize {
        oracle::HEALTHY_BLOCK_VERTICES - faulty_block_loss * self.plans[i].faults as usize
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
    let mut windows = Windows::whole();
    expand_into(r4, faults, spare_pos, salt, faulty_block_loss, &mut windows)
}

/// [`expand`], handing the ring to `windows` as the fill passes each
/// window's end. The fill tries the second start vertex only while no
/// window has left; the last window stays with `windows` for
/// [`Windows::close`].
pub(crate) fn expand_into(
    r4: &SuperRing,
    faults: &FaultSet,
    spare_pos: usize,
    salt: usize,
    faulty_block_loss: usize,
    windows: &mut Windows,
) -> Result<RingDelta, EmbedError> {
    let (_, ring) = fill(r4, faults, spare_pos, salt, faulty_block_loss, windows)?;
    crate::invariants::debug_assert_ring(faults, &ring, "expand");
    Ok(ring)
}

/// The seam plan and the filled ring, trying both starting vertices.
fn fill<'a>(
    r4: &'a SuperRing,
    faults: &FaultSet,
    spare_pos: usize,
    salt: usize,
    faulty_block_loss: usize,
    windows: &mut Windows,
) -> Result<(Seams<'a>, RingDelta), EmbedError> {
    debug_assert_eq!(r4.r(), 4);
    debug_assert!(faulty_block_loss >= 2 && faulty_block_loss.is_multiple_of(2));
    let seams =
        star_obs::span("embed.expand.plan").hold(|| plan_blocks(r4, faults, spare_pos, salt))?;
    for (attempt, x0) in entry_candidates(&seams).enumerate() {
        match fill_ring(&seams, faults, x0, faulty_block_loss, windows) {
            Ok(ring) => {
                let healthy = seams.plans.iter().filter(|p| p.faults == 0).count();
                record_block_counters(healthy as u64, (seams.len() - healthy) as u64, attempt);
                return Ok((seams, ring));
            }
            // Nothing has left yet: the other start vertex may succeed.
            Err(Stop::Seam(_)) if !windows.handed_out() => {}
            Err(Stop::Seam(at)) => return Err(EmbedError::ExpansionFailed { block: at }),
            Err(Stop::Check(e)) => return Err(e),
        }
    }
    Err(EmbedError::ExpansionFailed { block: 0 })
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
    let mut windows = Windows::whole();
    let (seams, ring) = fill(r4, faults, spare_pos, salt, faulty_block_loss, &mut windows)?;
    let vertices = ring.decode();
    let mut rest = vertices.as_slice();
    let segments: Vec<BlockSegment> = (0..seams.len())
        .map(|i| {
            let (path, tail) = rest.split_at(seams.path_len(i, faulty_block_loss));
            rest = tail;
            BlockSegment {
                block: *seams.block(i),
                entry: path[0],
                exit: path[path.len() - 1],
                path: path.to_vec(),
            }
        })
        .collect();
    crate::invariants::debug_assert_segments(r4.n(), faults, &segments, "expand");
    Ok(segments)
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
/// last block: a member of block 0 crosses back iff its first symbol is
/// the one blocked toward the last block.
fn entry_candidates(seams: &Seams) -> impl Iterator<Item = Perm> {
    let back_symbol = seams.plans[0].seat.blocked_prev;
    let entry = seams.entry(0);
    let candidates: Vec<Perm> = entry
        .vertices()
        .filter(|v| v.first() == back_symbol)
        .collect();
    candidates.into_iter()
}

/// Chooses entry/exit 3-vertices for every block (the seam-symbol pass).
fn plan_blocks<'a>(
    r4: &'a SuperRing,
    faults: &FaultSet,
    spare_pos: usize,
    salt: usize,
) -> Result<Seams<'a>, EmbedError> {
    let len = r4.len();
    let start = seam::healthy_start(len, |k| faults.count_vertex_faults_in(r4.get(k)) > 0);
    let block = |i: usize| r4.get((start + i) % len);

    // Geometry and census per block; the seams are chosen below.
    let mut plans = Vec::with_capacity(len);
    for (i, seat) in seam::seats(len, block).enumerate() {
        let cur = block(i);
        let census = BlockCensus::of(cur, faults);
        debug_assert!(census.count <= 1, "(P1)");
        let fault = census.first.map_or(NO_FAULT, |f| {
            faults
                .vertices()
                .iter()
                .position(|v| *v == f)
                .expect("listed") as u32
        });
        plans.push(BlockPlan {
            fault,
            seat,
            faults: census.count.min(u8::MAX as usize) as u8,
            edge_faulty: census.edge_faulty,
        });
    }

    // Seam symbols w[i] between block i and i+1. Faulty blocks force
    // pass-through (w[i-1] == w[i] == Q's symbol, healthy and
    // both-connected); healthy blocks prefer distinct in/out but tolerate
    // pass-through (the oracle handles both). The salt rotates each
    // seam's candidates so retries explore different seam assignments
    // (used by the mixed vertex+edge embedder).
    let candidates = |i: usize| {
        // The symbols free in both blocks: block i's, but the one blocked
        // toward block i+1.
        let mut common = block(i).free_symbols();
        common.remove(plans[i].seat.blocked_next);
        let mut opts = Symbols::of(common);
        let opts_mut = opts.as_mut_slice();
        if salt > 0 && !opts_mut.is_empty() {
            let k = (salt + i) % opts_mut.len();
            opts_mut.rotate_left(k);
        }
        opts
    };
    let crosses = |i: usize, w_in: u8, w_out: u8| -> bool {
        let plan = &plans[i];
        let Seat {
            blocked_prev,
            blocked_next,
            ..
        } = plan.seat;
        debug_assert_ne!(blocked_prev, blocked_next, "(P2)");
        if plan.fault != NO_FAULT {
            // Pass-through through a healthy, both-connected Q.
            let fsym = faults.vertices()[plan.fault as usize].get(spare_pos);
            w_in == w_out && w_in != fsym && w_in != blocked_prev && w_in != blocked_next
        } else if w_in == w_out {
            // Healthy pass-through: Q must be both-connected so the
            // Lemma-6 disjointness argument applies.
            w_in != blocked_prev && w_in != blocked_next
        } else {
            true
        }
    };
    let seams = seam::scan(len, candidates, crosses)
        .map_err(|block| EmbedError::ExpansionFailed { block })?;
    Ok(Seams {
        r4,
        start,
        spare: spare_pos,
        plans,
        seams,
    })
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
    seams: &'a Seams,
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
    let last = seams.len() - 1;
    let mut x = x0;
    seams.plans.iter().enumerate().map(move |(i, plan)| {
        debug_assert!(
            seams.entry(i).contains(&x),
            "entry vertex in entry 3-vertex"
        );
        let exit = seams.exit(i);
        let cross_dif = plan.seat.dif_next as usize;
        let (y, next) = if i == last {
            // Close the cycle: the exit must be the unique neighbor of x0
            // across the wrap-around super-edge (same vertex the parity
            // rule picks; this form also validates membership).
            let y = x0.swapped(0, cross_dif);
            if !exit.contains(&y) || is_faulty(&y) {
                return None;
            }
            (y, x0)
        } else {
            let y = cross_exit(&exit, plan.seat.blocked_next, want_parity)?;
            (y, y.swapped(0, cross_dif))
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

/// Why a fill stopped.
enum Stop {
    /// A seam or a block path failed at this ring position: the other
    /// start vertex may still succeed.
    Seam(usize),
    /// The check rejected a window.
    Check(EmbedError),
}

/// Phase 2, in the same pass as phase 1: writes the ring from `x0` as one
/// nibble arena of step dimensions and hands `windows` every window the
/// fill has passed. Block `i` starts at an even ring offset `off_i` and
/// has an even path length, so it owns the bytes `off_i/2 .. off_{i+1}/2`:
/// its `len - 1` in-block steps, then its seam step along `dif_next`.
/// The last block's seam nibble is the padding, because the closing edge
/// is not stored; the start vertex is `x0`.
fn fill_ring(
    seams: &Seams,
    faults: &FaultSet,
    x0: Perm,
    faulty_block_loss: usize,
    windows: &mut Windows,
) -> Result<RingDelta, Stop> {
    let n = x0.n();
    let total: usize = (0..seams.len())
        .map(|i| seams.path_len(i, faulty_block_loss))
        .sum();
    let mut dims = vec![0u8; total / 2];
    let start = PackedPerm::from_perm(&x0);
    let mut at = 0usize;
    for (i, ends) in endpoints(seams, faults, x0).enumerate() {
        let (x, y) = ends.ok_or(Stop::Seam(at))?;
        let len = seams.path_len(i, faulty_block_loss);
        let ctx = BlockCtx::new(seams.block(i));
        let census = seams.census(i, faults);
        let ranks = oracle::path_ranks(&ctx, &census, faults, &x, &y, len).ok_or(Stop::Seam(at))?;
        let seam = if i + 1 == seams.len() {
            0
        } else {
            seams.plans[i].seat.dif_next
        };
        for (j, byte) in dims[at / 2..(at + len) / 2].iter_mut().enumerate() {
            let high = match ranks.get(2 * j + 2) {
                Some(&next) => ctx.step_dim(ranks[2 * j + 1], next),
                None => seam,
            };
            *byte = ctx.step_dim(ranks[2 * j], ranks[2 * j + 1]) | high << 4;
        }
        #[cfg(test)]
        windows.tamper(&mut dims, at, at + len);
        windows
            .reach(&dims, (at + len) as u32, total as u32, start)
            .map_err(Stop::Check)?;
        at += len;
    }
    let ring = RingDelta::from_parts(n, total as u32, start.bits(), dims);
    Ok(ring.expect("the fill writes dimensions in 1..n and a zero padding nibble"))
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
    fn the_seam_plan_keeps_at_most_16_bytes_per_block() {
        // A block's record and its seam byte.
        assert!(std::mem::size_of::<BlockPlan>() + std::mem::size_of::<u8>() <= 16);
    }

    #[test]
    fn entry_candidates_are_two_opposite_parity_cross_vertices() {
        let r4 = k5_r4(&[1, 2, 3, 4, 5]);
        let seams = plan_blocks(&r4, &FaultSet::empty(5), 1, 0).unwrap();
        let cands: Vec<Perm> = entry_candidates(&seams).collect();
        assert_eq!(cands.len(), 2, "Lemma 5: exactly two cross vertices");
        assert_ne!(cands[0].parity(), cands[1].parity());
        for c in &cands {
            assert!(seams.entry(0).contains(c));
        }
    }

    #[test]
    fn cross_exit_matches_member_scan() {
        // The direct construction must return exactly the vertex the
        // enumerate-and-find scan used to pick, for both parities.
        let r4 = k5_r4(&[1, 2, 3, 4, 5]);
        let seams = plan_blocks(&r4, &FaultSet::empty(5), 1, 0).unwrap();
        for (i, plan) in seams.plans.iter().enumerate() {
            let exit = seams.exit(i);
            for want in [Parity::Even, Parity::Odd] {
                let scanned = exit
                    .vertices()
                    .find(|v| v.first() == plan.seat.blocked_next && v.parity() == want);
                assert_eq!(
                    cross_exit(&exit, plan.seat.blocked_next, want),
                    scanned,
                    "{exit} cross={} want={want:?}",
                    plan.seat.blocked_next
                );
            }
        }
        // A symbol that is pinned (not free) in the 3-vertex has no cross
        // vertex: both paths agree on None.
        let exit = &seams.exit(0);
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
            let seams = plan_blocks(&r4, &faults, 1, 0).unwrap();
            for loss in [2, 4] {
                for x0 in entry_candidates(&seams) {
                    let Some(endpoints) =
                        endpoints(&seams, &faults, x0).collect::<Option<Vec<_>>>()
                    else {
                        continue;
                    };
                    let lifted: Vec<Perm> = endpoints
                        .iter()
                        .enumerate()
                        .flat_map(|(i, (x, y))| {
                            let len = seams.path_len(i, loss);
                            oracle::block_path(seams.block(i), x, y, &faults, len).unwrap()
                        })
                        .collect();
                    let mut windows = Windows::whole();
                    let Ok(filled) = fill_ring(&seams, &faults, x0, loss, &mut windows) else {
                        panic!("fill from {x0}");
                    };
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
