//! One ring check behind every validator.
//!
//! `star_fault::RingCheck` is the only per-vertex ring validator. These
//! tests pin it from two sides:
//!
//! - differentially, through `check_ring` (a push per vertex and
//!   `finish`): on the exhaustive oracle's longest cycles for `n <= 5`
//!   and on seeded mutations of them, it must agree with a definitional
//!   reference check that uses no rank, bitset or packed word;
//! - through a tamper matrix that every adapter — `check_ring`,
//!   `StreamVerifier` at several chunkings, `Store::verify` — must reject
//!   with the same error kind at the same ring position. It runs on an
//!   `S_5` ring with defects inside the check's 64-step frame inference,
//!   and on an `S_7` ring with defects past it, where in-block steps take
//!   their ranks from the block tables: in the middle of a block's run,
//!   on a seam step and on the first step after a seam.

use std::collections::BTreeSet;

use rand::{rngs::StdRng, RngExt, SeedableRng};
use star_rings::fault::{gen, FaultSet, RingError};
use star_rings::graph::Edge;
use star_rings::oracle::{OracleKey, Store};
use star_rings::perm::{delta::RingDelta, factorial, Perm};
use star_rings::ring::embed_longest_ring;
use star_rings::serve::proto::ChunkFrame;
use star_rings::serve::StreamVerifier;
use star_rings::verify::certificate::ring_checksum;
use star_rings::verify::check_ring;
use star_rings::verify::exhaustive::longest_healthy_cycle;

/// The ring contract from its definition: the first defect in ring
/// order, each vertex before the step into it.
fn reference_check(n: usize, vs: &[Perm], faults: &FaultSet) -> Result<(), RingError> {
    let step = |index: usize, a: &Perm, b: &Perm| {
        if !a.is_adjacent(b) {
            return Err(RingError::NotAdjacent { index });
        }
        if faults
            .edges()
            .iter()
            .any(|e| (e.lo(), e.hi()) == (a, b) || (e.lo(), e.hi()) == (b, a))
        {
            return Err(RingError::FaultyEdge { index });
        }
        Ok(())
    };
    for (index, v) in vs.iter().enumerate() {
        if v.n() != n {
            return Err(RingError::WrongDimension { index });
        }
        if faults.vertices().contains(v) {
            return Err(RingError::FaultyVertex { index, vertex: *v });
        }
        if vs[..index].contains(v) {
            return Err(RingError::RepeatedVertex { index, vertex: *v });
        }
        if index > 0 {
            step(index - 1, &vs[index - 1], v)?;
        }
    }
    if vs.len() < 3 {
        return Err(RingError::TooShort { len: vs.len() });
    }
    step(vs.len() - 1, &vs[vs.len() - 1], &vs[0])
}

/// The Lehmer rank by its definition, O(n²).
fn lehmer_rank(p: &Perm) -> u32 {
    let s = p.as_slice();
    (0..s.len())
        .map(|i| {
            let smaller = s[i + 1..].iter().filter(|&&t| t < s[i]).count() as u64;
            smaller * factorial(s.len() - 1 - i)
        })
        .sum::<u64>() as u32
}

fn random_vertex(rng: &mut StdRng, n: usize) -> Perm {
    Perm::unrank(n, rng.random_range(0..factorial(n) as u32)).expect("rank in range")
}

/// One or two seeded edits of a vertex list.
fn mutate(rng: &mut StdRng, n: usize, ring: &[Perm]) -> Vec<Perm> {
    let mut out = ring.to_vec();
    for _ in 0..rng.random_range(1..=2usize) {
        let len = out.len();
        match rng.random_range(0..8u32) {
            0 if len > 0 => {
                let i = rng.random_range(0..len);
                out[i] = random_vertex(rng, n);
            }
            1 if len > 1 => {
                let (i, j) = (rng.random_range(0..len), rng.random_range(0..len));
                out.swap(i, j);
            }
            2 if len > 0 => {
                out.remove(rng.random_range(0..len));
            }
            3 => {
                let v = random_vertex(rng, n);
                out.insert(rng.random_range(0..=len), v);
            }
            4 => out.truncate(rng.random_range(0..=len)),
            5 if len > 0 => {
                let i = rng.random_range(0..len);
                let other = [n - 1, n + 1][rng.random_range(0..2usize)];
                out[i] = random_vertex(rng, other);
            }
            6 if len > 1 => {
                let i = rng.random_range(0..len);
                out[i] = out[(i + len - 2) % len];
            }
            _ => out.rotate_left(rng.random_range(0..=len)),
        }
    }
    out
}

#[test]
fn ring_check_agrees_with_the_exhaustive_oracle_and_the_definition() {
    let mut rng = StdRng::seed_from_u64(0x0515_2C4E);
    let mut verdicts: BTreeSet<String> = BTreeSet::new();
    for (n, max_k, budget) in [
        (3usize, 0usize, u64::MAX),
        (4, 2, u64::MAX),
        (5, 2, 200_000),
    ] {
        for k in 0..=max_k {
            for seed in 0..3u64 {
                let mut faults = gen::random_vertex_faults(n, k, seed).expect("room for k faults");
                let best = longest_healthy_cycle(n, &faults, budget);
                let cycle = &best.cycle;
                let summary = check_ring(n, cycle, &faults).expect("oracle cycles are rings");
                assert_eq!(summary.ring_len, cycle.len() as u64);
                assert_eq!(
                    summary.checksum,
                    ring_checksum(cycle.iter().map(lehmer_rank))
                );
                assert_eq!(
                    summary.at_guarantee,
                    cycle.len() as u64 == factorial(n) - 2 * k as u64
                );
                if n >= 4 && k <= n - 3 {
                    let embedded = embed_longest_ring(n, &faults).expect("within budget");
                    let theirs =
                        check_ring(n, embedded.vertices(), &faults).expect("embeds verify");
                    assert!(theirs.at_guarantee);
                    assert!(!best.optimal || theirs.ring_len <= summary.ring_len);
                }
                // Half the scenarios also lose one of the cycle's links.
                if seed % 2 == 1 {
                    let i = rng.random_range(0..cycle.len());
                    let link = Edge::new(cycle[i], cycle[(i + 1) % cycle.len()]).unwrap();
                    faults.add_edge(link).unwrap();
                }
                for _ in 0..150 {
                    let m = mutate(&mut rng, n, cycle);
                    let got = check_ring(n, &m, &faults);
                    assert_eq!(
                        got.clone().map(drop),
                        reference_check(n, &m, &faults),
                        "n = {n}, faults {faults:?}, ring {m:?}"
                    );
                    match got {
                        Ok(accepted) => {
                            // Nothing the check accepts beats the optimum.
                            assert!(!best.optimal || accepted.ring_len <= cycle.len() as u64);
                            verdicts.insert("ok".into());
                        }
                        Err(e) => {
                            verdicts
                                .insert(format!("{e:?}").split([' ', '{']).next().unwrap().into());
                        }
                    }
                }
            }
        }
    }
    // The mutations reach every verdict a vertex list can earn.
    for kind in [
        "ok",
        "TooShort",
        "WrongDimension",
        "RepeatedVertex",
        "NotAdjacent",
        "FaultyVertex",
        "FaultyEdge",
    ] {
        assert!(
            verdicts.contains(kind),
            "no mutation produced {kind}: {verdicts:?}"
        );
    }
}

/// One tampered input and the error every adapter must report for it.
struct Case {
    name: &'static str,
    /// The dimension the adapter is asked to check.
    n: usize,
    vertices: Vec<Perm>,
    faults: FaultSet,
    want: RingError,
    /// Ring position of the defect, for the inside/boundary bookkeeping
    /// (`None` for whole-ring defects).
    at: Option<usize>,
}

/// A valid ring to tamper with, the ring positions of its defects, and
/// the chunk sizes its streams are cut at: each chunk size puts at least
/// one defect on a chunk boundary and one inside a chunk.
struct Base {
    n: usize,
    ring: Vec<Perm>,
    faults: FaultSet,
    positions: [usize; 3],
    chunk_sizes: [u32; 3],
}

/// The embedded ring of `S_n` around `k` seeded random vertex faults.
fn embedded_ring(n: usize, k: usize, seed: u64) -> (Vec<Perm>, FaultSet) {
    let faults = gen::random_vertex_faults(n, k, seed).unwrap();
    let ring = embed_longest_ring(n, &faults).unwrap().into_vertices();
    (ring, faults)
}

/// An `S_5` ring (118 vertices) with its defects inside the first 64
/// steps, and a worst-budget `S_7` ring (5,032 vertices) with its defects
/// past them.
fn bases() -> Vec<Base> {
    let (ring, faults) = embedded_ring(5, 1, 3);
    let s5 = Base {
        n: 5,
        ring,
        faults,
        positions: [10, 48, 61],
        chunk_sizes: [2, 5, 24],
    };
    let (ring, faults) = embedded_ring(7, 4, 3);
    let positions = block_positions(7, &ring);
    let s7 = Base {
        n: 7,
        ring,
        faults,
        positions,
        chunk_sizes: positions.map(|p| p as u32),
    };
    vec![s5, s7]
}

/// Three vertex positions past the 64-step window over which the ring
/// check infers its blocks' free positions (0 and the three most frequent
/// step dimensions, ties to the lower): one reached by the fourth step
/// of a block's run, one by a seam step that leaves a block, and one by
/// the first step after a seam.
fn block_positions(n: usize, ring: &[Perm]) -> [usize; 3] {
    // dims[i] is the step from ring position i to i + 1.
    let dims: Vec<usize> = ring
        .windows(2)
        .map(|w| w[0].edge_dimension_to(&w[1]).expect("a ring"))
        .collect();
    let mut counts = [0usize; 16];
    for &d in &dims[..64] {
        counts[d] += 1;
    }
    let mut by_count: Vec<usize> = (1..n).collect();
    by_count.sort_by_key(|&d| (std::cmp::Reverse(counts[d]), d));
    let inside = |step: usize| by_count[..3].contains(&dims[step]);
    let mid = (200..)
        .find(|&p| (p - 4..p).all(inside))
        .expect("a run of four in-block steps");
    let seam = (mid + 1..).find(|&p| !inside(p - 1)).expect("a seam");
    let after = (seam + 1..)
        .find(|&p| inside(p - 1) && !inside(p - 2))
        .expect("a step after a seam");
    let positions = [mid, seam, after];
    for a in positions {
        for b in positions {
            assert!(
                a == b || b % a != 0,
                "{positions:?}: pick positions that are not multiples"
            );
        }
    }
    positions
}

fn with_edge(faults: &FaultSet, a: Perm, b: Perm) -> FaultSet {
    let mut f = faults.clone();
    f.add_edge(Edge::new(a, b).unwrap()).unwrap();
    f
}

fn tamper_cases(base: &Base) -> Vec<Case> {
    let (n, ring, faults) = (base.n, &base.ring[..], &base.faults);
    let len = ring.len();
    let mut cases = Vec::new();
    for p in base.positions {
        cases.push(Case {
            name: "repeated vertex",
            n,
            vertices: [&ring[..p], &ring[p - 2..len - 2]].concat(),
            faults: faults.clone(),
            want: RingError::RepeatedVertex {
                index: p,
                vertex: ring[p - 2],
            },
            at: Some(p),
        });
        cases.push(Case {
            name: "faulty vertex",
            n,
            vertices: ring.to_vec(),
            faults: FaultSet::from_vertices(n, [ring[p]]).unwrap(),
            want: RingError::FaultyVertex {
                index: p,
                vertex: ring[p],
            },
            at: Some(p),
        });
        cases.push(Case {
            name: "faulty edge",
            n,
            vertices: ring.to_vec(),
            faults: with_edge(faults, ring[p - 1], ring[p]),
            want: RingError::FaultyEdge { index: p - 1 },
            at: Some(p),
        });
        cases.push(Case {
            name: "non-adjacent step",
            n,
            vertices: [&ring[..p], &ring[p + 1..]].concat(),
            faults: faults.clone(),
            want: RingError::NotAdjacent { index: p - 1 },
            at: Some(p),
        });
        // From position p on, the walk is a walk of S_{n-1}.
        let mut small = Perm::identity(n - 1);
        let mut foreign = ring[..p].to_vec();
        for i in p..len {
            foreign.push(small);
            small = small.star_move(1 + i % 2);
        }
        cases.push(Case {
            name: "wrong dimension",
            n,
            vertices: foreign,
            faults: faults.clone(),
            want: RingError::WrongDimension { index: p },
            at: Some(p),
        });
    }
    cases.push(Case {
        name: "wrong n",
        n: n + 1,
        vertices: ring.to_vec(),
        faults: faults.clone(),
        want: RingError::FaultDimensionMismatch {
            n: n + 1,
            faults: n,
        },
        at: None,
    });
    // A window of len - 2 ring vertices whose ends are not adjacent, with
    // the two vertices left out as the faults: the length still meets
    // n! - 2|F_v|, only the closing edge is missing.
    let start = (0..len)
        .find(|&s| !ring[s].is_adjacent(&ring[(s + len - 3) % len]))
        .expect("some window does not close");
    let window: Vec<Perm> = (0..len - 2).map(|i| ring[(start + i) % len]).collect();
    let left_out = [ring[(start + len - 2) % len], ring[(start + len - 1) % len]];
    cases.push(Case {
        name: "broken closing edge",
        n,
        vertices: window,
        faults: FaultSet::from_vertices(n, left_out).unwrap(),
        want: RingError::NotAdjacent { index: len - 3 },
        at: None,
    });
    cases.push(Case {
        name: "faulty closing edge",
        n,
        vertices: ring.to_vec(),
        faults: with_edge(faults, ring[len - 1], ring[0]),
        want: RingError::FaultyEdge { index: len - 1 },
        at: None,
    });
    cases.push(Case {
        name: "too short",
        n,
        vertices: ring[..2].to_vec(),
        faults: faults.clone(),
        want: RingError::TooShort { len: 2 },
        at: None,
    });
    cases
}

#[test]
fn check_ring_rejects_the_tamper_matrix() {
    for base in bases() {
        check_ring(base.n, &base.ring, &base.faults).expect("the base ring is valid");
        for case in tamper_cases(&base) {
            assert_eq!(
                check_ring(case.n, &case.vertices, &case.faults).err(),
                Some(case.want.clone()),
                "S_{}: {}",
                base.n,
                case.name
            );
        }
    }
}

/// Frames `vertices` as a v2 stream of `chunk`-vertex chunks, or `None`
/// when a chunk would not be a delta (a non-adjacent step or a change of
/// dimension inside it — a delta cannot carry either).
fn frames(vertices: &[Perm], chunk: u32) -> Option<Vec<ChunkFrame>> {
    let pieces: Vec<&[Perm]> = vertices.chunks(chunk as usize).collect();
    pieces
        .iter()
        .enumerate()
        .map(|(seq, piece)| {
            Some(ChunkFrame {
                n: piece[0].n() as u8,
                last: seq + 1 == pieces.len(),
                seq: seq as u32,
                cursor: (seq * chunk as usize) as u64,
                segment: RingDelta::encode(piece).ok()?,
            })
        })
        .collect()
}

/// The first error a stream verifier reports for `case`, from `new`,
/// `feed` or `finish`.
fn stream_error(case: &Case, chunks: &[ChunkFrame]) -> String {
    let mut verifier = match StreamVerifier::new(case.n, case.vertices.len() as u64, &case.faults) {
        Ok(v) => v,
        Err(e) => return e,
    };
    for chunk in chunks {
        if let Err(e) = verifier.feed(chunk) {
            return e;
        }
    }
    verifier.finish().expect_err("a tampered stream fails")
}

#[test]
fn stream_verifier_rejects_the_tamper_matrix_at_every_chunking() {
    for base in bases() {
        let mut ran: BTreeSet<(&str, u32, &str)> = BTreeSet::new();
        for case in tamper_cases(&base) {
            for chunk in base.chunk_sizes {
                let Some(chunks) = frames(&case.vertices, chunk) else {
                    continue;
                };
                assert_eq!(
                    stream_error(&case, &chunks),
                    case.want.to_string(),
                    "S_{}: {} in chunks of {chunk}",
                    base.n,
                    case.name
                );
                let place = match case.at {
                    Some(p) if p % chunk as usize == 0 => "boundary",
                    Some(_) => "inside",
                    None => "whole ring",
                };
                ran.insert((case.name, chunk, place));
            }
        }
        for chunk in base.chunk_sizes {
            for name in ["repeated vertex", "faulty vertex", "faulty edge"] {
                for place in ["boundary", "inside"] {
                    assert!(
                        ran.contains(&(name, chunk, place)),
                        "S_{}: {name} {place} {chunk}",
                        base.n
                    );
                }
            }
            // A delta cannot hold a non-adjacent step or two dimensions,
            // so those defects only reach a stream on a chunk boundary.
            for name in ["non-adjacent step", "wrong dimension"] {
                assert!(
                    ran.contains(&(name, chunk, "boundary")),
                    "S_{}: {name} {chunk}",
                    base.n
                );
            }
            for name in [
                "wrong n",
                "broken closing edge",
                "faulty closing edge",
                "too short",
            ] {
                assert!(
                    ran.contains(&(name, chunk, "whole ring")),
                    "S_{}: {name} {chunk}",
                    base.n
                );
            }
        }
    }
}

#[test]
fn store_verify_rejects_the_tamper_matrix() {
    for base in bases() {
        let n = base.n;
        let mut ran = BTreeSet::new();
        for (i, case) in tamper_cases(&base).into_iter().enumerate() {
            // A record holds one delta of its key's n under vertex faults
            // only; the other cases cannot be stored.
            let Ok(delta) = RingDelta::encode(&case.vertices) else {
                continue;
            };
            if case.n != n || delta.n() != n || case.faults.edge_fault_count() > 0 {
                continue;
            }
            let dir = std::env::temp_dir().join(format!(
                "star-ring-check-store-{n}-{i}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let ranks = case.faults.vertices().iter().map(Perm::rank).collect();
            let key = OracleKey::from_parts(n as u8, ranks, 0, 0);
            Store::open(&dir)
                .unwrap()
                .append_batch(&[(key, &delta)])
                .unwrap();
            let report = Store::open(&dir).unwrap().verify(0);
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(report.failures.len(), 1, "S_{n}: {}", case.name);
            let failure = &report.failures[0];
            // The store checks the contract length before walking the ring.
            let contract = factorial(n) - 2 * case.faults.vertex_fault_count() as u64;
            let want = if case.vertices.len() as u64 == contract {
                case.want.to_string()
            } else {
                "ring length".to_string()
            };
            assert!(failure.contains(&want), "S_{n}: {}: {failure}", case.name);
            ran.insert(case.name);
        }
        assert_eq!(
            ran,
            BTreeSet::from([
                "broken closing edge",
                "faulty vertex",
                "repeated vertex",
                "too short"
            ]),
            "S_{n}"
        );
    }
}
