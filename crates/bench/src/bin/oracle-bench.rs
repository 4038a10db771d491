//! `oracle-bench` — latency matrix for the symmetry-canonical oracle.
//!
//! ```text
//! oracle-bench [--samples K] [--n N] [--out FILE]
//! ```
//!
//! Times the three serve-path outcomes the oracle distinguishes, plus
//! raw store reads, and writes the committed `BENCH_*.json` schema so
//! `bench-diff` can track them. Rings are `RingDelta`s throughout, as in
//! the server:
//!
//! - `oracle/literal_hit/nN` — the repeat-request fast path: memoized
//!   canonicalization of a literal fault list already seen, plus the
//!   witness map-back (`RingDelta::map_through`) of the cached
//!   canonical ring.
//! - `oracle/canonical_hit/nN` — a *fresh* orbit-mate of a stored
//!   scenario: full `Aut(S_n)` canonical search, a validated delta read
//!   from the store, and the witness map-back. This is the latency a
//!   literal-key cache would have paid a full embed for.
//! - `oracle/cold_miss/nN` — canonical search plus the embed itself
//!   (the price when no orbit representative is stored).
//! - `oracle/store_read/nN` — one store read in isolation: positional
//!   read, checksum, key check and delta validation
//!   (`Store::get_delta`); the achieved MiB/s is printed to stderr.
//!
//! Every sample uses a distinct orbit-mate (seeded automorphism ranks),
//! so the canonical-search cost is measured cold, as the server pays it.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use star_bench::baseline::{percentile, Baseline, BaselineCase};
use star_bench::flags::{ensure, exit_code, usage, Flags};
use star_fault::{gen, FaultSet};
use star_oracle::{canonicalize, Canon, Canonicalizer, OracleKey, Store};
use star_perm::{delta::RingDelta, Aut, Perm};
use star_ring::embed_longest_ring;

fn main() -> ExitCode {
    exit_code(cli())
}

fn cli() -> Result<ExitCode, String> {
    let mut samples = 25usize;
    let mut n = 7usize;
    let mut out: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = Flags::new(&args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--samples" => samples = flags.value()?,
            "--n" => n = flags.value()?,
            "--out" => out = Some(flags.value()?),
            "--help" | "-h" => return Ok(usage("oracle-bench [--samples K] [--n N] [--out FILE]")),
            _ => return Err(flags.unknown()),
        }
    }
    ensure(samples >= 1, "--samples needs a positive integer")?;
    ensure((5..=8).contains(&n), "--n must be in 5..=8")?;

    let baseline = run(n, samples)?;
    let json = baseline.to_json();
    match &out {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("oracle-bench: summary written to {path}");
        }
        None => print!("{json}"),
    }
    for c in &baseline.cases {
        eprintln!(
            "  {:<26} median {:>12} ns  p95 {:>12} ns",
            c.name, c.median_ns, c.p95_ns
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// The server's map-back: a canonical-frame delta into the caller's
/// frame through the witness inverse (free for the identity witness).
fn map_back(delta_c: &Arc<RingDelta>, canon: &Canon) -> Arc<RingDelta> {
    if canon.witness().is_identity() {
        Arc::clone(delta_c)
    } else {
        Arc::new(delta_c.map_through(&canon.witness().inverse()))
    }
}

/// Seeded orbit-mate of `base`: one automorphism applied to every fault.
fn orbit_mate(n: usize, base: &[Perm], seed: u64) -> Vec<u32> {
    let g = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let h = g
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let aut = Aut::from_ranks(n, g, h);
    base.iter().map(|p| aut.apply(p).rank()).collect()
}

fn run(n: usize, samples: usize) -> Result<Baseline, String> {
    let budget = n - 3;
    let base = gen::random_vertex_faults(n, budget, 0xB0B).map_err(|e| e.to_string())?;
    let base_perms: Vec<Perm> = base.vertices().to_vec();
    let base_ranks: Vec<u32> = base_perms.iter().map(Perm::rank).collect();

    // Warm one canonical record: canonicalize the base scenario, embed
    // it in the canonical frame, store it.
    let dir = std::env::temp_dir().join(format!("oracle-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).map_err(|e| e.to_string())?;
    let canon = canonicalize(n, &base_ranks);
    let key = OracleKey::new(&canon, 0, 0);
    let canon_faults = FaultSet::from_vertices(
        n,
        canon
            .ranks()
            .iter()
            .map(|&r| Perm::unrank(n, r).expect("canonical ranks are valid"))
            .collect::<Vec<_>>(),
    )
    .map_err(|e| e.to_string())?;
    let ring_c: Arc<RingDelta> = Arc::new(
        embed_longest_ring(n, &canon_faults)
            .map_err(|e| e.to_string())?
            .into_delta(),
    );
    store
        .append_batch(&[(key.clone(), Arc::clone(&ring_c))])
        .map_err(|e| e.to_string())?;

    let mut cases = Vec::new();
    let case = |name, mode, wall| BaselineCase::from_samples(name, n, mode, wall, 1.0);

    // literal_hit: memoized canonicalization + witness map-back of the
    // in-memory canonical delta (the LRU-hit path; no disk).
    let memo = Canonicalizer::default();
    memo.canonicalize(n, &base_ranks); // prime the memo
    let wall: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            let (c, _) = memo.canonicalize(n, &base_ranks);
            let ring = map_back(&ring_c, &c);
            let ns = t0.elapsed().as_nanos() as u64;
            assert_eq!(ring.len(), ring_c.len());
            ns
        })
        .collect();
    cases.push(case(format!("oracle/literal_hit/n{n}"), "hit", wall));

    // canonical_hit: fresh orbit-mate each sample — cold canonical
    // search + validated delta read from the store + witness map-back.
    let wall: Vec<u64> = (0..samples)
        .map(|s| {
            let mate = orbit_mate(n, &base_perms, s as u64 + 1);
            let t0 = Instant::now();
            let c = canonicalize(n, &mate);
            let k = OracleKey::new(&c, 0, 0);
            let stored = store
                .get_delta(&k)
                .expect("orbit-mate must hit the store")
                .expect("stored record is a valid delta");
            let ring = map_back(&Arc::new(stored), &c);
            let ns = t0.elapsed().as_nanos() as u64;
            assert_eq!(ring.len(), ring_c.len());
            ns
        })
        .collect();
    cases.push(case(format!("oracle/canonical_hit/n{n}"), "hit", wall));

    // cold_miss: cold canonical search + the embed itself (the
    // write-behind persist is off the request path and not charged).
    let wall: Vec<u64> = (0..samples)
        .map(|s| {
            let mate = orbit_mate(n, &base_perms, 10_000 + s as u64);
            let faults = FaultSet::from_vertices(
                n,
                mate.iter()
                    .map(|&r| Perm::unrank(n, r).expect("orbit ranks are valid"))
                    .collect::<Vec<_>>(),
            )
            .expect("orbit-mates stay distinct");
            let t0 = Instant::now();
            let c = canonicalize(n, &mate);
            let ring = embed_longest_ring(n, &faults).expect("embed succeeds");
            let ns = t0.elapsed().as_nanos() as u64;
            assert!(c.exact() && !ring.is_empty());
            ns
        })
        .collect();
    cases.push(case(format!("oracle/cold_miss/n{n}"), "miss", wall));

    // store_read: the disk layer alone — lookup, checksum, key and
    // delta validation.
    let record_bytes = store.stats().bytes.max(1);
    let wall: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            let stored = store
                .get_delta(&key)
                .expect("warmed key must read back")
                .expect("stored record is a valid delta");
            let ns = t0.elapsed().as_nanos() as u64;
            assert_eq!(stored.len(), ring_c.len());
            ns
        })
        .collect();
    let median_read = percentile(
        &{
            let mut w = wall.clone();
            w.sort_unstable();
            w
        },
        0.5,
    );
    eprintln!(
        "oracle-bench: store read throughput ≈ {:.1} MiB/s ({} B record, median {} ns)",
        record_bytes as f64 / (median_read.max(1) as f64 / 1e9) / (1 << 20) as f64,
        record_bytes,
        median_read,
    );
    cases.push(case(format!("oracle/store_read/n{n}"), "store", wall));

    let _ = std::fs::remove_dir_all(&dir);
    Ok(Baseline::stamped(cases))
}
