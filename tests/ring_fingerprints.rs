//! Pinned ring fingerprints: every construction path must keep producing
//! the exact rings it produced when these constants were recorded.
//!
//! Each case is one ring, fingerprinted by its length and its
//! STARRING-CERT checksum (FNV-1a over the vertex ranks, so any changed,
//! moved or rotated vertex changes it). The matrix:
//!
//! * `embed_with_options` at n = 4..8 with |F_v| in {0, 1, n-3}, random,
//!   worst-case and clustered placements, and three (spare, salt) choices;
//!   the n = 9 slice of the same matrix is `#[ignore]`d (nightly);
//! * `embed_with_mixed_faults` at n = 4..8 over every |F_v| + |F_e| = n-3
//!   split;
//! * the Tseng loss-4 baseline at n = 6..8;
//! * a seeded `MaintainedRing::fail` sequence at n = 6..8, whose labels pin
//!   each step's outcome as well as the ring after it, plus a short
//!   sequence into a block that holds a faulty edge.
//!
//! The constants are fixed: a refactor of the expander, the block oracle
//! or the construction dispatch must leave every row as it is. A mismatch
//! prints the differing rows.

use star_rings::baselines::tseng_vertex::tseng_vertex_ring;
use star_rings::fault::{gen, FaultSet};
use star_rings::graph::Edge;
use star_rings::perm::{Parity, Perm};
use star_rings::ring::mixed::embed_with_mixed_faults;
use star_rings::ring::repair::{MaintainedRing, RepairOutcome};
use star_rings::ring::{embed_with_options, EmbedOptions};
use star_rings::verify::certificate::ring_checksum;

/// One pinned ring: `(label, length, STARRING-CERT checksum)`.
type Row = (&'static str, usize, u64);

fn fingerprint(label: String, ring: &[Perm]) -> (String, usize, u64) {
    (
        label,
        ring.len(),
        ring_checksum(ring.iter().map(Perm::rank)),
    )
}

/// Fails with every row that is missing, extra or different.
fn assert_rows(actual: &[(String, usize, u64)], expected: &[Row]) {
    let mut diff = Vec::new();
    for (label, len, sum) in actual {
        match expected.iter().find(|row| row.0 == label) {
            Some(&(_, l, s)) if l == *len && s == *sum => {}
            Some(&(_, l, s)) => diff.push(format!(
                "  {label}: pinned ({l}, {s:#018x}), got ({len}, {sum:#018x})"
            )),
            None => diff.push(format!(
                "  (\"{label}\", {len}, {sum:#018x}),  <- not pinned"
            )),
        }
    }
    for (label, ..) in expected {
        if !actual.iter().any(|row| row.0 == *label) {
            diff.push(format!("  {label}: pinned but not produced"));
        }
    }
    assert!(
        diff.is_empty(),
        "{} of {} rings differ from the pinned fingerprints:\n{}",
        diff.len(),
        expected.len().max(actual.len()),
        diff.join("\n")
    );
}

/// The Theorem-1 fault sets of the embed matrix at dimension `n`.
fn embed_fault_sets(n: usize) -> Vec<(String, FaultSet)> {
    const SEED: u64 = 11;
    let mut sizes = vec![0, 1, n - 3];
    sizes.dedup();
    let mut out = Vec::new();
    for fv in sizes {
        if fv == 0 {
            out.push(("fv0/none".to_string(), FaultSet::empty(n)));
            continue;
        }
        out.push((
            format!("fv{fv}/random"),
            gen::random_vertex_faults(n, fv, SEED).unwrap(),
        ));
        out.push((
            format!("fv{fv}/worst"),
            gen::worst_case_same_partite(n, fv, Parity::Even, SEED).unwrap(),
        ));
        out.push((
            format!("fv{fv}/clustered"),
            gen::clustered_in_substar(n, fv, 4, SEED).unwrap(),
        ));
    }
    out
}

fn embed_rings(dims: std::ops::RangeInclusive<usize>) -> Vec<(String, usize, u64)> {
    let mut out = Vec::new();
    for n in dims {
        for (name, faults) in embed_fault_sets(n) {
            for (spare_index, salt) in [(0usize, 0usize), (1, 3), (2, 5)] {
                let opts = EmbedOptions {
                    spare_index,
                    salt,
                    ..EmbedOptions::default()
                };
                let ring = embed_with_options(n, &faults, &opts).unwrap();
                let label = format!("embed/n{n}/{name}/spare{spare_index}/salt{salt}");
                out.push(fingerprint(label, ring.vertices()));
            }
        }
    }
    out
}

#[test]
fn embed_rings_match_the_pinned_fingerprints() {
    assert_rows(&embed_rings(4..=8), EMBED);
}

#[test]
#[ignore = "n = 9 embeds take tens of seconds in a debug build; nightly runs them"]
fn embed_rings_match_the_pinned_fingerprints_n9() {
    assert_rows(&embed_rings(9..=9), EMBED_N9);
}

#[test]
fn mixed_rings_match_the_pinned_fingerprints() {
    let mut actual = Vec::new();
    for n in 4..=8usize {
        for fv in 0..=n - 3 {
            let fe = n - 3 - fv;
            for seed in [1u64, 2] {
                let faults = gen::mixed_faults(n, fv, fe, seed).unwrap();
                let ring = embed_with_mixed_faults(n, &faults).unwrap();
                let label = format!("mixed/n{n}/fv{fv}/fe{fe}/seed{seed}");
                actual.push(fingerprint(label, ring.vertices()));
            }
        }
    }
    assert_rows(&actual, MIXED);
}

#[test]
fn tseng_rings_match_the_pinned_fingerprints() {
    let mut actual = Vec::new();
    for n in 6..=8usize {
        for (name, faults) in embed_fault_sets(n) {
            if faults.vertex_fault_count() == 0 {
                continue; // delegated to the optimal embedder
            }
            let ring = tseng_vertex_ring(n, &faults).unwrap();
            actual.push(fingerprint(format!("tseng/n{n}/{name}"), ring.vertices()));
        }
    }
    assert_rows(&actual, TSENG);
}

/// SplitMix64: a fixed, dependency-free victim sequence.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_10EB);
    z ^ (z >> 31)
}

#[test]
fn repair_sequences_match_the_pinned_fingerprints() {
    let mut actual = Vec::new();
    let mut repaired_twice = false;
    for n in 6..=8usize {
        let mut mr = MaintainedRing::new(n, &FaultSet::empty(n)).unwrap();
        let mut rng = 0x5EED_0000 + n as u64;
        let mut last_at: Option<usize> = None;
        let mut local_blocks = Vec::new();
        for step in 0..2 * (n - 3) + 2 {
            let ring = mr.ring().into_vertices();
            // Every other step strikes two ring positions past the last
            // victim: usually the same block again, which drives a second
            // fault into one block (the exact search) or onto a seam.
            let at = match last_at {
                Some(at) if step % 2 == 1 => (at + 2) % ring.len(),
                _ => splitmix(&mut rng) as usize % ring.len(),
            };
            last_at = Some(at);
            let outcome = mr.fail(ring[at]);
            if let Ok(RepairOutcome::Local { block }) = outcome {
                repaired_twice |= local_blocks.contains(&block);
                local_blocks.push(block);
            }
            let label = format!("repair/n{n}/step{step}/{outcome:?}");
            actual.push(fingerprint(label, mr.ring().vertices()));
        }
    }
    assert!(
        repaired_twice,
        "the sequence must repair some block twice (second fault in one block)"
    );
    // Edge faults: the fault-free ring's 11th step lies inside block 0, and
    // edge faults leave the block structure as it is, so the faulty edge
    // sits inside block 0 of the new ring too. Each victim lands in that
    // block, whose repair must then dodge the edge.
    for n in 6..=8usize {
        let probe = MaintainedRing::new(n, &FaultSet::empty(n)).unwrap();
        let probe = probe.ring().into_vertices();
        let edge = Edge::new(probe[10], probe[11]).unwrap();
        let faults = FaultSet::from_edges(n, [edge]).unwrap();
        let mut mr = MaintainedRing::new(n, &faults).unwrap();
        actual.push(fingerprint(
            format!("repair/n{n}/edge/new"),
            mr.ring().vertices(),
        ));
        for step in 0..3 {
            let victim = mr.ring().vertices()[6 + 4 * step];
            let outcome = mr.fail(victim);
            let label = format!("repair/n{n}/edge/step{step}/{outcome:?}");
            actual.push(fingerprint(label, mr.ring().vertices()));
        }
    }
    assert_rows(&actual, REPAIR);
}

#[rustfmt::skip]
const EMBED: &[Row] = &[
    ("embed/n4/fv0/none/spare0/salt0", 24, 0xd156fdc65dab3365),
    ("embed/n4/fv0/none/spare1/salt3", 24, 0xd156fdc65dab3365),
    ("embed/n4/fv0/none/spare2/salt5", 24, 0xd156fdc65dab3365),
    ("embed/n4/fv1/random/spare0/salt0", 22, 0xc064a09c50616953),
    ("embed/n4/fv1/random/spare1/salt3", 22, 0xc064a09c50616953),
    ("embed/n4/fv1/random/spare2/salt5", 22, 0xc064a09c50616953),
    ("embed/n4/fv1/worst/spare0/salt0", 22, 0xf9d6614158ea2e5f),
    ("embed/n4/fv1/worst/spare1/salt3", 22, 0xf9d6614158ea2e5f),
    ("embed/n4/fv1/worst/spare2/salt5", 22, 0xf9d6614158ea2e5f),
    ("embed/n4/fv1/clustered/spare0/salt0", 22, 0xc064a09c50616953),
    ("embed/n4/fv1/clustered/spare1/salt3", 22, 0xc064a09c50616953),
    ("embed/n4/fv1/clustered/spare2/salt5", 22, 0xc064a09c50616953),
    ("embed/n5/fv0/none/spare0/salt0", 120, 0x7eb955db2fd73fa5),
    ("embed/n5/fv0/none/spare1/salt3", 120, 0x70fdd3292447e065),
    ("embed/n5/fv0/none/spare2/salt5", 120, 0xd7bfd8042aa03a05),
    ("embed/n5/fv1/random/spare0/salt0", 118, 0xf2a046b885e12113),
    ("embed/n5/fv1/random/spare1/salt3", 118, 0x831e6523d38ad207),
    ("embed/n5/fv1/random/spare2/salt5", 118, 0x432964c7977b6e9d),
    ("embed/n5/fv1/worst/spare0/salt0", 118, 0xf2a046b885e12113),
    ("embed/n5/fv1/worst/spare1/salt3", 118, 0x831e6523d38ad207),
    ("embed/n5/fv1/worst/spare2/salt5", 118, 0x432964c7977b6e9d),
    ("embed/n5/fv1/clustered/spare0/salt0", 118, 0x2937cee46d61f072),
    ("embed/n5/fv1/clustered/spare1/salt3", 118, 0x06bb2ab44a838fe7),
    ("embed/n5/fv1/clustered/spare2/salt5", 118, 0xa3c2aa473c4a755b),
    ("embed/n5/fv2/random/spare0/salt0", 116, 0xd7a55cdab36b34b8),
    ("embed/n5/fv2/random/spare1/salt3", 116, 0x14a53d3be55ffcc6),
    ("embed/n5/fv2/random/spare2/salt5", 116, 0x8dcf9fe72b4615d6),
    ("embed/n5/fv2/worst/spare0/salt0", 116, 0xd7a55cdab36b34b8),
    ("embed/n5/fv2/worst/spare1/salt3", 116, 0x14a53d3be55ffcc6),
    ("embed/n5/fv2/worst/spare2/salt5", 116, 0x8dcf9fe72b4615d6),
    ("embed/n5/fv2/clustered/spare0/salt0", 116, 0xc1793ab8a1f39fc8),
    ("embed/n5/fv2/clustered/spare1/salt3", 116, 0x72c0fb5f74c974d8),
    ("embed/n5/fv2/clustered/spare2/salt5", 116, 0x36e92dfb00479d79),
    ("embed/n6/fv0/none/spare0/salt0", 720, 0x7fde66e34ddb8a25),
    ("embed/n6/fv0/none/spare1/salt3", 720, 0xfe99cbb29464c529),
    ("embed/n6/fv0/none/spare2/salt5", 720, 0x9250f3773bc01dd1),
    ("embed/n6/fv1/random/spare0/salt0", 718, 0x01605cbddde50f9f),
    ("embed/n6/fv1/random/spare1/salt3", 718, 0x465adaccc462002a),
    ("embed/n6/fv1/random/spare2/salt5", 718, 0x10cc566c5f043725),
    ("embed/n6/fv1/worst/spare0/salt0", 718, 0x01605cbddde50f9f),
    ("embed/n6/fv1/worst/spare1/salt3", 718, 0x465adaccc462002a),
    ("embed/n6/fv1/worst/spare2/salt5", 718, 0x10cc566c5f043725),
    ("embed/n6/fv1/clustered/spare0/salt0", 718, 0xbc9a660df2093870),
    ("embed/n6/fv1/clustered/spare1/salt3", 718, 0xf2b7e1233c8547b2),
    ("embed/n6/fv1/clustered/spare2/salt5", 718, 0xe3fbf0a245ccf01a),
    ("embed/n6/fv3/random/spare0/salt0", 714, 0x256f2167d8ca0ff9),
    ("embed/n6/fv3/random/spare1/salt3", 714, 0x3706c6d8bc5dc94b),
    ("embed/n6/fv3/random/spare2/salt5", 714, 0x88947a1bd4632965),
    ("embed/n6/fv3/worst/spare0/salt0", 714, 0xcc0693d4c303eabf),
    ("embed/n6/fv3/worst/spare1/salt3", 714, 0x625a371fe1ecae9d),
    ("embed/n6/fv3/worst/spare2/salt5", 714, 0xd476b2ace17c4897),
    ("embed/n6/fv3/clustered/spare0/salt0", 714, 0x828f15086fa76d00),
    ("embed/n6/fv3/clustered/spare1/salt3", 714, 0x602b1f284916293c),
    ("embed/n6/fv3/clustered/spare2/salt5", 714, 0x597fd51a6618d0ba),
    ("embed/n7/fv0/none/spare0/salt0", 5040, 0xb5bacabeef856581),
    ("embed/n7/fv0/none/spare1/salt3", 5040, 0x112dcfc260f8542d),
    ("embed/n7/fv0/none/spare2/salt5", 5040, 0xce18da18e98cfead),
    ("embed/n7/fv1/random/spare0/salt0", 5038, 0xef76854a20296a06),
    ("embed/n7/fv1/random/spare1/salt3", 5038, 0x325d9ed23e9081c5),
    ("embed/n7/fv1/random/spare2/salt5", 5038, 0x034c116d2fed9d89),
    ("embed/n7/fv1/worst/spare0/salt0", 5038, 0x9c8eb5fa18f29e00),
    ("embed/n7/fv1/worst/spare1/salt3", 5038, 0xcf64356d9df531e9),
    ("embed/n7/fv1/worst/spare2/salt5", 5038, 0x629f7220660a04a0),
    ("embed/n7/fv1/clustered/spare0/salt0", 5038, 0x55eaf3c38ca11953),
    ("embed/n7/fv1/clustered/spare1/salt3", 5038, 0xe3dc0c28d9838b4f),
    ("embed/n7/fv1/clustered/spare2/salt5", 5038, 0x231e227a2b979a02),
    ("embed/n7/fv4/random/spare0/salt0", 5032, 0xec5cb37300770fe0),
    ("embed/n7/fv4/random/spare1/salt3", 5032, 0xb0cc1de1dd56dddd),
    ("embed/n7/fv4/random/spare2/salt5", 5032, 0xb637486f05056cf8),
    ("embed/n7/fv4/worst/spare0/salt0", 5032, 0xf6e5ee7a030c5403),
    ("embed/n7/fv4/worst/spare1/salt3", 5032, 0xb40f8089335cc2b2),
    ("embed/n7/fv4/worst/spare2/salt5", 5032, 0x610eca285da31af7),
    ("embed/n7/fv4/clustered/spare0/salt0", 5032, 0xbc3874c643f8af5d),
    ("embed/n7/fv4/clustered/spare1/salt3", 5032, 0xf6357f86abee1008),
    ("embed/n7/fv4/clustered/spare2/salt5", 5032, 0x5f76335b46683699),
    ("embed/n8/fv0/none/spare0/salt0", 40320, 0xd3ac4be4b1cab36d),
    ("embed/n8/fv0/none/spare1/salt3", 40320, 0xdf59b389fe05404d),
    ("embed/n8/fv0/none/spare2/salt5", 40320, 0xbc950d1def0d305d),
    ("embed/n8/fv1/random/spare0/salt0", 40318, 0xea25ec165068db8a),
    ("embed/n8/fv1/random/spare1/salt3", 40318, 0xdfa63230e57c50cc),
    ("embed/n8/fv1/random/spare2/salt5", 40318, 0x3bf9e45e45562384),
    ("embed/n8/fv1/worst/spare0/salt0", 40318, 0xea25ec165068db8a),
    ("embed/n8/fv1/worst/spare1/salt3", 40318, 0xdfa63230e57c50cc),
    ("embed/n8/fv1/worst/spare2/salt5", 40318, 0x3bf9e45e45562384),
    ("embed/n8/fv1/clustered/spare0/salt0", 40318, 0x744be5d3aa4ff8f8),
    ("embed/n8/fv1/clustered/spare1/salt3", 40318, 0xc008a17608be3274),
    ("embed/n8/fv1/clustered/spare2/salt5", 40318, 0xfeee8890a2fc21f5),
    ("embed/n8/fv5/random/spare0/salt0", 40310, 0x63f2309438664707),
    ("embed/n8/fv5/random/spare1/salt3", 40310, 0xd424fe82094da9b5),
    ("embed/n8/fv5/random/spare2/salt5", 40310, 0xbbaec8f50d905e01),
    ("embed/n8/fv5/worst/spare0/salt0", 40310, 0x9c7fb3dfc4cfe006),
    ("embed/n8/fv5/worst/spare1/salt3", 40310, 0xa17f7f91508f5ca3),
    ("embed/n8/fv5/worst/spare2/salt5", 40310, 0x66eac0c989c0d22f),
    ("embed/n8/fv5/clustered/spare0/salt0", 40310, 0xbda5f916c10ff685),
    ("embed/n8/fv5/clustered/spare1/salt3", 40310, 0x604d080a6a451e82),
    ("embed/n8/fv5/clustered/spare2/salt5", 40310, 0x532a1164ba910e55),
];

#[rustfmt::skip]
const EMBED_N9: &[Row] = &[
    ("embed/n9/fv0/none/spare0/salt0", 362880, 0xf5626068870633f5),
    ("embed/n9/fv0/none/spare1/salt3", 362880, 0x540bbb20f153d945),
    ("embed/n9/fv0/none/spare2/salt5", 362880, 0xe3160f55d1959181),
    ("embed/n9/fv1/random/spare0/salt0", 362878, 0x1ed54487360c690e),
    ("embed/n9/fv1/random/spare1/salt3", 362878, 0xef18ef698124b3e7),
    ("embed/n9/fv1/random/spare2/salt5", 362878, 0xf2d1f305626fe0f3),
    ("embed/n9/fv1/worst/spare0/salt0", 362878, 0xa9cedf38f700ca7c),
    ("embed/n9/fv1/worst/spare1/salt3", 362878, 0x78731a5130efe0d4),
    ("embed/n9/fv1/worst/spare2/salt5", 362878, 0xf8800b822c9daf18),
    ("embed/n9/fv1/clustered/spare0/salt0", 362878, 0xbf1fab6fe49ff930),
    ("embed/n9/fv1/clustered/spare1/salt3", 362878, 0x615b0752f6f2e229),
    ("embed/n9/fv1/clustered/spare2/salt5", 362878, 0x6ed8be4cd80f69fd),
    ("embed/n9/fv6/random/spare0/salt0", 362868, 0xdc3514fb540fd7df),
    ("embed/n9/fv6/random/spare1/salt3", 362868, 0x6b3f88bb3e1548c6),
    ("embed/n9/fv6/random/spare2/salt5", 362868, 0x68f933e21930419c),
    ("embed/n9/fv6/worst/spare0/salt0", 362868, 0xdb097017b9d7cf9d),
    ("embed/n9/fv6/worst/spare1/salt3", 362868, 0xd0cbf3f06c114c70),
    ("embed/n9/fv6/worst/spare2/salt5", 362868, 0x4ea0f0a9f5831290),
    ("embed/n9/fv6/clustered/spare0/salt0", 362868, 0x721c6269470c34ff),
    ("embed/n9/fv6/clustered/spare1/salt3", 362868, 0x9b79b2e03f27543f),
    ("embed/n9/fv6/clustered/spare2/salt5", 362868, 0x098162119a92f8d9),
];

#[rustfmt::skip]
const MIXED: &[Row] = &[
    ("mixed/n4/fv0/fe1/seed1", 24, 0x91abb3257fb86265),
    ("mixed/n4/fv0/fe1/seed2", 24, 0x91abb3257fb86265),
    ("mixed/n4/fv1/fe0/seed1", 22, 0x736b043b85f28a53),
    ("mixed/n4/fv1/fe0/seed2", 22, 0xc7d81174952953dc),
    ("mixed/n5/fv0/fe2/seed1", 120, 0xe96f6b2d42b4dce5),
    ("mixed/n5/fv0/fe2/seed2", 120, 0x923fbc77bc0495c5),
    ("mixed/n5/fv1/fe1/seed1", 118, 0x21ee3c76f81a4574),
    ("mixed/n5/fv1/fe1/seed2", 118, 0xdd7d48366a3b1419),
    ("mixed/n5/fv2/fe0/seed1", 116, 0x97287075714d63cf),
    ("mixed/n5/fv2/fe0/seed2", 116, 0x910583e654d77721),
    ("mixed/n6/fv0/fe3/seed1", 720, 0x3f09156ea5106745),
    ("mixed/n6/fv0/fe3/seed2", 720, 0xd4c96588f1558d79),
    ("mixed/n6/fv1/fe2/seed1", 718, 0xe104d6f253c5a6be),
    ("mixed/n6/fv1/fe2/seed2", 718, 0x367b632213123549),
    ("mixed/n6/fv2/fe1/seed1", 716, 0x0730a55483f0a9ef),
    ("mixed/n6/fv2/fe1/seed2", 716, 0xdd867a538181c357),
    ("mixed/n6/fv3/fe0/seed1", 714, 0x8a5b0c939fdbdf05),
    ("mixed/n6/fv3/fe0/seed2", 714, 0xc38661ddcd8d6d94),
    ("mixed/n7/fv0/fe4/seed1", 5040, 0xeb72028b12a99485),
    ("mixed/n7/fv0/fe4/seed2", 5040, 0xb0760e58ee2fd149),
    ("mixed/n7/fv1/fe3/seed1", 5038, 0x08b6f8ca4812eaab),
    ("mixed/n7/fv1/fe3/seed2", 5038, 0x383e86e59f97edd9),
    ("mixed/n7/fv2/fe2/seed1", 5036, 0x47f93349a9aa270e),
    ("mixed/n7/fv2/fe2/seed2", 5036, 0xe1180acbbf2d5083),
    ("mixed/n7/fv3/fe1/seed1", 5034, 0xe8df9d18d22fd2af),
    ("mixed/n7/fv3/fe1/seed2", 5034, 0xd101445f6785b9e2),
    ("mixed/n7/fv4/fe0/seed1", 5032, 0x0f28121834788c03),
    ("mixed/n7/fv4/fe0/seed2", 5032, 0xd154c41c7453ae1d),
    ("mixed/n8/fv0/fe5/seed1", 40320, 0xd09b2691cd2863d1),
    ("mixed/n8/fv0/fe5/seed2", 40320, 0x2df1f8dbbb9c1b15),
    ("mixed/n8/fv1/fe4/seed1", 40318, 0xb6d7b8f6685d24a2),
    ("mixed/n8/fv1/fe4/seed2", 40318, 0xc8a4d4c0d8e6b83c),
    ("mixed/n8/fv2/fe3/seed1", 40316, 0x9a41f61b5a3ea336),
    ("mixed/n8/fv2/fe3/seed2", 40316, 0xda54302f4b20f66b),
    ("mixed/n8/fv3/fe2/seed1", 40314, 0x0fd81933f5ed46fe),
    ("mixed/n8/fv3/fe2/seed2", 40314, 0xc391124204711fe1),
    ("mixed/n8/fv4/fe1/seed1", 40312, 0x9ca2258375c1d7d1),
    ("mixed/n8/fv4/fe1/seed2", 40312, 0x545ca2f3f6c745af),
    ("mixed/n8/fv5/fe0/seed1", 40310, 0xc204c63c07e90f16),
    ("mixed/n8/fv5/fe0/seed2", 40310, 0x5c4fa0c3a108ddd4),
];

#[rustfmt::skip]
const TSENG: &[Row] = &[
    ("tseng/n6/fv1/random", 716, 0xf1d88751a7a8823a),
    ("tseng/n6/fv1/worst", 716, 0xf1d88751a7a8823a),
    ("tseng/n6/fv1/clustered", 716, 0x1a86856a3327e62c),
    ("tseng/n6/fv3/random", 708, 0x73985be953660b22),
    ("tseng/n6/fv3/worst", 708, 0xad5cdac2c73d9bde),
    ("tseng/n6/fv3/clustered", 708, 0x078a34d4b29669bf),
    ("tseng/n7/fv1/random", 5036, 0x9744956a2a27ec1f),
    ("tseng/n7/fv1/worst", 5036, 0xdfefcbb851f6e595),
    ("tseng/n7/fv1/clustered", 5036, 0xc4843031640a221c),
    ("tseng/n7/fv4/random", 5024, 0x1697f8984f38bb82),
    ("tseng/n7/fv4/worst", 5024, 0x46335bd026407b7f),
    ("tseng/n7/fv4/clustered", 5024, 0x7fe4b5ee79650c90),
    ("tseng/n8/fv1/random", 40316, 0x886c2c17992eb549),
    ("tseng/n8/fv1/worst", 40316, 0x886c2c17992eb549),
    ("tseng/n8/fv1/clustered", 40316, 0x1ec8e0f1e776662c),
    ("tseng/n8/fv5/random", 40300, 0x2bf61f03b085a8c5),
    ("tseng/n8/fv5/worst", 40300, 0x2fde6911910956db),
    ("tseng/n8/fv5/clustered", 40300, 0x6f2fce7f7579c8ca),
];

#[rustfmt::skip]
const REPAIR: &[Row] = &[
    ("repair/n6/step0/Ok(Local { block: 10 })", 718, 0xd058f834d5892b13),
    ("repair/n6/step1/Ok(Global)", 716, 0x93fb422305017b8a),
    ("repair/n6/step2/Ok(Local { block: 29 })", 714, 0x783cc27cc7516983),
    ("repair/n6/step3/Ok(Local { block: 29 })", 712, 0x4e1dbb48a39018c6),
    ("repair/n6/step4/Ok(Local { block: 4 })", 710, 0x7dc9c8ebae5309d3),
    ("repair/n6/step5/Ok(Local { block: 4 })", 708, 0x42e337b61278cd29),
    ("repair/n6/step6/Ok(Local { block: 1 })", 706, 0x77d77af37486139a),
    ("repair/n6/step7/Ok(Local { block: 1 })", 704, 0x98a96ef1440b9411),
    ("repair/n7/step0/Ok(Local { block: 202 })", 5038, 0x975af2b3c02091f0),
    ("repair/n7/step1/Ok(Local { block: 202 })", 5036, 0x2580d899761ee093),
    ("repair/n7/step2/Ok(Local { block: 192 })", 5034, 0x18025414a1e65f17),
    ("repair/n7/step3/Ok(Local { block: 192 })", 5032, 0x1c1e6e2f7e7b92db),
    ("repair/n7/step4/Ok(Local { block: 125 })", 5030, 0xa622b8215f54e886),
    ("repair/n7/step5/Ok(Local { block: 125 })", 5028, 0x39e7b30ed216805d),
    ("repair/n7/step6/Ok(Local { block: 55 })", 5026, 0xb2bf871e18282dad),
    ("repair/n7/step7/Ok(Local { block: 55 })", 5024, 0x384ab93189f91158),
    ("repair/n7/step8/Ok(Local { block: 190 })", 5022, 0x6961abae649619d3),
    ("repair/n7/step9/Err(TooManyFaults { supplied: 5, budget: 4 })", 5022, 0x6961abae649619d3),
    ("repair/n8/step0/Ok(Local { block: 954 })", 40318, 0x0615770ee6bfcd6e),
    ("repair/n8/step1/Ok(Local { block: 954 })", 40316, 0x2d77d66c11722d4d),
    ("repair/n8/step2/Ok(Global)", 40314, 0x37d7306eef505e3f),
    ("repair/n8/step3/Ok(Local { block: 448 })", 40312, 0x4452a9f70b7c0d43),
    ("repair/n8/step4/Ok(Local { block: 714 })", 40310, 0x1923e160deb08b53),
    ("repair/n8/step5/Ok(Local { block: 715 })", 40308, 0xbfa48b99248907c6),
    ("repair/n8/step6/Ok(Local { block: 980 })", 40306, 0x6aa5f47b373c1f75),
    ("repair/n8/step7/Ok(Local { block: 980 })", 40304, 0x5afc1f42f63e5729),
    ("repair/n8/step8/Err(TooManyFaults { supplied: 6, budget: 5 })", 40304, 0x5afc1f42f63e5729),
    ("repair/n8/step9/Ok(Local { block: 1118 })", 40302, 0x5a88e023a66273a5),
    ("repair/n8/step10/Err(TooManyFaults { supplied: 6, budget: 5 })", 40302, 0x5a88e023a66273a5),
    ("repair/n8/step11/Ok(Local { block: 231 })", 40300, 0x7bb87ec643f58582),
    ("repair/n6/edge/new", 720, 0x7beec14f3506e8c5),
    ("repair/n6/edge/step0/Ok(Local { block: 0 })", 718, 0x161461bf15456a4c),
    ("repair/n6/edge/step1/Ok(Local { block: 0 })", 716, 0x8dca71c3abfcbc83),
    ("repair/n6/edge/step2/Ok(Local { block: 0 })", 714, 0xe30474877e8b9a75),
    ("repair/n7/edge/new", 5040, 0x427c8cb671c011f5),
    ("repair/n7/edge/step0/Ok(Local { block: 0 })", 5038, 0x63c4eae64dbc7d21),
    ("repair/n7/edge/step1/Ok(Local { block: 0 })", 5036, 0x1be5d896b7641bb5),
    ("repair/n7/edge/step2/Ok(Global)", 5034, 0x500c411c9dbabc36),
    ("repair/n8/edge/new", 40320, 0x7289d128a86622d1),
    ("repair/n8/edge/step0/Ok(Local { block: 0 })", 40318, 0x488e17d41aebfe56),
    ("repair/n8/edge/step1/Ok(Local { block: 0 })", 40316, 0xf504bfecf64d63c0),
    ("repair/n8/edge/step2/Ok(Global)", 40314, 0x6d40f3e6d0e45f26),
];
