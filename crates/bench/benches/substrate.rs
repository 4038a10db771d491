//! Criterion micro-benches for the substrate layers the embedder is built
//! on: permutation ops, distance, pattern/partition machinery, and the
//! Lemma-4 oracle hit path.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use star_fault::FaultSet;
use star_graph::{distance, partition, Pattern};
use star_perm::Perm;

fn bench_perm_ops(c: &mut Criterion) {
    let p = Perm::from_digits(9, 936185274);
    let q = Perm::from_digits(9, 123456789).star_move(5).star_move(2);
    let mut group = c.benchmark_group("perm");
    group.bench_function("star_move", |b| b.iter(|| black_box(&p).star_move(4)));
    group.bench_function("parity", |b| b.iter(|| black_box(&p).parity()));
    group.bench_function("rank", |b| b.iter(|| black_box(&p).rank()));
    group.bench_function("unrank", |b| {
        b.iter(|| Perm::unrank(9, black_box(123456)).unwrap())
    });
    group.bench_function("distance", |b| {
        b.iter(|| distance(black_box(&p), black_box(&q)))
    });
    group.finish();
}

fn bench_pattern_ops(c: &mut Criterion) {
    let pat = Pattern::from_spec(&[0, 3, 0, 0, 7, 0, 0, 1, 0]).unwrap();
    let member = pat.representative();
    let mut group = c.benchmark_group("pattern");
    group.bench_function("contains", |b| b.iter(|| pat.contains(black_box(&member))));
    group.bench_function("to_local", |b| b.iter(|| pat.to_local(black_box(&member))));
    group.bench_function("i_partition", |b| {
        b.iter(|| partition::i_partition(black_box(&pat), 2).unwrap())
    });
    group.finish();
}

fn bench_oracle(c: &mut Criterion) {
    // Steady-state oracle hit: all queries are memoized after the first.
    let block = Pattern::from_spec(&[0, 2, 0, 0, 5, 0]).unwrap();
    let members: Vec<Perm> = block.vertices().collect();
    let u = members[0];
    let v = members
        .iter()
        .find(|m| m.parity() != u.parity())
        .copied()
        .unwrap();
    let faults = FaultSet::empty(6);
    // Warm.
    let _ = star_ring::oracle::block_path(&block, &u, &v, &faults, 24).unwrap();
    c.bench_function("oracle/block_path_hit", |b| {
        b.iter(|| star_ring::oracle::block_path(black_box(&block), &u, &v, &faults, 24).unwrap())
    });
}

fn bench_routing(c: &mut Criterion) {
    use star_graph::fault_routing::route_avoiding;
    use star_graph::routing;
    let u = Perm::from_digits(8, 84736251);
    let v = Perm::from_digits(8, 12345678);
    let faults: Vec<Perm> = u.neighbors().take(2).collect();
    let mut group = c.benchmark_group("routing");
    group.bench_function("healthy_shortest_path_s8", |b| {
        b.iter(|| routing::shortest_path(black_box(&u), black_box(&v)))
    });
    group.bench_function("fault_avoiding_astar_s8", |b| {
        b.iter(|| {
            route_avoiding(
                black_box(&u),
                black_box(&v),
                |x| faults.contains(x),
                |_, _| false,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_laceable(c: &mut Criterion) {
    use star_baselines::laceable::hamiltonian_path;
    let p6 = Pattern::full(6);
    let u = Perm::identity(6);
    let v = u.star_move(3);
    c.bench_function("laceable/hamiltonian_path_s6", |b| {
        b.iter(|| hamiltonian_path(black_box(&p6), &u, &v).unwrap())
    });
}

criterion_group!(
    benches,
    bench_perm_ops,
    bench_pattern_ops,
    bench_oracle,
    bench_routing,
    bench_laceable
);
criterion_main!(benches);
