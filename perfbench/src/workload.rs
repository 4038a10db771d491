//! Seeded workload plans: the arrival schedule and every fault set the
//! server will see, derived from `--seed` alone.
//!
//! Every workload runs at `n = 9` with `|F_v| = 6`, the full `n - 3`
//! budget, so every verified ring has exactly `9! - 12 = 362,868`
//! vertices. Arrivals are open-loop Poisson at a fixed rate per workload,
//! `rate × seconds` of them per run (see [`poisson_schedule`]).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use star_perm::{factorial, Aut, Perm};
use star_ring::EmbedOptions;
use star_serve::cache::{key_for, CacheKey, SHARDS};

/// Star-graph dimension of every request.
pub const N: usize = 9;
/// Vertex faults per request (`n - 3`).
pub const FAULTS: usize = 6;
/// Ring length every answer must have: `n! - 2|F_v|`.
pub const RING_LEN: u64 = 362_880 - 2 * FAULTS as u64;
/// Server worker threads (`serve --threads`).
pub const SERVER_THREADS: usize = 1;

/// Setup requests sent before `cold`'s timed window (fresh orbits).
const COLD_WARMUPS: usize = 2;
/// Base fault sets requested once during `orbit`'s setup.
const ORBIT_BASES: usize = 8;
/// Candidate scenarios drawn for `restart`'s pool before the LRU filter.
const RESTART_CANDIDATES: usize = 24;
/// `restart`'s LRU budget in MiB: 4 MiB over 16 shards is 256 KiB per
/// shard, which holds one n = 9 ring delta (~177 KiB) but not two.
pub const RESTART_CACHE_MB: usize = 4;

/// The three traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Every request is a fresh orbit: a cold miss that embeds and writes
    /// the store.
    Cold,
    /// Every request is a fresh automorphic image of a base set: a
    /// canonical hit.
    Orbit,
    /// Every request repeats a stored pool scenario on a restarted server
    /// whose LRU cannot hold it: a store hit.
    Restart,
}

impl Kind {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Result<Kind, String> {
        match name {
            "cold" => Ok(Kind::Cold),
            "orbit" => Ok(Kind::Orbit),
            "restart" => Ok(Kind::Restart),
            other => Err(format!(
                "unknown workload `{other}` (cold | orbit | restart)"
            )),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Orbit => "orbit",
            Kind::Restart => "restart",
        }
    }

    /// Offered load in requests per second. Each rate keeps the single
    /// server worker and the client's verifier at most about a third busy
    /// on two cores, so a median request waits for neither.
    pub fn rate_per_s(self) -> f64 {
        match self {
            Kind::Cold => 2.5,
            Kind::Orbit => 4.0,
            Kind::Restart => 4.0,
        }
    }

    /// Extra `serve` flags beyond `--threads` and `--oracle-path`.
    pub fn server_flags(self) -> Vec<String> {
        match self {
            Kind::Restart => vec!["--cache-mb".to_string(), RESTART_CACHE_MB.to_string()],
            Kind::Cold | Kind::Orbit => Vec::new(),
        }
    }
}

/// Everything one run sends, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// The workload.
    pub kind: Kind,
    /// Send offset of each timed request from the start of the window.
    pub schedule: Vec<Duration>,
    /// The fault set of each timed request (literal, as sent).
    pub timed: Vec<Vec<Perm>>,
    /// Requests sent to the first server of a setup: `cold`'s warm-ups,
    /// `orbit`'s base sets, `restart`'s pool (which fills the store).
    pub setup: Vec<Vec<Perm>>,
    /// `restart` only: the untimed pass on the restarted server that
    /// fills the canonicalizer memo.
    pub memo_pass: Vec<Vec<Perm>>,
}

/// SplitMix64: a tiny, fully specified generator, so a seed means the
/// same inputs on every platform and toolchain.
struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed.
    fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (bound well below 2^32, so the modulo bias
    /// is negligible).
    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// `FAULTS` distinct vertices of `S_N`, uniformly at random.
fn random_fault_set(rng: &mut Rng) -> Vec<Perm> {
    let mut ranks: Vec<u32> = Vec::with_capacity(FAULTS);
    while ranks.len() < FAULTS {
        let r = rng.below(factorial(N)) as u32;
        if !ranks.contains(&r) {
            ranks.push(r);
        }
    }
    ranks
        .into_iter()
        .map(|r| Perm::unrank(N, r).expect("rank below n!"))
        .collect()
}

/// The server's cache/store key for a literal fault set (default embed
/// options, as every benchmark request uses).
fn cache_key(faults: &[Perm]) -> CacheKey {
    let ranks: Vec<u32> = faults.iter().map(Perm::rank).collect();
    key_for(
        &star_oracle::canonicalize(N, &ranks),
        &EmbedOptions::default(),
    )
}

/// The LRU shard a key lands in: the hash `star-serve`'s cache uses
/// (`DefaultHasher` with its fixed keys, modulo [`SHARDS`]). The
/// benchmark only uses it to choose `restart`'s pool; the run's traffic
/// check catches any drift, because a pool that fits a shard shows up as
/// LRU hits.
fn shard_of(key: &CacheKey) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % SHARDS as u64) as usize
}

/// Keeps the candidates that share their LRU shard with at least one
/// other candidate (and drops repeated orbits). Visiting the survivors
/// round-robin then misses a one-ring-per-shard LRU on every request: a
/// shard's next request always names a key other than the one it holds.
fn thrashing_pool(candidates: Vec<Vec<Perm>>) -> Vec<Vec<Perm>> {
    let mut seen = std::collections::HashSet::new();
    let keyed: Vec<(usize, Vec<Perm>)> = candidates
        .into_iter()
        .filter_map(|faults| {
            let key = cache_key(&faults);
            let shard = shard_of(&key);
            seen.insert(key).then_some((shard, faults))
        })
        .collect();
    let mut per_shard: HashMap<usize, usize> = HashMap::new();
    for (shard, _) in &keyed {
        *per_shard.entry(*shard).or_default() += 1;
    }
    keyed
        .into_iter()
        .filter(|(shard, _)| per_shard[shard] >= 2)
        .map(|(_, faults)| faults)
        .collect()
}

/// Send offsets of `count` Poisson arrivals at `rate` per second, with
/// stratified gaps: the gaps are the `count` evenly spaced quantiles of
/// the exponential distribution, in an order the seed shuffles. Each gap
/// is still exponentially distributed and the arrivals stay open-loop,
/// but every seed offers the same mix of short and long gaps, so runs
/// differ in where the bursts fall, not in how many there are.
fn poisson_schedule(rate: f64, count: usize, rng: &mut Rng) -> Vec<Duration> {
    let mut gaps: Vec<f64> = (0..count)
        .map(|i| -(1.0 - (i as f64 + 0.5) / count as f64).ln() / rate)
        .collect();
    for i in (1..gaps.len()).rev() {
        gaps.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut at = 0.0;
    gaps.into_iter()
        .map(|gap| {
            let offset = Duration::from_secs_f64(at);
            at += gap;
            offset
        })
        .collect()
}

/// The image of a fault set under an automorphism of `S_N`.
fn image(aut: &Aut, faults: &[Perm]) -> Vec<Perm> {
    faults.iter().map(|f| aut.apply(f)).collect()
}

impl Plan {
    /// Builds the plan for `kind` over a `seconds`-long window.
    pub fn generate(kind: Kind, seed: u64, seconds: u64) -> Plan {
        let count = ((kind.rate_per_s() * seconds as f64).round() as usize).max(1);
        let schedule = poisson_schedule(kind.rate_per_s(), count, &mut Rng::new(seed, 1));

        let mut faults = Rng::new(seed, 2);
        let (setup, timed, memo_pass) = match kind {
            Kind::Cold => (
                (0..COLD_WARMUPS)
                    .map(|_| random_fault_set(&mut faults))
                    .collect(),
                (0..count).map(|_| random_fault_set(&mut faults)).collect(),
                Vec::new(),
            ),
            Kind::Orbit => {
                let bases: Vec<Vec<Perm>> = (0..ORBIT_BASES)
                    .map(|_| random_fault_set(&mut faults))
                    .collect();
                let timed = (0..count)
                    .map(|_| {
                        let base = &bases[faults.below(ORBIT_BASES as u64) as usize];
                        let aut = Aut::from_ranks(N, faults.next_u64(), faults.next_u64());
                        image(&aut, base)
                    })
                    .collect();
                (bases, timed, Vec::new())
            }
            Kind::Restart => {
                let pool = thrashing_pool(
                    (0..RESTART_CANDIDATES)
                        .map(|_| random_fault_set(&mut faults))
                        .collect(),
                );
                let timed = (0..count).map(|i| pool[i % pool.len()].clone()).collect();
                (pool.clone(), timed, pool)
            }
        };
        Plan {
            kind,
            schedule,
            timed,
            setup,
            memo_pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        for kind in [Kind::Cold, Kind::Orbit, Kind::Restart] {
            let a = Plan::generate(kind, 7, 4);
            let b = Plan::generate(kind, 7, 4);
            let c = Plan::generate(kind, 8, 4);
            assert_eq!(a, b, "{}: one seed must give one plan", kind.name());
            assert_ne!(
                a.schedule,
                c.schedule,
                "{}: schedule ignores the seed",
                kind.name()
            );
            assert_ne!(
                a.timed,
                c.timed,
                "{}: requests ignore the seed",
                kind.name()
            );
            assert_eq!(a.timed.len(), a.schedule.len());
            assert!(a.schedule.windows(2).all(|w| w[0] <= w[1]));
            assert!(a.schedule.iter().all(|t| *t < Duration::from_secs(5)));
            for faults in a.timed.iter().chain(&a.setup) {
                assert_eq!(faults.len(), FAULTS);
            }
        }
    }

    #[test]
    fn orbit_requests_are_images_of_a_base_set() {
        let plan = Plan::generate(Kind::Orbit, 3, 2);
        let bases: Vec<CacheKey> = plan.setup.iter().map(|f| cache_key(f)).collect();
        for faults in &plan.timed {
            assert!(bases.contains(&cache_key(faults)));
            assert!(
                !plan.setup.contains(faults),
                "timed request repeats a base literally"
            );
        }
    }

    #[test]
    fn restart_pool_thrashes_a_one_ring_per_shard_lru() {
        let plan = Plan::generate(Kind::Restart, 5, 2);
        assert!(plan.setup.len() >= 4);
        let shards: Vec<usize> = plan.setup.iter().map(|f| shard_of(&cache_key(f))).collect();
        for s in &shards {
            assert!(shards.iter().filter(|t| *t == s).count() >= 2);
        }
        assert_eq!(plan.memo_pass, plan.setup);
    }
}
