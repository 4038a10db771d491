//! Canonicalization of `(n, F_v)` under `Aut(S_n)`.
//!
//! Two fault sets in the same orbit of `Aut(S_n) = { p ↦ g∘p∘h : h(1)=1 }`
//! have isomorphic longest-ring answers, so the oracle keys on the orbit,
//! not the literal set. [`canonicalize`] picks the representative whose
//! sorted Lehmer-rank vector is lexicographically minimal over the whole
//! orbit and returns it together with the *witness* automorphism `σ` that
//! realizes it (`σ(F) = canonical`); callers map rings back through
//! `σ^{-1}`.
//!
//! ## Search space reduction
//!
//! The lex-min sorted rank vector always contains rank 0 (the identity):
//! for any anchor fault `f_j` and right part `h`, choosing
//! `g = (f_j ∘ h)^{-1}` sends `f_j` to the identity, and any image set
//! missing the identity sorts lex-greater. So the minimizing `σ` has
//! `g = (f_j ∘ h)^{-1}` for some `j`, which collapses the `n!·(n-1)!`
//! group to `k·(n-1)!` candidates `(j, h)`: the image of `f_i` is the
//! conjugate `h^{-1} (f_j^{-1} f_i) h`, and the canonical form is the
//! least sorted conjugate set over all anchors `j` and all `h ∈ Stab_1`.
//! Conjugates are nibble-packed into `u64` words whose integer order
//! equals one-line lexicographic order (= Lehmer rank order), so scoring a
//! candidate is integer compares.
//!
//! ## Scoring only the candidates that can win
//!
//! The first (smallest) word of the winning set is the least word any
//! candidate produces. For one difference `d = f_j^{-1} f_i`, the least
//! word over `h ∈ Stab_1` is the minimum of `d`'s conjugacy class under
//! `Stab_1`, and that class is fixed by `d`'s cycle type with the cycle
//! through symbol 1 marked (conjugating by `h` relabels each cycle through
//! `h^{-1}` and keeps 1 on the marked one). Its minimum `c` lays the
//! cycles out on consecutive positions: the marked cycle first, then the
//! other fixed points, then the other cycles by ascending length, each as
//! `s → s+1 → … → s+l-1 → s`. So the search
//!
//! 1. computes the class minimum of all `k(k-1)` differences and keeps
//!    the pairs `(j, i)` that reach the least one, `M`;
//! 2. for each kept pair, enumerates exactly the `h ∈ Stab_1` with
//!    `h^{-1} d h = c_M`. The marked cycle of `c_M` must land on `d`'s in
//!    step, so `h` is forced there; every other cycle maps onto an unused
//!    equal-length cycle of `d`, with any of its rotations. That set is a
//!    coset of the centralizer of `c_M` in `Stab_1`, at most `(n-2)!`
//!    elements for `n ≥ 6`;
//! 3. scores each `(j, h)` as the exhaustive sweep did and keeps the least
//!    by `(sorted words, Stab_1 rank of h, j)`. The sweep ran `h` in rank
//!    order outside `j` and kept the first strict minimum, so this picks
//!    the same witness and the canonical form is bit-identical.
//!
//! For one anchor the kept differences are distinct, so their cosets are
//! disjoint: no `h` is scored twice per anchor, and the search never
//! scores more than the sweep's `k·(n-1)!` candidates, whatever `k` is.
//! Uniform 6-fault sets at `n = 9` score a few dozen. Highly symmetric
//! sets score more: a vertex and five of its star neighbours score
//! `10 · 7! = 50,400`.
//!
//! Past [`MAX_EXACT_N`] we fall back to the sorted *literal* key with an
//! identity witness (`exact = false`): still a correct cache key, just
//! without orbit collapsing. A [`Canonicalizer`] memo keyed on the sorted
//! literal ranks keeps repeated literal requests off the search entirely.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use star_perm::cycles::CycleStructure;
use star_perm::{factorial, Aut, Perm, MAX_N};

/// Largest `n` for which the exact automorphism search runs.
pub const MAX_EXACT_N: usize = 9;

/// Largest fault count the exact search accepts (the embeddable regime is
/// `|F_v| <= n-3 <= MAX_EXACT_N - 3`; anything larger is headed for an
/// embed error anyway and only needs a *consistent* key, not a minimal
/// one).
pub const MAX_EXACT_FAULTS: usize = 8;

/// The canonical form of a `(n, F_v)` pair: the orbit-representative fault
/// ranks plus the witness automorphism that maps the caller's frame onto
/// it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Canon {
    n: usize,
    ranks: Vec<u32>,
    witness: Aut,
    exact: bool,
}

impl Canon {
    /// The permutation size `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sorted Lehmer ranks of the canonical fault set.
    #[inline]
    pub fn ranks(&self) -> &[u32] {
        &self.ranks
    }

    /// The witness `σ` with `σ(F_literal) = F_canonical`.
    #[inline]
    pub fn witness(&self) -> &Aut {
        &self.witness
    }

    /// `true` when the full automorphism search ran; `false` for the
    /// sorted-literal fallback (`n > MAX_EXACT_N` or oversized `F_v`).
    #[inline]
    pub fn exact(&self) -> bool {
        self.exact
    }

    /// The fault count `|F_v|`.
    #[inline]
    pub fn fault_count(&self) -> usize {
        self.ranks.len()
    }
}

/// Unpacks a nibble-packed one-line word (the inner loop packs values
/// high-nibble-first so that unsigned `u64` order equals lexicographic
/// order on the one-line form, which equals Lehmer-rank order).
fn unpack_word(n: usize, mut w: u64) -> Perm {
    let mut vals = [0u8; MAX_N];
    for p in (0..n).rev() {
        vals[p] = (w & 0xf) as u8;
        w >>= 4;
    }
    Perm::from_slice(&vals[..n]).expect("packed word came from a permutation")
}

/// Canonicalizes `(n, fault_ranks)` under `Aut(S_n)`.
///
/// `fault_ranks` may be in any order (duplicates are collapsed); the
/// result is deterministic for a given *set*. With no faults the canonical
/// form is the empty set under the identity witness.
///
/// # Panics
/// Panics if `n` is outside `2..=MAX_N` or a rank is out of range for `n`.
pub fn canonicalize(n: usize, fault_ranks: &[u32]) -> Canon {
    assert!((2..=MAX_N).contains(&n), "canonicalize: n {n} out of range");
    let mut sorted: Vec<u32> = fault_ranks.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    canonicalize_sorted(n, sorted)
}

fn literal_fallback(n: usize, sorted: Vec<u32>) -> Canon {
    Canon {
        n,
        ranks: sorted,
        witness: Aut::identity(n),
        exact: false,
    }
}

fn canonicalize_sorted(n: usize, sorted: Vec<u32>) -> Canon {
    search(n, sorted).0
}

/// The search behind [`canonicalize`], on sorted distinct ranks. Also
/// returns how many `(anchor, h)` candidates it scored.
fn search(n: usize, sorted: Vec<u32>) -> (Canon, u64) {
    let k = sorted.len();
    if k == 0 {
        let canon = Canon {
            n,
            ranks: sorted,
            witness: Aut::identity(n),
            exact: true,
        };
        return (canon, 0);
    }
    if n > MAX_EXACT_N || k > MAX_EXACT_FAULTS {
        return (literal_fallback(n, sorted), 0);
    }
    let faults: Vec<Perm> = sorted
        .iter()
        .map(|&r| Perm::unrank(n, r).expect("fault rank in range"))
        .collect();
    if k == 1 {
        // One fault: send it to the identity; h = id is already minimal
        // because the image set {id} does not depend on h.
        let witness = Aut::new(faults[0].inverse(), Perm::identity(n)).expect("id fixes 1");
        return (finish(n, vec![0], witness, &faults), 0);
    }

    // diffs[j][i] = f_j^{-1} ∘ f_i, 0-based (position -> symbol - 1), and
    // the pairs whose Stab_1-class minimum is the least one.
    let mut diffs = vec![vec![[0u8; MAX_N]; k]; k];
    let mut least = u64::MAX;
    let mut kept: Vec<(usize, usize, CycleStructure)> = Vec::new();
    for (j, fj) in faults.iter().enumerate() {
        let inv = fj.inverse();
        for (i, fi) in faults.iter().enumerate() {
            let d = inv.compose(fi);
            for (slot, &v) in diffs[j][i].iter_mut().zip(d.as_slice()) {
                *slot = v - 1;
            }
            if i == j {
                continue;
            }
            let cycles = CycleStructure::of(&d);
            let word = layout_word(&class_layout(n, &cycles));
            if word < least {
                least = word;
                kept.clear();
            }
            if word == least {
                kept.push((j, i, cycles));
            }
        }
    }
    let layout = class_layout(n, &kept[0].2);

    let mut best_words = vec![u64::MAX; k - 1];
    let mut best_pick = (u64::MAX, usize::MAX); // (Stab_1 rank of h, anchor j)
    let mut best_h = [0u8; MAX_N];
    let mut cand = vec![0u64; k - 1];
    let mut scored = 0u64;
    for &(j, i, ref cycles) in &kept {
        for_each_conjugator(&diffs[j][i], cycles, &layout, &mut |h| {
            scored += 1;
            let mut hinv = [0u8; MAX_N];
            for (p, &x) in h[..n].iter().enumerate() {
                hinv[x as usize] = p as u8;
            }
            let others = diffs[j].iter().enumerate().filter(|&(i, _)| i != j);
            for (slot, (_, d)) in cand.iter_mut().zip(others) {
                let mut w = 0u64;
                for &x in &h[..n] {
                    w = (w << 4) | u64::from(hinv[d[x as usize] as usize] + 1);
                }
                *slot = w;
            }
            cand.sort_unstable();
            let order = cand.cmp(&best_words);
            if order == Ordering::Greater {
                return;
            }
            let pick = (Aut::stab_rank(&to_perm(n, h)), j);
            if order == Ordering::Less || pick < best_pick {
                best_words.copy_from_slice(&cand);
                best_pick = pick;
                best_h = *h;
            }
        });
    }

    let j = best_pick.1;
    let h = to_perm(n, &best_h);
    let g = faults[j].compose(&h).inverse();
    let witness = Aut::new(g, h).expect("stab element fixes 1");
    let mut ranks = Vec::with_capacity(k);
    ranks.push(0u32);
    ranks.extend(best_words.iter().map(|&w| unpack_word(n, w).rank()));
    (finish(n, ranks, witness, &faults), scored)
}

/// A 0-based permutation array (`h[p]` = symbol − 1) as a [`Perm`].
fn to_perm(n: usize, h: &[u8; MAX_N]) -> Perm {
    let mut symbols = [0u8; MAX_N];
    for (s, &x) in symbols.iter_mut().zip(&h[..n]) {
        *s = x + 1;
    }
    Perm::from_slice_trusted(&symbols[..n])
}

/// The cycle lengths of the least permutation in the `Stab_1`-conjugacy
/// class of a permutation with cycle structure `cycles`, in the order it
/// lays them out on positions: the cycle through position 0, then the
/// other fixed points, then the other cycles by ascending length.
///
/// Greedy on the one-line form: position 0 takes 1 if fixed, else 2, and
/// the marked cycle then closes as early as its length allows. Each later
/// position takes its own symbol while fixed points remain; otherwise it
/// opens a cycle, which takes the next symbol until it can close back to
/// its start, so at the smallest length left.
fn class_layout(n: usize, cycles: &CycleStructure) -> Vec<usize> {
    let marked = cycles.zero_cycle.len();
    let fixed = n - cycles.displaced - usize::from(marked == 1);
    let mut others: Vec<usize> = cycles.cycles_avoiding_zero().map(|(_, len)| len).collect();
    others.sort_unstable();
    let mut layout = Vec::with_capacity(1 + fixed + others.len());
    layout.push(marked);
    layout.extend(std::iter::repeat_n(1, fixed));
    layout.extend(others);
    layout
}

/// The packed one-line word of the permutation `layout` describes: each
/// cycle of length `l` on positions `s..s+l` maps each position to the
/// next and the last back to `s`.
fn layout_word(layout: &[usize]) -> u64 {
    let mut w = 0u64;
    let mut start = 0;
    for &len in layout {
        for t in 0..len {
            w = (w << 4) | (start + (t + 1) % len + 1) as u64;
        }
        start += len;
    }
    w
}

/// Calls `visit` with every `h ∈ Stab_1` (0-based, as in `d`) with
/// `h^{-1} d h = c`, where `c` is laid out as `layout` and `d` has the
/// cycle structure `cycles` of the same marked type.
///
/// `d ∘ h = h ∘ c` means `h` carries each cycle of `c` onto a cycle of
/// `d` in step: once `h(s) = y` for a cycle starting at `s`, then
/// `h(s + t) = d^t(y)`. The marked cycle has `h(0) = 0`; every other
/// cycle picks an unused cycle of `d` with its length and a rotation `y`.
fn for_each_conjugator(
    d: &[u8; MAX_N],
    cycles: &CycleStructure,
    layout: &[usize],
    visit: &mut impl FnMut(&[u8; MAX_N]),
) {
    let n: usize = layout.iter().sum();
    let mut h = [0u8; MAX_N];
    for (slot, &x) in h.iter_mut().zip(&cycles.zero_cycle) {
        *slot = x as u8;
    }
    // d's unmarked cycles as (start, length), fixed points included.
    let mut targets: Vec<(usize, usize)> = (1..n)
        .filter(|&x| d[x] as usize == x)
        .map(|x| (x, 1))
        .collect();
    targets.extend(cycles.cycles_avoiding_zero());
    // c's unmarked cycles as (start, length), in layout order.
    let mut blocks = Vec::with_capacity(layout.len() - 1);
    let mut start = layout[0];
    for &len in &layout[1..] {
        blocks.push((start, len));
        start += len;
    }
    assign_cycles(&blocks, &targets, 0, d, &mut h, visit);
}

/// Maps `blocks[0]` onto every unused equal-length target cycle in every
/// rotation, then recurses on the rest; `used` is a bit set over
/// `targets`.
fn assign_cycles(
    blocks: &[(usize, usize)],
    targets: &[(usize, usize)],
    used: u32,
    d: &[u8; MAX_N],
    h: &mut [u8; MAX_N],
    visit: &mut impl FnMut(&[u8; MAX_N]),
) {
    let Some((&(start, len), rest)) = blocks.split_first() else {
        visit(h);
        return;
    };
    for (c, &(target, target_len)) in targets.iter().enumerate() {
        if target_len != len || used & (1 << c) != 0 {
            continue;
        }
        let mut y = target;
        for _ in 0..len {
            let mut x = y;
            for slot in &mut h[start..start + len] {
                *slot = x as u8;
                x = d[x] as usize;
            }
            assign_cycles(rest, targets, used | (1 << c), d, h, visit);
            y = d[y] as usize;
        }
    }
}

fn finish(n: usize, ranks: Vec<u32>, witness: Aut, faults: &[Perm]) -> Canon {
    debug_assert!(ranks.windows(2).all(|w| w[0] < w[1]), "ranks not sorted");
    debug_assert_eq!(
        {
            let mut img: Vec<u32> = faults.iter().map(|f| witness.apply(f).rank()).collect();
            img.sort_unstable();
            img
        },
        ranks,
        "witness does not map the fault set onto the canonical ranks"
    );
    Canon {
        n,
        ranks,
        witness,
        exact: true,
    }
}

/// Default memo capacity (distinct literal fault sets) for
/// [`Canonicalizer::default`].
pub const DEFAULT_MEMO_CAP: usize = 65_536;

/// A memoizing front-end for [`canonicalize`], keyed on the sorted
/// *literal* ranks.
///
/// Besides saving the factorial search on repeated literal requests, the
/// memo doubles as the serve path's literal-vs-canonical classifier: a
/// memo hit means this exact fault set was seen before by this process
/// (what a literal-key cache would also have hit), while a memo miss that
/// still finds a cached ring is a pure canonical win.
///
/// Eviction is epoch-style: when the map reaches capacity it is cleared
/// wholesale (entries are small and recomputation is bounded, so the
/// simple policy beats tracking recency).
/// Memo map: (n, sorted literal ranks) to the shared canonical form.
type MemoMap = HashMap<(u8, Vec<u32>), Arc<Canon>>;

pub struct Canonicalizer {
    memo: Mutex<MemoMap>,
    cap: usize,
}

impl Default for Canonicalizer {
    fn default() -> Self {
        Canonicalizer::new(DEFAULT_MEMO_CAP)
    }
}

impl Canonicalizer {
    /// Creates a memo bounded to `cap` distinct literal fault sets
    /// (minimum 1).
    pub fn new(cap: usize) -> Self {
        Canonicalizer {
            memo: Mutex::new(HashMap::new()),
            cap: cap.max(1),
        }
    }

    /// Canonicalizes `(n, fault_ranks)`, consulting the memo first.
    ///
    /// Returns the canonical form and whether the memo already held this
    /// literal set (`true` = literal repeat, `false` = first sighting).
    pub fn canonicalize(&self, n: usize, fault_ranks: &[u32]) -> (Arc<Canon>, bool) {
        let mut sorted: Vec<u32> = fault_ranks.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let key = (n as u8, sorted);
        {
            let memo = self.memo.lock().expect("canon memo poisoned");
            if let Some(hit) = memo.get(&key) {
                star_obs::incr("oracle.canon.memo_hit", 1);
                return (Arc::clone(hit), true);
            }
        }
        star_obs::incr("oracle.canon.memo_miss", 1);
        let started = std::time::Instant::now();
        let canon = Arc::new(canonicalize_sorted(n, key.1.clone()));
        star_obs::observe_ns(
            "oracle.canon.search_ns",
            started.elapsed().as_nanos() as u64,
        );
        if star_obs::flightrec::enabled() {
            star_obs::flightrec::record(
                "oracle.canon",
                format!("n{n}"),
                &[
                    ("k", star_obs::FieldValue::U64(canon.fault_count() as u64)),
                    ("exact", star_obs::FieldValue::U64(canon.exact() as u64)),
                ],
            );
        }
        let mut memo = self.memo.lock().expect("canon memo poisoned");
        if memo.len() >= self.cap {
            memo.clear();
        }
        memo.insert(key, Arc::clone(&canon));
        (canon, false)
    }

    /// Number of memoized literal fault sets.
    pub fn memo_len(&self) -> usize {
        self.memo.lock().expect("canon memo poisoned").len()
    }
}

/// The orbit size upper bound `n!·(n-1)!` — exposed for docs/tests.
pub fn aut_order(n: usize) -> u64 {
    factorial(n) * factorial(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ranks_of(n: usize, digits: &[u64]) -> Vec<u32> {
        digits
            .iter()
            .map(|&d| Perm::from_digits(n, d).rank())
            .collect()
    }

    #[test]
    fn empty_set_is_its_own_canonical_form() {
        let c = canonicalize(5, &[]);
        assert!(c.ranks().is_empty());
        assert!(c.exact());
        assert!(c.witness().is_identity());
    }

    #[test]
    fn single_fault_canonicalizes_to_identity() {
        for digits in [21345u64, 53412, 12354] {
            let c = canonicalize(5, &ranks_of(5, &[digits]));
            assert_eq!(c.ranks(), &[0], "any single fault maps to rank 0");
            assert!(c.exact());
            let f = Perm::from_digits(5, digits);
            assert_eq!(c.witness().apply(&f), Perm::identity(5));
        }
    }

    #[test]
    fn orbit_mates_share_a_canonical_form() {
        let n = 5;
        let base = ranks_of(n, &[21345, 34125]);
        let c0 = canonicalize(n, &base);
        for (gr, hr) in [(3u64, 5u64), (100, 0), (77, 23), (0, 11)] {
            let a = Aut::from_ranks(n, gr, hr);
            let moved: Vec<u32> = base
                .iter()
                .map(|&r| a.apply(&Perm::unrank(n, r).unwrap()).rank())
                .collect();
            let c1 = canonicalize(n, &moved);
            assert_eq!(c0.ranks(), c1.ranks(), "orbit mate ({gr},{hr}) diverged");
        }
    }

    #[test]
    fn witness_maps_literal_onto_canonical() {
        let n = 6;
        let ranks = ranks_of(n, &[213456, 345126, 654321]);
        let c = canonicalize(n, &ranks);
        let mut img: Vec<u32> = ranks
            .iter()
            .map(|&r| c.witness().apply(&Perm::unrank(n, r).unwrap()).rank())
            .collect();
        img.sort_unstable();
        assert_eq!(img, c.ranks());
        assert_eq!(c.ranks()[0], 0, "canonical set contains the identity");
    }

    #[test]
    fn input_order_does_not_matter() {
        let n = 6;
        let a = ranks_of(n, &[213456, 345126, 654321]);
        let mut b = a.clone();
        b.reverse();
        let ca = canonicalize(n, &a);
        let cb = canonicalize(n, &b);
        assert_eq!(ca.ranks(), cb.ranks());
        assert_eq!(ca.witness(), cb.witness(), "witness must be deterministic");
    }

    #[test]
    fn beyond_exact_n_falls_back_to_literal() {
        let n = 10;
        let ranks = vec![5u32, 3, 9];
        let c = canonicalize(n, &ranks);
        assert!(!c.exact());
        assert_eq!(c.ranks(), &[3, 5, 9]);
        assert!(c.witness().is_identity());
    }

    #[test]
    fn memo_classifies_literal_repeats() {
        let canon = Canonicalizer::new(16);
        let ranks = ranks_of(5, &[21345, 34125]);
        let (c0, hit0) = canon.canonicalize(5, &ranks);
        assert!(!hit0, "first sighting is a memo miss");
        let mut shuffled = ranks.clone();
        shuffled.reverse();
        let (c1, hit1) = canon.canonicalize(5, &shuffled);
        assert!(hit1, "same literal set (any order) is a memo hit");
        assert_eq!(c0.ranks(), c1.ranks());
        assert_eq!(canon.memo_len(), 1);
    }

    #[test]
    fn memo_epoch_clears_at_capacity() {
        let canon = Canonicalizer::new(2);
        for r in 0..5u32 {
            let _ = canon.canonicalize(4, &[r]);
        }
        assert!(canon.memo_len() <= 2);
    }

    /// The exhaustive `Stab_1` sweep the pruned search replaced, kept as
    /// its reference: every `h` in rank order, every anchor `j`, keeping
    /// the first strict minimum. Returns the canonical form and the
    /// candidates scored, `k·(n-1)!`.
    fn sweep(n: usize, fault_ranks: &[u32]) -> (Canon, u64) {
        let mut sorted = fault_ranks.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let k = sorted.len();
        if k < 2 || n > MAX_EXACT_N || k > MAX_EXACT_FAULTS {
            return search(n, sorted);
        }
        let faults: Vec<Perm> = sorted
            .iter()
            .map(|&r| Perm::unrank(n, r).unwrap())
            .collect();
        let diff_vals: Vec<Vec<[u8; MAX_N]>> = (0..k)
            .map(|j| {
                let inv = faults[j].inverse();
                (0..k)
                    .map(|i| {
                        let d = inv.compose(&faults[i]);
                        let mut vals = [0u8; MAX_N];
                        vals[..n].copy_from_slice(d.as_slice());
                        vals
                    })
                    .collect()
            })
            .collect();
        let mut best_words: Vec<u64> = Vec::new();
        let mut best_pick: Option<(u64, usize)> = None;
        let mut cand = vec![0u64; k - 1];
        let mut scored = 0u64;
        for r in 0..Aut::stab_count(n) {
            let h = Aut::stab_unrank(n, r);
            let hinv = h.inverse();
            let (hv, hiv) = (h.as_slice(), hinv.as_slice());
            for (j, dj) in diff_vals.iter().enumerate() {
                scored += 1;
                let mut idx = 0;
                for (i, d) in dj.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let mut w = 0u64;
                    for &x in &hv[..n] {
                        w = (w << 4) | hiv[(d[(x - 1) as usize] - 1) as usize] as u64;
                    }
                    cand[idx] = w;
                    idx += 1;
                }
                cand.sort_unstable();
                if best_pick.is_none() || cand[..] < best_words[..] {
                    best_words.clear();
                    best_words.extend_from_slice(&cand);
                    best_pick = Some((r, j));
                }
            }
        }
        let (r, j) = best_pick.unwrap();
        let h = Aut::stab_unrank(n, r);
        let witness = Aut::new(faults[j].compose(&h).inverse(), h).unwrap();
        let mut ranks = vec![0u32];
        ranks.extend(best_words.iter().map(|&w| unpack_word(n, w).rank()));
        (finish(n, ranks, witness, &faults), scored)
    }

    /// Asserts the pruned search equals the sweep on `ranks` and scores at
    /// most `k·(n-1)!` candidates; returns the candidates it scored.
    fn assert_matches_sweep(n: usize, ranks: &[u32]) -> u64 {
        let mut sorted = ranks.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let k = sorted.len() as u64;
        let (fast, scored) = search(n, sorted);
        let (slow, _) = sweep(n, ranks);
        assert_eq!(fast, slow, "n={n} ranks={ranks:?}");
        assert!(
            scored <= k * factorial(n - 1),
            "n={n} scored {scored} > k·(n-1)! for ranks={ranks:?}"
        );
        scored
    }

    /// splitmix64: a seeded stream for the adversarial families.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_vertex(n: usize, state: &mut u64) -> Perm {
        Perm::unrank(n, (next(state) % factorial(n)) as u32).unwrap()
    }

    /// `count` distinct values from `0..bound`, in draw order.
    fn distinct(count: usize, bound: u64, state: &mut u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let x = next(state) % bound;
            if !out.contains(&x) {
                out.push(x);
            }
        }
        out
    }

    /// A vertex and `k - 1` of its star neighbours.
    fn star_neighbours(n: usize, k: usize, state: &mut u64) -> Vec<Perm> {
        let v = random_vertex(n, state);
        let mut faults = vec![v];
        for d in distinct(k - 1, n as u64 - 1, state) {
            faults.push(v.star_move(d as usize + 1));
        }
        faults
    }

    /// `k` vertices of the `S_4` sub-star that agrees with a random vertex
    /// on positions `4..n`.
    fn sub_star(n: usize, k: usize, state: &mut u64) -> Vec<Perm> {
        let v = random_vertex(n, state);
        distinct(k, 24, state)
            .into_iter()
            .map(|r| {
                let q = Perm::unrank(4, r as u32).unwrap();
                let mut symbols = [0u8; MAX_N];
                symbols[..n].copy_from_slice(v.as_slice());
                for (slot, &x) in symbols.iter_mut().zip(q.as_slice()) {
                    *slot = v.get(x as usize - 1);
                }
                Perm::from_slice(&symbols[..n]).unwrap()
            })
            .collect()
    }

    /// A walk of `k - 1` adjacent transpositions: fault `t` swaps
    /// positions `t-1` and `t` of fault `t-1`.
    fn transposition_chain(n: usize, k: usize, state: &mut u64) -> Vec<Perm> {
        let mut faults = vec![random_vertex(n, state)];
        for t in 1..k {
            let last = faults[t - 1];
            faults.push(last.swapped(t - 1, t));
        }
        faults
    }

    /// The ranks of `faults`, moved by a seeded random automorphism when
    /// `moved` is set.
    fn ranks_under(n: usize, faults: &[Perm], moved: bool, state: &mut u64) -> Vec<u32> {
        let aut = if moved {
            Aut::from_ranks(n, next(state), next(state))
        } else {
            Aut::identity(n)
        };
        faults.iter().map(|f| aut.apply(f).rank()).collect()
    }

    type Family = fn(usize, usize, &mut u64) -> Vec<Perm>;

    const FAMILIES: [(&str, Family); 3] = [
        ("star neighbours", star_neighbours),
        ("S_4 sub-star", sub_star),
        ("adjacent-transposition chain", transposition_chain),
    ];

    #[test]
    fn class_layout_is_the_least_conjugate_and_enumeration_is_complete() {
        for n in 2..=6 {
            let stab: Vec<Perm> = (0..Aut::stab_count(n))
                .map(|r| Aut::stab_unrank(n, r))
                .collect();
            for r in 0..factorial(n) as u32 {
                let d = Perm::unrank(n, r).unwrap();
                let word_of = |h: &Perm| {
                    let c = h.inverse().compose(&d).compose(h);
                    c.as_slice().iter().fold(0u64, |w, &x| (w << 4) | x as u64)
                };
                let least = stab.iter().map(word_of).min().unwrap();
                let cycles = CycleStructure::of(&d);
                let layout = class_layout(n, &cycles);
                assert_eq!(layout_word(&layout), least, "class minimum of {d}");
                let mut want: Vec<Perm> = stab
                    .iter()
                    .filter(|h| word_of(h) == least)
                    .copied()
                    .collect();
                let mut d0 = [0u8; MAX_N];
                for (slot, &x) in d0.iter_mut().zip(d.as_slice()) {
                    *slot = x - 1;
                }
                let mut got = Vec::new();
                for_each_conjugator(&d0, &cycles, &layout, &mut |h| got.push(to_perm(n, h)));
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want, "conjugators of {d} onto its class minimum");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every exact-regime size, `k` past `n - 3` included, and each
        /// set again under a random automorphism.
        #[test]
        fn pruned_search_matches_the_sweep(
            (n, ranks, g, h) in (4usize..=8).prop_flat_map(|n| {
                (
                    Just(n),
                    proptest::collection::vec(0..factorial(n) as u32, 0..=MAX_EXACT_FAULTS),
                    0u64..u64::MAX,
                    0u64..u64::MAX,
                )
            })
        ) {
            assert_matches_sweep(n, &ranks);
            let aut = Aut::from_ranks(n, g, h);
            let moved: Vec<u32> = ranks
                .iter()
                .map(|&r| aut.apply(&Perm::unrank(n, r).unwrap()).rank())
                .collect();
            assert_matches_sweep(n, &moved);
        }
    }

    #[test]
    fn pruned_search_matches_the_sweep_on_adversarial_n9_families() {
        let (n, k) = (9, 6);
        for (seed, (name, family)) in FAMILIES.iter().enumerate() {
            let mut state = 0xC0FFEE + seed as u64;
            let faults = family(n, k, &mut state);
            let base = search(n, faults.iter().map(Perm::rank).collect()).0;
            for moved in [false, true] {
                let ranks = ranks_under(n, &faults, moved, &mut state);
                let scored = assert_matches_sweep(n, &ranks);
                assert!(scored > 0, "{name}: nothing scored");
                assert_eq!(canonicalize(n, &ranks).ranks(), base.ranks(), "{name}");
            }
        }
    }

    #[test]
    #[ignore = "500 n = 9 sweeps: run in release with --ignored"]
    fn pruned_search_matches_the_sweep_on_500_uniform_n9_sets() {
        let (n, k) = (9, 6);
        let mut state = 0x5EED;
        for _ in 0..500 {
            let ranks: Vec<u32> = distinct(k, factorial(n), &mut state)
                .into_iter()
                .map(|r| r as u32)
                .collect();
            assert_matches_sweep(n, &ranks);
        }
    }

    /// Times the pruned search against the sweep on the workloads EXPERIMENTS
    /// E19 reports, asserting equality on every set. Run with
    /// `cargo test --release -p star-oracle --lib -- --ignored --nocapture timing`.
    #[test]
    #[ignore = "timing table: run in release with --ignored --nocapture"]
    fn timing_table_against_the_sweep() {
        fn median_max(mut xs: Vec<f64>) -> (f64, f64) {
            xs.sort_by(f64::total_cmp);
            (xs[xs.len() / 2], xs[xs.len() - 1])
        }
        fn uniform(n: usize, k: usize, state: &mut u64) -> Vec<Perm> {
            distinct(k, factorial(n), state)
                .into_iter()
                .map(|r| Perm::unrank(n, r as u32).unwrap())
                .collect()
        }
        let rows: [(&str, Family, usize, usize, usize); 6] = [
            ("uniform", uniform, 7, 4, 200),
            ("uniform", uniform, 8, 5, 200),
            ("uniform", uniform, 9, 6, 60),
            (FAMILIES[0].0, FAMILIES[0].1, 9, 6, 20),
            (FAMILIES[1].0, FAMILIES[1].1, 9, 6, 20),
            (FAMILIES[2].0, FAMILIES[2].1, 9, 6, 20),
        ];
        eprintln!("| fault sets | n, k | sweep p50 (max) ms | search p50 (max) ms | candidates p50 (max) | of k·(n−1)! |");
        for (name, family, n, k, sets) in rows {
            let mut state = 0x7AB1E + n as u64;
            let (mut slow, mut fast, mut scored) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..sets {
                let faults = family(n, k, &mut state);
                let ranks = ranks_under(n, &faults, true, &mut state);
                let t = std::time::Instant::now();
                let (want, _) = sweep(n, &ranks);
                slow.push(t.elapsed().as_secs_f64() * 1e3);
                let t = std::time::Instant::now();
                let (got, count) = search(n, {
                    let mut sorted = ranks.clone();
                    sorted.sort_unstable();
                    sorted
                });
                fast.push(t.elapsed().as_secs_f64() * 1e3);
                assert_eq!(got, want, "{name} n={n}");
                scored.push(count as f64);
            }
            let ((s50, smax), (f50, fmax), (c50, cmax)) =
                (median_max(slow), median_max(fast), median_max(scored));
            eprintln!(
                "| {name}, {sets} sets | {n}, {k} | {s50:.3} ({smax:.3}) | {f50:.3} ({fmax:.3}) | {c50} ({cmax}) | {} |",
                k as u64 * factorial(n - 1)
            );
        }
    }
}
