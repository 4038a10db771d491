//! Rings as generator deltas: one start permutation plus one star
//! dimension per step.
//!
//! Consecutive vertices of a ring in `S_n` differ by one star move, a
//! single dimension `d ∈ 1..n`, so a whole ring is its start vertex plus
//! a nibble per step ([`RingDelta`]), about half a byte per vertex. This
//! is the one ring representation the oracle store, the serve cache and
//! the v2 wire share; it lives here, next to [`PackedPerm`] and [`Aut`],
//! so every crate that needs it sits above it.

use crate::{packed::PackedPerm, Aut, Perm};

/// Packs step dimensions two per byte, low nibble first.
fn pack_dims(dims: impl Iterator<Item = u8>, steps: usize) -> Vec<u8> {
    let mut out = vec![0u8; steps.div_ceil(2)];
    for (i, d) in dims.enumerate() {
        debug_assert!((1..16).contains(&d));
        out[i / 2] |= d << (4 * (i % 2));
    }
    out
}

/// The step dimension at index `i` of a nibble-packed stream.
#[inline(always)]
fn unpack_dim(dims: &[u8], i: usize) -> u8 {
    (dims[i / 2] >> (4 * (i % 2))) & 0xF
}

/// Steps `from..from + steps` of a nibble-packed stream, packed from a
/// byte boundary with a zero padding nibble: the dims of a window that
/// starts at ring position `from`. From an even `from` the steps are
/// whole bytes of `dims`.
fn dims_window(dims: &[u8], from: usize, steps: usize) -> Vec<u8> {
    if from % 2 == 1 {
        return pack_dims((0..steps).map(|i| unpack_dim(dims, from + i)), steps);
    }
    let mut out = dims[from / 2..(from + steps).div_ceil(2)].to_vec();
    if steps % 2 == 1 {
        // The last step's high nibble is the next step in `dims` but
        // padding here.
        out[steps / 2] &= 0xF;
    }
    out
}

/// A ring (or ring segment) as one start permutation plus a
/// generator-delta step stream: step `i` moves along star dimension
/// `dims[i]`. ~4.5 bits/vertex instead of the ~13 bytes of a JSON
/// permutation string or the 8 of a [`PackedPerm`] word — the encoding
/// that makes `n >= 10` responses, caches, stores and streams tractable.
///
/// Construction always validates (every dimension in `1..n`, start a
/// real permutation), so walking and decoding are infallible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingDelta {
    n: u8,
    len: u32,
    start_bits: u64,
    dims: Vec<u8>,
}

impl RingDelta {
    /// Encodes a vertex list. Fails if `ring` is empty or any
    /// consecutive pair is not star-adjacent (the closing edge is the
    /// verifier's business, not the codec's).
    pub fn encode(ring: &[Perm]) -> Result<RingDelta, String> {
        let first = ring.first().ok_or("cannot delta-encode an empty ring")?;
        let n = first.n();
        let mut prev = PackedPerm::from_perm(first);
        let start_bits = prev.bits();
        let steps = ring.len() - 1;
        let mut dims = vec![0u8; steps.div_ceil(2)];
        for (i, v) in ring[1..].iter().enumerate() {
            let cur = PackedPerm::from_perm(v);
            let d = prev
                .edge_dimension_to(&cur)
                .ok_or_else(|| format!("ring positions {i}..{} are not adjacent", i + 1))?;
            dims[i / 2] |= (d as u8) << (4 * (i % 2));
            prev = cur;
        }
        Ok(RingDelta {
            n: n as u8,
            len: ring.len() as u32,
            start_bits,
            dims,
        })
    }

    /// Reassembles a delta from wire/store parts, validating everything
    /// a walker later trusts: the start permutation, the dims length,
    /// every dimension in `1..n`, and zeroed padding. Together these
    /// make every decoded vertex a permutation and every consecutive
    /// pair star-adjacent.
    pub fn from_parts(
        n: usize,
        len: u32,
        start_bits: u64,
        dims: Vec<u8>,
    ) -> Result<RingDelta, String> {
        PackedPerm::from_raw(n, start_bits).map_err(|e| format!("bad start permutation: {e}"))?;
        if len == 0 {
            return Err("delta of length 0".to_string());
        }
        let steps = len as usize - 1;
        if dims.len() != steps.div_ceil(2) {
            return Err(format!(
                "{} dim bytes for {steps} steps (want {})",
                dims.len(),
                steps.div_ceil(2)
            ));
        }
        // A byte at a time: both steps of every full byte, then the last
        // step of an odd count.
        let ok = |d: u8| d.wrapping_sub(1) < n as u8 - 1;
        let bad_byte = dims[..steps / 2]
            .iter()
            .position(|&b| !(ok(b & 0xF) & ok(b >> 4)));
        let bad_step = match bad_byte {
            Some(j) => Some(2 * j + usize::from(ok(dims[j] & 0xF))),
            None if steps % 2 == 1 && !ok(dims[steps / 2] & 0xF) => Some(steps - 1),
            None => None,
        };
        if let Some(i) = bad_step {
            let d = unpack_dim(&dims, i);
            return Err(format!("step {i} has invalid dimension {d} for n={n}"));
        }
        if steps % 2 == 1 && dims[steps / 2] >> 4 != 0 {
            return Err("nonzero padding nibble".to_string());
        }
        Ok(RingDelta {
            n: n as u8,
            len,
            start_bits,
            dims,
        })
    }

    /// The star-graph dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// The number of vertices encoded.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// `true` iff only the start vertex is encoded.
    pub fn is_empty(&self) -> bool {
        false // a delta always holds >= 1 vertex
    }

    /// The packed start vertex.
    #[inline]
    pub fn start(&self) -> PackedPerm {
        PackedPerm::from_raw(self.n(), self.start_bits).expect("validated at construction")
    }

    /// The raw nibble-packed step stream.
    #[inline]
    pub fn dims(&self) -> &[u8] {
        &self.dims
    }

    /// The step dimension at index `i` (`i < len - 1`).
    #[inline]
    pub fn dim_at(&self, i: usize) -> usize {
        debug_assert!((i as u32) < self.len - 1);
        unpack_dim(&self.dims, i) as usize
    }

    /// Walks the encoded vertices in order, O(1) memory.
    #[inline]
    pub fn walk(&self) -> DeltaWalker<'_> {
        DeltaWalker {
            delta: self,
            cur: self.start(),
            pos: 0,
        }
    }

    /// Expands back to the vertex list (the lossless inverse of
    /// [`RingDelta::encode`]).
    pub fn decode(&self) -> Vec<Perm> {
        self.walk().map(|p| p.to_perm()).collect()
    }

    /// The image of this delta under a star-graph automorphism, without
    /// expanding: automorphisms relabel edge *dimensions* by a fixed
    /// table ([`Aut::map_dimension`]), so the step stream maps a byte
    /// (two steps) at a time through a 256-entry table and only the start
    /// vertex needs a permutation composition. This is how a
    /// canonical-frame cached ring becomes a literal-frame stream in
    /// O(len/2) table reads and bytes.
    pub fn map_through(&self, aut: &Aut) -> RingDelta {
        let n = self.n();
        // Nibble 0 is the padding of an odd step count and maps to 0.
        let mut nibble = [0u8; 16];
        for (d, slot) in nibble.iter_mut().enumerate().take(n).skip(1) {
            *slot = aut.map_dimension(d) as u8;
        }
        let byte: [u8; 256] = core::array::from_fn(|b| nibble[b & 0xF] | nibble[b >> 4] << 4);
        let dims = self.dims.iter().map(|&b| byte[b as usize]).collect();
        let start = PackedPerm::from_perm(&aut.apply(&self.start().to_perm()));
        RingDelta {
            n: self.n,
            len: self.len,
            start_bits: start.bits(),
            dims,
        }
    }

    /// Consecutive windows of `count` vertices from ring position
    /// `from`, where the vertex is `at` (see [`DeltaWindows`]): how a
    /// stream cuts chunks off a ring.
    pub fn windows(&self, from: u32, at: PackedPerm, count: u32) -> DeltaWindows<'_> {
        assert_eq!(at.n(), self.n(), "a window starts at a vertex of S_n");
        DeltaWindows {
            validated: true,
            ..DeltaWindows::new(&self.dims, self.len, from, at, count)
        }
    }

    /// Approximate heap footprint, for byte-budgeted caches.
    pub fn heap_bytes(&self) -> usize {
        self.dims.capacity()
    }

    /// Encoded size of the step stream plus start (what E18 calls "v2
    /// encoded ring size": the payload bytes a v2 stream carries for
    /// this ring, excluding per-chunk framing).
    pub fn encoded_bytes(&self) -> usize {
        std::mem::size_of::<u64>() + self.dims.len()
    }
}

/// Consecutive windows of a ring's step stream from a known ring
/// position and the vertex there: each the next `count` vertices (the
/// last window may hold fewer) as its ring position and its own
/// self-contained [`RingDelta`]. Each window after the first starts
/// where the stored steps lead, its predecessor's last vertex stepped
/// along the dimension between them, so the windows concatenate to
/// exactly the steps they were cut from.
///
/// A window reads only its own steps and the step out of it, so a step
/// stream that is still being written can be cut as far as it goes.
///
/// # Panics
///
/// When a step it reads is not a star dimension of `n`, which no step
/// of a [`RingDelta`] is.
pub struct DeltaWindows<'a> {
    dims: &'a [u8],
    len: u32,
    count: u32,
    pos: u32,
    at: PackedPerm,
    /// `dims` are a [`RingDelta`]'s, checked when it was built, so a
    /// window need not scan its steps again.
    validated: bool,
}

impl<'a> DeltaWindows<'a> {
    /// Windows of `count` vertices (at least 1) over `dims`, the
    /// nibble-packed steps of a ring of `len` vertices, from ring
    /// position `from`, whose vertex is `at`.
    pub fn new(dims: &'a [u8], len: u32, from: u32, at: PackedPerm, count: u32) -> Self {
        DeltaWindows {
            dims,
            len,
            count: count.max(1),
            pos: from,
            at,
            validated: false,
        }
    }

    /// The vertex where the next window starts.
    #[inline]
    pub fn vertex(&self) -> PackedPerm {
        self.at
    }
}

impl Iterator for DeltaWindows<'_> {
    type Item = (u32, RingDelta);

    fn next(&mut self) -> Option<(u32, RingDelta)> {
        let left = self.len.checked_sub(self.pos).filter(|&left| left > 0)?;
        let count = left.min(self.count);
        let (from, n) = (self.pos, self.at.n());
        let dims = dims_window(self.dims, from as usize, count as usize - 1);
        let window = match self.validated {
            true => RingDelta {
                n: n as u8,
                len: count,
                start_bits: self.at.bits(),
                dims,
            },
            false => RingDelta::from_parts(n, count, self.at.bits(), dims)
                .unwrap_or_else(|e| panic!("window at {from}: {e}")),
        };
        self.pos += count;
        if count < left {
            // The step out of this window leads to the next one's start.
            let out = unpack_dim(self.dims, self.pos as usize - 1) as usize;
            let step = self.pos - 1;
            assert!(
                (1..n).contains(&out),
                "step {step} has invalid dimension {out} for n={n}"
            );
            self.at = window
                .walk()
                .last()
                .expect("a window holds a vertex")
                .star_move(out);
        }
        Some((from, window))
    }
}

/// Iterator over a [`RingDelta`]'s vertices; O(1) state (one packed
/// perm and a position).
///
/// The walker and the accessors it uses are `#[inline]`: they run once
/// per vertex in other crates (chunk slicing, stream verification),
/// which cannot inline them otherwise.
pub struct DeltaWalker<'a> {
    delta: &'a RingDelta,
    cur: PackedPerm,
    pos: u32,
}

impl DeltaWalker<'_> {
    /// The ring position of the vertex the next `next()` call returns.
    #[inline]
    pub fn position(&self) -> u32 {
        self.pos
    }
}

impl Iterator for DeltaWalker<'_> {
    type Item = PackedPerm;

    #[inline]
    fn next(&mut self) -> Option<PackedPerm> {
        if self.pos >= self.delta.len {
            return None;
        }
        let out = self.cur;
        self.pos += 1;
        if self.pos < self.delta.len {
            self.cur = self.cur.star_move(self.delta.dim_at(self.pos as usize - 1));
        }
        Some(out)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.delta.len - self.pos) as usize;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small S_4 ring (the 6-cycle through identity via dims 1,2).
    fn small_ring(len: usize) -> Vec<Perm> {
        let mut v = Perm::identity(4);
        let mut out = vec![v];
        for i in 0..len - 1 {
            v = v.star_move(1 + i % 2);
            out.push(v);
        }
        out
    }

    #[test]
    fn delta_round_trips_and_is_compact() {
        let ring = small_ring(6);
        let delta = RingDelta::encode(&ring).unwrap();
        assert_eq!(delta.len(), 6);
        assert_eq!(delta.decode(), ring);
        // 5 steps → 3 nibble bytes.
        assert_eq!(delta.dims().len(), 3);
        assert_eq!(
            RingDelta::from_parts(4, 6, delta.start().bits(), delta.dims().to_vec()).unwrap(),
            delta
        );
        let walked: Vec<Perm> = delta.walk().map(|p| p.to_perm()).collect();
        assert_eq!(walked, ring);
    }

    #[test]
    fn delta_rejects_non_adjacent_and_corrupt_parts() {
        let mut ring = small_ring(6);
        ring.swap(1, 3);
        assert!(RingDelta::encode(&ring).is_err());
        assert!(RingDelta::encode(&[]).is_err());
        let good = RingDelta::encode(&small_ring(6)).unwrap();
        // Dimension 0 and out-of-range dimensions are rejected, naming
        // the first invalid step: in either nibble of a byte or as the
        // odd last step.
        let named = |dims: Vec<u8>| RingDelta::from_parts(4, 6, good.start().bits(), dims);
        for (dims, want) in [
            (
                vec![0x01, 0x21, 0x02],
                "step 1 has invalid dimension 0 for n=4",
            ),
            (
                vec![0x21, 0x25, 0x02],
                "step 2 has invalid dimension 5 for n=4",
            ),
            (
                vec![0x21, 0x21, 0x04],
                "step 4 has invalid dimension 4 for n=4",
            ),
        ] {
            assert_eq!(named(dims), Err(want.to_string()));
        }
        // Wrong dims length.
        assert!(RingDelta::from_parts(4, 6, good.start().bits(), vec![0x21]).is_err());
        // Nonzero padding nibble (5 steps: high nibble of byte 2 is pad).
        assert!(RingDelta::from_parts(4, 6, good.start().bits(), vec![0x21, 0x21, 0x32]).is_err());
        // Garbage start bits.
        assert!(RingDelta::from_parts(4, 6, 0x1111, good.dims().to_vec()).is_err());
    }

    #[test]
    fn windows_start_where_the_stored_steps_lead() {
        let ring = small_ring(7);
        let delta = RingDelta::encode(&ring).unwrap();
        let at = PackedPerm::from_perm(&ring[1]);
        let windows: Vec<(u32, Vec<Perm>)> = delta
            .windows(1, at, 4)
            .map(|(from, window)| (from, window.decode()))
            .collect();
        assert_eq!(windows, [(1, ring[1..5].to_vec()), (5, ring[5..].to_vec())]);
        // A window's successor follows its step out, not a vertex
        // supplied from elsewhere: change that one step and the next
        // window starts elsewhere.
        let mut dims = delta.dims().to_vec();
        dims[2] ^= 0x3; // step 4: dimension 1 becomes 2
        let mut cut = DeltaWindows::new(&dims, 7, 1, at, 4);
        assert_eq!(
            cut.next().map(|(_, w)| w.decode()),
            Some(ring[1..5].to_vec())
        );
        assert_eq!(cut.vertex(), PackedPerm::from_perm(&ring[4].star_move(2)));
    }

    #[test]
    fn delta_maps_through_automorphisms_like_the_expanded_ring() {
        let ring = small_ring(8);
        let delta = RingDelta::encode(&ring).unwrap();
        for (g, h) in [(0u64, 0u64), (5, 3), (17, 5), (23, 1)] {
            let aut = Aut::from_ranks(4, g, h);
            let mapped: Vec<Perm> = ring.iter().map(|p| aut.apply(p)).collect();
            assert_eq!(
                delta.map_through(&aut).decode(),
                mapped,
                "aut ({g},{h}) disagrees with per-vertex mapping"
            );
        }
    }
}
