//! Handing a ring out while it is built: consecutive windows of a fixed
//! number of vertices, in ring order, each checked before it leaves.
//!
//! Lemma 7 fills the ring block by block from a seam plan fixed before
//! any block is filled, so a prefix of the ring is final as soon as its
//! blocks are written. [`Windows`] takes it from there: once the fill
//! has passed a window's end, the window is cut from the fill's nibble
//! arena, pushed through the embedder's one [`RingCheck`], and handed to
//! the caller's sink. Every window is cut by [`DeltaWindows`], so it
//! starts where the arena's steps lead and the check walks exactly the
//! ring the fill returns. The last window waits for [`Windows::close`],
//! which hands it out only after the check has closed the ring and
//! matched its length. A buffered embed is the same fill with one
//! window as long as the ring.

use star_fault::{RingCheck, RingError};
use star_perm::delta::{DeltaWindows, RingDelta};
use star_perm::packed::PackedPerm;

use crate::EmbedError;

/// A defect the check found, as an expansion failure at its ring
/// position.
pub(crate) fn expansion_failed(e: RingError) -> EmbedError {
    EmbedError::ExpansionFailed { block: e.index() }
}

/// A window's receiver: its ring position and its vertices.
type Emit<'a> = Box<dyn FnMut(u64, &RingDelta) + 'a>;

/// Where a fill hands its ring out: windows of `len` vertices (the last
/// may be shorter) to `emit`, each through `check` when there is one.
pub(crate) struct Windows<'a> {
    len: u32,
    check: Option<RingCheck>,
    emit: Emit<'a>,
    /// Ring position of the first vertex not handed out yet: where the
    /// pending window starts.
    sent: u32,
    /// The vertex at `sent` once a window has left (before that, the
    /// ring's start): where the stored steps lead from the last vertex
    /// handed out.
    next: Option<PackedPerm>,
    /// A step whose dimension the fill overwrites with its
    /// predecessor's, so the check finds a repeat two vertices on.
    #[cfg(test)]
    tamper: Option<usize>,
}

impl<'a> Windows<'a> {
    /// Unchecked windows of `len` vertices (at least 1) for `emit`.
    pub(crate) fn new(len: u32, emit: impl FnMut(u64, &RingDelta) + 'a) -> Windows<'a> {
        Windows {
            len: len.max(1),
            check: None,
            emit: Box::new(emit),
            sent: 0,
            next: None,
            #[cfg(test)]
            tamper: None,
        }
    }

    /// One unchecked window that nobody receives: the ring stays with
    /// the caller of the fill.
    pub(crate) fn whole() -> Windows<'static> {
        Windows::new(u32::MAX, |_, _| {})
    }

    /// These windows, each passed by `check` before it leaves.
    pub(crate) fn checked(mut self, check: RingCheck) -> Windows<'a> {
        self.check = Some(check);
        self
    }

    /// `true` once a window has left: the fill may no longer start over.
    pub(crate) fn handed_out(&self) -> bool {
        self.sent > 0
    }

    /// Hands out every complete window but the last, now that the fill
    /// has written the steps out of the ring's first `filled` of `total`
    /// vertices into `dims`, starting from `start`.
    pub(crate) fn reach(
        &mut self,
        dims: &[u8],
        filled: u32,
        total: u32,
        start: PackedPerm,
    ) -> Result<(), EmbedError> {
        let at = self.next.unwrap_or(start);
        let mut cut = DeltaWindows::new(dims, total, self.sent, at, self.len);
        while matches!(self.sent.checked_add(self.len), Some(to) if to <= filled && to < total) {
            let (_, window) = cut.next().expect("the window ends before the ring");
            self.pass(&window, false)?;
            self.next = Some(cut.vertex());
        }
        Ok(())
    }

    /// Hands out what is left of the finished `ring`: every window the
    /// fill did not reach (all of them when there was no fill), then the
    /// last one, once the check has closed the ring at the paper's
    /// `n! - 2|F_v|`.
    pub(crate) fn close(&mut self, ring: &RingDelta) -> Result<(), EmbedError> {
        let total = ring.len();
        if self.sent == 0 && self.len >= total {
            // One window: the ring itself.
            return self.pass(ring, true);
        }
        let at = self.next.unwrap_or_else(|| ring.start());
        for (from, window) in ring.windows(self.sent, at, self.len) {
            self.pass(&window, from + window.len() == total)?;
        }
        Ok(())
    }

    /// Checks one window (and, when it is the last, the whole ring) and
    /// hands it out.
    fn pass(&mut self, window: &RingDelta, last: bool) -> Result<(), EmbedError> {
        if let Some(check) = &mut self.check {
            check.push_delta(window).map_err(expansion_failed)?;
            if last && !check.finish().map_err(expansion_failed)?.at_guarantee {
                return Err(EmbedError::ExpansionFailed { block: 0 });
            }
        }
        (self.emit)(self.sent as u64, window);
        self.sent += window.len();
        Ok(())
    }

    /// Applies `tamper` to a block that wrote steps `from..to` of
    /// `dims`: step `p`'s dimension becomes step `p - 1`'s, so vertex
    /// `p + 1` repeats vertex `p - 1`.
    #[cfg(test)]
    pub(crate) fn tamper(&self, dims: &mut [u8], from: usize, to: usize) {
        let Some(p) = self.tamper.filter(|p| (from..to).contains(p)) else {
            return;
        };
        let prev = (dims[(p - 1) / 2] >> (4 * ((p - 1) % 2))) & 0xF;
        let shift = 4 * (p % 2);
        dims[p / 2] = (dims[p / 2] & !(0xF << shift)) | prev << shift;
    }
}

#[cfg(test)]
mod tests {
    use star_fault::{gen, FaultSet};
    use star_perm::{factorial, Perm};

    use super::*;
    use crate::embed_impl::embed_into;
    use crate::{embed_windowed, embed_with_options, EmbedOptions};

    /// `windows`, with the fill's step `step` overwritten as it is written.
    fn tampered(mut windows: Windows, step: usize) -> Windows {
        assert!(step >= 1);
        windows.tamper = Some(step);
        windows
    }

    /// The windows of one embed, in the order they were handed out.
    fn windows_of(n: usize, faults: &FaultSet, len: u32) -> Vec<(u64, RingDelta)> {
        let mut out = Vec::new();
        let opts = EmbedOptions::default();
        let mut keep = |cursor, window: &RingDelta| out.push((cursor, window.clone()));
        let ring = embed_windowed(n, faults, &opts, len, &mut keep).unwrap();
        assert_eq!(&ring, &embed_with_options(n, faults, &opts).unwrap());
        out
    }

    #[test]
    fn windows_tile_the_ring_in_cursor_order() {
        for n in 5..=8 {
            let k = n - 3;
            for faults in [
                FaultSet::empty(n),
                gen::random_vertex_faults(n, k, 11).unwrap(),
                gen::worst_case_same_partite(n, k, star_perm::Parity::Even, 3).unwrap(),
            ] {
                let whole = embed_with_options(n, &faults, &EmbedOptions::default()).unwrap();
                let total = factorial(n) - 2 * faults.vertex_fault_count() as u64;
                for len in [2, 3, 4096, u32::MAX] {
                    let windows = windows_of(n, &faults, len);
                    let mut at = 0u64;
                    let mut vertices: Vec<Perm> = Vec::new();
                    for (cursor, window) in &windows {
                        assert_eq!(*cursor, at, "n={n} len={len}");
                        assert_eq!(window.len() as u64, (len as u64).min(total - at));
                        vertices.extend(window.decode());
                        at += window.len() as u64;
                    }
                    assert_eq!(at, total, "n={n} len={len}");
                    assert_eq!(
                        &RingDelta::encode(&vertices).unwrap(),
                        whole.delta(),
                        "n={n} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_bad_step_stops_the_windows_before_its_own() {
        let (n, len) = (7, 1000u32);
        let faults = gen::random_vertex_faults(n, 4, 5).unwrap();
        // A step inside window 3, and the step from window 2 into it,
        // which belongs to neither window's own steps.
        for step in [3 * len + len / 2, 3 * len - 1] {
            let mut cursors = Vec::new();
            let mut keep = |cursor: u64, _: &RingDelta| cursors.push(cursor);
            let windows = tampered(Windows::new(len, &mut keep), step as usize);
            let result = embed_into(n, &faults, &EmbedOptions::default(), windows);
            let at = step as usize + 1;
            assert_eq!(result, Err(EmbedError::ExpansionFailed { block: at }));
            assert_eq!(cursors, [0, 1000, 2000], "step {step}");
        }
    }
}
