//! Shared scratch arena for batched FFT execution.
//!
//! The batched drivers run thousands of transforms through one plan; each
//! transform needs a scratch slice of [`crate::FftPlan::scratch_len`]
//! elements. Instead of a fresh `vec![Complex::ZERO; …]` per call (the
//! seed behaviour), a [`ScratchArena`] pools the buffers: a worker checks
//! one out, runs any number of transforms through it, and the guard
//! returns it on drop. Under the rayon pool, `for_each_init` checks out
//! one guard per executed work chunk (per-worker semantics — *not* one
//! `init()` value reused across the whole iteration), so at most one
//! buffer per concurrently-running worker is live at any instant and the
//! pool's parked-buffer count stabilizes at the peak worker concurrency;
//! sequentially it stabilizes at a single reused allocation.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use fftmatvec_numeric::{Complex, Real};

/// Most scratch buffers an arena parks between checkouts. Shared-operator
/// serving can drive one plan (and its arena) from many concurrent batch
/// windows at once; each window transiently checks out one buffer per
/// worker, and without a cap the arena would permanently retain that
/// burst-peak footprint. Sized to cover the machine's worker concurrency
/// with headroom while letting bursts free their excess.
pub fn scratch_retention_cap() -> usize {
    // Computed once: `available_parallelism` reads procfs/cgroup state on
    // Linux, which allocates — and this runs on the transform hot path
    // (every scratch return), which must stay allocation-free.
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        (2 * hw).max(8)
    })
}

/// Pool of equally-sized scratch buffers. Concurrent checkouts always
/// receive distinct buffers (each checkout pops a parked buffer or
/// allocates a fresh one — nothing is ever handed out twice), and
/// returned buffers are parked only up to [`scratch_retention_cap`].
pub struct ScratchArena<T: Real> {
    /// Required scratch length per buffer.
    len: usize,
    pool: Mutex<Vec<Vec<Complex<T>>>>,
}

impl<T: Real> ScratchArena<T> {
    /// Arena handing out buffers of exactly `len` complex elements.
    pub fn new(len: usize) -> Self {
        ScratchArena { len, pool: Mutex::new(Vec::new()) }
    }

    /// Lock the pool, shrugging off poisoning: a panicked worker can only
    /// have left the pool missing a buffer (re-allocated on demand), never
    /// structurally broken — so the arena itself stays panic-free.
    fn pool(&self) -> MutexGuard<'_, Vec<Vec<Complex<T>>>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Check out a scratch buffer; it returns to the pool when the guard
    /// drops. Contents are unspecified — FFT execution overwrites scratch
    /// before reading it.
    pub fn checkout(&self) -> ScratchGuard<'_, T> {
        let mut buf = self.pool().pop().unwrap_or_default();
        buf.resize(self.len, Complex::zero());
        ScratchGuard { arena: self, buf }
    }

    /// Buffers currently parked in the pool (diagnostic).
    pub fn pooled(&self) -> usize {
        self.pool().len()
    }
}

/// RAII handle to one pooled scratch buffer.
pub struct ScratchGuard<'a, T: Real> {
    arena: &'a ScratchArena<T>,
    buf: Vec<Complex<T>>,
}

impl<T: Real> ScratchGuard<'_, T> {
    /// The scratch slice, sized to the arena's buffer length.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex<T>] {
        &mut self.buf
    }
}

impl<T: Real> Drop for ScratchGuard<'_, T> {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        let mut pool = self.arena.pool();
        if pool.len() < scratch_retention_cap() {
            pool.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_returns_sized_buffer_and_recycles() {
        let arena = ScratchArena::<f64>::new(64);
        assert_eq!(arena.pooled(), 0);
        {
            let mut g = arena.checkout();
            assert_eq!(g.as_mut_slice().len(), 64);
            g.as_mut_slice()[0] = Complex::one();
        }
        assert_eq!(arena.pooled(), 1, "dropped guard must return its buffer");
        {
            let mut g = arena.checkout();
            assert_eq!(g.as_mut_slice().len(), 64);
        }
        assert_eq!(arena.pooled(), 1, "buffer is reused, not duplicated");
    }

    #[test]
    fn concurrent_checkouts_get_distinct_buffers() {
        let arena = ScratchArena::<f32>::new(8);
        let mut a = arena.checkout();
        let mut b = arena.checkout();
        a.as_mut_slice()[0] = Complex::one();
        assert_eq!(b.as_mut_slice()[0], Complex::zero());
        drop(a);
        drop(b);
        assert_eq!(arena.pooled(), 2);
    }

    #[test]
    fn zero_length_arena_is_free() {
        let arena = ScratchArena::<f64>::new(0);
        let mut g = arena.checkout();
        assert!(g.as_mut_slice().is_empty());
    }

    #[test]
    fn retention_is_bounded_after_a_burst() {
        let arena = ScratchArena::<f64>::new(4);
        let cap = scratch_retention_cap();
        let guards: Vec<_> = (0..cap + 5).map(|_| arena.checkout()).collect();
        drop(guards);
        assert_eq!(arena.pooled(), cap, "a checkout burst must not pin its peak footprint");
    }
}
