//! The one pooled-workspace implementation: every per-apply buffer set
//! in the workspace is checked out of a [`WorkspacePool`]. The spectral
//! pipelines and the distributed matvec of `fftmatvec-core` pool their
//! apply workspaces here, and the batched FFT drivers of `fftmatvec-fft`
//! pool their per-worker scratch vectors (`Vec<Complex<T>>`); they differ
//! only in the buffer struct `W` they pool.
//!
//! One buffer set per concurrently running worker, a single reused set
//! when serial. Hardened for shared-operator serving, where one operator
//! is driven by many concurrent batch windows:
//!
//! * **Checkout ledger** — every workspace carries a pool-unique id,
//!   recorded while it is out. A guard returning a workspace the ledger
//!   does not list (the only way two batches could ever alias one
//!   workspace's buffers) is a loud panic instead of silent data
//!   corruption.
//! * **Bounded retention** — returned workspaces are parked only up to
//!   [`workspace_retention_cap`]; the rest free their buffers, so a
//!   burst of concurrent windows cannot permanently pin its peak
//!   footprint.
//! * **High-water marks** — peak concurrent checkouts and the largest
//!   single-workspace byte footprint seen at return time (the scratch
//!   footprint `bench_toeplitz` records per shape).

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// One apply's worth of intermediate buffers, poolable by
/// [`WorkspacePool`]. `Default` must not allocate (`Vec::new()` does
/// not), so an idle operator holds no scratch.
pub trait Workspace: Default {
    /// Bytes currently held across all buffers — the scratch footprint
    /// of one apply under the configuration that last ran.
    fn bytes(&self) -> usize;
}

/// A plain vector is a one-buffer workspace: the FFT drivers pool their
/// per-worker scratch this way.
impl<E> Workspace for Vec<E> {
    fn bytes(&self) -> usize {
        std::mem::size_of_val(self.as_slice())
    }
}

/// Most workspaces a pool parks between applies. A serving registry can
/// point many concurrent batch windows at one shared operator; each
/// window transiently checks out one workspace per executing worker, and
/// without a cap the pool would permanently retain that burst-peak
/// footprint. Sized to cover the machine's worker concurrency with
/// headroom while letting bursts free their excess.
pub fn workspace_retention_cap() -> usize {
    // Computed once: `available_parallelism` reads procfs/cgroup state on
    // Linux, which allocates — and this runs on every return to a pool,
    // which must stay allocation-free.
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        (2 * hw).max(8)
    })
}

/// Bookkeeping behind one [`WorkspacePool`] mutex.
struct PoolLedger<W> {
    /// `(id, workspace)` pairs parked between applies, at most
    /// [`workspace_retention_cap`] of them.
    parked: Vec<(u64, W)>,
    /// Ids currently checked out. Small (≈ worker concurrency), so a
    /// linear scan beats a hash set.
    checked_out: Vec<u64>,
    /// Next fresh workspace id.
    next_id: u64,
    /// High-water mark of concurrent checkouts.
    peak_out: usize,
    /// Largest single-workspace byte footprint observed at return time.
    peak_bytes: usize,
}

/// Pool of `W` workspaces; see the module docs for the guarantees.
pub struct WorkspacePool<W> {
    state: Mutex<PoolLedger<W>>,
}

impl<W: Workspace> Default for WorkspacePool<W> {
    fn default() -> Self {
        WorkspacePool {
            state: Mutex::new(PoolLedger {
                parked: Vec::new(),
                checked_out: Vec::new(),
                next_id: 0,
                peak_out: 0,
                peak_bytes: 0,
            }),
        }
    }
}

impl<W: Workspace> WorkspacePool<W> {
    fn lock(&self) -> MutexGuard<'_, PoolLedger<W>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Check a workspace out behind an RAII guard: a parked one when
    /// available (its buffers keep their capacity), else a fresh empty
    /// one. The guard returns it on drop, so every exit path (including
    /// `?` returns) preserves the zero-allocation steady state.
    pub fn checkout(&self) -> Checkout<'_, W> {
        let mut st = self.lock();
        let (id, ws) = match st.parked.pop() {
            Some(slot) => slot,
            None => {
                st.next_id += 1;
                (st.next_id - 1, W::default())
            }
        };
        st.checked_out.push(id);
        st.peak_out = st.peak_out.max(st.checked_out.len());
        Checkout { pool: self, id, ws: Some(ws) }
    }

    /// Workspaces currently parked; bounded by
    /// [`workspace_retention_cap`] however many concurrent batch windows
    /// have driven the pool.
    pub fn pooled(&self) -> usize {
        self.lock().parked.len()
    }

    /// Workspaces currently checked out: the applies executing right now.
    pub fn in_flight(&self) -> usize {
        self.lock().checked_out.len()
    }

    /// High-water mark of concurrent checkouts over the pool's lifetime.
    pub fn peak_in_flight(&self) -> usize {
        self.lock().peak_out
    }

    /// Largest single-workspace scratch footprint (bytes) any apply has
    /// returned.
    pub fn peak_bytes(&self) -> usize {
        self.lock().peak_bytes
    }
}

/// RAII guard over one checked-out workspace.
pub struct Checkout<'a, W: Workspace> {
    pool: &'a WorkspacePool<W>,
    id: u64,
    /// Always `Some` until `drop` takes it back.
    ws: Option<W>,
}

impl<W: Workspace> Checkout<'_, W> {
    /// The checked-out buffers.
    #[inline]
    pub fn ws(&mut self) -> &mut W {
        self.ws.as_mut().expect("workspace held until drop")
    }
}

impl<W: Workspace> Drop for Checkout<'_, W> {
    fn drop(&mut self) {
        let ws = self.ws.take().expect("workspace held until drop");
        let mut st = self.pool.lock();
        let idx = st
            .checked_out
            .iter()
            .position(|&id| id == self.id)
            .expect("workspace returned twice or to a foreign pool: aliased checkout");
        st.checked_out.swap_remove(idx);
        st.peak_bytes = st.peak_bytes.max(ws.bytes());
        if st.parked.len() < workspace_retention_cap() {
            st.parked.push((self.id, ws));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal poolable buffer set.
    #[derive(Default)]
    struct Scratch(Vec<u64>);

    impl Workspace for Scratch {
        fn bytes(&self) -> usize {
            self.0.len() * 8
        }
    }

    #[test]
    fn checkout_parks_and_tracks_peaks() {
        let pool = WorkspacePool::<Scratch>::default();
        assert_eq!((pool.in_flight(), pool.pooled(), pool.peak_bytes()), (0, 0, 0));
        {
            let mut a = pool.checkout();
            a.ws().0.resize(32, 0);
            let _b = pool.checkout();
            assert_eq!(pool.in_flight(), 2);
        }
        assert_eq!(pool.in_flight(), 0, "guards return on drop");
        assert_eq!(pool.pooled(), 2);
        assert_eq!(pool.peak_in_flight(), 2);
        // 32 × u64 in the larger of the two workspaces.
        assert_eq!(pool.peak_bytes(), 256);
        // A later, smaller apply leaves the byte high-water mark alone.
        drop(pool.checkout());
        assert_eq!(pool.peak_bytes(), 256);
        assert_eq!(pool.peak_in_flight(), 2);
    }

    #[test]
    fn workspace_pool_parks_at_most_the_retention_cap() {
        let pool = WorkspacePool::<Scratch>::default();
        let cap = workspace_retention_cap();
        // A burst of cap + 5 concurrent checkouts...
        let guards: Vec<_> = (0..cap + 5).map(|_| pool.checkout()).collect();
        assert_eq!(pool.peak_in_flight(), cap + 5);
        // ...parks only `cap` workspaces on return; the excess is freed.
        drop(guards);
        assert_eq!(pool.pooled(), cap, "retention must be bounded by the cap");
        // Steady-state reuse still works: a fresh checkout drains the
        // parked set instead of allocating.
        let g = pool.checkout();
        assert_eq!(pool.pooled(), cap - 1);
        drop(g);
        assert_eq!(pool.pooled(), cap);
    }

    #[test]
    fn workspace_checkouts_never_alias() {
        // Concurrent guards must hold workspaces with distinct ids — the
        // ledger tracks exactly the outstanding set.
        let pool = WorkspacePool::<Scratch>::default();
        let (a, b) = (pool.checkout(), pool.checkout());
        assert_ne!(a.id, b.id, "two live guards must never share a workspace");
        let ids = [a.id, b.id];
        drop(a);
        drop(b);
        // Reuse hands back the same workspaces, still distinct — and a
        // third concurrent checkout gets an id neither of them holds.
        let (c, d, e) = (pool.checkout(), pool.checkout(), pool.checkout());
        assert_ne!(c.id, d.id);
        assert!(ids.contains(&c.id) && ids.contains(&d.id));
        assert!(!ids.contains(&e.id));
    }
}
