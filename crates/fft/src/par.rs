//! The library's one parallel-for: the batched transforms' series, a
//! spectral pipeline's columns, the direct matvec's time steps and the
//! distributed operator's ranks all walk their chunks through
//! [`for_each_chunk_mut`] (a batch the chunks write), [`for_each_chunk`]
//! (a batch they only read) or, when a chunk can fail,
//! [`try_for_each_chunk_mut`], behind one serial/parallel decision.
//!
//! A caller sizes its batch by `work`: the elements the batch's kernels
//! read and write. Above a threshold the chunks are split across the
//! rayon pool's work chunks; `for_each_init` builds one worker state per
//! executed chunk (real-rayon semantics: roughly one per participating
//! worker, never one shared guard for the whole batch), so at most one
//! scratch buffer per concurrently-running worker is live at a time.
//! Below it one state serves a serial loop. Chunk boundaries depend only
//! on the batch length and the caller's chunk length — not the thread
//! count — and every chunk writes a disjoint output, so results are
//! byte-identical at any `RAYON_NUM_THREADS`. A caller that sizes its
//! chunks by [`spread_len`] (the batched apply's column panels) makes the
//! boundaries follow the pool width, capped at the cores; it may only
//! because its chunks' outputs do not depend on where they are cut.
//!
//! A failing batch returns the error of its **lowest failing chunk**: the
//! serial loop stops there, the pool runs every chunk and keeps the
//! lowest one's error, so which error comes back does not depend on the
//! batch size or the thread count.

use std::convert::Infallible;
use std::sync::{Mutex, OnceLock, PoisonError};

use rayon::prelude::*;

/// Work at or below this many elements stays serial; smaller batches are
/// dominated by thread-pool dispatch.
const PAR_THRESHOLD: usize = 1 << 14;

/// The one serial/parallel decision: does a batch whose kernels read and
/// write `work` elements go to the pool?
pub(crate) fn parallel(work: usize) -> bool {
    work > PAR_THRESHOLD
}

/// Items per chunk when a batch of `items`, whose kernels read and write
/// `work` elements, is cut into chunks of at most `max`: `max` for a
/// serial batch, and for a batch the pool takes no wider than
/// `⌈items / threads⌉`, so that it spreads over every thread that can run
/// at once — the pool's, but no more than the cores. Never 0.
pub fn spread_len(work: usize, items: usize, max: usize) -> usize {
    spread_len_over(work, items, max, spread_threads())
}

/// The threads [`spread_len`] spreads a batch over: the pool's width,
/// capped at the cores. A pool wider than the machine runs no more chunks
/// at once, so spreading over it would only cut chunks narrower than the
/// kernels' register panels (`RAYON_NUM_THREADS=4` on 2 cores: 8 columns
/// as 4 panels of 2). The core count is read once per process, because
/// `available_parallelism` reads cgroup files on Linux.
fn spread_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    rayon::current_num_threads().min(cores)
}

/// [`spread_len`] over `threads` threads.
fn spread_len_over(work: usize, items: usize, max: usize, threads: usize) -> usize {
    let spread = if parallel(work) { items.div_ceil(threads) } else { max };
    spread.clamp(1, max.max(1))
}

/// Run `op` on every `(index, chunk)` of `data` cut into chunks of `len`,
/// with worker states from `init`: one per executed work chunk of the
/// pool when the batch's `work` goes to the pool, else one for a serial
/// loop. Returns the lowest failing chunk's error, if any (see the module
/// docs).
pub fn try_for_each_chunk_mut<E: Send, S: Send, X: Send>(
    work: usize,
    data: &mut [E],
    len: usize,
    init: impl Fn() -> S + Sync + Send,
    op: impl Fn(&mut S, (usize, &mut [E])) -> Result<(), X> + Sync + Send,
) -> Result<(), X> {
    if !parallel(work) {
        let mut state = init();
        return data.chunks_mut(len).enumerate().try_for_each(|item| op(&mut state, item));
    }
    let lowest = Mutex::new(None);
    data.par_chunks_mut(len).enumerate().for_each_init(init, |state, (i, chunk)| {
        if let Err(e) = op(state, (i, chunk)) {
            // Every update is one assignment, so a poisoned slot is whole.
            let mut slot = lowest.lock().unwrap_or_else(PoisonError::into_inner);
            if slot.as_ref().map_or(true, |&(j, _)| i < j) {
                *slot = Some((i, e));
            }
        }
    });
    let slot = lowest.into_inner().unwrap_or_else(PoisonError::into_inner);
    slot.map_or(Ok(()), |(_, e)| Err(e))
}

/// [`try_for_each_chunk_mut`] with an `op` that cannot fail.
pub fn for_each_chunk_mut<E: Send, S: Send>(
    work: usize,
    data: &mut [E],
    len: usize,
    init: impl Fn() -> S + Sync + Send,
    op: impl Fn(&mut S, (usize, &mut [E])) + Sync + Send,
) {
    let op = |state: &mut S, item: (usize, &mut [E])| {
        op(state, item);
        Ok::<(), Infallible>(())
    };
    try_for_each_chunk_mut(work, data, len, init, op).unwrap_or_else(|never| match never {})
}

/// [`for_each_chunk_mut`] over a batch the chunks only read.
pub fn for_each_chunk<E: Sync, S: Send>(
    work: usize,
    data: &[E],
    len: usize,
    init: impl Fn() -> S + Sync + Send,
    op: impl Fn(&mut S, (usize, &[E])) + Sync + Send,
) {
    // One zero-sized slot per chunk carries its index: as many items as
    // `data` has chunks, so the same split tree, and nothing allocated.
    let mut slots = vec![(); data.len().div_ceil(len)];
    for_each_chunk_mut(work, &mut slots, 1, init, |state, (i, _)| {
        op(state, (i, &data[i * len..data.len().min(i * len + len)]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::RwLock;

    /// Who may have work on the shared pool, as in
    /// `tests/parallel_equivalence.rs`: a thread that waits on the pool
    /// runs whatever is queued, so the test that counts live states takes
    /// this exclusively and the others hold it shared.
    static POOL: RwLock<()> = RwLock::new(());

    const CHUNKS: usize = 10;
    const LEN: usize = 4;
    const FAILING: [usize; 2] = [3, 7];

    /// Chunk `i` of `CHUNKS` fails with `i` when it is one of `FAILING`,
    /// else it writes `i + 1` into every element.
    fn op((i, chunk): (usize, &mut [usize])) -> Result<(), usize> {
        if FAILING.contains(&i) {
            return Err(i);
        }
        chunk.fill(i + 1);
        Ok(())
    }

    /// Chunks 3 and 7 fail: both sides of the threshold return chunk 3's
    /// error. Above it every non-failing chunk still runs; below it the
    /// loop stops at chunk 3.
    #[test]
    fn the_lowest_failing_chunk_wins_on_both_sides_of_the_threshold() {
        let _shared = POOL.read().unwrap_or_else(PoisonError::into_inner);
        for work in [PAR_THRESHOLD, PAR_THRESHOLD + 1] {
            let pooled = parallel(work);
            let ran = |i: usize| (pooled && !FAILING.contains(&i)) || i < FAILING[0];

            let mut data = vec![0; CHUNKS * LEN];
            let got = try_for_each_chunk_mut(work, &mut data, LEN, || (), |(), item| op(item));
            assert_eq!(got, Err(FAILING[0]), "work {work}");
            for (i, chunk) in data.chunks(LEN).enumerate() {
                let want = if ran(i) { i + 1 } else { 0 };
                assert!(chunk.iter().all(|&x| x == want), "work {work}: chunk {i} {chunk:?}");
            }
        }
    }

    /// The read-only batch hands out the chunks `data.chunks(len)` would,
    /// a short last one included, each once, on both sides of the
    /// threshold.
    #[test]
    fn a_read_only_batch_visits_every_chunk_of_a_ragged_batch_once() {
        let _shared = POOL.read().unwrap_or_else(PoisonError::into_inner);
        let data: Vec<usize> = (0..CHUNKS * LEN - 1).collect();
        let want: Vec<&[usize]> = data.chunks(LEN).collect();
        for work in [PAR_THRESHOLD, PAR_THRESHOLD + 1] {
            let visits: Vec<AtomicUsize> = (0..CHUNKS).map(|_| AtomicUsize::new(0)).collect();
            for_each_chunk(
                work,
                &data,
                LEN,
                || (),
                |(), (i, chunk)| {
                    assert_eq!(chunk, want[i], "work {work}: chunk {i}");
                    visits[i].fetch_add(1, Ordering::Relaxed);
                },
            );
            assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1), "work {work}");
        }
    }

    /// A serial batch is cut into the widest chunks, even on a wide pool
    /// (8 serve-shape columns, 9 216 elements, stay one panel of 8); a
    /// batch the pool takes is spread over its threads, but never over more
    /// threads than the cores: a 4-thread pool on 2 cores cuts 8 columns
    /// into 2 chunks of 4, not 4 of 2.
    #[test]
    fn only_a_batch_the_pool_takes_is_spread_over_its_threads() {
        for threads in [1, 2, 4, 8] {
            for items in [0, 1, 8, 13] {
                let what = format!("{items} items, {threads} threads");
                assert_eq!(spread_len_over(PAR_THRESHOLD, items, 8, threads), 8, "{what}, serial");
                let spread = items.div_ceil(threads).clamp(1, 8);
                let pooled = spread_len_over(PAR_THRESHOLD + 1, items, 8, threads);
                assert_eq!(pooled, spread, "{what}, pooled");
            }
        }
        assert_eq!(spread_len_over(PAR_THRESHOLD, 8, 0, 2), 1, "never 0");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = rayon::current_num_threads().min(cores);
        assert_eq!(spread_threads(), threads, "the pool's threads, capped at the cores");
        for items in [0, 1, 8, 13] {
            let want = spread_len_over(PAR_THRESHOLD + 1, items, 8, threads);
            assert_eq!(spread_len(PAR_THRESHOLD + 1, items, 8), want, "{items} items");
        }
    }

    /// One worker state, counting how many are live.
    struct State<'a>(&'a AtomicUsize);

    impl Drop for State<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// A serial loop builds exactly one state; the pool builds at most
    /// one per thread of the pool live at once, and every chunk runs.
    #[test]
    fn states_are_one_per_serial_loop_and_at_most_one_per_pool_thread() {
        let _alone = POOL.write().unwrap_or_else(PoisonError::into_inner);
        let threads = rayon::current_num_threads();
        for work in [PAR_THRESHOLD, 4 * PAR_THRESHOLD] {
            let (built, live, peak) =
                (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
            let init = || {
                built.fetch_add(1, Ordering::SeqCst);
                peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                State(&live)
            };
            let mut data = vec![0usize; 64 * LEN];
            for_each_chunk_mut(work, &mut data, LEN, init, |_, (i, chunk)| chunk.fill(i + 1));
            assert!(data.chunks(LEN).enumerate().all(|(i, c)| c.iter().all(|&x| x == i + 1)));
            assert_eq!(live.load(Ordering::SeqCst), 0, "work {work}: every state dropped");
            let (built, peak) = (built.into_inner(), peak.into_inner());
            if parallel(work) {
                assert!(peak <= threads, "work {work}: {peak} states live on {threads} threads");
            } else {
                assert_eq!(built, 1, "work {work}: a serial loop builds one state");
            }
        }
    }
}
