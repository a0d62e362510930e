use std::any::Any;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// A worker panic caught by [`try_parallel_map_with`].
///
/// The original payload is preserved, so infallible wrappers can
/// [`resume`](WorkerPanic::resume) it unchanged while fallible campaign
/// code converts it into a typed error via [`message`](WorkerPanic::message).
pub struct WorkerPanic {
    payload: Box<dyn Any + Send + 'static>,
}

impl WorkerPanic {
    /// A human-readable rendering of the panic payload (`&str`/`String`
    /// payloads verbatim, anything else a placeholder).
    #[must_use]
    pub fn message(&self) -> String {
        if let Some(s) = self.payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "worker panicked with a non-string payload".to_string()
        }
    }

    /// Re-raises the original panic on the calling thread.
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl fmt::Debug for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WorkerPanic({:?})", self.message())
    }
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker panicked: {}", self.message())
    }
}

/// Largest index space a single work-stealing pool round handles; larger
/// inputs fall back to sequential rounds of this size (the packed range
/// representation stores `begin`/`end` as `u32` halves).
const CHUNK_CAP: usize = u32::MAX as usize;

/// Applies `f` to every index in `0..n` using up to `threads` worker
/// threads, returning the results in index order.
///
/// Work is distributed by range stealing (see [`parallel_map_with`]), so
/// uneven per-item cost — typical for fault simulation, where cone sizes
/// vary wildly — does not serialize the run. With `threads <= 1` the
/// function degrades to a plain sequential map with no thread overhead.
///
/// # Example
///
/// ```
/// let squares = fastmon_sim::parallel_map(5, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(n, threads, || (), |(), i| f(i))
}

/// Like [`parallel_map`], but every worker thread carries a private mutable
/// state created once by `init` — the hook for reusable scratch buffers in
/// allocation-free hot loops.
///
/// # Scheduling
///
/// A work-stealing range pool: each worker starts with a contiguous slice
/// of the index space and pops items from its front. A worker whose slice
/// is exhausted steals the upper half of the largest remaining slice
/// (lock-free, one CAS per claim). This keeps hot caches on the common
/// path (consecutive indices share inputs), while uneven item costs are
/// rebalanced at half-range granularity instead of a single global cursor
/// that all threads contend on.
///
/// Results are written to disjoint output slots, so they are returned in
/// index order regardless of which worker computed them — callers observe
/// a deterministic result independent of `threads`.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread (workers are
/// isolated with `catch_unwind`, so a panicking item never aborts the
/// process before the pool has drained; use [`try_parallel_map_with`] to
/// receive it as a value instead). Index spaces larger than `u32::MAX`
/// are handled by chunked fallback rounds rather than panicking.
pub fn parallel_map_with<T, S, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    match try_parallel_map_with(n, threads, init, f) {
        Ok(out) => out,
        Err(panic) => panic.resume(),
    }
}

/// Panic-isolating variant of [`parallel_map_with`]: a panicking item is
/// caught (`catch_unwind`), the remaining workers stop claiming new work
/// and drain, and the first panic comes back as a [`WorkerPanic`] value —
/// the process never aborts, and campaign code can surface a typed error.
///
/// Index spaces larger than `u32::MAX` (the packed range representation)
/// are processed in sequential chunked rounds of at most `u32::MAX` items
/// each — per-worker state is re-created per round, results stay in index
/// order.
///
/// Each item consults the `parallel_worker` failpoint
/// (`fastmon_obs::failpoints`); because worker items have no error
/// channel, *both* failpoint actions surface as a contained panic here.
///
/// # Errors
///
/// Returns the first caught worker panic; any items not yet claimed when
/// the panic hit are skipped (their results are discarded anyway).
pub fn try_parallel_map_with<T, S, I, F>(
    n: usize,
    threads: usize,
    init: I,
    f: F,
) -> Result<Vec<T>, WorkerPanic>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    try_parallel_map_chunked(n, threads, CHUNK_CAP, init, f)
}

/// Per-worker states that outlive a single pool round.
///
/// [`try_parallel_map_with`] calls its `init` once per worker per call, so
/// a loop that runs many rounds (one per pattern band, one per PODEM
/// window) would rebuild its scratch every round. Passing
/// `|| pool.lease(make)` as `init` instead reuses the states of earlier
/// rounds: a [`Lease`] returns its state to the pool when the worker
/// finishes, and `make` runs only when the pool is empty — at most once
/// per concurrent worker over the pool's whole life.
///
/// A state whose worker panicked mid-item may come back half-updated;
/// every caller abandons its pool on the first contained panic.
///
/// # Example
///
/// ```
/// use fastmon_sim::{try_parallel_map_with, StatePool};
///
/// let pool = StatePool::new();
/// for round in 0..3 {
///     let out = try_parallel_map_with(8, 2, || pool.lease(Vec::<usize>::new), |buf, i| {
///         buf.clear();
///         buf.extend(0..i);
///         buf.len() + round
///     })
///     .unwrap();
///     assert_eq!(out[7], 7 + round);
/// }
/// ```
pub struct StatePool<S> {
    free: Mutex<Vec<S>>,
}

impl<S> StatePool<S> {
    /// An empty pool.
    #[must_use]
    pub const fn new() -> Self {
        StatePool {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Checks out a pooled state, or a fresh `make()` when none is free.
    pub fn lease(&self, make: impl FnOnce() -> S) -> Lease<'_, S> {
        let pooled = self
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        Lease {
            pool: self,
            state: Some(pooled.unwrap_or_else(make)),
        }
    }
}

impl<S> Default for StatePool<S> {
    fn default() -> Self {
        StatePool::new()
    }
}

/// A state checked out of a [`StatePool`]; returned to it on drop.
pub struct Lease<'p, S> {
    pool: &'p StatePool<S>,
    state: Option<S>,
}

impl<S> std::ops::Deref for Lease<'_, S> {
    type Target = S;

    fn deref(&self) -> &S {
        match &self.state {
            Some(s) => s,
            None => unreachable!("a lease holds its state until dropped"),
        }
    }
}

impl<S> std::ops::DerefMut for Lease<'_, S> {
    fn deref_mut(&mut self) -> &mut S {
        match &mut self.state {
            Some(s) => s,
            None => unreachable!("a lease holds its state until dropped"),
        }
    }
}

impl<S> Drop for Lease<'_, S> {
    fn drop(&mut self) {
        if let Some(s) = self.state.take() {
            self.pool
                .free
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(s);
        }
    }
}

/// Chunked driver behind [`try_parallel_map_with`]; `cap` is a parameter
/// (instead of the `CHUNK_CAP` constant) so tests can exercise the
/// multi-round path without allocating 2^32 items.
fn try_parallel_map_chunked<T, S, I, F>(
    n: usize,
    threads: usize,
    cap: usize,
    init: I,
    f: F,
) -> Result<Vec<T>, WorkerPanic>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let cap = cap.max(1);
    let mut out: Vec<T> = Vec::with_capacity(n);
    let mut base = 0usize;
    while base < n {
        let len = (n - base).min(cap);
        run_round(base, len, threads, &init, &f, &mut out)?;
        base += len;
    }
    Ok(out)
}

/// Runs one pool round over global indices `base..base + len`, appending
/// results (in index order) to `out`.
fn run_round<T, S, I, F>(
    base: usize,
    len: usize,
    threads: usize,
    init: &I,
    f: &F,
    out: &mut Vec<T>,
) -> Result<(), WorkerPanic>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if threads <= 1 || len <= 1 {
        let mut state = init();
        for i in 0..len {
            out.push(run_item(f, &mut state, base + i).map_err(|payload| WorkerPanic { payload })?);
        }
        return Ok(());
    }
    let threads = threads.min(len);

    // per-worker (begin, end) ranges, packed into one atomic each
    let slots: Vec<AtomicU64> = (0..threads)
        .map(|w| AtomicU64::new(pack(w * len / threads, (w + 1) * len / threads)))
        .collect();

    let mut round: Vec<Option<T>> = Vec::with_capacity(len);
    round.resize_with(len, || None);
    let out_ptr = SendPtr(round.as_mut_ptr());

    // Set on the first contained panic; workers observe it and stop
    // claiming new items so the scope drains promptly.
    let abort = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for w in 0..threads {
            let slots = &slots;
            let init = &init;
            let f = &f;
            let abort = &abort;
            let first_panic = &first_panic;
            scope.spawn(move || {
                let mut state = init();
                while !abort.load(Ordering::Relaxed) {
                    let Some(i) = claim(slots, w) else { break };
                    match run_item(f, &mut state, base + i) {
                        // SAFETY: each index is claimed by exactly one
                        // worker (see `claim`), so writes to disjoint
                        // slots never alias; the vec outlives the scope.
                        Ok(value) => unsafe { out_ptr.write(i, Some(value)) },
                        Err(payload) => {
                            let mut guard =
                                first_panic.lock().unwrap_or_else(PoisonError::into_inner);
                            guard.get_or_insert(payload);
                            abort.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            });
        }
    });

    let caught = first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(payload) = caught {
        return Err(WorkerPanic { payload });
    }
    out.extend(
        round
            .into_iter()
            .map(|v| v.unwrap_or_else(|| unreachable!("every index was processed"))),
    );
    Ok(())
}

/// Executes one item under `catch_unwind`, consulting the
/// `parallel_worker` failpoint first.
fn run_item<T, S, F>(f: &F, state: &mut S, i: usize) -> Result<T, Box<dyn Any + Send>>
where
    F: Fn(&mut S, usize) -> T,
{
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        if let Err(injected) = fastmon_obs::failpoints::fire("parallel_worker") {
            // No error channel per item: surface err-actions as a
            // contained panic too.
            panic!("{injected}");
        }
        f(state, i)
    }))
}

/// Packs a `[begin, end)` index range into one `u64`.
fn pack(begin: usize, end: usize) -> u64 {
    ((begin as u64) << 32) | end as u64
}

/// Unpacks a `[begin, end)` index range.
#[allow(clippy::cast_possible_truncation)]
fn unpack(packed: u64) -> (usize, usize) {
    ((packed >> 32) as usize, (packed & 0xffff_ffff) as usize)
}

/// Claims the next work item for worker `w`: first from its own range,
/// then by stealing the upper half of the largest other range. Returns
/// `None` when no claimable work remains anywhere.
fn claim(slots: &[AtomicU64], w: usize) -> Option<usize> {
    // fast path: pop from the worker's own range front
    loop {
        let cur = slots[w].load(Ordering::SeqCst);
        let (begin, end) = unpack(cur);
        if begin >= end {
            break;
        }
        if slots[w]
            .compare_exchange_weak(
                cur,
                pack(begin + 1, end),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            return Some(begin);
        }
    }
    // steal: largest victim range, upper half
    loop {
        let mut best: Option<(usize, u64, usize, usize)> = None;
        for (v, slot) in slots.iter().enumerate() {
            if v == w {
                continue;
            }
            let cur = slot.load(Ordering::SeqCst);
            let (begin, end) = unpack(cur);
            if begin < end && best.is_none_or(|(_, _, b, e)| end - begin > e - b) {
                best = Some((v, cur, begin, end));
            }
        }
        let (victim, cur, begin, end) = best?;
        // leave [begin, mid) with the victim, take [mid, end)
        let mid = begin + (end - begin) / 2;
        let mid = mid.max(begin); // len 1 → steal the single item
        if slots[victim]
            .compare_exchange(cur, pack(begin, mid), Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            // publish the stolen remainder before working on `mid`
            slots[w].store(pack(mid + 1, end), Ordering::SeqCst);
            return Some(mid);
        }
        // lost the race — rescan
    }
}

/// A raw pointer wrapper that is `Send`/`Copy` so worker threads can write
/// disjoint slots of the shared output buffer.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Writes `value` to slot `i`.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that slot `i` is in bounds, not aliased by
    /// a concurrent writer, and that the underlying buffer outlives the
    /// call.
    unsafe fn write(&self, i: usize, value: T) {
        // SAFETY: forwarded to the caller's contract.
        unsafe { *self.0.add(i) = value };
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: the pointer is only used to write disjoint indices, coordinated
// by the range pool, inside a thread scope that the buffer outlives.
unsafe impl<T: Send> Send for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn state_pool_reuses_states_across_rounds() {
        let made = AtomicUsize::new(0);
        let pool = StatePool::new();
        for _ in 0..20 {
            let out = try_parallel_map_with(
                50,
                3,
                || {
                    pool.lease(|| {
                        made.fetch_add(1, Ordering::SeqCst);
                        0usize
                    })
                },
                |uses, i| {
                    **uses += 1;
                    i
                },
            )
            .unwrap();
            assert_eq!(out, (0..50).collect::<Vec<_>>());
        }
        // at most one state per concurrent worker over the pool's life
        assert!(made.load(Ordering::SeqCst) <= 3);
        let leased = pool.lease(|| usize::MAX);
        assert!(*leased < usize::MAX, "a pooled state is handed out first");
    }

    #[test]
    fn sequential_fallback() {
        assert_eq!(parallel_map(4, 1, |i| i + 1), vec![1, 2, 3, 4]);
        assert_eq!(parallel_map(0, 8, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq: Vec<usize> = (0..1000).map(|i| i * 3).collect();
        let par = parallel_map(1000, 8, |i| i * 3);
        assert_eq!(seq, par);
    }

    #[test]
    fn uneven_work_is_completed() {
        let par = parallel_map(64, 4, |i| {
            // simulate uneven cost
            let mut acc = 0usize;
            for k in 0..(i % 7) * 1000 {
                acc = acc.wrapping_add(k);
            }
            (i, acc)
        });
        for (i, item) in par.iter().enumerate() {
            assert_eq!(item.0, i);
        }
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(parallel_map(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn every_index_claimed_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        parallel_map(500, 8, |i| hits[i].fetch_add(1, Ordering::SeqCst));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "index {i}");
        }
    }

    #[test]
    fn per_worker_state_is_reused() {
        // each worker's state counts its items; the sum must equal n
        let n = 300;
        let counts: Vec<usize> = parallel_map_with(
            n,
            4,
            || 0usize,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        // the per-item value is the worker-local running count, so the
        // maximum over all items of each worker equals its item share;
        // globally, every item got exactly one value >= 1
        assert_eq!(counts.len(), n);
        assert!(counts.iter().all(|&c| c >= 1));
    }

    #[test]
    fn worker_panic_is_contained_and_typed() {
        let res = try_parallel_map_with(
            200,
            4,
            || (),
            |(), i| {
                assert!(i != 137, "boom at {i}");
                i * 2
            },
        );
        let panic = res.expect_err("the panicking item must surface as Err");
        assert!(panic.message().contains("boom at 137"), "{panic}");
    }

    #[test]
    fn sequential_panic_is_contained_too() {
        let res =
            try_parallel_map_with(8, 1, || (), |(), i| if i == 3 { panic!("seq") } else { i });
        assert!(res.expect_err("sequential path must contain too").message() == "seq");
    }

    #[test]
    fn parallel_map_with_still_propagates_panics() {
        // Infallible wrapper keeps the historical contract: the original
        // payload is re-raised on the caller.
        let caught = std::panic::catch_unwind(|| {
            parallel_map(16, 2, |i| {
                assert!(i != 5, "legacy propagate");
                i
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("legacy propagate"), "{msg}");
    }

    // Satellite regression: index spaces beyond the packed-u32 range fall
    // back to chunked rounds instead of the old
    // `assert!(u32::try_from(n).is_ok())` panic. Exercised with a small
    // cap so the test does not allocate 2^32 items.
    #[test]
    fn chunked_fallback_matches_sequential() {
        for (n, cap, threads) in [(23, 7, 4), (10, 10, 4), (11, 10, 4), (5, 1, 2), (0, 3, 4)] {
            let seq: Vec<usize> = (0..n).map(|i| i * 31 + 1).collect();
            let chunked =
                try_parallel_map_chunked(n, threads, cap, || (), |(), i| i * 31 + 1).unwrap();
            assert_eq!(seq, chunked, "n={n} cap={cap} threads={threads}");
        }
    }

    #[test]
    fn chunked_fallback_contains_panics_in_later_rounds() {
        let res = try_parallel_map_chunked(
            30,
            4,
            8,
            || (),
            |(), i| {
                assert!(i != 27, "late-round boom");
                i
            },
        );
        assert!(res
            .expect_err("panic in round 4 must be contained")
            .message()
            .contains("late-round boom"));
    }

    #[test]
    fn skewed_single_heavy_tail_balances() {
        // one block of indices is 100× heavier; stealing must still finish
        // and return correct results
        let par = parallel_map(256, 8, |i| {
            let rounds = if i < 32 { 20_000 } else { 200 };
            let mut acc = 0u64;
            for k in 0..rounds {
                acc = acc.wrapping_mul(31).wrapping_add(k ^ i as u64);
            }
            (i, acc)
        });
        for (i, item) in par.iter().enumerate() {
            assert_eq!(item.0, i);
        }
    }
}
