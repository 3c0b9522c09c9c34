//! Minimal stand-in for the slice/range data-parallel API of `rayon` that
//! this workspace uses: `par_iter().map().collect()`,
//! `into_par_iter().map().collect()`, and `par_chunks_mut()[.enumerate()]
//! .for_each()`, plus `join`.
//!
//! Execution model: each call fans work out over `std::thread::scope`
//! threads (no global pool, nothing persists between calls). Work is split
//! into contiguous index blocks and results are reassembled in order, so
//! every combinator is **deterministic**: outputs are identical to the
//! sequential evaluation, independent of thread count. Callers that need
//! strict single-threaded execution (e.g. inside another worker pool —
//! see the oversubscription note in `mixedp-kernels`) should use the
//! explicit `parallel: bool` paths those crates expose rather than relying
//! on this shim's internal threshold. The task runtime has one executor,
//! `mixedp_runtime::execute`; the factorization passes `parallel = true`
//! only when it runs that executor on a single worker (`nthreads = 1`, the
//! deterministic oracle), so DAG workers and kernel threads never stack.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Smallest number of work items worth spawning threads for.
const SPAWN_THRESHOLD: usize = 2;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Number of worker threads a parallel call may use.
pub fn current_num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    match std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Test hook / embedding hook: force the shim to a fixed thread count
/// (0 restores auto-detection).
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Run `a` and `b`, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() < 2 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("rayon-shim join worker panicked"))
    })
}

/// Map `f` over `items` with deterministic, order-preserving output.
fn pmap<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let threads = current_num_threads().min(n.max(1));
    if threads < 2 || n < SPAWN_THRESHOLD {
        return items.into_iter().map(f).collect();
    }
    let per = n.div_ceil(threads);
    let mut groups: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    loop {
        let g: Vec<T> = it.by_ref().take(per).collect();
        if g.is_empty() {
            break;
        }
        groups.push(g);
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|g| s.spawn(move || g.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            out.extend(h.join().expect("rayon-shim map worker panicked"));
        }
        out
    })
}

fn pforeach<T: Send>(items: Vec<T>, f: impl Fn(T) + Sync) {
    let n = items.len();
    let threads = current_num_threads().min(n.max(1));
    if threads < 2 || n < SPAWN_THRESHOLD {
        items.into_iter().for_each(f);
        return;
    }
    let per = n.div_ceil(threads);
    let mut groups: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    loop {
        let g: Vec<T> = it.by_ref().take(per).collect();
        if g.is_empty() {
            break;
        }
        groups.push(g);
    }
    let f = &f;
    std::thread::scope(|s| {
        for g in groups {
            s.spawn(move || g.into_iter().for_each(f));
        }
    });
}

// ---------------------------------------------------------------------------
// shared-slice iterator: slice.par_iter().map(f).collect()
// ---------------------------------------------------------------------------

pub struct ParIter<'a, T> {
    s: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    pub fn map<R: Send, F: Fn(&'a T) -> R + Sync>(self, f: F) -> ParMap<'a, T, F> {
        ParMap { s: self.s, f }
    }

    pub fn for_each<F: Fn(&'a T) + Sync>(self, f: F) {
        pforeach(self.s.iter().collect(), f);
    }
}

pub struct ParMap<'a, T, F> {
    s: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
        C: From<Vec<R>>,
    {
        C::from(pmap(self.s.iter().collect(), |t| (self.f)(t)))
    }
}

pub trait IntoParallelRefIterator<'a> {
    type Item: Sync + 'a;
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { s: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { s: self }
    }
}

// ---------------------------------------------------------------------------
// owning iterator: range/vec.into_par_iter().map(f).collect()
// ---------------------------------------------------------------------------

pub struct IntoParIter<T> {
    items: Vec<T>,
}

impl<T: Send> IntoParIter<T> {
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> IntoParMap<T, F> {
        IntoParMap {
            items: self.items,
            f,
        }
    }

    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        pforeach(self.items, f);
    }
}

pub struct IntoParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, F> IntoParMap<T, F> {
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(T) -> R + Sync,
        R: Send,
        C: From<Vec<R>>,
    {
        C::from(pmap(self.items, self.f))
    }
}

pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> IntoParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> IntoParIter<T> {
        IntoParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> IntoParIter<usize> {
        IntoParIter {
            items: self.collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// mutable chunk iterator: slice.par_chunks_mut(n)[.enumerate()].for_each(f)
// ---------------------------------------------------------------------------

pub struct ParChunksMut<'a, T> {
    chunks: Vec<&'a mut [T]>,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    pub fn for_each<F: Fn(&'a mut [T]) + Sync>(self, f: F) {
        pforeach(self.chunks, f);
    }

    pub fn enumerate(self) -> EnumerateChunksMut<'a, T> {
        EnumerateChunksMut {
            chunks: self.chunks,
        }
    }
}

pub struct EnumerateChunksMut<'a, T> {
    chunks: Vec<&'a mut [T]>,
}

impl<'a, T: Send> EnumerateChunksMut<'a, T> {
    pub fn for_each<F: Fn((usize, &'a mut [T])) + Sync>(self, f: F) {
        pforeach(self.chunks.into_iter().enumerate().collect(), f);
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ParChunksMut {
            chunks: self.chunks_mut(size).collect(),
        }
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        let out2: Vec<usize> = (0..1000).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out2, (1..1001).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_mut_writes_every_chunk() {
        let mut v = vec![0i64; 997]; // not a multiple of the chunk size
        v.par_chunks_mut(10).enumerate().for_each(|(i, c)| {
            for x in c.iter_mut() {
                *x = i as i64;
            }
        });
        for (k, &x) in v.iter().enumerate() {
            assert_eq!(x, (k / 10) as i64);
        }
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = super::join(|| 2 + 2, || "ok");
        assert_eq!((a, b), (4, "ok"));
    }
}
