//! Offline stand-in for the crates.io `rayon` crate.
//!
//! Provides genuine data parallelism via `std::thread::scope` with the
//! subset of rayon's API this workspace uses:
//!
//! - `par_iter` / `into_par_iter` / `par_iter_mut` with `map`,
//!   `for_each`, `enumerate`, `collect`, `reduce`
//! - `par_chunks_mut` for disjoint-slice fills
//! - [`join`] for two-way fork-join
//! - [`ThreadPoolBuilder`] + [`current_num_threads`] thread-count knobs
//!   (honouring `RAYON_NUM_THREADS`)
//!
//! Unlike real rayon there is no work-stealing pool: each parallel call
//! splits its input into contiguous per-thread blocks and spawns scoped
//! threads. Results are concatenated in input order, so `map(...)
//! .collect()` is deterministic and independent of thread count — a
//! property the deterministic Monte Carlo loop and the corner sweep rely on.

#![deny(unsafe_code)]
#![deny(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread-count override installed by [`ThreadPoolBuilder::build_global`]
/// (0 = unset).
static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Number of threads parallel calls will use: the `build_global` override
/// if set, else `RAYON_NUM_THREADS`, else the machine's available
/// parallelism.
pub fn current_num_threads() -> usize {
    let configured = CONFIGURED_THREADS.load(Ordering::Relaxed);
    if configured > 0 {
        return configured;
    }
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Error type for [`ThreadPoolBuilder::build_global`] (never produced by
/// this shim, present for API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Configures the global thread count used by subsequent parallel calls.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start a builder with no overrides.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `n` threads (0 keeps the environment/machine default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Install the requested thread count globally. Unlike real rayon
    /// this may be called repeatedly; the last call wins.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        CONFIGURED_THREADS.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }
}

/// Run two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        let rb = hb.join().expect("rayon-compat: joined closure panicked");
        (ra, rb)
    })
}

/// Split `items` into contiguous per-thread blocks, apply `f` to each
/// element, and return results concatenated in input order.
fn run_blocks<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let len = items.len();
    let threads = current_num_threads().min(len.max(1));
    if threads <= 1 || len < 2 {
        return items.into_iter().map(f).collect();
    }
    let base = len / threads;
    let rem = len % threads;
    let mut blocks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    for t in 0..threads {
        let size = base + usize::from(t < rem);
        blocks.push(it.by_ref().take(size).collect());
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .into_iter()
            .map(|block| scope.spawn(move || block.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(len);
        for h in handles {
            out.extend(h.join().expect("rayon-compat: worker thread panicked"));
        }
        out
    })
}

/// An eager parallel iterator over a materialized item list.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Apply `f` to every item in parallel (lazy until a consumer runs).
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Pair each item with its index (in input order).
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Pair items positionally with another parallel iterator, stopping
    /// at the shorter of the two (as real rayon's indexed `zip` does).
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Run `f` on every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        run_blocks(self.items, &|t| f(t));
    }

    /// Accepted for API compatibility; the shim always splits into
    /// per-thread blocks, so the hint is a no-op.
    pub fn with_min_len(self, _min: usize) -> Self {
        self
    }
}

/// A mapped parallel iterator; consumed by `collect`, `for_each`,
/// `reduce`, or `sum`.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, R, F> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Materialize the mapped results in input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        C::from(run_blocks(self.items, &self.f))
    }

    /// Run the mapped computation for its side effects.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(R) + Sync,
    {
        let f = &self.f;
        run_blocks(self.items, &|t| g(f(t)));
    }

    /// Reduce mapped results with `op`, seeding each block with
    /// `identity()`. `op` must be associative and commutative with the
    /// identity for the result to be well-defined (as with real rayon).
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> R
    where
        ID: Fn() -> R + Sync,
        OP: Fn(R, R) -> R + Sync,
    {
        run_blocks(self.items, &self.f)
            .into_iter()
            .fold(identity(), &op)
    }

    /// Sum the mapped results.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<R>,
    {
        run_blocks(self.items, &self.f).into_iter().sum()
    }
}

/// Conversion into a [`ParIter`], by value.
pub trait IntoParallelIterator {
    /// Element type of the parallel iterator.
    type Item: Send;
    /// Build the parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// Conversion into a [`ParIter`] over shared references.
pub trait IntoParallelRefIterator<'a> {
    /// Element type (a shared reference).
    type Item: Send;
    /// Build the parallel iterator over `&self`'s elements.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Conversion into a [`ParIter`] over mutable references.
pub trait IntoParallelRefMutIterator<'a> {
    /// Element type (a mutable reference).
    type Item: Send;
    /// Build the parallel iterator over `&mut self`'s elements.
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

/// Parallel chunked views of mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks of length
    /// `chunk_size` (last chunk may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// Parallel chunked views of shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over non-overlapping chunks of length
    /// `chunk_size` (last chunk may be shorter).
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        ParIter {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

/// One-stop imports mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_fills_disjointly() {
        let mut data = vec![0u64; 100];
        data.par_chunks_mut(7).enumerate().for_each(|(ci, chunk)| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 7 + j) as u64;
            }
        });
        assert_eq!(data, (0..100u64).collect::<Vec<_>>());
    }

    /// The chunks `par_chunks_mut` hands out have exactly the bounds of
    /// `chunks_mut`, the short tail chunk included.
    #[test]
    fn chunk_bounds_matches_chunks_mut() {
        for &(len, cs) in &[
            (0usize, 7usize),
            (1, 7),
            (7, 7),
            (100, 7),
            (1024, 1024),
            (2049, 1024),
        ] {
            let mut data: Vec<usize> = (0..len).collect();
            let expect: Vec<(usize, usize)> = data
                .chunks_mut(cs)
                .map(|c| (c[0], c[0] + c.len()))
                .collect();
            let got: Vec<(usize, usize)> = data
                .par_chunks_mut(cs)
                .map(|c| (c[0], c[0] + c.len()))
                .collect();
            assert_eq!(got, expect, "len={len} cs={cs}");
        }
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn reduce_sums() {
        let total: u64 = (0..100usize).into_par_iter().map(|i| i as u64).sum();
        assert_eq!(total, 4950);
        let r = (1..5usize)
            .into_par_iter()
            .map(|i| i as u64)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(r, 10);
    }

    #[test]
    fn zip_pairs_positionally() {
        let mut scratch = vec![0usize; 3];
        let mut out = vec![0u64; 30];
        scratch
            .par_iter_mut()
            .zip(out.par_chunks_mut(10))
            .enumerate()
            .for_each(|(ci, (s, chunk))| {
                *s = ci;
                for v in chunk.iter_mut() {
                    *v = ci as u64;
                }
            });
        assert_eq!(scratch, vec![0, 1, 2]);
        assert_eq!(out[0], 0);
        assert_eq!(out[15], 1);
        assert_eq!(out[29], 2);
    }

    #[test]
    fn par_iter_over_refs() {
        let v = vec![1.0f64, 2.0, 3.0];
        let doubled: Vec<f64> = v.par_iter().map(|x| x * 2.0).collect();
        assert_eq!(doubled, vec![2.0, 4.0, 6.0]);
    }
}
