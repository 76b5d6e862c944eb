//! Structure-of-arrays arrival storage.
//!
//! [`ArrivalSoa`] holds the circuit-wide arrival state as two contiguous
//! `(mu, var)` arrays instead of per-gate [`Normal`] structs. It backs the
//! full pass and the incremental engine's dirty-cone updates, which read
//! it — and the array-of-structs form held in an [`crate::SstaReport`] —
//! through the [`ArrivalRead`] abstraction.

use sgs_statmath::Normal;

/// Read access to per-gate arrival distributions, indexed by gate id.
///
/// Lets the pure propagation functions ([`crate::analysis::gate_arrival`]
/// and friends) run unchanged over both the legacy array-of-structs form
/// (`[Normal]`, as held in an [`crate::SstaReport`]) and the contiguous
/// [`ArrivalSoa`] the full pass and the incremental engine use internally.
pub trait ArrivalRead {
    /// Arrival distribution at gate `idx`.
    fn arrival(&self, idx: usize) -> Normal;
}

impl ArrivalRead for [Normal] {
    #[inline]
    fn arrival(&self, idx: usize) -> Normal {
        self[idx]
    }
}

impl ArrivalRead for Vec<Normal> {
    #[inline]
    fn arrival(&self, idx: usize) -> Normal {
        self[idx]
    }
}

/// Per-gate arrival moments in structure-of-arrays layout: one contiguous
/// mean array and one contiguous variance array, indexed by gate id.
///
/// This is the shared arrival storage of the analysis paths. Splitting
/// the [`Normal`] pair is lossless — the type stores `(mean, var)` — and
/// the flat arrays are what the batched Clark kernel gathers from and
/// scatters to without per-gate struct hops.
#[derive(Debug, Clone, Default)]
pub struct ArrivalSoa {
    mu: Vec<f64>,
    var: Vec<f64>,
}

impl ArrivalSoa {
    /// Empty storage with room for `n` gates.
    pub fn with_capacity(n: usize) -> Self {
        ArrivalSoa {
            mu: Vec::with_capacity(n),
            var: Vec::with_capacity(n),
        }
    }

    /// Number of gates stored.
    pub fn len(&self) -> usize {
        self.mu.len()
    }

    /// Whether no arrivals are stored.
    pub fn is_empty(&self) -> bool {
        self.mu.is_empty()
    }

    /// Appends one arrival.
    pub fn push(&mut self, a: Normal) {
        self.mu.push(a.mean());
        self.var.push(a.var());
    }

    /// The arrival at gate `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> Normal {
        Normal::from_mean_var(self.mu[idx], self.var[idx])
    }

    /// Overwrites the arrival at gate `idx`.
    #[inline]
    pub fn set(&mut self, idx: usize, a: Normal) {
        self.mu[idx] = a.mean();
        self.var[idx] = a.var();
    }

    /// Iterates the stored arrivals in gate order.
    pub fn iter(&self) -> impl Iterator<Item = Normal> + '_ {
        self.mu
            .iter()
            .zip(&self.var)
            .map(|(&m, &v)| Normal::from_mean_var(m, v))
    }

    /// The contiguous mean array.
    pub fn mu(&self) -> &[f64] {
        &self.mu
    }

    /// The contiguous variance array.
    pub fn var(&self) -> &[f64] {
        &self.var
    }

    /// Converts to the array-of-structs form used in reports.
    pub fn to_normals(&self) -> Vec<Normal> {
        self.iter().collect()
    }
}

impl ArrivalRead for ArrivalSoa {
    #[inline]
    fn arrival(&self, idx: usize) -> Normal {
        Normal::from_mean_var(self.mu[idx], self.var[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soa_roundtrips_normals() {
        let mut soa = ArrivalSoa::with_capacity(3);
        let xs = [
            Normal::new(1.0, 0.5),
            Normal::new(2.0, 0.0),
            Normal::from_mean_var(3.0, 9.0),
        ];
        for &x in &xs {
            soa.push(x);
        }
        assert_eq!(soa.len(), 3);
        assert!(!soa.is_empty());
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(soa.get(i), x);
            assert_eq!(soa.arrival(i), x);
        }
        soa.set(1, xs[2]);
        assert_eq!(soa.get(1), xs[2]);
        assert_eq!(soa.to_normals()[0], xs[0]);
    }
}
