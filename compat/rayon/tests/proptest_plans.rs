//! Property test of the write partition `par_chunks_mut` hands out — the
//! one the Monte Carlo sample loop fills its owned buffer through. For any
//! buffer length and chunk size, every element is written by exactly one
//! chunk, and chunk `k` owns exactly `[k * chunk, min((k + 1) * chunk,
//! len))`: disjoint, covering and in order, the short tail included.

use proptest::prelude::*;
use rayon::prelude::*;

proptest! {
    #[test]
    fn well_formed_partitions_certify_clean(len in 0usize..5000, chunk in 1usize..700) {
        let mut hits = vec![0u32; len];
        let mut owner = vec![usize::MAX; len];
        hits.par_chunks_mut(chunk)
            .zip(owner.par_chunks_mut(chunk))
            .enumerate()
            .for_each(|(k, (h, o))| {
                for (hv, ov) in h.iter_mut().zip(o.iter_mut()) {
                    *hv += 1;
                    *ov = k;
                }
            });
        prop_assert!(hits.iter().all(|&h| h == 1));
        for (i, &k) in owner.iter().enumerate() {
            prop_assert_eq!(k, i / chunk, "element {}", i);
        }
    }
}
