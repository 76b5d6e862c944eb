//! The counting-sort level schedule.
//!
//! The incremental engine's dirty-cone drain
//! ([`crate::incremental::IncrementalSsta`]) visits gates level by level;
//! [`LevelSchedule`] groups `Circuit::levels()` into one CSR order for it.
//!
//! The construction is a stable counting sort: gates are bucketed by
//! level and, within a level, kept in ascending gate-id order (ids are
//! visited in order). Both properties are load-bearing — level order is
//! the dependency order of the drain, and ascending ids within a level
//! fix the fold order the bit-identity contract pins.

use sgs_netlist::Circuit;

/// Gates grouped by topological level in CSR form.
///
/// `order` holds every gate id exactly once, grouped by level;
/// `level_ptr` holds the CSR starts (one entry per level plus the end
/// sentinel), so level `l` owns `order[level_ptr[l]..level_ptr[l + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSchedule {
    /// Topological level of each gate, indexed by gate id.
    level_of: Vec<usize>,
    /// CSR starts into `order`, one entry per level plus the end sentinel.
    level_ptr: Vec<usize>,
    /// Gate ids grouped by level, ascending within each level.
    order: Vec<usize>,
}

impl LevelSchedule {
    /// Counting-sorts `level_of` (gate id → topological level) into the
    /// CSR schedule. Stable: within a level, gate ids stay ascending.
    pub fn from_levels(level_of: Vec<usize>) -> Self {
        let depth = level_of.iter().copied().max().unwrap_or(0);
        let mut level_ptr = vec![0usize; depth + 2];
        for &l in &level_of {
            level_ptr[l + 1] += 1;
        }
        for l in 0..=depth {
            level_ptr[l + 1] += level_ptr[l];
        }
        let mut next = level_ptr.clone();
        let mut order = vec![0usize; level_of.len()];
        // Ascending gate ids within a level: ids are visited in order.
        for (i, &l) in level_of.iter().enumerate() {
            order[next[l]] = i;
            next[l] += 1;
        }
        LevelSchedule {
            level_of,
            level_ptr,
            order,
        }
    }

    /// Builds the schedule for `circuit` from its topological levels.
    pub fn for_circuit(circuit: &Circuit) -> Self {
        Self::from_levels(circuit.levels())
    }

    /// Number of levels (including empty ones up to the deepest gate).
    pub fn num_levels(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// Number of scheduled gates (the circuit's gate count).
    pub fn num_gates(&self) -> usize {
        self.order.len()
    }

    /// Topological level of gate `g`.
    #[inline]
    pub fn level_of(&self, g: usize) -> usize {
        self.level_of[g]
    }

    /// CSR starts into [`LevelSchedule::order`], one per level plus the
    /// end sentinel.
    pub fn level_ptr(&self) -> &[usize] {
        &self.level_ptr
    }

    /// Gate ids grouped by level, ascending within each level.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The gate ids of level `l`.
    #[inline]
    pub fn level(&self, l: usize) -> &[usize] {
        &self.order[self.level_ptr[l]..self.level_ptr[l + 1]]
    }

    /// Width of the widest level.
    pub fn widest(&self) -> usize {
        (0..self.num_levels())
            .map(|l| self.level_ptr[l + 1] - self.level_ptr[l])
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_netlist::generate;

    #[test]
    fn schedule_partitions_gates_by_level() {
        for c in [
            generate::tree7(),
            generate::inverter_chain(9),
            generate::ripple_carry_adder(16),
        ] {
            let sched = LevelSchedule::for_circuit(&c);
            let levels = c.levels();
            assert_eq!(sched.num_gates(), c.num_gates());
            // Every gate appears exactly once, in its own level's range,
            // ascending within the level.
            let mut seen = vec![false; c.num_gates()];
            for l in 0..sched.num_levels() {
                let gates = sched.level(l);
                for w in gates.windows(2) {
                    assert!(w[0] < w[1], "ascending ids within level {l}");
                }
                for &g in gates {
                    assert_eq!(levels[g], l);
                    assert_eq!(sched.level_of(g), l);
                    assert!(!seen[g], "gate {g} scheduled twice");
                    seen[g] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "coverage");
            assert!(sched.widest() >= 1);
        }
    }

    #[test]
    fn empty_circuit_schedule_is_empty() {
        let sched = LevelSchedule::from_levels(Vec::new());
        assert_eq!(sched.num_gates(), 0);
        assert_eq!(sched.widest(), 0);
        assert_eq!(sched.num_levels(), 1);
        assert!(sched.level(0).is_empty());
    }
}
