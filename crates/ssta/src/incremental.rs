//! Incremental SSTA: dirty-cone re-propagation that is bit-identical to a
//! from-scratch run.
//!
//! The paper's analytical stochastic maximum makes every arrival moment a
//! deterministic function of the speed vector, so when only a few sizes
//! change, only the affected cones can change. [`IncrementalSsta`] keeps
//! the last arrival per gate and the last circuit delay, accepts a set of
//! changed sizes, and recomputes just the gates whose delay or fan-in
//! arrivals may differ.
//!
//! # Dirty seeding under load coupling
//!
//! A gate's delay `mu_t = t_int + c (C_load + sum C_in,j S_j) / S` depends
//! on its **own** size and, through the load sum, on the sizes of its
//! **fanout** gates. Changing `S_g` therefore dirties gate `g` *and every
//! gate that drives `g`* (gates whose fanout list contains `g`); arrival
//! changes then propagate forward through fanout cones via the worklist.
//!
//! # Bit-identity contract
//!
//! Dirty gates are drained level by level through the counting-sort
//! [`LevelSchedule`]. Fan-ins sit at strictly lower
//! levels, so every dirty fan-in settles before its reader, and each
//! recomputation calls the *same* pure `gate_arrival` left fold the full
//! analysis uses — identical operands in identical order give identical
//! bits. Early termination is exact, not tolerance-based: propagation
//! stops through a gate only when its recomputed `(mean, var)` is
//! **bitwise unchanged**, in which case every downstream quantity reads
//! exactly the operands it read before and cannot change either. The
//! output max fold is re-run only when some primary-output arrival
//! changed, again through the shared `delay_from_arrivals`. The
//! differential oracle battery in `tests/oracle_incremental.rs` pins this
//! contract with `to_bits()` equality against fresh [`crate::ssta`] runs.

use crate::analysis::{check_inputs, delay_from_arrivals, full_pass, gate_arrival, SstaReport};
use crate::delay::DelayModel;
use crate::levels::LevelSchedule;
use crate::soa::ArrivalSoa;
use sgs_netlist::{Circuit, GateId, Library, Signal};
use sgs_statmath::{clark, Normal};

/// Work accounting for one [`IncrementalSsta::set_sizes`] /
/// [`IncrementalSsta::apply`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Gates whose arrival was recomputed (the dirty-cone size). A no-op
    /// perturbation — every new size bitwise equal to the old — is `0`.
    pub gates_recomputed: usize,
    /// Of those, gates whose recomputed arrival was bitwise unchanged, so
    /// the frontier did not expand through them.
    pub frontier_pruned: usize,
    /// Whether a primary-output arrival changed and the circuit-delay max
    /// fold was re-run.
    pub delay_refolded: bool,
}

/// Incremental statistical timing engine over one circuit.
///
/// Holds the last speed vector, per-gate arrivals and circuit delay;
/// [`IncrementalSsta::apply`] moves all of them to a new speed vector by
/// recomputing only the dirty cone. State after any update sequence is
/// bit-identical to [`crate::ssta`] at the same sizes.
///
/// # Example
///
/// ```
/// use sgs_netlist::{generate, Library};
/// use sgs_ssta::{ssta, IncrementalSsta};
///
/// let c = generate::tree7();
/// let lib = Library::paper_default();
/// let mut inc = IncrementalSsta::new(&c, &lib, &vec![1.0; 7]);
/// let stats = inc.apply(&[(sgs_netlist::GateId(0), 2.0)]);
/// assert!(stats.gates_recomputed < 7);
/// let mut s = vec![1.0; 7];
/// s[0] = 2.0;
/// let fresh = ssta(&c, &lib, &s);
/// assert_eq!(inc.delay(), fresh.delay);
/// ```
pub struct IncrementalSsta<'a> {
    circuit: &'a Circuit,
    model: DelayModel,
    input_arrivals: Option<Vec<Normal>>,
    s: Vec<f64>,
    /// Per-gate arrival moments in the shared structure-of-arrays layout.
    arrivals: ArrivalSoa,
    delay: Normal,
    /// Scratch membership flags for the worklist (all false between calls).
    dirty: Vec<bool>,
    /// The shared counting-sort level schedule that orders the dirty
    /// drain (fan-ins sit at strictly lower levels).
    schedule: LevelSchedule,
    /// Per-level dirty worklist bins, reused across calls (all empty
    /// between calls).
    level_bins: Vec<Vec<usize>>,
    /// First position of each gate in the output list (`usize::MAX` for
    /// non-outputs).
    out_pos: Vec<usize>,
    /// Running left-fold accumulators of the output max chain:
    /// `out_prefix[i]` is `max_n(outputs[0..=i])`, so the circuit delay is
    /// the last entry and a change in output position `p` only needs the
    /// fold re-run from `p` on (the prefix before `p` is bitwise the same
    /// values the full fold would produce).
    out_prefix: Vec<Normal>,
    updates: u64,
    total_recomputed: u64,
}

/// Bitwise state equality — the exact early-termination predicate.
#[inline]
fn same_bits(a: Normal, b: Normal) -> bool {
    a.mean().to_bits() == b.mean().to_bits() && a.var().to_bits() == b.var().to_bits()
}

impl<'a> IncrementalSsta<'a> {
    /// Builds the engine with one full (sequential, left-fold) pass at
    /// speed vector `s` and zero-arrival primary inputs.
    ///
    /// # Panics
    ///
    /// Panics if `s.len() != circuit.num_gates()`.
    pub fn new(circuit: &'a Circuit, lib: &Library, s: &[f64]) -> Self {
        Self::with_arrivals(circuit, lib, s, None)
    }

    /// [`IncrementalSsta::new`] with explicit primary-input arrival
    /// distributions.
    ///
    /// # Panics
    ///
    /// Panics if `s.len() != circuit.num_gates()` or the arrival slice
    /// length differs from the input count.
    pub fn with_arrivals(
        circuit: &'a Circuit,
        lib: &Library,
        s: &[f64],
        input_arrivals: Option<&[Normal]>,
    ) -> Self {
        check_inputs(circuit, s, input_arrivals);
        let model = DelayModel::new(circuit, lib);
        let n = circuit.num_gates();
        let arrivals = full_pass(
            circuit,
            &model,
            s,
            input_arrivals,
            ArrivalSoa::with_capacity(n),
        );
        let mut out_pos = vec![usize::MAX; n];
        let mut out_prefix = Vec::with_capacity(circuit.outputs().len());
        for (p, &o) in circuit.outputs().iter().enumerate() {
            out_pos[o.index()] = out_pos[o.index()].min(p);
            let a = arrivals.get(o.index());
            out_prefix.push(match out_prefix.last() {
                Some(&acc) => clark::max(acc, a),
                None => a,
            });
        }
        let delay = *out_prefix.last().expect("validated circuits have outputs");
        debug_assert_eq!(
            delay.mean().to_bits(),
            delay_from_arrivals(circuit, &arrivals).mean().to_bits(),
            "prefix fold must replay the full output fold exactly"
        );
        let schedule = LevelSchedule::for_circuit(circuit);
        let level_bins = vec![Vec::new(); schedule.num_levels()];
        IncrementalSsta {
            circuit,
            model,
            input_arrivals: input_arrivals.map(<[Normal]>::to_vec),
            s: s.to_vec(),
            arrivals,
            delay,
            dirty: vec![false; n],
            schedule,
            level_bins,
            out_pos,
            out_prefix,
            updates: 0,
            total_recomputed: 0,
        }
    }

    /// The level schedule ordering this engine's dirty drain.
    pub fn schedule(&self) -> &LevelSchedule {
        &self.schedule
    }

    /// Applies a set of size changes and re-propagates the dirty cone.
    ///
    /// Changes whose new size is bitwise equal to the current one are
    /// skipped entirely (they cannot move any moment). Later entries for
    /// the same gate override earlier ones.
    ///
    /// # Panics
    ///
    /// Panics if a gate id is out of range.
    pub fn apply(&mut self, changes: &[(GateId, f64)]) -> UpdateStats {
        let mut min_level = usize::MAX;
        for &(g, v) in changes {
            let gi = g.index();
            if v.to_bits() == self.s[gi].to_bits() {
                continue;
            }
            self.s[gi] = v;
            // The changed gate's own delay moves, and — load coupling —
            // so does the delay of every gate driving it.
            if !self.dirty[gi] {
                self.dirty[gi] = true;
                self.level_bins[self.schedule.level_of(gi)].push(gi);
                min_level = min_level.min(self.schedule.level_of(gi));
            }
            for &sig in &self.circuit.gate(g).inputs {
                if let Signal::Gate(src) = sig {
                    let si = src.index();
                    if !self.dirty[si] {
                        self.dirty[si] = true;
                        self.level_bins[self.schedule.level_of(si)].push(si);
                        min_level = min_level.min(self.schedule.level_of(si));
                    }
                }
            }
        }

        let mut stats = UpdateStats::default();
        let mut first_changed_out = usize::MAX;
        // Level order is dependency order: by the time a level drains,
        // every dirty fan-in (strictly lower level) has settled, and
        // processing only ever pushes fanouts (strictly higher levels),
        // so no gate is visited twice. Within a level gates are
        // independent; draining them in ascending id keeps the stats and
        // trace deterministic.
        let mut l = if min_level == usize::MAX {
            self.level_bins.len()
        } else {
            min_level
        };
        while l < self.level_bins.len() {
            let mut bin = std::mem::take(&mut self.level_bins[l]);
            bin.sort_unstable();
            for idx in bin.drain(..) {
                self.dirty[idx] = false;
                let a = gate_arrival(
                    self.circuit,
                    &self.model,
                    &self.s,
                    &self.arrivals,
                    self.input_arrivals.as_deref(),
                    idx,
                );
                stats.gates_recomputed += 1;
                if same_bits(a, self.arrivals.get(idx)) {
                    // Exactly unchanged: everything downstream reads the
                    // same operands as before, so the frontier stops here.
                    stats.frontier_pruned += 1;
                    continue;
                }
                self.arrivals.set(idx, a);
                first_changed_out = first_changed_out.min(self.out_pos[idx]);
                for &f in self.model.fanouts(GateId(idx)) {
                    let fi = f.index();
                    if !self.dirty[fi] {
                        self.dirty[fi] = true;
                        self.level_bins[self.schedule.level_of(fi)].push(fi);
                    }
                }
            }
            // Hand the (now empty) bin back so its capacity is reused.
            self.level_bins[l] = bin;
            l += 1;
        }
        if first_changed_out != usize::MAX {
            // Resume the output max fold at the first changed position:
            // every accumulator before it folds bitwise-identical operands,
            // so the suffix recomputation reproduces the full fold exactly.
            let outputs = self.circuit.outputs();
            for (p, o) in outputs.iter().enumerate().skip(first_changed_out) {
                let a = self.arrivals.get(o.index());
                self.out_prefix[p] = if p == 0 {
                    a
                } else {
                    clark::max(self.out_prefix[p - 1], a)
                };
            }
            self.delay = *self.out_prefix.last().expect("outputs are non-empty");
            stats.delay_refolded = true;
        }
        self.updates += 1;
        self.total_recomputed += stats.gates_recomputed as u64;
        {
            use sgs_metrics::{add, incr, observe, Counter, HistId};
            incr(Counter::SstaIncrementalUpdates);
            add(Counter::SstaGatesRecomputed, stats.gates_recomputed as u64);
            add(Counter::SstaFrontierPruned, stats.frontier_pruned as u64);
            observe(HistId::SstaIncrementalGates, stats.gates_recomputed as f64);
        }
        stats
    }

    /// Moves the engine to a full speed vector, diffing against the
    /// current one bitwise and applying only the changed entries.
    ///
    /// # Panics
    ///
    /// Panics if `s.len() != circuit.num_gates()`.
    pub fn set_sizes(&mut self, s: &[f64]) -> UpdateStats {
        assert_eq!(s.len(), self.s.len(), "speed vector length mismatch");
        let changes: Vec<(GateId, f64)> = s
            .iter()
            .enumerate()
            .filter(|(i, v)| v.to_bits() != self.s[*i].to_bits())
            .map(|(i, &v)| (GateId(i), v))
            .collect();
        self.apply(&changes)
    }

    /// The circuit this engine analyses.
    pub fn circuit(&self) -> &'a Circuit {
        self.circuit
    }

    /// Current speed vector.
    pub fn sizes(&self) -> &[f64] {
        &self.s
    }

    /// Current per-gate arrival moments (indexed by gate id), in the
    /// structure-of-arrays layout shared with the full pass.
    pub fn arrivals(&self) -> &ArrivalSoa {
        &self.arrivals
    }

    /// Current circuit delay distribution (`(mu_Tmax, sigma_Tmax)`).
    pub fn delay(&self) -> Normal {
        self.delay
    }

    /// Snapshot of the current state as an [`SstaReport`].
    pub fn report(&self) -> SstaReport {
        SstaReport {
            arrivals: self.arrivals.to_normals(),
            delay: self.delay,
        }
    }

    /// Update calls served since construction.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Total gates recomputed across all updates (the counter behind the
    /// `gates_recomputed` trace events the bench bin emits).
    pub fn total_recomputed(&self) -> u64 {
        self.total_recomputed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ssta;
    use sgs_netlist::generate;

    fn lib() -> Library {
        Library::paper_default()
    }

    fn assert_state_matches(inc: &IncrementalSsta<'_>, fresh: &SstaReport) {
        for (i, (a, b)) in inc.arrivals().iter().zip(&fresh.arrivals).enumerate() {
            assert!(same_bits(a, *b), "gate {i}: {a:?} != {b:?}");
        }
        assert!(
            same_bits(inc.delay(), fresh.delay),
            "{:?} != {:?}",
            inc.delay(),
            fresh.delay
        );
    }

    #[test]
    fn single_change_matches_fresh_run() {
        let c = generate::tree7();
        let mut s = vec![1.0; 7];
        let mut inc = IncrementalSsta::new(&c, &lib(), &s);
        s[2] = 1.7;
        inc.apply(&[(GateId(2), 1.7)]);
        assert_state_matches(&inc, &ssta(&c, &lib(), &s));
    }

    #[test]
    fn noop_change_recomputes_nothing() {
        let c = generate::tree7();
        let s = vec![1.25; 7];
        let mut inc = IncrementalSsta::new(&c, &lib(), &s);
        let stats = inc.apply(&[(GateId(3), 1.25), (GateId(0), 1.25)]);
        assert_eq!(stats, UpdateStats::default());
        assert_eq!(inc.set_sizes(&s), UpdateStats::default());
        assert_state_matches(&inc, &ssta(&c, &lib(), &s));
    }

    #[test]
    fn leaf_change_recomputes_strict_subset() {
        // rdag-style circuit: resizing one mid-level gate must not touch
        // the whole circuit.
        let c = generate::ripple_carry_adder(12);
        let n = c.num_gates();
        let mut s = vec![1.0; n];
        let mut inc = IncrementalSsta::new(&c, &lib(), &s);
        s[n - 2] = 2.0;
        let stats = inc.apply(&[(GateId(n - 2), 2.0)]);
        assert!(
            stats.gates_recomputed < n,
            "recomputed {} of {n}",
            stats.gates_recomputed
        );
        assert_state_matches(&inc, &ssta(&c, &lib(), &s));
    }

    #[test]
    fn sequences_and_full_rewrites_stay_identical() {
        let c = generate::ripple_carry_adder(8);
        let n = c.num_gates();
        let mut s = vec![1.0; n];
        let mut inc = IncrementalSsta::new(&c, &lib(), &s);
        for step in 0..10 {
            let g = (step * 5) % n;
            s[g] = 1.0 + 0.15 * (step as f64 + 1.0);
            inc.apply(&[(GateId(g), s[g])]);
            assert_state_matches(&inc, &ssta(&c, &lib(), &s));
        }
        // All-gate rewrite.
        for (i, v) in s.iter_mut().enumerate() {
            *v = 1.0 + (i as f64) * 0.01;
        }
        let stats = inc.set_sizes(&s);
        assert_eq!(stats.gates_recomputed, n);
        assert_state_matches(&inc, &ssta(&c, &lib(), &s));
    }

    #[test]
    fn input_arrivals_carried_through_updates() {
        let c = generate::tree7();
        let late: Vec<Normal> = (0..c.num_inputs())
            .map(|i| Normal::new(i as f64 * 0.5, 0.1))
            .collect();
        let mut s = vec![1.0; 7];
        let mut inc = IncrementalSsta::with_arrivals(&c, &lib(), &s, Some(&late));
        s[1] = 2.2;
        inc.apply(&[(GateId(1), 2.2)]);
        let fresh = crate::analysis::ssta_with_arrivals(&c, &lib(), &s, Some(&late));
        assert_state_matches(&inc, &fresh);
    }
}
