//! The sizable-gate delay model (Berkelaar & Jess 1990, paper Eq. 14).
//!
//! A gate's mean propagation delay as a function of its speed factor `S` is
//!
//! ```text
//! t(S) = t_int + c * (C_load + sum_i C_in,i * S_i) / S
//! ```
//!
//! where `t_int` is the internal (size-invariant) delay, `C_load` the wiring
//! capacitance at the output, `C_in,i` the input capacitance of driven gate
//! `i` (which scales with *that* gate's speed factor `S_i`), and `c` a
//! technology constant converting capacitance to delay. The gate-delay
//! standard deviation is tied to the mean, `sigma_t = sigma_factor * t`
//! (0.25 in all the paper's experiments), and `1 <= S <= s_limit`
//! (`s_limit = 3` in the paper).

use std::fmt;

/// Number of [`GateKind`] variants.
const NUM_KINDS: usize = 10;

/// The logic function / footprint of a gate, fixing its electrical
/// parameters in a [`Library`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum GateKind {
    /// Inverter.
    Inv,
    /// Non-inverting buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 4-input NAND.
    Nand4,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
}

impl GateKind {
    /// Number of logic inputs this gate kind expects.
    pub fn arity(self) -> usize {
        match self {
            GateKind::Inv | GateKind::Buf => 1,
            GateKind::Nand2 | GateKind::Nor2 | GateKind::And2 | GateKind::Or2 | GateKind::Xor2 => 2,
            GateKind::Nand3 | GateKind::Nor3 => 3,
            GateKind::Nand4 => 4,
        }
    }

    /// All kinds, in declaration order.
    pub fn all() -> &'static [GateKind] {
        const ALL: [GateKind; NUM_KINDS] = [
            GateKind::Inv,
            GateKind::Buf,
            GateKind::Nand2,
            GateKind::Nand3,
            GateKind::Nand4,
            GateKind::Nor2,
            GateKind::Nor3,
            GateKind::And2,
            GateKind::Or2,
            GateKind::Xor2,
        ];
        &ALL
    }

    /// A NAND kind of the given arity (1 maps to [`GateKind::Inv`]).
    ///
    /// # Panics
    ///
    /// Panics for arity 0 or greater than 4.
    pub fn nand_of_arity(n: usize) -> GateKind {
        match n {
            1 => GateKind::Inv,
            2 => GateKind::Nand2,
            3 => GateKind::Nand3,
            4 => GateKind::Nand4,
            _ => panic!("no NAND gate of arity {n}"),
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Inv => "INV",
            GateKind::Buf => "BUF",
            GateKind::Nand2 => "NAND2",
            GateKind::Nand3 => "NAND3",
            GateKind::Nand4 => "NAND4",
            GateKind::Nor2 => "NOR2",
            GateKind::Nor3 => "NOR3",
            GateKind::And2 => "AND2",
            GateKind::Or2 => "OR2",
            GateKind::Xor2 => "XOR2",
        };
        f.write_str(s)
    }
}

/// Per-kind electrical parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateParams {
    /// Internal, size-invariant delay `t_int`.
    pub t_int: f64,
    /// Input (gate-oxide) capacitance `C_in` at unit size.
    pub c_in: f64,
}

/// A cell library: electrical parameters per [`GateKind`] plus the global
/// constants of the sizing model.
///
/// The default library is calibrated (see `sgs-bench`) so the paper's
/// 7-NAND tree circuit lands near Table 2's delay range (`mu` about 7.4
/// unsized, about 5.4 fully sized).
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    /// Technology constant `c` converting capacitance to delay.
    pub c: f64,
    /// `sigma_t = sigma_factor * mu_t` (0.25 in the paper).
    pub sigma_factor: f64,
    /// Upper bound on every speed factor (`limit` in the paper; 3.0 there).
    pub s_limit: f64,
    /// Default wiring capacitance at a gate output.
    pub wire_load: f64,
    /// Additional capacitance on primary outputs (pads / next stage).
    pub po_load: f64,
    /// Parameters per kind, indexed by the kind's declaration order (the
    /// order of [`GateKind::all`]).
    params: [GateParams; NUM_KINDS],
}

impl Library {
    /// The calibrated default library (see crate docs).
    pub fn paper_default() -> Self {
        let p = |t_int: f64, c_in: f64| GateParams { t_int, c_in };
        Library {
            c: 1.0,
            sigma_factor: 0.25,
            s_limit: 3.0,
            wire_load: 0.55,
            po_load: 1.15,
            params: [
                p(0.65, 0.45), // Inv
                p(0.8, 0.45),  // Buf
                p(0.9, 0.6),   // Nand2
                p(1.1, 0.7),   // Nand3
                p(1.25, 0.8),  // Nand4
                p(1.0, 0.65),  // Nor2
                p(1.25, 0.75), // Nor3
                p(1.15, 0.6),  // And2
                p(1.25, 0.65), // Or2
                p(1.55, 0.85), // Xor2
            ],
        }
    }

    /// Parameters for a gate kind (every library covers all kinds).
    #[inline]
    pub fn params(&self, kind: GateKind) -> GateParams {
        self.params[kind as usize]
    }

    /// Overrides the parameters for one gate kind (builder-style).
    pub fn with_params(mut self, kind: GateKind, params: GateParams) -> Self {
        self.params[kind as usize] = params;
        self
    }

    /// Overrides the maximum speed factor (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `s_limit < 1`.
    pub fn with_s_limit(mut self, s_limit: f64) -> Self {
        assert!(s_limit >= 1.0, "s_limit must be >= 1");
        self.s_limit = s_limit;
        self
    }

    /// Overrides the sigma/mean factor (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `sigma_factor` is negative.
    pub fn with_sigma_factor(mut self, sigma_factor: f64) -> Self {
        assert!(sigma_factor >= 0.0, "sigma_factor must be >= 0");
        self.sigma_factor = sigma_factor;
        self
    }
}

impl Default for Library {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_kind() {
        assert_eq!(GateKind::Inv.arity(), 1);
        assert_eq!(GateKind::Nand2.arity(), 2);
        assert_eq!(GateKind::Nand4.arity(), 4);
        for &k in GateKind::all() {
            assert!(k.arity() >= 1 && k.arity() <= 4);
        }
    }

    #[test]
    fn default_library_covers_all_kinds() {
        let lib = Library::default();
        for &k in GateKind::all() {
            let p = lib.params(k);
            assert!(p.t_int > 0.0 && p.c_in > 0.0);
        }
        assert_eq!(lib.sigma_factor, 0.25);
        assert_eq!(lib.s_limit, 3.0);
    }

    #[test]
    fn with_params_overrides() {
        let lib = Library::default().with_params(
            GateKind::Inv,
            GateParams {
                t_int: 9.0,
                c_in: 8.0,
            },
        );
        assert_eq!(lib.params(GateKind::Inv).t_int, 9.0);
        assert_eq!(lib.params(GateKind::Nand2).t_int, 0.9);
    }

    #[test]
    fn params_follow_kind_order() {
        let lib = Library::default();
        for (i, &k) in GateKind::all().iter().enumerate() {
            assert_eq!(k as usize, i, "{k}");
        }
        assert_eq!(lib.params(GateKind::Inv).t_int, 0.65);
        assert_eq!(lib.params(GateKind::Xor2).c_in, 0.85);
    }

    #[test]
    fn nand_of_arity() {
        assert_eq!(GateKind::nand_of_arity(1), GateKind::Inv);
        assert_eq!(GateKind::nand_of_arity(4), GateKind::Nand4);
    }

    #[test]
    #[should_panic(expected = "no NAND gate of arity")]
    fn nand_of_arity_rejects_large() {
        let _ = GateKind::nand_of_arity(9);
    }

    #[test]
    fn display_nonempty() {
        for &k in GateKind::all() {
            assert!(!format!("{k}").is_empty());
        }
    }
}
