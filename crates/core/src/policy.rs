//! Practical tuning guidelines distilled from the paper's findings.
//!
//! Section II: "In all of our experiments, an instance with 20% or more
//! vertices fixed is essentially solvable to very high quality in one or
//! two starts, i.e., further starts are unnecessary." Section III: pass
//! cutoffs are safe (and fast) once terminals are sufficient, harmful on
//! free hypergraphs. These functions encode that guidance so a caller in
//! the top-down-placement context can spend effort where it pays. (The
//! multilevel engine's refinement needs no such tuning: its default
//! balance-aware stall rule, [`PassCutoff::Stall`], adapts to the instance.)

use crate::config::{FmConfig, PassCutoff};

/// Recommended number of multilevel starts as a function of the instance's
/// fixed-vertex fraction (`0.0..=1.0`).
///
/// # Panics
/// Panics if `fixed_fraction` is outside `[0, 1]`.
///
/// # Example
/// ```
/// use vlsi_partition::policy::recommended_starts;
/// assert_eq!(recommended_starts(0.0), 8);   // free hypergraph: multistart pays
/// assert_eq!(recommended_starts(0.10), 4);
/// assert_eq!(recommended_starts(0.25), 2);  // the paper's "one or two starts"
/// assert_eq!(recommended_starts(0.50), 1);
/// ```
pub fn recommended_starts(fixed_fraction: f64) -> usize {
    assert!(
        (0.0..=1.0).contains(&fixed_fraction),
        "fixed fraction must be in [0, 1]"
    );
    match fixed_fraction {
        f if f >= 0.40 => 1,
        f if f >= 0.20 => 2,
        f if f >= 0.05 => 4,
        _ => 8,
    }
}

/// Recommended FM pass cutoff as a function of the fixed fraction: no
/// cutoff on (nearly) free hypergraphs — where Table III shows quality
/// loss — and increasingly aggressive cutoffs as terminals accumulate,
/// where Table III shows pure runtime savings.
///
/// # Panics
/// Panics if `fixed_fraction` is outside `[0, 1]`.
///
/// # Example
/// ```
/// use vlsi_partition::policy::recommended_cutoff;
/// use vlsi_partition::PassCutoff;
/// assert_eq!(recommended_cutoff(0.0), PassCutoff::Unlimited);
/// assert_eq!(recommended_cutoff(0.30), PassCutoff::Fraction(0.25));
/// assert_eq!(recommended_cutoff(0.60), PassCutoff::Fraction(0.10));
/// ```
pub fn recommended_cutoff(fixed_fraction: f64) -> PassCutoff {
    assert!(
        (0.0..=1.0).contains(&fixed_fraction),
        "fixed fraction must be in [0, 1]"
    );
    match fixed_fraction {
        f if f >= 0.50 => PassCutoff::Fraction(0.10),
        f if f >= 0.20 => PassCutoff::Fraction(0.25),
        f if f >= 0.10 => PassCutoff::Fraction(0.50),
        _ => PassCutoff::Unlimited,
    }
}

/// A flat-FM configuration tuned to the instance's fixed fraction: LIFO
/// selection with the recommended pass cutoff.
///
/// # Example
/// ```
/// use vlsi_partition::policy::tuned_fm_config;
/// use vlsi_partition::PassCutoff;
/// let cfg = tuned_fm_config(0.35);
/// assert_eq!(cfg.cutoff, PassCutoff::Fraction(0.25));
/// assert!(!cfg.cutoff_first_pass); // the first pass is always exempt
/// ```
pub fn tuned_fm_config(fixed_fraction: f64) -> FmConfig {
    FmConfig {
        cutoff: recommended_cutoff(fixed_fraction),
        ..FmConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_monotonically_fall_with_fixing() {
        let mut prev = usize::MAX;
        for f in [0.0, 0.05, 0.10, 0.20, 0.30, 0.40, 0.60, 1.0] {
            let s = recommended_starts(f);
            assert!(s <= prev, "starts must not rise with fixing");
            assert!(s >= 1);
            prev = s;
        }
    }

    #[test]
    fn cutoff_tightens_with_fixing() {
        let frac = |c: PassCutoff| match c {
            PassCutoff::Unlimited => 1.0,
            PassCutoff::Fraction(f) => f,
            PassCutoff::Moves(_) | PassCutoff::Stall(_) => {
                unreachable!("policy never emits Moves or Stall")
            }
        };
        let mut prev = f64::INFINITY;
        for f in [0.0, 0.10, 0.20, 0.50, 1.0] {
            let c = frac(recommended_cutoff(f));
            assert!(c <= prev);
            prev = c;
        }
    }

    #[test]
    #[should_panic(expected = "fixed fraction")]
    fn rejects_bad_fraction() {
        let _ = recommended_starts(1.5);
    }

    #[test]
    fn tuned_config_defaults() {
        let cfg = tuned_fm_config(0.0);
        assert_eq!(cfg.cutoff, PassCutoff::Unlimited);
        assert_eq!(cfg.max_passes, FmConfig::default().max_passes);
    }
}
