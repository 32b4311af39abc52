//! Solution-space estimates (footnote 2 of the paper).
//!
//! With `n` two-pin nets to reconnect, the unconstrained solution space is
//! the number of perfect matchings of a complete bipartite graph: `n!`.
//! After a routing-centric attack confines each vpin to a candidate list of
//! average size `L`, at most `L^n` netlists remain — and if the match-in-
//! list is below 100% the true netlist is not even among them.

/// `log10(n!)` via the log-gamma-free summation (exact enough for the
/// magnitudes involved; the paper quotes `500! ≈ 1.22 × 10^1143`).
pub fn log10_factorial(n: u64) -> f64 {
    (2..=n).map(|k| (k as f64).log10()).sum()
}

/// `log10` of the residual solution space after an attack reduced each of
/// `n` assignments to an average candidate-list size of `list_size`.
pub fn log10_residual_space(n: u64, list_size: f64) -> f64 {
    if list_size <= 1.0 {
        0.0
    } else {
        n as f64 * list_size.log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_papers_footnote() {
        // 500! = 1.22 × 10^1143.
        let lg = log10_factorial(500);
        assert!((lg - 1134.0).abs() < 15.0, "log10(500!) = {lg}");
        // 1.4^500 = 1.16 × 10^73.
        let residual = log10_residual_space(500, 1.4);
        assert!((residual - 73.0).abs() < 1.0, "log10(1.4^500) = {residual}");
    }

    #[test]
    fn small_values_exact() {
        assert_eq!(log10_factorial(0), 0.0);
        assert_eq!(log10_factorial(1), 0.0);
        assert!((log10_factorial(4) - 24f64.log10()).abs() < 1e-12);
    }

    #[test]
    fn unit_lists_leave_one_netlist() {
        assert_eq!(log10_residual_space(100, 1.0), 0.0);
        assert_eq!(log10_residual_space(100, 0.5), 0.0);
    }
}
