//! The reduced `n`-variable formulation.
//!
//! At any optimum of eq. 8 with non-negative prices the pool constraints
//! bind (taking the full pool output is weakly optimal), so the outputs can
//! be eliminated: `b_j = F_j(a_j)`. What remains is
//!
//! ```text
//! maximize  φ(a) = Σ_j [ P_{j+1}·F_j(a_j) − P_j·a_j ]
//! subject to  g_j(a) = F_{j−1}(a_{j−1}) − a_j ≥ 0      (linking, n constraints)
//!             a_j ≥ 0                                   (bounds, n constraints)
//! ```
//!
//! `F_j` is concave increasing, so `φ` is concave and every `g_j` is
//! concave: a textbook barrier problem with analytic derivatives. The
//! objective Hessian is diagonal and each linking constraint couples only
//! `(a_{j−1}, a_j)`, so Newton systems are cyclic-tridiagonal — the dense
//! solver handles these sizes instantly.

use arb_amm::curve::SwapCurve;
use arb_numerics::barrier::{solve_barrier, BarrierConfig, BarrierProblem};
use arb_numerics::linalg::Matrix;

use crate::error::ConvexError;
use crate::problem::LoopProblem;
use crate::solution::LoopPlan;

/// The reduced barrier problem over hop inputs `a`.
pub(crate) struct ReducedProblem<'a> {
    hops: &'a [SwapCurve],
    prices: &'a [f64],
}

impl<'a> ReducedProblem<'a> {
    pub(crate) fn new(hops: &'a [SwapCurve], prices: &'a [f64]) -> Self {
        debug_assert_eq!(hops.len(), prices.len());
        ReducedProblem { hops, prices }
    }

    fn n(&self) -> usize {
        self.hops.len()
    }

    /// Price of the *output* token of hop `j`.
    fn price_out(&self, j: usize) -> f64 {
        self.prices[(j + 1) % self.n()]
    }
}

impl BarrierProblem for ReducedProblem<'_> {
    fn dim(&self) -> usize {
        self.n()
    }

    fn num_constraints(&self) -> usize {
        2 * self.n()
    }

    fn objective(&self, a: &[f64]) -> f64 {
        (0..self.n())
            .map(|j| self.price_out(j) * self.hops[j].amount_out(a[j]) - self.prices[j] * a[j])
            .sum()
    }

    fn objective_grad(&self, a: &[f64], grad: &mut [f64]) {
        for j in 0..self.n() {
            grad[j] = self.price_out(j) * self.hops[j].derivative(a[j]) - self.prices[j];
        }
    }

    fn objective_hess(&self, a: &[f64], hess: &mut Matrix) {
        hess.clear();
        for j in 0..self.n() {
            hess[(j, j)] = self.price_out(j) * self.hops[j].second_derivative(a[j]);
        }
    }

    fn constraint(&self, i: usize, a: &[f64]) -> f64 {
        let n = self.n();
        if i < n {
            // Bound: a_i ≥ 0 (checked before linking so infeasible trial
            // points are rejected before curves are probed off-domain).
            a[i]
        } else {
            // Linking: F_{j−1}(a_{j−1}) − a_j ≥ 0 for j = i − n.
            let j = i - n;
            let prev = (j + n - 1) % n;
            self.hops[prev].amount_out(a[prev]) - a[j]
        }
    }

    fn constraint_grad(&self, i: usize, a: &[f64], grad: &mut [f64]) {
        grad.iter_mut().for_each(|v| *v = 0.0);
        let n = self.n();
        if i < n {
            grad[i] = 1.0;
        } else {
            let j = i - n;
            let prev = (j + n - 1) % n;
            grad[prev] = self.hops[prev].derivative(a[prev]);
            grad[j] -= 1.0;
        }
    }

    fn constraint_hess(&self, i: usize, a: &[f64], hess: &mut Matrix) {
        hess.clear();
        let n = self.n();
        if i >= n {
            let j = i - n;
            let prev = (j + n - 1) % n;
            hess[(prev, prev)] = self.hops[prev].second_derivative(a[prev]);
        }
    }
}

/// Solves the reduced problem from a strictly feasible start.
pub(crate) fn solve(
    problem: &LoopProblem,
    start: &[f64],
    config: &BarrierConfig,
) -> Result<LoopPlan, ConvexError> {
    let reduced = ReducedProblem::new(problem.hops(), problem.prices());
    let sol = solve_barrier(&reduced, start, config)?;
    Ok(LoopPlan::from_inputs(
        problem.hops(),
        problem.prices(),
        &sol.x,
        sol.converged,
    ))
}

/// Solves and additionally returns the raw barrier solution (for KKT
/// verification in tests and diagnostics).
pub(crate) fn solve_raw(
    problem: &LoopProblem,
    start: &[f64],
    config: &BarrierConfig,
) -> Result<arb_numerics::barrier::BarrierSolution, ConvexError> {
    let reduced = ReducedProblem::new(problem.hops(), problem.prices());
    Ok(solve_barrier(&reduced, start, config)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SolverOptions;
    use arb_amm::fee::FeeRate;
    use proptest::prelude::*;

    fn paper_problem() -> LoopProblem {
        let fee = FeeRate::UNISWAP_V2;
        LoopProblem::new(
            vec![
                SwapCurve::new(100.0, 200.0, fee).unwrap(),
                SwapCurve::new(300.0, 200.0, fee).unwrap(),
                SwapCurve::new(200.0, 400.0, fee).unwrap(),
            ],
            vec![2.0, 10.2, 20.0],
        )
        .unwrap()
    }

    /// Monetized MaxMax profit computed from the closed-form rotations.
    fn maxmax(p: &LoopProblem) -> f64 {
        (0..p.len())
            .map(|s| p.rotation_chain(s).max_profit() * p.prices()[s])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    #[test]
    fn paper_example_beats_maxmax_and_matches_206() {
        let p = paper_problem();
        let plan = p.solve(&SolverOptions::default()).unwrap();
        assert!(plan.converged());
        // Paper: ConvexOptimization ≈ $206.1 vs MaxMax ≈ $205.6.
        assert!(
            (plan.monetized_profit() - 206.1).abs() < 0.5,
            "monetized = {}",
            plan.monetized_profit()
        );
        assert!(plan.monetized_profit() >= maxmax(&p) - 1e-6);
        assert!(plan.max_violation(p.hops()) < 1e-6);
    }

    #[test]
    fn paper_example_flow_amounts() {
        // Paper plan: 31.3 X → 47.6 Y; 42.6 Y → 24.8 Z; 17.1 Z → 31.3 X,
        // leaving ~5 Y and ~7.7 Z as profit.
        let p = paper_problem();
        let plan = p.solve(&SolverOptions::default()).unwrap();
        let f = plan.flows();
        assert!(
            (f[0].amount_in - 31.3).abs() < 0.3,
            "in0={}",
            f[0].amount_in
        );
        assert!(
            (f[0].amount_out - 47.6).abs() < 0.3,
            "out0={}",
            f[0].amount_out
        );
        assert!(
            (f[1].amount_in - 42.6).abs() < 0.3,
            "in1={}",
            f[1].amount_in
        );
        assert!(
            (f[1].amount_out - 24.8).abs() < 0.3,
            "out1={}",
            f[1].amount_out
        );
        assert!(
            (f[2].amount_in - 17.1).abs() < 0.3,
            "in2={}",
            f[2].amount_in
        );
        assert!(
            (f[2].amount_out - 31.3).abs() < 0.3,
            "out2={}",
            f[2].amount_out
        );
        // Profit concentrated in Y and Z.
        assert!((plan.token_profits()[1] - 5.0).abs() < 0.3);
        assert!((plan.token_profits()[2] - 7.7).abs() < 0.3);
    }

    #[test]
    fn unprofitable_returns_zero_plan() {
        let fee = FeeRate::UNISWAP_V2;
        let p = LoopProblem::new(
            vec![
                SwapCurve::new(100.0, 200.0, fee).unwrap(),
                SwapCurve::new(200.0, 100.0, fee).unwrap(),
            ],
            vec![1.0, 3.0],
        )
        .unwrap();
        let plan = p.solve(&SolverOptions::default()).unwrap();
        assert!(plan.is_zero());
        assert_eq!(plan.monetized_profit(), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn convex_dominates_maxmax_on_random_loops(
            r in proptest::collection::vec(50.0..5_000.0f64, 6),
            prices in proptest::collection::vec(0.1..100.0f64, 3),
        ) {
            let fee = FeeRate::UNISWAP_V2;
            let hops = vec![
                SwapCurve::new(r[0], r[1], fee).unwrap(),
                SwapCurve::new(r[2], r[3], fee).unwrap(),
                SwapCurve::new(r[4], r[5], fee).unwrap(),
            ];
            let p = LoopProblem::new(hops, prices).unwrap();
            let plan = p.solve(&SolverOptions::default()).unwrap();
            let mm = maxmax(&p).max(0.0);
            // Theorem T2: ConvexOpt ≥ MaxMax (up to solver tolerance).
            prop_assert!(
                plan.monetized_profit() >= mm - 1e-5 * (1.0 + mm),
                "convex={} maxmax={}", plan.monetized_profit(), mm
            );
            // The duality bound holds.
            prop_assert!(
                p.profit_upper_bound() >= plan.monetized_profit() - 1e-9 * (1.0 + mm),
                "bound={} convex={}", p.profit_upper_bound(), plan.monetized_profit()
            );
            // Plans are feasible.
            prop_assert!(plan.max_violation(p.hops()) < 1e-6);
            // Token profits are non-negative (risk-free constraints).
            for pi in plan.token_profits() {
                prop_assert!(*pi >= -1e-8, "negative token profit {pi}");
            }
        }

        #[test]
        fn no_arb_implies_zero_everywhere(
            x in 100.0..10_000.0f64,
            y in 100.0..10_000.0f64,
            px in 0.1..50.0f64,
            py in 0.1..50.0f64,
        ) {
            // Two-pool loop with identical reserves both ways: rate = γ² < 1.
            let fee = FeeRate::UNISWAP_V2;
            let p = LoopProblem::new(
                vec![
                    SwapCurve::new(x, y, fee).unwrap(),
                    SwapCurve::new(y, x, fee).unwrap(),
                ],
                vec![px, py],
            )
            .unwrap();
            prop_assert!(p.round_trip_rate() < 1.0);
            let plan = p.solve(&SolverOptions::default()).unwrap();
            prop_assert!(plan.is_zero());
        }
    }
}
