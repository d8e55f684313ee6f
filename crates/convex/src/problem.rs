//! Loop problem definition, validation, and solver entry point.

use arb_amm::curve::SwapCurve;
use arb_amm::mobius::Mobius;
use arb_numerics::barrier::BarrierConfig;

use crate::error::ConvexError;
use crate::full;
use crate::reduced;
use crate::solution::LoopPlan;

/// Which mathematical formulation of eq. 8 to solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Formulation {
    /// `n`-variable problem with outputs eliminated (`b_j = F_j(a_j)`).
    /// Faster and the default.
    #[default]
    Reduced,
    /// `2n`-variable problem keeping the product constraints in concave
    /// log form, faithful to the paper's eq. 8. Used as a cross-check.
    Full,
}

/// Solver options for [`LoopProblem::solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Formulation to use.
    pub formulation: Formulation,
    /// Barrier method configuration.
    pub barrier: BarrierConfig,
    /// Round-trip rates within `1 + rate_tolerance` are treated as
    /// unprofitable (paper Theorem: no-arb ⇒ the zero plan is optimal).
    pub rate_tolerance: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            formulation: Formulation::Reduced,
            barrier: BarrierConfig::default(),
            rate_tolerance: 1e-10,
        }
    }
}

/// An arbitrage loop ready for convex optimization.
///
/// Hop `j` swaps token `t_j` into token `t_{j+1 mod n}`; `prices[j]` is the
/// CEX (USD) price of `t_j`. The struct owns plain curves and prices, so it
/// is decoupled from pool identity — build it from any pool source.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopProblem {
    hops: Vec<SwapCurve>,
    prices: Vec<f64>,
}

impl LoopProblem {
    /// Creates a problem from per-hop curves and per-token prices.
    ///
    /// # Errors
    ///
    /// * [`ConvexError::LoopTooShort`] for fewer than 2 hops.
    /// * [`ConvexError::LengthMismatch`] when lengths differ.
    /// * [`ConvexError::InvalidPrice`] for negative or non-finite prices.
    pub fn new(hops: Vec<SwapCurve>, prices: Vec<f64>) -> Result<Self, ConvexError> {
        if hops.len() < 2 {
            return Err(ConvexError::LoopTooShort);
        }
        if hops.len() != prices.len() {
            return Err(ConvexError::LengthMismatch);
        }
        if prices.iter().any(|p| !p.is_finite() || *p < 0.0) {
            return Err(ConvexError::InvalidPrice);
        }
        Ok(LoopProblem { hops, prices })
    }

    /// Number of hops (= number of tokens) in the loop.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the loop is empty (never true for a constructed problem).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// The hop curves in loop order.
    pub fn hops(&self) -> &[SwapCurve] {
        &self.hops
    }

    /// The token prices in loop order.
    pub fn prices(&self) -> &[f64] {
        &self.prices
    }

    /// The multiplicative round-trip rate at zero input,
    /// `Π_j γ_j·y_j/x_j` — the loop admits arbitrage iff this exceeds 1.
    ///
    /// The rate is rotation-invariant (a cyclic product), so one check
    /// covers every possible start token.
    pub fn round_trip_rate(&self) -> f64 {
        self.hops.iter().map(|h| h.spot_rate()).product()
    }

    /// The composed Möbius transform of the rotation starting at hop
    /// `start` (the chain `F_{start+n−1} ∘ … ∘ F_{start}`).
    ///
    /// # Panics
    ///
    /// Panics if `start >= self.len()`.
    pub fn rotation_chain(&self, start: usize) -> Mobius {
        assert!(start < self.hops.len());
        let n = self.hops.len();
        let hops: Vec<Mobius> = (0..n)
            .map(|k| self.hops[(start + k) % n].to_mobius())
            .collect();
        Mobius::chain(&hops)
    }

    /// Whether the loop is profitable beyond `opts.rate_tolerance`.
    pub fn is_profitable(&self, opts: &SolverOptions) -> bool {
        self.round_trip_rate() > 1.0 + opts.rate_tolerance
    }

    /// Solves the monetized-profit maximization (paper eq. 8).
    ///
    /// For unprofitable loops this returns the zero plan without invoking
    /// the solver — the paper proves the zero solution is then optimal,
    /// and indeed no strictly feasible interior point exists.
    ///
    /// # Errors
    ///
    /// * [`ConvexError::FeasibilityConstruction`] if the loop's interior is
    ///   too thin to solve in: an interior starting point cannot be built
    ///   despite apparent profitability (only possible within
    ///   ~`rate_tolerance` of break-even), or the barrier method fails on
    ///   a loop no plan of which can be worth the solver's duality-gap
    ///   tolerance.
    /// * [`ConvexError::Solver`] if the barrier method fails on any other
    ///   loop.
    pub fn solve(&self, opts: &SolverOptions) -> Result<LoopPlan, ConvexError> {
        if !self.is_profitable(opts) {
            return Ok(LoopPlan::zero(&self.prices));
        }
        let start = self
            .feasible_inputs()
            .ok_or(ConvexError::FeasibilityConstruction)?;
        let barrier = self.scaled_barrier(&opts.barrier);
        let solved = match opts.formulation {
            Formulation::Reduced => reduced::solve(self, &start, &barrier),
            Formulation::Full => full::solve(self, &start, &barrier),
        };
        match solved {
            // Near break-even the barrier Hessian's condition number grows
            // like 1/(R − 1)², past what f64 resolves: Newton systems go
            // singular however hard they are regularized. When no plan can
            // be worth more than the solver's own gap tolerance, that is
            // the thin interior again, not a defect.
            Err(ConvexError::Solver(_)) if self.profit_upper_bound() < barrier.gap_tol => {
                Err(ConvexError::FeasibilityConstruction)
            }
            solved => solved,
        }
    }

    /// An upper bound on the monetized profit of every feasible plan,
    /// by weak duality. Pricing each linking constraint at `ν_j ≥ 0`
    /// leaves independent hops trading at shadow prices
    /// `Q_j = P_j + ν_j`, and hop `j` alone can earn at most
    /// `(√(Q_{j+1}·y_j) − √(Q_j·x_j/γ_j))²`. Shadow prices that make
    /// every hop's marginal rate exactly `ρ = R^{1/n}`, scaled up until
    /// `Q ≥ P`, give a bound that vanishes like `(R − 1)²` near
    /// break-even. Zero for unprofitable loops.
    pub(crate) fn profit_upper_bound(&self) -> f64 {
        let n = self.hops.len() as f64;
        let rate = self.round_trip_rate();
        if rate <= 1.0 {
            return 0.0;
        }
        // ρ − 1 without cancellation, then (√ρ − 1)² = (ρ − 1)²/(√ρ + 1)².
        let excess = ((rate - 1.0).ln_1p() / n).exp_m1();
        let gain = (excess / ((1.0 + excess).sqrt() + 1.0)).powi(2);
        // Q̂_0 = 1 and Q̂_{j+1}·spot_j = Q̂_j·ρ: hop j's marginal rate
        // in shadow value is ρ, consistently around the loop.
        let mut shadow = Vec::with_capacity(self.hops.len());
        let mut q = 1.0;
        for hop in &self.hops {
            shadow.push(q);
            q *= (1.0 + excess) / hop.spot_rate();
        }
        let lift = self
            .prices
            .iter()
            .zip(&shadow)
            .map(|(p, q)| p / q)
            .fold(0.0f64, f64::max);
        // With Q = lift·Q̂, hop j's bound is Q_j·(x_j/γ_j)·(√ρ − 1)².
        lift * gain
            * self
                .hops
                .iter()
                .zip(&shadow)
                .map(|(hop, q)| q * hop.reserve_in() / hop.gamma())
                .sum::<f64>()
    }

    /// Scales the initial barrier weight to the problem's profit scale
    /// (estimated for free from the closed-form rotation optima). An
    /// under-weighted barrier makes the first centering problem nearly as
    /// ill-conditioned as the original boundary-kissing program and
    /// Newton stalls far from the optimum; matching scales keeps the
    /// central path tame. Every solve path must go through this.
    pub(crate) fn scaled_barrier(
        &self,
        config: &arb_numerics::barrier::BarrierConfig,
    ) -> arb_numerics::barrier::BarrierConfig {
        let scale = (0..self.len())
            .map(|s| self.rotation_chain(s).max_profit() * self.prices[s])
            .fold(0.0f64, f64::max);
        let mut barrier = *config;
        barrier.mu_initial = barrier.mu_initial.max(0.1 * scale);
        barrier
    }

    /// Constructs strictly feasible inputs `a` for the reduced problem:
    /// all `a_j > 0` and `F_{j−1}(a_{j−1}) > a_j` strictly (including the
    /// wrap-around constraint `F_{n−1}(a_{n−1}) > a_0`).
    ///
    /// Strategy: start from a fraction of the rotation-0 closed-form
    /// optimal input and chain each hop's output shrunk by a factor `s`;
    /// concavity of `F` with `F(0)=0` guarantees the interior chain
    /// constraints, and the wrap-around is verified numerically. Smaller
    /// starting fractions approach the zero corner where the round-trip
    /// multiplier tends to the (profitable) marginal rate, so the search
    /// succeeds whenever the rate strictly exceeds 1.
    pub(crate) fn feasible_inputs(&self) -> Option<Vec<f64>> {
        let n = self.hops.len();
        let chain = self.rotation_chain(0);
        let dstar = chain.optimal_input();
        if dstar <= 0.0 {
            return None;
        }
        // Shrinking each hop's output by `s` must not eat the loop's whole
        // profitability margin: the wrap constraint needs roughly
        // s^(n−1)·R > 1, so adapt s to the margin (rate − 1). This keeps
        // construction working for near-breakeven loops where a fixed
        // shrink of 0.1% would already exceed the margin.
        let rate = chain.rate_at_zero();
        let adaptive = (1.0 - (rate - 1.0) / (8.0 * n as f64)).clamp(0.9, 1.0 - 1e-12);
        for a0_frac in [0.5, 0.25, 0.1, 1e-2, 1e-3, 1e-5] {
            for s in [adaptive, 0.999, 0.99, 0.9] {
                let mut a = vec![0.0; n];
                a[0] = dstar * a0_frac;
                for j in 1..n {
                    a[j] = s * self.hops[j - 1].amount_out(a[j - 1]);
                }
                let wrap = self.hops[n - 1].amount_out(a[n - 1]) - a[0];
                if wrap > 1e-14 * (1.0 + a[0]) && a.iter().all(|v| *v > 0.0) {
                    return Some(a);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_amm::fee::FeeRate;

    pub(crate) fn paper_hops() -> Vec<SwapCurve> {
        let fee = FeeRate::UNISWAP_V2;
        vec![
            SwapCurve::new(100.0, 200.0, fee).unwrap(),
            SwapCurve::new(300.0, 200.0, fee).unwrap(),
            SwapCurve::new(200.0, 400.0, fee).unwrap(),
        ]
    }

    #[test]
    fn validation() {
        assert_eq!(
            LoopProblem::new(vec![], vec![]),
            Err(ConvexError::LoopTooShort)
        );
        let hops = paper_hops();
        assert_eq!(
            LoopProblem::new(hops.clone(), vec![1.0]),
            Err(ConvexError::LengthMismatch)
        );
        assert_eq!(
            LoopProblem::new(hops.clone(), vec![1.0, -1.0, 2.0]),
            Err(ConvexError::InvalidPrice)
        );
        assert!(LoopProblem::new(hops, vec![2.0, 10.2, 20.0]).is_ok());
    }

    #[test]
    fn round_trip_rate_matches_paper() {
        let p = LoopProblem::new(paper_hops(), vec![2.0, 10.2, 20.0]).unwrap();
        let expected = 0.997f64.powi(3) * 8.0 / 3.0;
        assert!((p.round_trip_rate() - expected).abs() < 1e-12);
        assert!(p.is_profitable(&SolverOptions::default()));
    }

    #[test]
    fn rate_is_rotation_invariant() {
        let p = LoopProblem::new(paper_hops(), vec![2.0, 10.2, 20.0]).unwrap();
        for start in 0..3 {
            let m = p.rotation_chain(start);
            assert!((m.rate_at_zero() - p.round_trip_rate()).abs() < 1e-9);
        }
    }

    #[test]
    fn feasible_inputs_strictly_feasible() {
        let p = LoopProblem::new(paper_hops(), vec![2.0, 10.2, 20.0]).unwrap();
        let a = p.feasible_inputs().unwrap();
        let n = a.len();
        for j in 0..n {
            assert!(a[j] > 0.0);
            let prev = (j + n - 1) % n;
            let out = p.hops()[prev].amount_out(a[prev]);
            assert!(out > a[j], "hop {j}: out={out} a={}", a[j]);
        }
    }

    #[test]
    fn singular_near_breakeven_loop_is_a_thin_interior() {
        // A steady-sparse loop 1.9e-9 above break-even whose reduced
        // Newton systems go singular: worth ~1e-14 dollars, it must be
        // skipped as a thin interior, not fail as a solver defect.
        let fee = FeeRate::UNISWAP_V2;
        let p = LoopProblem::new(
            vec![
                SwapCurve::new(64_142.658405, 65_639.192672, fee).unwrap(),
                SwapCurve::new(62_727.245564, 50_387.328564, fee).unwrap(),
                SwapCurve::new(113_037.491374, 138_757.237564, fee).unwrap(),
            ],
            vec![1.0, 0.9430320466481485, 1.2350777056009716],
        )
        .unwrap();
        let opts = SolverOptions::default();
        assert!(p.is_profitable(&opts));
        assert!(p.profit_upper_bound() < 1e-12, "{}", p.profit_upper_bound());
        for formulation in [Formulation::Reduced, Formulation::Full] {
            let opts = SolverOptions {
                formulation,
                ..opts
            };
            assert_eq!(
                p.solve(&opts),
                Err(ConvexError::FeasibilityConstruction),
                "{formulation:?}"
            );
        }
    }

    #[test]
    fn profit_upper_bound_dominates_the_optimum() {
        let p = LoopProblem::new(paper_hops(), vec![2.0, 10.2, 20.0]).unwrap();
        let plan = p.solve(&SolverOptions::default()).unwrap();
        let bound = p.profit_upper_bound();
        assert!(bound >= plan.monetized_profit(), "{bound}");
        // Far from break-even the bound is loose but the same scale.
        assert!(bound < 10.0 * plan.monetized_profit(), "{bound}");
        // Unprofitable loops are worth nothing.
        let fee = FeeRate::UNISWAP_V2;
        let flat = LoopProblem::new(
            vec![
                SwapCurve::new(100.0, 200.0, fee).unwrap(),
                SwapCurve::new(200.0, 100.0, fee).unwrap(),
            ],
            vec![1.0, 1.0],
        )
        .unwrap();
        assert_eq!(flat.profit_upper_bound(), 0.0);
    }

    #[test]
    fn unprofitable_loop_has_no_feasible_interior() {
        let fee = FeeRate::UNISWAP_V2;
        let hops = vec![
            SwapCurve::new(100.0, 200.0, fee).unwrap(),
            SwapCurve::new(200.0, 100.0, fee).unwrap(),
        ];
        let p = LoopProblem::new(hops, vec![1.0, 1.0]).unwrap();
        assert!(!p.is_profitable(&SolverOptions::default()));
        assert!(p.feasible_inputs().is_none());
    }
}
