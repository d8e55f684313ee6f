//! Error type for convex-program construction and solving.

use arb_numerics::NumericsError;
use std::error::Error;
use std::fmt;

/// Errors from building or solving a loop optimization problem.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConvexError {
    /// A loop needs at least two hops.
    LoopTooShort,
    /// `hops` and `prices` lengths differ.
    LengthMismatch,
    /// A price was negative, NaN, or infinite.
    InvalidPrice,
    /// Pool parameters were invalid (forwarded from `arb-amm`).
    Amm(arb_amm::AmmError),
    /// The interior-point solver failed.
    Solver(NumericsError),
    /// The loop appeared profitable but sits so close to break-even that
    /// its strictly feasible interior is too thin for f64: no interior
    /// starting point could be constructed, or the barrier solve failed
    /// on a loop no plan of which can beat the solver's duality-gap
    /// tolerance. Not worth trading; callers may skip the loop.
    FeasibilityConstruction,
}

impl fmt::Display for ConvexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvexError::LoopTooShort => write!(f, "arbitrage loop needs at least 2 hops"),
            ConvexError::LengthMismatch => {
                write!(f, "hops and prices must have the same length")
            }
            ConvexError::InvalidPrice => {
                write!(f, "token price must be non-negative and finite")
            }
            ConvexError::Amm(e) => write!(f, "amm error: {e}"),
            ConvexError::Solver(e) => write!(f, "solver error: {e}"),
            ConvexError::FeasibilityConstruction => {
                write!(f, "loop interior too thin to solve (near break-even)")
            }
        }
    }
}

impl Error for ConvexError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConvexError::Amm(e) => Some(e),
            ConvexError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<arb_amm::AmmError> for ConvexError {
    fn from(e: arb_amm::AmmError) -> Self {
        ConvexError::Amm(e)
    }
}

impl From<NumericsError> for ConvexError {
    fn from(e: NumericsError) -> Self {
        ConvexError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = ConvexError::Amm(arb_amm::AmmError::SameToken);
        assert!(e.to_string().contains("amm error"));
        assert!(e.source().is_some());
        assert!(ConvexError::LoopTooShort.source().is_none());
    }

    #[test]
    fn conversions() {
        let _: ConvexError = arb_amm::AmmError::Overflow.into();
        let _: ConvexError = NumericsError::SingularMatrix.into();
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConvexError>();
    }
}
