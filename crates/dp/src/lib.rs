//! # lopram-dp
//!
//! Parallel dynamic programming on the LoPRAM (paper §4.2–§4.6).
//!
//! A dynamic program is specified by [`DpProblem`]: a set of cells, the cells
//! each cell depends on, and how to compute a cell from its dependencies
//! (Eq. 6 of the paper).  From that specification the crate derives the
//! dependency DAG (§4.3) and offers four ways to evaluate it:
//!
//! * [`solve_sequential`] — bottom-up in topological order, the `T_1`
//!   baseline;
//! * [`solve_wavefront`] — partition the DAG into antichains (the dual of
//!   Dilworth's theorem) and evaluate each antichain in parallel, level by
//!   level, in `grain_size(len, p, DEFAULT_GRAIN, 0)` blocks: an antichain
//!   of one block runs inline on the caller, a wider one makes one
//!   executor spawn per block;
//! * [`solve_counter`] — the paper's **Algorithm 1**: every cell carries a
//!   counter of outstanding dependencies, completed cells decrement their
//!   neighbours' counters, and cells whose counter reaches zero are handed to
//!   the available processors;
//! * [`solve_memoized`] — the top-down **parallel memoization** of §4.5, with
//!   "in progress" markers and wait-for-notification on cells another
//!   processor is already computing.
//!
//! The bottom-up solvers share one flat dependency structure per solve — a
//! gather of every cell's dependencies into one array, a
//! counting-sort successor CSR and a Kahn layering into one `order` array
//! with antichain bounds — with no per-cell lock or adjacency vector (see
//! [`solver`]).  [`dependency_dag`] materialises the same gather as an
//! explicit [`lopram_analysis::Dag`] for analysis.
//!
//! The [`problems`] module provides classic dynamic programs covering the
//! spectrum of DAG shapes §4.6 discusses: two-dimensional tables with
//! anti-diagonal antichains (LCS, edit distance), interval tables (matrix
//! chain, optimal BST), row-independent tables (knapsack), a cube (Floyd–
//! Warshall) and the one-dimensional chain for which no speedup is possible.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod memo;
pub mod problems;
pub mod solver;
pub mod spec;

pub use memo::{solve_memoized, MemoRun};
pub use solver::{dependency_dag, solve_counter, solve_sequential, solve_wavefront, DpSolution};
pub use spec::DpProblem;

/// Convenience prelude for the dynamic-programming crate.
pub mod prelude {
    pub use crate::memo::{solve_memoized, MemoRun};
    pub use crate::problems::chain::PrefixChain;
    pub use crate::problems::coin_change::CoinChange;
    pub use crate::problems::edit_distance::EditDistance;
    pub use crate::problems::floyd_warshall::FloydWarshall;
    pub use crate::problems::knapsack::Knapsack;
    pub use crate::problems::lcs::Lcs;
    pub use crate::problems::lis::Lis;
    pub use crate::problems::matrix_chain::MatrixChain;
    pub use crate::problems::optimal_bst::OptimalBst;
    pub use crate::problems::rod_cutting::RodCutting;
    pub use crate::solver::{
        dependency_dag, solve_counter, solve_sequential, solve_wavefront, DpSolution,
    };
    pub use crate::spec::DpProblem;
}
