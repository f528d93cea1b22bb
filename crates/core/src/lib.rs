//! # qbf-core
//!
//! Quantified Boolean Formulas with **partially ordered (non-prenex)
//! prefixes**, and search-based decision procedures that exploit the
//! quantifier structure — a from-scratch reproduction of
//! *Giunchiglia, Narizzano, Tacchella, “Quantifier structure in search based
//! procedures for QBFs”* (DATE 2006 / IEEE TCAD).
//!
//! ## Overview
//!
//! A [`Qbf`] pairs a [`Prefix`] — a forest of quantifier blocks inducing the
//! partial order `≺` of §II of the paper — with a CNF [`Matrix`]. The
//! [`semantics`] module gives the ground-truth recursive evaluation; the
//! [`recursive`] module implements the Q-DLL procedure of Fig. 1 extended to
//! arbitrary (non-prenex) QBFs per §IV; the [`solver`] module implements the
//! full iterative search solver with unit propagation, good/nogood learning
//! and the QUBE(TO)/QUBE(PO) branching heuristics of §VI.
//!
//! ## Quick example
//!
//! ```
//! use qbf_core::{samples, solver::{Solver, SolverConfig}};
//!
//! // The paper's running example (1) is false.
//! let qbf = samples::paper_example();
//! let outcome = Solver::new(&qbf, SolverConfig::partial_order()).solve();
//! assert_eq!(outcome.value(), Some(false));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clause;
mod matrix;
mod prefix;
mod qbf;
mod var;

pub mod io;
/// Re-export of [`qbf_metrics`]: the engine's phase/gauge vocabulary and
/// its `EngineMetrics` recorder (an observer, see [`observe`]) plus the
/// registry/histogram/clock toolkit (see that crate's docs). Core code
/// and downstream crates name these types through `qbf_core::metrics`
/// so the engine and its instruments always agree on one version.
pub mod metrics {
    pub use qbf_metrics::*;
}
pub mod observe;
pub mod portfolio;
pub mod preprocess;
pub mod proof;
pub mod recursive;
pub mod samples;
pub mod semantics;
pub mod solver;
pub mod stats;
pub mod witness;

pub use clause::{Clause, ClauseError};
pub use matrix::Matrix;
pub use prefix::{BlockId, Prefix, PrefixBuilder, PrefixError};
pub use qbf::{Qbf, QbfError};
pub use var::{Lit, Quantifier, Var};
