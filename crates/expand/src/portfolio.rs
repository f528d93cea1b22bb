//! The expansion engine as a portfolio [`ExternalWorker`].
//!
//! Wraps an [`ExpandSolver`] so `qbf_core::portfolio::solve_mixed` can
//! race expansion against the search roster in-process. Both drivers
//! call [`ExpandSolver::run_to`]: deterministic lockstep passes the
//! shared epoch bound, which the engine reads in its own cost metric
//! (SAT decisions + propagations), and the free race passes the
//! portfolio stop flag, polled at SAT decision boundaries. The
//! transcript line prints [`ExpandStats`] fields. No constraint sharing
//! crosses the paradigm boundary (see the trait docs).

use std::sync::atomic::AtomicBool;

use qbf_core::portfolio::ExternalWorker;
use qbf_core::Qbf;

use crate::engine::{ExpandConfig, ExpandSolver, ExpandStats};

/// An expansion engine boxed into the portfolio.
pub struct ExpandWorker<'a> {
    label: String,
    solver: ExpandSolver<'a>,
}

impl<'a> ExpandWorker<'a> {
    /// A portfolio worker solving `qbf` with `config` under `label`.
    pub fn new(label: impl Into<String>, qbf: &'a Qbf, config: ExpandConfig) -> Self {
        ExpandWorker {
            label: label.into(),
            solver: ExpandSolver::new(qbf, config),
        }
    }

    /// The wrapped engine's deterministic counters.
    pub fn stats(&self) -> ExpandStats {
        self.solver.stats()
    }
}

impl ExternalWorker for ExpandWorker<'_> {
    fn label(&self) -> &str {
        &self.label
    }

    fn advance(&mut self, bound: Option<u64>, stop: Option<&AtomicBool>) {
        self.solver.run_to(bound, stop);
    }

    fn value(&self) -> Option<bool> {
        self.solver.value()
    }

    fn timed_out(&self) -> bool {
        self.solver.budget_exhausted()
    }

    fn stat_fields(&self) -> Vec<(&'static str, u64)> {
        self.solver.stats().fields()
    }
}
