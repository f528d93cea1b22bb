//! The cold workloads (`po-tree`, `to-prenex`, `prenex-large`): one
//! instance at a time, from its text to a verdict, on a fresh solver.

use std::time::Instant;

use qbf_core::io::{qdimacs, qtree};
use qbf_core::preprocess::preprocess;
use qbf_core::solver::{Outcome, Solver, SolverConfig, Stats};
use qbf_prenex::{miniscope, prenex, Strategy};

use crate::pass::{solve, Layers, Pass};
use crate::pool::{Check, Instance, Kind};
use crate::trace::Tracer;

/// Budget of the checking solves (the committed answers used 5 M too).
const CHECK_BUDGET: u64 = 5_000_000;

fn run_op(
    inst: &Instance,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<(Option<bool>, Stats), String> {
    let open = tr.enter("io.parse");
    let parsed = match inst.kind {
        Kind::PoTree | Kind::ToTree => qtree::parse(&inst.text),
        Kind::PoFlat | Kind::ToFlat | Kind::Large => qdimacs::parse(&inst.text),
    };
    tr.exit(open);
    let qbf = parsed.map_err(|e| e.to_string())?;
    layers.parse_bytes += inst.text.len() as u64;
    let po = SolverConfig::partial_order().with_node_limit(inst.budget);
    let to = SolverConfig::total_order().with_node_limit(inst.budget);
    let out: Outcome = match inst.kind {
        Kind::PoTree => solve(&qbf, po, tr, layers),
        Kind::ToFlat => solve(&qbf, to, tr, layers),
        Kind::ToTree => {
            let flat = tr.span("prenex", || prenex(&qbf, Strategy::ExistsUpForallUp));
            solve(&flat, to, tr, layers)
        }
        Kind::PoFlat | Kind::Large => {
            let input = if inst.kind == Kind::Large {
                let (simplified, report) = tr.span("preprocess", || preprocess(&qbf));
                layers.pre_subsumed += report.subsumed as u64;
                layers.pre_units += report.units as u64;
                layers.pre_reduced += report.reduced_literals as u64;
                if let Some(value) = report.decided {
                    return Ok((Some(value), Stats::default()));
                }
                simplified
            } else {
                qbf
            };
            let mini = tr.span("miniscope", || miniscope(&input))?;
            layers.miniscope_eliminated += mini.eliminated_vars as u64;
            solve(&mini.qbf, po, tr, layers)
        }
    };
    Ok((out.value(), out.stats))
}

/// One pass over `pool` in the seeded `order`.
pub fn pass(pool: &[Instance], order: &[usize], tr: &mut Tracer) -> Pass {
    let mut p = Pass {
        ops: pool.len(),
        values: vec![None; pool.len()],
        verdict_ms: vec![0.0; pool.len()],
        ..Pass::default()
    };
    let mut results: Vec<Option<Stats>> = vec![None; pool.len()];
    let start = Instant::now();
    for (k, &i) in order.iter().enumerate() {
        tr.set_op(k as u32);
        let t0 = Instant::now();
        let open = tr.enter("op");
        let r = run_op(&pool[i], tr, &mut p.layers);
        tr.exit(open);
        p.verdict_ms[i] = t0.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok((value, stats)) => {
                p.values[i] = value;
                p.decided += usize::from(value.is_some());
                p.layers.stats.merge(&stats);
                results[i] = Some(stats);
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", pool[i].label);
                p.failed += 1;
            }
        }
    }
    p.batch_s = start.elapsed().as_secs_f64();
    for (value, stats) in p.values.iter().zip(&results) {
        p.digest.word(value.map_or(2, u64::from));
        for (_, v) in stats.unwrap_or_default().fields() {
            p.digest.word(v);
        }
    }
    p
}

/// Checks a pass's verdicts against the known answers; returns the
/// labels of wrong verdicts and the number of decided verdicts nothing
/// could check.
pub fn check(pool: &[Instance], values: &[Option<bool>]) -> (Vec<String>, usize) {
    let mut wrong = Vec::new();
    let mut unchecked = 0;
    for (inst, &value) in pool.iter().zip(values) {
        let Some(value) = value else { continue };
        let expected = match &inst.check {
            Check::Known(a) => Some(*a),
            Check::Cold(qbf, to) => {
                let cfg = if *to {
                    SolverConfig::total_order()
                } else {
                    SolverConfig::partial_order()
                };
                Solver::new(qbf, cfg.with_node_limit(CHECK_BUDGET))
                    .solve()
                    .value()
            }
            Check::Agree => {
                // The oracles could not decide: solve under the other order.
                let other = match inst.kind {
                    Kind::PoTree => qtree::parse(&inst.text)
                        .map(|q| prenex(&q, Strategy::ExistsUpForallUp))
                        .map(|q| (q, SolverConfig::total_order())),
                    Kind::ToTree => {
                        qtree::parse(&inst.text).map(|q| (q, SolverConfig::partial_order()))
                    }
                    Kind::PoFlat => {
                        qdimacs::parse(&inst.text).map(|q| (q, SolverConfig::total_order()))
                    }
                    Kind::ToFlat | Kind::Large => qdimacs::parse(&inst.text).map(|q| {
                        (
                            miniscope(&q).map(|m| m.qbf).unwrap_or(q),
                            SolverConfig::partial_order(),
                        )
                    }),
                };
                other.ok().and_then(|(q, cfg)| {
                    Solver::new(&q, cfg.with_node_limit(inst.budget))
                        .solve()
                        .value()
                })
            }
        };
        match expected {
            None => unchecked += 1,
            Some(e) if e != value => wrong.push(inst.label.clone()),
            Some(_) => {}
        }
    }
    (wrong, unchecked)
}
