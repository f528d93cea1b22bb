//! The experiment drivers: one function per table/figure of §VII.

use std::collections::BTreeMap;
use std::time::Duration;

use qbf_core::recursive::{self, RecursiveConfig};
use qbf_core::solver::SolverConfig;
use qbf_models::{compute_diameter, explore, DiameterForm, SymbolicModel};
use qbf_prenex::Strategy;

use crate::runner::{run, Measurement, Pair, TableRow};
use crate::suites::{self, Scale, SuiteInstance};
use crate::telemetry::TelemetryRecord;

/// Result of a Table-I style suite run: one row per strategy, plus the
/// per-instance pairs (against the listed strategy, or the virtual best
/// solver for Fig. 3).
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Suite name (NCF, FPV, …).
    pub name: String,
    /// Rows: (strategy label, Table I row).
    pub rows: Vec<(String, TableRow)>,
    /// Per-instance (TO, PO) measurement pairs, TO = first strategy.
    pub pairs: Vec<Pair>,
    /// Fig. 3 data: per parameter setting, (median PO ms, median best-TO
    /// ms) — only populated when several strategies are run.
    pub medians: Vec<(String, f64, f64)>,
    /// One telemetry record per measured run (PO and every TO strategy),
    /// feeding the JSONL stream and the `BENCH_qbf.json` aggregation.
    pub telemetry: Vec<TelemetryRecord>,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if xs.is_empty() {
        return f64::NAN;
    }
    xs[xs.len() / 2]
}

/// Maps `items` through `f` on up to `jobs` worker threads (plain
/// `std::thread` — the workspace is hermetic), returning the results **in
/// item order** regardless of how the work was scheduled. `jobs <= 1`
/// degenerates to a sequential map on the calling thread, so the two
/// paths produce identical values and differ only in wall clock.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        items.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

/// The raw measurements of one suite instance: the PO run plus one TO run
/// per strategy. Produced by the (possibly parallel) measurement phase,
/// consumed sequentially in instance order by the aggregation phase.
struct InstanceRuns {
    po: Measurement,
    to: Vec<Measurement>,
}

/// Runs a suite of paired instances: PO once, TO once per strategy.
pub fn run_suite(name: &str, instances: &[SuiteInstance], budget: u64, tie: Duration) -> SuiteResult {
    run_suite_jobs(name, instances, budget, tie, 1)
}

/// [`run_suite`] with the instances fanned out across `jobs` worker
/// threads. The solver is deterministic and aggregation happens in
/// instance order, so everything derived from verdicts and [`qbf_core::solver::Stats`]
/// (rows, pairs, `BENCH_qbf.json`) is byte-identical for any `jobs`; only
/// the measured wall-clock times differ.
pub fn run_suite_jobs(
    name: &str,
    instances: &[SuiteInstance],
    budget: u64,
    tie: Duration,
    jobs: usize,
) -> SuiteResult {
    let po_cfg = suites::po_config(budget);
    let to_cfg = suites::to_config(budget);
    let strategies: Vec<Strategy> = instances
        .first()
        .map(|i| i.to.iter().map(|(s, _)| *s).collect())
        .unwrap_or_default();
    let mut rows: Vec<(String, TableRow)> =
        strategies.iter().map(|s| (s.to_string(), TableRow::default())).collect();
    let mut pairs = Vec::new();
    let mut telemetry = Vec::new();
    // group -> (po times, best-to times)
    let mut group_data: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();

    let measured = parallel_map(instances, jobs, |inst| InstanceRuns {
        po: run(&inst.po, &po_cfg),
        to: inst.to.iter().map(|(_, to_qbf)| run(to_qbf, &to_cfg)).collect(),
    });

    for (inst, runs) in instances.iter().zip(measured) {
        let po = runs.po;
        telemetry.push(TelemetryRecord::new(
            name,
            &inst.label,
            &inst.group,
            "po",
            &po,
        ));
        let mut to_runs: Vec<Measurement> = Vec::new();
        for (((strategy, _), to), (_, row)) in
            inst.to.iter().zip(runs.to).zip(rows.iter_mut())
        {
            // sanity: decided values must agree
            if let (Some(a), Some(b)) = (to.value, po.value) {
                assert_eq!(a, b, "TO/PO disagree on {}", inst.label);
            }
            row.add(&to, &po, tie);
            telemetry.push(TelemetryRecord::new(
                name,
                &inst.label,
                &inst.group,
                &format!("to:{strategy}"),
                &to,
            ));
            to_runs.push(to);
        }
        // Virtual best TO (QUBE(TO)* of Fig. 3): minimum time, timeouts
        // counted as the budget.
        let budget_time = to_runs
            .iter()
            .map(|m| m.time)
            .max()
            .unwrap_or_default()
            .max(tie * 200);
        let best_ms = to_runs
            .iter()
            .map(|m| {
                if m.is_timeout() {
                    budget_time.as_secs_f64() * 1e3
                } else {
                    m.time.as_secs_f64() * 1e3
                }
            })
            .fold(f64::INFINITY, f64::min);
        let po_ms = if po.is_timeout() {
            budget_time.as_secs_f64() * 1e3
        } else {
            po.time.as_secs_f64() * 1e3
        };
        let entry = group_data.entry(inst.group.clone()).or_default();
        entry.0.push(po_ms);
        entry.1.push(best_ms);
        pairs.push(Pair {
            label: inst.label.clone(),
            to: to_runs.into_iter().next().expect("at least one strategy"),
            po,
        });
    }

    let medians = group_data
        .into_iter()
        .map(|(g, (po, to))| (g, median(po), median(to)))
        .collect();
    SuiteResult {
        name: name.to_string(),
        rows,
        pairs,
        medians,
        telemetry,
    }
}

/// Fig. 2: the search tree of the recursive Q-DLL on the paper's running
/// example (1).
pub fn fig2() -> String {
    let qbf = qbf_core::samples::paper_example();
    let cfg = RecursiveConfig {
        trace: true,
        pure_literals: false,
        ..RecursiveConfig::default()
    };
    let out = recursive::solve(&qbf, &cfg);
    let mut s = String::new();
    s.push_str(&format!("QBF (1): {qbf}\n"));
    s.push_str(&format!(
        "value: {:?}  (the paper's Fig. 2 refutes it)\n\n",
        out.value
    ));
    s.push_str(&out.trace.expect("tracing enabled").render());
    s
}

/// One Fig. 6 data point: a model probed at increasing lengths.
#[derive(Debug, Clone)]
pub struct ScalingCurve {
    /// Model name.
    pub model: String,
    /// BFS ground-truth diameter (if computed).
    pub true_diameter: Option<u32>,
    /// Per-n probe costs: (n, TO ms, PO ms, to timeout, po timeout).
    pub points: Vec<(u32, f64, f64, bool, bool)>,
    /// Diameter found by each solver within the budget.
    pub to_diameter: Option<u32>,
    /// Diameter found by the PO solver.
    pub po_diameter: Option<u32>,
    /// Full per-probe (TO, PO) measurements (labelled `model@nN`) — the
    /// source for the Table I row, Fig. 5 scatter and telemetry records.
    pub pairs: Vec<Pair>,
}

/// Runs the DIA experiment for one model: probes φ0, φ1, … with both
/// solvers (Fig. 5 pairs, Fig. 6 curves).
pub fn dia_curve(model: &SymbolicModel, budget: u64, max_n: u32, with_bfs: bool) -> ScalingCurve {
    let po_run = compute_diameter(
        model,
        DiameterForm::Tree,
        &suites::po_config(budget),
        max_n,
    );
    let to_run = compute_diameter(
        model,
        DiameterForm::Prenex,
        &suites::to_config(budget),
        max_n,
    );
    let true_diameter = if with_bfs && model.bits() <= 16 {
        explore(model).map(|e| e.eccentricity)
    } else {
        None
    };
    if let (Some(a), Some(b)) = (po_run.diameter, to_run.diameter) {
        assert_eq!(a, b, "TO/PO diameters disagree on {}", model.name());
    }
    if let (Some(d), Some(t)) = (po_run.diameter, true_diameter) {
        assert_eq!(d, t, "QBF diameter disagrees with BFS on {}", model.name());
    }
    let mut points = Vec::new();
    let mut pairs = Vec::new();
    // A probe missing on one side (the other solver stopped probing
    // earlier) counts as a budget exhaustion with empty statistics.
    let absent = || Measurement {
        value: None,
        stats: qbf_core::solver::Stats::default(),
        time: Duration::ZERO,
    };
    let present = |p: &qbf_models::Probe| Measurement {
        value: p.outcome.value(),
        stats: p.outcome.stats,
        time: p.time,
    };
    let n_points = po_run.probes.len().max(to_run.probes.len());
    for i in 0..n_points {
        let po = po_run.probes.get(i);
        let to = to_run.probes.get(i);
        let n = po.map(|p| p.n).or(to.map(|p| p.n)).expect("some probe");
        points.push((
            n,
            to.map(|p| p.time.as_secs_f64() * 1e3).unwrap_or(f64::NAN),
            po.map(|p| p.time.as_secs_f64() * 1e3).unwrap_or(f64::NAN),
            to.map(|p| p.outcome.value().is_none()).unwrap_or(true),
            po.map(|p| p.outcome.value().is_none()).unwrap_or(true),
        ));
        pairs.push(Pair {
            label: format!("{}@n{}", model.name(), n),
            to: to.map(present).unwrap_or_else(absent),
            po: po.map(present).unwrap_or_else(absent),
        });
    }
    ScalingCurve {
        model: model.name().to_string(),
        true_diameter,
        points,
        to_diameter: to_run.diameter,
        po_diameter: po_run.diameter,
        pairs,
    }
}

/// The DIA suite as Table I row + Fig. 5 pairs: each (model, n) probe is
/// one instance.
pub fn dia_suite_result(scale: Scale) -> (SuiteResult, Vec<ScalingCurve>) {
    dia_suite_result_jobs(scale, 1)
}

/// [`dia_suite_result`] with the models fanned out across `jobs` worker
/// threads; curves and telemetry are aggregated in model order.
pub fn dia_suite_result_jobs(scale: Scale, jobs: usize) -> (SuiteResult, Vec<ScalingCurve>) {
    let budget = scale.dia_budget();
    let max_n = scale.dia_max_n();
    let mut rows = vec![(Strategy::ExistsUpForallUp.to_string(), TableRow::default())];
    let mut pairs = Vec::new();
    let mut telemetry = Vec::new();
    let mut curves = Vec::new();
    // `SymbolicModel` holds non-`Send` transition closures, so each worker
    // rebuilds its model from the (cheap, deterministic) suite definition
    // instead of sharing one across threads.
    let indices: Vec<usize> = (0..suites::dia_models(scale).len()).collect();
    let measured = parallel_map(&indices, jobs, |&i| {
        let model = suites::dia_models(scale).swap_remove(i);
        dia_curve(&model, budget, max_n, scale == Scale::Small)
    });
    for curve in measured {
        for pair in &curve.pairs {
            rows[0].1.add(&pair.to, &pair.po, scale.tie());
            telemetry.push(TelemetryRecord::new(
                "DIA",
                &pair.label,
                &curve.model,
                "po",
                &pair.po,
            ));
            telemetry.push(TelemetryRecord::new(
                "DIA",
                &pair.label,
                &curve.model,
                &format!("to:{}", rows[0].0),
                &pair.to,
            ));
            pairs.push(pair.clone());
        }
        curves.push(curve);
    }
    (
        SuiteResult {
            name: "DIA".to_string(),
            rows,
            pairs,
            medians: Vec::new(),
            telemetry,
        },
        curves,
    )
}

/// Renders Fig. 6-style curves as text.
pub fn render_curves(curves: &[ScalingCurve]) -> String {
    let mut out = String::new();
    for c in curves {
        out.push_str(&format!(
            "{}  (true d = {:?}, PO found {:?}, TO found {:?})\n",
            c.model, c.true_diameter, c.po_diameter, c.to_diameter
        ));
        out.push_str("   n |      TO ms |      PO ms\n");
        for &(n, to_ms, po_ms, to_t, po_t) in &c.points {
            let fmt = |ms: f64, t: bool| {
                if t {
                    "   timeout".to_string()
                } else {
                    format!("{ms:>10.2}")
                }
            };
            out.push_str(&format!(
                "{n:>4} | {} | {}\n",
                fmt(to_ms, to_t),
                fmt(po_ms, po_t)
            ));
        }
        out.push('\n');
    }
    out
}

/// Renders the Fig. 3 median table.
pub fn render_medians(result: &SuiteResult) -> String {
    let mut out = String::new();
    out.push_str("parameter setting | median PO ms | median best-TO ms | winner\n");
    for (g, po, to) in &result.medians {
        let winner = if po < to { "PO" } else if to < po { "TO*" } else { "=" };
        out.push_str(&format!("{g} | {po:.2} | {to:.2} | {winner}\n"));
    }
    out
}

/// Renders per-solver learning totals for a suite from its telemetry: how
/// many nogoods/goods each configuration learned (and at what assignment
/// cost) to achieve its Table I row.
pub fn render_learned(result: &SuiteResult) -> String {
    let mut agg: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    for r in &result.telemetry {
        let e = agg.entry(r.solver.as_str()).or_default();
        e.0 += 1;
        e.1 += r.stats.learned_clauses;
        e.2 += r.stats.learned_cubes;
        e.3 += r.stats.assignments();
    }
    let mut out = format!(
        "{}: learning totals per configuration\n{:<24} {:>5} {:>10} {:>10} {:>12}\n",
        result.name, "solver", "runs", "clauses", "cubes", "assignments"
    );
    for (solver, (runs, clauses, cubes, assignments)) in agg {
        out.push_str(&format!(
            "{solver:<24} {runs:>5} {clauses:>10} {cubes:>10} {assignments:>12}\n"
        ));
    }
    out
}

/// Runs the NCF experiment (Table I rows 1–4 + Fig. 3 data).
pub fn ncf_result(scale: Scale) -> SuiteResult {
    ncf_result_jobs(scale, 1)
}

/// [`ncf_result`] on `jobs` worker threads.
pub fn ncf_result_jobs(scale: Scale, jobs: usize) -> SuiteResult {
    run_suite_jobs("NCF", &suites::ncf_suite(scale), scale.budget(), scale.tie(), jobs)
}

/// Runs the FPV experiment (Table I row 5 + Fig. 4 data).
pub fn fpv_result(scale: Scale) -> SuiteResult {
    fpv_result_jobs(scale, 1)
}

/// [`fpv_result`] on `jobs` worker threads.
pub fn fpv_result_jobs(scale: Scale, jobs: usize) -> SuiteResult {
    run_suite_jobs("FPV", &suites::fpv_suite(scale), scale.budget(), scale.tie(), jobs)
}

/// Runs the PROB experiment (Table I row 7 + Fig. 7 data).
pub fn prob_result(scale: Scale) -> SuiteResult {
    prob_result_jobs(scale, 1)
}

/// [`prob_result`] on `jobs` worker threads.
pub fn prob_result_jobs(scale: Scale, jobs: usize) -> SuiteResult {
    run_suite_jobs("PROB", &suites::prob_suite(scale), scale.budget(), scale.tie(), jobs)
}

/// Runs the FIXED experiment (Table I row 8 + Fig. 7 data).
pub fn fixed_result(scale: Scale) -> SuiteResult {
    fixed_result_jobs(scale, 1)
}

/// [`fixed_result`] on `jobs` worker threads.
pub fn fixed_result_jobs(scale: Scale, jobs: usize) -> SuiteResult {
    run_suite_jobs("FIXED", &suites::fixed_suite(scale), scale.budget(), scale.tie(), jobs)
}

/// Ablation: the PO heuristic with and without the §VI tree score
/// (replaced by plain VSIDS ranking on the non-prenex input).
pub fn ablate_score(scale: Scale) -> Vec<(String, TableRow)> {
    use qbf_core::solver::HeuristicKind;
    let instances = suites::ncf_suite(scale);
    let budget = scale.budget();
    let tree_cfg = SolverConfig::partial_order().with_node_limit(budget);
    let flat_cfg = SolverConfig::partial_order()
        .with_node_limit(budget)
        .with_heuristic(HeuristicKind::VsidsLevel);
    let mut row = TableRow::default();
    for inst in &instances {
        let tree = run(&inst.po, &tree_cfg);
        let flat = run(&inst.po, &flat_cfg);
        // columns read: "flat slower / flat faster" than tree score
        row.add(&flat, &tree, scale.tie());
    }
    vec![("level-score vs tree-score on non-prenex".to_string(), row)]
}

/// Ablation: learning on vs off for the PO solver on the DIA suite
/// (isolates the §V learning effect).
pub fn ablate_learning(scale: Scale) -> Vec<(String, TableRow)> {
    let budget = scale.dia_budget();
    let with = suites::po_config(budget);
    let without = SolverConfig {
        learning: false,
        ..suites::po_config(budget)
    };
    let max_n = 8;
    let mut row = TableRow::default();
    for model in suites::dia_models(scale) {
        for n in 0..=max_n {
            let inst = qbf_models::diameter_qbf(&model, n, DiameterForm::Tree);
            let a = run(&inst.qbf, &without);
            let b = run(&inst.qbf, &with);
            row.add(&a, &b, scale.tie());
            if a.value == Some(false) || b.value == Some(false) {
                break;
            }
        }
    }
    vec![("no-learning vs learning (PO, DIA)".to_string(), row)]
}

/// Ablation: miniscoping with vs without single-clause-scope elimination —
/// measured as the PO/TO structure ratio achieved on FIXED instances.
pub fn ablate_miniscope(scale: Scale) -> String {
    let suite = suites::fixed_suite(scale);
    let mut out = String::from("instances passing the 20% structure filter with full miniscoping: ");
    out.push_str(&format!("{}\n", suite.len()));
    out.push_str(
        "(the elimination rule removes single-clause scopes; disabling it\n\
         keeps those variables in the tree — compare eliminated_vars)\n",
    );
    let params = qbf_gen::FixedParams {
        groups: 3,
        depth: 3,
        block_vars: 2,
        clauses_per_group: 10,
        lpc: 3,
    };
    let mut eliminated = 0usize;
    for seed in 0..8 {
        let inst = qbf_gen::fixed(&params, seed);
        if let Ok(m) = qbf_prenex::miniscope(&inst.prenex) {
            eliminated += m.eliminated_vars;
        }
    }
    out.push_str(&format!(
        "variables eliminated across 8 seeds: {eliminated}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_renders_refutation() {
        let s = fig2();
        assert!(s.contains("value: Some(false)"));
        assert!(s.contains("(branch)"));
    }

    #[test]
    fn median_is_robust() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert!(median(vec![]).is_nan());
    }

    #[test]
    fn dia_curve_small_counter() {
        let c = dia_curve(&qbf_models::counter(2), 1_000_000, 10, true);
        assert_eq!(c.true_diameter, Some(3));
        assert_eq!(c.po_diameter, Some(3));
        assert_eq!(c.to_diameter, Some(3));
        assert_eq!(c.points.len(), 4);
        assert_eq!(c.pairs.len(), 4);
        assert!(c.pairs.iter().all(|p| p.label.starts_with("counter<2>@n")));
        let rendered = render_curves(&[c]);
        assert!(rendered.contains("counter<2>"));
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<usize> = (0..37).collect();
        let doubled = parallel_map(&items, 4, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(parallel_map(&items, 1, |&x| x + 1)[36], 37);
        assert!(parallel_map::<usize, usize, _>(&[], 4, |&x| x).is_empty());
    }

    #[test]
    fn jobs_do_not_change_suite_results() {
        // The parallel harness must aggregate in instance order: the
        // deterministic outputs (rows, stats, BENCH json) are identical
        // for any --jobs N.
        let params = qbf_gen::NcfParams {
            dep: 3,
            var: 1,
            cls_ratio: 2,
            lpc: 2,
        };
        let instances: Vec<SuiteInstance> = (0..5u64)
            .map(|seed| {
                let po = qbf_gen::ncf(&params, seed);
                let to = Strategy::ALL
                    .iter()
                    .map(|&s| (s, qbf_prenex::prenex(&po, s)))
                    .collect();
                SuiteInstance {
                    label: format!("j#{seed}"),
                    group: "j".to_string(),
                    po,
                    to,
                }
            })
            .collect();
        let seq = run_suite_jobs("jobs", &instances, 100_000, Duration::from_millis(5), 1);
        let par = run_suite_jobs("jobs", &instances, 100_000, Duration::from_millis(5), 4);
        assert_eq!(
            crate::telemetry::bench_json(std::slice::from_ref(&seq)),
            crate::telemetry::bench_json(std::slice::from_ref(&par)),
            "BENCH json must be byte-identical across --jobs"
        );
        for (a, b) in seq.pairs.iter().zip(&par.pairs) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.po.value, b.po.value);
            assert_eq!(a.po.stats, b.po.stats);
            assert_eq!(a.to.stats, b.to.stats);
        }
        for (a, b) in seq.telemetry.iter().zip(&par.telemetry) {
            assert_eq!((&a.label, &a.solver, a.stats), (&b.label, &b.solver, b.stats));
        }
    }

    #[test]
    fn tiny_suite_run() {
        // A micro NCF suite to exercise run_suite end to end.
        let params = qbf_gen::NcfParams {
            dep: 3,
            var: 1,
            cls_ratio: 2,
            lpc: 2,
        };
        let instances: Vec<SuiteInstance> = (0..3u64)
            .map(|seed| {
                let po = qbf_gen::ncf(&params, seed);
                let to = Strategy::ALL
                    .iter()
                    .map(|&s| (s, qbf_prenex::prenex(&po, s)))
                    .collect();
                SuiteInstance {
                    label: format!("t#{seed}"),
                    group: "t".to_string(),
                    po,
                    to,
                }
            })
            .collect();
        let result = run_suite("micro", &instances, 100_000, Duration::from_millis(5));
        assert_eq!(result.rows.len(), 4);
        assert_eq!(result.pairs.len(), 3);
        assert_eq!(result.medians.len(), 1);
        assert_eq!(result.rows[0].1.total(), 3);
        let rendered = render_medians(&result);
        assert!(rendered.contains("median"));
        // telemetry: one PO + four TO records per instance
        assert_eq!(result.telemetry.len(), 3 * 5);
        assert!(result.telemetry.iter().any(|r| r.solver == "po"));
        assert!(result.telemetry.iter().any(|r| r.solver.starts_with("to:")));
        assert!(result
            .telemetry
            .iter()
            .all(|r| r.suite == "micro" && r.stats.assignments() > 0));
        let learned = render_learned(&result);
        assert!(learned.contains("po"));
        assert!(learned.contains("assignments"));
    }
}
