//! Machine-readable bench telemetry.
//!
//! Two output shapes:
//!
//! * **Per-run JSONL** ([`TelemetryRecord`], [`records_to_jsonl`]): one JSON
//!   object per measured solver run, carrying provenance (suite, instance
//!   label, generator group, solver configuration), the outcome, the wall
//!   time and the **full** [`Stats`] block. Wall times are inherently
//!   noisy, so this stream is for post-hoc analysis, not for diffing.
//! * **Aggregated `BENCH_qbf.json`** ([`bench_json`]): the Table I rows
//!   re-derived from the *deterministic* assignment counts
//!   ([`TableRow::add_by_assignments`]) plus per-suite learning totals.
//!   Every field is an integer or a fixed string, the field order is
//!   pinned, and no timestamps appear — repeated runs on the same seeds
//!   produce **byte-identical** documents, which is what lets CI diff the
//!   file and `repro bench-smoke` assert reproducibility.
//!
//! Both writers hand-roll their JSON (the build is hermetic); the sibling
//! [`crate::json`] reader validates the output.

use qbf_core::solver::Stats;

use crate::experiments::SuiteResult;
use crate::json::escape;
use crate::runner::{Measurement, TableRow};

/// Schema tag stamped into `BENCH_qbf.json` so readers can detect drift.
pub const BENCH_SCHEMA: &str = "qbf-bench/1";

/// One measured solver run with its provenance — the unit of the JSONL
/// telemetry stream.
#[derive(Debug, Clone)]
pub struct TelemetryRecord {
    /// Suite name (`NCF`, `FPV`, `DIA`, `PROB`, `FIXED`, …).
    pub suite: String,
    /// Instance label (encodes the generator parameters and seed).
    pub label: String,
    /// Parameter-setting group the instance belongs to.
    pub group: String,
    /// Solver configuration: `po` or `to:<strategy>`.
    pub solver: String,
    /// Decided value, `None` on budget exhaustion.
    pub value: Option<bool>,
    /// Wall-clock milliseconds (non-deterministic; excluded from the
    /// aggregated document).
    pub time_ms: f64,
    /// Full search statistics of the run.
    pub stats: Stats,
}

impl TelemetryRecord {
    /// Builds a record from a [`Measurement`] and its provenance.
    pub fn new(suite: &str, label: &str, group: &str, solver: &str, m: &Measurement) -> Self {
        TelemetryRecord {
            suite: suite.to_string(),
            label: label.to_string(),
            group: group.to_string(),
            solver: solver.to_string(),
            value: m.value,
            time_ms: m.time.as_secs_f64() * 1e3,
            stats: m.stats,
        }
    }

    /// Renders the record as one JSON object. The `stats` sub-object is
    /// driven by [`Stats::fields`], so new counters appear here without
    /// touching this module.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"suite\":\"{}\",\"label\":\"{}\",\"group\":\"{}\",\"solver\":\"{}\",\"value\":{},\"time_ms\":{:.3},\"stats\":{{",
            escape(&self.suite),
            escape(&self.label),
            escape(&self.group),
            escape(&self.solver),
            match self.value {
                Some(true) => "true",
                Some(false) => "false",
                None => "null",
            },
            self.time_ms
        ));
        for (i, (name, value)) in self.stats.fields().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push_str("}}");
        out
    }
}

/// Renders records as JSONL: one object per line, trailing newline.
pub fn records_to_jsonl(records: &[TelemetryRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

/// Serializes a [`TableRow`] as a JSON object with the paper's column
/// names spelled out.
fn row_json(row: &TableRow) -> String {
    format!(
        "{{\"to_slower\":{},\"to_faster\":{},\"ties\":{},\"to_only_timeout\":{},\"po_only_timeout\":{},\"both_timeout\":{},\"to_slower_10x\":{},\"to_faster_10x\":{}}}",
        row.to_slower,
        row.to_faster,
        row.ties,
        row.to_only_timeout,
        row.po_only_timeout,
        row.both_timeout,
        row.to_slower_10x,
        row.to_faster_10x
    )
}

/// Aggregated per-solver totals over a suite's telemetry records.
#[derive(Debug, Clone, Copy, Default)]
struct SolverTotals {
    runs: u64,
    timeouts: u64,
    assignments: u64,
    conflicts: u64,
    solutions: u64,
    learned_clauses: u64,
    learned_cubes: u64,
    backjumps: u64,
}

impl SolverTotals {
    fn add(&mut self, r: &TelemetryRecord) {
        self.runs += 1;
        self.timeouts += u64::from(r.value.is_none());
        self.assignments += r.stats.assignments();
        self.conflicts += r.stats.conflicts;
        self.solutions += r.stats.solutions;
        self.learned_clauses += r.stats.learned_clauses;
        self.learned_cubes += r.stats.learned_cubes;
        self.backjumps += r.stats.backjumps;
    }

    fn to_json(self) -> String {
        format!(
            "{{\"runs\":{},\"timeouts\":{},\"assignments\":{},\"conflicts\":{},\"solutions\":{},\"learned_clauses\":{},\"learned_cubes\":{},\"backjumps\":{}}}",
            self.runs,
            self.timeouts,
            self.assignments,
            self.conflicts,
            self.solutions,
            self.learned_clauses,
            self.learned_cubes,
            self.backjumps
        )
    }
}

/// Builds the aggregated, byte-deterministic `BENCH_qbf.json` document
/// from suite results.
///
/// Per suite it emits:
///
/// * `row_by_assignments` — the Table I row re-derived from the
///   deterministic assignment counts of the first-strategy pairs
///   (what the committed `BENCH_qbf.json` is diffed on);
/// * `rows` — one such deterministic row per prenexing strategy,
///   reconstructed from the telemetry records by pairing each `to:<s>`
///   run with the `po` run of the same instance;
/// * `po` / `to` — learning and cost totals per solver side, summed from
///   the telemetry records.
///
/// Wall-clock times never enter this document (they live in the JSONL
/// stream), so repeated runs on the same seeds are byte-identical.
pub fn bench_json(results: &[SuiteResult]) -> String {
    use std::collections::BTreeMap;
    use std::time::Duration;

    let as_measurement = |r: &TelemetryRecord| Measurement {
        value: r.value,
        stats: r.stats,
        time: Duration::ZERO, // unused by the by-assignments comparison
    };
    let mut out = String::new();
    out.push_str(&format!("{{\n  \"schema\": \"{BENCH_SCHEMA}\",\n  \"suites\": [\n"));
    for (i, res) in results.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let mut det = TableRow::default();
        for p in &res.pairs {
            det.add_by_assignments(&p.to, &p.po);
        }
        // Per-strategy deterministic rows: pair every `to:<s>` record with
        // the `po` record of the same instance label.
        let po_by_label: BTreeMap<&str, &TelemetryRecord> = res
            .telemetry
            .iter()
            .filter(|r| r.solver == "po")
            .map(|r| (r.label.as_str(), r))
            .collect();
        let mut strat_rows: Vec<(&str, TableRow)> = Vec::new();
        let (mut po, mut to) = (SolverTotals::default(), SolverTotals::default());
        for r in &res.telemetry {
            if r.solver == "po" {
                po.add(r);
                continue;
            }
            to.add(r);
            let Some(po_rec) = po_by_label.get(r.label.as_str()) else {
                continue;
            };
            let row = match strat_rows.iter_mut().find(|(s, _)| *s == r.solver) {
                Some((_, row)) => row,
                None => {
                    strat_rows.push((r.solver.as_str(), TableRow::default()));
                    &mut strat_rows.last_mut().expect("just pushed").1
                }
            };
            row.add_by_assignments(&as_measurement(r), &as_measurement(po_rec));
        }
        out.push_str(&format!(
            "    {{\"name\":\"{}\",\"instances\":{},\"row_by_assignments\":{},\"rows\":[",
            escape(&res.name),
            res.pairs.len(),
            row_json(&det)
        ));
        for (j, (label, row)) in strat_rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"strategy\":\"{}\",\"row\":{}}}",
                escape(label),
                row_json(row)
            ));
        }
        out.push_str(&format!(
            "],\"po\":{},\"to\":{}}}",
            po.to_json(),
            to.to_json()
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::time::Duration;

    fn measurement(assignments: u64, timeout: bool) -> Measurement {
        Measurement {
            value: if timeout { None } else { Some(true) },
            stats: Stats {
                decisions: assignments,
                learned_clauses: 2,
                learned_cubes: 1,
                blocker_hits: 5,
                arena_bytes_peak: 640,
                arena_bytes_reclaimed: 128,
                compactions: 1,
                ..Stats::default()
            },
            time: Duration::from_micros(1234 + assignments),
        }
    }

    fn tiny_result() -> SuiteResult {
        let to = measurement(1000, false);
        let po = measurement(40, false);
        let mut row = TableRow::default();
        row.add(&to, &po, Duration::from_micros(1));
        SuiteResult {
            name: "T".to_string(),
            rows: vec![("s".to_string(), row)],
            pairs: vec![crate::runner::Pair {
                label: "i0".to_string(),
                to: to.clone(),
                po: po.clone(),
            }],
            medians: Vec::new(),
            telemetry: vec![
                TelemetryRecord::new("T", "i0", "g", "po", &po),
                TelemetryRecord::new("T", "i0", "g", "to:s", &to),
            ],
        }
    }

    #[test]
    fn record_json_parses_and_carries_all_stats() {
        let r = TelemetryRecord::new("S", "lbl", "grp", "po", &measurement(7, false));
        let v = json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("suite").and_then(Json::as_str), Some("S"));
        assert_eq!(v.get("value").and_then(Json::as_bool), Some(true));
        let stats = v.get("stats").unwrap();
        for (name, value) in Stats::default().fields() {
            let _ = value;
            assert!(stats.get(name).is_some(), "missing stats field {name}");
        }
        assert_eq!(
            stats.get("learned_clauses").and_then(Json::as_u64),
            Some(2)
        );
        // the PR-4 memory telemetry flows through without touching this module
        assert_eq!(stats.get("blocker_hits").and_then(Json::as_u64), Some(5));
        assert_eq!(stats.get("arena_bytes_peak").and_then(Json::as_u64), Some(640));
        assert_eq!(
            stats.get("arena_bytes_reclaimed").and_then(Json::as_u64),
            Some(128)
        );
        assert_eq!(stats.get("compactions").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn jsonl_is_line_shaped() {
        let r = TelemetryRecord::new("S", "a", "g", "po", &measurement(7, true));
        let text = records_to_jsonl(&[r.clone(), r]);
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(json::parse(line).is_ok());
        }
        assert!(text.contains("\"value\":null"));
    }

    #[test]
    fn bench_json_is_deterministic_and_parseable() {
        let res = tiny_result();
        let doc1 = bench_json(std::slice::from_ref(&res));
        let doc2 = bench_json(&[res]);
        assert_eq!(doc1, doc2, "byte determinism");
        let v = json::parse(&doc1).unwrap();
        assert_eq!(v.get("schema").and_then(Json::as_str), Some(BENCH_SCHEMA));
        let suites = v.get("suites").and_then(Json::as_array).unwrap();
        assert_eq!(suites.len(), 1);
        let s = &suites[0];
        assert_eq!(s.get("name").and_then(Json::as_str), Some("T"));
        assert_eq!(s.get("instances").and_then(Json::as_u64), Some(1));
        let det = s.get("row_by_assignments").unwrap();
        // 1000 vs 40 assignments: TO slower and >10x.
        assert_eq!(det.get("to_slower").and_then(Json::as_u64), Some(1));
        assert_eq!(det.get("to_slower_10x").and_then(Json::as_u64), Some(1));
        let rows = s.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("strategy").and_then(Json::as_str), Some("to:s"));
        assert_eq!(
            rows[0]
                .get("row")
                .and_then(|r| r.get("to_slower"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let po = s.get("po").unwrap();
        assert_eq!(po.get("runs").and_then(Json::as_u64), Some(1));
        assert_eq!(po.get("learned_clauses").and_then(Json::as_u64), Some(2));
    }
}
