//! The `qbfserve` protocol: a long-lived incremental solving service.
//!
//! One JSON object per input line (JSONL), one JSON object per output
//! line, over stdin/stdout. The server wraps an
//! [`IncrementalSolver`] — learned constraints, heuristic scores and the
//! constraint arena stay hot across queries — and exposes the push/pop +
//! assumption API plus per-query statistics and certificates:
//!
//! ```text
//! {"cmd":"load","path":"data/paper_example.qtree"}
//! {"cmd":"push"}
//! {"cmd":"add","lits":[1,-3]}
//! {"cmd":"assume","lit":2}
//! {"cmd":"solve","proof":true}
//! {"cmd":"solve","engine":"expand","scheme":"ordered"}
//! {"cmd":"stats"}
//! {"cmd":"metrics"}
//! {"cmd":"metrics","format":"json"}
//! {"cmd":"proof","path":"q1.qrp","instance":"q1.qtree"}
//! {"cmd":"pop"}
//! ```
//!
//! # Metrics
//!
//! The server keeps a [`Registry`] of
//! service metrics: query/error counters, cumulative per-`Stats`-counter
//! totals, and log-bucketed per-query latency and assignment histograms.
//! `{"cmd":"metrics"}` renders it in the Prometheus text exposition
//! format (escaped into the one-line JSON reply); with
//! `"format":"json"` the reply embeds a structured snapshot instead.
//! Latencies come from the server's [`Clock`]:
//! wall time in production, and a `ManualClock` under the binary's
//! `--manual-clock` flag — under which every metrics artifact is
//! byte-deterministic and CI replays a scripted session twice and `cmp`s
//! the snapshot streams.
//!
//! Every response carries `"ok":true` with command-specific fields, or
//! `"ok":false` with the 1-based input line number and a message — the
//! same `line N: message` discipline as the `qbf_core::io` parsers:
//!
//! ```text
//! {"ok":false,"line":4,"error":"unknown command `solev`"}
//! {"ok":false,"line":5,"error":"unknown field `level` for `push` (it takes no fields besides `cmd`)"}
//! ```
//!
//! Each command accepts a fixed set of fields besides `cmd` (one table,
//! `COMMANDS`); any other field is such an error, so a misspelt option
//! is never silently ignored.
//!
//! Errors never terminate the server; it keeps accepting requests. All
//! output is byte-deterministic: field order is fixed by the writer and
//! every value is a pure function of the request sequence (the CI gate
//! replays a scripted session twice and `cmp`s the transcripts).
//!
//! JSON is written by plain string formatting and read with the in-tree
//! `qbf_bench::json` parser — the workspace stays hermetic.

use qbf_bench::json::{self, Json};
use qbf_core::io;
use qbf_core::metrics::{Clock, CounterId, GaugeId, HistId, Registry, WallClock};
use qbf_core::observe::Progress;
use qbf_core::portfolio::{self, PortfolioOptions};
use qbf_core::solver::{IncrementalError, IncrementalSolver, Outcome, SolverConfig, Stats};
use qbf_core::{Lit, Qbf};
use qbf_expand::{DepScheme, ExpandConfig};
use qbf_prenex::portfolio::roster;

/// The certificate artifacts of the last `solve` with `"proof":true`:
/// the `qrp 1` text and the frame-restricted instance it certifies
/// (qtree format), captured at query time so `qbfcheck` can verify the
/// pair even after further `push`/`pop`/`add` traffic.
#[derive(Debug, Clone)]
struct ProofArtifacts {
    certificate: String,
    instance: String,
}

/// Registry handles for the service metrics (see [`Server::registry`]
/// setup in [`Server::with_clock`]).
#[derive(Debug)]
struct MetricIds {
    queries: CounterId,
    errors: CounterId,
    latency: HistId,
    assignments: HistId,
    arena_peak: GaugeId,
    /// Constraints exported to the share pool across portfolio solves.
    portfolio_shared: CounterId,
    /// Peer constraints attached across portfolio solves.
    portfolio_imported: CounterId,
    /// Peer constraints dropped by the class filter across portfolio
    /// solves.
    portfolio_discarded: CounterId,
    /// 1-based index of the last portfolio solve's winning worker
    /// (0 = no portfolio solve yet, or no worker finished).
    portfolio_winner: GaugeId,
    /// Cumulative session counters, in [`Stats::session_totals`] order.
    session: Vec<CounterId>,
}

/// A `qbfserve` session: one optional loaded instance, the last query's
/// statistics and certificate, and the service metrics layer (cumulative
/// totals, per-query histograms, optional snapshot stream).
#[derive(Debug)]
pub struct Server {
    config: SolverConfig,
    session: Option<IncrementalSolver>,
    last_stats: Option<Stats>,
    last_proof: Option<ProofArtifacts>,
    clock: Box<dyn Clock>,
    queries: u64,
    totals: Stats,
    registry: Registry,
    ids: MetricIds,
    progress_interval: u64,
    snapshot_every: u64,
    sink_lines: Vec<String>,
}

fn error_response(line: usize, message: &str) -> String {
    format!(
        "{{\"ok\":false,\"line\":{line},\"error\":\"{}\"}}",
        json::escape(message)
    )
}

/// Serializes [`Stats`] as a JSON object, in [`Stats::fields`] order.
fn stats_json(stats: &Stats) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in stats.fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{value}"));
    }
    out.push('}');
    out
}

/// `qbfsolve`'s verdict encoding: `1` true, `0` false, `-1` budget.
fn verdict(value: Option<bool>) -> i32 {
    match value {
        Some(true) => 1,
        Some(false) => 0,
        None => -1,
    }
}

/// Parses an instance, dispatching on the `p qtree` / `p cnf` keyword
/// line like `qbfsolve` does.
fn parse_qbf(text: &str) -> Result<Qbf, String> {
    let keyword = text
        .lines()
        .map(str::trim)
        .find(|l| l.starts_with("p "))
        .unwrap_or("");
    if keyword.starts_with("p qtree") {
        io::qtree::parse(text).map_err(|e| e.to_string())
    } else {
        io::qdimacs::parse(text).map_err(|e| e.to_string())
    }
}

/// Extracts a DIMACS literal from a JSON number.
fn json_lit(v: &Json) -> Result<Lit, String> {
    let n = v
        .as_f64()
        .filter(|n| n.fract() == 0.0 && n.abs() <= i32::MAX as f64)
        .ok_or_else(|| "literals must be non-zero DIMACS integers".to_string())?;
    if n == 0.0 {
        return Err("literal 0 is reserved (DIMACS terminator)".to_string());
    }
    Ok(Lit::from_dimacs(n as i64))
}

/// The protocol's commands and, for each, the request fields it accepts
/// besides `cmd`. This one table drives the unknown-command check, the
/// unknown-field check and the text of both errors, so a misspelt or
/// unsupported field (`"budget"`, `"level"`) is an error, never silently
/// ignored.
const COMMANDS: &[(&str, &[&str])] = &[
    ("load", &["path", "text"]),
    ("push", &[]),
    ("pop", &[]),
    ("add", &["lits"]),
    ("assume", &["lit"]),
    (
        "solve",
        &[
            "engine",
            "scheme",
            "proof",
            "portfolio",
            "share_len",
            "deterministic",
            "epoch",
        ],
    ),
    ("stats", &[]),
    ("metrics", &["format"]),
    ("proof", &["path", "instance"]),
];

/// Checks a request against [`COMMANDS`]: its command must be listed and
/// every field besides `cmd` must be one that command accepts.
fn check_fields(cmd: &str, request: &Json) -> Result<(), String> {
    let allowed = COMMANDS
        .iter()
        .find(|(name, _)| *name == cmd)
        .map(|(_, fields)| *fields)
        .ok_or_else(|| format!("unknown command `{cmd}`"))?;
    let Json::Obj(fields) = request else {
        return Ok(());
    };
    match fields
        .iter()
        .find(|(key, _)| key != "cmd" && !allowed.contains(&key.as_str()))
    {
        None => Ok(()),
        Some((key, _)) if allowed.is_empty() => Err(format!(
            "unknown field `{key}` for `{cmd}` (it takes no fields besides `cmd`)"
        )),
        Some((key, _)) => Err(format!(
            "unknown field `{key}` for `{cmd}` (accepted: `{}`)",
            allowed.join("`, `")
        )),
    }
}

/// Reads an optional request field: `Ok(None)` when it is absent, its
/// value when it has the expected type, and an error naming the field
/// otherwise — an ill-typed value is never mistaken for an absent one.
fn field<'j, T>(
    request: &'j Json,
    key: &str,
    expected: &str,
    get: impl Fn(&'j Json) -> Option<T>,
) -> Result<Option<T>, String> {
    request
        .get(key)
        .map(|v| get(v).ok_or_else(|| format!("`{key}` must be {expected}")))
        .transpose()
}

fn bool_field(request: &Json, key: &str) -> Result<Option<bool>, String> {
    field(request, key, "a boolean", Json::as_bool)
}

fn u64_field(request: &Json, key: &str) -> Result<Option<u64>, String> {
    field(request, key, "a non-negative integer", Json::as_u64)
}

fn str_field<'j>(request: &'j Json, key: &str) -> Result<Option<&'j str>, String> {
    field(request, key, "a string", Json::as_str)
}

impl Server {
    /// A fresh server with no loaded instance, timing queries against
    /// wall time.
    pub fn new(config: SolverConfig) -> Self {
        Server::with_clock(config, Box::new(WallClock::new()))
    }

    /// A fresh server timing queries against `clock` — pass a
    /// `ManualClock` for byte-deterministic metrics artifacts (the
    /// binary's `--manual-clock` flag, used by the CI replay gate).
    pub fn with_clock(config: SolverConfig, clock: Box<dyn Clock>) -> Self {
        let mut registry = Registry::new();
        let ids = MetricIds {
            queries: registry.counter("qbf_queries_total", "Queries served by this session"),
            errors: registry.counter("qbf_errors_total", "Requests answered with ok:false"),
            latency: registry.histogram("qbf_query_latency_ns", "Per-query solve latency"),
            assignments: registry
                .histogram("qbf_query_assignments", "Per-query assignments (decisions+propagations+pures)"),
            arena_peak: registry
                .gauge("qbf_arena_bytes_peak", "High-water mark of constraint-arena bytes"),
            portfolio_shared: registry.counter(
                "qbf_portfolio_shared_total",
                "Constraints exported to the portfolio share pool",
            ),
            portfolio_imported: registry.counter(
                "qbf_portfolio_imported_total",
                "Peer constraints attached by portfolio workers",
            ),
            portfolio_discarded: registry.counter(
                "qbf_portfolio_discarded_total",
                "Peer constraints dropped by the portfolio class filter",
            ),
            portfolio_winner: registry.gauge(
                "qbf_portfolio_winner",
                "1-based winning worker index of the last portfolio solve (0 = none)",
            ),
            session: Stats::default()
                .session_totals()
                .iter()
                .map(|&(name, help, _)| registry.counter(name, help))
                .collect(),
        };
        Server {
            config,
            session: None,
            last_stats: None,
            last_proof: None,
            clock,
            queries: 0,
            totals: Stats::default(),
            registry,
            ids,
            progress_interval: 0,
            snapshot_every: 0,
            sink_lines: Vec::new(),
        }
    }

    /// Routes engine progress lines (every `interval` leaves; 0 disables)
    /// into the snapshot stream instead of stderr — drained by
    /// [`Server::drain_sink_lines`].
    pub fn set_progress_interval(&mut self, interval: u64) {
        self.progress_interval = interval;
    }

    /// Queues a full metrics snapshot into the snapshot stream after
    /// every `every`-th query (0 disables).
    pub fn set_snapshot_every(&mut self, every: u64) {
        self.snapshot_every = every;
    }

    /// Drains the pending snapshot-stream lines (periodic snapshots and
    /// routed progress lines, in emission order). The binary appends them
    /// to the `--metrics-jsonl` file after each request.
    pub fn drain_sink_lines(&mut self) -> Vec<String> {
        std::mem::take(&mut self.sink_lines)
    }

    /// The service metrics in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// One-line JSON snapshot of the service metrics: the registry
    /// (counters, gauges, histogram summaries) plus the cumulative
    /// session [`Stats`]. Byte-deterministic whenever the clock is.
    pub fn metrics_snapshot(&self) -> String {
        format!(
            "{{\"queries\":{},\"registry\":{},\"session\":{}}}",
            self.queries,
            self.registry.snapshot_json(),
            stats_json(&self.totals)
        )
    }

    /// Folds one finished query into the cumulative metrics.
    fn record_solve(&mut self, stats: &Stats, elapsed_ns: u64) {
        self.queries += 1;
        self.totals.merge(stats);
        self.last_stats = Some(*stats);
        self.registry.inc(self.ids.queries, 1);
        self.registry.observe(self.ids.latency, elapsed_ns);
        self.registry.observe(self.ids.assignments, stats.assignments());
        self.registry.set_max(self.ids.arena_peak, stats.arena_bytes_peak);
        for (&id, (_, _, value)) in self.ids.session.iter().zip(stats.session_totals()) {
            self.registry.inc(id, value);
        }
        if self.snapshot_every > 0 && self.queries.is_multiple_of(self.snapshot_every) {
            let snap = format!("{{\"type\":\"snapshot\",\"snapshot\":{}}}", self.metrics_snapshot());
            self.sink_lines.push(snap);
        }
    }

    /// Loads `text` as the session instance (replacing any previous one).
    /// Returns the success response; `Err` is the parse failure message.
    pub fn load_text(&mut self, text: &str) -> Result<String, String> {
        let qbf = parse_qbf(text)?;
        let vars = qbf.num_vars();
        let clauses = qbf.matrix().len();
        self.session = Some(IncrementalSolver::new(qbf, self.config.clone()));
        self.last_stats = None;
        self.last_proof = None;
        Ok(format!(
            "{{\"ok\":true,\"cmd\":\"load\",\"vars\":{vars},\"clauses\":{clauses}}}"
        ))
    }

    /// Handles one input line and returns the response line, or `None`
    /// for blank input. `line` is the 1-based input line number used in
    /// error responses. Never panics on malformed input; the session
    /// survives every error.
    pub fn handle_line(&mut self, line: usize, input: &str) -> Option<String> {
        if input.trim().is_empty() {
            return None;
        }
        Some(match self.dispatch(input) {
            Ok(response) => response,
            Err(message) => {
                self.registry.inc(self.ids.errors, 1);
                error_response(line, &message)
            }
        })
    }

    fn dispatch(&mut self, input: &str) -> Result<String, String> {
        let request = json::parse(input).map_err(|e| format!("malformed JSON: {e}"))?;
        let cmd = request
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("request object needs a string `cmd` field")?
            .to_string();
        check_fields(&cmd, &request)?;
        match cmd.as_str() {
            "load" => self.cmd_load(&request),
            "push" => {
                let level = self.session()?.push();
                Ok(format!("{{\"ok\":true,\"cmd\":\"push\",\"level\":{level}}}"))
            }
            "pop" => {
                let level = self.session()?.pop().map_err(|e| e.to_string())?;
                Ok(format!("{{\"ok\":true,\"cmd\":\"pop\",\"level\":{level}}}"))
            }
            "add" => self.cmd_add(&request),
            "assume" => self.cmd_assume(&request),
            "solve" => self.cmd_solve(&request),
            "stats" => {
                let stats = self.last_stats.ok_or("no query solved yet")?;
                Ok(format!(
                    "{{\"ok\":true,\"cmd\":\"stats\",\"queries\":{},\"stats\":{},\"session\":{}}}",
                    self.queries,
                    stats_json(&stats),
                    stats_json(&self.totals)
                ))
            }
            "metrics" => {
                let format = str_field(&request, "format")?.unwrap_or("prometheus");
                match format {
                    "prometheus" => Ok(format!(
                        "{{\"ok\":true,\"cmd\":\"metrics\",\"format\":\"prometheus\",\"body\":\"{}\"}}",
                        json::escape(&self.metrics_prometheus())
                    )),
                    "json" => Ok(format!(
                        "{{\"ok\":true,\"cmd\":\"metrics\",\"format\":\"json\",\"snapshot\":{}}}",
                        self.metrics_snapshot()
                    )),
                    other => Err(format!(
                        "unknown metrics format `{other}` (use `prometheus` or `json`)"
                    )),
                }
            }
            "proof" => self.cmd_proof(&request),
            other => unreachable!("`{other}` passed check_fields without a handler"),
        }
    }

    fn session(&mut self) -> Result<&mut IncrementalSolver, String> {
        self.session
            .as_mut()
            .ok_or_else(|| "no instance loaded (use the `load` command)".to_string())
    }

    fn cmd_load(&mut self, request: &Json) -> Result<String, String> {
        let text = match (str_field(request, "path")?, str_field(request, "text")?) {
            (Some(path), None) => {
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
            }
            (None, Some(text)) => text.to_string(),
            _ => return Err("load needs exactly one of `path` or `text`".to_string()),
        };
        self.load_text(&text)
    }

    fn cmd_add(&mut self, request: &Json) -> Result<String, String> {
        let lits = request
            .get("lits")
            .and_then(Json::as_array)
            .ok_or("add needs a `lits` array of DIMACS literals")?
            .iter()
            .map(json_lit)
            .collect::<Result<Vec<Lit>, String>>()?;
        let session = self.session()?;
        session.add_clause(&lits).map_err(|e: IncrementalError| e.to_string())?;
        let clauses = session.num_clauses();
        Ok(format!(
            "{{\"ok\":true,\"cmd\":\"add\",\"clauses\":{clauses}}}"
        ))
    }

    fn cmd_assume(&mut self, request: &Json) -> Result<String, String> {
        let lit = json_lit(
            request
                .get("lit")
                .ok_or("assume needs a `lit` DIMACS literal")?,
        )?;
        let session = self.session()?;
        session.assume(lit).map_err(|e| e.to_string())?;
        let pending = session.assumptions().len();
        Ok(format!(
            "{{\"ok\":true,\"cmd\":\"assume\",\"assumptions\":{pending}}}"
        ))
    }

    /// Runs one query, timing it against the server clock and routing
    /// progress lines into the snapshot stream when configured.
    fn timed_solve(&mut self) -> (Outcome, u64) {
        let start = self.clock.now_ns();
        let interval = self.progress_interval;
        let session = self.session.as_mut().expect("caller checked the session");
        let (outcome, progress_lines) = if interval > 0 {
            let mut progress = Progress::buffered(interval);
            let outcome = session.solve_observed(&mut progress);
            (outcome, progress.take_lines())
        } else {
            (session.solve(), Vec::new())
        };
        let elapsed = self.clock.now_ns().saturating_sub(start);
        for text in progress_lines {
            self.sink_lines.push(format!(
                "{{\"type\":\"progress\",\"query\":{},\"text\":\"{}\"}}",
                self.queries + 1,
                json::escape(&text)
            ));
        }
        (outcome, elapsed)
    }

    /// A `solve` with a `"portfolio":N` field: one-shot in-instance
    /// portfolio over the session's equivalent one-shot QBF (current
    /// matrix including pushed frames; see
    /// `IncrementalSolver::equivalent_qbf`). The incremental session
    /// itself is untouched — learned constraints do not flow back.
    fn cmd_solve_portfolio(&mut self, request: &Json, workers: usize) -> Result<String, String> {
        if workers == 0 {
            return Err("`portfolio` must be at least 1".to_string());
        }
        let share_len = u64_field(request, "share_len")?.unwrap_or(4) as usize;
        let deterministic = bool_field(request, "deterministic")?.unwrap_or(true);
        let epoch = u64_field(request, "epoch")?.unwrap_or(2048);
        if epoch == 0 {
            return Err("`epoch` must be at least 1".to_string());
        }
        let session = self.session()?;
        if !session.assumptions().is_empty() {
            // `equivalent_qbf` would bake the assumptions in, but a
            // portfolio solve does not consume them — the ambiguity is
            // worse than the restriction.
            return Err("portfolio solve does not support pending assumptions".to_string());
        }
        let qbf = session.equivalent_qbf();
        let variants = roster(&qbf, workers, deterministic, &self.config);
        let opts = PortfolioOptions {
            threads: workers,
            share_len,
            deterministic,
            epoch,
            ..PortfolioOptions::default()
        };
        let start = self.clock.now_ns();
        let out = portfolio::solve(&variants, &opts);
        let elapsed = self.clock.now_ns().saturating_sub(start);
        let stats = match out.winner {
            Some(w) => out.workers[w].stats,
            None => Stats::default(),
        };
        self.record_solve(&stats, elapsed);
        self.last_proof = None;
        let (shared, imported, discarded) = out
            .workers
            .iter()
            .fold((0u64, 0u64, 0u64), |(s, i, d), w| {
                (s + w.exported, i + w.imported, d + w.discarded)
            });
        self.registry.inc(self.ids.portfolio_shared, shared);
        self.registry.inc(self.ids.portfolio_imported, imported);
        self.registry.inc(self.ids.portfolio_discarded, discarded);
        self.registry.set(
            self.ids.portfolio_winner,
            out.winner.map_or(0, |w| w as u64 + 1),
        );
        let winner_label = out
            .winner
            .map_or(String::new(), |w| out.workers[w].label.clone());
        Ok(format!(
            "{{\"ok\":true,\"cmd\":\"solve\",\"value\":{},\"portfolio\":{{\"workers\":{},\"winner\":{},\"winner_label\":\"{}\",\"deterministic\":{},\"share_len\":{},\"epoch\":{},\"shared\":{shared},\"imported\":{imported},\"discarded\":{discarded}}},\"stats\":{}}}",
            verdict(out.value),
            out.workers.len(),
            out.winner.map_or(-1, |w| w as i64),
            json::escape(&winner_label),
            deterministic,
            out.share_len,
            epoch,
            stats_json(&stats)
        ))
    }

    /// A `solve` with `"engine":"expand"`: a one-shot run of the dual
    /// abstraction refinement engine (`qbf_expand`) over the session's
    /// equivalent one-shot QBF. The incremental session itself is
    /// untouched — no constraints flow back into the search state. An
    /// optional `"scheme"` field selects `tree` (default) or `ordered`
    /// dependencies; the server's `--budget` bounds SAT
    /// decisions+propagations.
    fn cmd_solve_expand(&mut self, request: &Json) -> Result<String, String> {
        if bool_field(request, "proof")?.unwrap_or(false) {
            return Err(
                "expansion solve does not produce certificates (drop \"proof\":true)".to_string(),
            );
        }
        if request.get("portfolio").is_some() {
            return Err(
                "`engine`:\"expand\" and `portfolio` are mutually exclusive".to_string(),
            );
        }
        let scheme = match request.get("scheme") {
            None => DepScheme::Tree,
            Some(s) => match s.as_str() {
                Some("tree") => DepScheme::Tree,
                Some("ordered") => DepScheme::Ordered,
                _ => return Err("`scheme` must be `tree` or `ordered`".to_string()),
            },
        };
        let session = self.session()?;
        if !session.assumptions().is_empty() {
            return Err("expansion solve does not support pending assumptions".to_string());
        }
        let qbf = session.equivalent_qbf();
        let mut config = match scheme {
            DepScheme::Tree => ExpandConfig::tree(),
            DepScheme::Ordered => ExpandConfig::ordered(),
        };
        config.step_limit = self.config.node_limit;
        let start = self.clock.now_ns();
        let out = qbf_expand::solve(&qbf, config);
        let elapsed = self.clock.now_ns().saturating_sub(start);
        // Query count and latency are engine-independent; the search
        // counters stay untouched (zeros), like a winnerless portfolio.
        self.record_solve(&Stats::default(), elapsed);
        self.last_proof = None;
        let fields = out
            .stats
            .fields()
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect::<Vec<_>>()
            .join(",");
        Ok(format!(
            "{{\"ok\":true,\"cmd\":\"solve\",\"engine\":\"expand\",\"value\":{},\"expand\":{{{fields}}}}}",
            verdict(out.value)
        ))
    }

    fn cmd_solve(&mut self, request: &Json) -> Result<String, String> {
        if let Some(engine) = request.get("engine") {
            match engine.as_str() {
                Some("search") => {}
                Some("expand") => return self.cmd_solve_expand(request),
                Some(other) => {
                    return Err(format!(
                        "unknown engine `{other}` (expected `search` or `expand`)"
                    ));
                }
                None => return Err("`engine` must be a string (`search` or `expand`)".to_string()),
            }
        }
        let with_proof = bool_field(request, "proof")?.unwrap_or(false);
        if let Some(workers) = request.get("portfolio") {
            let workers = workers
                .as_u64()
                .ok_or("`portfolio` must be a worker count")?;
            if with_proof {
                return Err(
                    "portfolio solve does not support \"proof\":true (use `qbfsolve --portfolio --proof`)"
                        .to_string(),
                );
            }
            return self.cmd_solve_portfolio(request, workers as usize);
        }
        self.session()?;
        if with_proof {
            let instance = {
                let session = self.session.as_mut().expect("checked above");
                io::qtree::write(&session.equivalent_qbf())
            };
            let start = self.clock.now_ns();
            let (outcome, certificate) = self
                .session
                .as_mut()
                .expect("checked above")
                .solve_with_proof();
            let elapsed = self.clock.now_ns().saturating_sub(start);
            self.record_solve(&outcome.stats, elapsed);
            let certified = certificate.is_some();
            self.last_proof = certificate.map(|certificate| ProofArtifacts {
                certificate,
                instance,
            });
            Ok(format!(
                "{{\"ok\":true,\"cmd\":\"solve\",\"value\":{},\"certificate\":{certified},\"stats\":{}}}",
                verdict(outcome.value()),
                stats_json(&outcome.stats)
            ))
        } else {
            let (outcome, elapsed) = self.timed_solve();
            self.record_solve(&outcome.stats, elapsed);
            self.last_proof = None;
            Ok(format!(
                "{{\"ok\":true,\"cmd\":\"solve\",\"value\":{},\"stats\":{}}}",
                verdict(outcome.value()),
                stats_json(&outcome.stats)
            ))
        }
    }

    fn cmd_proof(&mut self, request: &Json) -> Result<String, String> {
        let path = str_field(request, "path")?;
        let instance = str_field(request, "instance")?;
        let artifacts = self
            .last_proof
            .as_ref()
            .ok_or("no certificate for the last solve (use `solve` with \"proof\":true)")?
            .clone();
        let bytes = artifacts.certificate.len();
        if path.is_none() && instance.is_none() {
            return Ok(format!(
                "{{\"ok\":true,\"cmd\":\"proof\",\"bytes\":{bytes},\"text\":\"{}\"}}",
                json::escape(&artifacts.certificate)
            ));
        }
        let mut fields = format!("{{\"ok\":true,\"cmd\":\"proof\",\"bytes\":{bytes}");
        if let Some(p) = path {
            std::fs::write(p, &artifacts.certificate)
                .map_err(|e| format!("cannot write {p}: {e}"))?;
            fields.push_str(&format!(",\"path\":\"{}\"", json::escape(p)));
        }
        if let Some(p) = instance {
            std::fs::write(p, &artifacts.instance)
                .map_err(|e| format!("cannot write {p}: {e}"))?;
            fields.push_str(&format!(",\"instance\":\"{}\"", json::escape(p)));
        }
        fields.push('}');
        Ok(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every command of [`COMMANDS`] has a handler in `dispatch`, so
    /// none reaches its `unreachable!` arm, with or without an instance.
    #[test]
    fn every_listed_command_is_dispatched() {
        for loaded in [false, true] {
            let mut server = Server::new(SolverConfig::partial_order());
            if loaded {
                server
                    .load_text("p cnf 1 1\ne 1 0\n1 0\n")
                    .expect("tiny instance");
            }
            for (name, _) in COMMANDS {
                let request = format!("{{\"cmd\":\"{name}\"}}");
                assert!(server.handle_line(1, &request).is_some());
            }
        }
    }
}
