//! `serve-session`: a scripted JSONL session through
//! `qbf_serve::Server::handle_line`, in process, one request at a time.

use std::collections::HashMap;
use std::time::Instant;

use qbf_bench::json::{self, Json};
use qbf_bench::suites::{po_config, to_config, Scale};
use qbf_core::solver::{Solver, SolverConfig, Stats};
use qbf_serve::Server;

use crate::pass::Pass;
use crate::pool::{Line, Order, Req, Session};
use crate::trace::Tracer;

/// Budget of the cold checking solves.
const CHECK_BUDGET: u64 = 5_000_000;

/// A fresh server per family with its instance loaded through a `load`
/// request.
pub fn load(session: &Session, tr: &mut Tracer) -> Result<Vec<Server>, String> {
    let budget = Scale::Small.dia_budget();
    session
        .families
        .iter()
        .map(|f| {
            let config = if f.order == Order::Po {
                po_config(budget)
            } else {
                to_config(budget)
            };
            let mut server = Server::new(config);
            let request = format!(
                "{{\"cmd\":\"load\",\"text\":\"{}\"}}",
                json::escape(&f.load)
            );
            let reply = tr.span("serve.load", || server.handle_line(1, &request));
            parse_ok(reply.as_deref())
                .map(|_| server)
                .map_err(|e| format!("{}: load: {e}", f.label))
        })
        .collect()
}

fn parse_ok(reply: Option<&str>) -> Result<Json, String> {
    let reply = reply.ok_or("no reply")?;
    let v = json::parse(reply)?;
    match v.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(v),
        _ => Err(reply.to_string()),
    }
}

/// The reply's verdict: `1` true, `0` false, `-1` budget exhausted.
fn value_of(reply: &Json) -> Option<bool> {
    reply
        .get("value")
        .and_then(Json::as_f64)
        .filter(|&v| v >= 0.0)
        .map(|v| v > 0.0)
}

fn stats_of(reply: &Json) -> Stats {
    let mut s = Stats::default();
    let Some(obj) = reply.get("stats") else {
        return s;
    };
    let get = |k: &str| obj.get(k).and_then(Json::as_u64).unwrap_or(0);
    s.decisions = get("decisions");
    s.propagations = get("propagations");
    s.pures = get("pures");
    s.conflicts = get("conflicts");
    s.solutions = get("solutions");
    s.learned_clauses = get("learned_clauses");
    s.learned_cubes = get("learned_cubes");
    s.cube_size_sum = get("cube_size_sum");
    s.watcher_visits = get("watcher_visits");
    s.blocker_hits = get("blocker_hits");
    s.arena_bytes_peak = get("arena_bytes_peak");
    s
}

fn span_name(req: &Req) -> &'static str {
    match req {
        Req::Push => "serve.push",
        Req::Pop => "serve.pop",
        Req::Add => "serve.add",
        Req::Assume => "serve.assume",
        Req::Stats => "serve.stats",
        Req::Solve { .. } => "serve.solve",
        Req::ProofSolve { .. } => "serve.proof_solve",
        Req::ExpandSolve { .. } => "expand.solve",
    }
}

/// Sends one request; a proof solve also fetches and checks its
/// certificate. Returns the verdict of a solve.
fn request(
    server: &mut Server,
    line_no: usize,
    line: &Line,
    session: &Session,
    tr: &mut Tracer,
    p: &mut Pass,
) -> Result<Option<bool>, String> {
    let reply = tr.span(span_name(&line.req), || {
        server.handle_line(line_no, &line.text)
    });
    if let Some(r) = &reply {
        p.digest.bytes(r.as_bytes());
    }
    let v = parse_ok(reply.as_deref())?;
    let layers = &mut p.layers;
    match line.req {
        Req::Solve { first, repeat, .. } => {
            let stats = stats_of(&v);
            layers.stats.merge(&stats);
            if first {
                layers.first_solve_assignments += stats.assignments();
            }
            if repeat {
                layers.repeat_solve_assignments += stats.assignments();
            }
            Ok(value_of(&v))
        }
        Req::ExpandSolve { .. } => {
            let e = v.get("expand").ok_or("expand reply without counters")?;
            let get = |k: &str| e.get(k).and_then(Json::as_u64).unwrap_or(0);
            layers.expand_rounds += get("rounds");
            layers.expand_sat_calls += get("sat-calls");
            layers.expand_sat_steps += get("sat-decisions") + get("sat-propagations");
            Ok(value_of(&v))
        }
        Req::ProofSolve { query } => {
            layers.stats.merge(&stats_of(&v));
            let value = value_of(&v);
            if v.get("certificate").and_then(Json::as_bool) != Some(true) {
                // The certificate run ran out of budget; the verdict is
                // still checked against a cold solve afterwards.
                return Ok(value);
            }
            let fetch = tr.span("serve.proof_fetch", || {
                server.handle_line(line_no, "{\"cmd\":\"proof\"}")
            });
            if let Some(r) = &fetch {
                p.digest.bytes(r.as_bytes());
            }
            let f = parse_ok(fetch.as_deref())?;
            let cert = f
                .get("text")
                .and_then(Json::as_str)
                .ok_or("proof reply without text")?;
            layers.proof_bytes += cert.len() as u64;
            let checked = tr.span("proof.check", || {
                qbf_proof::check_proof(&session.queries[query].qbf, cert)
            });
            match checked {
                Ok(c) if Some(c) == value => Ok(value),
                Ok(c) => Err(format!("certificate proves {c}, server said {value:?}")),
                Err(e) => Err(format!("certificate rejected: {e}")),
            }
        }
        Req::Push | Req::Pop | Req::Add | Req::Assume | Req::Stats => Ok(None),
    }
}

/// One pass: the whole scripted session, every family on its own server.
pub fn pass(session: &Session, servers: &mut [Server], tr: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    let mut op = 0u32;
    let start = Instant::now();
    for (family, server) in session.families.iter().zip(servers.iter_mut()) {
        for (i, line) in family.lines.iter().enumerate() {
            tr.set_op(op);
            op += 1;
            let t0 = Instant::now();
            let open = tr.enter("op");
            let r = request(server, i + 2, line, session, tr, &mut p);
            tr.exit(open);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let is_solve = matches!(
                line.req,
                Req::Solve { .. } | Req::ProofSolve { .. } | Req::ExpandSolve { .. }
            );
            if is_solve {
                p.verdict_ms.push(ms);
            } else {
                p.update_ms.push(ms);
            }
            match r {
                Ok(value) => {
                    if is_solve {
                        p.values.push(value);
                        p.decided += usize::from(value.is_some());
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {} line {}: {e}", family.label, i + 2);
                    p.failed += 1;
                    if is_solve {
                        p.values.push(None);
                    }
                }
            }
        }
        p.ops += family.lines.len();
    }
    p.batch_s = start.elapsed().as_secs_f64();
    p
}

/// Checks every solve verdict against a cold solve of the frame's
/// equivalent formula; returns descriptions of wrong verdicts and the
/// number of decided verdicts the cold solve could not check.
pub fn check(session: &Session, values: &[Option<bool>]) -> (Vec<String>, usize) {
    let mut cold: HashMap<usize, Option<bool>> = HashMap::new();
    let mut wrong = Vec::new();
    let mut unchecked = 0;
    let queries = session.families.iter().flat_map(|f| {
        f.lines.iter().filter_map(move |l| match l.req {
            Req::Solve { query, .. } | Req::ProofSolve { query } | Req::ExpandSolve { query } => {
                Some((f.label.as_str(), query))
            }
            _ => None,
        })
    });
    for ((family, query), &value) in queries.zip(values) {
        let Some(value) = value else { continue };
        let check = session.queries[query].check;
        let expected = *cold.entry(check).or_insert_with(|| {
            let cfg = SolverConfig::partial_order().with_node_limit(CHECK_BUDGET);
            Solver::new(&session.checks[check], cfg).solve().value()
        });
        match expected {
            None => unchecked += 1,
            Some(e) if e != value => wrong.push(format!("{family} query {query}")),
            Some(_) => {}
        }
    }
    (wrong, unchecked)
}
