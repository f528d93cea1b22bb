//! Protocol robustness tests for the `qbfserve` service layer.
//!
//! Every malformed request — broken JSON, unknown commands, popping past
//! the bottom frame, commands before `load` — must produce a structured
//! `"ok":false` response carrying the 1-based input line number (the same
//! `line N: message` discipline as the `qbf_core::io` parsers), and the
//! server must keep accepting requests afterwards. Well-formed sessions
//! must replay byte-identically.

use qbf_core::solver::SolverConfig;
use qbf_serve::Server;

/// The §2 running example, inline so the tests need no filesystem.
const PAPER_EXAMPLE: &str = "p qtree 7 8\n\
     t (e 1 (a 2 (e 3 4)) (a 5 (e 6 7)))\n\
     -1 3 4 0\n2 -3 4 0\n3 -4 0\n-1 -3 -4 0\n\
     1 6 7 0\n5 -6 7 0\n6 -7 0\n1 -6 -7 0\n";

fn server() -> Server {
    Server::new(SolverConfig::partial_order())
}

fn loaded_server() -> Server {
    let mut s = server();
    s.load_text(PAPER_EXAMPLE).expect("sample parses");
    s
}

/// Runs a scripted session and collects the response lines (blank inputs
/// produce no response and are skipped, matching the binary's loop).
fn transcript(server: &mut Server, script: &[&str]) -> Vec<String> {
    script
        .iter()
        .enumerate()
        .filter_map(|(i, line)| server.handle_line(i + 1, line))
        .collect()
}

#[test]
fn blank_lines_are_ignored() {
    let mut s = loaded_server();
    assert_eq!(s.handle_line(1, ""), None);
    assert_eq!(s.handle_line(2, "   \t "), None);
}

#[test]
fn malformed_json_reports_the_line_number() {
    let mut s = loaded_server();
    let r = s.handle_line(7, "{\"cmd\":\"solve\"").unwrap();
    assert!(
        r.starts_with("{\"ok\":false,\"line\":7,\"error\":\"malformed JSON:"),
        "got: {r}"
    );
    // A non-object is equally malformed at the protocol level.
    let r = s.handle_line(8, "42").unwrap();
    assert!(r.starts_with("{\"ok\":false,\"line\":8,"), "got: {r}");
    // Nesting far past the reader's depth cap is a structured error, not
    // a stack overflow, and the session keeps answering.
    let (open, close) = ("[".repeat(100_000), "]".repeat(100_000));
    let r = s
        .handle_line(9, &format!("{{\"cmd\":\"solve\",\"x\":{open}{close}}}"))
        .unwrap();
    assert_eq!(
        r,
        "{\"ok\":false,\"line\":9,\"error\":\"malformed JSON: \
         nesting deeper than 128 levels at byte 146\"}"
    );
    let r = s.handle_line(10, "{\"cmd\":\"solve\"}").unwrap();
    assert!(r.starts_with("{\"ok\":true,"), "got: {r}");
}

#[test]
fn unknown_commands_are_rejected() {
    let mut s = loaded_server();
    let r = s.handle_line(3, "{\"cmd\":\"solev\"}").unwrap();
    assert_eq!(r, "{\"ok\":false,\"line\":3,\"error\":\"unknown command `solev`\"}");
    let r = s.handle_line(4, "{\"lits\":[1]}").unwrap();
    assert_eq!(
        r,
        "{\"ok\":false,\"line\":4,\"error\":\"request object needs a string `cmd` field\"}"
    );
}

#[test]
fn unknown_fields_are_rejected_with_their_name() {
    let mut s = loaded_server();
    for (line, input, want) in [
        (
            1,
            "{\"cmd\":\"solve\",\"budget\":-1,\"bogus\":true}",
            "unknown field `budget` for `solve` (accepted: `engine`, `scheme`, `proof`, \
             `portfolio`, `share_len`, `deterministic`, `epoch`)",
        ),
        (
            2,
            "{\"cmd\":\"push\",\"level\":7}",
            "unknown field `level` for `push` (it takes no fields besides `cmd`)",
        ),
        (
            3,
            "{\"cmd\":\"add\",\"lits\":[3],\"frame\":1}",
            "unknown field `frame` for `add` (accepted: `lits`)",
        ),
        (
            4,
            "{\"cmd\":\"metrics\",\"formats\":\"json\"}",
            "unknown field `formats` for `metrics` (accepted: `format`)",
        ),
        (
            5,
            "{\"cmd\":\"proof\",\"path\":\"q.qrp\",\"instnace\":\"q.qtree\"}",
            "unknown field `instnace` for `proof` (accepted: `path`, `instance`)",
        ),
        (
            6,
            "{\"cmd\":\"load\",\"file\":\"x.qtree\"}",
            "unknown field `file` for `load` (accepted: `path`, `text`)",
        ),
        (
            7,
            "{\"cmd\":\"assume\",\"lit\":-1,\"sticky\":true}",
            "unknown field `sticky` for `assume` (accepted: `lit`)",
        ),
        (
            8,
            "{\"cmd\":\"pop\",\"to\":0}",
            "unknown field `to` for `pop` (it takes no fields besides `cmd`)",
        ),
        (
            9,
            "{\"cmd\":\"stats\",\"reset\":true}",
            "unknown field `reset` for `stats` (it takes no fields besides `cmd`)",
        ),
    ] {
        let r = s.handle_line(line, input).unwrap();
        assert_eq!(
            r,
            format!("{{\"ok\":false,\"line\":{line},\"error\":\"{want}\"}}")
        );
    }
    // None of the rejected requests acted: no frame was pushed or added
    // to, no query ran, and the session goes on.
    assert_eq!(
        s.handle_line(10, "{\"cmd\":\"push\"}").unwrap(),
        "{\"ok\":true,\"cmd\":\"push\",\"level\":1}"
    );
    let r = s.handle_line(11, "{\"cmd\":\"stats\"}").unwrap();
    assert!(r.contains("no query solved yet"), "got: {r}");
}

#[test]
fn pop_past_the_bottom_frame_is_an_error() {
    let mut s = loaded_server();
    let r = s.handle_line(1, "{\"cmd\":\"pop\"}").unwrap();
    assert_eq!(r, "{\"ok\":false,\"line\":1,\"error\":\"pop: no frame to pop\"}");
    // Balanced push/pop works; the extra pop fails with the right line.
    assert_eq!(
        s.handle_line(2, "{\"cmd\":\"push\"}").unwrap(),
        "{\"ok\":true,\"cmd\":\"push\",\"level\":1}"
    );
    assert_eq!(
        s.handle_line(3, "{\"cmd\":\"pop\"}").unwrap(),
        "{\"ok\":true,\"cmd\":\"pop\",\"level\":0}"
    );
    let r = s.handle_line(4, "{\"cmd\":\"pop\"}").unwrap();
    assert_eq!(r, "{\"ok\":false,\"line\":4,\"error\":\"pop: no frame to pop\"}");
}

#[test]
fn commands_before_load_are_rejected_but_survivable() {
    let mut s = server();
    let r = s.handle_line(1, "{\"cmd\":\"solve\"}").unwrap();
    assert_eq!(
        r,
        "{\"ok\":false,\"line\":1,\"error\":\"no instance loaded (use the `load` command)\"}"
    );
    // The server is still usable: load inline text, then solve.
    let r = s
        .handle_line(2, &format!(
            "{{\"cmd\":\"load\",\"text\":\"{}\"}}",
            qbf_bench::json::escape(PAPER_EXAMPLE)
        ))
        .unwrap();
    assert_eq!(r, "{\"ok\":true,\"cmd\":\"load\",\"vars\":7,\"clauses\":8}");
    let r = s.handle_line(3, "{\"cmd\":\"solve\"}").unwrap();
    assert!(r.starts_with("{\"ok\":true,\"cmd\":\"solve\",\"value\":0,"), "got: {r}");
}

#[test]
fn bad_literals_and_bad_load_arguments_are_structured_errors() {
    let mut s = loaded_server();
    for (line, input, want) in [
        (
            1,
            "{\"cmd\":\"add\",\"lits\":[1,0]}",
            "literal 0 is reserved (DIMACS terminator)",
        ),
        (
            2,
            "{\"cmd\":\"add\",\"lits\":[1.5]}",
            "literals must be non-zero DIMACS integers",
        ),
        (3, "{\"cmd\":\"add\"}", "add needs a `lits` array of DIMACS literals"),
        (
            4,
            "{\"cmd\":\"add\",\"lits\":[99]}",
            "variable 99 is not bound by the prefix",
        ),
        (
            5,
            "{\"cmd\":\"add\",\"lits\":[1,-1]}",
            "clause contains both polarities of variable 1",
        ),
        (6, "{\"cmd\":\"assume\",\"lit\":2}", "assumption 2 is not existential"),
        (
            7,
            "{\"cmd\":\"load\",\"path\":\"a\",\"text\":\"b\"}",
            "load needs exactly one of `path` or `text`",
        ),
        (8, "{\"cmd\":\"stats\"}", "no query solved yet"),
        (
            9,
            "{\"cmd\":\"proof\"}",
            "no certificate for the last solve (use `solve` with \\\"proof\\\":true)",
        ),
    ] {
        let r = s.handle_line(line, input).unwrap();
        assert_eq!(
            r,
            format!("{{\"ok\":false,\"line\":{line},\"error\":\"{want}\"}}"),
            "input: {input}"
        );
    }
    // After nine straight errors the session still answers queries.
    let r = s.handle_line(10, "{\"cmd\":\"solve\"}").unwrap();
    assert!(r.starts_with("{\"ok\":true,\"cmd\":\"solve\",\"value\":0,"), "got: {r}");
}

/// A known field present with the wrong type is a structured error with
/// its line number, never silently replaced by the field's default.
#[test]
fn ill_typed_fields_are_structured_errors() {
    let mut s = loaded_server();
    let r = s
        .handle_line(1, "{\"cmd\":\"solve\",\"proof\":true}")
        .unwrap();
    assert!(r.contains("\"certificate\":true"), "got: {r}");
    for (line, input, want) in [
        (
            2,
            "{\"cmd\":\"solve\",\"portfolio\":2,\"epoch\":\"x\"}",
            "`epoch` must be a non-negative integer",
        ),
        (
            3,
            "{\"cmd\":\"solve\",\"portfolio\":2,\"share_len\":-3}",
            "`share_len` must be a non-negative integer",
        ),
        (
            4,
            "{\"cmd\":\"solve\",\"portfolio\":2,\"deterministic\":\"no\"}",
            "`deterministic` must be a boolean",
        ),
        (
            5,
            "{\"cmd\":\"solve\",\"proof\":\"yes\"}",
            "`proof` must be a boolean",
        ),
        (
            6,
            "{\"cmd\":\"solve\",\"engine\":\"expand\",\"proof\":1}",
            "`proof` must be a boolean",
        ),
        (
            7,
            "{\"cmd\":\"metrics\",\"format\":7}",
            "`format` must be a string",
        ),
        (
            8,
            "{\"cmd\":\"proof\",\"path\":7}",
            "`path` must be a string",
        ),
        (
            9,
            "{\"cmd\":\"proof\",\"instance\":false}",
            "`instance` must be a string",
        ),
        (
            10,
            "{\"cmd\":\"load\",\"path\":[]}",
            "`path` must be a string",
        ),
        (
            11,
            "{\"cmd\":\"load\",\"text\":null}",
            "`text` must be a string",
        ),
    ] {
        let r = s.handle_line(line, input).unwrap();
        assert_eq!(
            r,
            format!("{{\"ok\":false,\"line\":{line},\"error\":\"{want}\"}}"),
            "input: {input}"
        );
    }
    // None of them touched the session or the last certificate.
    let r = s.handle_line(12, "{\"cmd\":\"proof\"}").unwrap();
    assert!(
        r.starts_with("{\"ok\":true,\"cmd\":\"proof\",\"bytes\":"),
        "got: {r}"
    );
    let r = s
        .handle_line(13, "{\"cmd\":\"solve\",\"proof\":false}")
        .unwrap();
    assert!(
        r.starts_with("{\"ok\":true,\"cmd\":\"solve\",\"value\":0,"),
        "got: {r}"
    );
}

#[test]
fn expand_engine_solves_and_bad_engine_fields_are_structured_errors() {
    let mut s = loaded_server();
    // Both dependency schemes agree with search on the paper example
    // (false) and report the engine's own counters.
    let r = s.handle_line(1, "{\"cmd\":\"solve\",\"engine\":\"expand\"}").unwrap();
    assert!(
        r.starts_with("{\"ok\":true,\"cmd\":\"solve\",\"engine\":\"expand\",\"value\":0,\"expand\":{"),
        "got: {r}"
    );
    assert!(r.contains("\"sat-calls\":"), "got: {r}");
    let r = s
        .handle_line(2, "{\"cmd\":\"solve\",\"engine\":\"expand\",\"scheme\":\"ordered\"}")
        .unwrap();
    assert!(r.contains("\"value\":0"), "got: {r}");
    // Strict engine field: unknown values and non-strings are structured
    // errors, and the session survives them.
    let r = s.handle_line(3, "{\"cmd\":\"solve\",\"engine\":\"expnd\"}").unwrap();
    assert_eq!(
        r,
        "{\"ok\":false,\"line\":3,\"error\":\"unknown engine `expnd` (expected `search` or `expand`)\"}"
    );
    let r = s.handle_line(4, "{\"cmd\":\"solve\",\"engine\":7}").unwrap();
    assert_eq!(
        r,
        "{\"ok\":false,\"line\":4,\"error\":\"`engine` must be a string (`search` or `expand`)\"}"
    );
    let r = s
        .handle_line(5, "{\"cmd\":\"solve\",\"engine\":\"expand\",\"scheme\":\"topo\"}")
        .unwrap();
    assert!(r.contains("`scheme` must be `tree` or `ordered`"), "got: {r}");
    // Unsupported combinations are rejected without touching the session.
    let r = s
        .handle_line(6, "{\"cmd\":\"solve\",\"engine\":\"expand\",\"proof\":true}")
        .unwrap();
    assert!(r.starts_with("{\"ok\":false,\"line\":6,"), "got: {r}");
    let r = s
        .handle_line(7, "{\"cmd\":\"solve\",\"engine\":\"expand\",\"portfolio\":2}")
        .unwrap();
    assert!(r.starts_with("{\"ok\":false,\"line\":7,"), "got: {r}");
    // The search path still works and `\"engine\":\"search\"` is the
    // explicit spelling of the default.
    let r = s.handle_line(8, "{\"cmd\":\"solve\",\"engine\":\"search\"}").unwrap();
    assert!(r.starts_with("{\"ok\":true,\"cmd\":\"solve\",\"value\":0,"), "got: {r}");
}

#[test]
fn expand_solves_replay_byte_identically() {
    let script = [
        "{\"cmd\":\"solve\",\"engine\":\"expand\"}",
        "{\"cmd\":\"solve\",\"engine\":\"expand\",\"scheme\":\"ordered\"}",
        "{\"cmd\":\"push\"}",
        "{\"cmd\":\"add\",\"lits\":[1]}",
        "{\"cmd\":\"solve\",\"engine\":\"expand\"}",
        "{\"cmd\":\"pop\"}",
        "{\"cmd\":\"solve\",\"engine\":\"expand\"}",
    ];
    let a = transcript(&mut loaded_server(), &script);
    let b = transcript(&mut loaded_server(), &script);
    assert_eq!(a, b, "same script, different transcripts");
    // The pushed unit clause 1 keeps the instance false; popping it
    // restores the baseline answer byte-for-byte.
    assert!(a[4].contains("\"value\":0"), "got: {}", a[4]);
    assert_eq!(a[0], a[6], "pop must restore the baseline expand answer");
}

#[test]
fn sessions_replay_byte_identically() {
    let script = [
        "{\"cmd\":\"push\"}",
        "{\"cmd\":\"add\",\"lits\":[1,-3]}",
        "{\"cmd\":\"solve\",\"proof\":true}",
        "{\"cmd\":\"stats\"}",
        "{\"cmd\":\"proof\"}",
        "{\"cmd\":\"assume\",\"lit\":-1}",
        "{\"cmd\":\"solve\"}",
        "{\"cmd\":\"pop\"}",
        "not json at all",
        "{\"cmd\":\"pop\"}",
        "{\"cmd\":\"frobnicate\"}",
        "{\"cmd\":\"solve\"}",
    ];
    let a = transcript(&mut loaded_server(), &script);
    let b = transcript(&mut loaded_server(), &script);
    assert_eq!(a, b, "same script, different transcripts");
    assert_eq!(a.len(), script.len());
    // Spot-check the interesting lines: solve-with-proof carries a
    // certificate flag, errors carry their line numbers, and the final
    // solve (after all the noise) still answers.
    assert!(a[2].contains("\"certificate\":true"), "got: {}", a[2]);
    assert!(a[4].starts_with("{\"ok\":true,\"cmd\":\"proof\",\"bytes\":"), "got: {}", a[4]);
    assert!(a[8].starts_with("{\"ok\":false,\"line\":9,"), "got: {}", a[8]);
    assert!(a[9].starts_with("{\"ok\":false,\"line\":10,"), "got: {}", a[9]);
    assert!(a[10].starts_with("{\"ok\":false,\"line\":11,"), "got: {}", a[10]);
    assert!(a[11].starts_with("{\"ok\":true,\"cmd\":\"solve\",\"value\":0,"), "got: {}", a[11]);
}

/// A loaded server timed by a `ManualClock` (1000 ns per read, i.e. every
/// query "lasts" exactly one step), as the `--manual-clock` flag builds.
fn manual_server() -> Server {
    use qbf_core::metrics::ManualClock;
    let mut s = Server::with_clock(
        SolverConfig::partial_order(),
        Box::new(ManualClock::new(1000)),
    );
    s.load_text(PAPER_EXAMPLE).expect("sample parses");
    s
}

#[test]
fn stats_reports_cumulative_session_totals() {
    use qbf_bench::json::{self, Json};
    let mut s = loaded_server();
    transcript(
        &mut s,
        &[
            "{\"cmd\":\"solve\"}",
            "{\"cmd\":\"assume\",\"lit\":-1}",
            "{\"cmd\":\"solve\"}",
        ],
    );
    let r = s.handle_line(4, "{\"cmd\":\"stats\"}").unwrap();
    let v = json::parse(&r).expect("stats response is valid JSON");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("queries").and_then(Json::as_u64), Some(2));
    let field = |obj: &Json, name: &str| {
        obj.get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing u64 field {name} in {r}"))
    };
    let last = v.get("stats").expect("per-query stats");
    let totals = v.get("session").expect("cumulative session totals");
    // The totals fold *both* queries, so every additive counter is at
    // least the last query's and the decision total is strictly larger
    // (the first, unrestricted query certainly branched).
    for name in ["decisions", "propagations", "conflicts", "solutions"] {
        assert!(
            field(totals, name) >= field(last, name),
            "session {name} below last query's: {r}"
        );
    }
    assert!(field(totals, "decisions") > field(last, "decisions"), "got: {r}");
}

#[test]
fn metrics_command_renders_prometheus_and_json() {
    use qbf_bench::json::{self, Json};
    let mut s = loaded_server();
    transcript(&mut s, &["{\"cmd\":\"solve\"}", "{\"cmd\":\"solve\"}"]);

    // Default format: Prometheus text exposition, JSON-escaped into the
    // response body.
    let r = s.handle_line(3, "{\"cmd\":\"metrics\"}").unwrap();
    assert!(
        r.starts_with("{\"ok\":true,\"cmd\":\"metrics\",\"format\":\"prometheus\",\"body\":\""),
        "got: {r}"
    );
    let v = json::parse(&r).expect("metrics response is valid JSON");
    let body = v.get("body").and_then(Json::as_str).expect("embedded body");
    assert!(body.contains("# TYPE qbf_queries_total counter"), "got:\n{body}");
    assert!(body.contains("qbf_queries_total 2"), "got:\n{body}");
    assert!(body.contains("# TYPE qbf_query_latency_ns histogram"), "got:\n{body}");
    assert!(body.contains("qbf_query_latency_ns_bucket{le=\"+Inf\"} 2"), "got:\n{body}");
    assert!(body.contains("qbf_query_latency_ns_count 2"), "got:\n{body}");
    assert!(body.contains("qbf_session_decisions_total"), "got:\n{body}");
    assert!(body.ends_with('\n'), "exposition ends with a newline");

    // JSON format: the snapshot is inlined, not escaped.
    let r = s.handle_line(4, "{\"cmd\":\"metrics\",\"format\":\"json\"}").unwrap();
    let v = json::parse(&r).expect("json snapshot response parses");
    assert_eq!(v.get("format").and_then(Json::as_str), Some("json"));
    let snap = v.get("snapshot").expect("inlined snapshot");
    assert_eq!(snap.get("queries").and_then(Json::as_u64), Some(2));
    assert!(snap.get("registry").is_some(), "got: {r}");
    let totals = snap.get("session").expect("session totals in snapshot");
    assert!(totals.get("decisions").and_then(Json::as_u64).unwrap() > 0);

    // Unknown formats are structured errors, not panics.
    let r = s.handle_line(5, "{\"cmd\":\"metrics\",\"format\":\"xml\"}").unwrap();
    assert_eq!(
        r,
        "{\"ok\":false,\"line\":5,\"error\":\"unknown metrics format `xml` (use `prometheus` or `json`)\"}"
    );
}

#[test]
fn metrics_before_any_query_is_well_formed() {
    use qbf_bench::json::{self, Json};
    let mut s = server();
    let r = s.handle_line(1, "{\"cmd\":\"metrics\"}").unwrap();
    let v = json::parse(&r).expect("empty-session metrics parse");
    let body = v.get("body").and_then(Json::as_str).expect("body");
    assert!(body.contains("qbf_queries_total 0"), "got:\n{body}");
    // Empty histograms render no buckets but still expose sum/count.
    assert!(body.contains("qbf_query_latency_ns_count 0"), "got:\n{body}");
}

#[test]
fn manual_clock_metrics_are_byte_deterministic() {
    let script = [
        "{\"cmd\":\"push\"}",
        "{\"cmd\":\"add\",\"lits\":[1,-3]}",
        "{\"cmd\":\"solve\"}",
        "{\"cmd\":\"assume\",\"lit\":-1}",
        "{\"cmd\":\"solve\"}",
        "{\"cmd\":\"pop\"}",
        "{\"cmd\":\"solve\"}",
        "{\"cmd\":\"metrics\"}",
        "{\"cmd\":\"metrics\",\"format\":\"json\"}",
    ];
    let mut a = manual_server();
    let mut b = manual_server();
    let ta = transcript(&mut a, &script);
    let tb = transcript(&mut b, &script);
    assert_eq!(ta, tb, "manual-clock transcripts must be byte-identical");
    assert_eq!(a.metrics_snapshot(), b.metrics_snapshot());
    assert_eq!(a.metrics_prometheus(), b.metrics_prometheus());
    // Each query reads the clock twice, so with a 1000 ns step every
    // latency sample is exactly 1000 ns: the 1024-bucket is the only
    // occupied one and the sum is queries x 1000.
    assert!(
        a.metrics_prometheus()
            .contains("qbf_query_latency_ns_bucket{le=\"1023\"} 3"),
        "got:\n{}",
        a.metrics_prometheus()
    );
    assert!(a.metrics_prometheus().contains("qbf_query_latency_ns_sum 3000"));
}

#[test]
fn snapshot_stream_carries_periodic_snapshots_and_progress() {
    use qbf_bench::json::{self, Json};
    let mut s = manual_server();
    s.set_snapshot_every(2);
    s.set_progress_interval(1);
    transcript(
        &mut s,
        &["{\"cmd\":\"solve\"}", "{\"cmd\":\"solve\"}", "{\"cmd\":\"solve\"}"],
    );
    let lines = s.drain_sink_lines();
    assert!(!lines.is_empty(), "stream has progress and snapshot lines");
    assert!(s.drain_sink_lines().is_empty(), "drain empties the queue");
    let mut snapshots = 0;
    let mut progress = 0;
    for line in &lines {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad stream line {line}: {e}"));
        match v.get("type").and_then(Json::as_str) {
            Some("snapshot") => {
                snapshots += 1;
                let snap = v.get("snapshot").expect("snapshot payload");
                assert_eq!(snap.get("queries").and_then(Json::as_u64), Some(2));
            }
            Some("progress") => {
                progress += 1;
                assert!(v.get("query").and_then(Json::as_u64).is_some());
                let text = v.get("text").and_then(Json::as_str).expect("text");
                assert!(text.starts_with("c progress:"), "got: {text}");
            }
            other => panic!("unknown stream line type {other:?}: {line}"),
        }
    }
    assert_eq!(snapshots, 1, "snapshot after every 2nd of 3 queries");
    assert!(progress > 0, "progress lines routed into the stream");
}

#[test]
fn proof_artifacts_certify_the_frame_restricted_query() {
    let mut s = loaded_server();
    let responses = transcript(
        &mut s,
        &[
            "{\"cmd\":\"push\"}",
            "{\"cmd\":\"add\",\"lits\":[3]}",
            "{\"cmd\":\"solve\",\"proof\":true}",
            "{\"cmd\":\"proof\"}",
        ],
    );
    assert!(responses[2].contains("\"certificate\":true"), "got: {}", responses[2]);
    // The embedded text is the JSON-escaped `qrp 1` certificate.
    let body = &responses[3];
    let start = body.find("\"text\":\"").expect("embedded text") + 8;
    let end = body.rfind("\"}").expect("closing quote");
    let cert = body[start..end].replace("\\n", "\n").replace("\\\"", "\"");
    assert!(cert.starts_with("p qrp 1 "), "got: {cert}");
}
