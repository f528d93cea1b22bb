//! Workload inputs, generated during set-up with `qbf_gen` and
//! `qbf_models`, and the known answers they are checked against.
//!
//! The program under test only ever sees the generated text. The inputs
//! themselves are fixed; the workload seed orders them (see `main.rs` and
//! [`serve_session`]), so that every seed asks for the same work.

use std::collections::HashMap;

use qbf_bench::suites::{self, Scale};
use qbf_core::io::{qdimacs, qtree};
use qbf_core::{Clause, Lit, Matrix, Qbf, Quantifier};
use qbf_gen::rng::Rng;
use qbf_gen::{fixed, fpv, ncf, rand_qbf, FixedParams, FpvParams, NcfParams, RandParams};
use qbf_models::{diameter_qbf, diameter_sequence, explore, DiameterForm};

use crate::trace::fingerprint;

/// The committed oracle answers for the Table I small pool, built into
/// the binary so that set-up reads no file.
pub const ANSWERS: &str = include_str!("../answers.tsv");
/// Where `--refresh-answers` writes them.
pub const ANSWERS_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/answers.tsv");

/// What the program does with one cold instance, from text to verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// qtree → QUBE(PO).
    PoTree,
    /// QDIMACS → miniscope → QUBE(PO) (§VII-D).
    PoFlat,
    /// qtree → prenex ∃↑∀↑ → QUBE(TO).
    ToTree,
    /// QDIMACS → QUBE(TO).
    ToFlat,
    /// QDIMACS → preprocess → miniscope → QUBE(PO).
    Large,
}

/// How a verdict is checked after the timed passes.
#[derive(Debug, Clone)]
pub enum Check {
    /// The answer is known (BFS diameter or committed oracle answer).
    Known(bool),
    /// The oracles could not decide: agreement with the other order.
    Agree,
    /// Large instances: a cold solve of this independent formula (the
    /// structured original, or the flat text under the other order).
    Cold(Box<Qbf>, bool),
}

#[derive(Debug, Clone)]
pub struct Instance {
    pub label: String,
    pub text: String,
    pub kind: Kind,
    pub budget: u64,
    pub check: Check,
}

/// Which of the two cold Table I workloads a pool is built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    Po,
    To,
}

/// The Table I small pool in instance form, before it becomes text:
/// `(label, suite, formula)`. DIA probes come with their BFS answers.
struct Member {
    label: String,
    suite: &'static str,
    qbf: Qbf,
    dia_answer: Option<bool>,
}

fn table1_members(order: Order) -> Vec<Member> {
    let scale = Scale::Small;
    let seeds = scale.seeds() as u64;
    let mut out = Vec::new();
    for p in NcfParams::small_grid() {
        for s in 0..seeds {
            out.push(Member {
                label: format!("NCF {p}#{s}"),
                suite: "NCF",
                qbf: ncf(&p, s),
                dia_answer: None,
            });
        }
    }
    for p in FpvParams::grid().into_iter().step_by(4) {
        for s in 0..seeds {
            out.push(Member {
                label: format!("FPV {p}#{s}"),
                suite: "FPV",
                qbf: fpv(&p, s),
                dia_answer: None,
            });
        }
    }
    let form = match order {
        Order::Po => DiameterForm::Tree,
        Order::To => DiameterForm::Prenex,
    };
    for model in suites::dia_models(scale) {
        let d = explore(&model)
            .expect("small models are explorable")
            .eccentricity;
        for n in 0..=d.min(10) {
            out.push(Member {
                label: format!("DIA {}@n{n}", model.name()),
                suite: "DIA",
                qbf: diameter_qbf(&model, n, form).qbf,
                dia_answer: Some(n < d),
            });
        }
    }
    for (suite, insts) in [
        ("PROB", suites::prob_suite(scale)),
        ("FIXED", suites::fixed_suite(scale)),
    ] {
        for inst in insts {
            let flat = inst.to.into_iter().next().expect("one prenexing").1;
            out.push(Member {
                label: format!("{suite} {}", inst.label),
                suite,
                qbf: flat,
                dia_answer: None,
            });
        }
    }
    out
}

/// The cold pool of `po-tree` (`Order::Po`) or `to-prenex` (`Order::To`).
pub fn table1_pool(order: Order, answers: &HashMap<String, (u64, Option<bool>)>) -> Vec<Instance> {
    table1_members(order)
        .into_iter()
        .map(|m| {
            let (text, kind) = match (order, m.suite) {
                (Order::Po, "PROB" | "FIXED") => (qdimacs::write(&m.qbf), Kind::PoFlat),
                (Order::To, "PROB" | "FIXED" | "DIA") => (qdimacs::write(&m.qbf), Kind::ToFlat),
                (Order::Po, _) => (qtree::write(&m.qbf), Kind::PoTree),
                (Order::To, _) => (qtree::write(&m.qbf), Kind::ToTree),
            };
            let check = match m.dia_answer {
                Some(a) => Check::Known(a),
                None => match answers.get(&m.label) {
                    Some(&(fp, answer)) if fp == fingerprint(&text) => {
                        answer.map_or(Check::Agree, Check::Known)
                    }
                    _ => panic!(
                        "no committed answer for `{}` (run with --refresh-answers)",
                        m.label
                    ),
                },
            };
            let budget = if m.suite == "DIA" {
                Scale::Small.dia_budget()
            } else {
                Scale::Small.budget()
            };
            Instance {
                label: m.label,
                text,
                kind,
                budget,
                check,
            }
        })
        .collect()
}

/// Parses the committed answers: `label \t fingerprint \t 1|0|-`.
pub fn read_answers(text: &str) -> HashMap<String, (u64, Option<bool>)> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(f.len(), 3, "malformed answers line `{l}`");
            let fp = u64::from_str_radix(f[1], 16).expect("hex fingerprint");
            let answer = match f[2] {
                "1" => Some(true),
                "0" => Some(false),
                _ => None,
            };
            (f[0].to_string(), (fp, answer))
        })
        .collect()
}

/// Recomputes the answers file from the two independent oracles — the
/// expansion engine and the recursive Q-DLL — with 5 M budgets. The
/// search engine under test is not consulted.
pub fn refresh_answers() -> String {
    const ORACLE_BUDGET: u64 = 5_000_000;
    let mut out = String::from(
        "# Known answers of the Table I small pool (non-DIA members), from\n\
         # qbf_expand::solve and recursive::solve with 5M budgets.\n\
         # label\tfnv64 of the instance text\t1 true | 0 false | - undecided\n",
    );
    for m in table1_members(Order::Po) {
        if m.dia_answer.is_some() {
            continue;
        }
        let text = if matches!(m.suite, "PROB" | "FIXED") {
            qdimacs::write(&m.qbf)
        } else {
            qtree::write(&m.qbf)
        };
        let expand = qbf_expand::solve(
            &m.qbf,
            qbf_expand::ExpandConfig::tree().with_step_limit(ORACLE_BUDGET),
        )
        .value;
        let recursive = qbf_core::recursive::solve(
            &m.qbf,
            &qbf_core::recursive::RecursiveConfig {
                node_limit: Some(ORACLE_BUDGET),
                ..Default::default()
            },
        )
        .value;
        if let (Some(a), Some(b)) = (expand, recursive) {
            assert_eq!(a, b, "oracles disagree on {}", m.label);
        }
        let answer = match expand.or(recursive) {
            Some(true) => "1",
            Some(false) => "0",
            None => "-",
        };
        eprintln!("{}\texpand={expand:?} recursive={recursive:?}", m.label);
        out.push_str(&format!(
            "{}\t{:016x}\t{answer}\n",
            m.label,
            fingerprint(&text)
        ));
    }
    out
}

/// `prenex-large`: flat QDIMACS of 2k–8k clauses (60–200 KB), FIXED-style
/// with many groups (false) and PROB-style with many locality groups
/// (true). The instances are fixed, so that the workload seed (which only
/// orders them) does not change how much work a pass is.
pub fn large_pool() -> Vec<Instance> {
    let budget = Scale::Small.budget() * 10;
    let mut out = Vec::new();
    for (groups, cpg) in [(120, 60), (130, 60)] {
        let p = FixedParams {
            groups,
            depth: 5,
            block_vars: 4,
            clauses_per_group: cpg,
            lpc: 5,
        };
        let inst = fixed(&p, 0);
        out.push(Instance {
            label: format!("FIXED-L {p}"),
            text: qdimacs::write(&inst.prenex),
            kind: Kind::Large,
            budget,
            check: Check::Cold(Box::new(inst.structured), false),
        });
    }
    for (groups, cpg) in [(70, 30), (60, 45), (100, 35), (120, 30)] {
        let p = RandParams::three_block(12 * groups, 9 * groups, 12 * groups, cpg * groups, 5)
            .with_locality(groups, 0);
        let flat = rand_qbf(&p, 0);
        out.push(Instance {
            label: format!("PROB-L {p} groups={groups}"),
            text: qdimacs::write(&flat),
            kind: Kind::Large,
            budget,
            check: Check::Cold(Box::new(flat), true),
        });
    }
    out
}

/// One scripted `qbfserve` request.
#[derive(Debug, Clone)]
pub enum Req {
    Push,
    Pop,
    Add,
    Assume,
    Stats,
    /// A search solve; `first` marks the first solve of a frame and
    /// `repeat` the plain solve right after it.
    Solve {
        query: usize,
        first: bool,
        repeat: bool,
    },
    /// A search solve with `"proof":true`, followed by a `proof` fetch
    /// and `check_proof` against `query`'s formula.
    ProofSolve {
        query: usize,
    },
    /// An `"engine":"expand"` solve.
    ExpandSolve {
        query: usize,
    },
}

/// A request line and what it is.
#[derive(Debug, Clone)]
pub struct Line {
    pub text: String,
    pub req: Req,
}

/// One `qbfserve` session over a DIA probe family under one order.
#[derive(Debug)]
pub struct Family {
    pub label: String,
    pub order: Order,
    pub load: String,
    pub lines: Vec<Line>,
}

/// The one-shot formula a solve is equivalent to (what its certificate
/// is checked against), and the index of its cold check.
#[derive(Debug)]
pub struct Query {
    pub qbf: Qbf,
    pub check: usize,
}

#[derive(Debug)]
pub struct Session {
    pub families: Vec<Family>,
    pub queries: Vec<Query>,
    /// Cold-check formulas: the probe's clauses and assumptions under the
    /// tree (Eq. 14) prefix with the vacuous probes pruned, shared by the
    /// PO and TO families (Eq. 14 and Eq. 16 have the same value).
    pub checks: Vec<Qbf>,
}

/// Assumption sets drawn per probe frame.
const ASSUMPTION_SETS: usize = 4;
/// Solves under assumptions per probe frame (beyond the first, the repeat,
/// the proof and the expand solve).
const ASSUMED_SOLVES: usize = 60;

/// One solve slot of a probe frame, shared by the PO and TO families.
#[derive(Clone, Copy)]
enum Slot {
    First,
    Repeat,
    Proof(usize),
    Expand,
    Assumed(usize),
}

/// `serve-session`: DIA `diameter_sequence` families under PO (tree) and
/// TO (prenex). Per probe: push, add × clauses, a solve, a plain repeat
/// solve, a proof solve, an expand solve, solves under existential
/// assumption sets, stats, pop. The script of each family is fixed; the
/// seed only orders the families. Seeds that also drew the assumptions
/// moved `batch_s` by a factor of 2.5 between seeds.
pub fn serve_session(seed: u64) -> Session {
    let mut rng = Rng::seed_from_u64(0x5e55_1011_0000_0003);
    let models = [
        qbf_models::counter(2),
        qbf_models::ring(3),
        qbf_models::dme(2),
    ];
    let mut families = Vec::new();
    let mut queries = Vec::new();
    let mut checks = Vec::new();
    for model in &models {
        let d = explore(model)
            .expect("small models are explorable")
            .eccentricity;
        let tree = diameter_sequence(model, DiameterForm::Tree, d + 1);
        let prenex = diameter_sequence(model, DiameterForm::Prenex, d + 1);
        // Per probe: the assumption sets, the slot plan and the first
        // check index (no assumptions, then one per set).
        let mut plans = Vec::new();
        for probe in &tree.probes {
            let mut exist: Vec<qbf_core::Var> = probe
                .clauses
                .iter()
                .flat_map(|c| c.iter().map(|l| l.var()))
                .filter(|&v| tree.qbf.prefix().quant(v) == Some(Quantifier::Exists))
                .collect();
            exist.sort_unstable();
            exist.dedup();
            let sets: Vec<Vec<Lit>> = (0..ASSUMPTION_SETS)
                .map(|_| {
                    let mut set: Vec<Lit> = (0..rng.gen_range(1..3))
                        .map(|_| exist[rng.gen_range(0..exist.len())].lit(rng.gen_bool(0.5)))
                        .collect();
                    set.sort_unstable();
                    set.dedup_by_key(|l| l.var());
                    set
                })
                .collect();
            let mut assumed: Vec<Slot> = (0..ASSUMED_SOLVES)
                .map(|i| Slot::Assumed(i % ASSUMPTION_SETS))
                .collect();
            for i in (1..assumed.len()).rev() {
                assumed.swap(i, rng.gen_range(0..i + 1));
            }
            let mut slots = vec![Slot::First, Slot::Repeat, Slot::Proof(0), Slot::Expand];
            slots.extend(assumed);
            let base = checks.len();
            for assumptions in std::iter::once(&Vec::new()).chain(&sets) {
                checks.push(frame(&tree.qbf, &probe.clauses, assumptions).prune_vacuous());
            }
            plans.push((sets, slots, base));
        }
        for (order, seq) in [(Order::Po, &tree), (Order::To, &prenex)] {
            let mut lines = Vec::new();
            for (probe, (sets, slots, base)) in seq.probes.iter().zip(&plans) {
                lines.push(Line {
                    text: "{\"cmd\":\"push\"}".into(),
                    req: Req::Push,
                });
                for c in &probe.clauses {
                    let lits: Vec<String> = c.iter().map(|l| l.to_dimacs().to_string()).collect();
                    lines.push(Line {
                        text: format!("{{\"cmd\":\"add\",\"lits\":[{}]}}", lits.join(",")),
                        req: Req::Add,
                    });
                }
                let mut query = |set: Option<usize>| {
                    let assumptions = set.map_or(&[][..], |s| &sets[s][..]);
                    queries.push(Query {
                        qbf: frame(&seq.qbf, &probe.clauses, assumptions),
                        check: base + set.map_or(0, |s| s + 1),
                    });
                    queries.len() - 1
                };
                let q = query(None);
                for &slot in slots {
                    let set = match slot {
                        Slot::Proof(s) | Slot::Assumed(s) => Some(s),
                        _ => None,
                    };
                    for a in set.map_or(&[][..], |s| &sets[s][..]) {
                        lines.push(Line {
                            text: format!("{{\"cmd\":\"assume\",\"lit\":{}}}", a.to_dimacs()),
                            req: Req::Assume,
                        });
                    }
                    let (text, req) = match slot {
                        Slot::First => (
                            "{\"cmd\":\"solve\"}",
                            Req::Solve {
                                query: q,
                                first: true,
                                repeat: false,
                            },
                        ),
                        Slot::Repeat => (
                            "{\"cmd\":\"solve\"}",
                            Req::Solve {
                                query: q,
                                first: false,
                                repeat: true,
                            },
                        ),
                        Slot::Expand => (
                            "{\"cmd\":\"solve\",\"engine\":\"expand\"}",
                            Req::ExpandSolve { query: q },
                        ),
                        Slot::Proof(_) => (
                            "{\"cmd\":\"solve\",\"proof\":true}",
                            Req::ProofSolve { query: query(set) },
                        ),
                        Slot::Assumed(_) => (
                            "{\"cmd\":\"solve\"}",
                            Req::Solve {
                                query: query(set),
                                first: false,
                                repeat: false,
                            },
                        ),
                    };
                    lines.push(Line {
                        text: text.into(),
                        req,
                    });
                }
                lines.push(Line {
                    text: "{\"cmd\":\"stats\"}".into(),
                    req: Req::Stats,
                });
                lines.push(Line {
                    text: "{\"cmd\":\"pop\"}".into(),
                    req: Req::Pop,
                });
            }
            families.push(Family {
                label: format!(
                    "{}/{}",
                    model.name(),
                    if order == Order::Po { "po" } else { "to" }
                ),
                order,
                load: qtree::write(&seq.qbf),
                lines,
            });
        }
    }
    let mut order = Rng::seed_from_u64(seed ^ 0x5e55_1011_0000_0004);
    for i in (1..families.len()).rev() {
        families.swap(i, order.gen_range(0..i + 1));
    }
    Session {
        families,
        queries,
        checks,
    }
}

/// The frame-restricted formula of a probe: the union prefix over the
/// probe's clauses plus the assumptions as unit clauses, in the order the
/// server adds them.
fn frame(base: &Qbf, clauses: &[Clause], assumptions: &[Lit]) -> Qbf {
    let mut clauses = clauses.to_vec();
    clauses.extend(
        assumptions
            .iter()
            .map(|&a| Clause::new([a]).expect("a unit clause")),
    );
    Qbf::new(
        base.prefix().clone(),
        Matrix::from_clauses(base.num_vars(), clauses),
    )
    .expect("valid frame")
}
