//! Bit-identity of the §VII-D front end against the reference
//! implementations it replaced.
//!
//! `reference::preprocess` and `reference::miniscope` are the original
//! quadratic implementations, copied unchanged apart from import paths:
//! the preprocessor loops "reduce everything; decide; else one unit, else
//! one pure literal, else one subsumption round", rebuilding the formula
//! after every step, and miniscoping re-walks every group for every
//! variable.
//! They use only public API and live only here. The library versions must
//! return equal `(Qbf, Report)` pairs and equal `Miniscoped` fields on every
//! input: samples and random forests, all four prenexings, the NCF, FPV,
//! FIXED and PROB generators (with locality groups too), and preprocessor
//! output fed to miniscoping.
//!
//! The `prenex-large`-shaped instances (FIXED with 120/130 groups, PROB
//! with 60–120 locality groups) take the reference several seconds even in
//! release builds, so they sit in an ignored test:
//! `cargo test --release --test frontend_equivalence -- --include-ignored`.

use qbf_repro::core::preprocess::{preprocess, Report};
use qbf_repro::core::{samples, Matrix, Qbf};
use qbf_repro::gen::{fixed, fpv, ncf, rand_qbf, FixedParams, FpvParams, NcfParams, RandParams};
use qbf_repro::prenex::{miniscope, prenex, Strategy};

/// The replaced implementations, verbatim but for import paths.
#[rustfmt::skip]
mod reference {
    use qbf_repro::core as qbf_core;
    use qbf_repro::core::preprocess::Report;
    use qbf_repro::core::{Clause, Lit, Matrix, Prefix, PrefixBuilder, Qbf, Quantifier, Var};
    use qbf_repro::prenex::Miniscoped;

    pub fn preprocess(qbf: &Qbf) -> (Qbf, Report) {
        let mut report = Report::default();
        let mut current = qbf.clone();
        loop {
            // 1. Universal reduction on every clause.
            let reduced = universal_reduce_matrix(&current, &mut report);
            current = Qbf::new(current.prefix().clone(), reduced)
                .expect("reduction only removes literals");

            // 2. Contradictory clause ⇒ false.
            if current
                .matrix()
                .iter()
                .any(|c| c.iter().all(|l| current.prefix().is_universal(l.var())))
            {
                report.decided = Some(false);
                let falsum = Qbf::new(
                    Prefix::empty(qbf.num_vars()),
                    Matrix::from_clauses(qbf.num_vars(), [Clause::empty()]),
                )
                .expect("canonical false");
                return (falsum, report);
            }
            // Empty matrix ⇒ true.
            if current.matrix().is_empty() {
                report.decided = Some(true);
                let verum = Qbf::new(
                    Prefix::empty(qbf.num_vars()),
                    Matrix::new(qbf.num_vars()),
                )
                .expect("canonical true");
                return (verum, report);
            }

            // 3. One unit, if any (restriction invalidates indices, so apply
            //    singly and loop).
            if let Some(u) = find_unit(&current) {
                report.units += 1;
                current = current.assign(u);
                continue;
            }

            // 4. One monotone literal, if any.
            if let Some(m) = find_pure(&current) {
                report.pures += 1;
                current = current.assign(m);
                continue;
            }

            // 5. Subsumption (once per outer round; restarts the loop when it
            //    fires since shorter matrices can enable new monotone fixes).
            let before = current.matrix().len();
            let sub = subsume(current.matrix());
            if sub.len() != before {
                report.subsumed += before - sub.len();
                current = Qbf::new(current.prefix().clone(), sub)
                    .expect("subsumption only removes clauses");
                continue;
            }
            return (current, report);
        }
    }

    /// Lemma 3 applied to every clause of the matrix.
    fn universal_reduce_matrix(qbf: &Qbf, report: &mut Report) -> Matrix {
        let prefix = qbf.prefix();
        let mut out = Matrix::new(qbf.num_vars());
        for c in qbf.matrix().iter() {
            let existentials: Vec<Var> = c
                .iter()
                .map(|l| l.var())
                .filter(|&v| prefix.is_existential(v))
                .collect();
            let kept: Vec<Lit> = c
                .iter()
                .copied()
                .filter(|&l| {
                    prefix.is_existential(l.var())
                        || existentials.iter().any(|&e| prefix.precedes(l.var(), e))
                })
                .collect();
            report.reduced_literals += c.len() - kept.len();
            out.push(Clause::new(kept).expect("subset of a valid clause"));
        }
        out
    }

    /// Lemma 5 unit: the clause logic mirrors `recursive::find_unit`.
    fn find_unit(qbf: &Qbf) -> Option<Lit> {
        let prefix = qbf.prefix();
        for c in qbf.matrix().iter() {
            let mut existentials = c.iter().filter(|l| prefix.is_existential(l.var()));
            let (Some(&e), None) = (existentials.next(), existentials.next()) else {
                continue;
            };
            if c.iter()
                .filter(|l| l.var() != e.var())
                .all(|l| !prefix.precedes(l.var(), e.var()))
            {
                return Some(e);
            }
        }
        None
    }

    /// §III monotone literal.
    fn find_pure(qbf: &Qbf) -> Option<Lit> {
        let n = qbf.num_vars();
        let mut pos = vec![false; n];
        let mut neg = vec![false; n];
        for c in qbf.matrix().iter() {
            for l in c {
                if l.is_positive() {
                    pos[l.var().index()] = true;
                } else {
                    neg[l.var().index()] = true;
                }
            }
        }
        for i in 0..n {
            let v = Var::new(i);
            match (qbf.prefix().quant(v), pos[i], neg[i]) {
                (None, _, _) | (_, false, false) => {}
                (Some(Quantifier::Forall), true, false) => return Some(v.negative()),
                (Some(Quantifier::Forall), false, true) => return Some(v.positive()),
                (Some(Quantifier::Exists), true, false) => return Some(v.positive()),
                (Some(Quantifier::Exists), false, true) => return Some(v.negative()),
                _ => {}
            }
        }
        None
    }

    /// Removes clauses subsumed by (⊇ of) another clause.
    fn subsume(matrix: &Matrix) -> Matrix {
        let mut clauses: Vec<&Clause> = matrix.clauses().iter().collect();
        // Sort by length: a subsuming clause is never longer.
        clauses.sort_by_key(|c| c.len());
        let mut kept: Vec<Clause> = Vec::new();
        'outer: for c in clauses {
            for k in &kept {
                if k.iter().all(|l| c.contains(*l)) {
                    continue 'outer;
                }
            }
            kept.push(c.clone());
        }
        Matrix::from_clauses(matrix.num_vars(), kept)
    }

    /// Internal scope tree node.
    #[derive(Debug)]
    enum Scope {
        /// A leaf holding one clause (by index into the working clause list).
        Clause(usize),
        /// `Q v` over a group of sub-scopes.
        Quant(Quantifier, Var, Vec<Scope>),
    }

    impl Scope {
        fn mentions(&self, clauses: &[Option<Clause>], v: Var) -> bool {
            match self {
                Scope::Clause(idx) => clauses[*idx]
                    .as_ref()
                    .map(|c| c.contains_var(v))
                    .unwrap_or(false),
                Scope::Quant(_, _, children) => children.iter().any(|c| c.mentions(clauses, v)),
            }
        }

        /// Indices of live clauses in this scope.
        fn live_clauses(&self, clauses: &[Option<Clause>], out: &mut Vec<usize>) {
            match self {
                Scope::Clause(idx) => {
                    if clauses[*idx].is_some() {
                        out.push(*idx);
                    }
                }
                Scope::Quant(_, _, children) => {
                    for c in children {
                        c.live_clauses(clauses, out);
                    }
                }
            }
        }
    }

    /// Minimises the scope of every quantifier of a *prenex* QBF, producing a
    /// non-prenex QBF with the same value.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a description if the input is not prenex.
    ///
    /// # Examples
    ///
    /// Prenexing the paper's running example and miniscoping it recovers the
    /// original two-subtree structure:
    ///
    /// ```
    /// use qbf_core::samples;
    /// use qbf_prenex::{miniscope, prenex, Strategy};
    /// let original = samples::paper_example();
    /// let flat = prenex(&original, Strategy::ExistsUpForallUp);
    /// let recovered = miniscope(&flat)?.qbf;
    /// assert!(!recovered.is_prenex());
    /// # Ok::<(), String>(())
    /// ```
    pub fn miniscope(qbf: &Qbf) -> Result<Miniscoped, String> {
        if !qbf.is_prenex() {
            return Err("miniscope expects a prenex QBF".to_string());
        }
        let num_vars = qbf.num_vars();
        let mut clauses: Vec<Option<Clause>> = qbf.matrix().iter().cloned().map(Some).collect();

        // Build the scope forest, innermost variables first: each variable
        // bundles the current groups that mention it (the `Qz(ϕ∧ψ)` rule);
        // same-block variables commute (the same-quantifier swap rule).
        let mut groups: Vec<Scope> = (0..clauses.len()).map(Scope::Clause).collect();
        let blocks = if qbf.prefix().num_bound() == 0 {
            Vec::new()
        } else {
            qbf.prefix().linear_blocks()
        };
        for (quant, vars) in blocks.iter().rev() {
            for &v in vars {
                let (mine, rest): (Vec<Scope>, Vec<Scope>) =
                    groups.into_iter().partition(|g| g.mentions(&clauses, v));
                groups = rest;
                if mine.is_empty() {
                    // Vacuous quantifier: drop it.
                    continue;
                }
                groups.push(Scope::Quant(*quant, v, mine));
            }
        }

        // Single-clause-scope elimination, to fixpoint.
        let mut stats = ElimStats::default();
        loop {
            let mut changed = false;
            groups = groups
                .into_iter()
                .flat_map(|g| eliminate(g, &mut clauses, &mut stats, &mut changed))
                .collect();
            if !changed {
                break;
            }
        }

        // Flatten the scope forest into a Prefix.
        let mut builder = PrefixBuilder::new(num_vars);
        fn emit(scope: &Scope, parent: Option<qbf_core::BlockId>, builder: &mut PrefixBuilder) {
            if let Scope::Quant(q, v, children) = scope {
                let id = match parent {
                    None => builder.add_root(*q, [*v]),
                    Some(p) => builder.add_child(p, *q, [*v]),
                }
                .expect("scope tree binds each variable once");
                for c in children {
                    emit(c, Some(id), builder);
                }
            }
        }
        for g in &groups {
            emit(g, None, &mut builder);
        }
        let prefix = builder.finish().map_err(|e| e.to_string())?;
        let matrix = Matrix::from_clauses(num_vars, clauses.into_iter().flatten());
        let qbf = Qbf::new_closing_free(prefix, matrix).map_err(|e| e.to_string())?;
        Ok(Miniscoped {
            qbf,
            eliminated_vars: stats.vars,
            removed_clauses: stats.clauses,
        })
    }

    #[derive(Debug, Default)]
    struct ElimStats {
        vars: usize,
        clauses: usize,
    }

    /// Applies the single-clause-scope rule to one node; the returned list
    /// splices into the parent scope.
    fn eliminate(
        scope: Scope,
        clauses: &mut [Option<Clause>],
        stats: &mut ElimStats,
        changed: &mut bool,
    ) -> Vec<Scope> {
        match scope {
            Scope::Clause(idx) => {
                if clauses[idx].is_some() {
                    vec![Scope::Clause(idx)]
                } else {
                    vec![]
                }
            }
            Scope::Quant(q, v, children) => {
                let kids: Vec<Scope> = children
                    .into_iter()
                    .flat_map(|c| eliminate(c, clauses, stats, changed))
                    .collect();
                let mut live = Vec::new();
                for k in &kids {
                    k.live_clauses(clauses, &mut live);
                }
                match live.len() {
                    0 => {
                        // The whole scope is gone (kids are empty too).
                        *changed = true;
                        vec![]
                    }
                    1 => {
                        let idx = live[0];
                        let clause = clauses[idx].clone().expect("live clause present");
                        if !clause.contains_var(v) {
                            // v became vacuous: drop the binder, splice kids.
                            *changed = true;
                            return kids;
                        }
                        *changed = true;
                        stats.vars += 1;
                        if q == Quantifier::Exists {
                            // ∃v C is true when C mentions v: drop the clause.
                            clauses[idx] = None;
                            stats.clauses += 1;
                            vec![]
                        } else {
                            // ∀v C ≡ C without v's literals.
                            clauses[idx] =
                                Some(clause.without(v.positive()).without(v.negative()));
                            kids
                        }
                    }
                    _ => vec![Scope::Quant(q, v, kids)],
                }
            }
        }
    }
}

/// Which preprocessing outcomes a pool reached.
#[derive(Debug, Default)]
struct Outcomes {
    decided_true: usize,
    false_after_unit: usize,
    open_subsumed: usize,
    open_fixed_unsubsumed: usize,
}

impl Outcomes {
    fn record(&mut self, r: &Report) {
        match r.decided {
            Some(true) => self.decided_true += 1,
            Some(false) if r.units > 0 => self.false_after_unit += 1,
            Some(false) => {}
            None if r.subsumed > 0 => self.open_subsumed += 1,
            None if r.units + r.pures > 0 => self.open_fixed_unsubsumed += 1,
            None => {}
        }
    }

    fn assert_all_hit(&self) {
        assert!(self.decided_true > 0, "no decided-true case: {self:?}");
        assert!(
            self.false_after_unit > 0,
            "no false-after-unit case: {self:?}"
        );
        assert!(
            self.open_subsumed > 0,
            "no open case with subsumption: {self:?}"
        );
        assert!(
            self.open_fixed_unsubsumed > 0,
            "no open case with fixing but no subsumption: {self:?}"
        );
    }
}

/// Asserts that `preprocess` matches the reference on `q`.
fn check_preprocess(label: &str, q: &Qbf, outcomes: &mut Outcomes) -> Qbf {
    let (want, want_report) = reference::preprocess(q);
    let (got, got_report) = preprocess(q);
    assert_eq!(got_report, want_report, "{label}: report");
    assert_eq!(got, want, "{label}: formula\n got {got}\nwant {want}");
    outcomes.record(&got_report);
    got
}

/// Asserts that `miniscope` matches the reference on `q` (both must agree
/// on rejecting a non-prenex input too).
fn check_miniscope(label: &str, q: &Qbf) {
    match (miniscope(q), reference::miniscope(q)) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.qbf, want.qbf, "{label}: miniscoped formula");
            assert_eq!(
                got.eliminated_vars, want.eliminated_vars,
                "{label}: eliminated_vars"
            );
            assert_eq!(
                got.removed_clauses, want.removed_clauses,
                "{label}: removed_clauses"
            );
        }
        (Err(got), Err(want)) => assert_eq!(got, want, "{label}: error"),
        (got, want) => panic!("{label}: got {got:?}, want {want:?}"),
    }
}

/// The whole front end on one input: preprocessing and miniscoping of the
/// input, of its four prenexings, and of the preprocessed prenexings.
fn check_all(label: &str, q: &Qbf, outcomes: &mut Outcomes) {
    check_preprocess(label, q, outcomes);
    check_miniscope(label, q);
    for strategy in Strategy::ALL {
        let flat = prenex(q, strategy);
        let flat_label = format!("{label} prenex({strategy})");
        let simplified = check_preprocess(&flat_label, &flat, outcomes);
        check_miniscope(&flat_label, &flat);
        check_miniscope(&format!("{flat_label} preprocessed"), &simplified);
    }
}

/// `q` with its first `k` clauses appended again (duplicates make
/// subsumption fire on ties).
fn with_duplicates(q: &Qbf, k: usize) -> Qbf {
    let (prefix, matrix) = q.clone().into_parts();
    let mut clauses = matrix.clauses().to_vec();
    clauses.extend(matrix.clauses().iter().take(k).cloned());
    Qbf::new(prefix, Matrix::from_clauses(matrix.num_vars(), clauses)).expect("same scopes")
}

#[test]
fn samples_and_random_forests() {
    let mut outcomes = Outcomes::default();
    let samples = [
        ("paper_example", samples::paper_example()),
        ("forall_exists_xor", samples::forall_exists_xor()),
        ("exists_forall_xor", samples::exists_forall_xor()),
        ("two_independent_games", samples::two_independent_games()),
        ("sat_instance", samples::sat_instance()),
        ("unsat_instance", samples::unsat_instance()),
    ];
    for (name, q) in &samples {
        check_all(name, q, &mut outcomes);
        check_all(
            &format!("{name} with duplicates"),
            &with_duplicates(q, 3),
            &mut outcomes,
        );
    }
    for seed in 0..300u64 {
        let num_vars = 4 + (seed % 9) as usize;
        let num_clauses = 3 + (seed % 17) as usize;
        let q = samples::random_qbf(
            seed.wrapping_mul(0x2545_f491) ^ 0xf00d,
            num_vars,
            num_clauses,
        );
        let label = format!("forest seed {seed}");
        check_all(&label, &q, &mut outcomes);
        if seed % 3 == 0 {
            let dup = with_duplicates(&q, num_clauses / 2);
            check_all(&format!("{label} with duplicates"), &dup, &mut outcomes);
        }
    }
    outcomes.assert_all_hit();
}

#[test]
fn generator_instances() {
    let mut outcomes = Outcomes::default();
    for (i, params) in NcfParams::small_grid().into_iter().enumerate().take(6) {
        let q = ncf(&params, i as u64);
        check_all(&format!("ncf {params} seed {i}"), &q, &mut outcomes);
    }
    for seed in 0..4u64 {
        let params = FpvParams {
            config_vars: 3,
            branches: 2 + seed as u32 % 2,
            branch_depth: 2,
            block_vars: 2,
            clauses_per_branch: 8,
            lpc: 3,
        };
        check_all(
            &format!("fpv seed {seed}"),
            &fpv(&params, seed),
            &mut outcomes,
        );
    }
    for seed in 0..4u64 {
        let params = FixedParams {
            groups: 2 + seed as u32,
            depth: 3,
            block_vars: 2,
            clauses_per_group: 8,
            lpc: 3,
        };
        let inst = fixed(&params, seed);
        check_all(
            &format!("fixed(prenex) {params} seed {seed}"),
            &inst.prenex,
            &mut outcomes,
        );
        check_all(
            &format!("fixed(structured) {params}"),
            &inst.structured,
            &mut outcomes,
        );
    }
    for seed in 0..6u64 {
        let plain = RandParams::three_block(5, 4, 5, 24 + 4 * seed as u32, 3);
        check_all(
            &format!("prob {plain} seed {seed}"),
            &rand_qbf(&plain, seed),
            &mut outcomes,
        );
        let groups = 2 + seed as u32;
        let local = RandParams::three_block(3 * groups, 2 * groups, 3 * groups, 8 * groups, 4)
            .with_locality(groups, (seed as u32 % 3) * 5);
        let label = format!("prob {local} groups={groups} seed {seed}");
        check_all(&label, &rand_qbf(&local, seed), &mut outcomes);
    }
    // No instance here is decided true (the forests cover that outcome).
    assert!(
        outcomes.false_after_unit > 0
            && outcomes.open_subsumed > 0
            && outcomes.open_fixed_unsubsumed > 0,
        "{outcomes:?}"
    );
}

/// The six `prenex-large` shapes (2k–8k clauses): two FIXED instances with
/// 120/130 groups and four PROB instances with 60–120 locality groups,
/// through preprocessing and then miniscoping, as in §VII-D.
#[test]
#[ignore = "the reference needs several seconds in release builds"]
fn prenex_large_shapes() {
    let mut outcomes = Outcomes::default();
    let mut inputs = Vec::new();
    for groups in [120, 130] {
        let params = FixedParams {
            groups,
            depth: 5,
            block_vars: 4,
            clauses_per_group: 60,
            lpc: 5,
        };
        inputs.push((format!("FIXED-L {params}"), fixed(&params, 0).prenex));
    }
    for (groups, cpg) in [(70, 30), (60, 45), (100, 35), (120, 30)] {
        let params = RandParams::three_block(12 * groups, 9 * groups, 12 * groups, cpg * groups, 5)
            .with_locality(groups, 0);
        inputs.push((
            format!("PROB-L {params} groups={groups}"),
            rand_qbf(&params, 0),
        ));
    }
    for (label, flat) in &inputs {
        let simplified = check_preprocess(label, flat, &mut outcomes);
        check_miniscope(&format!("{label} preprocessed"), &simplified);
        check_miniscope(label, flat);
    }
}
