//! Scope minimisation (anti-prenexing) of prenex QBFs — §VII-D of the
//! paper.
//!
//! Only the two paper rules are applied, innermost quantifiers first:
//!
//! * `Qz (ϕ ∧ ψ) ↦ (Qz ϕ) ∧ ψ` when `z` does not occur in `ψ` (modulo
//!   associativity/commutativity of `∧`), and
//! * `Q1 z1 Q2 z2 ϕ ↦ Q2 z2 Q1 z1 ϕ` when `Q1 = Q2`.
//!
//! After minimisation, a variable whose scope is a single clause is
//! eliminated: the clause is removed if the variable is existential, the
//! variable's literals are removed if it is universal. The ∀-splitting rule
//! (20) of QUBOS/QUANTOR/SKIZZO is deliberately **not** applied (the paper
//! reports it degrades the solver).
//!
//! # Building the scope forest
//!
//! Read as a list rewrite, each variable (innermost first) takes the groups
//! that mention it out of the group list, keeping their order, and appends
//! one new group binding it over them. The list is therefore always in
//! creation order. The groups are the sets of a union-find over clauses,
//! each root carrying its group's creation stamp and scope tree, so a
//! variable costs one `find` per occurrence; sorting the bundled roots by
//! stamp reproduces the list order exactly. (The output prefix would not
//! show another order, since [`PrefixBuilder`] canonicalizes siblings; the
//! stamps keep the scope tree itself identical.)

use qbf_core::{Clause, Matrix, PrefixBuilder, Qbf, Quantifier, Var};

/// A scope-minimisation outcome.
#[derive(Debug, Clone)]
pub struct Miniscoped {
    /// The resulting (generally non-prenex) QBF.
    pub qbf: Qbf,
    /// Variables eliminated by the single-clause-scope rule.
    pub eliminated_vars: usize,
    /// Clauses removed by the single-clause-scope rule.
    pub removed_clauses: usize,
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
    let mut groups = scope_forest(qbf);

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

/// The scope forest of a prenex QBF, innermost variables first: each
/// variable bundles the current groups that mention it (the `Qz(ϕ∧ψ)`
/// rule); same-block variables commute (the same-quantifier swap rule).
/// Returns the top-level groups in creation order (see the module docs).
fn scope_forest(qbf: &Qbf) -> Vec<Scope> {
    let m = qbf.matrix().len();
    // The clauses mentioning each variable.
    let mut occ: Vec<Vec<usize>> = vec![Vec::new(); qbf.num_vars()];
    for (i, c) in qbf.matrix().iter().enumerate() {
        for l in c {
            occ[l.var().index()].push(i);
        }
    }
    // Union-find over clauses; each root holds its group's size, creation
    // stamp and scope tree. A lone clause is created at its index.
    let mut parent: Vec<usize> = (0..m).collect();
    let mut size = vec![1; m];
    let mut stamp: Vec<usize> = (0..m).collect();
    let mut scope: Vec<Option<Scope>> = (0..m).map(|i| Some(Scope::Clause(i))).collect();
    let mut next_stamp = m;
    let blocks = if qbf.prefix().num_bound() == 0 {
        Vec::new()
    } else {
        qbf.prefix().linear_blocks()
    };
    let mut mine = Vec::new();
    for (quant, vars) in blocks.iter().rev() {
        for &v in vars {
            mine.clear();
            mine.extend(occ[v.index()].iter().map(|&c| find(&mut parent, c)));
            mine.sort_unstable_by_key(|&r| stamp[r]);
            mine.dedup();
            // A vacuous quantifier (no group mentions `v`) is dropped.
            let Some(&root) = mine.iter().max_by_key(|&&r| size[r]) else {
                continue;
            };
            let children = mine
                .iter()
                .map(|&r| scope[r].take().expect("a root holds its group"))
                .collect();
            for &r in &mine {
                if r != root {
                    parent[r] = root;
                    size[root] += size[r];
                }
            }
            stamp[root] = next_stamp;
            next_stamp += 1;
            scope[root] = Some(Scope::Quant(*quant, v, children));
        }
    }
    let mut roots: Vec<usize> = (0..m).filter(|&i| parent[i] == i).collect();
    roots.sort_unstable_by_key(|&r| stamp[r]);
    roots
        .into_iter()
        .map(|r| scope[r].take().expect("a root holds its group"))
        .collect()
}

/// The union-find root of `x`, halving the path on the way.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
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

/// The §VII-D footnote-9 metric: among (existential `x`, universal `y`)
/// pairs that are ordered in the prenex QBF, the percentage that are
/// unordered in the non-prenex one ("PO/TO"). The paper includes an
/// instance in the Fig. 7 test set iff this exceeds 20 %.
pub fn po_to_ratio(nonprenex: &Qbf, prenex: &Qbf) -> f64 {
    let n = prenex.num_vars().min(nonprenex.num_vars());
    let mut ordered = 0u64;
    let mut freed = 0u64;
    for i in 0..n {
        let x = Var::new(i);
        if !prenex.prefix().is_existential(x) || prenex.prefix().quant(x).is_none() {
            continue;
        }
        for j in 0..n {
            let y = Var::new(j);
            if !prenex.prefix().is_universal(y) {
                continue;
            }
            let p = prenex.prefix();
            if p.precedes(x, y) || p.precedes(y, x) {
                ordered += 1;
                let q = nonprenex.prefix();
                if !q.precedes(x, y) && !q.precedes(y, x) {
                    freed += 1;
                }
            }
        }
    }
    if ordered == 0 {
        0.0
    } else {
        100.0 * freed as f64 / ordered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{prenex, Strategy};
    use qbf_core::{samples, semantics, Lit, Prefix};

    #[test]
    fn recovers_paper_example_structure() {
        let original = samples::paper_example();
        let flat = prenex(&original, Strategy::ExistsUpForallUp);
        assert!(flat.is_prenex());
        let out = miniscope(&flat).unwrap();
        assert!(!out.qbf.is_prenex());
        // x0 at the top, two ∀ subtrees below.
        let p = out.qbf.prefix();
        assert_eq!(p.roots().len(), 1);
        let root = p.roots()[0];
        assert_eq!(p.block_vars(root), &[Var::new(0)]);
        assert_eq!(p.block_children(root).len(), 2);
        assert_eq!(semantics::eval(&out.qbf), semantics::eval(&original));
    }

    #[test]
    fn value_preserved_on_random_prenex_qbfs() {
        let mut state = 0xabcdef12u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545f4914f6cdd1d)
        };
        for round in 0..60 {
            let q = random_prenex(&mut next, 6, 8);
            let expected = semantics::eval(&q);
            let out = miniscope(&q).unwrap();
            assert_eq!(
                semantics::eval(&out.qbf),
                expected,
                "round {round}: {q} vs {}",
                out.qbf
            );
        }
    }

    #[test]
    fn single_clause_scope_existential_removes_clause() {
        // ∃a (a ∨ b') ∧ (b) with b free... keep closed: ∀y ∃a ((a ∨ y)) ∧ (¬y ∨ ...)
        // Simplest: ∃a (a): clause removed, formula trivially true.
        let q = qbf_core::io::qdimacs::parse("p cnf 1 1\ne 1 0\n1 0\n").unwrap();
        let out = miniscope(&q).unwrap();
        assert_eq!(out.removed_clauses, 1);
        assert!(out.qbf.matrix().is_empty());
        assert!(semantics::eval(&out.qbf));
    }

    #[test]
    fn single_clause_scope_universal_shrinks_clause() {
        // ∃x ∀y (x ∨ y): y's scope is one clause → drop y's literal.
        let q = qbf_core::io::qdimacs::parse("p cnf 2 1\ne 1 0\na 2 0\n1 2 0\n").unwrap();
        let out = miniscope(&q).unwrap();
        assert_eq!(semantics::eval(&out.qbf), semantics::eval(&q));
        // after shrinking, (x) is a single-clause existential scope too:
        // everything dissolves.
        assert!(out.qbf.matrix().is_empty() || out.qbf.matrix().len() <= 1);
        assert!(out.eliminated_vars >= 1);
    }

    #[test]
    fn independent_groups_split_into_roots() {
        // ∃x1 x2 ((x1) ∧ (x2)-groups with extra clauses to avoid
        // single-clause elimination).
        let q = qbf_core::io::qdimacs::parse(
            "p cnf 4 4\ne 1 2 3 4 0\n1 3 0\n-1 3 0\n2 4 0\n-2 4 0\n",
        )
        .unwrap();
        let out = miniscope(&q).unwrap();
        assert_eq!(out.qbf.prefix().roots().len(), 2);
        assert!(semantics::eval(&out.qbf));
    }

    #[test]
    fn po_to_ratio_metric() {
        let original = samples::paper_example();
        let flat = prenex(&original, Strategy::ExistsUpForallUp);
        // In the flat version every (x, y) pair is ordered; in the original,
        // y1 vs x3/x4 and y2 vs x1/x2 are free.
        let ratio = po_to_ratio(&original, &flat);
        assert!(ratio > 20.0, "ratio {ratio}");
        assert_eq!(po_to_ratio(&flat, &flat), 0.0);
    }

    #[test]
    fn rejects_nonprenex_input() {
        let q = samples::two_independent_games();
        assert!(miniscope(&q).is_err());
    }

    #[test]
    fn no_bound_vars_is_fine() {
        let q = Qbf::new(Prefix::empty(0), Matrix::new(0)).unwrap();
        let out = miniscope(&q).unwrap();
        assert!(semantics::eval(&out.qbf));
    }

    fn random_prenex(next: &mut impl FnMut() -> u64, num_vars: usize, num_clauses: usize) -> Qbf {
        use qbf_core::Quantifier::*;
        let mut blocks: Vec<(Quantifier, Vec<Var>)> = Vec::new();
        for i in 0..num_vars {
            let q = if next().is_multiple_of(2) { Exists } else { Forall };
            blocks.push((q, vec![Var::new(i)]));
        }
        let prefix = Prefix::prenex(num_vars, blocks).unwrap();
        let mut clauses = Vec::new();
        while clauses.len() < num_clauses {
            let len = 1 + (next() % 3) as usize;
            let lits: Vec<Lit> = (0..len)
                .map(|_| Var::new((next() % num_vars as u64) as usize).lit(next().is_multiple_of(2)))
                .collect();
            if let Ok(c) = Clause::new(lits) {
                clauses.push(c);
            }
        }
        Qbf::new_closing_free(prefix, Matrix::from_clauses(num_vars, clauses)).unwrap()
    }
}
