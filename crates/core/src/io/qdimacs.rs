//! The prenex QDIMACS format.
//!
//! ```text
//! c a comment
//! p cnf 4 2
//! a 1 2 0
//! e 3 4 0
//! 1 3 0
//! -2 -4 0
//! ```
//!
//! Variables left unquantified are bound existentially at the outermost
//! level (§II point 2).

use crate::clause::Clause;
use crate::matrix::Matrix;
use crate::prefix::Prefix;
use crate::qbf::Qbf;
use crate::var::{Quantifier, Var};

use super::ParseQbfError;

/// Parses a QDIMACS document.
///
/// # Errors
///
/// Returns a [`ParseQbfError`] describing the offending line for malformed
/// headers, literals out of range, tautological clauses, quantifier lines
/// after the first clause, or variables bound twice.
///
/// # Examples
///
/// ```
/// let q = qbf_core::io::qdimacs::parse("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n")?;
/// assert!(q.is_prenex());
/// assert!(qbf_core::semantics::eval(&q));
/// # Ok::<(), qbf_core::io::ParseQbfError>(())
/// ```
pub fn parse(input: &str) -> Result<Qbf, ParseQbfError> {
    let mut num_vars: Option<usize> = None;
    let mut declared_clauses: Option<usize> = None;
    let mut blocks: Vec<(Quantifier, Vec<Var>)> = Vec::new();
    let mut clauses: Vec<Clause> = Vec::new();
    let mut in_matrix = false;
    let mut bound: Vec<bool> = Vec::new();
    let mut last_prefix_line = 0usize;
    let mut seen: Vec<bool> = Vec::new();

    for (lineno, raw) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("p ") {
            if num_vars.is_some() {
                return Err(ParseQbfError::new(lineno, "duplicate problem line"));
            }
            let mut it = rest.split_whitespace();
            if it.next() != Some("cnf") {
                return Err(ParseQbfError::new(lineno, "expected `p cnf <vars> <clauses>`"));
            }
            let nv: usize = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| ParseQbfError::new(lineno, "bad variable count"))?;
            let nc: usize = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| ParseQbfError::new(lineno, "bad clause count"))?;
            num_vars = Some(nv);
            declared_clauses = Some(nc);
            bound = vec![false; nv];
            continue;
        }
        let nv = num_vars
            .ok_or_else(|| ParseQbfError::new(lineno, "content before the problem line"))?;
        let first = line.split_whitespace().next().unwrap_or_default();
        if first == "e" || first == "a" {
            if in_matrix {
                return Err(ParseQbfError::new(
                    lineno,
                    "quantifier line after the first clause",
                ));
            }
            let quant = if first == "e" {
                Quantifier::Exists
            } else {
                Quantifier::Forall
            };
            let mut vars = Vec::new();
            let mut terminated = false;
            for tok in line.split_whitespace().skip(1) {
                let n: i64 = tok
                    .parse()
                    .map_err(|_| ParseQbfError::new(lineno, format!("bad token `{tok}`")))?;
                if n == 0 {
                    terminated = true;
                    break;
                }
                if n < 0 {
                    return Err(ParseQbfError::new(lineno, "negative variable in prefix"));
                }
                let v = n as usize;
                if v > nv {
                    return Err(ParseQbfError::new(
                        lineno,
                        format!("variable `{tok}` out of range (1..={nv})"),
                    ));
                }
                if std::mem::replace(&mut bound[v - 1], true) {
                    return Err(ParseQbfError::new(
                        lineno,
                        format!("variable `{tok}` bound twice"),
                    ));
                }
                vars.push(Var::new(v - 1));
            }
            if !terminated {
                return Err(ParseQbfError::new(lineno, "quantifier line not 0-terminated"));
            }
            if vars.is_empty() {
                return Err(ParseQbfError::new(
                    lineno,
                    format!("empty quantifier block `{line}`"),
                ));
            }
            last_prefix_line = lineno;
            blocks.push((quant, vars));
            continue;
        }
        // Clause line.
        in_matrix = true;
        clauses.push(super::clause_line(line, lineno, nv, &mut seen)?);
    }

    let nv = num_vars.ok_or_else(|| ParseQbfError::new(input.lines().count(), "missing problem line"))?;
    if let Some(nc) = declared_clauses {
        if nc != clauses.len() {
            return Err(ParseQbfError::new(
                input.lines().count(),
                format!("declared {nc} clauses, found {}", clauses.len()),
            ));
        }
    }
    let prefix = Prefix::prenex(nv, blocks)
        .map_err(|e| ParseQbfError::new(last_prefix_line.max(1), e.to_string()))?;
    let matrix = Matrix::from_clauses(nv, clauses);
    Qbf::new_closing_free(prefix, matrix)
        .map_err(|e| ParseQbfError::new(input.lines().count().max(1), e.to_string()))
}

/// Writes a prenex QBF in QDIMACS format.
///
/// # Panics
///
/// Panics if the prefix is not prenex; use
/// [`crate::io::qtree::write`] for non-prenex QBFs, or prenex the formula
/// first.
pub fn write(qbf: &Qbf) -> String {
    assert!(qbf.is_prenex(), "qdimacs::write requires a prenex QBF");
    let mut out = String::new();
    out.push_str(&format!(
        "p cnf {} {}\n",
        qbf.num_vars(),
        qbf.matrix().len()
    ));
    if qbf.prefix().num_bound() > 0 {
        for (quant, vars) in qbf.prefix().linear_blocks() {
            out.push_str(&quant.to_string());
            for v in vars {
                out.push_str(&format!(" {v}"));
            }
            out.push_str(" 0\n");
        }
    }
    for c in qbf.matrix().iter() {
        for l in c {
            out.push_str(&format!("{l} "));
        }
        out.push_str("0\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics;
    use crate::var::Quantifier::*;

    #[test]
    fn parse_simple() {
        let q = parse("c hi\np cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 -2 3 0\n-1 2 0\n").unwrap();
        assert!(q.is_prenex());
        assert_eq!(q.num_vars(), 3);
        assert_eq!(q.matrix().len(), 2);
        assert_eq!(q.prefix().quant(Var::new(1)), Some(Forall));
    }

    #[test]
    fn roundtrip() {
        let src = "p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 -2 3 0\n-1 2 0\n";
        let q = parse(src).unwrap();
        let written = write(&q);
        let q2 = parse(&written).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn free_vars_bound_existentially() {
        let q = parse("p cnf 2 1\na 1 0\n1 2 0\n").unwrap();
        assert_eq!(q.prefix().quant(Var::new(1)), Some(Exists));
        assert_eq!(q.prefix().level(Var::new(1)), Some(1));
        assert!(q.prefix().precedes(Var::new(1), Var::new(0)));
    }

    #[test]
    fn value_agrees_with_semantics() {
        let q = parse("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n").unwrap();
        assert!(semantics::eval(&q));
        let q = parse("p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n-1 -2 0\n").unwrap();
        assert!(!semantics::eval(&q));
    }

    #[test]
    fn error_cases() {
        assert!(parse("e 1 0\n").is_err()); // content before p line
        assert!(parse("p cnf 1 1\n1 1\n").is_err()); // not 0-terminated
        assert!(parse("p cnf 1 1\n1 -1 0\n").is_err()); // tautology
        assert!(parse("p cnf 1 2\n1 0\n").is_err()); // clause count mismatch
        assert!(parse("p cnf 1 1\n1 0\ne 1 0\n").is_err()); // quantifier after clause
        assert!(parse("p cnf 1 1\n2 0\n").is_err()); // out of range
        let err = parse("p cnf 1 1\nxyz 0\n").unwrap_err();
        assert!(err.to_string().contains("bad token"));
        // A 200 000-literal clause whose last literal repeats an earlier
        // one: the duplicate check is linear in the line, and the error
        // names the repeating token.
        let n = 200_000;
        let mut src = format!("p cnf {n} 1\ne");
        for v in 1..=n {
            src.push_str(&format!(" {v}"));
        }
        src.push_str(" 0\n");
        for v in 1..=n {
            src.push_str(&format!("-{v} "));
        }
        src.push_str("-77777 0\n");
        let err = parse(&src).unwrap_err();
        assert_eq!(err.line, 3, "{err}");
        assert!(
            err.to_string().contains("duplicate literal `-77777`"),
            "{err}"
        );
    }

    /// Every rejection names the 1-based line and quotes the offending
    /// token, so a user can fix the document without bisecting it.
    #[test]
    fn errors_carry_line_and_token() {
        let err = parse("p cnf 3 1\ne 1 2 0\n1 2 2 0\n").unwrap_err();
        assert_eq!(err.line, 3, "duplicate literal: {err}");
        assert!(err.to_string().contains("duplicate literal `2`"), "{err}");

        let err = parse("p cnf 3 1\ne 1 0\n1 4 0\n").unwrap_err();
        assert_eq!(err.line, 3, "undeclared variable: {err}");
        assert!(err.to_string().contains("`4`"), "{err}");
        assert!(err.to_string().contains("undeclared"), "{err}");

        let err = parse("p cnf 3 1\ne 1 0\na 0\ne 2 0\n1 2 0\n").unwrap_err();
        assert_eq!(err.line, 3, "empty quantifier block: {err}");
        assert!(err.to_string().contains("empty quantifier block"), "{err}");

        let err = parse("p cnf 3 1\ne 1 2 0\na 2 0\n1 2 0\n").unwrap_err();
        assert_eq!(err.line, 3, "double binding: {err}");
        assert!(err.to_string().contains("`2` bound twice"), "{err}");

        let err = parse("p cnf 2 1\ne 1 3 0\n1 0\n").unwrap_err();
        assert_eq!(err.line, 2, "prefix out of range: {err}");
        assert!(err.to_string().contains("`3` out of range"), "{err}");
    }

    #[test]
    fn consecutive_blocks_merge() {
        let q = parse("p cnf 2 1\ne 1 0\ne 2 0\n1 2 0\n").unwrap();
        assert_eq!(q.prefix().num_blocks(), 1);
    }
}
