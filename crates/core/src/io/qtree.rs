//! The `qtree` format: QDIMACS with a non-prenex prefix line.
//!
//! The problem line uses the keyword `qtree`; the prefix is given on a
//! single `t` line as one or more s-expressions, one per root block:
//!
//! ```text
//! c the paper's QBF (1)
//! p qtree 7 8
//! t (e 1 (a 2 (e 3 4)) (a 5 (e 6 7)))
//! 1 3 4 0
//! 2 -3 4 0
//! 3 -4 0
//! -1 -3 4 0
//! 1 6 7 0
//! 5 -6 7 0
//! 6 -7 0
//! -1 -6 7 0
//! ```
//!
//! Clause lines are ordinary DIMACS. Unbound matrix variables are closed
//! existentially at the top, as in QDIMACS.

use crate::clause::Clause;
use crate::matrix::Matrix;
use crate::prefix::{BlockId, PrefixBuilder};
use crate::qbf::Qbf;
use crate::var::{Quantifier, Var};

use super::ParseQbfError;

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Open,
    Close,
    Quant(Quantifier),
    Num(usize),
}

fn tokenize(line: &str, lineno: usize) -> Result<Vec<Token>, ParseQbfError> {
    let mut toks = Vec::new();
    let mut chars = line.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '(' => {
                toks.push(Token::Open);
                chars.next();
            }
            ')' => {
                toks.push(Token::Close);
                chars.next();
            }
            'e' => {
                toks.push(Token::Quant(Quantifier::Exists));
                chars.next();
            }
            'a' => {
                toks.push(Token::Quant(Quantifier::Forall));
                chars.next();
            }
            c if c.is_ascii_whitespace() => {
                chars.next();
            }
            c if c.is_ascii_digit() => {
                let mut digits = String::new();
                while let Some(d) = chars.next_if(char::is_ascii_digit) {
                    digits.push(d);
                }
                // A number too large for `usize` is out of range for any
                // header, like the ones `parse_groups` rejects.
                let n = digits.parse::<usize>().map_err(|_| {
                    ParseQbfError::new(lineno, format!("variable {digits} out of range"))
                })?;
                toks.push(Token::Num(n));
            }
            other => {
                return Err(ParseQbfError::new(
                    lineno,
                    format!("unexpected character `{other}` in prefix"),
                ))
            }
        }
    }
    Ok(toks)
}

/// Parses the `t …` prefix payload into the builder. Grammar:
/// `group := '(' quant num+ group* ')'`, with one or more top-level groups.
fn parse_groups(
    toks: &[Token],
    lineno: usize,
    builder: &mut PrefixBuilder,
    num_vars: usize,
) -> Result<(), ParseQbfError> {
    fn group(
        toks: &[Token],
        pos: &mut usize,
        lineno: usize,
        builder: &mut PrefixBuilder,
        parent: Option<BlockId>,
        num_vars: usize,
    ) -> Result<(), ParseQbfError> {
        let err = |msg: &str| ParseQbfError::new(lineno, msg.to_string());
        if toks.get(*pos) != Some(&Token::Open) {
            return Err(err("expected `(`"));
        }
        *pos += 1;
        let quant = match toks.get(*pos) {
            Some(Token::Quant(q)) => *q,
            _ => return Err(err("expected quantifier `e` or `a`")),
        };
        *pos += 1;
        let mut vars = Vec::new();
        while let Some(Token::Num(n)) = toks.get(*pos) {
            if *n == 0 || *n > num_vars {
                return Err(ParseQbfError::new(
                    lineno,
                    format!("variable {n} out of range"),
                ));
            }
            vars.push(Var::new(n - 1));
            *pos += 1;
        }
        if vars.is_empty() {
            return Err(err("block binds no variables"));
        }
        let id = match parent {
            None => builder.add_root(quant, vars),
            Some(p) => builder.add_child(p, quant, vars),
        }
        .map_err(|e| ParseQbfError::new(lineno, e.to_string()))?;
        while toks.get(*pos) == Some(&Token::Open) {
            group(toks, pos, lineno, builder, Some(id), num_vars)?;
        }
        if toks.get(*pos) != Some(&Token::Close) {
            return Err(err("expected `)`"));
        }
        *pos += 1;
        Ok(())
    }

    let mut pos = 0;
    while pos < toks.len() {
        group(toks, &mut pos, lineno, builder, None, num_vars)?;
    }
    Ok(())
}

/// Parses a `qtree` document.
///
/// # Errors
///
/// Returns a [`ParseQbfError`] for malformed headers, prefix syntax errors,
/// out-of-range or tautological clauses, or double-bound variables.
///
/// # Examples
///
/// ```
/// let src = "p qtree 4 4\nt (a 1 (e 2)) (a 3 (e 4))\n1 2 0\n-1 -2 0\n3 4 0\n-3 -4 0\n";
/// let q = qbf_core::io::qtree::parse(src)?;
/// assert!(!q.is_prenex());
/// assert!(qbf_core::semantics::eval(&q));
/// # Ok::<(), qbf_core::io::ParseQbfError>(())
/// ```
pub fn parse(input: &str) -> Result<Qbf, ParseQbfError> {
    let mut num_vars: Option<usize> = None;
    let mut declared_clauses: Option<usize> = None;
    let mut builder: Option<PrefixBuilder> = None;
    let mut saw_prefix = false;
    let mut prefix_line = 0usize;
    let mut clauses: Vec<Clause> = Vec::new();
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
            if it.next() != Some("qtree") {
                return Err(ParseQbfError::new(
                    lineno,
                    "expected `p qtree <vars> <clauses>`",
                ));
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
            builder = Some(PrefixBuilder::new(nv));
            continue;
        }
        let nv = num_vars
            .ok_or_else(|| ParseQbfError::new(lineno, "content before the problem line"))?;
        if let Some(rest) = line.strip_prefix("t ").or(if line == "t" { Some("") } else { None }) {
            if saw_prefix {
                return Err(ParseQbfError::new(lineno, "duplicate prefix line"));
            }
            if !clauses.is_empty() {
                return Err(ParseQbfError::new(lineno, "prefix line after clauses"));
            }
            saw_prefix = true;
            prefix_line = lineno;
            let toks = tokenize(rest, lineno)?;
            parse_groups(
                &toks,
                lineno,
                builder.as_mut().expect("builder created with problem line"),
                nv,
            )?;
            continue;
        }
        // Clause line.
        clauses.push(super::clause_line(line, lineno, nv, &mut seen)?);
    }

    let nv = num_vars
        .ok_or_else(|| ParseQbfError::new(input.lines().count(), "missing problem line"))?;
    if let Some(nc) = declared_clauses {
        if nc != clauses.len() {
            return Err(ParseQbfError::new(
                input.lines().count(),
                format!("declared {nc} clauses, found {}", clauses.len()),
            ));
        }
    }
    let prefix = builder
        .expect("builder created with problem line")
        .finish()
        .map_err(|e| ParseQbfError::new(prefix_line.max(1), e.to_string()))?;
    let matrix = Matrix::from_clauses(nv, clauses);
    Qbf::new_closing_free(prefix, matrix)
        .map_err(|e| ParseQbfError::new(input.lines().count().max(1), e.to_string()))
}

/// Writes any QBF (prenex or not) in `qtree` format.
pub fn write(qbf: &Qbf) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "p qtree {} {}\n",
        qbf.num_vars(),
        qbf.matrix().len()
    ));
    if qbf.prefix().num_bound() > 0 {
        out.push_str(&format!("t {}\n", qbf.prefix()));
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
    use crate::samples;
    use crate::semantics;

    #[test]
    fn roundtrip_paper_example() {
        let q = samples::paper_example();
        let text = write(&q);
        let q2 = parse(&text).unwrap();
        assert_eq!(q, q2);
        assert!(!q2.is_prenex());
    }

    #[test]
    fn roundtrip_two_roots() {
        let q = samples::two_independent_games();
        let q2 = parse(&write(&q)).unwrap();
        assert_eq!(q, q2);
        assert!(semantics::eval(&q2));
    }

    #[test]
    fn parse_doc_example() {
        let src = "p qtree 4 4\nt (a 1 (e 2)) (a 3 (e 4))\n1 2 0\n-1 -2 0\n3 4 0\n-3 -4 0\n";
        let q = parse(src).unwrap();
        assert_eq!(q.prefix().roots().len(), 2);
        assert!(semantics::eval(&q));
    }

    #[test]
    fn error_cases() {
        assert!(parse("p qtree 2 1\nt (e 1\n1 0\n").is_err()); // missing )
        assert!(parse("p qtree 2 1\nt (x 1)\n1 0\n").is_err()); // bad quant
        assert!(parse("p qtree 2 1\nt (e 3)\n1 0\n").is_err()); // out of range
        assert!(parse("p qtree 2 1\nt (e 1) (a 1)\n1 0\n").is_err()); // double bind
        assert!(parse("p qtree 2 1\nt (e)\n1 0\n").is_err()); // empty block
        assert!(parse("p qtree 2 1\n1 0\nt (e 1)\n").is_err()); // prefix after clause
        assert!(parse("p cnf 2 1\n1 0\n").is_err()); // wrong keyword
        // 2^64 + 1 must not wrap around to variable 1.
        let err = parse("p qtree 1 1\nt (e 18446744073709551617)\n1 0\n").unwrap_err();
        assert_eq!(err.line, 2, "overflowing variable: {err}");
        assert!(
            err.to_string().contains("variable 18446744073709551617 out of range"),
            "{err}"
        );
        // A 200 000-literal clause whose last literal repeats an earlier
        // one: the duplicate check is linear in the line, and the error
        // names the repeating token.
        let n = 200_000;
        let mut src = format!("p qtree {n} 1\nt (e");
        for v in 1..=n {
            src.push_str(&format!(" {v}"));
        }
        src.push_str(")\n");
        for v in 1..=n {
            src.push_str(&format!("{v} "));
        }
        src.push_str("123456 0\n");
        let err = parse(&src).unwrap_err();
        assert_eq!(err.line, 3, "{err}");
        assert!(
            err.to_string().contains("duplicate literal `123456`"),
            "{err}"
        );
    }

    /// Rejections name the 1-based line and quote the offending token.
    #[test]
    fn errors_carry_line_and_token() {
        let err = parse("p qtree 3 1\nt (e 1 2)\n1 2 2 0\n").unwrap_err();
        assert_eq!(err.line, 3, "duplicate literal: {err}");
        assert!(err.to_string().contains("duplicate literal `2`"), "{err}");

        let err = parse("p qtree 3 1\nt (e 1)\n1 4 0\n").unwrap_err();
        assert_eq!(err.line, 3, "undeclared variable: {err}");
        assert!(err.to_string().contains("`4`"), "{err}");

        let err = parse("p qtree 3 1\nt (e 1) (a)\n1 0\n").unwrap_err();
        assert_eq!(err.line, 2, "empty block: {err}");
        assert!(err.to_string().contains("binds no variables"), "{err}");

        let err = parse("p qtree 2 1\nt (e 1) (a 1)\n1 0\n").unwrap_err();
        assert_eq!(err.line, 2, "double binding: {err}");
    }

    #[test]
    fn free_vars_closed() {
        let q = parse("p qtree 2 1\nt (a 1)\n1 2 0\n").unwrap();
        assert!(q.prefix().precedes(crate::var::Var::new(1), crate::var::Var::new(0)));
        assert!(semantics::eval(&q)); // x free/existential top: pick x=true? clause (y ∨ x): x:=true wins
    }
}
