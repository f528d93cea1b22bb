//! Reading and writing QBFs.
//!
//! Two text formats are supported:
//!
//! * [`qdimacs`] — the standard prenex QDIMACS format used by QBF
//!   evaluations;
//! * [`qtree`] — a small non-prenex extension of QDIMACS where the prefix
//!   line carries the quantifier forest as s-expressions, e.g.
//!   `t (e 1 (a 2 (e 3 4)) (a 5 (e 6 7)))`.

pub mod qdimacs;
pub mod qtree;

use std::fmt;

use crate::clause::Clause;
use crate::var::Lit;

/// Error produced while parsing either format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQbfError {
    /// 1-based line number where the problem was detected.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl ParseQbfError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        ParseQbfError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseQbfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseQbfError {}

/// Reads one clause line of either format: literals over `1..=num_vars`,
/// terminated by `0`, no literal repeated. The rejected repeat is named by
/// its token, the first literal that repeats an earlier one.
///
/// `seen` is one mark per literal code, owned by the caller for the whole
/// parse and all-false between lines. It grows to the largest literal
/// actually read, never to the header's count, so a line costs time
/// linear in its length and nothing is allocated per clause but the
/// clause itself. An error may leave marks set; the caller abandons the
/// parse.
pub(crate) fn clause_line(
    line: &str,
    lineno: usize,
    num_vars: usize,
    seen: &mut Vec<bool>,
) -> Result<Clause, ParseQbfError> {
    let mut lits = Vec::new();
    let mut terminated = false;
    for tok in line.split_whitespace() {
        let n: i64 = tok
            .parse()
            .map_err(|_| ParseQbfError::new(lineno, format!("bad token `{tok}`")))?;
        if n == 0 {
            terminated = true;
            break;
        }
        if n.unsigned_abs() as usize > num_vars {
            return Err(ParseQbfError::new(
                lineno,
                format!("literal `{tok}` names an undeclared variable (1..={num_vars})"),
            ));
        }
        let l = Lit::from_dimacs(n);
        if l.code() >= seen.len() {
            seen.resize(l.code() + 1, false);
        }
        if std::mem::replace(&mut seen[l.code()], true) {
            return Err(ParseQbfError::new(
                lineno,
                format!("duplicate literal `{tok}` in clause"),
            ));
        }
        lits.push(l);
    }
    for l in &lits {
        seen[l.code()] = false;
    }
    if !terminated {
        return Err(ParseQbfError::new(lineno, "clause not 0-terminated"));
    }
    Clause::new(lits).map_err(|e| ParseQbfError::new(lineno, e.to_string()))
}
