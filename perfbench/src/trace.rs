//! In-memory spans around the calls into each layer, and the small
//! statistics the report needs.
//!
//! A disabled [`Tracer`] reads no clock and records nothing, so the
//! untraced run measures the program alone. A traced run keeps every span
//! in memory and derives per-layer self times from them at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One timed call: `[start, end)` in ns since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub op: u32,
}

/// Handle returned by [`Tracer::enter`], consumed by [`Tracer::exit`].
#[must_use]
pub struct Open(u32);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            base: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Every span opened until the next call belongs to operation `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op: self.op,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end = self.now();
        self.spans[open.0 as usize].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close in LIFO order");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Total self time per span name, in ns: each span's duration minus
    /// the part covered by its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    /// The spans as JSON lines, one per span, in opening order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            );
        }
        out
    }
}

/// Nearest-rank quantile of `values` (`q` in `(0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// FNV-1a over a stream of words: the determinism digest of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// FNV-1a of a text: the fingerprint that ties a known answer to the
/// exact instance it was computed for.
pub fn fingerprint(text: &str) -> u64 {
    let mut d = Digest::default();
    d.bytes(text.as_bytes());
    d.0
}
