//! In-memory spans recorded by the traced replays around calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span covers one call made from the benchmark's own code.

use std::cell::RefCell;
use std::time::Instant;

use cfcc_util::json::{self, JsonObject};

/// One timed call: `parent` is the index of the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder. Interior mutability lets a wrapper that is itself
/// called from inside a span (the timed factor) open child spans.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_s: self.origin.elapsed().as_secs_f64(),
                end_s: f64::NAN,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// All spans as a JSON array (`name`, `start_s`, `end_s`, `parent`).
    pub fn to_json(&self) -> String {
        json::array(self.spans.borrow().iter().map(|s| {
            JsonObject::new()
                .str("name", &s.name)
                .num("start_s", s.start_s)
                .num("end_s", s.end_s)
                .raw("parent", s.parent.map_or("null".into(), |p| p.to_string()))
                .render()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let t = Tracer::new();
        t.span("root", || {
            t.span("a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("a", || t.span("b", || ()));
        });
        assert!(t.total("a") >= 0.002);
        assert!(t.total("root") >= t.total("a"));
        let j = t.to_json();
        assert!(j.contains(r#""name":"b""#) && j.contains(r#""parent":2"#));
    }
}
