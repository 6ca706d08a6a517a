//! `cfcc-lint` — the workspace invariant linter.
//!
//! A source-level (line-oriented, AST-lite) scanner over every `.rs` file
//! in `crates/*/src/**` and the root facade's `src/`, enforcing project
//! invariants that rustc/clippy cannot express:
//!
//! | rule id          | invariant |
//! |------------------|-----------|
//! | `safety-comment` | every `unsafe` block/impl/fn is preceded by a `// SAFETY:` comment (or a `# Safety` doc section for `unsafe fn`) |
//! | `thread-spawn`   | no `std::thread::spawn`/`thread::scope` outside `cfcc-linalg/pool.rs` and the serve accept/batcher seam (`serve/lib.rs`) |
//! | `no-unwrap`      | no `.unwrap()` / `.expect(` in serve request-path and linalg hot-path modules — poisoned-lock recovery goes through `into_inner` |
//! | `no-instant-hot-path` | no `Instant::now()` inside the PCG/kernel hot-path modules (deadlines are checked via stop hooks at batched boundaries) |
//! | `lock-order`     | FactorCache discipline: never touch an entry lock (`.factor(` / `.trace(` / `.centrality(`) while the map lock guard is live |
//!
//! Mechanics the scanner gets right so rules see *code*, not prose:
//! string literals are blanked, `//` and `/* … */` comments are separated
//! from code (block comments tracked across lines), and `#[cfg(test)]`
//! items are skipped entirely by brace tracking.
//!
//! Known-good exceptions live in `crates/audit/lint.allow`, one per line:
//!
//! ```text
//! <rule-id> <path-suffix> <line-substring> -- <justification>
//! ```
//!
//! Every entry must carry a justification and must match at least one
//! violation — stale entries fail the lint run, so the allowlist cannot
//! rot.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One finding: `file:line` plus the rule and offending source line.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub excerpt: String,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file, self.line, self.rule, self.message, self.excerpt
        )
    }
}

/// Result of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations not covered by the allowlist.
    pub violations: Vec<Violation>,
    /// Violations suppressed by an allowlist entry.
    pub allowed: usize,
    /// Allowlist entries that matched nothing (stale) or are malformed.
    pub allowlist_errors: Vec<String>,
    /// Files scanned.
    pub files: usize,
}

impl LintReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.allowlist_errors.is_empty()
    }
}

/// An allowlist entry parsed from `lint.allow`.
#[derive(Debug)]
struct AllowEntry {
    rule: String,
    path_suffix: String,
    pattern: String,
    line_no: usize,
    used: bool,
}

/// Lint the workspace rooted at `root`. `allow_path` is the allowlist
/// file (missing file = empty allowlist).
pub fn run(root: &Path, allow_path: &Path) -> LintReport {
    let mut report = LintReport::default();
    let mut allow = load_allowlist(allow_path, &mut report.allowlist_errors);
    let mut files = collect_sources(root);
    files.sort();
    for path in files {
        let Ok(source) = fs::read_to_string(&path) else {
            continue;
        };
        report.files += 1;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        for v in lint_file(&rel, &source) {
            match allow.iter_mut().find(|e| {
                e.rule == v.rule
                    && v.file.ends_with(&e.path_suffix)
                    && v.excerpt.contains(&e.pattern)
            }) {
                Some(entry) => {
                    entry.used = true;
                    report.allowed += 1;
                }
                None => report.violations.push(v),
            }
        }
    }
    for e in &allow {
        if !e.used {
            report.allowlist_errors.push(format!(
                "{}:{}: stale allowlist entry (matches no violation): {} {} {}",
                allow_path.display(),
                e.line_no,
                e.rule,
                e.path_suffix,
                e.pattern
            ));
        }
    }
    report
}

fn load_allowlist(path: &Path, errors: &mut Vec<String>) -> Vec<AllowEntry> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut entries = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((spec, justification)) = line.split_once(" -- ") else {
            errors.push(format!(
                "{}:{}: allowlist entry missing ` -- <justification>`: {line}",
                path.display(),
                i + 1
            ));
            continue;
        };
        if justification.trim().len() < 10 {
            errors.push(format!(
                "{}:{}: allowlist justification too short (explain *why* this is sound)",
                path.display(),
                i + 1
            ));
            continue;
        }
        let mut parts = spec.splitn(3, char::is_whitespace);
        let (Some(rule), Some(suffix), Some(pattern)) = (parts.next(), parts.next(), parts.next())
        else {
            errors.push(format!(
                "{}:{}: malformed allowlist entry (want `<rule> <path> <substring> -- <why>`)",
                path.display(),
                i + 1
            ));
            continue;
        };
        entries.push(AllowEntry {
            rule: rule.to_string(),
            path_suffix: suffix.to_string(),
            pattern: pattern.trim().to_string(),
            line_no: i + 1,
            used: false,
        });
    }
    entries
}

/// Collect `.rs` sources: every `crates/*/src/**` tree plus the root
/// facade's `src/`.
fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            collect_rs(&entry.path().join("src"), &mut out);
            // compat shims are nested one level deeper (crates/compat/*).
            if entry.path().ends_with("compat") {
                if let Ok(subs) = fs::read_dir(entry.path()) {
                    for sub in subs.flatten() {
                        collect_rs(&sub.path().join("src"), &mut out);
                    }
                }
            }
        }
    }
    collect_rs(&root.join("src"), &mut out);
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

// ---------------------------------------------------------------------------
// Per-line lexical split: code vs. comment, strings blanked.
// ---------------------------------------------------------------------------

/// One source line after lexical classification.
struct Line {
    /// Code with string-literal contents blanked and comments removed.
    code: String,
    /// Comment text on this line (`//…` or the in-`/* */` portion).
    comment: String,
    /// Inside a `#[cfg(test)]` item.
    in_test: bool,
}

fn split_lines(source: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut in_block_comment = false;
    // Test-item skipping state.
    let mut pending_test_attr = false;
    let mut depth: i64 = 0;
    let mut skip_above: Option<i64> = None;

    for raw in source.lines() {
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let bytes: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            if in_block_comment {
                if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                    in_block_comment = false;
                    i += 2;
                } else {
                    comment.push(bytes[i]);
                    i += 1;
                }
                continue;
            }
            match bytes[i] {
                '/' if bytes.get(i + 1) == Some(&'/') => {
                    // `//` comment runs to end of line.
                    comment.extend(&bytes[i..]);
                    i = bytes.len();
                }
                '/' if bytes.get(i + 1) == Some(&'*') => {
                    in_block_comment = true;
                    i += 2;
                }
                '"' => {
                    // Blank the string body (keep quotes so code shape holds).
                    code.push('"');
                    i += 1;
                    while i < bytes.len() {
                        if bytes[i] == '\\' {
                            i += 2;
                            continue;
                        }
                        if bytes[i] == '"' {
                            break;
                        }
                        i += 1;
                    }
                    code.push('"');
                    i += 1; // past closing quote (or EOL for multiline strings)
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes within a
                    // few chars; a lifetime has no closing quote.
                    let close = if bytes.get(i + 1) == Some(&'\\') {
                        bytes[i + 2..]
                            .iter()
                            .position(|&c| c == '\'')
                            .map(|p| p + i + 2)
                    } else {
                        match bytes.get(i + 2) {
                            Some('\'') => Some(i + 2),
                            _ => None,
                        }
                    };
                    match close {
                        Some(end) => {
                            code.push_str("' '");
                            i = end + 1;
                        }
                        None => {
                            code.push('\'');
                            i += 1;
                        }
                    }
                }
                c => {
                    code.push(c);
                    i += 1;
                }
            }
        }

        // --- test-item skipping (uses the comment-free code) ---
        let depth_before = depth;
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_test_attr && skip_above.is_none() {
                        skip_above = Some(depth_before);
                        pending_test_attr = false;
                    }
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        let mut in_test = skip_above.is_some();
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            pending_test_attr = true;
            in_test = true;
        } else if pending_test_attr && skip_above.is_none() && code.trim_end().ends_with(';') {
            // `#[cfg(test)] use …;` — attribute consumed by a braceless item.
            pending_test_attr = false;
            in_test = true;
        }
        if pending_test_attr {
            in_test = true;
        }
        if let Some(limit) = skip_above {
            if depth <= limit {
                skip_above = None;
            }
        }

        out.push(Line {
            code,
            comment,
            in_test,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------------

/// Serve modules on the request path (a panic here kills a handler).
const SERVE_REQUEST_PATH: &[&str] = &[
    "crates/serve/src/batch.rs",
    "crates/serve/src/cache.rs",
    "crates/serve/src/metrics.rs",
    "crates/serve/src/registry.rs",
    "crates/serve/src/lib.rs",
];

/// Linalg hot-path modules (inner solver loops; also no timing syscalls).
const LINALG_HOT_PATH: &[&str] = &[
    "crates/linalg/src/pool.rs",
    "crates/linalg/src/kernel.rs",
    "crates/linalg/src/cg.rs",
    "crates/linalg/src/csr.rs",
    "crates/linalg/src/laplacian.rs",
];

/// Files allowed to spawn OS threads: the worker pool and the serve
/// accept/batcher seam. The audit crate itself is excluded wholesale —
/// its model-checker controller *is* a thread scheduler.
const SPAWN_EXEMPT: &[&str] = &["crates/linalg/src/pool.rs", "crates/serve/src/lib.rs"];

fn in_list(file: &str, list: &[&str]) -> bool {
    list.iter().any(|f| file.ends_with(f) || file == *f)
}

fn word_at(code: &str, needle: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = !code[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = after;
    }
    None
}

/// Lint one file; `file` is the repo-relative path used in rule scoping.
pub fn lint_file(file: &str, source: &str) -> Vec<Violation> {
    let lines = split_lines(source);
    let mut out = Vec::new();
    let audit_crate = file.starts_with("crates/audit/");

    // lock-order tracking: a live FactorCache-style map guard.
    let mut map_guard: Option<(String, i64)> = None;
    let mut depth: i64 = 0;

    let raw_lines: Vec<&str> = source.lines().collect();

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        let excerpt = raw_lines.get(idx).map_or("", |s| s.trim()).to_string();
        let depth_before = depth;
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if line.in_test {
            continue;
        }

        // --- safety-comment -------------------------------------------------
        if !audit_crate {
            if let Some(pos) = word_at(code, "unsafe") {
                let tail = code[pos..].trim_start_matches("unsafe").trim_start();
                let is_site = tail.starts_with('{')
                    || tail.starts_with("impl")
                    || tail.starts_with("fn")
                    || tail.starts_with("extern")
                    || tail.is_empty();
                if is_site && !has_safety_comment(&lines, idx) {
                    out.push(Violation {
                        rule: "safety-comment",
                        file: file.to_string(),
                        line: lineno,
                        excerpt: excerpt.clone(),
                        message: "`unsafe` site without a preceding `// SAFETY:` comment".into(),
                    });
                }
            }
        }

        // --- thread-spawn ---------------------------------------------------
        if !audit_crate
            && !in_list(file, SPAWN_EXEMPT)
            && (code.contains("thread::spawn") || code.contains("thread::scope"))
        {
            out.push(Violation {
                rule: "thread-spawn",
                file: file.to_string(),
                line: lineno,
                excerpt: excerpt.clone(),
                message:
                    "OS threads may only be created in linalg/pool.rs or the serve accept seam"
                        .into(),
            });
        }

        // --- no-unwrap ------------------------------------------------------
        if (in_list(file, SERVE_REQUEST_PATH) || in_list(file, LINALG_HOT_PATH))
            && (code.contains(".unwrap()") || code.contains(".expect("))
        {
            out.push(Violation {
                rule: "no-unwrap",
                file: file.to_string(),
                line: lineno,
                excerpt: excerpt.clone(),
                message: "request/hot path must not panic; recover poisoned locks via into_inner"
                    .into(),
            });
        }

        // --- no-instant-hot-path -------------------------------------------
        if in_list(file, LINALG_HOT_PATH) && code.contains("Instant::now") {
            out.push(Violation {
                rule: "no-instant-hot-path",
                file: file.to_string(),
                line: lineno,
                excerpt: excerpt.clone(),
                message:
                    "no timing syscalls in solver inner loops; use stop hooks at batch boundaries"
                        .into(),
            });
        }

        // --- lock-order -----------------------------------------------------
        if file.starts_with("crates/serve/") {
            if let Some((guard, g_depth)) = &map_guard {
                let released = depth_before < *g_depth
                    || code.contains(&format!("drop({guard})"))
                    || code.contains(&format!("drop(mut {guard})"));
                if released {
                    map_guard = None;
                } else {
                    const ENTRY_LOCK: &[&str] = &[
                        ".factor(",
                        ".factor_mut(",
                        ".trace(",
                        ".centrality(",
                        ".factor.lock(",
                        ".trace.lock(",
                        ".centrality.lock(",
                    ];
                    if ENTRY_LOCK.iter().any(|p| code.contains(p)) {
                        out.push(Violation {
                            rule: "lock-order",
                            file: file.to_string(),
                            line: lineno,
                            excerpt: excerpt.clone(),
                            message: format!(
                                "entry lock touched while map guard `{guard}` is live \
                                 (FactorCache discipline: map lock, clone Arc, drop, then entry lock)"
                            ),
                        });
                    }
                }
            }
            if map_guard.is_none() && code.contains(".lock(") && code.contains("self.inner") {
                if let Some(name) = guard_binding(code) {
                    map_guard = Some((name, depth_before));
                }
            }
        }
    }
    out
}

/// Extract `name` from `let [mut] name = …`.
fn guard_binding(code: &str) -> Option<String> {
    let pos = word_at(code, "let")?;
    let rest = code[pos + 3..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Look upward from `idx` through contiguous comment/attribute lines (and
/// the same line's trailing comment) for `SAFETY:` or a `# Safety` doc
/// section.
fn has_safety_comment(lines: &[Line], idx: usize) -> bool {
    let hit = |c: &str| c.contains("SAFETY:") || c.contains("# Safety");
    if hit(&lines[idx].comment) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        let code_trim = l.code.trim();
        let is_attr = code_trim.starts_with("#[") || code_trim.starts_with("#!");
        let is_comment_only = code_trim.is_empty() && !l.comment.is_empty();
        if !(is_attr || is_comment_only) {
            return false;
        }
        if hit(&l.comment) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safety_comment_detected_and_missing() {
        let good = "// SAFETY: disjoint rows\nunsafe { go() }\n";
        assert!(lint_file("crates/linalg/src/pool.rs", good).is_empty());
        let bad = "let x = 1;\nunsafe { go() }\n";
        let v = lint_file("crates/linalg/src/pool.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comment");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unsafe_in_string_or_comment_ignored() {
        let s = "let m = \"unsafe {\";\n// unsafe impl note\n";
        assert!(lint_file("crates/linalg/src/pool.rs", s).is_empty());
    }

    #[test]
    fn doc_safety_section_counts_for_unsafe_fn() {
        let s = "/// Reads raw.\n///\n/// # Safety\n/// Caller upholds aliasing.\npub unsafe fn f() {}\n";
        assert!(lint_file("crates/linalg/src/pool.rs", s).is_empty());
    }

    #[test]
    fn spawn_flagged_outside_exempt_files() {
        let s = "std::thread::spawn(|| {});\n";
        let v = lint_file("crates/forest/src/sampler.rs", s);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "thread-spawn");
        assert!(lint_file("crates/linalg/src/pool.rs", s).is_empty());
        assert!(lint_file("crates/serve/src/lib.rs", s).is_empty());
    }

    #[test]
    fn cfg_test_items_skipped() {
        let s = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); std::thread::spawn(|| {}); }\n}\nfn also_live() { y.unwrap(); }\n";
        let v = lint_file("crates/serve/src/batch.rs", s);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6);
        assert_eq!(v[0].rule, "no-unwrap");
    }

    #[test]
    fn unwrap_scoped_to_listed_modules() {
        let s = "x.unwrap();\n";
        assert_eq!(lint_file("crates/serve/src/metrics.rs", s).len(), 1);
        assert!(lint_file("crates/serve/src/protocol.rs", s).is_empty());
        assert!(lint_file("crates/graph/src/lib.rs", s).is_empty());
    }

    #[test]
    fn lock_order_violation_detected() {
        let s = "fn f(&self) {\n    let mut map = self.inner.lock().unwrap_or_else(p);\n    entry.factor(|| x);\n}\n";
        let v = lint_file("crates/serve/src/cache.rs", s);
        assert!(v.iter().any(|v| v.rule == "lock-order"), "{v:?}");
        // Dropping the guard first is the documented discipline.
        let ok = "fn f(&self) {\n    let mut map = self.inner.lock().unwrap_or_else(p);\n    drop(map);\n    entry.factor(|| x);\n}\n";
        assert!(lint_file("crates/serve/src/cache.rs", ok)
            .iter()
            .all(|v| v.rule != "lock-order"));
    }

    #[test]
    fn lock_order_scope_ends_with_block() {
        let s = "fn f(&self) {\n    {\n        let map = self.inner.lock().x();\n    }\n    entry.factor(|| x);\n}\n";
        assert!(lint_file("crates/serve/src/cache.rs", s)
            .iter()
            .all(|v| v.rule != "lock-order"));
    }

    #[test]
    fn instant_flagged_in_hot_path() {
        let s = "let t = Instant::now();\n";
        assert_eq!(lint_file("crates/linalg/src/cg.rs", s).len(), 1);
        assert!(lint_file("crates/serve/src/lib.rs", s).is_empty());
    }

    #[test]
    fn char_literal_and_lifetime_survive_lexing() {
        let s = "fn f<'a>(x: &'a str) -> char { let q = '\"'; let b = '{'; q }\n";
        assert!(lint_file("crates/serve/src/batch.rs", s).is_empty());
    }
}
