//! Runtime solver registry: every [`CfcmSolver`] in the crate under its
//! canonical name plus its aliases. Consumers (CLI, benches, serving
//! layers) resolve solvers here instead of hard-coding per-algorithm
//! dispatch.

use crate::approx_greedy::ApproxSolver;
use crate::exact::ExactSolver;
use crate::forest_cfcm::ForestSolver;
use crate::heuristics::{DegreeSolver, TopCfccExactSolver, TopCfccSolver};
use crate::optimum::OptimumSolver;
use crate::schur_cfcm::SchurSolver;
use crate::solver::CfcmSolver;
use crate::CfcmError;

/// Every registered solver, flagship first (the order reports list them).
static SOLVERS: &[&dyn CfcmSolver] = &[
    &SchurSolver,
    &ForestSolver,
    &ApproxSolver,
    &ExactSolver,
    &OptimumSolver,
    &DegreeSolver,
    &TopCfccSolver,
    &TopCfccExactSolver,
];

/// Alias table (alias → canonical name). Canonical names resolve too;
/// matching is ASCII-case-insensitive.
static ALIASES: &[(&str, &str)] = &[
    ("schurcfcm", "schur"),
    ("forestcfcm", "forest"),
    ("approxgreedy", "approx"),
    ("exactgreedy", "exact"),
    ("greedy", "exact"),
    ("opt", "optimum"),
    ("brute", "optimum"),
    ("deg", "degree"),
    ("topcfcc", "top-cfcc"),
    ("top_cfcc", "top-cfcc"),
    ("topcfccexact", "top-cfcc-exact"),
    ("top_cfcc_exact", "top-cfcc-exact"),
];

/// All registered solvers, in listing order.
pub fn all() -> &'static [&'static dyn CfcmSolver] {
    SOLVERS
}

/// The canonical names, in listing order.
pub fn names() -> Vec<&'static str> {
    SOLVERS.iter().map(|s| s.name()).collect()
}

/// The alias table (alias → canonical name).
pub fn aliases() -> &'static [(&'static str, &'static str)] {
    ALIASES
}

/// Look up a solver by canonical name or alias (case-insensitive).
pub fn by_name(name: &str) -> Option<&'static dyn CfcmSolver> {
    let lower = name.to_ascii_lowercase();
    let canonical = ALIASES
        .iter()
        .find(|(alias, _)| *alias == lower)
        .map_or(lower.as_str(), |(_, canonical)| canonical);
    SOLVERS.iter().find(|s| s.name() == canonical).copied()
}

/// [`by_name`] returning a [`CfcmError::UnknownSolver`] on miss.
pub fn resolve(name: &str) -> Result<&'static dyn CfcmSolver, CfcmError> {
    by_name(name).ok_or_else(|| CfcmError::UnknownSolver(name.to_string()))
}

/// `name1 | name2 | …` — for usage strings.
pub fn name_list() -> String {
    names().join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_names_resolve_to_themselves() {
        for solver in all() {
            let found = by_name(solver.name()).unwrap_or_else(|| panic!("{}", solver.name()));
            assert_eq!(found.name(), solver.name());
        }
    }

    #[test]
    fn aliases_resolve_and_are_case_insensitive() {
        for (alias, canonical) in aliases() {
            let found = by_name(alias).expect(alias);
            assert_eq!(found.name(), *canonical, "alias {alias}");
            let upper = alias.to_ascii_uppercase();
            assert_eq!(by_name(&upper).unwrap().name(), *canonical);
        }
        assert_eq!(by_name("SCHURCFCM").unwrap().name(), "schur");
    }

    #[test]
    fn unknown_names_miss() {
        assert!(by_name("nope").is_none());
        assert!(matches!(resolve("nope"), Err(CfcmError::UnknownSolver(_))));
    }

    #[test]
    fn names_are_unique() {
        let mut names = names();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn name_list_mentions_the_flagship_first() {
        assert!(name_list().starts_with("schur"));
    }
}
