//! Correctness oracles, run outside the timed region. Each one has a
//! negative control in the tests below: fed a wrong answer, it fails.

use std::collections::BTreeMap;

use hem_server::hash::fnv1a64;
use hem_server::session::render_result;
use hem_server::SessionEvent;
use hem_system::explore::{ExploreOutcome, Verdict};
use hem_system::{analyze_robust, dsl, AnalysisMode, RobustAnalysis, SystemConfig};

/// Committed `analyze_cold` references: `index digest` per anchor system.
pub const COLD_REFS: &str = include_str!("../refs/analyze_cold.txt");

/// Committed `explore_search` references:
/// `set shuffle_seed visited pruned feasible best_digest` per search.
pub const SEARCH_REFS: &str = include_str!("../refs/explore_search.txt");

/// Table 3 of the paper: `(task, flat r+, HEM r+)`.
pub const TABLE3: [(&str, i64, i64); 3] = [("T1", 401, 240), ("T2", 1041, 560), ("T3", 1841, 960)];

/// Digest of an analysis: completeness plus every entity's response
/// interval, in name order.
#[must_use]
pub fn digest(analysis: &RobustAnalysis) -> u64 {
    let results = &analysis.results;
    let mut text = format!("complete={};", results.is_complete());
    for (name, r) in results.response_times() {
        text.push_str(&format!(
            "{name}:{}:{};",
            r.r_minus.ticks(),
            r.r_plus.ticks()
        ));
    }
    fnv1a64(text.as_bytes())
}

/// The shipped engine configuration the workloads use.
#[must_use]
pub fn shipped_config() -> SystemConfig {
    SystemConfig::new(AnalysisMode::Hierarchical).with_threads(1)
}

/// Parses committed `index digest` lines.
#[must_use]
pub fn parse_cold_refs(text: &str) -> BTreeMap<u64, u64> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            Some((
                it.next()?.parse().ok()?,
                u64::from_str_radix(it.next()?, 16).ok()?,
            ))
        })
        .collect()
}

/// Whether the digest served for system `index` matches the committed
/// reference (systems without a reference pass).
#[must_use]
pub fn cold_ref_ok(refs: &BTreeMap<u64, u64>, index: u64, got: u64) -> bool {
    refs.get(&index).is_none_or(|&want| want == got)
}

/// Table 3 check on the Fig. 2 member: the served hierarchical result
/// and a flat analysis of the same text.
///
/// # Errors
///
/// Names the first row that differs.
pub fn table3_ok(fig2_text: &str, hem: &RobustAnalysis) -> Result<(), String> {
    let spec = dsl::parse(fig2_text).map_err(|e| e.to_string())?;
    let flat = analyze_robust(
        &spec,
        &SystemConfig::new(AnalysisMode::Flat).with_threads(1),
    )
    .map_err(|e| e.to_string())?;
    for (task, want_flat, want_hem) in TABLE3 {
        let got = |a: &RobustAnalysis| a.results.task(task).map(|r| r.response.r_plus.ticks());
        if got(&flat) != Some(want_flat) || got(hem) != Some(want_hem) {
            return Err(format!(
                "Table 3 {task}: flat {:?} HEM {:?}, want {want_flat}/{want_hem}",
                got(&flat),
                got(hem)
            ));
        }
    }
    Ok(())
}

/// Differential check of one system: the served analysis must equal
/// the generic (non-analytic) engine path bit for bit.
#[must_use]
pub fn generic_path_agrees(text: &str, served: u64) -> bool {
    let Ok(spec) = dsl::parse(text) else {
        return false;
    };
    analyze_robust(&spec, &shipped_config().with_analytic(Some(false)))
        .is_ok_and(|a| digest(&a) == served)
}

/// What one search found, in the committed reference form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSummary {
    /// Candidates visited.
    pub visited: u64,
    /// Candidates pruned by necessary tests.
    pub pruned: u64,
    /// Feasible candidates.
    pub feasible: u64,
    /// Digest of the best configuration's packing, periods and orders.
    pub best: u64,
}

impl SearchSummary {
    /// Summarizes an outcome; `None` unless the default configuration
    /// was visited and infeasible and a feasible one was found.
    #[must_use]
    pub fn of(outcome: &ExploreOutcome) -> Option<Self> {
        let default = &outcome.reports[outcome.default_index?];
        if matches!(default.verdict, Verdict::Feasible { .. }) {
            return None;
        }
        let best = &outcome.best_report()?.config;
        let mut text = best.packing.as_ref().map(|p| p.label()).unwrap_or_default();
        for (site, period) in &best.periods {
            text.push_str(&format!(";{site}={}", period.ticks()));
        }
        for (resource, order) in &best.orders {
            text.push_str(&format!(";{resource}:{}", order.join(">")));
        }
        Some(SearchSummary {
            visited: outcome.visited,
            pruned: outcome.pruned,
            feasible: outcome.feasible,
            best: fnv1a64(text.as_bytes()),
        })
    }

    /// The reference line for `(set, shuffle_seed)`.
    #[must_use]
    pub fn line(&self, set: usize, shuffle_seed: u64) -> String {
        format!(
            "{set} {shuffle_seed} {} {} {} {:016x}",
            self.visited, self.pruned, self.feasible, self.best
        )
    }
}

/// Parses committed search references into `(set, seed) → summary`.
#[must_use]
pub fn parse_search_refs(text: &str) -> BTreeMap<(usize, u64), SearchSummary> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            if f.len() != 6 {
                return None;
            }
            Some((
                (f[0].parse().ok()?, f[1].parse().ok()?),
                SearchSummary {
                    visited: f[2].parse().ok()?,
                    pruned: f[3].parse().ok()?,
                    feasible: f[4].parse().ok()?,
                    best: u64::from_str_radix(f[5], 16).ok()?,
                },
            ))
        })
        .collect()
}

/// Whether a search answered as its committed reference says.
#[must_use]
pub fn search_ok(
    refs: &BTreeMap<(usize, u64), SearchSummary>,
    set: usize,
    shuffle_seed: u64,
    got: Option<&SearchSummary>,
) -> bool {
    got.is_some_and(|g| refs.get(&(set, shuffle_seed)) == Some(g))
}

/// A session's final served `analyze` must equal a cold in-process
/// analysis of the same mutated spec.
///
/// # Errors
///
/// Explains the mismatch.
pub fn session_final_ok(
    scenario: &str,
    events: &[String],
    served_body: &str,
) -> Result<(), String> {
    let mut spec = dsl::parse(scenario).map_err(|e| format!("scenario: {e}"))?;
    for event in events {
        let json = hem_obs::json::parse(event).map_err(|e| format!("event JSON: {e}"))?;
        SessionEvent::from_json(&json)
            .and_then(|e| e.apply(&mut spec))
            .map_err(|e| format!("event: {e}"))?;
    }
    let cold = analyze_robust(&spec, &shipped_config()).map_err(|e| e.to_string())?;
    let want = render_result(&cold);
    if want == served_body {
        Ok(())
    } else {
        Err(format!("served {served_body}\ncold   {want}"))
    }
}

/// The result body of an `analyze` response line, if it is `ok`.
#[must_use]
pub fn analyze_body(response: &str) -> Option<&str> {
    if !response.starts_with("{\"ok\":true") {
        return None;
    }
    let at = response.find(",\"result\":")?;
    response.get(at + 10..response.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use hem_system::explore::{explore, ExploreProblem};

    fn analyzed(text: &str) -> RobustAnalysis {
        analyze_robust(&dsl::parse(text).expect("parses"), &shipped_config()).expect("analyzes")
    }

    #[test]
    fn table3_passes_and_its_negative_control_fails() {
        let hem = analyzed(gen::FIG2);
        table3_ok(gen::FIG2, &hem).expect("Fig. 2 reproduces Table 3");
        let wrong = gen::FIG2.replace("cet=400", "cet=410");
        let err = table3_ok(&wrong, &analyzed(&wrong)).expect_err("a changed T3 must fail");
        assert!(err.contains("T3"), "{err}");
        // A right flat run with a wrong HEM answer also fails.
        assert!(table3_ok(gen::FIG2, &analyzed(&wrong)).is_err());
    }

    #[test]
    fn cold_references_hold_and_reject_a_wrong_digest() {
        let refs = parse_cold_refs(COLD_REFS);
        assert_eq!(refs.len() as u64, gen::ANCHORS);
        for (&index, &want) in &refs {
            let got = digest(&analyzed(&gen::cold_system(123, index)));
            assert!(cold_ref_ok(&refs, index, got), "anchor {index}");
            assert!(
                !cold_ref_ok(&refs, index, got ^ 1),
                "negative control {index}"
            );
            assert_eq!(want, got);
        }
    }

    #[test]
    fn generic_path_oracle_rejects_a_wrong_digest() {
        let text = gen::cold_system(3, 40);
        let served = digest(&analyzed(&text));
        assert!(generic_path_agrees(&text, served));
        assert!(!generic_path_agrees(&text, served.wrapping_add(1)));
    }

    #[test]
    fn search_references_hold_and_reject_wrong_counts() {
        let refs = parse_search_refs(SEARCH_REFS);
        assert_eq!(
            refs.len(),
            gen::PERIOD_SETS.len() * gen::SHUFFLE_SEEDS as usize
        );
        let search = gen::search(9, 1);
        let outcome =
            explore(&crate::search::problem(&search), &shipped_config()).expect("explores");
        let got = SearchSummary::of(&outcome).expect("default infeasible, feasible found");
        assert!(search_ok(
            &refs,
            search.set,
            search.shuffle_seed,
            Some(&got)
        ));
        for wrong in [
            SearchSummary {
                visited: got.visited + 1,
                ..got.clone()
            },
            SearchSummary {
                pruned: got.pruned + 1,
                ..got.clone()
            },
            SearchSummary {
                feasible: got.feasible + 1,
                ..got.clone()
            },
            SearchSummary {
                best: got.best ^ 1,
                ..got.clone()
            },
        ] {
            assert!(!search_ok(
                &refs,
                search.set,
                search.shuffle_seed,
                Some(&wrong)
            ));
        }
        assert!(!search_ok(&refs, search.set, search.shuffle_seed, None));
        // A search whose default configuration is feasible has no summary.
        let easy = gen::TIGHT10X.replace("cet=1200", "cet=100");
        let problem =
            ExploreProblem::from_scenario(&dsl::parse_scenario(&easy).expect("parses"), 0);
        let outcome = explore(&problem, &shipped_config()).expect("explores");
        assert_eq!(SearchSummary::of(&outcome), None);
    }

    #[test]
    fn session_oracle_rejects_a_wrong_body() {
        let system = gen::session_system(4, 0, 0);
        let events: Vec<String> = gen::session_ops(4, 0, 0, &system.knobs, 40)
            .into_iter()
            .filter_map(|op| match op {
                gen::SessionOp::Mutate(e) => Some(e),
                gen::SessionOp::Analyze => None,
            })
            .collect();
        let mut spec = dsl::parse(&system.text).expect("parses");
        for e in &events {
            let json = hem_obs::json::parse(e).expect("event JSON");
            SessionEvent::from_json(&json)
                .expect("event")
                .apply(&mut spec)
                .expect("applies");
        }
        let body = render_result(&analyze_robust(&spec, &shipped_config()).expect("analyzes"));
        session_final_ok(&system.text, &events, &body).expect("cold equals cold");
        let wrong = body.replacen("\"r_plus\":", "\"r_plus\":1", 1);
        assert!(session_final_ok(&system.text, &events, &wrong).is_err());
        let response = format!("{{\"ok\":true,\"op\":\"analyze\",\"seq\":3,\"stale\":false,\"replayed\":0,\"result\":{body}}}");
        assert_eq!(analyze_body(&response), Some(body.as_str()));
        assert_eq!(analyze_body("{\"ok\":false,\"error\":\"x\"}"), None);
    }
}
