//! Perf-regression gate over `BENCH_engine.json` artifacts.
//!
//! Parses a freshly emitted engine-throughput JSON (see the
//! `engine_throughput` binary) and a committed baseline of the same
//! schema, matches workloads by `(family, n)`, and fails when any
//! matched workload's `rounds_per_sec` regressed by more than the
//! allowed fraction. This is the `bench-compare` step of CI's
//! bench-smoke job: the committed baseline is refreshed whenever a PR
//! intentionally moves the numbers, so the perf trajectory is recorded
//! and accidental regressions fail loudly.
//!
//! Usage:
//!
//! ```text
//! bench_compare --baseline BENCH_baseline_tiny.json \
//!               --current BENCH_engine.json [--max-regression 0.20]
//! ```
//!
//! Exit codes: 0 = within budget, 1 = regression beyond budget,
//! 2 = bad arguments or unparseable input. Workloads present on only one
//! side are reported and skipped (tiny CI runs and full local runs use
//! different sizes); zero overlap is an error, because it means the gate
//! silently compared nothing.
//!
//! Besides the `workloads` rows, the gate also reads the
//! `thread_sweep` section and fails when the **parallel-at-1-thread**
//! speedup ratio of any `(family, n)` drops below 0.9x of its committed
//! baseline ratio — the canary for per-round synchronization overhead
//! creeping back into the sharded engine (a 1-worker run does no useful
//! parallel work, so its ratio to sequential *is* the overhead). The
//! sweep gate compares ratios, not absolute rates, so it is robust to
//! host-speed differences; it is skipped with a note when either side
//! predates the section.
//!
//! The parser is a purpose-built scanner for the emitter's own fixed
//! schema (the workspace vendors no JSON dependency); it is unit-tested
//! against the emitter's exact output shape below. Sections it does not
//! know about (`churn`, anything future emitters add) are skipped, not
//! fatal: the gate compares the sections it understands and ignores the
//! rest, so a baseline recorded before a new section existed keeps
//! gating.

use mis_bench::json::{num_field, str_field};
use std::process::ExitCode;

/// One `workloads[]` row: the keys the gate compares on.
#[derive(Debug, Clone, PartialEq)]
struct WorkloadRow {
    family: String,
    n: u64,
    rounds_per_sec: f64,
    messages_per_sec: f64,
}

/// Parses the `"workloads": [...]` rows out of a `BENCH_engine.json`
/// document. Returns `None` when the section or any row field is
/// missing — a schema drift the gate must not paper over.
fn parse_workloads(doc: &str) -> Option<Vec<WorkloadRow>> {
    let sec_start = doc.find("\"workloads\": [")?;
    let sec = &doc[sec_start..];
    let sec_end = sec.find(']')?;
    let body = &sec[..sec_end];
    let mut rows = Vec::new();
    let mut rest = body;
    while let Some(open) = rest.find('{') {
        let close = rest[open..].find('}')? + open;
        let obj = &rest[open..=close];
        rows.push(WorkloadRow {
            family: str_field(obj, "family")?,
            n: num_field(obj, "n")?,
            rounds_per_sec: num_field(obj, "rounds_per_sec")?,
            messages_per_sec: num_field(obj, "messages_per_sec")?,
        });
        rest = &rest[close + 1..];
    }
    Some(rows)
}

/// One `thread_sweep.entries[]` row: the keys the sweep gate reads.
#[derive(Debug, Clone, PartialEq)]
struct SweepRow {
    family: String,
    n: u64,
    threads: u64,
    speedup_vs_sequential: f64,
}

/// Parses the `"thread_sweep": {... "entries": [...]}` rows out of a
/// `BENCH_engine.json` document. Returns `None` when the document has
/// no sweep section (older artifacts — the caller skips the sweep gate
/// with a note); a *present but malformed* section is also `None`, which
/// the caller cannot distinguish — acceptable because the emitter and
/// this parser ship from the same tree. Entries of the pre-family
/// schema inherit the section-level `"family"` key.
fn parse_thread_sweep(doc: &str) -> Option<Vec<SweepRow>> {
    let sec_start = doc.find("\"thread_sweep\": {")?;
    let sec = &doc[sec_start..];
    let entries_start = sec.find("\"entries\": [")?;
    // The old emitter put one `"family"` on the section head; fall back
    // to it for entries that predate the per-entry key.
    let section_family = str_field(&sec[..entries_start], "family");
    let body = &sec[entries_start..];
    let body = &body[..body.find(']')?];
    let mut rows = Vec::new();
    let mut rest = body;
    while let Some(open) = rest.find('{') {
        let close = rest[open..].find('}')? + open;
        let obj = &rest[open..=close];
        rows.push(SweepRow {
            family: str_field(obj, "family").or_else(|| section_family.clone())?,
            n: num_field(obj, "n")?,
            threads: num_field(obj, "threads")?,
            speedup_vs_sequential: num_field(obj, "speedup_vs_sequential")?,
        });
        rest = &rest[close + 1..];
    }
    Some(rows)
}

/// The sweep gate's floor: current parallel-at-1-thread speedup must be
/// at least this fraction of the committed baseline's ratio.
const SWEEP_FLOOR: f64 = 0.9;

/// Matches parallel-at-1-thread entries by `(family, n)` and flags
/// ratios-of-ratios below [`SWEEP_FLOOR`]. Only `threads == 1` entries
/// gate: one worker does no useful parallel work, so its speedup *is*
/// the engine's synchronization overhead, measured host-independently.
fn compare_sweep(baseline: &[SweepRow], current: &[SweepRow]) -> Comparison {
    let mut out = Comparison::default();
    for b in baseline.iter().filter(|b| b.threads == 1) {
        match current
            .iter()
            .find(|c| c.threads == 1 && c.family == b.family && c.n == b.n)
        {
            Some(c) => {
                let ratio = c.speedup_vs_sequential / b.speedup_vs_sequential;
                out.matched.push((
                    b.family.clone(),
                    b.n,
                    b.speedup_vs_sequential,
                    c.speedup_vs_sequential,
                    ratio,
                ));
                if ratio < SWEEP_FLOOR {
                    out.regressed.push((b.family.clone(), b.n, ratio));
                }
            }
            None => out.unmatched += 1,
        }
    }
    out.unmatched += current
        .iter()
        .filter(|c| {
            c.threads == 1
                && !baseline
                    .iter()
                    .any(|b| b.threads == 1 && b.family == c.family && b.n == c.n)
        })
        .count();
    out
}

/// Outcome of comparing current rows against a baseline.
#[derive(Debug, Default, PartialEq)]
struct Comparison {
    /// `(family, n, baseline r/s, current r/s, ratio)` for every match.
    matched: Vec<(String, u64, f64, f64, f64)>,
    /// Workloads found on only one side (reported, not fatal).
    unmatched: usize,
    /// Matched workloads whose ratio fell below the floor.
    regressed: Vec<(String, u64, f64)>,
}

/// Matches rows by `(family, n)` and flags rounds/sec ratios below
/// `1 - max_regression`.
fn compare(baseline: &[WorkloadRow], current: &[WorkloadRow], max_regression: f64) -> Comparison {
    let floor = 1.0 - max_regression;
    let mut out = Comparison::default();
    for b in baseline {
        match current.iter().find(|c| c.family == b.family && c.n == b.n) {
            Some(c) => {
                let ratio = c.rounds_per_sec / b.rounds_per_sec;
                out.matched.push((
                    b.family.clone(),
                    b.n,
                    b.rounds_per_sec,
                    c.rounds_per_sec,
                    ratio,
                ));
                if ratio < floor {
                    out.regressed.push((b.family.clone(), b.n, ratio));
                }
            }
            None => out.unmatched += 1,
        }
    }
    out.unmatched += current
        .iter()
        .filter(|c| !baseline.iter().any(|b| b.family == c.family && b.n == c.n))
        .count();
    out
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(base_path), Some(cur_path)) = (flag(&args, "--baseline"), flag(&args, "--current"))
    else {
        eprintln!(
            "usage: bench_compare --baseline PATH --current PATH [--max-regression FRACTION]"
        );
        return ExitCode::from(2);
    };
    let max_regression: f64 = match flag(&args, "--max-regression") {
        Some(v) => match v.parse() {
            Ok(f) if (0.0..1.0).contains(&f) => f,
            _ => {
                eprintln!("--max-regression must be a fraction in [0, 1): got {v}");
                return ExitCode::from(2);
            }
        },
        None => 0.20,
    };

    type Parsed = (Vec<WorkloadRow>, Option<Vec<SweepRow>>);
    let read = |path: &str| -> Option<Parsed> {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| eprintln!("cannot read {path}: {e}"))
            .ok()?;
        let rows = parse_workloads(&doc);
        if rows.is_none() {
            eprintln!("{path}: no parseable \"workloads\" section (schema drift?)");
        }
        // A zero or negative rate cannot come from a real measurement;
        // treat it as a truncated/hand-edited file rather than silently
        // skipping (or dividing by) the row.
        if let Some(rows) = &rows {
            if let Some(bad) = rows.iter().find(|r| r.rounds_per_sec <= 0.0) {
                eprintln!(
                    "{path}: workload {} n={} has non-positive rounds_per_sec {} (schema drift?)",
                    bad.family, bad.n, bad.rounds_per_sec
                );
                return None;
            }
        }
        let sweep = parse_thread_sweep(&doc);
        if let Some(sweep) = &sweep {
            if let Some(bad) = sweep
                .iter()
                .find(|r| r.threads >= 1 && r.speedup_vs_sequential <= 0.0)
            {
                eprintln!(
                    "{path}: sweep {} n={} threads={} has non-positive speedup {} (schema drift?)",
                    bad.family, bad.n, bad.threads, bad.speedup_vs_sequential
                );
                return None;
            }
        }
        rows.map(|r| (r, sweep))
    };
    let (Some((baseline, base_sweep)), Some((current, cur_sweep))) =
        (read(&base_path), read(&cur_path))
    else {
        return ExitCode::from(2);
    };

    let cmp = compare(&baseline, &current, max_regression);
    for (family, n, brps, crps, ratio) in &cmp.matched {
        println!(
            "{family:>8} n={n:<8} baseline {brps:>10.1} r/s  current {crps:>10.1} r/s  ({ratio:.3}x)"
        );
    }
    if cmp.unmatched > 0 {
        println!(
            "note: {} workload(s) present on only one side were skipped",
            cmp.unmatched
        );
    }
    if cmp.matched.is_empty() {
        eprintln!(
            "no overlapping workloads between baseline and current: the gate compared nothing"
        );
        return ExitCode::from(2);
    }

    // The thread-sweep overhead gate: parallel-at-1-thread ratios,
    // compared as ratios-of-ratios so host speed cancels out. Skipped
    // (with a note) when either artifact predates the sweep section.
    let mut sweep_matched = 0usize;
    let mut sweep_regressed: Vec<(String, u64, f64)> = Vec::new();
    match (&base_sweep, &cur_sweep) {
        (Some(base), Some(cur)) => {
            let scmp = compare_sweep(base, cur);
            for (family, n, bs, cs, ratio) in &scmp.matched {
                println!(
                    "   sweep {family:>8} n={n:<8} baseline {bs:>6.3}x seq  current {cs:>6.3}x seq  \
                     ({ratio:.3} of baseline)"
                );
            }
            if scmp.unmatched > 0 {
                println!(
                    "note: {} 1-thread sweep entr{} present on only one side were skipped",
                    scmp.unmatched,
                    if scmp.unmatched == 1 { "y" } else { "ies" }
                );
            }
            if scmp.matched.is_empty() {
                eprintln!(
                    "no overlapping parallel-at-1-thread sweep entries: the sweep gate \
                     compared nothing"
                );
                return ExitCode::from(2);
            }
            sweep_matched = scmp.matched.len();
            sweep_regressed = scmp.regressed;
        }
        _ => println!("note: thread_sweep section missing on one side; sweep gate skipped"),
    }

    if cmp.regressed.is_empty() && sweep_regressed.is_empty() {
        println!(
            "bench-compare OK: {} workload(s) within {:.0}% of baseline, \
             {} sweep entr{} within the {:.0}% overhead budget",
            cmp.matched.len(),
            max_regression * 100.0,
            sweep_matched,
            if sweep_matched == 1 { "y" } else { "ies" },
            (1.0 - SWEEP_FLOOR) * 100.0
        );
        ExitCode::SUCCESS
    } else {
        for (family, n, ratio) in &cmp.regressed {
            eprintln!(
                "REGRESSION: {family} n={n} at {ratio:.3}x of baseline rounds/sec \
                 (floor {:.3}x)",
                1.0 - max_regression
            );
        }
        for (family, n, ratio) in &sweep_regressed {
            eprintln!(
                "SWEEP REGRESSION: {family} n={n} parallel-at-1-thread at {ratio:.3}x of \
                 its baseline speedup ratio (floor {SWEEP_FLOOR:.3}x): per-round \
                 synchronization overhead crept back into the engine"
            );
        }
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fragment in the emitter's exact output shape.
    const DOC: &str = r#"{
  "schema": "bench-engine-v1",
  "mode": "tiny",
  "protocol": "chatter-broadcast-all-awake",
  "available_parallelism": 1,
  "workloads": [
    {"family": "gnp", "n": 1024, "rounds": 4096, "messages": 100, "secs": 1.5, "rounds_per_sec": 2730.7, "messages_per_sec": 66.7},
    {"family": "regular", "n": 1024, "rounds": 4096, "messages": 200, "secs": 2.0, "rounds_per_sec": 2048.0, "messages_per_sec": 100.0}
  ],
  "thread_sweep": {
    "available_parallelism": 1,
    "entries": [
      {"family": "gnp", "n": 1024, "threads": 0, "engine": "sequential", "rounds": 4096, "secs": 1.5, "rounds_per_sec": 2730.7, "messages_per_sec": 66.7, "cut_edge_fraction": 0.000000, "speedup_vs_sequential": 1.000},
      {"family": "gnp", "n": 1024, "threads": 1, "engine": "parallel", "rounds": 4096, "secs": 1.6, "rounds_per_sec": 2560.0, "messages_per_sec": 62.5, "cut_edge_fraction": 0.012345, "speedup_vs_sequential": 0.938},
      {"family": "ba", "n": 1024, "threads": 1, "engine": "parallel", "rounds": 4096, "secs": 1.7, "rounds_per_sec": 2409.4, "messages_per_sec": 58.8, "cut_edge_fraction": 0.204000, "speedup_vs_sequential": 0.882}
    ]
  }
}"#;

    #[test]
    fn parses_the_emitter_schema() {
        let rows = parse_workloads(DOC).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].family, "gnp");
        assert_eq!(rows[0].n, 1024);
        assert!((rows[0].rounds_per_sec - 2730.7).abs() < 1e-9);
        assert!((rows[1].messages_per_sec - 100.0).abs() < 1e-9);
    }

    #[test]
    fn thread_sweep_entries_are_not_workloads() {
        // The sweep section repeats similar keys; the parser must stop at
        // the end of the workloads array.
        let rows = parse_workloads(DOC).unwrap();
        assert!(rows.iter().all(|r| !r.family.is_empty()), "{rows:?}");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn missing_section_is_an_error_not_empty() {
        assert!(parse_workloads("{\"schema\": \"bench-engine-v1\"}").is_none());
    }

    #[test]
    fn unknown_sections_are_ignored_not_fatal() {
        // Newer emitters add sections (e.g. "churn") that an older gate
        // does not know about; the gate must keep comparing the rows it
        // understands instead of exiting 2 on schema drift it can skim
        // past. This mirrors the emitter's section order: churn follows
        // thread_sweep.
        let doc = DOC.trim_end().trim_end_matches('}').to_string()
            + r#"  ,
  "churn": {
    "base_family": "gnp",
    "entries": [
      {"algo": "inc-luby", "n": 1024, "batches": 32, "edits": 120, "repair_secs": 0.001, "repair_secs_per_edit": 0.000008, "avg_affected": 1.2, "max_affected": 6, "full_solve_secs": 0.5, "speedup_vs_resolve": 500.0, "verified": true}
    ]
  }
}"#;
        let rows = parse_workloads(&doc).unwrap();
        assert_eq!(rows.len(), 2, "churn entries must not leak into workloads");
        assert!(rows
            .iter()
            .all(|r| r.family == "gnp" || r.family == "regular"));
    }

    #[test]
    fn unknown_sections_before_workloads_are_skipped() {
        let doc = r#"{
  "schema": "bench-engine-v2",
  "future_section": {"entries": [{"n": 7, "rounds_per_sec": 1.0}]},
  "workloads": [
    {"family": "gnp", "n": 1024, "rounds": 10, "messages": 10, "secs": 1.0, "rounds_per_sec": 10.0, "messages_per_sec": 10.0}
  ]
}"#;
        let rows = parse_workloads(doc).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].n, 1024);
    }

    #[test]
    fn parses_the_sweep_schema() {
        let rows = parse_thread_sweep(DOC).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].family, "gnp");
        assert_eq!(rows[0].threads, 0);
        assert_eq!(rows[1].threads, 1);
        assert!((rows[1].speedup_vs_sequential - 0.938).abs() < 1e-9);
        assert_eq!(rows[2].family, "ba");
    }

    #[test]
    fn pre_family_sweep_entries_inherit_the_section_family() {
        // The pre-rearchitecture emitter wrote one "family" key on the
        // section head and none per entry; committed baselines of that
        // vintage must keep parsing.
        let doc = r#"{
  "workloads": [
    {"family": "gnp", "n": 4096, "rounds": 10, "messages": 10, "secs": 1.0, "rounds_per_sec": 10.0, "messages_per_sec": 10.0}
  ],
  "thread_sweep": {
    "family": "gnp",
    "available_parallelism": 1,
    "entries": [
      {"n": 4096, "threads": 1, "engine": "parallel", "rounds": 1024, "secs": 0.6, "rounds_per_sec": 1625.0, "speedup_vs_sequential": 0.900}
    ]
  }
}"#;
        let rows = parse_thread_sweep(doc).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].family, "gnp");
        assert_eq!(rows[0].n, 4096);
        assert!((rows[0].speedup_vs_sequential - 0.9).abs() < 1e-9);
    }

    #[test]
    fn missing_sweep_section_is_none_not_empty() {
        assert!(parse_thread_sweep("{\"workloads\": []}").is_none());
    }

    fn sweep_row(family: &str, n: u64, threads: u64, speedup: f64) -> SweepRow {
        SweepRow {
            family: family.into(),
            n,
            threads,
            speedup_vs_sequential: speedup,
        }
    }

    #[test]
    fn sweep_gate_passes_within_budget_and_fails_beyond() {
        let base = vec![
            sweep_row("gnp", 4096, 0, 1.0),
            sweep_row("gnp", 4096, 1, 0.95),
            sweep_row("ba", 4096, 1, 0.90),
        ];
        // 0.90/0.95 = 0.947 of baseline: inside the 0.9 floor.
        let ok = vec![
            sweep_row("gnp", 4096, 1, 0.90),
            sweep_row("ba", 4096, 1, 0.89),
        ];
        let cmp = compare_sweep(&base, &ok);
        assert_eq!(cmp.matched.len(), 2);
        assert!(cmp.regressed.is_empty(), "{:?}", cmp.regressed);

        // 0.84/0.95 = 0.884 of baseline: below the floor.
        let bad = vec![
            sweep_row("gnp", 4096, 1, 0.84),
            sweep_row("ba", 4096, 1, 0.89),
        ];
        let cmp = compare_sweep(&base, &bad);
        assert_eq!(cmp.regressed.len(), 1);
        assert_eq!(cmp.regressed[0].0, "gnp");
    }

    #[test]
    fn sweep_gate_only_reads_one_thread_entries() {
        // A 2-thread collapse is a host-parallelism story, not an
        // overhead regression; only threads == 1 rows gate.
        let base = vec![
            sweep_row("gnp", 4096, 1, 0.95),
            sweep_row("gnp", 4096, 2, 1.80),
        ];
        let cur = vec![
            sweep_row("gnp", 4096, 1, 0.94),
            sweep_row("gnp", 4096, 2, 0.40),
        ];
        let cmp = compare_sweep(&base, &cur);
        assert_eq!(cmp.matched.len(), 1);
        assert!(cmp.regressed.is_empty());
        assert_eq!(cmp.unmatched, 0);
    }

    #[test]
    fn sweep_entries_on_one_side_only_are_skipped_not_fatal() {
        let base = vec![sweep_row("gnp", 16384, 1, 0.95)];
        let cur = vec![sweep_row("gnp", 4096, 1, 0.97)];
        let cmp = compare_sweep(&base, &cur);
        assert!(cmp.matched.is_empty());
        assert_eq!(cmp.unmatched, 2);
    }

    fn row(family: &str, n: u64, rps: f64) -> WorkloadRow {
        WorkloadRow {
            family: family.into(),
            n,
            rounds_per_sec: rps,
            messages_per_sec: rps * 10.0,
        }
    }

    #[test]
    fn within_budget_passes_and_regression_fails() {
        let base = vec![row("gnp", 1024, 100.0), row("regular", 1024, 50.0)];
        let ok = vec![row("gnp", 1024, 85.0), row("regular", 1024, 49.0)];
        let cmp = compare(&base, &ok, 0.20);
        assert!(cmp.regressed.is_empty());
        assert_eq!(cmp.matched.len(), 2);

        let bad = vec![row("gnp", 1024, 79.9), row("regular", 1024, 49.0)];
        let cmp = compare(&base, &bad, 0.20);
        assert_eq!(cmp.regressed.len(), 1);
        assert_eq!(cmp.regressed[0].0, "gnp");
    }

    #[test]
    fn zero_rate_rows_still_match_for_reporting() {
        // Non-positive rates are rejected at read time in main; compare()
        // itself must not silently reclassify such a pair as unmatched.
        let base = vec![row("gnp", 1024, 0.0)];
        let cur = vec![row("gnp", 1024, 100.0)];
        let cmp = compare(&base, &cur, 0.20);
        assert_eq!(cmp.matched.len(), 1);
        assert_eq!(cmp.unmatched, 0);
    }

    #[test]
    fn disjoint_sizes_match_nothing() {
        let base = vec![row("gnp", 16384, 100.0)];
        let cur = vec![row("gnp", 1024, 1000.0)];
        let cmp = compare(&base, &cur, 0.20);
        assert!(cmp.matched.is_empty());
        assert_eq!(cmp.unmatched, 2);
    }

    #[test]
    fn improvements_never_trip_the_gate() {
        let base = vec![row("gnp", 1024, 100.0)];
        let cur = vec![row("gnp", 1024, 250.0)];
        let cmp = compare(&base, &cur, 0.20);
        assert!(cmp.regressed.is_empty());
        assert!(cmp.matched[0].4 > 2.4);
    }
}
