//! Regression suite for the experiment runner: the seed-42 sweep against
//! its one golden record, `BENCH_baseline.json`; the serial/parallel
//! byte-identity guarantee of `--jobs`; and the wall-clock budgets that
//! keep the exponential blow-ups from returning.

use coalesce_bench::experiments::reductions;
use coalesce_bench::report::{first_difference, mask_timing, sweep_json};
use coalesce_bench::{run_experiment, run_reports, ExperimentId, ExperimentReport, Json};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The committed `--experiment all --seed 42` report.
const BASELINE: &str = include_str!("../BENCH_baseline.json");

/// The serial full sweep at seed 42, computed once and shared by every
/// test in this binary that needs it (the sweep is deterministic, so
/// sharing cannot mask cross-run differences).
fn serial_sweep() -> &'static [ExperimentReport] {
    static SWEEP: OnceLock<Vec<ExperimentReport>> = OnceLock::new();
    SWEEP.get_or_init(|| run_reports(&ExperimentId::ALL, 42, 1))
}

/// One report of [`serial_sweep`].
fn swept(id: ExperimentId) -> &'static ExperimentReport {
    serial_sweep()
        .iter()
        .find(|r| r.id == id)
        .expect("the sweep runs every experiment")
}

/// [`BASELINE`], parsed once.
fn baseline() -> &'static Json {
    static PARSED: OnceLock<Json> = OnceLock::new();
    PARSED.get_or_init(|| Json::parse(BASELINE).expect("BENCH_baseline.json parses"))
}

/// The reports of a sweep document, in order.
fn experiments(doc: &Json) -> &[Json] {
    doc.get("experiments")
        .and_then(Json::as_array)
        .expect("a sweep document")
}

/// The id (`"e13"`) of one report.
fn experiment_name(report: &Json) -> &str {
    report.get("experiment").and_then(Json::as_str).unwrap()
}

/// One experiment's report in [`BASELINE`], by id.
fn baseline_experiment(name: &str) -> &'static Json {
    experiments(baseline())
        .iter()
        .find(|e| experiment_name(e) == name)
        .unwrap_or_else(|| panic!("BENCH_baseline.json has no `{name}`"))
}

/// A report's deterministic rendering: the JSON the CLI writes, timing
/// fields dropped.
fn masked(report: &ExperimentReport) -> String {
    mask_timing(&report.to_json()).to_pretty_string()
}

/// Removes every `"stats"` pass-counter object, recursively, so a run
/// with the counter sink disabled (empty objects) can be compared to a
/// default-level run on all the *other* deterministic fields.
fn strip_stats(json: &Json) -> Json {
    match json {
        Json::Object(pairs) => Json::Object(
            pairs
                .iter()
                .filter(|(k, _)| k != "stats")
                .map(|(k, v)| (k.clone(), strip_stats(v)))
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.iter().map(strip_stats).collect()),
        other => other.clone(),
    }
}

/// Asserts that one seed-42 report equals its namesake in
/// `BENCH_baseline.json` outside timing fields, `stats` counters included,
/// naming the experiment and its first differing line otherwise.  A change
/// that moves a deterministic field on purpose edits exactly the values
/// this names, in `BENCH_baseline.json`.
fn assert_matches_baseline(report: &Json) {
    let name = experiment_name(report);
    let now = mask_timing(report).to_pretty_string();
    let base = mask_timing(baseline_experiment(name)).to_pretty_string();
    if let Some((line, now_line, base_line)) = first_difference(&now, &base) {
        panic!(
            "{name}: the seed-42 report differs from BENCH_baseline.json outside \
             timing fields, first at line {line} of the experiment's report:\n  \
             current:  {}\n  baseline: {}",
            now_line.trim(),
            base_line.trim()
        );
    }
}

/// `BENCH_baseline.json` is the one seed-42 golden record: outside the
/// timing fields, the serial sweep of all 18 experiments must reproduce it
/// byte for byte, `stats` counters included.
#[test]
fn the_seed_42_sweep_equals_the_committed_baseline() {
    assert!(
        baseline().to_pretty_string() == BASELINE,
        "BENCH_baseline.json is not the CLI's rendering of its own parse, so \
         its re-rendering below cannot be trusted"
    );
    let current = mask_timing(&sweep_json(42, serial_sweep()));
    for report in experiments(&current) {
        assert_matches_baseline(report);
    }
    assert!(
        current == mask_timing(baseline()),
        "the sweep's `base_seed` or experiment list differs from BENCH_baseline.json's"
    );
}

/// The sweep has the baseline's shape: the same experiments in the same
/// order, each with the same number of rows.
#[test]
fn the_sweep_matches_the_committed_baseline_invariants() {
    let reports = serial_sweep();
    let baseline_experiments = experiments(baseline());
    assert_eq!(baseline_experiments.len(), reports.len());
    for (report, base) in reports.iter().zip(baseline_experiments) {
        assert_eq!(report.id.as_str(), experiment_name(base));
        let base_rows = base.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(
            report.rows.len(),
            base_rows.len(),
            "{}: row count drifted from BENCH_baseline.json",
            report.id
        );
    }
}

/// E1 (Theorem 2: multiway cut equals optimal aggressive coalescing)
/// reproduces its golden record, the baseline's `e1` report.
#[test]
fn e1_seed_42_matches_the_golden_fixture() {
    assert_matches_baseline(&swept(ExperimentId::E1).to_json());
}

/// The baseline's E1 invariants hold: Theorem 2's
/// `min_cut == exact_uncoalesced` on every row.
#[test]
fn the_baseline_e1_is_internally_consistent() {
    let doc = baseline_experiment("e1");
    let rows = doc.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 4);
    for row in rows {
        assert_eq!(row.get("equal").and_then(Json::as_bool), Some(true));
    }
}

/// E13 (Theorem 1 on generated SSA programs: chordal interference graphs
/// colored with exactly `Maxlive` colors) reproduces its golden record,
/// the baseline's `e13` report.
#[test]
fn e13_seed_42_matches_the_golden_fixture() {
    assert_matches_baseline(&swept(ExperimentId::E13).to_json());
}

/// The baseline's E13 report covers the full 3-profile × 3-pressure sweep,
/// and its acceptance invariants hold on every row: strict SSA, reducible,
/// chordal, and a chordal coloring with exactly `Maxlive` colors.
#[test]
fn the_baseline_e13_is_internally_consistent() {
    let doc = baseline_experiment("e13");
    let rows = doc.get("rows").and_then(Json::as_array).unwrap();
    assert!(rows.len() >= 9, "3 profiles x 3 pressures at minimum");
    let mut cells = std::collections::BTreeSet::new();
    for row in rows {
        let profile = row.get("profile").and_then(Json::as_str).unwrap();
        let pressure = row.get("pressure").and_then(Json::as_str).unwrap();
        cells.insert((profile.to_owned(), pressure.to_owned()));
        for key in [
            "strict_ssa",
            "reducible",
            "chordal",
            "chordal_colors_eq_maxlive",
        ] {
            assert_eq!(row.get(key).and_then(Json::as_bool), Some(true), "{key}");
        }
        assert_eq!(
            row.get("chordal_colors").and_then(Json::as_u64),
            row.get("maxlive").and_then(Json::as_u64),
        );
    }
    assert_eq!(cells.len(), 9, "sweep must cross 3 profiles x 3 pressures");
}

/// E13's per-cell rows must not depend on `--jobs` (they are fanned over
/// the worker pool like E1/E4/E5/E7's).
#[test]
fn e13_rows_are_byte_identical_for_any_jobs_value() {
    let serial = swept(ExperimentId::E13).to_json().to_pretty_string();
    let parallel = coalesce_bench::run_experiment_with_jobs(ExperimentId::E13, 42, 4)
        .to_json()
        .to_pretty_string();
    assert_eq!(serial, parallel);
}

/// `--jobs 4` must produce byte-identical output to `--jobs 1` for the
/// full `--experiment all` sweep (the CLI's core determinism guarantee;
/// `run_reports` is exactly the function the binary calls).
#[test]
fn jobs_4_output_is_byte_identical_to_jobs_1_for_all_experiments() {
    let serialize =
        |reports: &[ExperimentReport]| mask_timing(&sweep_json(42, reports)).to_pretty_string();
    let serial = serialize(serial_sweep());
    let parallel = serialize(&run_reports(&ExperimentId::ALL, 42, 4));
    assert_eq!(
        serial, parallel,
        "--jobs must never change the deterministic report fields"
    );
}

/// E15 (data-structure scaling: bulk graphs, bitset liveness,
/// incremental spilling) reproduces its golden record, the baseline's
/// `e15` report.
#[test]
fn e15_seed_42_matches_the_golden_fixture() {
    assert_matches_baseline(&swept(ExperimentId::E15).to_json());
}

/// The baseline's E15 report covers the interval sweep up to n = 50 000 and
/// CFG programs of ≥ 2000 blocks, and its invariants hold: strict SSA,
/// chordal interference graphs with ω = Maxlive, and the declared
/// wall-clock budget field.
#[test]
fn the_baseline_e15_is_internally_consistent() {
    let doc = baseline_experiment("e15");
    let rows = doc.get("rows").and_then(Json::as_array).unwrap();
    let interval_ns: Vec<u64> = rows
        .iter()
        .filter(|r| r.get("kind").and_then(Json::as_str) == Some("interval"))
        .filter_map(|r| r.get("n").and_then(Json::as_u64))
        .collect();
    assert_eq!(interval_ns, vec![5_000, 20_000, 50_000]);
    let cfg_rows: Vec<&Json> = rows
        .iter()
        .filter(|r| r.get("kind").and_then(Json::as_str) == Some("cfg"))
        .collect();
    assert!(cfg_rows.len() >= 2);
    for row in cfg_rows {
        assert!(row.get("blocks").and_then(Json::as_u64).unwrap() >= 2000);
        assert_eq!(row.get("strict_ssa").and_then(Json::as_bool), Some(true));
        assert_eq!(
            row.get("chordal_omega_is_maxlive").and_then(Json::as_bool),
            Some(true)
        );
        // Spilling to the tight k must have brought pressure down to (or
        // near) the target; `maxlive_after` can only exceed `k` when an
        // instruction's operands alone do.
        let k = row.get("k").and_then(Json::as_u64).unwrap();
        let after = row.get("maxlive_after").and_then(Json::as_u64).unwrap();
        let before = row.get("maxlive").and_then(Json::as_u64).unwrap();
        assert!(after < before, "spilling must lower the precise Maxlive");
        assert!(after <= k + 2, "maxlive_after {after} far above k {k}");
    }
    assert_eq!(
        doc.get("summary")
            .and_then(|s| s.get("budget_ms"))
            .and_then(Json::as_u64),
        ExperimentId::E15.budget_ms(),
        "the report must embed the declared wall-clock budget"
    );
}

/// E15's rows must not depend on `--jobs` (they are fanned over the worker
/// pool like E1/E4/E5/E7/E13's).
#[test]
fn e15_rows_are_byte_identical_for_any_jobs_value() {
    let serial = swept(ExperimentId::E15).to_json().to_pretty_string();
    let parallel = coalesce_bench::run_experiment_with_jobs(ExperimentId::E15, 42, 4)
        .to_json()
        .to_pretty_string();
    assert_eq!(serial, parallel);
}

/// E16 (whole-module parallel allocation over the flat IR) reproduces its
/// golden record, the baseline's `e16` report.
#[test]
fn e16_seed_42_matches_the_golden_fixture() {
    assert_matches_baseline(&swept(ExperimentId::E16).to_json());
}

/// The baseline's E16 report covers the full 3-profile × 3-pressure grid
/// with the whole 1000-function module accounted for, and its invariants
/// hold: strict SSA everywhere, a sane flat-IR footprint (≥ the 16-byte
/// instruction record, under 100 bytes/instr), non-negative aggregate
/// spill fields, the declared wall-clock budget, and a positive measured
/// throughput.
#[test]
fn the_baseline_e16_is_internally_consistent() {
    let doc = baseline_experiment("e16");
    let rows = doc.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 9, "3 profiles x 3 pressures");
    let mut cells = std::collections::BTreeSet::new();
    let mut functions = 0;
    for row in rows {
        let profile = row.get("profile").and_then(Json::as_str).unwrap();
        let pressure = row.get("pressure").and_then(Json::as_str).unwrap();
        cells.insert((profile.to_owned(), pressure.to_owned()));
        functions += row.get("functions").and_then(Json::as_u64).unwrap();
        let bpi = row
            .get("bytes_per_instr_x100")
            .and_then(Json::as_u64)
            .unwrap();
        assert!(
            (1600..10_000).contains(&bpi),
            "{profile}/{pressure}: {bpi} centibytes/instr outside the sane range"
        );
        for key in ["spilled", "reloads", "spill_weight", "ir_bytes"] {
            assert!(
                row.get(key).and_then(Json::as_u64).is_some(),
                "{profile}/{pressure}: `{key}` missing or negative"
            );
        }
    }
    assert_eq!(cells.len(), 9, "grid must cross 3 profiles x 3 pressures");
    assert_eq!(functions, 1000, "the whole module must be accounted for");
    let summary = doc.get("summary").unwrap();
    assert_eq!(
        summary.get("strict_ssa_all").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        summary.get("budget_ms").and_then(Json::as_u64),
        ExperimentId::E16.budget_ms(),
        "the report must embed the declared wall-clock budget"
    );
    assert!(summary.get("functions_per_sec").and_then(Json::as_u64) > Some(0));
}

/// E16's rows must not depend on `--jobs`: the per-function work fans over
/// the worker pool, and everything except the masked throughput summary
/// is byte-identical for any jobs value.
#[test]
fn e16_rows_are_byte_identical_for_any_jobs_value() {
    let parallel = coalesce_bench::run_experiment_with_jobs(ExperimentId::E16, 42, 4);
    assert_eq!(masked(swept(ExperimentId::E16)), masked(&parallel));
}

/// The E16 wall-clock budget: generating, analysing and spilling the whole
/// 1000-function module must finish within the declared 10-second budget
/// even serially in debug (release with `--jobs` runs in a fraction of
/// it).  A per-function superlinearity anywhere in the flat-IR pipeline —
/// generation, liveness, spilling — blows this immediately at 1000
/// functions.
#[test]
fn e16_module_allocation_stays_within_the_wall_clock_budget() {
    let start = Instant::now();
    let report = coalesce_bench::experiments::module::e16_report_with_jobs(42, 1);
    let elapsed = start.elapsed();
    assert_eq!(report.rows.len(), 9);
    let budget = Duration::from_millis(ExperimentId::E16.budget_ms().unwrap());
    assert!(
        elapsed < budget,
        "whole-module allocation took {elapsed:?} (budget: {budget:?}) — check \
         the flat-IR generation/liveness/spill pipeline for a superlinear step"
    );
}

/// E17 (rival spillers: everywhere, pressure-greedy and Belady) reproduces
/// its golden record, the baseline's `e17` report.
#[test]
fn e17_seed_42_matches_the_golden_fixture() {
    assert_matches_baseline(&swept(ExperimentId::E17).to_json());
}

/// The baseline's E17 report shows the rival-spiller sweep is complete and
/// sane: every grid cell ran under all three strategies, the module slice
/// accounts for the same functions under each, every strategy honoured
/// the pressure contract (`maxlive_after ≤ k + 1` on grid cells, where
/// the cell's `k` is far above any structural floor), and the naive
/// spill-everywhere baseline never beats a rival on loop-weighted spill
/// weight (it spills whole candidate sets at once — if a rival ever costs
/// more, its cost model regressed).
#[test]
fn the_baseline_e17_is_internally_consistent() {
    let doc = baseline_experiment("e17");
    let rows = doc.get("rows").and_then(Json::as_array).unwrap();
    let spiller_of = |r: &Json| r.get("spiller").and_then(Json::as_str).unwrap().to_owned();
    let grid: Vec<&Json> = rows
        .iter()
        .filter(|r| r.get("scope").and_then(Json::as_str) == Some("grid"))
        .collect();
    let module: Vec<&Json> = rows
        .iter()
        .filter(|r| r.get("scope").and_then(Json::as_str) == Some("module"))
        .collect();
    assert_eq!(grid.len(), 30, "10 grid cells x 3 spillers");
    assert_eq!(module.len(), 3, "one module aggregate per spiller");
    let mut cells = std::collections::BTreeSet::new();
    for row in &grid {
        cells.insert((
            spiller_of(row),
            row.get("profile")
                .and_then(Json::as_str)
                .unwrap()
                .to_owned(),
            row.get("pressure")
                .and_then(Json::as_str)
                .unwrap()
                .to_owned(),
            row.get("reuse_window").and_then(Json::as_u64).unwrap(),
        ));
        let k = row.get("k").and_then(Json::as_u64).unwrap();
        let after = row.get("maxlive_after").and_then(Json::as_u64).unwrap();
        let before = row.get("maxlive").and_then(Json::as_u64).unwrap();
        assert!(
            after <= before,
            "spilling must never raise the precise Maxlive"
        );
        assert!(
            after <= k + 1,
            "{}: maxlive_after {after} above k + 1 = {}",
            spiller_of(row),
            k + 1
        );
    }
    assert_eq!(cells.len(), 30, "every (spiller, cell) pair exactly once");
    for rows in [&grid, &module] {
        let weight = |name: &str| -> u64 {
            rows.iter()
                .filter(|r| spiller_of(r) == name)
                .map(|r| r.get("spill_weight").and_then(Json::as_u64).unwrap())
                .sum()
        };
        let everywhere = weight("everywhere");
        assert!(weight("pressure-greedy") <= everywhere);
        assert!(weight("belady") <= everywhere);
    }
    for row in &module {
        assert_eq!(row.get("functions").and_then(Json::as_u64), Some(150));
        assert!(row.get("within_k").and_then(Json::as_u64).unwrap() <= 150);
    }
    let summary = doc.get("summary").unwrap();
    assert_eq!(
        summary.get("budget_ms").and_then(Json::as_u64),
        ExperimentId::E17.budget_ms(),
        "the report must embed the declared wall-clock budget"
    );
}

/// E17's rows must not depend on `--jobs`: the grid cells and module
/// functions fan over the worker pool, and everything except the masked
/// wall-clock summary lines is byte-identical for any jobs value.
#[test]
fn e17_rows_are_byte_identical_for_any_jobs_value() {
    let parallel = coalesce_bench::run_experiment_with_jobs(ExperimentId::E17, 42, 4);
    assert_eq!(masked(swept(ExperimentId::E17)), masked(&parallel));
}

/// The E17 wall-clock budget: running all three spillers over the full
/// grid and the 150-function module slice must finish within the declared
/// 10-second budget even serially in debug.  A superlinear step in any
/// spiller — the Belady fixpoint rounds included — blows this immediately.
#[test]
fn e17_rival_spillers_stay_within_the_wall_clock_budget() {
    let start = Instant::now();
    let report = coalesce_bench::experiments::spillers::e17_report_with_jobs(42, 1);
    let elapsed = start.elapsed();
    assert_eq!(report.rows.len(), 33);
    let budget = Duration::from_millis(ExperimentId::E17.budget_ms().unwrap());
    assert!(
        elapsed < budget,
        "the rival-spiller sweep took {elapsed:?} (budget: {budget:?}) — \
         check the spillers (including the Belady decision fixpoint) for a \
         superlinear step"
    );
}

/// Every experiment with a wall-clock guard must embed its declared
/// `budget_ms` in the summary, and no other experiment may carry one (the
/// baseline then pins the value like every other deterministic field).
#[test]
fn guarded_experiments_declare_their_budget_in_the_summary() {
    for report in serial_sweep() {
        let declared = report.id.budget_ms();
        let embedded = report
            .summary
            .iter()
            .find(|(k, _)| k == "budget_ms")
            .and_then(|(_, v)| v.as_u64());
        assert_eq!(embedded, declared, "{}", report.id);
    }
}

/// The tentpole guarantee of `coalesce-stats`: every E13–E17 row and
/// summary embeds a non-empty `"stats"` pass-counter object, so the
/// per-pass work (spill victims, solver nodes, MCS bucket operations,
/// liveness worklist iterations, coalescing decisions) is visible in every
/// experiment artifact.
#[test]
fn e13_to_e17_rows_and_summaries_carry_pass_counters() {
    let ids = [
        ExperimentId::E13,
        ExperimentId::E14,
        ExperimentId::E15,
        ExperimentId::E16,
        ExperimentId::E17,
    ];
    for id in ids {
        let report = swept(id);
        for (i, row) in report.rows.iter().enumerate() {
            let Some(Json::Object(stats)) = row.get("stats") else {
                panic!("{id} row {i}: missing `stats` counter object");
            };
            assert!(!stats.is_empty(), "{id} row {i}: empty `stats` object");
        }
        let Some((_, Json::Object(stats))) = report.summary.iter().find(|(k, _)| k == "stats")
        else {
            panic!("{id} summary: missing `stats` counter object");
        };
        assert!(!stats.is_empty(), "{id} summary: empty `stats` object");
        // Timing never leaks into the deterministic counter objects.
        for (key, _) in stats {
            assert!(
                !key.ends_with("_ns") && !key.ends_with("_us") && !key.ends_with("_ms"),
                "{id}: timing field `{key}` inside the stats object"
            );
        }
    }
}

/// The embedded pass counters must be byte-identical for any `--jobs`
/// value: each work unit collects its counters on whichever worker thread
/// runs it, and the results come back in input order, so the fan-out width
/// can never change a single count.  `--jobs 4` is covered by the
/// per-experiment identity tests above; this pushes the counter-bearing
/// experiments through `--jobs 8` as well.
#[test]
fn pass_counters_are_byte_identical_across_jobs_1_4_8() {
    let ids = [
        ExperimentId::E13,
        ExperimentId::E14,
        ExperimentId::E15,
        ExperimentId::E16,
        ExperimentId::E17,
    ];
    for id in ids {
        let jobs8 = coalesce_bench::run_experiment_with_jobs(id, 42, 8);
        assert_eq!(
            masked(swept(id)),
            masked(&jobs8),
            "{id}: --jobs 8 changed a deterministic field (counters included)"
        );
    }
}

/// Repeated runs of the same experiment in one process must agree byte for
/// byte, counters included — the counter sink is per-collect-frame, so no
/// state can leak from one run into the next.
#[test]
fn pass_counters_are_byte_identical_across_repeated_runs() {
    let first = run_experiment(ExperimentId::E13, 42)
        .to_json()
        .to_pretty_string();
    let second = run_experiment(ExperimentId::E13, 42)
        .to_json()
        .to_pretty_string();
    assert_eq!(first, second);
}

/// The `Level::Off` fast path: with the sink disabled the whole E16 module
/// pipeline must still meet its declared wall-clock budget (the counter
/// macros collapse to a single early-return), the counter objects come
/// back empty, and every *other* deterministic field is byte-identical to
/// the default-level run — proving the counters observe the passes without
/// steering them.
#[test]
fn e16_with_stats_off_meets_the_budget_and_changes_nothing_else() {
    let start = Instant::now();
    // `--jobs 1` keeps the work on this thread, where the thread-local
    // Off override is in force; the dispatch wrapper appends `budget_ms`
    // exactly like the sweep does.
    let report = coalesce_stats::with_level(coalesce_stats::Level::Off, || {
        coalesce_bench::run_experiment_with_jobs(ExperimentId::E16, 42, 1)
    });
    let elapsed = start.elapsed();
    let budget = Duration::from_millis(ExperimentId::E16.budget_ms().unwrap());
    assert!(
        elapsed < budget,
        "E16 with stats Off took {elapsed:?} (budget: {budget:?}) — the \
         disabled counter path must stay off the hot loops"
    );
    for (i, row) in report.rows.iter().enumerate() {
        let Some(Json::Object(stats)) = row.get("stats") else {
            panic!("row {i}: missing `stats` object");
        };
        assert!(stats.is_empty(), "row {i}: Off-level run still counted");
    }
    let deterministic =
        |r: &ExperimentReport| mask_timing(&strip_stats(&r.to_json())).to_pretty_string();
    assert_eq!(
        deterministic(&report),
        deterministic(swept(ExperimentId::E16)),
        "disabling the counter sink changed a deterministic report field"
    );
}

/// The E4 perf-regression budget: all 6 reduction rows of the acceptance
/// seed must finish well under 2 seconds (the seed's naive backtracker
/// took ~25 s in *release*; the pruned solver takes milliseconds, so a
/// generous budget still catches any exponential regression).
#[test]
fn e4_rows_finish_within_the_wall_clock_budget() {
    let start = Instant::now();
    let seeds: Vec<u64> = (0..6u64).map(|s| 42 + 40 + s).collect();
    for &seed in &seeds {
        let row = reductions::e4_row(seed);
        assert!(
            row.invariant_holds(),
            "seed {seed}: Theorem 4 equivalence violated: {row:?}"
        );
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "E4's 6 reduction rows took {elapsed:?} (budget: 2 s) — the \
         exponential blow-up is back; check the ExactSolver prunings"
    );
}

/// The clique-tree perf-regression budget (mirroring the E4 one): building
/// the clique tree of a 2000-vertex random interval graph (~312 k
/// interference edges at the E5 sweep's density) must finish well under
/// 2 seconds.  The pre-Blair–Peyton pipeline was quadratic at every stage
/// (O(n²) MCS scans, O(m²) subset checks, all-pairs Kruskal) and would
/// blow this budget by orders of magnitude; the linear construction takes
/// tens of milliseconds.
#[test]
fn clique_tree_build_at_n_2000_stays_within_the_wall_clock_budget() {
    let n = 2000usize;
    let mut rng = coalesce_gen::rng(42 + n as u64);
    let (g, _) = coalesce_gen::graphs::random_interval_graph(n, 3 * n, n / 2 + 2, &mut rng);
    let start = Instant::now();
    let tree =
        coalesce_graph::cliquetree::CliqueTree::build(&g).expect("interval graphs are chordal");
    let elapsed = start.elapsed();
    assert!(tree.num_nodes() > 0 && tree.clique_number() > 0);
    assert!(
        elapsed < Duration::from_secs(2),
        "CliqueTree::build at n = {n} took {elapsed:?} (budget: 2 s) — the \
         quadratic clique-tree construction is back; check the Blair–Peyton \
         sweep in coalesce_graph::chordal"
    );
}

/// The E15 graph-backend budget: bulk-building the n = 20 000 interval
/// instance *and* its clique tree must finish well under 2 seconds (the
/// release path runs in a few hundred milliseconds).  A per-edge ordered
/// insertion or a quadratic sweep anywhere in `Graph::from_edges` /
/// `random_interval_graph` / the MCS pipeline blows this budget
/// immediately at this size.
#[test]
fn e15_interval_build_at_n_20k_stays_within_the_wall_clock_budget() {
    let n = 20_000usize;
    let start = Instant::now();
    let g = coalesce_bench::experiments::scaling::e15_interval_graph(42, n);
    let tree =
        coalesce_graph::cliquetree::CliqueTree::build(&g).expect("interval graphs are chordal");
    let elapsed = start.elapsed();
    assert_eq!(g.num_vertices(), n);
    assert!(g.num_edges() > 100_000, "instance density collapsed");
    assert!(tree.num_nodes() > 0 && tree.clique_number() > 0);
    assert!(
        elapsed < Duration::from_secs(2),
        "building the n = {n} interval graph + clique tree took {elapsed:?} \
         (budget: 2 s) — check the bulk `Graph::from_edges` path and the \
         sorted-row adjacency backend"
    );
}

/// The incremental-spiller budget: spilling a ≥ 2000-block generated
/// program to a tight `k` must finish well under 4 seconds (release: a
/// fraction of that).  The seed recomputed full liveness and a whole-
/// function candidate scan per victim, which blows this budget by an
/// order of magnitude at this size.
#[test]
fn e15_cfg_spill_at_2k_blocks_stays_within_the_wall_clock_budget() {
    use coalesce_gen::cfg::ShapeProfile;
    let mut f = coalesce_bench::experiments::scaling::e15_cfg_program(42, ShapeProfile::IntBranchy);
    assert!(f.num_blocks() >= 2000);
    let live = coalesce_ir::Liveness::compute(&f);
    let k = coalesce_ir::spill::tight_k(live.maxlive_precise(&f));
    let start = Instant::now();
    let result = coalesce_ir::spill::spill_to_pressure(&mut f, k);
    let elapsed = start.elapsed();
    assert!(!result.spilled.is_empty());
    assert!(
        elapsed < Duration::from_secs(4),
        "spill_to_pressure on a {}-block program took {elapsed:?} (budget: \
         4 s) — the per-victim full recomputation is back; check the \
         incremental liveness patch and the cached block statistics",
        f.num_blocks()
    );
}

/// E18 (chaos soak through the allocation service) reproduces its golden
/// record, the baseline's `e18` report.
#[test]
fn e18_seed_42_matches_the_golden_fixture() {
    assert_matches_baseline(&swept(ExperimentId::E18).to_json());
}

/// The baseline's E18 report shows the chaos soak's acceptance invariants
/// hold: every request kind answered, every request accounted for (the
/// per-kind buckets plus the fault-labelled buckets cover the whole
/// trace), the fault rate met its declared ≥ 5% floor, nothing failed
/// re-verification, and the zero-crash invariant held — every worker
/// exited cleanly despite the injected parser garbage and panic requests.
#[test]
fn the_baseline_e18_is_internally_consistent() {
    let doc = baseline_experiment("e18");
    let rows = doc.get("rows").and_then(Json::as_array).unwrap();
    // Fault lines are bucketed twice by design: once under the generic
    // `fault` kind and once under their specific fault label, so the
    // per-flavour outcomes stay visible without disturbing the per-kind
    // accounting.
    let kinds = ["dimacs", "challenge", "cfg", "module_slice", "fault"];
    let mut kind_total = 0;
    let mut fault_kind_total = 0;
    let mut fault_label_total = 0;
    for row in rows {
        let bucket = row.get("bucket").and_then(Json::as_str).unwrap();
        let count = row.get("count").and_then(Json::as_u64).unwrap();
        assert!(count > 0, "{bucket}: empty buckets must not be emitted");
        if kinds.contains(&bucket) {
            kind_total += count;
            if bucket == "fault" {
                fault_kind_total += count;
            }
        } else {
            fault_label_total += count;
        }
    }
    for kind in kinds {
        assert!(
            rows.iter()
                .any(|r| r.get("bucket").and_then(Json::as_str) == Some(kind)),
            "trace must exercise the `{kind}` request kind"
        );
    }
    let summary = doc.get("summary").unwrap();
    let field = |k: &str| summary.get(k).and_then(Json::as_u64).unwrap();
    let requests = field("requests");
    assert_eq!(kind_total, requests, "every request bucketed exactly once");
    assert_eq!(fault_kind_total, field("fault_lines"));
    assert_eq!(
        fault_label_total, fault_kind_total,
        "labels re-bucket every fault line"
    );
    assert!(
        field("fault_lines") * 100 >= requests * field("fault_percent_min"),
        "fault injection below the declared floor"
    );
    assert_eq!(field("ok") + field("degraded") + field("errors"), requests);
    assert_eq!(field("verify_failures"), 0);
    assert!(field("verified_ok") > 0, "re-verification must have run");
    assert_eq!(
        summary.get("zero_crashes").and_then(Json::as_bool),
        Some(true),
        "the zero-crash invariant is E18's acceptance criterion"
    );
    assert_eq!(field("clean_worker_exits"), field("workers"));
    assert_eq!(
        summary.get("budget_ms").and_then(Json::as_u64),
        ExperimentId::E18.budget_ms(),
        "the report must embed the declared wall-clock budget"
    );
}

/// E18's rows must not depend on `--jobs`: requests are submitted
/// blocking and every engine decision is structural (budget estimates,
/// size gates), so the bucket rows are byte-identical for any pool width.
/// The summary is compared after masking the measured throughput/latency
/// lines *and* the two fields that legitimately scale with the pool
/// (`workers`, `clean_worker_exits`).
#[test]
fn e18_rows_are_byte_identical_for_any_jobs_value() {
    let serial = swept(ExperimentId::E18);
    let parallel = coalesce_bench::run_experiment_with_jobs(ExperimentId::E18, 42, 4);
    let rows = |r: &ExperimentReport| Json::Array(r.rows.clone()).to_pretty_string();
    assert_eq!(
        rows(serial),
        rows(&parallel),
        "bucket rows must not depend on --jobs"
    );
    let summary = |r: &ExperimentReport| {
        mask_timing(&Json::Object(
            r.summary
                .iter()
                .filter(|(k, _)| k != "workers" && k != "clean_worker_exits")
                .cloned()
                .collect(),
        ))
        .to_pretty_string()
    };
    assert_eq!(
        summary(serial),
        summary(&parallel),
        "--jobs changed a deterministic E18 summary field"
    );
}

/// The E18 wall-clock budget: replaying the full fault-injected trace
/// through the live worker pool must finish within the declared 10-second
/// budget even serially in debug (the measured runs take a fraction of
/// it).  A stall here means a worker deadlocked or the backpressure path
/// stopped draining.
#[test]
fn e18_chaos_soak_stays_within_the_wall_clock_budget() {
    let start = Instant::now();
    let report = coalesce_bench::experiments::soak::e18_report_with_jobs(42, 1);
    let elapsed = start.elapsed();
    assert!(!report.rows.is_empty());
    let budget = Duration::from_millis(ExperimentId::E18.budget_ms().unwrap());
    assert!(
        elapsed < budget,
        "the chaos soak took {elapsed:?} (budget: {budget:?}) — check the \
         serving queue for a stall or a dead worker"
    );
}
