//! Committed recovery benchmark: the data behind `BENCH_recovery.json`
//! at the repository root (DESIGN.md §11, EXPERIMENTS.md "Recovery").
//!
//! The same Internet2 arrival/departure timeline as `BENCH_online.json`
//! is streamed twice, back to back in one process: once through a plain
//! [`OrchestrationLoop`] and once through the write-ahead-journaled
//! [`JournaledLoop`], both with rule compilation on. The events/second
//! delta between the two runs *is* the journal's append + snapshot +
//! fabric-mirroring overhead — measured on the same build, machine and
//! timeline, which is the only apples-to-apples comparison there is (the
//! wall-clock numbers inside `BENCH_online.json` come from whatever box
//! regenerated that file). The committed artifact must keep the overhead
//! at or below [`MAX_OVERHEAD_PCT`].
//!
//! After the journaled run the store is recovered three ways — from the
//! latest snapshot, from a mid-run snapshot (copied out as the run passes
//! it, since the store keeps only its newest two), and from the bare
//! journal with every snapshot withheld — timing each, which is the
//! "recovery wall time vs journal length" trade the snapshot period buys.
//! The recovered state must be digest-identical to the live loop's.

use crate::online::{run_config, FULL_MIN_EVENTS, SEED};
use crate::trajectory::Scope;
use apple_core::online::OrchestrationLoop;
use apple_core::orchestrator::ResourceOrchestrator;
use apple_core::recovery::{
    recover, state_digest, JournaledLoop, RecoveryConfig, RecoverySetup, SharedFabric,
};
use apple_faults::CrashPoint;
use apple_journal::{JournalStore, MemStore, SharedMemStore};
use apple_sim::online::build_timeline;
use apple_telemetry::json::{write_num, write_str, Json};
use apple_telemetry::NOOP;
use apple_topology::TopologyKind;
use std::time::Instant;

/// Schema tag carried by `BENCH_recovery.json`.
pub const RECOVERY_SCHEMA: &str = "apple-bench-recovery-v1";
/// Maximum events/sec regression the journal may cost (`--check` rejects
/// committed files above this).
pub const MAX_OVERHEAD_PCT: f64 = 10.0;
/// Intents between snapshots during the journaled run.
pub const SNAPSHOT_EVERY: u64 = 64;

/// One timed recovery of the journaled run's store.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// Which snapshot set the store offered: `latest`, `mid` or `none`.
    pub label: String,
    /// Snapshot sequence recovery started from (`None` = genesis replay).
    pub snapshot_seq: Option<u64>,
    /// Intent records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Wall-clock of the recover call (ms).
    pub recover_ms: f64,
    /// Recovered state digest equals the live loop's.
    pub digest_match: bool,
}

/// One topology's recovery benchmark row.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Topology name.
    pub topology: String,
    /// Events streamed through each loop.
    pub events: u64,
    /// Plain-loop throughput (events/sec, rules compiled, no journal).
    pub baseline_events_per_sec: f64,
    /// Journaled-loop throughput (events/sec).
    pub journaled_events_per_sec: f64,
    /// `(baseline - journaled) / baseline * 100` — the journal's cost.
    pub overhead_pct: f64,
    /// Records appended across the run (intents, commits, barriers).
    pub journal_records: u64,
    /// Journal bytes written.
    pub journal_bytes: u64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Size of the final snapshot (bytes).
    pub snapshot_bytes: u64,
    /// The three timed recoveries.
    pub recoveries: Vec<RecoveryPoint>,
}

/// The run configuration for one scope: the `BENCH_online.json` timeline
/// with rule compilation forced on (journaling without a data plane to
/// mirror would measure nothing) and a shorter smoke horizon — every
/// event pays a compile + diff here, and the three recovery replays
/// re-pay it, so the online smoke horizon would hold the `ci` stage
/// hostage.
#[must_use]
pub fn recovery_run_config(scope: Scope) -> apple_sim::online::OnlineRunConfig {
    let mut c = run_config(scope);
    if scope == Scope::Smoke {
        c.horizon_secs = 4.0;
    }
    c.online.compile_rules = true;
    c
}

/// Streams the scope's Internet2 timeline through a plain and a journaled
/// loop, then times recovery from latest/mid/no snapshot.
///
/// # Panics
///
/// Panics if a journal append fails (the in-memory store cannot) or the
/// recovered state diverges from the live loop — either would mean the
/// recovery subsystem itself is broken, which a benchmark must not paper
/// over.
#[must_use]
pub fn run_recovery(scope: Scope, threads: usize) -> Vec<RecoveryRow> {
    let mut cfg = recovery_run_config(scope);
    cfg.online.engine.threads = threads;
    run_with(&cfg)
}

fn run_with(cfg: &apple_sim::online::OnlineRunConfig) -> Vec<RecoveryRow> {
    let cfg = cfg.clone();
    let topo = TopologyKind::Internet2.build();
    let timeline = build_timeline(&topo, &cfg);
    let events = timeline.len() as u64;

    // Baseline: plain loop, rules compiled, no journal.
    let orch = ResourceOrchestrator::with_uniform_hosts(&topo, cfg.host_cores);
    let mut plain = OrchestrationLoop::new(&topo, orch, cfg.online.clone());
    let t0 = Instant::now();
    for event in timeline.events() {
        plain.step(event, &NOOP);
    }
    let baseline_secs = t0.elapsed().as_secs_f64();

    // Journaled run over a retained in-memory store.
    let setup = RecoverySetup {
        topo: topo.clone(),
        cfg: cfg.online.clone(),
        recovery: RecoveryConfig {
            snapshot_every: SNAPSHOT_EVERY,
        },
        host_cores: cfg.host_cores,
    };
    let store = SharedMemStore::new();
    let mut journaled = JournaledLoop::new(
        &setup,
        store.clone(),
        SharedFabric::new(),
        CrashPoint::never(),
    );
    // The store keeps only its newest snapshots, so the `mid` recovery's
    // snapshot is copied out as the run passes it, off the clock.
    let mid = mid_seq(events);
    let mut mid_store = None;
    let mut journaled_secs = 0.0;
    let mut t0 = Instant::now();
    for event in timeline.events() {
        journaled
            .step(event, &NOOP)
            .expect("in-memory journal append cannot fail");
        if Some(journaled.seq()) == mid {
            journaled_secs += t0.elapsed().as_secs_f64();
            mid_store = Some(store.inner());
            t0 = Instant::now();
        }
    }
    journaled_secs += t0.elapsed().as_secs_f64();

    let stats = journaled.journal_stats();
    let live_digest = state_digest(journaled.inner());
    let full = store.inner();
    let last_snap = full
        .snapshot_seqs()
        .expect("in-memory store cannot fail")
        .last()
        .copied();
    let snapshot_bytes = last_snap
        .and_then(|s| full.snapshot_bytes(s).map(<[u8]>::len))
        .unwrap_or(0) as u64;

    let mut recoveries = Vec::new();
    recoveries.push(timed_recovery("latest", &setup, full.clone(), live_digest));
    if let Some(mut mid_store) = mid_store {
        // The mid-run snapshots over the whole run's journal.
        mid_store.set_journal_bytes(full.journal_bytes().to_vec());
        recoveries.push(timed_recovery("mid", &setup, mid_store, live_digest));
    }
    recoveries.push(timed_recovery(
        "none",
        &setup,
        journal_only(&full),
        live_digest,
    ));

    let baseline_eps = events as f64 / baseline_secs.max(1e-9);
    let journaled_eps = events as f64 / journaled_secs.max(1e-9);
    vec![RecoveryRow {
        topology: TopologyKind::Internet2.name().to_string(),
        events,
        baseline_events_per_sec: baseline_eps,
        journaled_events_per_sec: journaled_eps,
        overhead_pct: (baseline_eps - journaled_eps) / baseline_eps * 100.0,
        journal_records: stats.appends,
        journal_bytes: stats.bytes,
        snapshots: stats.snapshots,
        snapshot_bytes,
        recoveries,
    }]
}

/// The newest snapshot at or below half the seq of the last snapshot an
/// `events`-step run writes (`None` when the run writes fewer than two).
fn mid_seq(events: u64) -> Option<u64> {
    let last = events / SNAPSHOT_EVERY * SNAPSHOT_EVERY;
    let mid = last / 2 / SNAPSHOT_EVERY * SNAPSHOT_EVERY;
    (mid > 0).then_some(mid)
}

/// A store with the full journal and no snapshots at all.
fn journal_only(store: &MemStore) -> MemStore {
    let mut out = MemStore::new();
    out.set_journal_bytes(store.journal_bytes().to_vec());
    out
}

fn timed_recovery(
    label: &str,
    setup: &RecoverySetup,
    store: MemStore,
    live_digest: u32,
) -> RecoveryPoint {
    let t0 = Instant::now();
    let (recovered, report) =
        recover(setup, store, SharedFabric::new(), &NOOP).expect("benchmark store is not torn");
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    RecoveryPoint {
        label: label.to_string(),
        snapshot_seq: report.snapshot_seq,
        records_replayed: report.records_replayed,
        recover_ms,
        digest_match: state_digest(recovered.inner()) == live_digest,
    }
}

/// Serialises recovery rows to the [`RECOVERY_SCHEMA`] JSON document.
#[must_use]
pub fn recovery_json(rows: &[RecoveryRow], scope: Scope, threads: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": ");
    write_str(&mut out, RECOVERY_SCHEMA);
    out.push_str(",\n  \"seed\": ");
    write_num(&mut out, SEED as f64);
    out.push_str(",\n  \"threads\": ");
    write_num(&mut out, threads.max(1) as f64);
    out.push_str(",\n  \"scope\": ");
    write_str(
        &mut out,
        match scope {
            Scope::Smoke => "smoke",
            Scope::Full => "full",
        },
    );
    out.push_str(",\n  \"scenarios\": [");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"topology\": ");
        write_str(&mut out, &r.topology);
        for (key, v) in [
            ("events", r.events as f64),
            ("baseline_events_per_sec", r.baseline_events_per_sec),
            ("journaled_events_per_sec", r.journaled_events_per_sec),
            ("overhead_pct", r.overhead_pct),
            ("journal_records", r.journal_records as f64),
            ("journal_bytes", r.journal_bytes as f64),
            ("snapshots", r.snapshots as f64),
            ("snapshot_bytes", r.snapshot_bytes as f64),
        ] {
            out.push_str(",\n     \"");
            out.push_str(key);
            out.push_str("\": ");
            write_num(&mut out, v);
        }
        out.push_str(",\n     \"recoveries\": [");
        for (j, p) in r.recoveries.iter().enumerate() {
            out.push_str(if j == 0 { "\n" } else { ",\n" });
            out.push_str("      {\"label\": ");
            write_str(&mut out, &p.label);
            out.push_str(", \"snapshot_seq\": ");
            write_num(&mut out, p.snapshot_seq.map_or(-1.0, |s| s as f64));
            out.push_str(", \"records_replayed\": ");
            write_num(&mut out, p.records_replayed as f64);
            out.push_str(", \"recover_ms\": ");
            write_num(&mut out, p.recover_ms);
            out.push_str(", \"digest_match\": ");
            write_num(&mut out, f64::from(u8::from(p.digest_match)));
            out.push('}');
        }
        out.push_str("\n     ]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn require<'a>(obj: &'a Json, key: &str, path: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{path}: missing required field `{key}`"))
}

fn require_num(obj: &Json, key: &str, path: &str) -> Result<f64, String> {
    require(obj, key, path)?
        .as_num()
        .ok_or_else(|| format!("{path}.{key}: expected a number"))
}

/// Validates a `BENCH_recovery.json` document against [`RECOVERY_SCHEMA`].
///
/// Beyond field presence and types this enforces what the benchmark is
/// supposed to demonstrate: journaling costs at most [`MAX_OVERHEAD_PCT`]
/// of the plain loop's events/sec, every recovery reproduced the live
/// state digest, and the three snapshot variants (`latest`, `none`, and
/// `mid` whenever the run wrote two or more snapshots) are all present,
/// with the journal-only replay covering at least as many records as the
/// snapshot-assisted ones.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn check_recovery(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("parse error: {e}"))?;
    let got = require(&doc, "schema", "$")?
        .as_str()
        .ok_or("$.schema: expected a string")?;
    if got != RECOVERY_SCHEMA {
        return Err(format!(
            "$.schema: expected \"{RECOVERY_SCHEMA}\", got \"{got}\""
        ));
    }
    require_num(&doc, "seed", "$")?;
    require_num(&doc, "threads", "$")?;
    let scope = require(&doc, "scope", "$")?
        .as_str()
        .ok_or("$.scope: expected a string")?;
    if scope != "smoke" && scope != "full" {
        return Err(format!("$.scope: expected smoke|full, got \"{scope}\""));
    }
    let arr = require(&doc, "scenarios", "$")?
        .as_arr()
        .ok_or("$.scenarios: expected an array")?;
    if arr.is_empty() {
        return Err("$.scenarios: must not be empty".to_string());
    }
    for (i, s) in arr.iter().enumerate() {
        let path = format!("$.scenarios[{i}]");
        require(s, "topology", &path)?
            .as_str()
            .ok_or_else(|| format!("{path}.topology: expected a string"))?;
        for key in [
            "events",
            "baseline_events_per_sec",
            "journaled_events_per_sec",
            "overhead_pct",
            "journal_records",
            "journal_bytes",
            "snapshots",
            "snapshot_bytes",
        ] {
            require_num(s, key, &path)?;
        }
        if require_num(s, "baseline_events_per_sec", &path)? <= 0.0 {
            return Err(format!("{path}.baseline_events_per_sec: must be positive"));
        }
        let events = require_num(s, "events", &path)?;
        if scope == "full" && events < FULL_MIN_EVENTS as f64 {
            return Err(format!(
                "{path}.events: full scope needs >= {FULL_MIN_EVENTS} events, got {events}"
            ));
        }
        let overhead = require_num(s, "overhead_pct", &path)?;
        if overhead > MAX_OVERHEAD_PCT {
            return Err(format!(
                "{path}.overhead_pct: journal costs {overhead:.2}% events/sec, \
                 budget is {MAX_OVERHEAD_PCT}%"
            ));
        }
        if require_num(s, "journal_records", &path)? <= 0.0 {
            return Err(format!("{path}.journal_records: journal never appended"));
        }
        let recoveries = require(s, "recoveries", &path)?
            .as_arr()
            .ok_or_else(|| format!("{path}.recoveries: expected an array"))?;
        let mut seen_latest = false;
        let mut seen_mid = false;
        let mut seen_none = false;
        let mut latest_replayed = 0.0;
        let mut none_replayed = 0.0;
        for (j, p) in recoveries.iter().enumerate() {
            let rpath = format!("{path}.recoveries[{j}]");
            let label = require(p, "label", &rpath)?
                .as_str()
                .ok_or_else(|| format!("{rpath}.label: expected a string"))?;
            for key in ["snapshot_seq", "records_replayed", "recover_ms"] {
                require_num(p, key, &rpath)?;
            }
            if require_num(p, "digest_match", &rpath)? != 1.0 {
                return Err(format!(
                    "{rpath}: recovered state diverged from the live loop"
                ));
            }
            let replayed = require_num(p, "records_replayed", &rpath)?;
            match label {
                "latest" => {
                    seen_latest = true;
                    latest_replayed = replayed;
                }
                "none" => {
                    seen_none = true;
                    none_replayed = replayed;
                }
                "mid" => seen_mid = true,
                other => return Err(format!("{rpath}.label: unknown variant \"{other}\"")),
            }
        }
        if !seen_latest || !seen_none {
            return Err(format!(
                "{path}.recoveries: needs both `latest` and `none` variants"
            ));
        }
        if !seen_mid && require_num(s, "snapshots", &path)? >= 2.0 {
            return Err(format!(
                "{path}.recoveries: a run with two or more snapshots needs a `mid` variant"
            ));
        }
        if none_replayed < latest_replayed {
            return Err(format!(
                "{path}.recoveries: journal-only replay covered fewer records \
                 than the snapshot-assisted one"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shared mini-run: the full smoke horizon at debug-build speed
    /// would dominate the whole suite, and every assertion here is about
    /// structure, not statistics. Rule compilation is switched back off
    /// for the same reason — per-event compile + diff across the run and
    /// its three recovery replays is minutes of debug-build work, and the
    /// fabric-mirroring path already has its own battery
    /// (`tests/recovery.rs`).
    fn mini_rows() -> Vec<RecoveryRow> {
        let mut cfg = recovery_run_config(Scope::Smoke);
        cfg.horizon_secs = 1.0;
        cfg.online.compile_rules = false;
        cfg.online.engine.threads = 1;
        run_with(&cfg)
    }

    #[test]
    fn mini_recovery_round_trips_and_validates() {
        let mut rows = mini_rows();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.events > 200, "mini timeline too short: {}", r.events);
        assert!(r.journal_records > r.events, "commits + barriers missing");
        assert!(r.snapshots >= 2, "mini run must snapshot at least twice");
        for label in ["latest", "mid", "none"] {
            assert!(r.recoveries.iter().any(|p| p.label == label), "no {label}");
        }
        for p in &r.recoveries {
            assert!(p.digest_match, "{} recovery diverged", p.label);
        }
        // Mini-scope throughput is all noise (per-event work is
        // microseconds without rule compilation, so the append cost reads
        // as a huge percentage); the overhead budget is exercised via the
        // rejection below and enforced for real on the smoke/full runs.
        rows[0].overhead_pct = 0.0;
        let text = recovery_json(&rows, Scope::Smoke, 1);
        check_recovery(&text).unwrap();

        // Structural rejections, exercised on the same rows.
        let mut bad = rows.clone();
        bad[0].overhead_pct = MAX_OVERHEAD_PCT + 5.0;
        let text = recovery_json(&bad, Scope::Smoke, 1);
        assert!(check_recovery(&text).unwrap_err().contains("overhead_pct"));

        let mut bad = rows.clone();
        bad[0].recoveries[0].digest_match = false;
        let text = recovery_json(&bad, Scope::Smoke, 1);
        assert!(check_recovery(&text).unwrap_err().contains("diverged"));

        let mut bad = rows;
        bad[0].recoveries.retain(|p| p.label != "mid");
        let text = recovery_json(&bad, Scope::Smoke, 1);
        assert!(check_recovery(&text).unwrap_err().contains("`mid`"));
    }

    #[test]
    fn check_recovery_rejects_malformed_documents() {
        assert!(check_recovery("{").is_err());
        assert!(check_recovery("{\"schema\": \"nope\"}")
            .unwrap_err()
            .contains("schema"));
        let bad_scope = format!(
            "{{\"schema\": \"{RECOVERY_SCHEMA}\", \"seed\": 0, \"threads\": 1, \
             \"scope\": \"tiny\", \"scenarios\": [{{}}]}}"
        );
        assert!(check_recovery(&bad_scope).unwrap_err().contains("scope"));
    }
}
