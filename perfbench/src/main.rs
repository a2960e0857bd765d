//! Benchmark of the journaled online controller.
//!
//! ```text
//! apple-perfbench --workload <resolve_heavy|steady_churn|crash_recover>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! apple-perfbench --compare <base-dir> <new-dir>
//! ```
//!
//! A run builds its workload's topology and seeded timeline, drives the
//! controller through it pass after pass for `--seconds`, checks the
//! correctness gates on every pass, and prints each metric by name with
//! its unit and sample count. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). A full report — environment, every figure with its
//! sample count, and with `--trace 1` the recorder snapshots — is written
//! to `.bench_out/` under the working directory.
//!
//! `--compare` reads the untraced run reports in two `.bench_out/`
//! directories, prints each workload's end-to-end medians and quartile
//! spreads, and exits non-zero when a run on either side failed its gates
//! or a workload's median got worse by more than the bound
//! `BENCHMARK.json` fixes for it.

mod metrics;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use apple_nfv::telemetry::json::{write_num, write_str, Json};
use apple_nfv::telemetry::{MemoryRecorder, NOOP};

use metrics::{per_layer, run_figures, Figure, END_TO_END, PER_LAYER};
use stats::{quartile_spread, regressions, valid_name, valid_unit, Accounting, Better, Bound, Run};
use workload::{run_pass, timed_setup, Pass, Recorders, Twin, Workload, ENGINE_THREADS};

/// Untraced passes a `--trace 0` run makes at least: each step's time is
/// the fastest of its repetitions.
const MIN_PASSES: usize = 2;
/// Traced and untraced passes a `--trace 1` run makes at least, each.
const MIN_TRACED_PASSES: usize = 1;
/// Timed set-ups before each pass; `setup_s` is the fastest of all of a
/// run's set-ups.
const SETUPS_PER_PASS: usize = 16;

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The machine and build a result came from.
fn env_block(args: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    // Only ask git inside a checkout of its own: git would otherwise walk
    // up and report whatever repository happens to enclose this one.
    let git_rev = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown (not a git checkout)".to_string(), |s| {
            s.trim().to_string()
        });
    vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("controller_threads", "1".to_string()),
        ("engine_threads", ENGINE_THREADS.to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("rustc", rustc),
        ("git_rev", git_rev),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ]
}

/// Restarts the kernel's peak-RSS count for this process, so the next
/// [`peak_rss_mb`] covers one pass rather than the set-ups and passes
/// before it. Where the kernel does not offer the reset, the peak covers
/// the whole process so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (MB), from `/proc`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Figures that depend only on the input, which every pass of a run must
/// reproduce exactly (tracing included).
fn fingerprint(p: &Pass) -> (u64, u64, u64, u64, Vec<u64>, u64, u64) {
    let t = &p.tally;
    (
        t.steps,
        t.rule_ops,
        t.instance_sum,
        p.journal_bytes,
        t.wait_ms.iter().map(|w| *w as u64).collect(),
        p.restart.records_replayed,
        p.restart.reconcile_rule_ops,
    )
}

struct Outcome {
    accounting: Accounting,
    /// Run figures of the untraced passes.
    figures: Vec<Figure>,
    /// Layer figures of the traced passes (`--trace 1` only).
    layers: Vec<Figure>,
    passes: usize,
    telemetry: Option<(String, String)>,
}

fn run(args: &Args) -> Outcome {
    let mut acc = Accounting::default();
    let (world, first_setup) = timed_setup(args.workload, args.seed);
    let mut setup_s = vec![first_setup];
    let twin = match args.workload {
        Workload::CrashRecover => match Twin::compute(&world) {
            Ok(t) => Some(t),
            Err(e) => {
                acc.check(false, || format!("twin: {e}"));
                return Outcome {
                    accounting: acc,
                    figures: Vec::new(),
                    layers: Vec::new(),
                    passes: 0,
                    telemetry: None,
                };
            }
        },
        _ => None,
    };
    let noop = Recorders {
        step: &NOOP,
        restart: &NOOP,
    };
    // Passes repeat until the next one would overrun --seconds, but never
    // fewer than the minimum. With --trace 1 traced passes alternate with
    // untraced ones over the same input.
    let clock = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced = Vec::new();
    let mut peaks = Vec::new();
    loop {
        // Set-up samples are spread over the run the way passes are.
        for _ in 0..SETUPS_PER_PASS {
            setup_s.push(timed_setup(args.workload, args.seed).1);
        }
        let t0 = Instant::now();
        if args.trace && traced.len() < untraced.len() {
            let (step, restart) = (MemoryRecorder::new(), MemoryRecorder::new());
            let recs = Recorders {
                step: &step,
                restart: &restart,
            };
            let pass = run_pass(&world, twin.as_ref(), recs);
            traced.push((pass, step.snapshot(), restart.snapshot()));
        } else {
            reset_peak_rss();
            untraced.push(run_pass(&world, twin.as_ref(), noop));
            peaks.push(peak_rss_mb());
        }
        let took = t0.elapsed().as_secs_f64();
        let enough = if args.trace {
            traced.len() >= MIN_TRACED_PASSES && untraced.len() >= MIN_TRACED_PASSES
        } else {
            untraced.len() >= MIN_PASSES
        };
        if enough && clock.elapsed().as_secs_f64() + took > args.seconds {
            break;
        }
    }
    let want = fingerprint(&untraced[0]);
    let all: Vec<&Pass> = untraced.iter().chain(traced.iter().map(|t| &t.0)).collect();
    for (i, p) in all.iter().enumerate().skip(1) {
        acc.check(fingerprint(p) == want, || {
            format!("pass {i} did not reproduce pass 0's deterministic figures")
        });
    }
    for p in &all {
        acc.merge(p.accounting.clone());
    }
    let peaks: Result<Vec<f64>, String> = peaks.into_iter().collect();
    acc.check(peaks.is_ok(), || format!("{peaks:?}"));
    let figures = run_figures(&untraced, &setup_s, &peaks.unwrap_or_default());
    acc.check(figures.is_ok(), || format!("{figures:?}"));
    let figures = figures.unwrap_or_default();
    let layers = per_layer(&world, &traced, &untraced);
    for f in figures.iter().chain(&layers) {
        acc.check(valid_name(f.name) && valid_unit(f.unit), || {
            format!("bad metric name or unit: {} {}", f.name, f.unit)
        });
    }
    let telemetry = traced
        .iter()
        .min_by(|a, b| a.0.wall_s.total_cmp(&b.0.wall_s))
        .map(|(_, step, restart)| (step.to_json(), restart.to_json()));
    Outcome {
        accounting: acc,
        figures,
        layers,
        passes: untraced.len() + traced.len(),
        telemetry,
    }
}

fn figures_json(out: &mut String, figures: &[Figure]) {
    out.push('[');
    for (i, f) in figures.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        out.push_str("{\"name\": ");
        write_str(out, f.name);
        out.push_str(", \"value\": ");
        write_num(out, f.value);
        out.push_str(", \"unit\": ");
        write_str(out, f.unit);
        out.push_str(", \"samples\": ");
        write_num(out, f.samples as f64);
        out.push('}');
    }
    out.push_str("\n  ]");
}

fn report_json(env: &[(&str, String)], o: &Outcome, trace: bool) -> String {
    let mut out = String::from("{\n  \"env\": {");
    for (i, (k, v)) in env.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        write_str(&mut out, k);
        out.push_str(": ");
        write_str(&mut out, v);
    }
    out.push_str("\n  },\n  \"correct\": ");
    out.push_str(if reported_if_correct(o, trace).is_some() {
        "true"
    } else {
        "false"
    });
    out.push_str(",\n  \"passes\": ");
    write_num(&mut out, o.passes as f64);
    out.push_str(",\n  \"attempted\": ");
    write_num(&mut out, o.accounting.attempted as f64);
    out.push_str(",\n  \"failed\": ");
    write_num(&mut out, o.accounting.failed as f64);
    out.push_str(",\n  \"failed_ratio\": ");
    write_num(&mut out, o.accounting.failed_ratio());
    out.push_str(",\n  \"failures\": [");
    for (i, r) in o.accounting.reasons.iter().enumerate() {
        out.push_str(if i == 0 { "" } else { ", " });
        write_str(&mut out, r);
    }
    out.push_str("],\n  \"figures\": ");
    figures_json(&mut out, &o.figures);
    out.push_str(",\n  \"per_layer\": ");
    figures_json(&mut out, &o.layers);
    if let Some((step, restart)) = &o.telemetry {
        out.push_str(",\n  \"telemetry\": {\"step\": ");
        out.push_str(step.trim());
        out.push_str(",\n  \"restart\": ");
        out.push_str(restart.trim());
        out.push('}');
    }
    out.push_str("\n}\n");
    out
}

/// The metrics a result line reports: `BENCHMARK.json`'s end-to-end list
/// with `--trace 0`, its per-layer list with `--trace 1`. `None` when a
/// listed metric was not measured.
fn reported(o: &Outcome, trace: bool) -> Option<Vec<&Figure>> {
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    let pool: Vec<&Figure> = if trace {
        o.layers.iter().chain(&o.figures).collect()
    } else {
        o.figures.iter().collect()
    };
    names
        .into_iter()
        .map(|n| pool.iter().copied().find(|f| f.name == n))
        .collect()
}

/// The figures a result line reports, or `None` when the run failed: a
/// failed gate never yields a number.
fn reported_if_correct(o: &Outcome, trace: bool) -> Option<Vec<&Figure>> {
    reported(o, trace).filter(|_| o.accounting.failed == 0)
}

fn result_line(o: &Outcome, trace: bool) -> String {
    let figures = reported_if_correct(o, trace);
    let mut out = String::from("{\"correct\": ");
    out.push_str(if figures.is_some() { "true" } else { "false" });
    out.push_str(", \"attempted\": ");
    write_num(&mut out, o.accounting.attempted.max(1) as f64);
    out.push_str(", \"failed\": ");
    write_num(&mut out, o.accounting.failed as f64);
    out.push_str(", \"metrics\": {");
    for (i, f) in figures.unwrap_or_default().iter().enumerate() {
        out.push_str(if i == 0 { "" } else { ", " });
        write_str(&mut out, f.name);
        out.push_str(": {\"value\": ");
        write_num(&mut out, f.value);
        out.push_str(", \"unit\": ");
        write_str(&mut out, f.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

fn print_figures(title: &str, figures: &[Figure]) {
    println!("{title}");
    for f in figures {
        println!(
            "  {:<32} {:>16.6} {:<6} (n={})",
            f.name, f.value, f.unit, f.samples
        );
    }
}

fn bench(args: &Args) -> ExitCode {
    let o = run(args);
    let env = env_block(args);
    let report = report_json(&env, &o, args.trace);
    let path = format!(
        ".bench_out/{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) =
        std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, &report))
    {
        eprintln!("cannot write {path}: {e}");
    }
    for (k, v) in &env {
        println!("env {k} = {v}");
    }
    println!("passes {}", o.passes);
    print_figures("run figures (untraced passes):", &o.figures);
    if args.trace {
        print_figures("per-layer (traced pass):", &o.layers);
    }
    println!(
        "failed_ratio {} ({} of {} operations)",
        o.accounting.failed_ratio(),
        o.accounting.failed,
        o.accounting.attempted
    );
    for r in &o.accounting.reasons {
        println!("FAILED {r}");
    }
    println!("report {path}");
    println!("{}", result_line(&o, args.trace));
    ExitCode::SUCCESS
}

/// End-to-end bounds from a `BENCHMARK.json` document.
fn load_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: bad `better` {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Bound {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// A run as its report (`.bench_out/<workload>-seed<n>-trace<t>.json`)
/// records it.
fn parse_report(text: &str) -> Result<Run, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let env = |k: &str| {
        doc.get("env")
            .and_then(|e| e.get(k))
            .and_then(Json::as_str)
            .map(String::from)
            .ok_or_else(|| format!("no env.{k}"))
    };
    let figures = doc
        .get("figures")
        .and_then(Json::as_arr)
        .ok_or("no figures")?;
    Ok(Run {
        workload: env("workload")?,
        seed: env("seed")?,
        correct: match doc.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("no correct".to_string()),
        },
        failed: doc
            .get("failed")
            .and_then(Json::as_num)
            .ok_or("no failed")? as u64,
        metrics: figures
            .iter()
            .filter_map(|f| {
                let name = f.get("name")?.as_str()?;
                Some((name.to_string(), f.get("value")?.as_num()?))
            })
            .collect(),
    })
}

/// Every untraced run report (`*-trace0.json`) in `dir`.
fn load_runs(dir: &str) -> Result<Vec<Run>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().ends_with("-trace0.json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            std::fs::read_to_string(p)
                .map_err(|e| e.to_string())
                .and_then(|t| parse_report(&t))
                .map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

fn compare(base: &str, new: &str) -> Result<bool, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounds = load_bounds(&text)?;
    let (b, n) = (load_runs(base)?, load_runs(new)?);
    println!(
        "{:<14} {:<24} {:>14} {:>8} {:>14} {:>8} {:>6}",
        "workload", "metric", "base", "spread", "new", "spread", "bound"
    );
    for w in Workload::ALL.map(Workload::name) {
        for bound in &bounds {
            let col = |runs: &[Run]| -> (f64, f64) {
                let v: Vec<f64> = runs
                    .iter()
                    .filter(|r| r.workload == w && r.correct)
                    .filter_map(|r| r.metrics.get(&bound.name).copied())
                    .collect();
                (
                    stats::median(&v).unwrap_or(f64::NAN),
                    quartile_spread(&v).unwrap_or(f64::NAN),
                )
            };
            let ((bm, bs), (nm, ns)) = (col(&b), col(&n));
            println!(
                "{w:<14} {:<24} {bm:>14.6} {bs:>8.4} {nm:>14.6} {ns:>8.4} {:>6}",
                bound.name, bound.bound
            );
        }
    }
    let found = regressions(&bounds, &b, &n);
    for f in &found {
        println!("REGRESSION {f}");
    }
    Ok(found.is_empty())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.get(1..3).map(|p| compare(&p[0], &p[1])) {
            Some(Ok(true)) => ExitCode::SUCCESS,
            Some(Ok(false)) => ExitCode::FAILURE,
            Some(Err(e)) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
            None => {
                eprintln!("usage: apple-perfbench --compare <base-dir> <new-dir>");
                ExitCode::from(2)
            }
        };
    }
    match parse_args(&argv) {
        Ok(args) => bench(&args),
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: apple-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_a_run_reports() {
        let doc = benchmark_json();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let bounded: Vec<(&str, &str)> = END_TO_END
            .iter()
            .map(|n| {
                *metrics::RUN_FIGURES
                    .iter()
                    .find(|(f, _)| f == n)
                    .expect("every end-to-end metric is a run figure")
            })
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), own(&bounded));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let own: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, own);
        for (name, unit) in metrics::RUN_FIGURES.iter().chain(&PER_LAYER) {
            assert!(stats::valid_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
        }
        for w in Workload::ALL {
            assert!(stats::valid_name(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn bounds_load_from_benchmark_json() {
        let doc = benchmark_json();
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json");
        let bounds = load_bounds(&text).expect("bounds");
        assert_eq!(bounds.len(), listed(&doc, "end_to_end").len());
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
        let setup = bounds
            .iter()
            .find(|b| b.name == "setup_s")
            .expect("setup_s");
        assert_eq!(setup.better, Better::Lower);
        assert!(bounds.iter().all(|b| b.bound <= setup.bound));
    }

    fn figures(table: &[(&'static str, &'static str)]) -> Vec<Figure> {
        table
            .iter()
            .enumerate()
            .map(|(i, &(name, unit))| Figure {
                name,
                value: i as f64 + 0.5,
                unit,
                samples: 1,
            })
            .collect()
    }

    fn outcome(failed: bool) -> Outcome {
        let mut accounting = Accounting::default();
        accounting.ops(10, 0);
        accounting.check(!failed, || "gate".to_string());
        let run = figures(&metrics::RUN_FIGURES);
        // Layer figures without the run figures the per-layer list shares.
        let layers = figures(&PER_LAYER)
            .into_iter()
            .filter(|f| !run.iter().any(|r| r.name == f.name))
            .collect();
        Outcome {
            accounting,
            figures: run,
            layers,
            passes: 3,
            telemetry: None,
        }
    }

    /// A result line's metrics by name.
    fn metrics_of(line: &str) -> stats::RunMetrics {
        let doc = Json::parse(line).expect("result line parses");
        doc.get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics object")
            .iter()
            .map(|(k, v)| (k.clone(), v.get("value").and_then(Json::as_num).unwrap()))
            .collect()
    }

    #[test]
    fn result_line_reports_metrics_only_when_every_gate_passed() {
        let ok = result_line(&outcome(false), false);
        assert!(ok.starts_with(
            "{\"correct\": true, \"attempted\": 11, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 4.5, \"unit\": \"s\"}, "
        ));
        let run = metrics_of(&ok);
        assert_eq!(run.keys().count(), END_TO_END.len());
        assert!(END_TO_END.iter().all(|n| run.contains_key(*n)));
        let layers = metrics_of(&result_line(&outcome(false), true));
        assert_eq!(layers.keys().count(), PER_LAYER.len());
        assert_eq!(layers.get("lp.pivots"), Some(&8.5));
        assert_eq!(layers.get("events_per_s"), Some(&0.5));
        let bad = result_line(&outcome(true), false);
        assert_eq!(
            bad,
            "{\"correct\": false, \"attempted\": 11, \"failed\": 1, \"metrics\": {}}"
        );
        // A listed metric that was not measured is a failed run too.
        let mut missing = outcome(false);
        missing.figures.retain(|f| f.name != "peak_rss_mb");
        assert!(result_line(&missing, false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn reports_round_trip_through_the_comparison_reader() {
        let env = vec![
            ("workload", "steady_churn".to_string()),
            ("seed", "7".to_string()),
        ];
        let ok = parse_report(&report_json(&env, &outcome(false), false)).unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed.as_str()),
            ("steady_churn", "7")
        );
        assert!(ok.correct);
        assert_eq!(ok.failed, 0);
        assert_eq!(ok.metrics.get("setup_s"), Some(&4.5));
        let bad = parse_report(&report_json(&env, &outcome(true), false)).unwrap();
        assert!(!bad.correct);
        assert_eq!(bad.failed, 1);
        assert!(parse_report("{}").is_err());
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload steady_churn --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::SteadyChurn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        for bad in [
            "--workload nope --seed 1",
            "--workload steady_churn",
            "--workload steady_churn --seed -1",
            "--workload steady_churn --seed 1 --trace 2",
            "--workload steady_churn --seed 1 --seconds 0",
            "--workload steady_churn --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
