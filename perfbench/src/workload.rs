//! The three workloads and the closed-loop pass that drives the journaled
//! controller through one of them.
//!
//! Every pass runs the production stack — `JournaledLoop` over
//! `OrchestrationLoop`, rule compilation on, installs through the
//! asynchronous southbound channel under the paper's 70 ms/rule model —
//! on one controller thread. Events are stepped back to back (a closed
//! loop with no think time): pacing at the timeline's own arrival times
//! would let a re-solve that outlasts the inter-arrival gap grow an
//! unbounded backlog. The loop only ever sees the generated events.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use apple_nfv::core::engine::{EngineConfig, SolveMode};
use apple_nfv::core::online::{OnlineConfig, StepReport};
use apple_nfv::core::recovery::{
    reconcile, recover, state_digest, JournaledLoop, RecoveryConfig, RecoverySetup, SharedFabric,
};
use apple_nfv::core::verify::verify_shares;
use apple_nfv::dataplane::compiler::compile;
use apple_nfv::dataplane::southbound::SouthboundConfig;
use apple_nfv::faults::crash::{install_quiet_kill_hook, kill_of};
use apple_nfv::faults::CrashPoint;
use apple_nfv::journal::{JournalStore, MemStore, SharedMemStore};
use apple_nfv::sim::online::edge_pairs;
use apple_nfv::telemetry::{Recorder, NOOP};
use apple_nfv::topology::TopologyKind;
use apple_nfv::traffic::arrivals::{ArrivalConfig, EventTimeline, FlowEvent};

use crate::stats::Accounting;

/// Intents between journal snapshots (the controller's default).
pub const SNAPSHOT_EVERY: u64 = 64;
/// Cores per host, as in the online simulator's default. No workload
/// sheds a class or runs a host out of make-before-break headroom at
/// this size.
pub const HOST_CORES: u32 = 64;
/// Launches + teardowns one re-solve may perform before it is deferred.
pub const MAX_CHURN: u32 = 64;
/// Snapshot restarts per untraced pass of an uncrashed workload.
pub const RESTART_REPEATS: usize = 5;
/// Engine worker threads. The monolithic solve the controller uses runs
/// on the calling thread, so this is also the thread count actually used.
pub const ENGINE_THREADS: usize = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sparse short-lived Internet2 flows with a global re-solve every
    /// 250 events: the engine dominates wall clock.
    ResolveHeavy,
    /// Dense long-lived GEANT flows, no periodic re-solve: the journal
    /// write path and the data plane dominate, the engine does nothing.
    SteadyChurn,
    /// Sparse short-lived Internet2 flows without re-solves, killed late
    /// with a torn append and recovered from the bare journal: the
    /// journal read path.
    CrashRecover,
}

/// Everything that shapes a workload's input and controller settings.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Network the flows cross.
    pub topology: TopologyKind,
    /// Flow arrivals per second per ordered edge pair.
    pub arrival_rate: f64,
    /// Mean flow lifetime (s).
    pub mean_duration_secs: f64,
    /// Arrival horizon (s); departures run past it so the timeline drains.
    pub horizon_secs: f64,
    /// Events between global re-solves (0 = never).
    pub resolve_every: u64,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ResolveHeavy,
        Workload::SteadyChurn,
        Workload::CrashRecover,
    ];

    /// The workload's name on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ResolveHeavy => "resolve_heavy",
            Workload::SteadyChurn => "steady_churn",
            Workload::CrashRecover => "crash_recover",
        }
    }

    /// Parses a command-line workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's input shape.
    #[must_use]
    pub fn shape(self) -> Shape {
        match self {
            Workload::ResolveHeavy => Shape {
                topology: TopologyKind::Internet2,
                arrival_rate: 0.1,
                mean_duration_secs: 5.0,
                horizon_secs: 350.0,
                resolve_every: 250,
            },
            Workload::SteadyChurn => Shape {
                topology: TopologyKind::Geant,
                arrival_rate: 2.0,
                mean_duration_secs: 30.0,
                horizon_secs: 30.0,
                resolve_every: 0,
            },
            Workload::CrashRecover => Shape {
                topology: TopologyKind::Internet2,
                arrival_rate: 0.2,
                mean_duration_secs: 5.0,
                horizon_secs: 300.0,
                resolve_every: 0,
            },
        }
    }
}

/// SplitMix64: derives independent sub-seeds from the run's seed.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a seed.
fn unit(seed: u64) -> f64 {
    (mix(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// The controller's world and its input timeline.
#[derive(Debug, Clone)]
pub struct World {
    /// Run seed.
    pub seed: u64,
    /// Topology, loop configuration and durability settings.
    pub setup: RecoverySetup,
    /// The generated events, in timeline order.
    pub events: Vec<FlowEvent>,
}

impl World {
    /// Builds the topology and the seeded timeline.
    #[must_use]
    pub fn build(workload: Workload, seed: u64) -> World {
        let shape = workload.shape();
        let topo = shape.topology.build();
        let arrivals = ArrivalConfig {
            arrival_rate: shape.arrival_rate,
            mean_duration_secs: shape.mean_duration_secs,
            mean_rate_mbps: 5.0,
            seed: mix(seed ^ mix(workload as u64 + 1)),
        };
        let events = EventTimeline::generate(&edge_pairs(&topo), &arrivals, shape.horizon_secs)
            .events()
            .to_vec();
        let cfg = OnlineConfig {
            resolve_every: shape.resolve_every,
            max_churn: MAX_CHURN,
            engine: EngineConfig {
                solve_mode: SolveMode::Monolithic,
                threads: ENGINE_THREADS,
                ..EngineConfig::default()
            },
            seed,
            compile_rules: true,
            southbound: Some(SouthboundConfig::paper(seed)),
            ..OnlineConfig::default()
        };
        World {
            seed,
            setup: RecoverySetup {
                topo,
                cfg,
                recovery: RecoveryConfig {
                    snapshot_every: SNAPSHOT_EVERY,
                },
                host_cores: HOST_CORES,
            },
            events,
        }
    }

    /// A fresh journaled controller over an empty in-memory store.
    #[must_use]
    pub fn controller(
        &self,
        crash: CrashPoint,
    ) -> (JournaledLoop<SharedMemStore>, SharedMemStore, SharedFabric) {
        let store = SharedMemStore::new();
        let fabric = SharedFabric::new();
        let jl = JournaledLoop::new(&self.setup, store.clone(), fabric.clone(), crash);
        (jl, store, fabric)
    }

    /// Whether the event at `index` (0-based) carries a global re-solve.
    #[must_use]
    pub fn resolves_at(&self, index: usize) -> bool {
        let every = self.setup.cfg.resolve_every;
        every > 0 && (index as u64 + 1).is_multiple_of(every)
    }
}

/// Time to build the topology, the timeline and the controller: the
/// benchmark's set-up, paid before the first event.
#[must_use]
pub fn timed_setup(workload: Workload, seed: u64) -> (World, f64) {
    let t0 = Instant::now();
    let world = World::build(workload, seed);
    let jl = world.controller(CrashPoint::never());
    let secs = t0.elapsed().as_secs_f64();
    drop(jl);
    (world, secs)
}

/// Per-step figures of one pass.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Wall clock of the `JournaledLoop::step` call for each event, by
    /// event index (µs; NaN for an event the pass never stepped).
    pub step_us: Vec<f64>,
    /// Virtual southbound wait of each step that changed the fabric (ms).
    pub wait_ms: Vec<f64>,
    /// Rule operations emitted.
    pub rule_ops: u64,
    /// Σ running instances after each reported step.
    pub instance_sum: u64,
    /// Step calls made (a step killed mid-way included).
    pub steps: u64,
    /// Steps that returned a report.
    pub reported: u64,
    /// Steps that returned `Err`.
    pub errors: u64,
    /// Classes placed (or re-placed) through the DP.
    pub placed: u64,
    /// Classes shed.
    pub shed: u64,
    /// Stepping wall clock: the loop around the step calls (s).
    pub stepping_s: f64,
}

impl Tally {
    fn new(events: usize) -> Tally {
        Tally {
            step_us: vec![f64::NAN; events],
            ..Tally::default()
        }
    }

    fn time(&mut self, index: usize, dt: Duration) {
        self.steps += 1;
        self.step_us[index] = dt.as_secs_f64() * 1e6;
    }

    fn record(&mut self, r: &StepReport, instances: usize) {
        self.reported += 1;
        if r.dataplane_ops > 0 {
            self.wait_ms.push(r.southbound_wait_ms as f64);
        }
        self.rule_ops += r.dataplane_ops;
        self.instance_sum += instances as u64;
        self.placed += u64::from(r.placed);
        self.shed += u64::from(r.shed);
    }

    /// Steps whose sync emitted rule operations.
    #[must_use]
    pub fn fabric_steps(&self) -> u64 {
        self.wait_ms.len() as u64
    }
}

/// The restart that ends every pass: `recover` + `reconcile`.
#[derive(Debug, Clone, Default)]
pub struct Restart {
    /// Wall clock of `recover` (s).
    pub recover_s: f64,
    /// Wall clock of `reconcile` (s).
    pub reconcile_s: f64,
    /// Intent records redone.
    pub records_replayed: u64,
    /// Torn tail bytes truncated.
    pub torn_bytes: u64,
    /// Barrier submits with no durable ack.
    pub unacked_barriers: u64,
    /// Rule operations the fabric repair billed.
    pub reconcile_rule_ops: u64,
}

impl Restart {
    /// `recover` + `reconcile` wall clock (s).
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.recover_s + self.reconcile_s
    }
}

/// Everything one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Per-step figures, over every event of the timeline.
    pub tally: Tally,
    /// The restart.
    pub restart: Restart,
    /// Journal bytes written over the timeline.
    pub journal_bytes: u64,
    /// Wall clock of the controller's work in the pass: the stepping
    /// loops plus the restart, without the harness's gates and store
    /// copies (s).
    pub wall_s: f64,
    /// Gates, recoveries, shed placements and failed steps.
    pub accounting: Accounting,
}

/// Recorders a traced pass writes to: stepping and restart separately,
/// so spans the redo replays are not mistaken for live stepping.
#[derive(Clone, Copy)]
pub struct Recorders<'a> {
    /// Live stepping (and the resume after a crash).
    pub step: &'a dyn Recorder,
    /// `recover` and `reconcile`.
    pub restart: &'a dyn Recorder,
}

/// What an uncrashed twin of a [`Workload::CrashRecover`] pass computed,
/// untimed, once per seed.
#[derive(Debug, Clone)]
pub struct Twin {
    /// First event index whose digest is kept.
    pub first: usize,
    /// `state_digest` after each event from `first` on.
    pub digests: Vec<u32>,
    /// The crash-clock ordinal the crashed run is killed at.
    pub ordinal: u64,
}

impl Twin {
    /// Runs the timeline uncrashed, recording the crash-clock position
    /// after every event and the state digest after every event from a
    /// seeded point late in the run, then picks the kill point: the first
    /// step from that point whose sync submits at least two barriers,
    /// killed while appending its first barrier's ack record (torn). The
    /// fabric then holds that barrier's batch without a durable ack — a
    /// partially-acked tail — and misses the later ones, so `reconcile`
    /// has repair work.
    ///
    /// # Errors
    ///
    /// A step fails, or no step after the seeded point submits two
    /// barriers.
    pub fn compute(world: &World) -> Result<Twin, String> {
        let n = world.events.len();
        let first = n * 7 / 8 + (unit(world.seed ^ 0xC4A5) * (n as f64 / 64.0)) as usize;
        let crash = CrashPoint::never();
        let (mut jl, _, _) = world.controller(crash.clone());
        let mut digests = Vec::with_capacity(n - first.min(n));
        let mut sites = Vec::with_capacity(n + 1);
        sites.push(0);
        for (i, e) in world.events.iter().enumerate() {
            jl.step(e, &NOOP)
                .map_err(|err| format!("twin step failed: {err}"))?;
            if i >= first {
                digests.push(state_digest(jl.inner()));
            }
            sites.push(crash.visited());
        }
        // Sites of one step: intent append, four per barrier (submit
        // append, apply, ack, ack append), commit append, and a snapshot
        // write every SNAPSHOT_EVERY intents.
        let step = (first..n)
            .find(|&i| sites[i + 1] - sites[i] >= 10)
            .ok_or("no late step submits two barriers")?;
        Ok(Twin {
            first,
            digests,
            ordinal: sites[step] + 5,
        })
    }

    /// The twin's state digest after `seq` events (1-based), if kept.
    #[must_use]
    pub fn digest_after(&self, seq: u64) -> Option<u32> {
        let index = usize::try_from(seq).ok()?.checked_sub(1)?;
        self.digests.get(index.checked_sub(self.first)?).copied()
    }
}

fn step_timed<S: JournalStore + 'static>(
    jl: &mut JournaledLoop<S>,
    index: usize,
    event: &FlowEvent,
    rec: &dyn Recorder,
    tally: &mut Tally,
) {
    let t0 = Instant::now();
    let r = jl.step(event, rec);
    tally.time(index, t0.elapsed());
    match r {
        Ok(report) => tally.record(&report, jl.inner().instance_count()),
        Err(_) => tally.errors += 1,
    }
}

/// Checks the end-of-timeline gates on a drained controller.
fn drain_gates<S: JournalStore + 'static>(jl: &JournaledLoop<S>, acc: &mut Accounting) {
    let inner = jl.inner();
    let ledger = inner.check_ledger();
    acc.check(ledger.is_ok(), || format!("check_ledger: {ledger:?}"));
    acc.check(
        inner.instance_count() == 0 && inner.shed_count() == 0 && inner.live_count() == 0,
        || {
            format!(
                "timeline did not drain: {} instances, {} shed, {} live classes",
                inner.instance_count(),
                inner.shed_count(),
                inner.live_count()
            )
        },
    );
    let (classes, handler) = inner.snapshot();
    let violations = verify_shares(&classes, &handler, inner.orchestrator(), 1e-6);
    acc.check(violations.is_empty(), || {
        format!("verify_shares: {violations:?}")
    });
    let fresh = inner.dataplane_snapshot().map(|s| compile(&s));
    let installed = inner.dataplane_program();
    acc.check(fresh.is_some() && fresh.as_ref() == installed, || {
        "installed program differs from a fresh compile of the final snapshot".to_string()
    });
    acc.check(installed == Some(&jl.fabric().program()), || {
        "fabric differs from the installed program".to_string()
    });
}

/// `recover` + `reconcile` on `store` and `fabric`, timed, with the
/// recovered state checked against `want_digest(seq)`.
fn restart(
    world: &World,
    store: MemStore,
    fabric: SharedFabric,
    rec: &dyn Recorder,
    want_digest: impl Fn(u64) -> Option<u32>,
    acc: &mut Accounting,
) -> Option<(JournaledLoop<MemStore>, Restart)> {
    let t0 = Instant::now();
    let recovered = recover(&world.setup, store, fabric.clone(), rec);
    let recover_s = t0.elapsed().as_secs_f64();
    let (jl, report) = match recovered {
        Ok(ok) => ok,
        Err(e) => {
            acc.check(false, || format!("recover failed: {e}"));
            return None;
        }
    };
    acc.check(true, String::new);
    let t0 = Instant::now();
    let rr = reconcile(&jl, rec);
    let reconcile_s = t0.elapsed().as_secs_f64();
    let got = state_digest(jl.inner());
    let want = want_digest(jl.seq());
    acc.check(want == Some(got), || {
        format!(
            "recovered digest {got:#010x} at seq {} differs from the twin's {want:?}",
            jl.seq()
        )
    });
    acc.check(
        jl.inner().dataplane_program() == Some(&fabric.program()),
        || "fabric differs from the recovered intent after reconcile".to_string(),
    );
    let facts = Restart {
        recover_s,
        reconcile_s,
        records_replayed: report.records_replayed,
        torn_bytes: report.torn_truncated_bytes,
        unacked_barriers: report.unacked_barriers,
        reconcile_rule_ops: rr.rule_ops,
    };
    Some((jl, facts))
}

/// A copy of `store`'s journal with at most its newest snapshot — the
/// one recovery loads first (older ones are read only when a newer one
/// fails its checksum) — or, when `with_snapshot` is false, with none, so
/// recovery must redo every intent from genesis.
fn journal_copy(store: &SharedMemStore, with_snapshot: bool) -> MemStore {
    store.with_mut(|m| {
        let mut out = MemStore::new();
        out.set_journal_bytes(m.journal_bytes().to_vec());
        let newest = m.snapshot_seqs().ok().and_then(|s| s.last().copied());
        if let Some(seq) = newest.filter(|_| with_snapshot) {
            if let Some(bytes) = m.snapshot_bytes(seq) {
                out.set_snapshot_bytes(seq, bytes.to_vec());
            }
        }
        out
    })
}

/// The event after which an uncrashed pass's restart store is taken:
/// half a snapshot period past the snapshot nearest 7/8 of the run, moved
/// earlier when that redo window would carry a re-solve. The restart then
/// measures the journal scan, a snapshot decode and the redo of 32
/// ordinary steps; re-solve redo is `crash_recover`'s subject.
fn restart_point(world: &World) -> usize {
    let half = SNAPSHOT_EVERY as usize / 2;
    let mut base = world.events.len() * 7 / 8 / SNAPSHOT_EVERY as usize * SNAPSHOT_EVERY as usize;
    while base > 0 && (base..base + half).any(|i| world.resolves_at(i)) {
        base -= SNAPSHOT_EVERY as usize;
    }
    base + half
}

/// One pass of a workload that runs to completion and then restarts
/// from the store as it stood after [`restart_point`] (a clean kill
/// between steps, recovered with snapshots as the controller keeps them).
fn uncrashed_pass(world: &World, recs: Recorders<'_>) -> Pass {
    let n = world.events.len();
    let mut pass = Pass {
        tally: Tally::new(n),
        ..Pass::default()
    };
    let kill_after = restart_point(world);
    let (mut jl, store, fabric) = world.controller(CrashPoint::never());
    let mut saved = None;
    let mut paused = Duration::ZERO;
    let wall = Instant::now();
    for (i, e) in world.events.iter().enumerate() {
        step_timed(&mut jl, i, e, recs.step, &mut pass.tally);
        if i + 1 == kill_after {
            // The copy is the harness's, not the controller's: keep it
            // out of the clocks.
            let t0 = Instant::now();
            saved = Some((
                journal_copy(&store, true),
                fabric.program(),
                state_digest(jl.inner()),
            ));
            paused += t0.elapsed();
        }
    }
    pass.tally.stepping_s = (wall.elapsed() - paused).as_secs_f64();
    pass.wall_s = pass.tally.stepping_s;
    pass.journal_bytes = jl.journal_stats().bytes;
    drain_gates(&jl, &mut pass.accounting);
    drop(jl);
    match saved {
        Some((store, program, digest)) => {
            let want = |seq: u64| (seq == kill_after as u64).then_some(digest);
            // A snapshot restart takes milliseconds, so an untraced pass
            // repeats it and keeps the fastest; a traced pass restarts
            // once so its spans describe one restart.
            let repeats = if recs.restart.enabled() {
                1
            } else {
                RESTART_REPEATS
            };
            let fastest = (0..repeats)
                .filter_map(|_| {
                    let fabric = SharedFabric::new();
                    fabric.with_mut(|p| *p = program.clone());
                    let store = store.clone();
                    restart(
                        world,
                        store,
                        fabric,
                        recs.restart,
                        want,
                        &mut pass.accounting,
                    )
                })
                .map(|(_, facts)| facts)
                .min_by(|a, b| a.secs().total_cmp(&b.secs()));
            if let Some(facts) = fastest {
                pass.restart = facts;
            }
            pass.wall_s += pass.restart.secs();
        }
        None => pass.accounting.check(false, || {
            format!("restart point {kill_after} beyond {n} events")
        }),
    }
    account_steps(&mut pass);
    pass
}

/// One pass of `crash_recover`: run with the crash clock armed at the
/// twin's ordinal, catch the kill, withhold every snapshot, recover,
/// reconcile, and resume the rest of the timeline on the recovered
/// controller.
fn crashed_pass(world: &World, twin: &Twin, recs: Recorders<'_>) -> Pass {
    install_quiet_kill_hook();
    let n = world.events.len();
    let mut pass = Pass {
        tally: Tally::new(n),
        ..Pass::default()
    };
    let crash = CrashPoint::at_torn(twin.ordinal, mix(world.seed ^ twin.ordinal));
    let (mut jl, store, fabric) = world.controller(crash);
    let wall = Instant::now();
    let mut at = (0usize, Instant::now());
    let caught = catch_unwind(AssertUnwindSafe(|| {
        for (i, e) in world.events.iter().enumerate() {
            at = (i, Instant::now());
            step_timed(&mut jl, i, e, recs.step, &mut pass.tally);
        }
    }));
    // The killed step is a step too: count its partial wall clock.
    let killed = caught.is_err_and(|payload| kill_of(payload.as_ref()).is_some());
    if killed {
        pass.tally.time(at.0, at.1.elapsed());
    }
    pass.tally.stepping_s = wall.elapsed().as_secs_f64();
    pass.accounting.check(killed, || {
        "the armed crash point did not kill the controller".to_string()
    });
    drop(jl);
    let crashed_store = journal_copy(&store, false);
    let pre_crash_bytes = crashed_store.journal_bytes().len() as u64;
    let want = |seq: u64| twin.digest_after(seq);
    let restarted = restart(
        world,
        crashed_store,
        fabric,
        recs.restart,
        want,
        &mut pass.accounting,
    );
    if let Some((mut jl, facts)) = restarted {
        pass.restart = facts;
        let resume = Instant::now();
        let from = usize::try_from(jl.seq()).unwrap_or(n);
        for (i, e) in world.events.iter().enumerate().skip(from) {
            step_timed(&mut jl, i, e, recs.step, &mut pass.tally);
        }
        pass.tally.stepping_s += resume.elapsed().as_secs_f64();
        pass.wall_s = pass.tally.stepping_s + pass.restart.secs();
        pass.journal_bytes = pre_crash_bytes + jl.journal_stats().bytes;
        drain_gates(&jl, &mut pass.accounting);
        let last = state_digest(jl.inner());
        pass.accounting
            .check(twin.digests.last() == Some(&last), || {
                "resumed controller did not converge on the twin's final state".to_string()
            });
    }
    account_steps(&mut pass);
    pass
}

fn account_steps(pass: &mut Pass) {
    let t = &pass.tally;
    pass.accounting.ops(t.steps, t.errors);
    pass.accounting.ops(t.placed + t.shed, t.shed);
    let unstepped = t.step_us.iter().filter(|us| us.is_nan()).count();
    pass.accounting.check(unstepped == 0, || {
        format!("{unstepped} events were never stepped")
    });
}

/// Runs one pass of the world's workload.
#[must_use]
pub fn run_pass(world: &World, twin: Option<&Twin>, recs: Recorders<'_>) -> Pass {
    match twin {
        Some(twin) => crashed_pass(world, twin, recs),
        None => uncrashed_pass(world, recs),
    }
}
