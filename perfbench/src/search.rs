//! `search-mix` and `event-overload`: one fixed query list, run serially
//! through freshly built search systems.
//!
//! * `search-mix` — a table3-sized world (4k peers, 40k objects) and nine
//!   systems: the five `SearchSpec` kinds (hybrid and dht-only under
//!   churn with a repair pass every 20 queries) and the four off-spec
//!   ones (QRP flood, query-centric synopsis, Gia, advertisement).
//! * `event-overload` — a 2k-peer world and the five spec kinds on the
//!   virtual-time engine twice: under a deadline with unlimited capacity,
//!   then under a uniform capacity plan (offered load 4, queue bound 4,
//!   drop-oldest).
//!
//! The world is fixed (see [`Inputs`]); the workload seed draws the
//! queries. Systems keep state across queries (fault clocks, repair schedules),
//! so every pass builds them afresh; the build is set-up, the queries
//! are the timed phase.

use crate::harness::{
    median, p50_p99, report_passes, run_passes, timed, Digest, Expected, Pins, Report, Tracer,
};
use crate::WORLD_SEED;
use qcp_core::faults::{
    CapacityConfig, CapacityModel, CapacityPlan, FaultConfig, FaultPlan, RetryPolicy, ShedPolicy,
};
use qcp_core::obs::{MetricsRecorder, NoopRecorder, Recorder};
use qcp_core::search::{
    gen_queries, AdvertiseSearch, Built, DhtOnlySearch, FaultContext, GiaSearch,
    MaintenanceSchedule, QrpFloodSearch, QuerySpec, SearchSpec, SearchSystem, SearchWorld,
    SynopsisPolicy, SynopsisSearch, WorkloadConfig, WorldConfig,
};
use qcp_core::util::rng::{child_seed, Pcg64};
use qcp_core::vtime::Deadline;
use std::time::Instant;

/// Virtual-time budget per query on `event-overload` (ticks).
const DEADLINE_TICKS: u64 = 48;
/// Repair period of the DHT-backed systems on `search-mix` (queries).
const MAINTENANCE_PERIOD: u64 = 20;
/// Alternations of recorder-off and recorder-on runs in the traced run.
const RECORDER_REPS: usize = 3;

/// World and query-list sizes.
#[derive(Clone, Copy)]
struct Size {
    peers: usize,
    objects: u32,
    queries: usize,
}

/// `search-mix` measured size.
const MIX_FULL: Size = Size {
    peers: 4_000,
    objects: 40_000,
    queries: 4_000,
};
/// `search-mix` canary size.
const MIX_SMOKE: Size = Size {
    peers: 800,
    objects: 6_000,
    queries: 200,
};
/// `event-overload` measured size.
const EVENT_FULL: Size = Size {
    peers: 2_000,
    objects: 20_000,
    queries: 1_000,
};
/// `event-overload` canary size.
const EVENT_SMOKE: Size = Size {
    peers: 600,
    objects: 5_000,
    queries: 200,
};

/// Which of the two workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `search-mix`.
    Search,
    /// `event-overload`.
    Event,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Search => crate::SEARCH,
            Mix::Event => crate::EVENT,
        }
    }

    fn sizes(self) -> (Size, Size) {
        match self {
            Mix::Search => (MIX_FULL, MIX_SMOKE),
            Mix::Event => (EVENT_FULL, EVENT_SMOKE),
        }
    }
}

/// A search system plus the one system-specific counter the benchmark
/// reads: repair passes fired so far.
trait System: SearchSystem {
    fn repair_passes(&self) -> u64 {
        0
    }
}

impl<R: Recorder> System for Built<R> {}
impl<R: Recorder> System for DhtOnlySearch<R> {
    fn repair_passes(&self) -> u64 {
        self.maintenance_passes()
    }
}
impl System for QrpFloodSearch {}
impl System for SynopsisSearch {}
impl System for GiaSearch {}
impl System for AdvertiseSearch {}

/// Names of one system: its label and its query-span name.
#[derive(Clone, Copy)]
struct Label {
    name: &'static str,
    span: &'static str,
}

const fn label(name: &'static str, span: &'static str) -> Label {
    Label { name, span }
}

/// The nine `search-mix` systems, in run order.
const MIX_SYSTEMS: [Label; 9] = [
    label("flood3", "search.flood3.query"),
    label("walk4x20", "search.walk4x20.query"),
    label("ring4", "search.ring4.query"),
    label("hybrid3-20", "search.hybrid3-20.query"),
    label("dht-only", "search.dht-only.query"),
    label("qrp", "search.qrp.query"),
    label("synopsis-qc", "search.synopsis-qc.query"),
    label("gia", "search.gia.query"),
    label("advertise", "search.advertise.query"),
];
/// Index of dht-only in [`MIX_SYSTEMS`].
const DHT_ONLY: usize = 4;
/// Number of `SearchSpec` systems (they come first).
const SPEC_KINDS: usize = 5;

/// Every metric-bearing system name of `search-mix` (for the metric list).
pub fn mix_system_names() -> impl Iterator<Item = &'static str> {
    MIX_SYSTEMS.iter().map(|l| l.name)
}

/// The inputs every pass shares. The world, its fault and capacity plans
/// and the systems' own seeds are the benchmark's fixed dataset, built
/// from [`WORLD_SEED`]; the workload seed draws the query list, the
/// synopsis training queries and every per-query random stream.
struct Inputs {
    world: SearchWorld,
    queries: Vec<QuerySpec>,
    /// Training queries the query-centric synopsis observes.
    train: Vec<QuerySpec>,
    plan: FaultPlan,
    capacity: CapacityPlan,
    /// The workload seed.
    seed: u64,
}

fn build_inputs(mix: Mix, size: Size, seed: u64, tr: &mut Tracer) -> Inputs {
    let world = tr.span("search.world.generate", |_| {
        SearchWorld::generate(&WorldConfig {
            num_peers: size.peers,
            num_objects: size.objects,
            seed: child_seed(WORLD_SEED, 1),
            ..Default::default()
        })
    });
    let queries = gen_queries(
        &world,
        &WorkloadConfig {
            num_queries: size.queries,
            seed: child_seed(seed, 2),
        },
    );
    let train = match mix {
        Mix::Search => gen_queries(
            &world,
            &WorkloadConfig {
                num_queries: 3 * size.queries,
                seed: child_seed(seed, 3),
            },
        ),
        Mix::Event => Vec::new(),
    };
    let (churn, mean_latency) = match mix {
        Mix::Search => (0.10, 1),
        Mix::Event => (0.0, 2),
    };
    let plan = tr.span("faults.plan.build", |_| {
        FaultPlan::build(
            world.num_peers(),
            &FaultConfig {
                loss: 0.0,
                churn,
                horizon: size.queries as u64,
                mean_latency,
                rejoin: true,
                seed: child_seed(WORLD_SEED, 4),
            },
        )
    });
    let capacity = tr.span("faults.plan.build", |_| {
        CapacityPlan::build(&CapacityConfig {
            offered_load: 4.0,
            queue_bound: 4,
            policy: ShedPolicy::DropOldest,
            model: CapacityModel::Uniform,
            seed: child_seed(WORLD_SEED, 5),
        })
    });
    Inputs {
        world,
        queries,
        train,
        plan,
        capacity,
        seed,
    }
}

/// How the five spec kinds are configured.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Env {
    /// `search-mix`: plain, except churn and repair on the DHT kinds.
    Mix,
    /// `event-overload` pass 1: deadline, unlimited capacity.
    Deadline,
    /// `event-overload` pass 2: deadline plus the capacity plan.
    Capacity,
}

/// Builds the five spec kinds under `env`, each with `make()` as its
/// recorder.
fn spec_systems<R: Recorder + 'static>(
    inp: &Inputs,
    env: Env,
    make: impl Fn() -> R,
    tr: &mut Tracer,
) -> Vec<Box<dyn System>> {
    let s = inp.seed;
    let ctx = |stream: u64| {
        FaultContext::new(
            inp.plan.clone(),
            RetryPolicy::default(),
            child_seed(s ^ 0xc7c7, stream),
        )
    };
    let specs = [
        SearchSpec::flood(3),
        SearchSpec::walk(4, 20),
        SearchSpec::expanding_ring(4),
        SearchSpec::hybrid(3, 20, child_seed(WORLD_SEED, 6)),
        SearchSpec::dht_only(child_seed(WORLD_SEED, 7)),
    ];
    let mut out: Vec<Box<dyn System>> = Vec::new();
    for (k, spec) in specs.into_iter().enumerate() {
        let dht_backed = k >= 3;
        let spec = match env {
            Env::Mix if dht_backed => spec
                .faults(ctx(k as u64))
                .maintenance(MaintenanceSchedule::every(MAINTENANCE_PERIOD)),
            Env::Mix => spec,
            Env::Deadline => spec
                .faults(ctx(k as u64))
                .deadline(Deadline::after(DEADLINE_TICKS)),
            Env::Capacity => spec
                .faults(ctx(k as u64))
                .deadline(Deadline::after(DEADLINE_TICKS))
                .capacity(inp.capacity.clone()),
        };
        let spec = spec.recorder(make());
        let built = tr.span("search.spec.build", |_| spec.build(&inp.world));
        if k == DHT_ONLY {
            out.push(Box::new(built.into_dht_only()));
        } else {
            out.push(Box::new(built));
        }
    }
    out
}

/// Builds the four off-spec systems (`search-mix` only).
fn off_spec_systems(inp: &Inputs, tr: &mut Tracer) -> Vec<Box<dyn System>> {
    let w = &inp.world;
    let mut out: Vec<Box<dyn System>> = Vec::new();
    out.push(tr.span("sketch.synopsis.build", |_| {
        Box::new(QrpFloodSearch::new(w, 3, 4096))
    }));
    out.push(tr.span("sketch.synopsis.build", |_| {
        let mut syn = SynopsisSearch::new(w, SynopsisPolicy::QueryCentric, 12, 40);
        syn.observe_queries(w, &inp.train, 0.5);
        Box::new(syn)
    }));
    out.push(tr.span("sketch.synopsis.build", |_| {
        Box::new(GiaSearch::new(w, 30, child_seed(WORLD_SEED, 8)))
    }));
    out.push(tr.span("sketch.synopsis.build", |_| {
        Box::new(AdvertiseSearch::new(w, 8, 40, child_seed(WORLD_SEED, 9)))
    }));
    out
}

/// Output sums of one system over the query list.
#[derive(Default, Clone, Copy)]
struct Totals {
    successes: u64,
    messages: u64,
    hop_sum: u64,
    hop_count: u64,
    elapsed: u64,
    deadline_exceeded: u64,
    faults: [u64; 6],
    overload: [u64; 7],
    maintenance_messages: u64,
}

impl Totals {
    fn digest(&self, d: &mut Digest) {
        for x in [
            self.successes,
            self.messages,
            self.hop_sum,
            self.hop_count,
            self.elapsed,
            self.deadline_exceeded,
            self.maintenance_messages,
        ] {
            d.u64(x);
        }
        for &x in self.faults.iter().chain(&self.overload) {
            d.u64(x);
        }
    }
}

/// One system's run over the query list.
struct SystemRun {
    totals: Totals,
    /// Per-query latency (µs), in query order.
    lat_us: Vec<f64>,
    /// Whether a repair pass fired before each query.
    repaired: Vec<bool>,
    seconds: f64,
}

/// Runs `sys` over every query, serially, timing each call.
fn run_system(
    sys: &mut dyn System,
    inp: &Inputs,
    span: &'static str,
    tr: &mut Tracer,
) -> SystemRun {
    let run_seed = child_seed(inp.seed, 10);
    let mut t = Totals::default();
    let mut lat_us = Vec::with_capacity(inp.queries.len());
    let mut repaired = Vec::with_capacity(inp.queries.len());
    let t0 = Instant::now();
    for (i, q) in inp.queries.iter().enumerate() {
        let mut rng = Pcg64::new(child_seed(run_seed, i as u64));
        let before = sys.repair_passes();
        let start = Instant::now();
        let out = tr.span(span, |_| sys.search(&inp.world, q, &mut rng));
        lat_us.push(start.elapsed().as_secs_f64() * 1e6);
        repaired.push(sys.repair_passes() != before);
        t.successes += u64::from(out.success);
        t.messages += out.messages;
        if let (true, Some(h)) = (out.success, out.hops) {
            t.hop_sum += u64::from(h);
            t.hop_count += 1;
        }
        t.elapsed += out.elapsed;
        t.deadline_exceeded += u64::from(out.deadline_exceeded);
        let f = &out.faults;
        for (acc, x) in t.faults.iter_mut().zip([
            f.dropped,
            f.dead_targets,
            f.retries,
            f.timeouts,
            f.stale_misses,
            f.ticks,
        ]) {
            *acc += x;
        }
        let o = &out.overload;
        for (acc, x) in t.overload.iter_mut().zip([
            o.enqueued,
            o.served,
            o.shed,
            o.displaced,
            o.backlog_seeded,
            o.queue_delay,
            o.admission_rejected,
        ]) {
            *acc += x;
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    t.maintenance_messages = sys.maintenance_messages();
    SystemRun {
        totals: t,
        lat_us,
        repaired,
        seconds,
    }
}

/// Span names of the ten `event-overload` systems: deadline pass, then
/// capacity pass.
const EVENT_SPANS: [&str; 2] = ["overlay.event.query", "overlay.overload.query"];

/// Builds every system of one pass (set-up).
fn build_systems(mix: Mix, inp: &Inputs, tr: &mut Tracer) -> Vec<Box<dyn System>> {
    match mix {
        Mix::Search => {
            let mut v = spec_systems(inp, Env::Mix, || NoopRecorder, tr);
            v.extend(off_spec_systems(inp, tr));
            v
        }
        Mix::Event => {
            let mut v = spec_systems(inp, Env::Deadline, || NoopRecorder, tr);
            v.extend(spec_systems(inp, Env::Capacity, || NoopRecorder, tr));
            v
        }
    }
}

/// The span of system `k` in a pass of `mix`.
fn span_of(mix: Mix, k: usize) -> &'static str {
    match mix {
        Mix::Search => MIX_SYSTEMS[k].span,
        Mix::Event => EVENT_SPANS[k / SPEC_KINDS],
    }
}

/// Runs every system of one pass; returns the runs and the pass digest.
fn run_pass(
    mix: Mix,
    inp: &Inputs,
    systems: &mut [Box<dyn System>],
    tr: &mut Tracer,
) -> (Vec<SystemRun>, Digest) {
    let mut d = Digest::default();
    let runs: Vec<SystemRun> = systems
        .iter_mut()
        .enumerate()
        .map(|(k, sys)| run_system(sys.as_mut(), inp, span_of(mix, k), tr))
        .collect();
    for r in &runs {
        r.totals.digest(&mut d);
    }
    (runs, d)
}

/// One pass at full or smoke size and `seed`: its digest and op count.
pub fn digest(mix: Mix, full: bool, seed: u64) -> (Digest, u64) {
    let (full_size, smoke) = mix.sizes();
    let size = if full { full_size } else { smoke };
    let mut tr = Tracer::new(false);
    let inp = build_inputs(mix, size, seed, &mut tr);
    let mut systems = build_systems(mix, &inp, &mut tr);
    let ops = (size.queries * systems.len()) as u64;
    (run_pass(mix, &inp, &mut systems, &mut tr).1, ops)
}

/// Recorder overhead on the spec kinds: alternating runs with
/// [`NoopRecorder`] and [`MetricsRecorder`] over the same query list.
/// Returns `(median recorder-on s / median recorder-off s) - 1`, and
/// checks the recorder leaves every output unchanged.
fn recorder_overhead(mix: Mix, inp: &Inputs, rep: &mut Report) -> f64 {
    let envs: &[Env] = match mix {
        Mix::Search => &[Env::Mix],
        Mix::Event => &[Env::Deadline, Env::Capacity],
    };
    let mut off = Vec::new();
    let mut on = Vec::new();
    let mut base = Digest::default();
    let mut tr = Tracer::new(false);
    for _ in 0..RECORDER_REPS {
        for recorded in [false, true] {
            let mut d = Digest::default();
            let mut secs = 0.0;
            let mut ops = 0;
            for &env in envs {
                let mut systems = if recorded {
                    spec_systems(inp, env, MetricsRecorder::new, &mut tr)
                } else {
                    spec_systems(inp, env, || NoopRecorder, &mut tr)
                };
                for sys in &mut systems {
                    let r = run_system(sys.as_mut(), inp, "", &mut tr);
                    r.totals.digest(&mut d);
                    secs += r.seconds;
                    ops += inp.queries.len() as u64;
                }
            }
            if recorded {
                rep.check(ops, d == base, || {
                    "MetricsRecorder changed a spec system's outputs".to_string()
                });
                on.push(secs);
            } else {
                base = d;
                off.push(secs);
            }
        }
    }
    median(&mut on) / median(&mut off) - 1.0
}

/// Latency percentiles (µs) of one pass, kept in place of the raw
/// samples so memory does not grow with the number of passes.
struct PassSummary {
    /// Every query of the pass: p50, p99.
    all: (f64, f64),
    /// Each system: p50, p99.
    system: Vec<(f64, f64)>,
    /// `event-overload`: the deadline kinds pooled, then the capacity
    /// kinds pooled: p50, p99.
    halves: [(f64, f64); 2],
    /// `search-mix` dht-only: median query with no repair pass due, and
    /// median query on which a pass fired.
    dht: (f64, f64),
}

fn summarize(runs: &[SystemRun]) -> PassSummary {
    let pool =
        |rs: &[SystemRun]| p50_p99(rs.iter().flat_map(|r| r.lat_us.iter().copied()).collect());
    let dht = |repaired: bool| {
        runs.get(DHT_ONLY).map_or(0.0, |r| {
            let v = r
                .lat_us
                .iter()
                .zip(&r.repaired)
                .filter(|(_, &m)| m == repaired)
                .map(|(&l, _)| l);
            p50_p99(v.collect()).0
        })
    };
    let half = |h: usize| {
        runs.get(h * SPEC_KINDS..(h + 1) * SPEC_KINDS)
            .map_or((0.0, 0.0), pool)
    };
    PassSummary {
        all: pool(runs),
        system: runs.iter().map(|r| p50_p99(r.lat_us.clone())).collect(),
        halves: [half(0), half(1)],
        dht: (dht(false), dht(true)),
    }
}

/// Runs the workload.
pub fn run(mix: Mix, seed: u64, seconds: f64, tr: &mut Tracer, pins: &Pins, rep: &mut Report) {
    let (full, _) = mix.sizes();
    let traced = tr.enabled();
    let systems_per_pass = match mix {
        Mix::Search => MIX_SYSTEMS.len(),
        Mix::Event => 2 * SPEC_KINDS,
    };

    let ops_per_pass = (full.queries * systems_per_pass) as u64;
    let mut setup = Vec::new();
    let mut expected = Expected::new(pins, mix.name(), seed);
    let mut totals: Option<Vec<Totals>> = None;
    let mut summaries = Vec::new();
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut last_inputs = None;
    let pass_s = run_passes(seconds, if traced { 2 } else { 1 }, |i| {
        // The traced run alternates untraced and traced passes, so it
        // can report its own overhead.
        tr.set_enabled(traced && i % 2 == 1);
        let ((inp, mut systems), s) = timed(|| {
            let inp = build_inputs(mix, full, seed, tr);
            let systems = build_systems(mix, &inp, tr);
            (inp, systems)
        });
        setup.push(s);
        let ((runs, d), s) = timed(|| run_pass(mix, &inp, &mut systems, tr));
        totals.get_or_insert_with(|| runs.iter().map(|r| r.totals).collect());
        rep.check(ops_per_pass, expected.matches(d), || expected.mismatch(d));
        summaries.push(summarize(&runs));
        if tr.enabled() {
            traced_s.push(s);
        } else {
            untraced_s.push(s);
        }
        last_inputs = Some(inp);
        s
    });
    tr.set_enabled(traced);
    let totals = totals.expect("at least one pass ran");
    let digest = expected.first().expect("at least one pass ran");

    let lat: Vec<(f64, f64)> = summaries.iter().map(|p| p.all).collect();
    report_passes(rep, &mut setup, &pass_s, ops_per_pass, &lat);
    rep.note("op", "one SearchSystem::search call");
    rep.note("op_samples", format!("{ops_per_pass} per pass"));
    rep.note(
        "passes",
        format!(
            "{} passes of {systems_per_pass} systems x {} queries",
            pass_s.len(),
            full.queries
        ),
    );
    rep.note("digest", digest.hex());

    if !traced {
        return;
    }
    let inp = last_inputs.expect("at least one pass ran");
    rep.layer(
        "trace.overhead_frac",
        median(&mut traced_s) / median(&mut untraced_s) - 1.0,
        "ratio",
    );
    let recorder = recorder_overhead(mix, &inp, rep);
    rep.layer("obs.recorder_overhead_frac", recorder, "ratio");
    // Set-up spans are recorded on the traced passes only.
    let setups = traced_s.len() as f64;
    rep.layer(
        "faults.plan.build_s",
        tr.total("faults.plan.build") / setups,
        "s",
    );
    rep.layer(
        "search.spec.build_s",
        tr.total("search.spec.build") / setups,
        "s",
    );
    rep.layer(
        "search.world.generate_s",
        tr.total("search.world.generate") / setups,
        "s",
    );
    let mean = |f: &dyn Fn(&PassSummary) -> f64| {
        summaries.iter().map(f).sum::<f64>() / summaries.len() as f64
    };
    let queries = full.queries as f64;
    match mix {
        Mix::Search => {
            rep.layer(
                "sketch.synopsis.build_s",
                tr.total("sketch.synopsis.build") / setups,
                "s",
            );
            for (k, l) in MIX_SYSTEMS.iter().enumerate() {
                let t = &totals[k];
                rep.layer(
                    format!("search.{}.query_p50_us", l.name),
                    mean(&|p| p.system[k].0),
                    "us",
                );
                rep.layer(
                    format!("search.{}.query_p99_us", l.name),
                    mean(&|p| p.system[k].1),
                    "us",
                );
                rep.layer(
                    format!("search.{}.msgs_per_query", l.name),
                    t.messages as f64 / queries,
                    "count",
                );
                rep.layer(
                    format!("search.{}.success_rate", l.name),
                    t.successes as f64 / queries,
                    "ratio",
                );
            }
            rep.layer("dht.lookup_query_us", mean(&|p| p.dht.0), "us");
            rep.layer("dht.maint_query_us", mean(&|p| p.dht.1), "us");
            rep.layer(
                "dht.maintenance_msgs",
                totals[DHT_ONLY].maintenance_messages as f64,
                "count",
            );
        }
        Mix::Event => {
            for (h, prefix) in ["overlay.event", "overlay.overload"]
                .into_iter()
                .enumerate()
            {
                rep.layer(
                    format!("{prefix}.query_p50_us"),
                    mean(&|p| p.halves[h].0),
                    "us",
                );
                rep.layer(
                    format!("{prefix}.query_p99_us"),
                    mean(&|p| p.halves[h].1),
                    "us",
                );
            }
            let cap = &totals[SPEC_KINDS..];
            let sum = |f: usize| cap.iter().map(|t| t.overload[f]).sum::<u64>() as f64;
            let (enqueued, served, shed) = (sum(0), sum(1), sum(2));
            rep.layer("overlay.overload.enqueued", enqueued, "count");
            rep.layer("overlay.overload.served", served, "count");
            rep.layer("overlay.overload.shed", shed, "count");
            rep.layer(
                "overlay.overload.served_frac",
                served / enqueued.max(1.0),
                "ratio",
            );
            let msgs: f64 = totals.iter().map(|t| t.messages as f64).sum();
            let total_s: f64 = pass_s.iter().sum();
            rep.layer(
                "vtime.msgs_per_s",
                msgs * pass_s.len() as f64 / total_s,
                "1/s",
            );
        }
    }
}
