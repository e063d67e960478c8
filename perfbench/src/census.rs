//! `fig8-census`: the Figure-8 world swept through the hop census.
//!
//! A 40k-node two-tier Gnutella overlay, TTL 1..5, and nine curves per
//! pass: uniform-1/4/9/19/39, Zipf τ=2.05, Zipf grown by two replication
//! plans (Gia one-hop and square-root allocation, each 4 extra copies per
//! object), and one faulty sweep (loss 0.05, churn 0.10) over Zipf. The
//! census runs on `Pool::new(1)`, which is two compute threads.

use crate::harness::{
    median, p50_p99, report_passes, run_passes, timed, Digest, Expected, Pins, Report, Tracer,
    Usage,
};
use crate::WORLD_SEED;
use qcp_core::faults::{FaultConfig, FaultPlan};
use qcp_core::overlay::topology::gnutella_two_tier;
use qcp_core::overlay::{
    sweep_ttl, sweep_ttl_faulty, sweep_ttl_faulty_reference, sweep_ttl_reference, Graph, Placement,
    PlacementModel, ReplicationPlan, ReplicationScheme, SimConfig, SweepPoint, TargetModel,
    TopologyConfig,
};
use qcp_core::util::rng::child_seed;
use qcp_core::xpar::Pool;

/// TTLs of every curve (the paper's Figure 8 axis).
const TTLS: [u32; 5] = [1, 2, 3, 4, 5];
/// Uniform replica counts (the paper's 1/4/9/19/39).
const UNIFORM_K: [u32; 5] = [1, 4, 9, 19, 39];
/// Trials in each census oracle slice.
const ORACLE_TRIALS: usize = 300;
/// Times the world is built, for the set-up median.
const SETUP_REPS: usize = 11;

/// World and trial sizes.
#[derive(Clone, Copy)]
struct Size {
    nodes: usize,
    trials: usize,
}

/// The measured size.
const FULL: Size = Size {
    nodes: 40_000,
    trials: 1_000,
};
/// The canary size.
const SMOKE: Size = Size {
    nodes: 4_000,
    trials: 300,
};

/// The built Figure-8 world.
struct World {
    graph: Graph,
    forwarders: Vec<bool>,
    /// Fault-free curves: label and placement.
    placements: Vec<(String, Placement)>,
    /// Index of the Zipf placement in `placements`.
    zipf: usize,
    plan: FaultPlan,
    sim: SimConfig,
}

/// Builds the world. Overlay, placements and fault plan are the
/// benchmark's fixed dataset, built from [`WORLD_SEED`]; `seed` draws the
/// trial stream (each trial's source and target object).
fn build_world(size: Size, seed: u64, tr: &mut Tracer) -> World {
    let topo = tr.span("overlay.topology.build", |_| {
        gnutella_two_tier(&TopologyConfig {
            num_nodes: size.nodes,
            seed: child_seed(WORLD_SEED, 1),
            ..Default::default()
        })
    });
    let n = topo.graph.num_nodes() as u32;
    let objects = n / 2;
    let mut placements = Vec::new();
    for k in UNIFORM_K {
        let p = tr.span("overlay.placement.generate", |_| {
            Placement::generate(
                PlacementModel::UniformK(k),
                n,
                objects,
                child_seed(WORLD_SEED, 10 + u64::from(k)),
            )
        });
        placements.push((format!("uniform-{k}"), p));
    }
    let zipf = tr.span("overlay.placement.generate", |_| {
        Placement::generate(
            PlacementModel::ZipfReplicas { tau: 2.05 },
            n,
            objects,
            child_seed(WORLD_SEED, 2),
        )
    });
    for (label, scheme) in [
        ("gia-one-hop", ReplicationScheme::GiaOneHop),
        ("sqrt-allocation", ReplicationScheme::SqrtAllocation),
    ] {
        let plan = ReplicationPlan::new(scheme, 4 * u64::from(objects), child_seed(WORLD_SEED, 3));
        let p = tr.span("overlay.replicate.apply", |_| {
            plan.apply(&topo.graph, &zipf)
        });
        placements.push((label.to_string(), p));
    }
    placements.push(("zipf".to_string(), zipf));
    let plan = tr.span("faults.plan.build", |_| {
        FaultPlan::build(
            n as usize,
            &FaultConfig {
                loss: 0.05,
                churn: 0.10,
                horizon: size.trials as u64,
                mean_latency: 2,
                rejoin: true,
                seed: child_seed(WORLD_SEED, 4),
            },
        )
    });
    World {
        forwarders: topo.forwarders(),
        graph: topo.graph,
        zipf: placements.len() - 1,
        placements,
        plan,
        sim: SimConfig {
            trials: size.trials,
            target: TargetModel::UniformObject,
            seed: child_seed(seed, 5),
        },
    }
}

fn digest_curve(d: &mut Digest, curve: &[SweepPoint]) {
    for p in curve {
        d.u64(u64::from(p.ttl));
        d.f64(p.success_rate);
        d.f64(p.mean_reached);
        d.f64(p.mean_reach_fraction);
        d.f64(p.mean_messages);
        d.u64(p.dead_sources);
        let s = p.faults();
        for x in [
            s.dropped,
            s.dead_targets,
            s.retries,
            s.timeouts,
            s.stale_misses,
            s.ticks,
        ] {
            d.u64(x);
        }
    }
}

fn same_bits(a: &[SweepPoint], b: &[SweepPoint]) -> bool {
    let mut da = Digest::default();
    let mut db = Digest::default();
    digest_curve(&mut da, a);
    digest_curve(&mut db, b);
    a.len() == b.len() && da == db
}

/// One pass's outputs and host costs.
struct Pass {
    digest: Digest,
    /// Wall seconds of each curve's sweep call, the faulty one last.
    curve_s: Vec<f64>,
    /// Process CPU seconds over the sweep calls.
    cpu_s: f64,
    msgs: f64,
    reached: f64,
    monotone: bool,
}

fn pass(pool: &Pool, w: &World, tr: &mut Tracer) -> Pass {
    let mut p = Pass {
        digest: Digest::default(),
        curve_s: Vec::new(),
        cpu_s: 0.0,
        msgs: 0.0,
        reached: 0.0,
        monotone: true,
    };
    let trials = w.sim.trials as f64;
    let tally = |p: &mut Pass, curve: &[SweepPoint]| {
        digest_curve(&mut p.digest, curve);
        for pt in curve {
            p.msgs += (pt.mean_messages * trials).round();
            p.reached += (pt.mean_reached * trials).round();
        }
        p.monotone &= curve
            .windows(2)
            .all(|c| c[1].mean_reached >= c[0].mean_reached);
    };
    let u0 = Usage::now();
    for (_, placement) in &w.placements {
        let (curve, s) = timed(|| {
            tr.span("overlay.census.sweep", |_| {
                sweep_ttl(
                    pool,
                    &w.graph,
                    placement,
                    Some(&w.forwarders),
                    &TTLS,
                    &w.sim,
                )
            })
        });
        // Fault-free success can only grow with TTL.
        p.monotone &= curve
            .windows(2)
            .all(|c| c[1].success_rate >= c[0].success_rate);
        tally(&mut p, &curve);
        p.curve_s.push(s);
    }
    let (curve, faulty_s) = timed(|| {
        tr.span("overlay.census.faulty_sweep", |_| {
            sweep_ttl_faulty(
                pool,
                &w.graph,
                &w.placements[w.zipf].1,
                Some(&w.forwarders),
                &TTLS,
                &w.sim,
                &w.plan,
            )
        })
    });
    tally(&mut p, &curve);
    p.curve_s.push(faulty_s);
    p.cpu_s = Usage::now().cpu_s - u0.cpu_s;
    p
}

/// Checks one Zipf slice of the census, fault-free and faulty, bitwise
/// against the per-TTL reference sweeps.
fn oracle(pool: &Pool, w: &World, rep: &mut Report) {
    let sim = SimConfig {
        trials: ORACLE_TRIALS,
        ..w.sim.clone()
    };
    let zipf = &w.placements[w.zipf].1;
    let fw = Some(w.forwarders.as_slice());
    let census = sweep_ttl(pool, &w.graph, zipf, fw, &TTLS, &sim);
    let reference = sweep_ttl_reference(pool, &w.graph, zipf, fw, &TTLS, &sim);
    rep.check(ORACLE_TRIALS as u64, same_bits(&census, &reference), || {
        "census sweep differs from sweep_ttl_reference".to_string()
    });
    let census = sweep_ttl_faulty(pool, &w.graph, zipf, fw, &TTLS, &sim, &w.plan);
    let reference = sweep_ttl_faulty_reference(pool, &w.graph, zipf, fw, &TTLS, &sim, &w.plan);
    rep.check(ORACLE_TRIALS as u64, same_bits(&census, &reference), || {
        "faulty census sweep differs from sweep_ttl_faulty_reference".to_string()
    });
}

/// One pass at full or smoke size and `seed`: its digest and op count.
pub fn digest(full: bool, seed: u64) -> (Digest, u64) {
    let size = if full { FULL } else { SMOKE };
    let pool = Pool::new(1);
    let mut tr = Tracer::new(false);
    let w = build_world(size, seed, &mut tr);
    let ops = (size.trials * (w.placements.len() + 1)) as u64;
    (pass(&pool, &w, &mut tr).digest, ops)
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer, pins: &Pins, rep: &mut Report) {
    let pool = Pool::new(1);
    let traced = tr.enabled();

    let mut setup = Vec::new();
    let mut world = None;
    for _ in 0..SETUP_REPS {
        let (w, s) = timed(|| build_world(FULL, seed, tr));
        setup.push(s);
        world = Some(w);
    }
    let w = world.expect("SETUP_REPS >= 1");
    oracle(&pool, &w, rep);

    let curves = w.placements.len() + 1;
    let ops_per_pass = (FULL.trials * curves) as u64;
    let mut expected = Expected::new(pins, crate::CENSUS, seed);
    // Wall seconds of each curve's sweep call, per pass (faulty last).
    let mut curve_s: Vec<Vec<f64>> = vec![Vec::new(); curves];
    let mut cpu_s = 0.0;
    let mut wall_s = 0.0;
    let mut counts = (0.0, 0.0);
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let pass_s = run_passes(seconds, if traced { 2 } else { 1 }, |i| {
        // The traced run alternates untraced and traced passes, so it
        // can report its own overhead.
        tr.set_enabled(traced && i % 2 == 1);
        let p = pass(&pool, &w, tr);
        let ok = expected.matches(p.digest) && p.monotone;
        rep.check(ops_per_pass, ok, || {
            format!(
                "{}; monotone in TTL: {}",
                expected.mismatch(p.digest),
                p.monotone
            )
        });
        let total: f64 = p.curve_s.iter().sum();
        for (per_curve, &s) in curve_s.iter_mut().zip(&p.curve_s) {
            per_curve.push(s);
        }
        cpu_s += p.cpu_s;
        wall_s += total;
        counts = (p.msgs, p.reached);
        if tr.enabled() {
            traced_s.push(total);
        } else {
            untraced_s.push(total);
        }
        total
    });
    tr.set_enabled(traced);

    let per_trial_us: Vec<(f64, f64)> = (0..pass_s.len())
        .map(|p| {
            p50_p99(
                curve_s
                    .iter()
                    .map(|c| c[p] / FULL.trials as f64 * 1e6)
                    .collect(),
            )
        })
        .collect();
    report_passes(rep, &mut setup, &pass_s, ops_per_pass, &per_trial_us);
    rep.note("op_samples", format!("{curves} sweep calls per pass"));
    rep.note(
        "op",
        "one flood trial against one placement; op latency = sweep call wall / trials",
    );
    rep.note(
        "passes",
        format!(
            "{} passes of {curves} curves x {} trials",
            pass_s.len(),
            FULL.trials
        ),
    );
    rep.note(
        "digest",
        expected.first().map_or(String::new(), Digest::hex),
    );

    if !traced {
        return;
    }
    rep.layer(
        "trace.overhead_frac",
        median(&mut traced_s) / median(&mut untraced_s) - 1.0,
        "ratio",
    );
    let builds = SETUP_REPS as f64;
    for (name, metric) in [
        ("overlay.topology.build", "overlay.topology.build_s"),
        ("overlay.placement.generate", "overlay.placement.generate_s"),
        ("overlay.replicate.apply", "overlay.replicate.apply_s"),
        ("faults.plan.build", "faults.plan.build_s"),
    ] {
        rep.layer(metric, tr.total(name) / builds, "s");
    }
    let passes = pass_s.len() as f64;
    let mut sweep_s: Vec<f64> = curve_s[..curves - 1].iter().flatten().copied().collect();
    let mut faulty_s = curve_s[curves - 1].clone();
    rep.layer("overlay.census.sweep_s", median(&mut sweep_s), "s");
    rep.layer("overlay.census.faulty_sweep_s", median(&mut faulty_s), "s");
    rep.layer(
        "overlay.census.trials_per_s",
        ops_per_pass as f64 * passes / wall_s,
        "1/s",
    );
    rep.layer("overlay.census.msgs", counts.0, "count");
    rep.layer("overlay.census.reached", counts.1, "count");
    rep.layer(
        "xpar.compute_threads",
        crate::compute_threads(&pool) as f64,
        "count",
    );
    rep.layer(
        "xpar.cpu_util",
        cpu_s / (wall_s * crate::harness::nproc() as f64),
        "ratio",
    );
}
