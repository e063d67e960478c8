//! Parallel trial sweeps (the Figure 8 driver).
//!
//! For each trial, pick a source peer and a target object, flood, and
//! record success/reach/messages. Trials are deterministic functions of
//! `(seed, trial_index)` and run across the `qcp-xpar` pool in chunks.
//! A fault-free census chunk is one batch of up to [`LANES`] consecutive
//! trials flooded together by a [`LaneCensus`]; every other sweep's
//! chunk owns one reusable [`FloodEngine`] and floods trial by trial.
//!
//! # One census per trial
//!
//! [`sweep_ttl`]/[`sweep_ttl_faulty`] produce a whole TTL curve from
//! **one** census per trial, run at `max(ttls)`: its per-level snapshots
//! reconstruct every shorter flood exactly (the BFS prefix property — see
//! `flood`'s module docs). [`sweep_ttl`] runs 64 of those censuses per
//! BFS pass on `u64` lane masks ([`LaneCensus`]); [`sweep_ttl_faulty`]
//! keeps one [`FloodEngine`] census per trial, because its drop draws key
//! on each flood's own message order.
//! Trials use *common random numbers* across TTLs: the trial RNG is
//! keyed by `trial` alone, so every TTL point of a curve shares the same
//! `(source, object)` stream. An 8-point curve therefore costs one
//! expanding ball instead of the sum of eight, and the per-TTL
//! differences within a curve are purely the TTL's doing, never sampling
//! noise.
//!
//! [`sweep_ttl_reference`]/[`sweep_ttl_faulty_reference`] keep the
//! pre-census path — one full flood per (trial, TTL) over the *same*
//! trial stream — as the correctness oracle: both sweeps are pinned
//! bitwise-equal in tests, the census one is just ≥3× cheaper on the
//! 8-TTL Figure-8 curve (`repro bench`).

use crate::flood::{CensusBuf, FloodEngine, FloodSpec, LaneCensus, LANES};
use crate::graph::Graph;
use crate::placement::Placement;
use qcp_faults::{FaultPlan, FaultStats};
use qcp_obs::{NoopRecorder, Recorder};
use qcp_util::rng::{child_seed, Pcg64};
use qcp_xpar::Pool;

/// Stream tag XOR-ed into the base seed to derive per-trial fault nonces.
/// Keeping the nonce on a separate `child_seed` stream means the trial RNG
/// consumes exactly the same draws as the fault-free sweep, which is what
/// makes the zero-fault run bit-identical to [`flood_trials`].
const FAULT_NONCE_STREAM: u64 = 0xfa17_5eed_0b5e_55ed;

/// How the queried object is chosen per trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetModel {
    /// Uniformly over all objects (the paper's setup: success then depends
    /// purely on the replica distribution).
    UniformObject,
    /// Proportional to each object's replica count (an optimistic model
    /// where queries favor well-replicated content; used in ablations).
    ProportionalToReplicas,
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Query trials per curve (shared across every TTL point via common
    /// random numbers).
    pub trials: usize,
    /// Target selection model.
    pub target: TargetModel,
    /// Base seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            trials: 10_000,
            target: TargetModel::UniformObject,
            seed: 0xf18,
        }
    }
}

/// One point of the success-rate curve — fault-free and fault sweeps
/// share this type: fault-free sweeps leave `stats == None`, faulty
/// sweeps (even under [`FaultPlan::none`]) carry `Some` aggregated
/// degraded-mode accounting, and every consumer formats both shapes
/// through the same code path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// TTL used.
    pub ttl: u32,
    /// Fraction of trials that found the target.
    pub success_rate: f64,
    /// Mean peers reached per flood.
    pub mean_reached: f64,
    /// Mean fraction of the network reached.
    pub mean_reach_fraction: f64,
    /// Mean messages per query.
    pub mean_messages: f64,
    /// Fault counters summed across all trials at this TTL; `None` for
    /// fault-free sweeps (which never consult a [`FaultPlan`]).
    pub stats: Option<FaultStats>,
    /// Trials whose sampled source was down at query time and had to be
    /// re-issued from the next alive peer (0 when churn is off). Source
    /// liveness is TTL-independent, so under common random numbers every
    /// point of one curve reports the same count.
    pub dead_sources: u64,
}

impl SweepPoint {
    /// The fault counters, defaulting to all-zero for fault-free points
    /// — lets consumers format clean and degraded curves uniformly.
    pub fn faults(&self) -> FaultStats {
        self.stats.unwrap_or_default()
    }
}

/// Cumulative-weight target sampler, built **once per sweep** (not per
/// TTL point): the proportional model's cumulative vector is O(objects)
/// to construct and read-only afterwards.
struct TargetSampler<'a> {
    placement: &'a Placement,
    model: TargetModel,
    /// Cumulative replica counts for proportional sampling.
    cumulative: Vec<u64>,
}

impl<'a> TargetSampler<'a> {
    fn new(placement: &'a Placement, model: TargetModel) -> Self {
        let cumulative = match model {
            TargetModel::UniformObject => Vec::new(),
            TargetModel::ProportionalToReplicas => {
                let mut acc = 0u64;
                (0..placement.num_objects() as u32)
                    .map(|o| {
                        acc += placement.replicas(o) as u64;
                        acc
                    })
                    .collect()
            }
        };
        Self {
            placement,
            model,
            cumulative,
        }
    }

    fn sample(&self, rng: &mut Pcg64) -> u32 {
        match self.model {
            TargetModel::UniformObject => rng.index(self.placement.num_objects()) as u32,
            TargetModel::ProportionalToReplicas => {
                // qcplint: allow(panic) — `cumulative` has one entry per
                // object and the constructor asserts num_objects >= 1.
                let total = *self.cumulative.last().expect("no objects");
                let x = rng.below(total);
                self.cumulative.partition_point(|&c| c <= x) as u32
            }
        }
    }
}

/// Per-TTL integer accumulator (reduced across chunks with plain sums,
/// so pool width cannot perturb the result).
#[derive(Default, Clone, Copy)]
struct PointAcc {
    successes: u64,
    reached: u64,
    messages: u64,
}

impl PointAcc {
    fn absorb(&mut self, other: &PointAcc) {
        self.successes += other.successes;
        self.reached += other.reached;
        self.messages += other.messages;
    }

    fn point(&self, ttl: u32, trials: u64, n: usize) -> SweepPoint {
        // Loud guard: a zero-trial sweep must fail, not report 0.0 rates.
        assert!(trials > 0, "sweep ran zero trials (SimConfig.trials == 0?)");
        let t = trials as f64;
        SweepPoint {
            ttl,
            success_rate: self.successes as f64 / t,
            mean_reached: self.reached as f64 / t,
            mean_reach_fraction: self.reached as f64 / t / n as f64,
            mean_messages: self.messages as f64 / t,
            stats: None,
            dead_sources: 0,
        }
    }
}

/// Runs `config.trials` flooded queries at a single TTL — the per-TTL
/// *reference* path (one full flood per trial). The trial stream is keyed
/// by `trial` alone, so [`sweep_ttl`]'s census point at the same TTL is
/// bitwise-identical (pinned in tests).
pub fn flood_trials(
    pool: &Pool,
    graph: &Graph,
    placement: &Placement,
    forwarders: Option<&[bool]>,
    ttl: u32,
    config: &SimConfig,
) -> SweepPoint {
    assert!(graph.num_nodes() > 0 && placement.num_objects() > 0);
    let sampler = TargetSampler::new(placement, config.target);
    flood_trials_with_sampler(pool, graph, &sampler, forwarders, ttl, config)
}

/// Reference trials with a pre-built sampler (hoisted out of the per-TTL
/// call path by [`sweep_ttl_reference`]).
fn flood_trials_with_sampler(
    pool: &Pool,
    graph: &Graph,
    sampler: &TargetSampler<'_>,
    forwarders: Option<&[bool]>,
    ttl: u32,
    config: &SimConfig,
) -> SweepPoint {
    let n = graph.num_nodes();
    let chunks = (pool.threads() * 4).max(1);
    let per_chunk = config.trials.div_ceil(chunks);

    let partials: Vec<(PointAcc, u64)> = pool.par_map_indexed(chunks, |c| {
        let mut engine = FloodEngine::new(n);
        let mut acc = PointAcc::default();
        let mut trials = 0u64;
        let lo = c * per_chunk;
        let hi = (lo + per_chunk).min(config.trials);
        for trial in lo..hi {
            let mut rng = Pcg64::new(child_seed(config.seed, trial as u64));
            let source = rng.index(n) as u32;
            let object = sampler.sample(&mut rng);
            let out = engine.flood(
                graph,
                source,
                ttl,
                sampler.placement.holders(object),
                forwarders,
            );
            trials += 1;
            acc.successes += out.found as u64;
            acc.reached += out.reached as u64;
            acc.messages += out.messages;
        }
        (acc, trials)
    });

    let mut total = PointAcc::default();
    let mut trials = 0u64;
    for (p, t) in partials {
        total.absorb(&p);
        trials += t;
    }
    total.point(ttl, trials, n)
}

/// Runs `config.trials` flooded queries at a single TTL under `plan` —
/// the faulty per-TTL *reference* path.
///
/// Per-trial derivation is identical to [`flood_trials`]: the same
/// `(seed, trial)` → RNG stream and the same source-then-object draw
/// order, so under [`FaultPlan::none`] the returned [`SweepPoint`] is
/// bit-identical to the fault-free sweep. Fault draws use a *separate*
/// per-trial nonce derived with [`FAULT_NONCE_STREAM`], leaving the trial
/// RNG untouched — and the nonce is keyed by `trial` alone, never the
/// TTL, which is what lets [`sweep_ttl_faulty`] reconstruct every TTL
/// point from one census (fault draws key on `(edge, nonce, msg index)`,
/// all TTL-independent).
///
/// Each trial executes at tick `trial % horizon`, so the plan's churn
/// schedule plays out across the workload. A trial whose sampled source
/// is down is re-issued from the next alive node id (wrapping scan); if
/// nobody is alive at that tick the trial counts as an outright failure
/// with zero messages.
pub fn flood_trials_faulty(
    pool: &Pool,
    graph: &Graph,
    placement: &Placement,
    forwarders: Option<&[bool]>,
    ttl: u32,
    config: &SimConfig,
    plan: &FaultPlan,
) -> SweepPoint {
    assert!(graph.num_nodes() > 0 && placement.num_objects() > 0);
    assert_eq!(
        plan.num_nodes(),
        graph.num_nodes(),
        "fault plan must cover every node"
    );
    let sampler = TargetSampler::new(placement, config.target);
    flood_trials_faulty_with_sampler(pool, graph, &sampler, forwarders, ttl, config, plan)
}

/// Faulty reference trials with a pre-built sampler.
fn flood_trials_faulty_with_sampler(
    pool: &Pool,
    graph: &Graph,
    sampler: &TargetSampler<'_>,
    forwarders: Option<&[bool]>,
    ttl: u32,
    config: &SimConfig,
    plan: &FaultPlan,
) -> SweepPoint {
    let n = graph.num_nodes();
    let chunks = (pool.threads() * 4).max(1);
    let per_chunk = config.trials.div_ceil(chunks);
    let horizon = plan.horizon().max(1);

    #[derive(Default, Clone, Copy)]
    struct Acc {
        point: PointAcc,
        trials: u64,
        faults: FaultStats,
        dead_sources: u64,
    }

    let partials: Vec<Acc> = pool.par_map_indexed(chunks, |c| {
        let mut engine = FloodEngine::new(n);
        let mut acc = Acc::default();
        let lo = c * per_chunk;
        let hi = (lo + per_chunk).min(config.trials);
        for trial in lo..hi {
            let key = trial as u64;
            let mut rng = Pcg64::new(child_seed(config.seed, key));
            let source = rng.index(n) as u32;
            let object = sampler.sample(&mut rng);
            let time = trial as u64 % horizon;
            let nonce = child_seed(config.seed ^ FAULT_NONCE_STREAM, key);
            let source = if plan.alive_at(source, time) {
                source
            } else {
                acc.dead_sources += 1;
                match plan.first_alive_from(source, time) {
                    Some(s) => s,
                    None => {
                        // Whole network down at this tick: query fails.
                        acc.trials += 1;
                        continue;
                    }
                }
            };
            let (out, stats) = engine.flood_faulty(
                graph,
                source,
                ttl,
                sampler.placement.holders(object),
                forwarders,
                plan,
                time,
                nonce,
            );
            acc.trials += 1;
            acc.point.successes += out.found as u64;
            acc.point.reached += out.reached as u64;
            acc.point.messages += out.messages;
            acc.faults.absorb(&stats);
        }
        acc
    });

    let mut total = Acc::default();
    for p in partials {
        total.point.absorb(&p.point);
        total.trials += p.trials;
        total.faults.absorb(&p.faults);
        total.dead_sources += p.dead_sources;
    }
    SweepPoint {
        stats: Some(total.faults),
        dead_sources: total.dead_sources,
        ..total.point.point(ttl, total.trials, n)
    }
}

/// Sweeps TTLs with **one hop census per trial**, 64 trials per BFS
/// pass ([`LaneCensus`]): the census runs at `max(ttls)` and every TTL
/// point of the curve is reconstructed from its per-level snapshots
/// ([`CensusOutcome::at`]) — bitwise-identical to
/// [`sweep_ttl_reference`] at a fraction of the cost.
///
/// [`CensusOutcome::at`]: crate::flood::CensusOutcome::at
pub fn sweep_ttl(
    pool: &Pool,
    graph: &Graph,
    placement: &Placement,
    forwarders: Option<&[bool]>,
    ttls: &[u32],
    config: &SimConfig,
) -> Vec<SweepPoint> {
    sweep_ttl_rec(
        pool,
        graph,
        placement,
        forwarders,
        ttls,
        config,
        &mut NoopRecorder,
    )
}

/// [`sweep_ttl`] with an explicit [`Recorder`]. Each lane batch forks
/// a child recorder, which receives per trial the calls a
/// [`FloodEngine::run_into`] census would make, and the children are
/// absorbed **in batch-index order** after the parallel section, so the
/// merged recorder state — like the sweep itself — is independent of
/// pool width. The recorder is write-only: it is never consulted by the
/// trial RNG or control flow, so the returned curve is bitwise-identical
/// whether `rec` is a [`NoopRecorder`] or a [`qcp_obs::MetricsRecorder`]
/// (pinned in tests).
#[allow(clippy::too_many_arguments)] // mirrors sweep_ttl plus the recorder
pub fn sweep_ttl_rec<R: Recorder>(
    pool: &Pool,
    graph: &Graph,
    placement: &Placement,
    forwarders: Option<&[bool]>,
    ttls: &[u32],
    config: &SimConfig,
    rec: &mut R,
) -> Vec<SweepPoint> {
    let n = graph.num_nodes();
    assert!(n > 0 && placement.num_objects() > 0);
    if ttls.is_empty() {
        return Vec::new();
    }
    let max_ttl = ttls.iter().copied().max().unwrap_or(0);
    let sampler = TargetSampler::new(placement, config.target);
    let batches = config.trials.div_ceil(LANES);

    let parent: &R = &*rec;
    let partials: Vec<(Vec<PointAcc>, u64, R)> = pool.par_map_indexed(batches, |b| {
        // One chunk is one lane batch of up to LANES consecutive trials,
        // so chunking depends on the trial count alone, never pool width.
        let lo = b * LANES;
        let hi = (lo + LANES).min(config.trials);
        let batch: Vec<(u32, &[u32])> = (lo..hi)
            .map(|trial| {
                let mut rng = Pcg64::new(child_seed(config.seed, trial as u64));
                let source = rng.index(n) as u32;
                let object = sampler.sample(&mut rng);
                (source, sampler.placement.holders(object))
            })
            .collect();
        let mut lanes = LaneCensus::new(n);
        let mut child = parent.fork();
        lanes.run(graph, &batch, max_ttl, forwarders, &mut child);
        let mut accs = vec![PointAcc::default(); ttls.len()];
        for census in lanes.outcomes() {
            for (acc, &ttl) in accs.iter_mut().zip(ttls) {
                let out = census.at(ttl);
                acc.successes += out.found as u64;
                acc.reached += out.reached as u64;
                acc.messages += out.messages;
            }
        }
        (accs, batch.len() as u64, child)
    });

    let mut totals = vec![PointAcc::default(); ttls.len()];
    let mut trials = 0u64;
    for (accs, t, child) in partials {
        for (total, p) in totals.iter_mut().zip(&accs) {
            total.absorb(p);
        }
        trials += t;
        rec.absorb(child);
    }
    totals
        .iter()
        .zip(ttls)
        .map(|(total, &ttl)| total.point(ttl, trials, n))
        .collect()
}

/// Reference TTL sweep: one full flood per (trial, TTL) over the same
/// trial stream as [`sweep_ttl`]. Kept as the census's correctness
/// oracle and the baseline side of `repro bench`; the sampler is built
/// once for the whole sweep, not per TTL point.
pub fn sweep_ttl_reference(
    pool: &Pool,
    graph: &Graph,
    placement: &Placement,
    forwarders: Option<&[bool]>,
    ttls: &[u32],
    config: &SimConfig,
) -> Vec<SweepPoint> {
    assert!(graph.num_nodes() > 0 && placement.num_objects() > 0);
    let sampler = TargetSampler::new(placement, config.target);
    ttls.iter()
        .map(|&ttl| flood_trials_with_sampler(pool, graph, &sampler, forwarders, ttl, config))
        .collect()
}

/// Sweeps TTLs under a fault plan with **one faulty census per trial**:
/// bitwise-identical to [`sweep_ttl_faulty_reference`] (fault draws are
/// TTL-independent — see [`flood_trials_faulty`]) at a fraction of the
/// cost, per-level cumulative [`FaultStats`] included.
pub fn sweep_ttl_faulty(
    pool: &Pool,
    graph: &Graph,
    placement: &Placement,
    forwarders: Option<&[bool]>,
    ttls: &[u32],
    config: &SimConfig,
    plan: &FaultPlan,
) -> Vec<SweepPoint> {
    sweep_ttl_faulty_rec(
        pool,
        graph,
        placement,
        forwarders,
        ttls,
        config,
        plan,
        &mut NoopRecorder,
    )
}

/// [`sweep_ttl_faulty`] with an explicit [`Recorder`] — same fork /
/// chunk-ordered-absorb contract as [`sweep_ttl_rec`].
#[allow(clippy::too_many_arguments)] // mirrors sweep_ttl_faulty plus the recorder
pub fn sweep_ttl_faulty_rec<R: Recorder>(
    pool: &Pool,
    graph: &Graph,
    placement: &Placement,
    forwarders: Option<&[bool]>,
    ttls: &[u32],
    config: &SimConfig,
    plan: &FaultPlan,
    rec: &mut R,
) -> Vec<SweepPoint> {
    let n = graph.num_nodes();
    assert!(n > 0 && placement.num_objects() > 0);
    assert_eq!(plan.num_nodes(), n, "fault plan must cover every node");
    if ttls.is_empty() {
        return Vec::new();
    }
    let max_ttl = ttls.iter().copied().max().unwrap_or(0);
    let sampler = TargetSampler::new(placement, config.target);
    let chunks = (pool.threads() * 4).max(1);
    let per_chunk = config.trials.div_ceil(chunks);
    let horizon = plan.horizon().max(1);

    #[derive(Default, Clone)]
    struct Acc {
        points: Vec<PointAcc>,
        faults: Vec<FaultStats>,
        trials: u64,
        dead_sources: u64,
    }

    let parent: &R = &*rec;
    let partials: Vec<(Acc, R)> = pool.par_map_indexed(chunks, |c| {
        // Arena state per chunk, as in the fault-free sweep.
        let mut engine = FloodEngine::new(n);
        let mut buf = CensusBuf::default();
        let mut child = parent.fork();
        let mut acc = Acc {
            points: vec![PointAcc::default(); ttls.len()],
            faults: vec![FaultStats::default(); ttls.len()],
            ..Default::default()
        };
        let lo = c * per_chunk;
        let hi = (lo + per_chunk).min(config.trials);
        for trial in lo..hi {
            let key = trial as u64;
            let mut rng = Pcg64::new(child_seed(config.seed, key));
            let source = rng.index(n) as u32;
            let object = sampler.sample(&mut rng);
            let time = trial as u64 % horizon;
            let nonce = child_seed(config.seed ^ FAULT_NONCE_STREAM, key);
            let source = if plan.alive_at(source, time) {
                source
            } else {
                acc.dead_sources += 1;
                match plan.first_alive_from(source, time) {
                    Some(s) => s,
                    None => {
                        // Whole network down at this tick: the trial
                        // fails at every TTL with zero messages.
                        acc.trials += 1;
                        continue;
                    }
                }
            };
            let spec = FloodSpec::new(max_ttl).faulty(plan, time, nonce);
            engine.run_into(
                graph,
                source,
                sampler.placement.holders(object),
                forwarders,
                &spec,
                &mut child,
                &mut buf,
            );
            acc.trials += 1;
            let levels = buf.census.levels();
            for (i, &ttl) in ttls.iter().enumerate() {
                let out = buf.census.at(ttl);
                acc.points[i].successes += out.found as u64;
                acc.points[i].reached += out.reached as u64;
                acc.points[i].messages += out.messages;
                acc.faults[i].absorb(&buf.stats[ttl.min(levels) as usize]);
            }
        }
        (acc, child)
    });

    let mut totals = vec![PointAcc::default(); ttls.len()];
    let mut faults = vec![FaultStats::default(); ttls.len()];
    let mut trials = 0u64;
    let mut dead_sources = 0u64;
    for (acc, child) in partials {
        for (total, p) in totals.iter_mut().zip(&acc.points) {
            total.absorb(p);
        }
        for (total, f) in faults.iter_mut().zip(&acc.faults) {
            total.absorb(f);
        }
        trials += acc.trials;
        dead_sources += acc.dead_sources;
        rec.absorb(child);
    }
    totals
        .iter()
        .zip(ttls)
        .zip(faults)
        .map(|((total, &ttl), f)| SweepPoint {
            stats: Some(f),
            dead_sources,
            ..total.point(ttl, trials, n)
        })
        .collect()
}

/// Reference faulty TTL sweep: one full faulty flood per (trial, TTL)
/// over the same trial and nonce streams as [`sweep_ttl_faulty`]. The
/// census sweep is pinned bitwise against this.
pub fn sweep_ttl_faulty_reference(
    pool: &Pool,
    graph: &Graph,
    placement: &Placement,
    forwarders: Option<&[bool]>,
    ttls: &[u32],
    config: &SimConfig,
    plan: &FaultPlan,
) -> Vec<SweepPoint> {
    assert!(graph.num_nodes() > 0 && placement.num_objects() > 0);
    assert_eq!(
        plan.num_nodes(),
        graph.num_nodes(),
        "fault plan must cover every node"
    );
    let sampler = TargetSampler::new(placement, config.target);
    ttls.iter()
        .map(|&ttl| {
            flood_trials_faulty_with_sampler(pool, graph, &sampler, forwarders, ttl, config, plan)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementModel;
    use crate::topology::erdos_renyi;

    fn pool() -> Pool {
        Pool::new(4)
    }

    #[test]
    fn full_replication_always_succeeds() {
        let t = erdos_renyi(200, 6.0, 1);
        let p = Placement::generate(PlacementModel::UniformK(200), 200, 50, 2);
        let point = flood_trials(
            &pool(),
            &t.graph,
            &p,
            None,
            1,
            &SimConfig {
                trials: 500,
                ..Default::default()
            },
        );
        assert_eq!(point.success_rate, 1.0);
    }

    #[test]
    fn zero_ttl_success_equals_replication_ratio() {
        // With TTL 0 only the source is checked: success ≈ k / n.
        let t = erdos_renyi(100, 6.0, 3);
        let p = Placement::generate(PlacementModel::UniformK(10), 100, 200, 4);
        let point = flood_trials(
            &pool(),
            &t.graph,
            &p,
            None,
            0,
            &SimConfig {
                trials: 4_000,
                ..Default::default()
            },
        );
        assert!(
            (point.success_rate - 0.10).abs() < 0.03,
            "success {} vs expected 0.10",
            point.success_rate
        );
    }

    #[test]
    fn success_monotone_in_ttl() {
        let t = erdos_renyi(1_000, 5.0, 5);
        let p = Placement::generate(PlacementModel::UniformK(5), 1_000, 100, 6);
        let curve = sweep_ttl(
            &pool(),
            &t.graph,
            &p,
            None,
            &[1, 2, 3, 4, 5],
            &SimConfig {
                trials: 1_000,
                ..Default::default()
            },
        );
        // Common random numbers across TTLs: monotonicity is exact per
        // trial, hence exact in the aggregate — no tolerance needed.
        for w in curve.windows(2) {
            assert!(
                w[1].success_rate >= w[0].success_rate,
                "success must not decrease with TTL: {curve:?}"
            );
            assert!(w[1].mean_reached >= w[0].mean_reached);
            assert!(w[1].mean_messages >= w[0].mean_messages);
        }
    }

    #[test]
    fn census_sweep_matches_reference_bitwise() {
        let t = erdos_renyi(500, 5.0, 30);
        let p = Placement::generate(PlacementModel::UniformK(4), 500, 100, 31);
        let cfg = SimConfig {
            trials: 600,
            ..Default::default()
        };
        let ttls = [0u32, 1, 2, 3, 4, 6];
        let census = sweep_ttl(&pool(), &t.graph, &p, None, &ttls, &cfg);
        let reference = sweep_ttl_reference(&pool(), &t.graph, &p, None, &ttls, &cfg);
        assert_eq!(census.len(), reference.len());
        for (a, b) in census.iter().zip(&reference) {
            assert_eq!(a.ttl, b.ttl);
            assert_eq!(a.success_rate.to_bits(), b.success_rate.to_bits());
            assert_eq!(a.mean_reached.to_bits(), b.mean_reached.to_bits());
            assert_eq!(a.mean_messages.to_bits(), b.mean_messages.to_bits());
            assert_eq!(
                a.mean_reach_fraction.to_bits(),
                b.mean_reach_fraction.to_bits()
            );
        }
    }

    #[test]
    fn single_ttl_census_equals_flood_trials() {
        // The acceptance pin: census(ttls=[T]) == reference flood at T
        // over the same trial stream, bitwise.
        let t = erdos_renyi(400, 5.0, 33);
        let p = Placement::generate(PlacementModel::UniformK(3), 400, 80, 34);
        let cfg = SimConfig {
            trials: 500,
            ..Default::default()
        };
        for ttl in [0u32, 2, 5] {
            let census = sweep_ttl(&pool(), &t.graph, &p, None, &[ttl], &cfg);
            let reference = flood_trials(&pool(), &t.graph, &p, None, ttl, &cfg);
            assert_eq!(census.len(), 1);
            assert_eq!(
                census[0].success_rate.to_bits(),
                reference.success_rate.to_bits()
            );
            assert_eq!(
                census[0].mean_messages.to_bits(),
                reference.mean_messages.to_bits()
            );
            assert_eq!(
                census[0].mean_reached.to_bits(),
                reference.mean_reached.to_bits()
            );
        }
    }

    #[test]
    fn faulty_census_sweep_matches_reference_bitwise() {
        use qcp_faults::FaultConfig;
        let t = erdos_renyi(400, 5.0, 35);
        let p = Placement::generate(PlacementModel::UniformK(4), 400, 80, 36);
        let cfg = SimConfig {
            trials: 500,
            ..Default::default()
        };
        let ttls = [1u32, 2, 3, 5];
        for plan in [
            FaultPlan::none(400),
            FaultPlan::build(
                400,
                &FaultConfig {
                    loss: 0.25,
                    churn: 0.3,
                    ..Default::default()
                },
            ),
        ] {
            let census = sweep_ttl_faulty(&pool(), &t.graph, &p, None, &ttls, &cfg, &plan);
            let reference =
                sweep_ttl_faulty_reference(&pool(), &t.graph, &p, None, &ttls, &cfg, &plan);
            for (a, b) in census.iter().zip(&reference) {
                assert_eq!(a.ttl, b.ttl);
                assert_eq!(a.success_rate.to_bits(), b.success_rate.to_bits());
                assert_eq!(a.mean_messages.to_bits(), b.mean_messages.to_bits());
                assert_eq!(a.mean_reached.to_bits(), b.mean_reached.to_bits());
                assert_eq!(a.stats, b.stats);
                assert_eq!(a.dead_sources, b.dead_sources);
            }
        }
    }

    #[test]
    fn more_replicas_help() {
        let t = erdos_renyi(1_000, 5.0, 7);
        let cfg = SimConfig {
            trials: 2_000,
            ..Default::default()
        };
        let p1 = Placement::generate(PlacementModel::UniformK(1), 1_000, 100, 8);
        let p40 = Placement::generate(PlacementModel::UniformK(40), 1_000, 100, 8);
        let s1 = flood_trials(&pool(), &t.graph, &p1, None, 2, &cfg).success_rate;
        let s40 = flood_trials(&pool(), &t.graph, &p40, None, 2, &cfg).success_rate;
        assert!(s40 > s1 * 3.0, "40 replicas {s40} vs 1 replica {s1}");
    }

    #[test]
    fn zipf_placement_tracks_low_uniform_replication() {
        // The paper's core simulation finding: Zipf placement behaves like
        // a *very low* uniform replication even though its mean is higher.
        let t = erdos_renyi(2_000, 6.0, 9);
        let cfg = SimConfig {
            trials: 3_000,
            ..Default::default()
        };
        let zipf = Placement::generate(PlacementModel::ZipfReplicas { tau: 2.4 }, 2_000, 5_000, 10);
        let uniform_mean = Placement::generate(
            PlacementModel::UniformK(zipf.mean_replicas().round().max(1.0) as u32),
            2_000,
            5_000,
            11,
        );
        let s_zipf = flood_trials(&pool(), &t.graph, &zipf, None, 3, &cfg).success_rate;
        let s_uniform = flood_trials(&pool(), &t.graph, &uniform_mean, None, 3, &cfg).success_rate;
        assert!(
            s_zipf < s_uniform,
            "zipf ({s_zipf}) must underperform uniform at equal mean ({s_uniform})"
        );
    }

    #[test]
    fn deterministic_sweep() {
        let t = erdos_renyi(300, 5.0, 12);
        let p = Placement::generate(PlacementModel::UniformK(3), 300, 50, 13);
        let cfg = SimConfig {
            trials: 500,
            ..Default::default()
        };
        let a = flood_trials(&pool(), &t.graph, &p, None, 2, &cfg);
        let b = flood_trials(&pool(), &t.graph, &p, None, 2, &cfg);
        assert_eq!(a, b);
        let ca = sweep_ttl(&pool(), &t.graph, &p, None, &[1, 2, 3], &cfg);
        let cb = sweep_ttl(&pool(), &t.graph, &p, None, &[1, 2, 3], &cfg);
        assert_eq!(ca, cb);
    }

    #[test]
    #[should_panic(expected = "zero trials")]
    fn zero_trial_config_fails_loudly() {
        let t = erdos_renyi(100, 5.0, 40);
        let p = Placement::generate(PlacementModel::UniformK(2), 100, 20, 41);
        let _ = sweep_ttl(
            &pool(),
            &t.graph,
            &p,
            None,
            &[1, 2],
            &SimConfig {
                trials: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "zero trials")]
    fn zero_trial_reference_fails_loudly_too() {
        let t = erdos_renyi(100, 5.0, 42);
        let p = Placement::generate(PlacementModel::UniformK(2), 100, 20, 43);
        let _ = flood_trials(
            &pool(),
            &t.graph,
            &p,
            None,
            1,
            &SimConfig {
                trials: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    fn empty_ttl_list_yields_empty_curve() {
        let t = erdos_renyi(100, 5.0, 44);
        let p = Placement::generate(PlacementModel::UniformK(2), 100, 20, 45);
        let cfg = SimConfig {
            trials: 10,
            ..Default::default()
        };
        assert!(sweep_ttl(&pool(), &t.graph, &p, None, &[], &cfg).is_empty());
        let plan = FaultPlan::none(100);
        assert!(sweep_ttl_faulty(&pool(), &t.graph, &p, None, &[], &cfg, &plan).is_empty());
    }

    #[test]
    fn faulty_sweep_under_none_plan_is_bitwise_identical() {
        let t = erdos_renyi(400, 5.0, 20);
        let p = Placement::generate(PlacementModel::UniformK(4), 400, 80, 21);
        let cfg = SimConfig {
            trials: 800,
            ..Default::default()
        };
        let plan = FaultPlan::none(400);
        let plain = sweep_ttl(&pool(), &t.graph, &p, None, &[1, 2, 3], &cfg);
        let faulty = sweep_ttl_faulty(&pool(), &t.graph, &p, None, &[1, 2, 3], &cfg, &plan);
        for (a, b) in plain.iter().zip(&faulty) {
            assert_eq!(a.success_rate.to_bits(), b.success_rate.to_bits());
            assert_eq!(a.mean_reached.to_bits(), b.mean_reached.to_bits());
            assert_eq!(a.mean_messages.to_bits(), b.mean_messages.to_bits());
            assert_eq!(a.stats, None, "fault-free sweep must not carry stats");
            assert_eq!(b.stats, Some(FaultStats::default()));
            assert_eq!(b.dead_sources, 0);
        }
    }

    #[test]
    fn loss_and_churn_degrade_success() {
        use qcp_faults::FaultConfig;
        let t = erdos_renyi(600, 5.0, 22);
        let p = Placement::generate(PlacementModel::UniformK(6), 600, 100, 23);
        let cfg = SimConfig {
            trials: 1_500,
            ..Default::default()
        };
        let clean =
            flood_trials_faulty(&pool(), &t.graph, &p, None, 3, &cfg, &FaultPlan::none(600));
        let harsh = FaultPlan::build(
            600,
            &FaultConfig {
                loss: 0.4,
                churn: 0.3,
                ..Default::default()
            },
        );
        let degraded = flood_trials_faulty(&pool(), &t.graph, &p, None, 3, &cfg, &harsh);
        assert!(
            degraded.success_rate < clean.success_rate,
            "40% loss + 30% churn must hurt: {} vs {}",
            degraded.success_rate,
            clean.success_rate
        );
        assert!(degraded.faults().dropped > 0);
        assert!(degraded.faults().dead_targets > 0);
        assert!(
            degraded.dead_sources > 0,
            "30% churn must down some sources"
        );
        assert!(degraded.faults().wasted() <= degraded.mean_messages as u64 * 1_500 + 1_500);
    }

    #[test]
    fn faulty_sweep_is_thread_count_independent() {
        use qcp_faults::FaultConfig;
        let t = erdos_renyi(300, 5.0, 24);
        let p = Placement::generate(PlacementModel::UniformK(3), 300, 50, 25);
        let cfg = SimConfig {
            trials: 600,
            ..Default::default()
        };
        let plan = FaultPlan::build(
            300,
            &FaultConfig {
                loss: 0.2,
                churn: 0.2,
                ..Default::default()
            },
        );
        let p1 = Pool::new(1);
        let p4 = Pool::new(4);
        let a = flood_trials_faulty(&p1, &t.graph, &p, None, 3, &cfg, &plan);
        let b = flood_trials_faulty(&p4, &t.graph, &p, None, 3, &cfg, &plan);
        assert_eq!(a, b, "fault sweep must not depend on thread count");
        let ca = sweep_ttl_faulty(&p1, &t.graph, &p, None, &[1, 2, 4], &cfg, &plan);
        let cb = sweep_ttl_faulty(&p4, &t.graph, &p, None, &[1, 2, 4], &cfg, &plan);
        assert_eq!(ca, cb, "census sweep must not depend on thread count");
    }

    #[test]
    fn recorded_sweep_is_bitwise_identical_and_thread_independent() {
        use qcp_faults::FaultConfig;
        use qcp_obs::{Counter, Kernel, MetricsRecorder};
        let t = erdos_renyi(300, 5.0, 50);
        let p = Placement::generate(PlacementModel::UniformK(3), 300, 60, 51);
        let cfg = SimConfig {
            trials: 400,
            ..Default::default()
        };
        let ttls = [1u32, 2, 4];

        // Fault-free: recording on vs off, and 1- vs 4-thread pools.
        let plain = sweep_ttl(&pool(), &t.graph, &p, None, &ttls, &cfg);
        let mut rec1 = MetricsRecorder::new();
        let r1 = sweep_ttl_rec(&Pool::new(1), &t.graph, &p, None, &ttls, &cfg, &mut rec1);
        let mut rec4 = MetricsRecorder::new();
        let r4 = sweep_ttl_rec(&Pool::new(4), &t.graph, &p, None, &ttls, &cfg, &mut rec4);
        assert_eq!(plain, r1, "recording must not perturb the sweep");
        assert_eq!(plain, r4);
        assert_eq!(rec1, rec4, "merged recorder state must be pool-independent");
        assert_eq!(rec1.spans(Kernel::Flood), cfg.trials as u64);
        // Every trial's census runs at max(ttls): recorded messages are
        // the max-TTL totals, which bound the curve's largest point.
        let max_pt = plain.last().unwrap();
        assert_eq!(
            rec1.total(Kernel::Flood, Counter::Messages),
            (max_pt.mean_messages * cfg.trials as f64).round() as u64
        );

        // Faulty: same three-way identity plus fault-counter reconciliation.
        let plan = FaultPlan::build(
            300,
            &FaultConfig {
                loss: 0.2,
                churn: 0.2,
                ..Default::default()
            },
        );
        let base = sweep_ttl_faulty(&pool(), &t.graph, &p, None, &ttls, &cfg, &plan);
        let mut frec1 = MetricsRecorder::new();
        let f1 = sweep_ttl_faulty_rec(
            &Pool::new(1),
            &t.graph,
            &p,
            None,
            &ttls,
            &cfg,
            &plan,
            &mut frec1,
        );
        let mut frec4 = MetricsRecorder::new();
        let f4 = sweep_ttl_faulty_rec(
            &Pool::new(4),
            &t.graph,
            &p,
            None,
            &ttls,
            &cfg,
            &plan,
            &mut frec4,
        );
        assert_eq!(base, f1);
        assert_eq!(base, f4);
        assert_eq!(frec1, frec4);
        // Recorded fault counters are the max-TTL cumulative stats, which
        // dominate every point's aggregate on each axis.
        let recorded = frec1.fault_stats(Kernel::Flood);
        for pt in &base {
            let s = pt.faults();
            assert!(recorded.dropped >= s.dropped);
            assert!(recorded.dead_targets >= s.dead_targets);
        }
    }

    #[test]
    fn proportional_target_beats_uniform_target() {
        let t = erdos_renyi(1_000, 6.0, 14);
        let p = Placement::generate(PlacementModel::ZipfReplicas { tau: 2.2 }, 1_000, 3_000, 15);
        let base = SimConfig {
            trials: 2_000,
            ..Default::default()
        };
        let uni = flood_trials(&pool(), &t.graph, &p, None, 2, &base).success_rate;
        let prop = flood_trials(
            &pool(),
            &t.graph,
            &p,
            None,
            2,
            &SimConfig {
                target: TargetModel::ProportionalToReplicas,
                ..base
            },
        )
        .success_rate;
        assert!(
            prop > uni,
            "querying popular objects ({prop}) must beat uniform ({uni})"
        );
    }
}
