//! Property tests pinning the event-driven kernels to their synchronous
//! oracles.
//!
//! The load-bearing invariant: under a unit-latency, fault-free plan the
//! event flood's deliveries drain in exact BFS level order, so its
//! outcome quadruple is **bitwise identical** to the hop census's
//! reconstruction at every TTL (`census.at(ttl)`). Faulty and
//! latency-stretched event runs need not match any synchronous kernel
//! (their drop-stream message indices interleave differently) — for
//! those the pins are determinism and the forwarder-mask contract.

use proptest::prelude::*;
use qcp_faults::{CapacityPlan, FaultConfig, FaultPlan, FaultStats};
use qcp_obs::NoopRecorder;
use qcp_overlay::flood::FloodEngine;
use qcp_overlay::{topology, EventFloodOutcome, EventWalkOutcome, Graph, OverloadEngine};

/// The event flood: [`OverloadEngine::flood`] under an unlimited plan.
#[allow(clippy::too_many_arguments)] // the flood's inputs + fault and clock context
fn event_flood(
    g: &Graph,
    source: u32,
    max_ttl: u32,
    holders: &[u32],
    forwarders: Option<&[bool]>,
    plan: &FaultPlan,
    time: u64,
    nonce: u64,
    cutoff: Option<u64>,
) -> (EventFloodOutcome, FaultStats) {
    let cap = CapacityPlan::unlimited();
    let (out, stats, _) = OverloadEngine::new().flood(
        g,
        source,
        max_ttl,
        holders,
        forwarders,
        plan,
        &cap,
        time,
        nonce,
        cutoff,
        &mut NoopRecorder,
    );
    (out, stats)
}

/// The event walk: [`OverloadEngine::walk`] under an unlimited plan.
#[allow(clippy::too_many_arguments)] // the walk's inputs + fault and clock context
fn event_walk(
    g: &Graph,
    source: u32,
    k: usize,
    ttl: u32,
    holders: &[u32],
    seed: u64,
    plan: &FaultPlan,
    time: u64,
    nonce: u64,
    cutoff: Option<u64>,
) -> (EventWalkOutcome, FaultStats) {
    let cap = CapacityPlan::unlimited();
    let (out, stats, _) = OverloadEngine::new().walk(
        g,
        source,
        k,
        ttl,
        holders,
        seed,
        plan,
        &cap,
        time,
        nonce,
        cutoff,
        &mut NoopRecorder,
    );
    (out, stats)
}

/// A small Erdős–Rényi world plus sorted holders, derived from two seeds.
fn world(seed: u64, holder_seed: u64, n: usize) -> (Graph, Vec<u32>) {
    let g = topology::erdos_renyi(n, 4.0, seed).graph;
    let holders: Vec<u32> = (0..n as u32)
        .filter(|&v| qcp_util::hash::mix64(holder_seed ^ v as u64).is_multiple_of(17))
        .collect();
    (g, holders)
}

fn lossy_latent_plan(n: usize, seed: u64) -> FaultPlan {
    FaultPlan::build(
        n,
        &FaultConfig {
            loss: 0.2,
            churn: 0.25,
            mean_latency: 5,
            seed,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unit_latency_event_flood_is_bitwise_the_census(
        seed in 0u64..500, hseed in 0u64..500, source in 0u32..200, max_ttl in 0u32..9,
    ) {
        let (g, holders) = world(seed, hseed, 200);
        let plan = FaultPlan::none(200);
        let mut e = FloodEngine::new(200);
        let census = e.flood_census(&g, source, max_ttl, &holders, None);
        for ttl in 0..=max_ttl {
            let (out, _) =
                event_flood(&g, source, ttl, &holders, None, &plan, 0, seed ^ hseed, None);
            prop_assert_eq!(out.flood, census.at(ttl), "ttl {}", ttl);
            prop_assert!(!out.truncated);
            // Unit latency: a hit at hop h is a hit at tick h.
            prop_assert_eq!(
                out.first_hit_time,
                out.flood.found_at_hop.map(u64::from)
            );
        }
        // Holder hit counts agree with the engine's rare-query counter.
        let (out, _) =
            event_flood(&g, source, max_ttl, &holders, None, &plan, 0, seed ^ hseed, None);
        prop_assert_eq!(out.holders_reached, e.hits_in_last_flood(&holders));
    }

    #[test]
    fn unit_latency_event_flood_respects_forwarder_masks(
        seed in 0u64..300, hseed in 0u64..300, source in 0u32..150, ttl in 0u32..7,
    ) {
        let (g, holders) = world(seed, hseed, 150);
        // Pseudo-random leaf mask (the source always forwards by contract).
        let mask: Vec<bool> = (0..150u64)
            .map(|v| !qcp_util::hash::mix64(seed ^ v).is_multiple_of(3))
            .collect();
        let plan = FaultPlan::none(150);
        let mut e = FloodEngine::new(150);
        let census = e.flood_census(&g, source, ttl, &holders, Some(&mask));
        let (out, _) =
            event_flood(&g, source, ttl, &holders, Some(&mask), &plan, 0, hseed, None);
        prop_assert_eq!(out.flood, census.at(ttl));
    }

    #[test]
    fn faulty_event_flood_is_deterministic_and_conserves_messages(
        seed in 0u64..300, hseed in 0u64..300, source in 0u32..150,
        ttl in 0u32..7, nonce in 0u64..500, time in 0u64..50,
    ) {
        let (g, holders) = world(seed, hseed, 150);
        let plan = lossy_latent_plan(150, seed ^ hseed.rotate_left(11));
        let run = || event_flood(&g, source, ttl, &holders, None, &plan, time, nonce, None);
        let (a, stats) = run();
        prop_assert_eq!((a, stats), run());
        // Fire-and-forget: no retries, and every wasted message was sent.
        prop_assert_eq!(stats.retries, 0);
        prop_assert_eq!(stats.timeouts, 0);
        prop_assert!(stats.wasted() <= a.flood.messages);
        prop_assert_eq!(stats.ticks, a.completion_time);
    }

    #[test]
    fn event_flood_cutoff_only_shrinks_coverage(
        seed in 0u64..200, hseed in 0u64..200, source in 0u32..150, cutoff in 0u64..12,
    ) {
        let (g, holders) = world(seed, hseed, 150);
        let plan = FaultPlan::none(150);
        let (full, _) = event_flood(&g, source, 6, &holders, None, &plan, 0, 1, None);
        let (cut, _) = event_flood(&g, source, 6, &holders, None, &plan, 0, 1, Some(cutoff));
        prop_assert!(cut.flood.reached <= full.flood.reached);
        prop_assert!(cut.flood.messages <= full.flood.messages);
        prop_assert!(cut.completion_time <= full.completion_time.max(cutoff));
        if !cut.truncated {
            prop_assert_eq!(cut, full);
        }
    }

    #[test]
    fn event_walk_is_deterministic_and_bounded(
        seed in 0u64..300, wseed in 0u64..300, source in 0u32..150,
        k in 1usize..6, ttl in 1u32..20, nonce in 0u64..200,
    ) {
        let (g, holders) = world(seed, seed ^ 0x77, 150);
        let plan = lossy_latent_plan(150, seed ^ 0x3c);
        let run = || {
            event_walk(&g, source, k, ttl, &holders, wseed, &plan, 0, nonce, None)
        };
        let (a, stats) = run();
        prop_assert_eq!((a, stats), run());
        prop_assert!(a.walk.messages <= k as u64 * ttl as u64);
        prop_assert_eq!(stats.retries, 0);
        prop_assert!(stats.wasted() <= a.walk.messages);
        if let (Some(hit), Some(_)) = (a.first_hit_time, a.walk.found_at_step) {
            prop_assert!(hit <= a.completion_time);
        }
    }
}

fn path(n: usize) -> Graph {
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    Graph::from_edges(n, &edges)
}

#[test]
fn unit_latency_flood_matches_census_on_a_path() {
    let g = path(6);
    let plan = FaultPlan::none(6);
    let mut engine = FloodEngine::new(6);
    let census = engine.flood_census(&g, 0, 5, &[4], None);
    for ttl in 0..=5 {
        let (out, _) = event_flood(&g, 0, ttl, &[4], None, &plan, 0, 7, None);
        assert_eq!(out.flood, census.at(ttl), "ttl {ttl}");
        assert!(!out.truncated);
        // Unit latency: completion is the deepest delivered hop.
        assert_eq!(out.completion_time, ttl.min(5) as u64);
    }
    let (out, stats) = event_flood(&g, 0, 5, &[4], None, &plan, 0, 7, None);
    assert_eq!(out.first_hit_time, Some(4));
    assert_eq!(out.holders_reached, 1);
    assert_eq!(stats.ticks, out.completion_time);
}

#[test]
fn unit_latency_flood_matches_census_on_er_graph() {
    let g = topology::erdos_renyi(300, 5.0, 3).graph;
    let plan = FaultPlan::none(300);
    let mut engine = FloodEngine::new(300);
    let holders = [50u32, 200u32];
    let census = engine.flood_census(&g, 7, 6, &holders, None);
    for ttl in 0..=6 {
        let (out, _) = event_flood(&g, 7, ttl, &holders, None, &plan, 0, 1, None);
        assert_eq!(out.flood, census.at(ttl), "ttl {ttl}");
    }
}

#[test]
fn latency_stretches_first_hit_time_beyond_hop_count() {
    let g = path(5);
    let plan = FaultPlan::build(
        5,
        &FaultConfig {
            mean_latency: 8,
            ..Default::default()
        },
    );
    let (out, _) = event_flood(&g, 0, 4, &[4], None, &plan, 0, 2, None);
    assert!(out.flood.found);
    let hit = out.first_hit_time.expect("path flood must hit");
    assert!(
        hit > 4,
        "mean latency 8 must stretch 4 hops past 4 ticks (got {hit})"
    );
    assert!(out.completion_time >= hit);
}

#[test]
fn cutoff_truncates_and_reports_partial_coverage() {
    let g = path(10);
    let plan = FaultPlan::none(10);
    let (full, _) = event_flood(&g, 0, 9, &[9], None, &plan, 0, 3, None);
    assert!(full.flood.found);
    let (cut, _) = event_flood(&g, 0, 9, &[9], None, &plan, 0, 3, Some(4));
    assert!(cut.truncated);
    assert!(!cut.flood.found);
    assert_eq!(cut.completion_time, 4);
    // Reached exactly the 4-tick ball: nodes 0..=4.
    assert_eq!(cut.flood.reached, 5);
    assert!(cut.flood.reached < full.flood.reached);
}

#[test]
fn event_flood_is_deterministic_under_faults() {
    let g = topology::erdos_renyi(200, 6.0, 11).graph;
    let plan = FaultPlan::build(
        200,
        &FaultConfig {
            loss: 0.2,
            churn: 0.1,
            horizon: 64,
            mean_latency: 4,
            ..Default::default()
        },
    );
    let run = || event_flood(&g, 3, 5, &[150], None, &plan, 9, 42, Some(40));
    assert_eq!(run(), run());
}

#[test]
fn dead_flood_source_sends_nothing() {
    let g = path(4);
    let plan = FaultPlan::build(
        4,
        &FaultConfig {
            churn: 1.0,
            horizon: 2,
            rejoin: false,
            loss: 0.0,
            ..Default::default()
        },
    );
    let t = (0..2u64)
        .find(|&t| !plan.alive_at(0, t))
        .expect("full churn downs node 0");
    let (out, stats) = event_flood(&g, 0, 3, &[3], None, &plan, t, 0, None);
    assert_eq!(out.flood.messages, 0);
    assert_eq!(out.flood.reached, 0);
    assert_eq!(stats, FaultStats::default());
}

#[test]
fn event_walk_on_path_marches_forward_in_time() {
    let g = path(5);
    let plan = FaultPlan::none(5);
    let (out, _) = event_walk(&g, 0, 1, 10, &[4], 2, &plan, 0, 0, None);
    assert!(out.walk.found);
    assert_eq!(out.walk.found_at_step, Some(4));
    // Unit latency: time equals steps.
    assert_eq!(out.first_hit_time, Some(4));
    assert_eq!(out.walk.messages, 4);
}

#[test]
fn event_walk_source_holder_is_instant() {
    let g = path(5);
    let plan = FaultPlan::none(5);
    let (out, _) = event_walk(&g, 2, 4, 10, &[2], 1, &plan, 0, 0, None);
    assert_eq!(out.first_hit_time, Some(0));
    assert_eq!(out.walk.messages, 0);
    assert_eq!(out.walk.visited, 1);
}

#[test]
fn event_walk_cutoff_truncates() {
    let g = path(50);
    let plan = FaultPlan::none(50);
    let (out, _) = event_walk(&g, 0, 1, 40, &[49], 3, &plan, 0, 0, Some(5));
    assert!(out.truncated);
    assert!(!out.walk.found);
    assert_eq!(out.completion_time, 5);
    assert!(out.walk.messages <= 6);
}

#[test]
fn event_walk_is_deterministic_and_walker_streams_are_independent() {
    let g = topology::erdos_renyi(200, 6.0, 13).graph;
    let plan = FaultPlan::build(
        200,
        &FaultConfig {
            loss: 0.15,
            mean_latency: 3,
            ..Default::default()
        },
    );
    let run = |k: usize| event_walk(&g, 5, k, 30, &[160], 0xabc, &plan, 0, 9, Some(100));
    assert_eq!(run(8), run(8));
    // Walker w's stream does not depend on how many walkers run:
    // k=1 outcome is reproducible inside the k=8 run's first stream.
    let (one, _) = event_walk(&g, 5, 1, 30, &[], 0xabc, &plan, 0, 9, None);
    let (eight, _) = event_walk(&g, 5, 8, 30, &[], 0xabc, &plan, 0, 9, None);
    assert!(eight.walk.messages >= one.walk.messages);
}

#[test]
fn dead_walk_source_issues_no_walkers() {
    let g = path(5);
    let plan = FaultPlan::build(
        5,
        &FaultConfig {
            churn: 1.0,
            horizon: 2,
            rejoin: false,
            loss: 0.0,
            ..Default::default()
        },
    );
    let t = (0..2u64)
        .find(|&t| !plan.alive_at(0, t))
        .expect("full churn downs node 0");
    let (out, _) = event_walk(&g, 0, 4, 10, &[4], 0, &plan, t, 0, None);
    assert!(!out.walk.found);
    assert_eq!(out.walk.messages, 0);
}
