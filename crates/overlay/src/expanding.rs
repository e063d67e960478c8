//! Expanding-ring (iterative deepening) search.
//!
//! Floods with TTL 1, then TTL 2, … up to `max_ttl`, stopping at the first
//! success. Cheaper than a full flood for nearby content, more expensive
//! for distant content (early rings are re-covered) — the standard
//! trade-off the hybrid designs in §V try to exploit.
//!
//! # Census-backed ring accounting
//!
//! A TTL-`t` flood is a prefix of the TTL-`max` flood, so the per-ring
//! costs of the whole iterative-deepening schedule can be read off **one**
//! BFS: [`FloodEngine::flood_census_pruned`] runs a single flood that
//! stops at the first level containing a holder, and every ring's
//! `(reached, messages)` is a prefix snapshot
//! ([`CensusOutcome::at`](crate::flood::CensusOutcome::at)).
//! The fault-free search below does exactly that — one BFS instead of
//! `r*` overlapping ones, with bitwise-identical outcomes (pinned by the
//! `matches_naive_*` tests against the naive per-ring oracle).
//!
//! The *faulty* search cannot be censused: each ring is an independent
//! transmission with its own drop nonce (`mix64(nonce ^ ttl)`), so ring
//! `t+1` re-draws every edge rather than extending ring `t`'s draws. That
//! asymmetry is deliberate — iterative deepening doubles as coarse retry
//! under loss — so the faulty path keeps the per-ring loop.

use crate::flood::{FloodEngine, FloodFaults, FloodOutcome, FloodSpec};
use crate::graph::Graph;
use qcp_faults::FaultStats;
use qcp_obs::{Counter, Event, Kernel, Recorder};
use qcp_util::hash::mix64;

/// Result of an expanding-ring search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpandingOutcome {
    /// Whether any ring found the object.
    pub found: bool,
    /// TTL of the successful ring.
    pub found_at_ttl: Option<u32>,
    /// Total messages across every ring attempted.
    pub messages: u64,
    /// Peers reached by the final (successful or last) ring.
    pub final_reach: u32,
    /// Number of rings attempted (TTL-1 through the final ring).
    pub rings: u32,
}

/// Folds the iterative-deepening schedule over per-ring floods: `ring(t)`
/// is a full standalone TTL-`t` flood; the schedule stops at the first
/// successful ring or once a ring covers the whole graph.
fn schedule(
    max_ttl: u32,
    num_nodes: u32,
    mut ring: impl FnMut(u32) -> FloodOutcome,
) -> ExpandingOutcome {
    let mut total_messages = 0u64;
    let mut rings = 0u32;
    let mut last: Option<FloodOutcome> = None;
    for ttl in 1..=max_ttl {
        let out = ring(ttl);
        total_messages += out.messages;
        rings += 1;
        let found = out.found;
        let reached = out.reached;
        last = Some(out);
        if found {
            return ExpandingOutcome {
                found: true,
                found_at_ttl: Some(ttl),
                messages: total_messages,
                final_reach: reached,
                rings,
            };
        }
        // If the ring covers the whole network, deeper rings are futile.
        if ttl > 1 && reached == num_nodes {
            break;
        }
    }
    ExpandingOutcome {
        found: false,
        found_at_ttl: None,
        messages: total_messages,
        final_reach: last.map(|o| o.reached).unwrap_or(1),
        rings,
    }
}

/// Runs the expanding-ring search.
///
/// * Fault-free (`faults == None`): **one** pruned hop-census BFS, with
///   the per-ring cost schedule reconstructed from its prefix snapshots
///   — equivalent to (and pinned bitwise against) flooding each ring
///   from scratch, at roughly `1/r*` of the cost for a hit on ring
///   `r*`. The census records under [`Kernel::Flood`].
/// * Faulty: each ring floods through [`FloodEngine::flood_faulty`].
///   Rings are independent transmissions, so each ring gets its own
///   drop nonce (`mix64(nonce ^ ttl)`): a message lost at TTL 2 may
///   succeed on the retry implicit in the TTL-3 ring — iterative
///   deepening doubles as coarse retry under loss. Because the per-ring
///   nonces differ, rings are *not* prefixes of one another and the
///   census shortcut does not apply (see the module docs). The rings
///   record nothing under [`Kernel::Flood`]; their summed
///   [`FaultStats`] record under [`Kernel::ExpandingRing`].
///
/// The ring schedule itself records under [`Kernel::ExpandingRing`].
/// The recorder is write-only, so outcomes are recorder-independent.
#[allow(clippy::too_many_arguments)] // the search's inputs + fault context + recorder
pub fn expanding_ring_search<R: Recorder>(
    engine: &mut FloodEngine,
    graph: &Graph,
    source: u32,
    max_ttl: u32,
    holders: &[u32],
    forwarders: Option<&[bool]>,
    faults: Option<FloodFaults<'_>>,
    rec: &mut R,
) -> (ExpandingOutcome, FaultStats) {
    rec.rec_span(Kernel::ExpandingRing);
    let num_nodes = graph.num_nodes() as u32;
    let mut stats = FaultStats::default();
    let out = match faults {
        None => {
            let spec = FloodSpec::new(max_ttl).pruned();
            let (census, _) = engine.run(graph, source, holders, forwarders, &spec, rec);
            schedule(max_ttl, num_nodes, |ttl| census.at(ttl))
        }
        Some(FloodFaults { plan, time, nonce }) => schedule(max_ttl, num_nodes, |ttl| {
            let (out, ring_stats) = engine.flood_faulty(
                graph,
                source,
                ttl,
                holders,
                forwarders,
                plan,
                time,
                mix64(nonce ^ ttl as u64),
            );
            stats.absorb(&ring_stats);
            out
        }),
    };
    rec.rec_count(Kernel::ExpandingRing, Counter::Messages, out.messages);
    rec.rec_count(Kernel::ExpandingRing, Counter::Rings, out.rings as u64);
    if let Some(ttl) = out.found_at_ttl {
        rec.rec_hop(Kernel::ExpandingRing, ttl, 1);
    }
    rec.rec_event(
        Kernel::ExpandingRing,
        if out.found { Event::Hit } else { Event::Miss },
    );
    if faults.is_some() {
        rec.rec_faults(Kernel::ExpandingRing, &stats);
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_faults::FaultPlan;
    use qcp_obs::NoopRecorder;

    /// A fault-free, unrecorded search.
    fn ring(
        engine: &mut FloodEngine,
        graph: &Graph,
        source: u32,
        max_ttl: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
    ) -> ExpandingOutcome {
        let (out, stats) = expanding_ring_search(
            engine,
            graph,
            source,
            max_ttl,
            holders,
            forwarders,
            None,
            &mut NoopRecorder,
        );
        assert_eq!(stats, FaultStats::default());
        out
    }

    /// A search under `plan`, unrecorded.
    #[allow(clippy::too_many_arguments)] // the search's inputs + fault context
    fn faulty_ring(
        engine: &mut FloodEngine,
        graph: &Graph,
        source: u32,
        max_ttl: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
        plan: &FaultPlan,
        time: u64,
        nonce: u64,
    ) -> (ExpandingOutcome, FaultStats) {
        let faults = Some(FloodFaults { plan, time, nonce });
        expanding_ring_search(
            engine,
            graph,
            source,
            max_ttl,
            holders,
            forwarders,
            faults,
            &mut NoopRecorder,
        )
    }

    fn path(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    /// The pre-census oracle: literally flood every ring from scratch.
    fn naive_expanding_ring(
        engine: &mut FloodEngine,
        graph: &Graph,
        source: u32,
        max_ttl: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
    ) -> ExpandingOutcome {
        let mut total_messages = 0u64;
        let mut rings = 0u32;
        let mut last: Option<FloodOutcome> = None;
        for ttl in 1..=max_ttl {
            let out = engine.flood(graph, source, ttl, holders, forwarders);
            total_messages += out.messages;
            rings += 1;
            let found = out.found;
            let reached = out.reached;
            last = Some(out);
            if found {
                return ExpandingOutcome {
                    found: true,
                    found_at_ttl: Some(ttl),
                    messages: total_messages,
                    final_reach: reached,
                    rings,
                };
            }
            if ttl > 1 && reached == graph.num_nodes() as u32 {
                break;
            }
        }
        ExpandingOutcome {
            found: false,
            found_at_ttl: None,
            messages: total_messages,
            final_reach: last.map(|o| o.reached).unwrap_or(1),
            rings,
        }
    }

    #[test]
    fn stops_at_first_successful_ring() {
        let g = path(10);
        let mut e = FloodEngine::new(10);
        let out = ring(&mut e, &g, 0, 9, &[3], None);
        assert!(out.found);
        assert_eq!(out.found_at_ttl, Some(3));
        assert_eq!(out.rings, 3);
    }

    #[test]
    fn nearby_object_is_cheap_far_object_is_expensive() {
        let g = path(20);
        let mut e = FloodEngine::new(20);
        let near = ring(&mut e, &g, 0, 19, &[1], None);
        let far = ring(&mut e, &g, 0, 19, &[15], None);
        assert!(near.found && far.found);
        assert!(near.messages < far.messages / 4);
    }

    #[test]
    fn miss_reports_total_cost() {
        let g = path(5);
        let mut e = FloodEngine::new(5);
        let out = ring(&mut e, &g, 0, 2, &[4], None);
        assert!(!out.found);
        assert!(out.messages > 0);
        assert_eq!(out.found_at_ttl, None);
        assert_eq!(out.rings, 2);
    }

    #[test]
    fn matches_naive_per_ring_floods_on_random_graphs() {
        // The census-backed search must be bitwise-identical to flooding
        // every ring from scratch: hits, misses, masks, saturation.
        for seed in 0..4u64 {
            let g = crate::topology::erdos_renyi(400, 4.0, seed).graph;
            let mut masked = vec![true; 400];
            for i in (0..400).step_by(3) {
                masked[i] = false;
            }
            let mut e = FloodEngine::new(400);
            for (src, holders, fwd) in [
                (0u32, vec![333u32], None),
                (7, vec![], None),
                (11, vec![11], None),
                (5, vec![120, 300], Some(&masked)),
                (2, vec![399], Some(&masked)),
            ] {
                let fwd: Option<&[bool]> = fwd.map(|m: &Vec<bool>| m.as_slice());
                let fast = ring(&mut e, &g, src, 9, &holders, fwd);
                let slow = naive_expanding_ring(&mut e, &g, src, 9, &holders, fwd);
                assert_eq!(fast, slow, "seed {seed} src {src}");
            }
        }
    }

    #[test]
    fn faulty_rings_match_plain_under_none_plan() {
        let g = crate::topology::erdos_renyi(300, 5.0, 31).graph;
        let plan = FaultPlan::none(300);
        let mut e = FloodEngine::new(300);
        for nonce in 0..5u64 {
            let plain = ring(&mut e, &g, 7, 6, &[200], None);
            let (faulty, stats) = faulty_ring(&mut e, &g, 7, 6, &[200], None, &plan, 0, nonce);
            assert_eq!(plain, faulty);
            assert_eq!(stats, FaultStats::default());
        }
    }

    #[test]
    fn faulty_rings_accumulate_drop_stats() {
        use qcp_faults::FaultConfig;
        let g = crate::topology::erdos_renyi(300, 5.0, 32).graph;
        let plan = FaultPlan::build(
            300,
            &FaultConfig {
                loss: 0.5,
                churn: 0.0,
                ..Default::default()
            },
        );
        let mut e = FloodEngine::new(300);
        let (out, stats) = faulty_ring(&mut e, &g, 0, 5, &[], None, &plan, 0, 9);
        assert!(!out.found);
        assert!(stats.dropped > 0, "50% loss over 5 rings must drop");
        assert!(stats.wasted() <= out.messages);
        assert_eq!(out.rings, 5);
    }

    #[test]
    fn source_holder_found_at_ttl_one() {
        // The hop-0 check happens inside the first ring.
        let g = path(5);
        let mut e = FloodEngine::new(5);
        let out = ring(&mut e, &g, 2, 4, &[2], None);
        assert!(out.found);
        assert_eq!(out.found_at_ttl, Some(1));
        assert_eq!(out.rings, 1);
    }

    #[test]
    fn zero_max_ttl_is_a_no_op() {
        let g = path(5);
        let mut e = FloodEngine::new(5);
        let out = ring(&mut e, &g, 0, 0, &[4], None);
        assert_eq!(
            out,
            ExpandingOutcome {
                found: false,
                found_at_ttl: None,
                messages: 0,
                final_reach: 1,
                rings: 0,
            }
        );
    }
}
