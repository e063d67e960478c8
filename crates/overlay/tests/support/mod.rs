//! Reference oracles for the event-driven kernels.
//!
//! `OverloadEngine::flood` and `OverloadEngine::walk` run one event loop
//! for every capacity plan; under `CapacityPlan::unlimited` they serve
//! each message on arrival. The loops below are the capacity-free event
//! kernels that engine replaced, kept verbatim as the differential
//! oracle: an unlimited engine run must match them bit for bit —
//! outcome, fault stats and recorder state (see `tests/overload.rs`).
//! They mirror the engine's accounting contract: messages are counted at
//! send time (the counter is the drop-stream index), liveness and drops
//! are checked on delivery, and `FaultStats::ticks` is the completion
//! time.

use qcp_faults::{FaultPlan, FaultStats};
use qcp_obs::{Counter, Event, Kernel, Recorder};
use qcp_overlay::{EventFloodOutcome, EventWalkOutcome, FloodOutcome, Graph, WalkOutcome};
use qcp_util::rng::Pcg64;
use qcp_vtime::{tie_break, Calendar};

/// One in-flight query message. Ordered fields are never consulted by
/// the calendar (the `(time, tie, seq)` key is a strict total order);
/// the derive only satisfies the `E: Ord` bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Deliver {
    from: u32,
    to: u32,
    /// Hop index at which this message arrives (sender's hop + 1).
    hop: u32,
    /// 1-based index in the plan's drop stream (assigned at send).
    msg: u64,
}

/// Schedules one send round: `u` (just marked, at `cal.now()`) forwards
/// to every neighbor, each message delivering after its link latency.
fn flood_send_round(
    cal: &mut Calendar<Deliver>,
    graph: &Graph,
    plan: &FaultPlan,
    u: u32,
    hop: u32,
    messages: &mut u64,
) {
    for &v in graph.neighbors(u) {
        *messages += 1;
        let msg = *messages;
        cal.schedule_after(
            plan.latency(u, v),
            tie_break(msg),
            Deliver {
                from: u,
                to: v,
                hop,
                msg,
            },
        );
    }
}

/// The reference event flood: a capacity-free calendar loop that marks,
/// checks holders and forwards on delivery.
#[allow(clippy::too_many_arguments)] // the flood's inputs + fault, clock and recorder context
pub fn reference_flood<R: Recorder>(
    graph: &Graph,
    source: u32,
    max_ttl: u32,
    holders: &[u32],
    forwarders: Option<&[bool]>,
    plan: &FaultPlan,
    time: u64,
    nonce: u64,
    cutoff: Option<u64>,
    rec: &mut R,
) -> (EventFloodOutcome, FaultStats) {
    debug_assert!(holders.windows(2).all(|w| w[0] < w[1]));
    rec.rec_span(Kernel::Flood);
    let mut stats = FaultStats::default();
    if !plan.alive_at(source, time) {
        rec.rec_event(Kernel::Flood, Event::DeadSource);
        return (
            EventFloodOutcome {
                flood: FloodOutcome {
                    found: false,
                    found_at_hop: None,
                    reached: 0,
                    messages: 0,
                },
                first_hit_time: None,
                completion_time: 0,
                truncated: false,
                holders_reached: 0,
            },
            stats,
        );
    }
    let mut cal: Calendar<Deliver> = Calendar::new();
    let mut marked = vec![false; graph.num_nodes()];
    let mut reached = 1u32;
    let mut messages = 0u64;
    let mut found_at_hop = None;
    let mut first_hit_time = None;
    let mut holders_reached = 0u32;
    marked[source as usize] = true;
    if holders.binary_search(&source).is_ok() {
        found_at_hop = Some(0);
        first_hit_time = Some(0);
        holders_reached = 1;
    }
    if max_ttl > 0 {
        flood_send_round(&mut cal, graph, plan, source, 1, &mut messages);
    }
    let mut truncated = false;
    while let Some(t) = cal.peek_time() {
        if cutoff.is_some_and(|c| t > c) {
            truncated = true;
            break;
        }
        // peek_time returned Some on this single-threaded calendar, so
        // an event is pending.
        let (t, d) = cal.pop().expect("peeked event vanished");
        if !plan.alive_at(d.to, time) {
            stats.dead_targets += 1;
            continue;
        }
        if plan.drop_message(d.from, d.to, nonce, d.msg) {
            stats.dropped += 1;
            continue;
        }
        if marked[d.to as usize] {
            continue;
        }
        marked[d.to as usize] = true;
        reached += 1;
        if holders.binary_search(&d.to).is_ok() {
            holders_reached += 1;
            if found_at_hop.is_none() {
                found_at_hop = Some(d.hop);
                first_hit_time = Some(t);
            }
        }
        // Only forwarders expand (the source never re-arrives fresh).
        let forwards = forwarders.is_none_or(|m| m[d.to as usize]);
        if d.hop < max_ttl && forwards {
            flood_send_round(&mut cal, graph, plan, d.to, d.hop + 1, &mut messages);
        }
    }
    let completion_time = match cutoff {
        Some(c) if truncated => c,
        _ => cal.now(),
    };
    stats.ticks = completion_time;
    rec.rec_count(Kernel::Flood, Counter::Messages, messages);
    rec.rec_faults(Kernel::Flood, &stats);
    if let Some(h) = found_at_hop {
        rec.rec_hop(Kernel::Flood, h, 1);
    }
    if let Some(t) = first_hit_time {
        rec.rec_time(Kernel::Flood, t, 1);
    }
    rec.rec_event(
        Kernel::Flood,
        if found_at_hop.is_some() {
            Event::Hit
        } else {
            Event::Miss
        },
    );
    (
        EventFloodOutcome {
            flood: FloodOutcome {
                found: found_at_hop.is_some(),
                found_at_hop,
                reached,
                messages,
            },
            first_hit_time,
            completion_time,
            truncated,
            holders_reached,
        },
        stats,
    )
}

/// One walker step in flight. The `(walker, step)` pair is the event
/// identity: a walker has at most one pending event, and stranded steps
/// still consume a step number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Step {
    walker: u32,
    step: u32,
    from: u32,
    to: u32,
    msg: u64,
}

struct Walker {
    rng: Pcg64,
    current: u32,
    previous: u32,
}

/// The walk kernels' neighbor pick (identical RNG consumption): prefer a
/// neighbor other than where we came from, up to four re-picks.
fn pick_next(neighbors: &[u32], previous: u32, rng: &mut Pcg64) -> u32 {
    if neighbors.len() == 1 {
        return neighbors[0];
    }
    let mut pick = neighbors[rng.index(neighbors.len())];
    let mut tries = 0;
    while pick == previous && tries < 4 {
        pick = neighbors[rng.index(neighbors.len())];
        tries += 1;
    }
    pick
}

fn step_tie(walker: u32, step: u32) -> u64 {
    tie_break(((walker as u64) << 32) | step as u64)
}

/// The reference event walk: a capacity-free calendar loop in which each
/// walker moves on delivery, from its own `Pcg64::with_stream(seed, w)`
/// stream.
#[allow(clippy::too_many_arguments)] // the walk's inputs + fault, clock and recorder context
pub fn reference_walk<R: Recorder>(
    graph: &Graph,
    source: u32,
    k: usize,
    ttl: u32,
    holders: &[u32],
    seed: u64,
    plan: &FaultPlan,
    time: u64,
    nonce: u64,
    cutoff: Option<u64>,
    rec: &mut R,
) -> (EventWalkOutcome, FaultStats) {
    debug_assert!(holders.windows(2).all(|w| w[0] < w[1]));
    rec.rec_span(Kernel::Walk);
    let mut stats = FaultStats::default();
    if !plan.alive_at(source, time) {
        rec.rec_event(Kernel::Walk, Event::DeadSource);
        return (
            EventWalkOutcome {
                walk: WalkOutcome {
                    found: false,
                    found_at_step: None,
                    messages: 0,
                    visited: 0,
                },
                first_hit_time: None,
                completion_time: 0,
                truncated: false,
            },
            stats,
        );
    }
    if holders.binary_search(&source).is_ok() {
        rec.rec_hop(Kernel::Walk, 0, 1);
        rec.rec_time(Kernel::Walk, 0, 1);
        rec.rec_event(Kernel::Walk, Event::Hit);
        return (
            EventWalkOutcome {
                walk: WalkOutcome {
                    found: true,
                    found_at_step: Some(0),
                    messages: 0,
                    visited: 1,
                },
                first_hit_time: Some(0),
                completion_time: 0,
                truncated: false,
            },
            stats,
        );
    }
    let mut cal: Calendar<Step> = Calendar::new();
    let mut messages = 0u64;
    let mut visited: Vec<u32> = vec![source];
    let mut found_at_step: Option<u32> = None;
    let mut first_hit_time: Option<u64> = None;
    let mut walkers: Vec<Walker> = Vec::with_capacity(k);
    for w in 0..k {
        let mut walker = Walker {
            rng: Pcg64::with_stream(seed, w as u64),
            current: source,
            previous: u32::MAX,
        };
        let neighbors = graph.neighbors(source);
        if ttl > 0 && !neighbors.is_empty() {
            let next = pick_next(neighbors, walker.previous, &mut walker.rng);
            messages += 1;
            cal.schedule_after(
                plan.latency(source, next),
                step_tie(w as u32, 1),
                Step {
                    walker: w as u32,
                    step: 1,
                    from: source,
                    to: next,
                    msg: messages,
                },
            );
        }
        walkers.push(walker);
    }
    let mut truncated = false;
    while let Some(t) = cal.peek_time() {
        if cutoff.is_some_and(|c| t > c) {
            truncated = true;
            break;
        }
        // peek_time returned Some on this single-threaded calendar, so
        // an event is pending.
        let (t, s) = cal.pop().expect("peeked event vanished");
        let walker = &mut walkers[s.walker as usize];
        if !plan.alive_at(s.to, time) {
            // Message to a departed peer: wasted; walker stays put.
            stats.dead_targets += 1;
        } else if plan.drop_message(s.from, s.to, nonce, s.msg) {
            stats.dropped += 1;
        } else {
            walker.previous = s.from;
            walker.current = s.to;
            visited.push(s.to);
            if holders.binary_search(&s.to).is_ok() {
                if found_at_step.is_none() {
                    found_at_step = Some(s.step);
                    first_hit_time = Some(t);
                }
                continue; // this walker stops on its own success
            }
        }
        if s.step < ttl {
            let neighbors = graph.neighbors(walker.current);
            if !neighbors.is_empty() {
                let next = pick_next(neighbors, walker.previous, &mut walker.rng);
                messages += 1;
                cal.schedule_after(
                    plan.latency(walker.current, next),
                    step_tie(s.walker, s.step + 1),
                    Step {
                        walker: s.walker,
                        step: s.step + 1,
                        from: walker.current,
                        to: next,
                        msg: messages,
                    },
                );
            }
        }
    }
    visited.sort_unstable();
    visited.dedup();
    let completion_time = match cutoff {
        Some(c) if truncated => c,
        _ => cal.now(),
    };
    stats.ticks = completion_time;
    rec.rec_count(Kernel::Walk, Counter::Messages, messages);
    rec.rec_faults(Kernel::Walk, &stats);
    if let Some(step) = found_at_step {
        rec.rec_hop(Kernel::Walk, step, 1);
    }
    if let Some(t) = first_hit_time {
        rec.rec_time(Kernel::Walk, t, 1);
    }
    rec.rec_event(
        Kernel::Walk,
        if found_at_step.is_some() {
            Event::Hit
        } else {
            Event::Miss
        },
    );
    (
        EventWalkOutcome {
            walk: WalkOutcome {
                found: found_at_step.is_some(),
                found_at_step,
                messages,
                visited: visited.len() as u32,
            },
            first_hit_time,
            completion_time,
            truncated,
        },
        stats,
    )
}
