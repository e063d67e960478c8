//! Event-driven flood and walk kernels on the virtual-time calendar,
//! with per-node capacity: bounded queues, service rates, and load
//! shedding.
//!
//! The synchronous kernels in [`flood`](crate::flood) and
//! [`walk`](crate::walk) advance the whole network one hop at a time —
//! correct for message accounting, blind to *when* messages arrive. The
//! [`OverloadEngine`] here re-expresses the same searches on the
//! [`Calendar`] from `qcp-vtime`: every transmission is an arrival event
//! scheduled at `now + plan.latency(u, v)`, and fault checks (churn
//! liveness, Bernoulli drops) run when the message *arrives*, not when
//! it is sent. A [`CapacityPlan`] decides what happens next:
//!
//! * under [`CapacityPlan::unlimited`] a message that survives the fault
//!   checks is **served on arrival** — nodes have infinite capacity, so
//!   offered load is invisible;
//! * under a limited plan it joins its target node's bounded FIFO
//!   queue, and each node **serves** one queued message every
//!   [`CapacityPlan::service_interval`] ticks, so a congested node
//!   stretches the query's timeline;
//! * a **full queue** invokes the plan's [`ShedPolicy`]; shed messages
//!   are gone (walks treat a shed step like a drop: the walker strands
//!   for that step and re-picks from where it stands);
//! * the plan's **offered background load** materializes as a synthetic
//!   standing backlog seeded into each node's queue on first touch
//!   (drawn statelessly per `(node, query nonce)`), so real messages
//!   queue behind the traffic the offered load implies. Synthetic
//!   entries consume service slots but are invisible to the accounting
//!   identity below — they model *other* queries' load, not this one's.
//!
//! Both branches run one serve step — flood: mark the node, check
//! holders, forward; walk: move the walker, check holders, resume it —
//! so there is one event loop per kernel, and an unlimited run is the
//! limited loop with every queue wait cut to zero.
//!
//! # Accounting contract
//!
//! * **Messages are counted at send time.** The running counter doubles
//!   as the message index in the plan's drop stream (exactly as the
//!   synchronous kernels use it), and a send scheduled before a deadline
//!   cutoff is paid for even if the cutoff lands before its delivery.
//! * **Churn is frozen within a query.** `plan.alive_at(node, time)`
//!   keys on the workload tick `time`, which does not advance during a
//!   single query; checking liveness at delivery therefore matches the
//!   synchronous kernels' send-time check node for node.
//! * **`FaultStats::ticks` carries the completion time** (the last
//!   event processed, or the cutoff when truncated) — the virtual
//!   elapsed time of the query.
//! * **The shedding identity.** Counting only this query's (real)
//!   messages under a limited plan:
//!
//!   ```text
//!   messages == served + dead_targets + dropped + shed + in_flight
//!   ```
//!
//!   where `in_flight` is the number of real messages still in the
//!   calendar or queued when a cutoff truncates the run (0 when the run
//!   drains). Pinned by proptests in `tests/overload.rs`.
//! * **Unlimited runs have no overload footprint.** Their
//!   [`OverloadOutcome`] is all zeros (`in_flight` included, even when
//!   a cutoff truncates the run), and they record no queue lengths or
//!   overload counters.
//!
//! # Bitwise equivalence with the hop census
//!
//! Under a unit-latency, fault-free plan and unlimited capacity every
//! send scheduled at virtual time `t` delivers at `t + 1`, so deliveries
//! drain in exact BFS level order and a node is first marked at its hop
//! distance. The per-delivery tie-break order *within* a level differs
//! from the census's frontier scan order, but every aggregate the
//! outcome exposes — `reached`, `messages`, the first-hit hop — is
//! level-cumulative and therefore order-independent inside a level.
//! [`OverloadEngine::flood`] with `FaultPlan::none`, an unlimited plan
//! and `max_ttl = t` is thus bit-identical to `flood_census(...).at(t)`
//! (pinned by the proptests in `tests/event_flood.rs` and at 40k-node
//! scale in `tests/determinism.rs`).
//!
//! # Determinism
//!
//! The queueing layer adds no randomness of its own: service tiers and
//! backlogs come from the plan's stateless hashes, service events are
//! keyed by the node id on their own tie stream ([`SERVE_TAG`]), and
//! every walker RNG draw still happens in that walker's own totally
//! ordered chain (a walker has at most one step outstanding — in the
//! calendar *or* in a queue).

use crate::flood::FloodOutcome;
use crate::graph::Graph;
use crate::walk::{pick_next, WalkOutcome};
use qcp_faults::capacity::ShedPolicy;
use qcp_faults::{CapacityPlan, FaultPlan, FaultStats};
use qcp_obs::{Counter, Event, Kernel, Recorder};
use qcp_util::rng::Pcg64;
use qcp_vtime::{tie_break, Calendar};
use std::collections::VecDeque;

/// Tie stream tag for per-node service events (distinct from message
/// ties, which hash the message index).
pub const SERVE_TAG: u64 = 0x5e1f_5e2e_7a61_ca90;

/// Outcome of one event-driven flood: the synchronous [`FloodOutcome`]
/// quadruple plus the virtual-time facts the calendar adds. The default
/// is a flood that sent nothing (a dead source).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventFloodOutcome {
    /// The flood quadruple (`found`, `found_at_hop`, `reached`,
    /// `messages`) — bit-compatible with the synchronous kernels.
    pub flood: FloodOutcome,
    /// Virtual time at which the first holder was reached, if any.
    pub first_hit_time: Option<u64>,
    /// Virtual time at which the flood drained (or the cutoff, when
    /// truncated).
    pub completion_time: u64,
    /// Whether a `cutoff` stopped delivery before the calendar drained.
    pub truncated: bool,
    /// Distinct holders marked by the flood (the hybrid rare-query rule's
    /// hit count — `hits_in_last_flood` for the synchronous engine).
    pub holders_reached: u32,
}

/// Outcome of one event-driven walk: the synchronous [`WalkOutcome`]
/// shape plus virtual-time facts. Unlike the synchronous kernel (which
/// reports the *minimum* hit step across walkers), `found_at_step` here
/// is the step of the *temporally first* hit — the honest answer when
/// walkers race over real latencies. The default is a walk that sent
/// nothing (a dead source).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventWalkOutcome {
    /// The walk quadruple (`found`, `found_at_step`, `messages`,
    /// `visited`).
    pub walk: WalkOutcome,
    /// Virtual time of the first hit, if any.
    pub first_hit_time: Option<u64>,
    /// Virtual time at which every walker finished (or the cutoff).
    pub completion_time: u64,
    /// Whether a `cutoff` stopped the walkers early.
    pub truncated: bool,
}

/// Overload accounting for one kernel run. All zeros when the plan is
/// unlimited (or nothing queued).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverloadOutcome {
    /// Real messages admitted into a queue.
    pub enqueued: u64,
    /// Real messages dequeued and processed at their node's rate.
    pub served: u64,
    /// Real messages evicted by the shedding policy (full queue).
    pub shed: u64,
    /// Synthetic background entries evicted by the shedding policy to
    /// make room — refused background work. Kept out of [`shed`]
    /// (which the accounting identity ties to real messages) so the
    /// identity stays exact.
    ///
    /// [`shed`]: OverloadOutcome::shed
    pub displaced: u64,
    /// Total ticks real messages waited in queues before service.
    pub queue_delay: u64,
    /// Real messages still in the calendar or queued at truncation.
    pub in_flight: u64,
    /// Synthetic background-load entries seeded across touched queues.
    pub backlog_seeded: u64,
}

/// Queued work at a node: a synthetic background entry, a flood
/// delivery awaiting service, or a walker step awaiting service.
#[derive(Debug, Clone, Copy)]
enum Payload {
    Background,
    Flood { hop: u32 },
    Walk { walker: u32, step: u32, from: u32 },
}

#[derive(Debug, Clone, Copy)]
struct QEntry {
    arrived: u64,
    payload: Payload,
}

impl QEntry {
    /// Remaining forwarding budget, the [`ShedPolicy::TtlPriority`]
    /// key. Synthetic backlog models other queries' traffic with no
    /// TTL claim of its own, so it is always the first evicted.
    fn remaining_ttl(&self, max_ttl: u32) -> u32 {
        match self.payload {
            Payload::Background => 0,
            Payload::Flood { hop, .. } => max_ttl.saturating_sub(hop),
            Payload::Walk { step, .. } => max_ttl.saturating_sub(step),
        }
    }

    fn is_real(&self) -> bool {
        !matches!(self.payload, Payload::Background)
    }
}

/// Calendar events of the event kernels. Ordered fields are never
/// consulted by the calendar (the `(time, tie, seq)` key is a strict
/// total order); the derive only satisfies the `E: Ord` bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// A flood message arriving at `to`; `hop` is the sender's hop + 1
    /// and `msg` its 1-based index in the plan's drop stream.
    Flood {
        from: u32,
        to: u32,
        hop: u32,
        msg: u64,
    },
    /// A walker step arriving at `to`. The `(walker, step)` pair is the
    /// event identity: a walker has at most one pending event, and
    /// stranded steps still consume a step number.
    Walk {
        walker: u32,
        step: u32,
        from: u32,
        to: u32,
        msg: u64,
    },
    /// Node `0` dequeues its next message.
    Serve(u32),
}

struct WalkerState {
    rng: Pcg64,
    current: u32,
    previous: u32,
}

fn step_tie(walker: u32, step: u32) -> u64 {
    tie_break(((walker as u64) << 32) | step as u64)
}

/// The inputs and running tallies of one flood, shared by its arrival
/// and serve steps.
struct FloodRun<'a> {
    graph: &'a Graph,
    holders: &'a [u32],
    forwarders: Option<&'a [bool]>,
    plan: &'a FaultPlan,
    max_ttl: u32,
    reached: u32,
    messages: u64,
    /// Real messages currently in the calendar.
    in_cal: u64,
    found_at_hop: Option<u32>,
    first_hit_time: Option<u64>,
    holders_reached: u32,
}

/// The inputs and running tallies of one walk, shared by its arrival
/// and serve steps.
struct WalkRun<'a> {
    graph: &'a Graph,
    holders: &'a [u32],
    plan: &'a FaultPlan,
    ttl: u32,
    walkers: Vec<WalkerState>,
    messages: u64,
    /// Real messages currently in the calendar.
    in_cal: u64,
    visited: Vec<u32>,
    found_at_step: Option<u32>,
    first_hit_time: Option<u64>,
}

/// Reusable event-driven flood/walk engine. Holds the calendar,
/// per-node queues, and visit marks across runs; [`reset`] rewinds
/// everything while retaining every allocation, so steady-state reuse
/// allocates nothing (the PR 8 arena discipline, backed by
/// [`Calendar::reset`]).
///
/// [`reset`]: OverloadEngine::reset
#[derive(Debug)]
pub struct OverloadEngine {
    cal: Calendar<Ev>,
    queues: Vec<VecDeque<QEntry>>,
    busy: Vec<bool>,
    seeded: Vec<bool>,
    touched: Vec<u32>,
    marked: Vec<bool>,
    marked_list: Vec<u32>,
}

impl Default for OverloadEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl OverloadEngine {
    /// An empty engine; per-node state grows on first use.
    pub fn new() -> Self {
        Self {
            cal: Calendar::new(),
            queues: Vec::new(),
            busy: Vec::new(),
            seeded: Vec::new(),
            touched: Vec::new(),
            marked: Vec::new(),
            marked_list: Vec::new(),
        }
    }

    /// Rewinds the engine for the next run: drains touched queues,
    /// clears visit marks, and resets the calendar to virtual time 0.
    /// Every allocation (calendar heap, queue rings, mark bitmaps) is
    /// retained.
    fn reset(&mut self, n: usize) {
        self.cal.reset();
        if self.queues.len() < n {
            self.queues.resize_with(n, VecDeque::new);
            self.busy.resize(n, false);
            self.seeded.resize(n, false);
        }
        for &node in &self.touched {
            self.queues[node as usize].clear();
            self.busy[node as usize] = false;
            self.seeded[node as usize] = false;
        }
        self.touched.clear();
        if self.marked.len() < n {
            self.marked.resize(n, false);
        }
        for &node in &self.marked_list {
            self.marked[node as usize] = false;
        }
        self.marked_list.clear();
    }

    fn mark(&mut self, node: u32) {
        self.marked[node as usize] = true;
        self.marked_list.push(node);
    }

    /// First touch of a node's queue this run: seed the synthetic
    /// standing backlog the offered load implies and start its service
    /// clock. Returns the number of synthetic entries seeded.
    fn touch(&mut self, node: u32, now: u64, nonce: u64, cap: &CapacityPlan) -> u64 {
        if self.seeded[node as usize] {
            return 0;
        }
        self.seeded[node as usize] = true;
        self.touched.push(node);
        let backlog = cap.backlog(node, nonce);
        for _ in 0..backlog {
            self.queues[node as usize].push_back(QEntry {
                arrived: now,
                payload: Payload::Background,
            });
        }
        if backlog > 0 {
            self.start_service(node, cap);
        }
        u64::from(backlog)
    }

    /// Starts `node`'s service clock unless it is already running.
    fn start_service(&mut self, node: u32, cap: &CapacityPlan) {
        if !self.busy[node as usize] {
            self.busy[node as usize] = true;
            self.schedule_serve(node, cap);
        }
    }

    /// Schedules `node`'s next `Serve` event, one service interval out.
    fn schedule_serve(&mut self, node: u32, cap: &CapacityPlan) {
        self.cal.schedule_after(
            cap.service_interval(node),
            tie_break(SERVE_TAG ^ u64::from(node)),
            Ev::Serve(node),
        );
    }

    /// Admits an arriving real message into `node`'s queue, shedding
    /// per policy when full. Returns the evicted real entry, if the
    /// policy displaced one (walk evictions resume their walker), and
    /// whether the *arriving* message itself was shed.
    #[allow(clippy::too_many_arguments)] // queueing site: node + entry + plan + accounting
    fn enqueue<R: Recorder>(
        &mut self,
        kernel: Kernel,
        node: u32,
        entry: QEntry,
        max_ttl: u32,
        cap: &CapacityPlan,
        out: &mut OverloadOutcome,
        rec: &mut R,
    ) -> (Option<QEntry>, bool) {
        let q = &mut self.queues[node as usize];
        rec.rec_queue(kernel, q.len() as u32, 1);
        let mut evicted = None;
        if q.len() >= cap.queue_bound() as usize {
            match cap.policy() {
                ShedPolicy::DropNewest => {
                    out.shed += 1;
                    return (None, true);
                }
                ShedPolicy::DropOldest => {
                    // qcplint: allow(panic) — queue_bound >= 1, so a
                    // full queue is non-empty.
                    let victim = q.pop_front().expect("full queue has a head");
                    if victim.is_real() {
                        out.shed += 1;
                        evicted = Some(victim);
                    } else {
                        out.displaced += 1;
                    }
                }
                ShedPolicy::TtlPriority => {
                    let (idx, _) = q
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, e)| (e.remaining_ttl(max_ttl), *i))
                        // qcplint: allow(panic) — queue_bound >= 1
                        .expect("full queue has a minimum");
                    // The arriving message competes on the same key: if
                    // it has no more budget than the weakest queued
                    // entry, it is the one shed.
                    if entry.remaining_ttl(max_ttl) <= q[idx].remaining_ttl(max_ttl) {
                        out.shed += 1;
                        return (None, true);
                    }
                    let victim = q.remove(idx).expect("indexed entry exists"); // qcplint: allow(panic) — idx < len
                    if victim.is_real() {
                        out.shed += 1;
                        evicted = Some(victim);
                    } else {
                        out.displaced += 1;
                    }
                }
            }
        }
        out.enqueued += 1;
        self.queues[node as usize].push_back(entry);
        self.start_service(node, cap);
        (evicted, false)
    }

    /// A `Serve` event at `node`: dequeues its head, keeps its service
    /// clock running if work remains, and accounts a real entry as
    /// served at `now`.
    fn serve_head(
        &mut self,
        node: u32,
        now: u64,
        cap: &CapacityPlan,
        over: &mut OverloadOutcome,
    ) -> QEntry {
        let entry = self.queues[node as usize]
            .pop_front()
            // qcplint: allow(panic) — a Serve is only scheduled while
            // its queue is non-empty.
            .expect("serve on empty queue");
        if self.queues[node as usize].is_empty() {
            self.busy[node as usize] = false;
        } else {
            self.schedule_serve(node, cap);
        }
        if entry.is_real() {
            over.served += 1;
            over.queue_delay += now - entry.arrived;
        }
        entry
    }

    /// Pops the next event, unless the calendar is drained or the event
    /// lies past `cutoff`.
    fn next_event(&mut self, cutoff: Option<u64>) -> Option<(u64, Ev)> {
        let t = self.cal.peek_time()?;
        if cutoff.is_some_and(|c| t > c) {
            return None;
        }
        self.cal.pop()
    }

    /// After the event loop: whether the cutoff truncated the run
    /// (events remain), and its completion time — the cutoff when
    /// truncated, the last processed event's time otherwise.
    fn clock_out(&self, cutoff: Option<u64>) -> (bool, u64) {
        match cutoff {
            Some(c) if !self.cal.is_empty() => (true, c),
            _ => (false, self.cal.now()),
        }
    }

    /// Real messages still queued at the end of a run.
    fn queued_real(&self) -> u64 {
        self.touched
            .iter()
            .map(|&n| {
                self.queues[n as usize]
                    .iter()
                    .filter(|e| e.is_real())
                    .count() as u64
            })
            .sum()
    }

    /// Records a finished run under `kernel`: its messages and faults,
    /// the overload counters of a limited run (`over`), and the first
    /// hit's hop and time.
    fn record_run<R: Recorder>(
        kernel: Kernel,
        messages: u64,
        stats: &FaultStats,
        over: Option<&OverloadOutcome>,
        found_at: Option<u32>,
        first_hit_time: Option<u64>,
        rec: &mut R,
    ) {
        rec.rec_count(kernel, Counter::Messages, messages);
        rec.rec_faults(kernel, stats);
        if let Some(over) = over {
            rec.rec_count(kernel, Counter::Enqueued, over.enqueued);
            rec.rec_count(kernel, Counter::Served, over.served);
            rec.rec_count(kernel, Counter::Shed, over.shed);
            rec.rec_count(kernel, Counter::QueueDelay, over.queue_delay);
        }
        if let Some(h) = found_at {
            rec.rec_hop(kernel, h, 1);
        }
        if let Some(t) = first_hit_time {
            rec.rec_time(kernel, t, 1);
        }
        rec.rec_event(
            kernel,
            if found_at.is_some() {
                Event::Hit
            } else {
                Event::Miss
            },
        );
    }

    /// `u` (just marked, at `cal.now()`) forwards to every neighbor,
    /// each message arriving at hop `hop` after its link latency.
    fn send_round(&mut self, run: &mut FloodRun<'_>, u: u32, hop: u32) {
        for &v in run.graph.neighbors(u) {
            run.messages += 1;
            run.in_cal += 1;
            let msg = run.messages;
            self.cal.schedule_after(
                run.plan.latency(u, v),
                tie_break(msg),
                Ev::Flood {
                    from: u,
                    to: v,
                    hop,
                    msg,
                },
            );
        }
    }

    /// The flood's serve step at `node` (on arrival when unlimited, at
    /// its `Serve` event otherwise): mark it, check holders, forward.
    /// A duplicate consumed its service but goes no further.
    fn serve_flood(&mut self, run: &mut FloodRun<'_>, node: u32, hop: u32, now: u64) {
        if self.marked[node as usize] {
            return;
        }
        self.mark(node);
        run.reached += 1;
        if run.holders.binary_search(&node).is_ok() {
            run.holders_reached += 1;
            if run.found_at_hop.is_none() {
                run.found_at_hop = Some(hop);
                run.first_hit_time = Some(now);
            }
        }
        // Only forwarders expand (the source never re-arrives fresh).
        let forwards = run.forwarders.is_none_or(|m| m[node as usize]);
        if hop < run.max_ttl && forwards {
            self.send_round(run, node, hop + 1);
        }
    }

    /// Event-driven TTL-limited flood under capacity plan `cap`. See the
    /// module docs for the accounting contract and the
    /// census-equivalence argument.
    ///
    /// * `cutoff` — optional virtual-time deadline: events past it are
    ///   not processed and the outcome reports `truncated = true`;
    /// * `holders` sorted, `forwarders` mask with the source always
    ///   forwarding, `nonce` the query's position in the drop stream,
    ///   as in [`FloodEngine::run`](crate::FloodEngine::run).
    ///
    /// The recorder is write-only: outcomes and stats are bit-identical
    /// for any recorder.
    #[allow(clippy::too_many_arguments)] // the flood's inputs + fault, capacity and clock context
    pub fn flood<R: Recorder>(
        &mut self,
        graph: &Graph,
        source: u32,
        max_ttl: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
        plan: &FaultPlan,
        cap: &CapacityPlan,
        time: u64,
        nonce: u64,
        cutoff: Option<u64>,
        rec: &mut R,
    ) -> (EventFloodOutcome, FaultStats, OverloadOutcome) {
        debug_assert!(holders.windows(2).all(|w| w[0] < w[1]));
        rec.rec_span(Kernel::Flood);
        let mut stats = FaultStats::default();
        let mut over = OverloadOutcome::default();
        if !plan.alive_at(source, time) {
            rec.rec_event(Kernel::Flood, Event::DeadSource);
            return (EventFloodOutcome::default(), stats, over);
        }
        self.reset(graph.num_nodes());
        let mut run = FloodRun {
            graph,
            holders,
            forwarders,
            plan,
            max_ttl,
            reached: 1,
            messages: 0,
            in_cal: 0,
            found_at_hop: None,
            first_hit_time: None,
            holders_reached: 0,
        };
        self.mark(source);
        if holders.binary_search(&source).is_ok() {
            run.found_at_hop = Some(0);
            run.first_hit_time = Some(0);
            run.holders_reached = 1;
        }
        // The querying node's own send round is instant (sends are
        // counted, not queued at the sender), but replies arriving back
        // at it will queue.
        if max_ttl > 0 {
            self.send_round(&mut run, source, 1);
        }
        let unlimited = cap.is_unlimited();
        while let Some((t, ev)) = self.next_event(cutoff) {
            match ev {
                Ev::Flood { from, to, hop, msg } => {
                    run.in_cal -= 1;
                    if !plan.alive_at(to, time) {
                        stats.dead_targets += 1;
                    } else if plan.drop_message(from, to, nonce, msg) {
                        stats.dropped += 1;
                    } else if unlimited {
                        self.serve_flood(&mut run, to, hop, t);
                    } else {
                        over.backlog_seeded += self.touch(to, t, nonce, cap);
                        let entry = QEntry {
                            arrived: t,
                            payload: Payload::Flood { hop },
                        };
                        // Flood evictions just die (no walker to resume).
                        let _ =
                            self.enqueue(Kernel::Flood, to, entry, max_ttl, cap, &mut over, rec);
                    }
                }
                Ev::Serve(node) => {
                    let entry = self.serve_head(node, t, cap, &mut over);
                    // Synthetic backlog only consumes the slot.
                    if let Payload::Flood { hop } = entry.payload {
                        self.serve_flood(&mut run, node, hop, t);
                    }
                }
                // Walk events are never scheduled by the flood kernel.
                Ev::Walk { .. } => unreachable!("walk event in flood run"),
            }
        }
        if !unlimited {
            over.in_flight = run.in_cal + self.queued_real();
        }
        let (truncated, completion_time) = self.clock_out(cutoff);
        stats.ticks = completion_time;
        Self::record_run(
            Kernel::Flood,
            run.messages,
            &stats,
            (!unlimited).then_some(&over),
            run.found_at_hop,
            run.first_hit_time,
            rec,
        );
        (
            EventFloodOutcome {
                flood: FloodOutcome {
                    found: run.found_at_hop.is_some(),
                    found_at_hop: run.found_at_hop,
                    reached: run.reached,
                    messages: run.messages,
                },
                first_hit_time: run.first_hit_time,
                completion_time,
                truncated,
                holders_reached: run.holders_reached,
            },
            stats,
            over,
        )
    }

    /// Schedules walker `w`'s next step from wherever it stands (after
    /// a successful move, a strand, or an eviction), if budget remains.
    fn resume_walker(&mut self, run: &mut WalkRun<'_>, w: u32, step: u32) {
        if step >= run.ttl {
            return;
        }
        let walker = &mut run.walkers[w as usize];
        let neighbors = run.graph.neighbors(walker.current);
        if neighbors.is_empty() {
            return;
        }
        let next = pick_next(neighbors, walker.previous, &mut walker.rng);
        run.messages += 1;
        run.in_cal += 1;
        self.cal.schedule_after(
            run.plan.latency(walker.current, next),
            step_tie(w, step + 1),
            Ev::Walk {
                walker: w,
                step: step + 1,
                from: walker.current,
                to: next,
                msg: run.messages,
            },
        );
    }

    /// The walk's serve step for walker `w`'s step `step` from `from` to
    /// `node` (on arrival when unlimited, at its `Serve` event
    /// otherwise): move the walker, check holders, resume the walker.
    fn serve_walk(
        &mut self,
        run: &mut WalkRun<'_>,
        w: u32,
        step: u32,
        from: u32,
        node: u32,
        now: u64,
    ) {
        let walker = &mut run.walkers[w as usize];
        walker.previous = from;
        walker.current = node;
        run.visited.push(node);
        if run.holders.binary_search(&node).is_ok() {
            if run.found_at_step.is_none() {
                run.found_at_step = Some(step);
                run.first_hit_time = Some(now);
            }
            return; // this walker stops on its own success
        }
        self.resume_walker(run, w, step);
    }

    /// Event-driven k-walker random walk under capacity plan `cap`. Each
    /// walker draws from its own `Pcg64::with_stream(seed, walker)`
    /// stream, and every draw happens in the walker's own event chain —
    /// a walker has at most one step outstanding — so interleaving
    /// across walkers cannot perturb any stream.
    ///
    /// Fault semantics mirror [`random_walk_search`]: a dead target or
    /// in-flight drop wastes the message and strands the walker in place
    /// for that step; walks never retry. Under a limited plan a shed
    /// step strands its walker the same way, and an *evicted* queued
    /// step resumes its walker from where it stands at eviction time.
    /// `cutoff` truncates as in [`Self::flood`].
    ///
    /// [`random_walk_search`]: crate::walk::random_walk_search
    #[allow(clippy::too_many_arguments)] // the walk's inputs + fault, capacity and clock context
    pub fn walk<R: Recorder>(
        &mut self,
        graph: &Graph,
        source: u32,
        k: usize,
        ttl: u32,
        holders: &[u32],
        seed: u64,
        plan: &FaultPlan,
        cap: &CapacityPlan,
        time: u64,
        nonce: u64,
        cutoff: Option<u64>,
        rec: &mut R,
    ) -> (EventWalkOutcome, FaultStats, OverloadOutcome) {
        debug_assert!(holders.windows(2).all(|w| w[0] < w[1]));
        rec.rec_span(Kernel::Walk);
        let mut stats = FaultStats::default();
        let mut over = OverloadOutcome::default();
        if !plan.alive_at(source, time) {
            rec.rec_event(Kernel::Walk, Event::DeadSource);
            return (EventWalkOutcome::default(), stats, over);
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
                over,
            );
        }
        self.reset(graph.num_nodes());
        let mut run = WalkRun {
            graph,
            holders,
            plan,
            ttl,
            walkers: (0..k)
                .map(|w| WalkerState {
                    rng: Pcg64::with_stream(seed, w as u64),
                    current: source,
                    previous: u32::MAX,
                })
                .collect(),
            messages: 0,
            in_cal: 0,
            visited: vec![source],
            found_at_step: None,
            first_hit_time: None,
        };
        for w in 0..k as u32 {
            self.resume_walker(&mut run, w, 0);
        }
        let unlimited = cap.is_unlimited();
        while let Some((t, ev)) = self.next_event(cutoff) {
            match ev {
                Ev::Walk {
                    walker: w,
                    step,
                    from,
                    to,
                    msg,
                } => {
                    run.in_cal -= 1;
                    // A stranded walker stays put; the step number is
                    // consumed.
                    let mut stranded = false;
                    if !plan.alive_at(to, time) {
                        stats.dead_targets += 1;
                        stranded = true;
                    } else if plan.drop_message(from, to, nonce, msg) {
                        stats.dropped += 1;
                        stranded = true;
                    } else if unlimited {
                        self.serve_walk(&mut run, w, step, from, to, t);
                    } else {
                        over.backlog_seeded += self.touch(to, t, nonce, cap);
                        let entry = QEntry {
                            arrived: t,
                            payload: Payload::Walk {
                                walker: w,
                                step,
                                from,
                            },
                        };
                        let (evicted, arriving_shed) =
                            self.enqueue(Kernel::Walk, to, entry, ttl, cap, &mut over, rec);
                        // Shed at the door: the drop semantics.
                        stranded = arriving_shed;
                        if let Some(QEntry {
                            payload:
                                Payload::Walk {
                                    walker: ew,
                                    step: es,
                                    ..
                                },
                            ..
                        }) = evicted
                        {
                            // The evicted step never got serviced, so
                            // its walker never moved: resume it from
                            // where it stands, step number consumed.
                            self.resume_walker(&mut run, ew, es);
                        }
                    }
                    if stranded {
                        self.resume_walker(&mut run, w, step);
                    }
                }
                Ev::Serve(node) => {
                    let entry = self.serve_head(node, t, cap, &mut over);
                    // Synthetic backlog only consumes the slot.
                    if let Payload::Walk { walker, step, from } = entry.payload {
                        self.serve_walk(&mut run, walker, step, from, node, t);
                    }
                }
                // Flood events are never scheduled by the walk kernel.
                Ev::Flood { .. } => unreachable!("flood event in walk run"),
            }
        }
        run.visited.sort_unstable();
        run.visited.dedup();
        if !unlimited {
            over.in_flight = run.in_cal + self.queued_real();
        }
        let (truncated, completion_time) = self.clock_out(cutoff);
        stats.ticks = completion_time;
        Self::record_run(
            Kernel::Walk,
            run.messages,
            &stats,
            (!unlimited).then_some(&over),
            run.found_at_step,
            run.first_hit_time,
            rec,
        );
        (
            EventWalkOutcome {
                walk: WalkOutcome {
                    found: run.found_at_step.is_some(),
                    found_at_step: run.found_at_step,
                    messages: run.messages,
                    visited: run.visited.len() as u32,
                },
                first_hit_time: run.first_hit_time,
                completion_time,
                truncated,
            },
            stats,
            over,
        )
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use qcp_faults::capacity::{CapacityConfig, CapacityModel};
    use qcp_faults::FaultConfig;
    use qcp_obs::NoopRecorder;

    fn path(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    fn limited(load: f64, policy: ShedPolicy) -> CapacityPlan {
        CapacityPlan::build(&CapacityConfig {
            offered_load: load,
            queue_bound: 4,
            policy,
            model: CapacityModel::Uniform,
            seed: 0xbeef,
        })
    }

    #[test]
    fn unlimited_flood_after_limited_runs_is_bitwise_a_fresh_run() {
        // Reset must leave no queue, backlog or mark behind: an engine
        // that just ran a shedding flood serves an unlimited one exactly
        // like a fresh engine.
        let g = crate::topology::erdos_renyi(300, 5.0, 3).graph;
        let plan = FaultPlan::none(300);
        let run = |eng: &mut OverloadEngine, ttl, cap: &CapacityPlan| {
            let cutoff = (!cap.is_unlimited()).then_some(60);
            let nonce = u64::from(ttl);
            let holders = [50, 200];
            eng.flood(
                &g,
                7,
                ttl,
                &holders,
                None,
                &plan,
                cap,
                0,
                nonce,
                cutoff,
                &mut NoopRecorder,
            )
        };
        let unlimited = CapacityPlan::unlimited();
        let mut eng = OverloadEngine::new();
        for ttl in 0..=5 {
            let (_, _, loaded) = run(&mut eng, 5, &limited(64.0, ShedPolicy::DropOldest));
            assert!(loaded.shed > 0);
            let fresh = run(&mut OverloadEngine::new(), ttl, &unlimited);
            assert_eq!(run(&mut eng, ttl, &unlimited), fresh);
            assert_eq!(fresh.2, OverloadOutcome::default());
        }
    }

    #[test]
    fn zero_load_uniform_capacity_only_adds_service_time() {
        // With no background load and huge queues nothing sheds; the
        // flood's message/coverage accounting matches the PR 7 kernel,
        // only the timeline stretches by the service intervals.
        let g = path(6);
        let plan = FaultPlan::none(6);
        let cap = limited(0.0, ShedPolicy::DropNewest);
        let mut eng = OverloadEngine::new();
        let free = crate::FloodEngine::new(6).flood_census(&g, 0, 5, &[4], None);
        let (out, stats, over) = eng.flood(
            &g,
            0,
            5,
            &[4],
            None,
            &plan,
            &cap,
            0,
            7,
            None,
            &mut NoopRecorder,
        );
        assert_eq!(out.flood, free.at(5));
        assert_eq!(over.shed, 0);
        assert_eq!(over.backlog_seeded, 0);
        assert_eq!(over.enqueued, over.served + over.in_flight);
        // Uniform tier-2 service: each hop pays latency 1 + service 4.
        assert_eq!(out.first_hit_time, Some(4 * 5));
        assert_eq!(stats.ticks, out.completion_time);
    }

    #[test]
    fn heavy_load_sheds_and_accounting_identity_holds() {
        let g = crate::topology::erdos_renyi(200, 6.0, 11).graph;
        let plan = FaultPlan::none(200);
        let mut eng = OverloadEngine::new();
        for policy in ShedPolicy::ALL {
            let cap = limited(64.0, policy);
            let (out, stats, over) = eng.flood(
                &g,
                3,
                4,
                &[150],
                None,
                &plan,
                &cap,
                0,
                42,
                Some(200),
                &mut NoopRecorder,
            );
            assert_eq!(
                out.flood.messages,
                over.served + stats.dead_targets + stats.dropped + over.shed + over.in_flight,
                "identity violated under {policy:?}"
            );
            assert!(over.shed > 0, "load 64 must shed under {policy:?}");
            assert!(over.backlog_seeded > 0);
        }
    }

    #[test]
    fn walk_identity_and_determinism_under_load() {
        let g = crate::topology::erdos_renyi(200, 6.0, 13).graph;
        let plan = FaultPlan::build(
            200,
            &FaultConfig {
                loss: 0.15,
                mean_latency: 3,
                ..Default::default()
            },
        );
        let cap = limited(16.0, ShedPolicy::TtlPriority);
        let run = || {
            let mut eng = OverloadEngine::new();
            eng.walk(
                &g,
                5,
                8,
                30,
                &[160],
                0xabc,
                &plan,
                &cap,
                0,
                9,
                Some(400),
                &mut NoopRecorder,
            )
        };
        let (a, sa, oa) = run();
        let (b, sb, ob) = run();
        assert_eq!((a, sa, oa), (b, sb, ob));
        assert_eq!(
            a.walk.messages,
            oa.served + sa.dead_targets + sa.dropped + oa.shed + oa.in_flight,
        );
    }

    #[test]
    fn unlimited_walk_after_a_limited_run_is_bitwise_a_fresh_run() {
        let g = crate::topology::erdos_renyi(200, 6.0, 13).graph;
        let plan = FaultPlan::none(200);
        let run = |eng: &mut OverloadEngine, k, holders: &[u32], cap: &CapacityPlan| {
            eng.walk(
                &g,
                5,
                k,
                20,
                holders,
                7,
                &plan,
                cap,
                0,
                9,
                Some(100),
                &mut NoopRecorder,
            )
        };
        let unlimited = CapacityPlan::unlimited();
        let mut eng = OverloadEngine::new();
        let (_, _, loaded) = run(&mut eng, 8, &[], &limited(64.0, ShedPolicy::TtlPriority));
        assert!(loaded.backlog_seeded > 0);
        let fresh = run(&mut OverloadEngine::new(), 4, &[160], &unlimited);
        assert_eq!(run(&mut eng, 4, &[160], &unlimited), fresh);
        assert_eq!(fresh.2, OverloadOutcome::default());
    }

    #[test]
    fn engine_reuse_is_bitwise_stable_and_reset_retains_capacity() {
        let g = crate::topology::erdos_renyi(150, 5.0, 17).graph;
        let plan = FaultPlan::none(150);
        let cap = limited(8.0, ShedPolicy::DropOldest);
        let mut eng = OverloadEngine::new();
        let first = eng.flood(
            &g,
            2,
            4,
            &[100],
            None,
            &plan,
            &cap,
            0,
            5,
            Some(300),
            &mut NoopRecorder,
        );
        let heap_cap = eng.cal.capacity();
        // Ten reuses of the same engine reproduce the first run and
        // never grow the calendar: the arena discipline.
        for _ in 0..10 {
            let again = eng.flood(
                &g,
                2,
                4,
                &[100],
                None,
                &plan,
                &cap,
                0,
                5,
                Some(300),
                &mut NoopRecorder,
            );
            assert_eq!(first, again);
            assert_eq!(eng.cal.capacity(), heap_cap);
        }
    }

    #[test]
    fn drop_oldest_keeps_arrivals_and_ttl_priority_prefers_budget() {
        // On a path under heavy synthetic backlog, drop-newest sheds
        // the real arrivals at the door while drop-oldest lets them in
        // (evicting backlog first) — so drop-oldest must serve at least
        // as many real messages.
        let g = path(8);
        let plan = FaultPlan::none(8);
        let mut eng = OverloadEngine::new();
        let run = |eng: &mut OverloadEngine, policy| {
            let cap = limited(256.0, policy);
            eng.flood(
                &g,
                0,
                7,
                &[7],
                None,
                &plan,
                &cap,
                0,
                3,
                Some(400),
                &mut NoopRecorder,
            )
        };
        let (_, _, newest) = run(&mut eng, ShedPolicy::DropNewest);
        let (_, _, oldest) = run(&mut eng, ShedPolicy::DropOldest);
        let (_, _, ttlp) = run(&mut eng, ShedPolicy::TtlPriority);
        assert!(oldest.served >= newest.served);
        assert!(ttlp.served >= newest.served);
    }
}
