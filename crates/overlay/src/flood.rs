//! TTL-limited flooding.
//!
//! Gnutella flooding is breadth-first: the source hands the query to every
//! neighbor with the configured TTL; each receiver decrements the TTL and
//! forwards to all its other neighbors while TTL remains. In a two-tier
//! network only ultrapeers forward; leaves receive and answer.
//!
//! [`FloodEngine`] is a reusable BFS context with two interchangeable
//! visited-set representations (DESIGN.md §13): epoch-stamped `u32` marks
//! (4 bytes/node, O(1) reset — the default at paper scale) and a bitset
//! (1 bit/node, O(n/64) reset — the default at million-node scale, where
//! the 32× smaller footprint keeps the visited set cache- and
//! RSS-friendly). Both produce bit-identical traversals: the BFS only
//! ever asks "newly visited?", which is representation-independent.
//! Consecutive queries on the same graph allocate nothing either way, and
//! [`FloodEngine::run_into`] extends that guarantee to the census vectors
//! via a caller-held [`CensusBuf`].
//!
//! # The hop census and the BFS prefix property
//!
//! A TTL-`t` flood executes *exactly* the first `t` levels of a TTL-max
//! flood: the frontier at hop `h` is a pure function of the first `h`
//! levels, message counters advance transmission by transmission in the
//! same order, and fault draws key on `(edge, nonce, message index)` —
//! none of which mention the TTL. [`FloodEngine::flood_census`] exploits
//! this: one BFS at `max_ttl` records, per hop level, the cumulative
//! `reached`/`messages` (and, in the faulty variant, cumulative fault
//! counters), from which [`CensusOutcome::at`] reconstructs the
//! [`FloodOutcome`] of *every* TTL ≤ `max_ttl` bit for bit. An 8-point
//! TTL curve then costs one expanding ball instead of the sum of eight.
//!
//! [`LaneCensus`] runs up to [`LANES`] fault-free censuses in one BFS
//! pass on `u64` lane masks, each lane bitwise its per-trial census —
//! the kernel behind `sim::sweep_ttl`.

use crate::graph::Graph;
use qcp_faults::{FaultPlan, FaultStats};
use qcp_obs::{Counter, Event, Kernel, NoopRecorder, Recorder};

/// Fault context of a [`FloodSpec`]: the plan plus the query's position
/// in the plan's streams.
#[derive(Debug, Clone, Copy)]
pub struct FloodFaults<'p> {
    /// The fault plan every transmission consults.
    pub plan: &'p FaultPlan,
    /// Workload tick at which the query is issued.
    pub time: u64,
    /// Per-query nonce in the plan's drop stream.
    pub nonce: u64,
}

/// One unified description of a flood — the single entry point behind
/// which `flood` / `flood_faulty` / `flood_census` /
/// `flood_census_faulty` / `flood_census_pruned` collapse (the legacy
/// methods remain as the reference oracles their bitwise pins run
/// against).
///
/// [`FloodEngine::run`] always returns the full hop census plus the
/// per-level cumulative [`FaultStats`]; a single-TTL outcome is
/// `census.at(ttl)` — bit-identical to the corresponding legacy call by
/// the BFS prefix property.
///
/// ```
/// use qcp_overlay::{FloodEngine, FloodSpec, Graph};
/// use qcp_obs::NoopRecorder;
///
/// let graph = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let mut engine = FloodEngine::new(4);
/// let spec = FloodSpec::new(2);
/// let (census, _stats) = engine.run(&graph, 0, &[2], None, &spec, &mut NoopRecorder);
/// assert!(census.at(2).found);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FloodSpec<'p> {
    /// Deepest hop level to census.
    pub max_ttl: u32,
    /// Fault context; `None` runs fault-free.
    pub plan: Option<FloodFaults<'p>>,
    /// Stop expanding once the level containing the first hit is
    /// complete (the expanding-ring driver's early exit).
    pub pruned: bool,
}

impl<'p> FloodSpec<'p> {
    /// A fault-free, unpruned census to `max_ttl`.
    pub fn new(max_ttl: u32) -> Self {
        Self {
            max_ttl,
            plan: None,
            pruned: false,
        }
    }

    /// Attaches a fault plan (every transmission consults it).
    pub fn faulty(mut self, plan: &'p FaultPlan, time: u64, nonce: u64) -> Self {
        self.plan = Some(FloodFaults { plan, time, nonce });
        self
    }

    /// Enables the early exit at the first-hit level.
    pub fn pruned(mut self) -> Self {
        self.pruned = true;
        self
    }
}

/// Per-hop census of one flood: the cumulative coverage and cost of every
/// TTL prefix of a single BFS (see the module docs for why prefixes of
/// one flood *are* independent shorter floods).
///
/// Index `h` of [`Self::reached`]/[`Self::messages`] holds the values a
/// standalone TTL-`h` flood would report. The vectors stop at the level
/// where the BFS exhausted the graph (or at `max_ttl`); [`Self::at`]
/// clamps, because a deeper flood of a dead frontier changes nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CensusOutcome {
    /// `reached[h]` — distinct peers a TTL-`h` flood reaches (index 0 is
    /// the source alone; all-zero when a faulty census had a dead source).
    pub reached: Vec<u32>,
    /// `messages[h]` — query messages a TTL-`h` flood sends.
    pub messages: Vec<u64>,
    /// Hop at which the first holder is reached, if any (TTL-independent:
    /// every flood deep enough finds it at this hop, shallower ones miss).
    pub first_hit_hop: Option<u32>,
}

impl CensusOutcome {
    /// Deepest recorded level (the BFS ran `levels()` hops before the
    /// TTL cap or frontier exhaustion stopped it).
    pub fn levels(&self) -> u32 {
        debug_assert_eq!(self.reached.len(), self.messages.len());
        self.reached.len() as u32 - 1
    }

    /// Reconstructs the outcome of a standalone TTL-`ttl` flood from the
    /// census. For `ttl` beyond the recorded levels the flood had already
    /// exhausted its frontier, so the last level's numbers stand.
    pub fn at(&self, ttl: u32) -> FloodOutcome {
        let level = ttl.min(self.levels()) as usize;
        let found_at_hop = self.first_hit_hop.filter(|&h| h <= ttl);
        FloodOutcome {
            found: found_at_hop.is_some(),
            found_at_hop,
            reached: self.reached[level],
            messages: self.messages[level],
        }
    }
}

/// Result of one flooded query. The default is a flood that sent
/// nothing (a dead source).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FloodOutcome {
    /// Whether any reached peer held the target object.
    pub found: bool,
    /// Hop count at which the first replica was found.
    pub found_at_hop: Option<u32>,
    /// Number of distinct peers reached (including the source).
    pub reached: u32,
    /// Query messages sent (edge traversals).
    pub messages: u64,
}

/// Caller-held census buffers for [`FloodEngine::run_into`]: sweep loops
/// keep one per worker and reuse its vector capacity across trials, so a
/// steady-state trial performs no heap allocation at all.
#[derive(Debug, Clone, Default)]
pub struct CensusBuf {
    /// The census of the most recent run.
    pub census: CensusOutcome,
    /// Per-level *cumulative* fault stats of the most recent run
    /// (all-zero entries for fault-free specs).
    pub stats: Vec<FaultStats>,
}

// ---------------------------------------------------------------------
// Visited-set representations.
// ---------------------------------------------------------------------

/// Visited-set representation of a [`FloodEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitedRepr {
    /// Epoch-stamped `u32` per node: 4 bytes/node, O(1) per-query reset.
    EpochMarks,
    /// One bit per node: 32× smaller, O(n/64) per-query reset.
    Bitset,
}

/// Node count at which [`FloodEngine::new`] switches from epoch marks to
/// the bitset: below it the 4-byte marks' O(1) reset wins (queries touch
/// a large fraction of the graph anyway); at and above it the bitset's
/// footprint — 128 KiB instead of 4 MiB per million nodes — dominates.
/// Half a mebinode, so every million-node-and-up ladder rung gets the
/// bitset while the paper's 40k (and the golden-pinned Figure-8 runs)
/// keep epoch marks.
pub const BITSET_THRESHOLD: usize = 1 << 19;

/// The operations a BFS needs from a visited set. The cores are generic
/// over this trait (monomorphized — no per-visit dispatch); the engine
/// picks the implementation once per query.
trait VisitMarks {
    /// Starts a new query: every node becomes unvisited.
    fn begin(&mut self);
    /// Marks `v` visited; true when `v` was not yet visited this query.
    fn insert(&mut self, v: u32) -> bool;
    /// Whether `v` was visited by the current (most recent) query.
    fn contains(&self, v: u32) -> bool;
}

/// 4-byte epoch marks: reset is a counter bump; wraparound (once per
/// 2^32 queries) clears the array and restarts at epoch 1.
#[derive(Debug, Clone)]
struct EpochMarks {
    mark: Vec<u32>,
    epoch: u32,
}

impl EpochMarks {
    fn new(num_nodes: usize) -> Self {
        Self {
            mark: vec![0; num_nodes],
            epoch: 0,
        }
    }
}

impl VisitMarks for EpochMarks {
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: reset marks and restart epochs, so a
            // stale mark from 2^32 queries ago can never read as visited.
            self.mark.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn insert(&mut self, v: u32) -> bool {
        let slot = &mut self.mark[v as usize];
        if *slot != self.epoch {
            *slot = self.epoch;
            true
        } else {
            false
        }
    }

    #[inline]
    fn contains(&self, v: u32) -> bool {
        self.mark[v as usize] == self.epoch
    }
}

/// 1-bit-per-node marks, cleared wholesale at query start.
#[derive(Debug, Clone)]
struct BitMarks {
    words: Vec<u64>,
}

impl BitMarks {
    fn new(num_nodes: usize) -> Self {
        Self {
            words: vec![0; num_nodes.div_ceil(64)],
        }
    }
}

impl VisitMarks for BitMarks {
    fn begin(&mut self) {
        self.words.fill(0);
    }

    #[inline]
    fn insert(&mut self, v: u32) -> bool {
        let word = &mut self.words[(v >> 6) as usize];
        let bit = 1u64 << (v & 63);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    #[inline]
    fn contains(&self, v: u32) -> bool {
        self.words[(v >> 6) as usize] & (1u64 << (v & 63)) != 0
    }
}

#[derive(Debug, Clone)]
enum Visited {
    Epoch(EpochMarks),
    Bits(BitMarks),
}

// ---------------------------------------------------------------------
// BFS cores, generic over the visited set (monomorphic hot loops).
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)] // internal core behind the engine API
fn flood_core<V: VisitMarks>(
    visited: &mut V,
    frontier: &mut Vec<u32>,
    next: &mut Vec<u32>,
    graph: &Graph,
    source: u32,
    ttl: u32,
    holders: &[u32],
    forwarders: Option<&[bool]>,
    faults: Option<FloodFaults<'_>>,
    stats: &mut FaultStats,
) -> FloodOutcome {
    debug_assert!(holders.windows(2).all(|w| w[0] < w[1]));
    visited.begin();
    frontier.clear();
    next.clear();
    let mut reached = 1u32;
    let mut messages = 0u64;
    let mut found_at_hop = None;
    visited.insert(source);
    if holders.binary_search(&source).is_ok() {
        found_at_hop = Some(0);
    }
    frontier.push(source);
    let mut hop = 0u32;
    while hop < ttl && !frontier.is_empty() {
        hop += 1;
        next.clear();
        for &u in frontier.iter() {
            // Only forwarders expand (the source always sends).
            if u != source {
                if let Some(mask) = forwarders {
                    if !mask[u as usize] {
                        continue;
                    }
                }
            }
            for &v in graph.neighbors(u) {
                messages += 1;
                if let Some(f) = faults {
                    if !f.plan.alive_at(v, f.time) {
                        stats.dead_targets += 1;
                        continue;
                    }
                    if f.plan.drop_message(u, v, f.nonce, messages) {
                        stats.dropped += 1;
                        continue;
                    }
                }
                if visited.insert(v) {
                    reached += 1;
                    if found_at_hop.is_none() && holders.binary_search(&v).is_ok() {
                        found_at_hop = Some(hop);
                    }
                    next.push(v);
                }
            }
        }
        std::mem::swap(frontier, next);
    }
    FloodOutcome {
        found: found_at_hop.is_some(),
        found_at_hop,
        reached,
        messages,
    }
}

#[allow(clippy::too_many_arguments)] // internal core behind the engine API
fn census_core<V: VisitMarks, R: Recorder>(
    visited: &mut V,
    frontier: &mut Vec<u32>,
    next: &mut Vec<u32>,
    graph: &Graph,
    source: u32,
    max_ttl: u32,
    holders: &[u32],
    forwarders: Option<&[bool]>,
    stop_on_hit: bool,
    rec: &mut R,
    out: &mut CensusOutcome,
) {
    debug_assert!(holders.windows(2).all(|w| w[0] < w[1]));
    rec.rec_span(Kernel::Flood);
    visited.begin();
    frontier.clear();
    next.clear();
    out.reached.clear();
    out.messages.clear();
    out.first_hit_hop = None;
    let mut reached = 1u32;
    let mut messages = 0u64;
    visited.insert(source);
    if holders.binary_search(&source).is_ok() {
        out.first_hit_hop = Some(0);
    }
    frontier.push(source);
    out.reached.push(reached);
    out.messages.push(messages);
    let mut hop = 0u32;
    while hop < max_ttl && !frontier.is_empty() {
        hop += 1;
        next.clear();
        let level_start = messages;
        for &u in frontier.iter() {
            // Only forwarders expand (the source always sends).
            if u != source {
                if let Some(mask) = forwarders {
                    if !mask[u as usize] {
                        continue;
                    }
                }
            }
            for &v in graph.neighbors(u) {
                messages += 1;
                if visited.insert(v) {
                    reached += 1;
                    if out.first_hit_hop.is_none() && holders.binary_search(&v).is_ok() {
                        out.first_hit_hop = Some(hop);
                    }
                    next.push(v);
                }
            }
        }
        std::mem::swap(frontier, next);
        out.reached.push(reached);
        out.messages.push(messages);
        rec.rec_hop(Kernel::Flood, hop, messages - level_start);
        // Expanding-ring early exit: the successful ring is
        // `max(first_hit_hop, 1)`, and its prefix sums are complete
        // once this level is.
        if stop_on_hit && out.first_hit_hop.is_some() {
            break;
        }
    }
    rec.rec_count(Kernel::Flood, Counter::Messages, messages);
    rec.rec_event(
        Kernel::Flood,
        if out.first_hit_hop.is_some() {
            Event::Hit
        } else {
            Event::Miss
        },
    );
}

#[allow(clippy::too_many_arguments)] // internal core behind the engine API
fn census_faulty_core<V: VisitMarks, R: Recorder>(
    visited: &mut V,
    frontier: &mut Vec<u32>,
    next: &mut Vec<u32>,
    graph: &Graph,
    source: u32,
    max_ttl: u32,
    holders: &[u32],
    forwarders: Option<&[bool]>,
    faults: FloodFaults<'_>,
    stop_on_hit: bool,
    rec: &mut R,
    out: &mut CensusOutcome,
    level_stats: &mut Vec<FaultStats>,
) {
    debug_assert!(holders.windows(2).all(|w| w[0] < w[1]));
    rec.rec_span(Kernel::Flood);
    out.reached.clear();
    out.messages.clear();
    out.first_hit_hop = None;
    level_stats.clear();
    let FloodFaults { plan, time, nonce } = faults;
    if !plan.alive_at(source, time) {
        rec.rec_event(Kernel::Flood, Event::DeadSource);
        out.reached.push(0);
        out.messages.push(0);
        level_stats.push(FaultStats::default());
        return;
    }
    visited.begin();
    frontier.clear();
    next.clear();
    let mut reached = 1u32;
    let mut messages = 0u64;
    visited.insert(source);
    if holders.binary_search(&source).is_ok() {
        out.first_hit_hop = Some(0);
    }
    frontier.push(source);
    out.reached.push(reached);
    out.messages.push(messages);
    level_stats.push(FaultStats::default());
    let mut hop = 0u32;
    while hop < max_ttl && !frontier.is_empty() {
        hop += 1;
        next.clear();
        let mut stats = FaultStats::default();
        let level_start = messages;
        for &u in frontier.iter() {
            // Only forwarders expand (the source always sends).
            if u != source {
                if let Some(mask) = forwarders {
                    if !mask[u as usize] {
                        continue;
                    }
                }
            }
            for &v in graph.neighbors(u) {
                messages += 1;
                if !plan.alive_at(v, time) {
                    stats.dead_targets += 1;
                    continue;
                }
                if plan.drop_message(u, v, nonce, messages) {
                    stats.dropped += 1;
                    continue;
                }
                if visited.insert(v) {
                    reached += 1;
                    if out.first_hit_hop.is_none() && holders.binary_search(&v).is_ok() {
                        out.first_hit_hop = Some(hop);
                    }
                    next.push(v);
                }
            }
        }
        std::mem::swap(frontier, next);
        out.reached.push(reached);
        out.messages.push(messages);
        rec.rec_hop(Kernel::Flood, hop, messages - level_start);
        rec.rec_faults(Kernel::Flood, &stats);
        level_stats.push(stats);
        // Expanding-ring early exit, as in the fault-free census.
        if stop_on_hit && out.first_hit_hop.is_some() {
            break;
        }
    }
    FaultStats::accumulate_prefix(level_stats);
    rec.rec_count(Kernel::Flood, Counter::Messages, messages);
    rec.rec_event(
        Kernel::Flood,
        if out.first_hit_hop.is_some() {
            Event::Hit
        } else {
            Event::Miss
        },
    );
}

/// Reusable flooding engine for one graph size.
///
/// ```
/// use qcp_overlay::{FloodEngine, Graph};
///
/// // Path 0-1-2-3: a TTL-2 flood from node 0 reaches nodes 0,1,2.
/// let graph = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let mut engine = FloodEngine::new(4);
/// let out = engine.flood(&graph, 0, 2, &[2], None);
/// assert!(out.found);
/// assert_eq!(out.found_at_hop, Some(2));
/// assert_eq!(out.reached, 3);
/// ```
#[derive(Debug, Clone)]
pub struct FloodEngine {
    visited: Visited,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

/// Dispatches once per engine entry point into a core monomorphized over
/// the visited-set representation (no per-visit dynamic dispatch).
macro_rules! with_visited {
    ($self:expr, $marks:ident => $body:expr) => {
        match &mut $self.visited {
            Visited::Epoch($marks) => $body,
            Visited::Bits($marks) => $body,
        }
    };
}

impl FloodEngine {
    /// Creates an engine for graphs with `num_nodes` nodes, choosing the
    /// visited-set representation by [`BITSET_THRESHOLD`].
    pub fn new(num_nodes: usize) -> Self {
        let repr = if num_nodes >= BITSET_THRESHOLD {
            VisitedRepr::Bitset
        } else {
            VisitedRepr::EpochMarks
        };
        Self::with_repr(num_nodes, repr)
    }

    /// Creates an engine with an explicit visited-set representation
    /// (tests and the `repro scale` artifact pin cross-representation
    /// equality with this).
    pub fn with_repr(num_nodes: usize, repr: VisitedRepr) -> Self {
        let visited = match repr {
            VisitedRepr::EpochMarks => Visited::Epoch(EpochMarks::new(num_nodes)),
            VisitedRepr::Bitset => Visited::Bits(BitMarks::new(num_nodes)),
        };
        Self {
            visited,
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// The active visited-set representation.
    pub fn repr(&self) -> VisitedRepr {
        match self.visited {
            Visited::Epoch(_) => VisitedRepr::EpochMarks,
            Visited::Bits(_) => VisitedRepr::Bitset,
        }
    }

    /// Resident bytes of the engine's per-trial state: the visited set
    /// plus the frontier queues' reserved capacity. Deterministic for a
    /// deterministic workload (capacities grow by the same doubling
    /// sequence), so `repro scale` can report it under the byte gate.
    pub fn mem_bytes(&self) -> usize {
        let visited = match &self.visited {
            Visited::Epoch(m) => m.mark.len() * std::mem::size_of::<u32>(),
            Visited::Bits(m) => m.words.len() * std::mem::size_of::<u64>(),
        };
        visited + (self.frontier.capacity() + self.next.capacity()) * std::mem::size_of::<u32>()
    }

    /// Floods from `source` with `ttl` hops and reports coverage plus
    /// whether a holder of the target was reached.
    ///
    /// * `holders` — sorted peer list holding the target (empty = pure
    ///   coverage measurement);
    /// * `forwarders` — optional mask; nodes with `false` receive but do
    ///   not forward (Gnutella leaves). `None` = everyone forwards.
    pub fn flood(
        &mut self,
        graph: &Graph,
        source: u32,
        ttl: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
    ) -> FloodOutcome {
        let (frontier, next) = (&mut self.frontier, &mut self.next);
        let mut stats = FaultStats::default();
        with_visited!(self, marks => flood_core(
            marks, frontier, next, graph, source, ttl, holders, forwarders, None, &mut stats,
        ))
    }

    /// Hop-census flood: one BFS at `max_ttl` whose per-level snapshots
    /// reconstruct the [`FloodOutcome`] of every TTL ≤ `max_ttl`
    /// ([`CensusOutcome::at`]), bit-identical to running [`Self::flood`]
    /// separately at each TTL (pinned by tests and proptests).
    pub fn flood_census(
        &mut self,
        graph: &Graph,
        source: u32,
        max_ttl: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
    ) -> CensusOutcome {
        let mut out = CensusOutcome::default();
        let (frontier, next) = (&mut self.frontier, &mut self.next);
        with_visited!(self, marks => census_core(
            marks, frontier, next, graph, source, max_ttl, holders, forwarders,
            false, &mut NoopRecorder, &mut out,
        ));
        out
    }

    /// Unified flood entry point: runs the census described by `spec`,
    /// recording into `rec` (pass [`NoopRecorder`] for free
    /// no-instrumentation runs). Returns the census plus the per-level
    /// *cumulative* [`FaultStats`] (all-zero entries for fault-free
    /// specs, so consumers index uniformly).
    ///
    /// Dispatch table (each arm bit-identical to the legacy method):
    ///
    /// | `plan`  | `pruned` | behaves as                       |
    /// |---------|----------|----------------------------------|
    /// | `None`  | `false`  | [`Self::flood_census`]           |
    /// | `None`  | `true`   | [`Self::flood_census_pruned`]    |
    /// | `Some`  | `false`  | [`Self::flood_census_faulty`]    |
    /// | `Some`  | `true`   | faulty census with the early exit |
    ///
    /// and `census.at(t)` reconstructs [`Self::flood`] /
    /// [`Self::flood_faulty`] at TTL `t` (the BFS prefix property).
    ///
    /// Allocates fresh result vectors per call; hot sweep loops use
    /// [`Self::run_into`] with a reused [`CensusBuf`] instead.
    pub fn run<R: Recorder>(
        &mut self,
        graph: &Graph,
        source: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
        spec: &FloodSpec<'_>,
        rec: &mut R,
    ) -> (CensusOutcome, Vec<FaultStats>) {
        let mut buf = CensusBuf::default();
        self.run_into(graph, source, holders, forwarders, spec, rec, &mut buf);
        (buf.census, buf.stats)
    }

    /// [`Self::run`] writing into a caller-held [`CensusBuf`]: identical
    /// results (bit for bit — pinned by tests), but the census vectors
    /// reuse `buf`'s capacity, so a steady-state trial allocates nothing.
    #[allow(clippy::too_many_arguments)] // mirrors `run` + the buffer
    pub fn run_into<R: Recorder>(
        &mut self,
        graph: &Graph,
        source: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
        spec: &FloodSpec<'_>,
        rec: &mut R,
        buf: &mut CensusBuf,
    ) {
        let (frontier, next) = (&mut self.frontier, &mut self.next);
        let (out, level_stats) = (&mut buf.census, &mut buf.stats);
        match spec.plan {
            None => {
                with_visited!(self, marks => census_core(
                    marks, frontier, next, graph, source, spec.max_ttl, holders,
                    forwarders, spec.pruned, rec, out,
                ));
                level_stats.clear();
                level_stats.resize(out.reached.len(), FaultStats::default());
            }
            Some(f) => {
                with_visited!(self, marks => census_faulty_core(
                    marks, frontier, next, graph, source, spec.max_ttl, holders,
                    forwarders, f, spec.pruned, rec, out, level_stats,
                ));
            }
        }
    }

    /// Like [`Self::flood_census`], but stops expanding as soon as the
    /// level containing the first holder hit is complete — the
    /// expanding-ring driver, which never needs prefix sums past its
    /// successful ring. Levels up to the stop point are identical to
    /// [`Self::flood_census`]'s.
    pub fn flood_census_pruned(
        &mut self,
        graph: &Graph,
        source: u32,
        max_ttl: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
    ) -> CensusOutcome {
        let mut out = CensusOutcome::default();
        let (frontier, next) = (&mut self.frontier, &mut self.next);
        with_visited!(self, marks => census_core(
            marks, frontier, next, graph, source, max_ttl, holders, forwarders,
            true, &mut NoopRecorder, &mut out,
        ));
        out
    }

    /// Fault-aware hop census: one faulty BFS at `max_ttl`, per-level
    /// snapshots plus *cumulative* per-level [`FaultStats`] (entry `h` =
    /// the counters a standalone TTL-`h` [`Self::flood_faulty`] with the
    /// same `(plan, time, nonce)` reports). Fault draws key on
    /// `(edge, nonce, message index)` and message indices advance
    /// identically in every TTL prefix, so the reconstruction is exact —
    /// bit for bit, drops included. A dead source yields the all-zero
    /// census, mirroring [`Self::flood_faulty`].
    #[allow(clippy::too_many_arguments)] // mirrors `flood_faulty`
    pub fn flood_census_faulty(
        &mut self,
        graph: &Graph,
        source: u32,
        max_ttl: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
        plan: &FaultPlan,
        time: u64,
        nonce: u64,
    ) -> (CensusOutcome, Vec<FaultStats>) {
        let mut out = CensusOutcome::default();
        let mut level_stats = Vec::new();
        let faults = FloodFaults { plan, time, nonce };
        let (frontier, next) = (&mut self.frontier, &mut self.next);
        with_visited!(self, marks => census_faulty_core(
            marks, frontier, next, graph, source, max_ttl, holders, forwarders,
            faults, false, &mut NoopRecorder, &mut out, &mut level_stats,
        ));
        (out, level_stats)
    }

    /// Fault-aware flood: like [`Self::flood`], but every transmission
    /// consults `plan` — messages to nodes that are down at workload tick
    /// `time` are wasted ([`FaultStats::dead_targets`]), in-flight drops
    /// are wasted ([`FaultStats::dropped`]), and dead nodes neither
    /// receive, answer, nor forward. Flooding is fire-and-forget: lost
    /// messages are never retried.
    ///
    /// `nonce` identifies this query in the plan's drop stream; distinct
    /// queries must pass distinct nonces.
    ///
    /// Under [`FaultPlan::none`] this is *exactly* [`Self::flood`]: the
    /// same traversal, the same message accounting, bit for bit (pinned
    /// by tests here and in `tests/determinism.rs`). A dead source sends
    /// nothing and fails immediately.
    #[allow(clippy::too_many_arguments)] // mirrors `flood` + the fault context
    pub fn flood_faulty(
        &mut self,
        graph: &Graph,
        source: u32,
        ttl: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
        plan: &FaultPlan,
        time: u64,
        nonce: u64,
    ) -> (FloodOutcome, FaultStats) {
        let mut stats = FaultStats::default();
        if !plan.alive_at(source, time) {
            return (FloodOutcome::default(), stats);
        }
        let faults = Some(FloodFaults { plan, time, nonce });
        let (frontier, next) = (&mut self.frontier, &mut self.next);
        let out = with_visited!(self, marks => flood_core(
            marks, frontier, next, graph, source, ttl, holders, forwarders,
            faults, &mut stats,
        ));
        (out, stats)
    }

    /// True if `node` was reached by the most recent flood.
    #[inline]
    pub fn was_reached(&self, node: u32) -> bool {
        match &self.visited {
            Visited::Epoch(m) => m.contains(node),
            Visited::Bits(m) => m.contains(node),
        }
    }

    /// Number of `holders` reached by the most recent flood — the "result
    /// count" a hybrid system uses to decide whether a query is rare
    /// (Loo et al. use `< 20` results).
    pub fn hits_in_last_flood(&self, holders: &[u32]) -> u32 {
        holders.iter().filter(|&&h| self.was_reached(h)).count() as u32
    }

    /// Coverage-only flood: how many peers a TTL-`ttl` flood reaches.
    pub fn coverage(
        &mut self,
        graph: &Graph,
        source: u32,
        ttl: u32,
        forwarders: Option<&[bool]>,
    ) -> u32 {
        self.flood(graph, source, ttl, &[], forwarders).reached
    }
}

// ---------------------------------------------------------------------
// Lane-batched census: up to 64 fault-free floods per BFS pass.
// ---------------------------------------------------------------------

/// Trials one [`LaneCensus`] pass carries — one bit of a `u64` lane mask
/// each.
pub const LANES: usize = 64;

/// Bit-parallel hop census for up to [`LANES`] independent fault-free
/// floods at once (a multi-source BFS after Then et al., "The More the
/// Merrier", VLDB 2014).
///
/// Every node carries three `u64` lane masks — `seen`, `frontier` and
/// `next`, 24 bytes/node — where bit `l` belongs to lane `l`'s flood. One
/// level scans the nodes whose frontier mask is non-zero and ORs
/// `frontier[u] & !seen[v]` into each neighbour's `next`, so a
/// neighbourhood that several trials reach at the same hop is scanned
/// once for all of them.
///
/// Each lane's [`CensusOutcome`] is bitwise the one
/// [`FloodEngine::flood_census`] returns for the same source and holders,
/// and the recorder sees exactly the calls that census would make (see
/// DESIGN.md §8, "Lane-batched census"). Faulty floods cannot batch:
/// their drop draws key on each flood's own message index, which depends
/// on traversal order.
///
/// ```
/// use qcp_overlay::{FloodEngine, Graph, LaneCensus};
/// use qcp_obs::NoopRecorder;
///
/// let graph = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let mut lanes = LaneCensus::new(4);
/// lanes.run(&graph, &[(0, &[2]), (3, &[])], 3, None, &mut NoopRecorder);
/// let mut engine = FloodEngine::new(4);
/// assert_eq!(lanes.outcomes()[0], engine.flood_census(&graph, 0, 3, &[2], None));
/// assert_eq!(lanes.outcomes()[1], engine.flood_census(&graph, 3, 3, &[], None));
/// ```
#[derive(Debug, Clone)]
pub struct LaneCensus {
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    lanes: Vec<CensusOutcome>,
}

impl LaneCensus {
    /// Lane state for graphs with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            seen: vec![0; num_nodes],
            frontier: vec![0; num_nodes],
            next: vec![0; num_nodes],
            lanes: Vec::new(),
        }
    }

    /// The censuses of the most recent [`Self::run`], one per trial in
    /// input order.
    pub fn outcomes(&self) -> &[CensusOutcome] {
        &self.lanes
    }

    /// Runs one fault-free, unpruned census to `max_ttl` per trial —
    /// `trials[l]` is lane `l`'s `(source, sorted holders)` — and replays
    /// into `rec`, lane by lane, the calls [`FloodEngine::run_into`]
    /// would make for each trial.
    ///
    /// # Panics
    ///
    /// If `trials` holds more than [`LANES`] entries.
    pub fn run<R: Recorder>(
        &mut self,
        graph: &Graph,
        trials: &[(u32, &[u32])],
        max_ttl: u32,
        forwarders: Option<&[bool]>,
        rec: &mut R,
    ) {
        assert!(
            trials.len() <= LANES,
            "a lane census carries at most {LANES} trials"
        );
        debug_assert_eq!(self.seen.len(), graph.num_nodes());
        self.seen.fill(0);
        self.lanes.resize_with(trials.len(), CensusOutcome::default);
        let mut reached = [1u32; LANES];
        let mut messages = [0u64; LANES];
        // Lanes whose frontier is non-empty.
        let mut alive = 0u64;
        for (l, (&(source, holders), out)) in trials.iter().zip(&mut self.lanes).enumerate() {
            debug_assert!(holders.windows(2).all(|w| w[0] < w[1]));
            let bit = 1u64 << l;
            self.seen[source as usize] |= bit;
            self.frontier[source as usize] |= bit;
            alive |= bit;
            out.reached.clear();
            out.messages.clear();
            out.reached.push(1);
            out.messages.push(0);
            out.first_hit_hop = holders.binary_search(&source).is_ok().then_some(0);
        }
        let mut hop = 0u32;
        while hop < max_ttl && alive != 0 {
            hop += 1;
            let expanding = alive;
            alive = 0;
            for u in 0..self.frontier.len() {
                let f = self.frontier[u];
                if f == 0 {
                    continue;
                }
                self.frontier[u] = 0;
                // Only forwarders expand. At hop 1 the frontier holds
                // only sources, and a source always sends.
                if hop > 1 && forwarders.is_some_and(|mask| !mask[u]) {
                    continue;
                }
                let neighbors = graph.neighbors(u as u32);
                let degree = neighbors.len() as u64;
                for l in lane_bits(f) {
                    messages[l] += degree;
                }
                for &v in neighbors {
                    let v = v as usize;
                    let fresh = f & !self.seen[v];
                    if fresh != 0 {
                        self.seen[v] |= fresh;
                        self.next[v] |= fresh;
                        alive |= fresh;
                        for l in lane_bits(fresh) {
                            reached[l] += 1;
                        }
                    }
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
            for l in lane_bits(expanding) {
                let out = &mut self.lanes[l];
                out.reached.push(reached[l]);
                out.messages.push(messages[l]);
                if out.first_hit_hop.is_none() {
                    let holders = trials[l].1;
                    if holders
                        .iter()
                        .any(|&h| self.frontier[h as usize] >> l & 1 != 0)
                    {
                        out.first_hit_hop = Some(hop);
                    }
                }
            }
        }
        if alive != 0 {
            // Stopped by the TTL cap: clear the unexpanded frontier.
            self.frontier.fill(0);
        }
        for out in &self.lanes {
            rec.rec_span(Kernel::Flood);
            for (h, level) in out.messages.windows(2).enumerate() {
                rec.rec_hop(Kernel::Flood, h as u32 + 1, level[1] - level[0]);
            }
            let total = out.messages.last().copied().unwrap_or(0);
            rec.rec_count(Kernel::Flood, Counter::Messages, total);
            rec.rec_event(
                Kernel::Flood,
                if out.first_hit_hop.is_some() {
                    Event::Hit
                } else {
                    Event::Miss
                },
            );
        }
    }
}

/// The set lanes of `mask`, lowest first.
#[inline]
fn lane_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-3-4.
    fn path() -> Graph {
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn ttl_limits_reach() {
        let g = path();
        let mut e = FloodEngine::new(5);
        assert_eq!(e.coverage(&g, 0, 0, None), 1);
        assert_eq!(e.coverage(&g, 0, 1, None), 2);
        assert_eq!(e.coverage(&g, 0, 2, None), 3);
        assert_eq!(e.coverage(&g, 0, 4, None), 5);
        assert_eq!(e.coverage(&g, 2, 1, None), 3);
    }

    #[test]
    fn finds_object_within_ttl() {
        let g = path();
        let mut e = FloodEngine::new(5);
        let out = e.flood(&g, 0, 3, &[3], None);
        assert!(out.found);
        assert_eq!(out.found_at_hop, Some(3));
        let out = e.flood(&g, 0, 2, &[3], None);
        assert!(!out.found);
        assert_eq!(out.found_at_hop, None);
    }

    #[test]
    fn source_holding_object_found_at_hop_zero() {
        let g = path();
        let mut e = FloodEngine::new(5);
        let out = e.flood(&g, 2, 0, &[2], None);
        assert!(out.found);
        assert_eq!(out.found_at_hop, Some(0));
        assert_eq!(out.reached, 1);
    }

    #[test]
    fn leaves_do_not_forward() {
        // Star: 0 center; 1,2,3 leaves; leaf 1 connects to 4 (another
        // ultrapeer) — but node 1 is a leaf so the flood must stop there.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4)]);
        let forwarders = vec![true, false, false, false, true];
        let mut e = FloodEngine::new(5);
        let out = e.flood(&g, 0, 3, &[4], Some(&forwarders));
        assert!(!out.found, "leaf must not forward toward node 4");
        assert_eq!(out.reached, 4);
        // Same flood with full forwarding reaches node 4.
        let out2 = e.flood(&g, 0, 3, &[4], None);
        assert!(out2.found);
    }

    #[test]
    fn source_leaf_still_sends() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let forwarders = vec![false, true, true];
        let mut e = FloodEngine::new(3);
        let out = e.flood(&g, 0, 2, &[2], Some(&forwarders));
        assert!(out.found, "a leaf source must still issue its own query");
    }

    #[test]
    fn message_count_on_path() {
        let g = path();
        let mut e = FloodEngine::new(5);
        // TTL 2 from node 0: hop1 sends 1 msg (0->1), hop2 sends 2 (1->0,
        // 1->2).
        let out = e.flood(&g, 0, 2, &[], None);
        assert_eq!(out.messages, 3);
    }

    #[test]
    fn engine_reuse_is_clean() {
        let g = path();
        let mut e = FloodEngine::new(5);
        for _ in 0..1000 {
            let out = e.flood(&g, 0, 1, &[1], None);
            assert!(out.found);
            assert_eq!(out.reached, 2);
        }
    }

    #[test]
    fn cycle_graph_counts_each_node_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut e = FloodEngine::new(4);
        let out = e.flood(&g, 0, 4, &[], None);
        assert_eq!(out.reached, 4);
    }

    #[test]
    fn census_prefixes_equal_standalone_floods() {
        // The prefix property, exhaustively on a random graph: every TTL
        // slice of one census must equal an independent flood.
        let g = crate::topology::erdos_renyi(400, 5.0, 77).graph;
        let mut a = FloodEngine::new(400);
        let mut b = FloodEngine::new(400);
        for src in [0u32, 9, 250, 399] {
            let holders = [src / 3, 120, 377];
            let mut h: Vec<u32> = holders.to_vec();
            h.sort_unstable();
            h.dedup();
            let census = a.flood_census(&g, src, 7, &h, None);
            for ttl in 0..=9u32 {
                let plain = b.flood(&g, src, ttl.min(7), &h, None);
                if ttl <= 7 {
                    assert_eq!(census.at(ttl), plain, "src {src} ttl {ttl}");
                }
            }
            // Beyond max_ttl the census clamps to its last level.
            assert_eq!(census.at(99), census.at(census.levels()));
        }
    }

    #[test]
    fn census_respects_forwarder_masks() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4)]);
        let forwarders = vec![true, false, false, false, true];
        let mut e = FloodEngine::new(5);
        let census = e.flood_census(&g, 0, 3, &[4], Some(&forwarders));
        let mut f = FloodEngine::new(5);
        for ttl in 0..=3 {
            assert_eq!(census.at(ttl), f.flood(&g, 0, ttl, &[4], Some(&forwarders)));
        }
        assert_eq!(census.first_hit_hop, None, "leaf must not forward");
    }

    #[test]
    fn census_vectors_are_monotone_and_hop0_is_source() {
        let g = path();
        let mut e = FloodEngine::new(5);
        let census = e.flood_census(&g, 2, 4, &[0], None);
        assert_eq!(census.reached[0], 1);
        assert_eq!(census.messages[0], 0);
        assert!(census.reached.windows(2).all(|w| w[0] <= w[1]));
        assert!(census.messages.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(census.first_hit_hop, Some(2));
        assert!(!census.at(1).found && census.at(2).found);
    }

    #[test]
    fn pruned_census_matches_full_census_up_to_hit_level() {
        let g = crate::topology::erdos_renyi(300, 5.0, 78).graph;
        let mut e = FloodEngine::new(300);
        let holders = [150u32];
        let full = e.flood_census(&g, 3, 8, &holders, None);
        let pruned = e.flood_census_pruned(&g, 3, 8, &holders, None);
        assert_eq!(pruned.first_hit_hop, full.first_hit_hop);
        let hit = full.first_hit_hop.expect("holder reachable");
        // The pruned census carries every level the ring driver needs:
        // through level max(hit, 1).
        let need = hit.max(1);
        assert!(pruned.levels() >= need);
        for l in 0..=need {
            assert_eq!(pruned.at(l), full.at(l), "level {l}");
        }
    }

    // -----------------------------------------------------------------
    // Representation invariance and per-trial state reuse.
    // -----------------------------------------------------------------

    #[test]
    fn default_repr_follows_the_size_threshold() {
        assert_eq!(FloodEngine::new(5).repr(), VisitedRepr::EpochMarks);
        assert_eq!(
            FloodEngine::new(BITSET_THRESHOLD - 1).repr(),
            VisitedRepr::EpochMarks
        );
        assert_eq!(
            FloodEngine::new(BITSET_THRESHOLD).repr(),
            VisitedRepr::Bitset
        );
    }

    #[test]
    fn bitset_census_equals_epoch_census_bitwise() {
        let g = crate::topology::erdos_renyi(500, 5.0, 91).graph;
        let fwd: Vec<bool> = (0..500).map(|i| i % 3 != 1).collect();
        let mut epoch = FloodEngine::with_repr(500, VisitedRepr::EpochMarks);
        let mut bits = FloodEngine::with_repr(500, VisitedRepr::Bitset);
        for src in [0u32, 123, 499] {
            let holders = [60u32, 200, 355];
            let a = epoch.flood_census(&g, src, 6, &holders, Some(&fwd));
            let b = bits.flood_census(&g, src, 6, &holders, Some(&fwd));
            assert_eq!(a, b, "src {src}");
            assert_eq!(
                epoch.hits_in_last_flood(&holders),
                bits.hits_in_last_flood(&holders)
            );
            for v in 0..500 {
                assert_eq!(epoch.was_reached(v), bits.was_reached(v), "node {v}");
            }
        }
    }

    #[test]
    fn run_into_reuses_buffers_and_matches_run() {
        let g = crate::topology::erdos_renyi(300, 5.0, 92).graph;
        let mut e = FloodEngine::new(300);
        let mut buf = CensusBuf::default();
        let holders = [40u32, 222];
        for src in [0u32, 7, 150, 299] {
            let spec = FloodSpec::new(5);
            e.run_into(&g, src, &holders, None, &spec, &mut NoopRecorder, &mut buf);
            let (census, stats) = e.run(&g, src, &holders, None, &spec, &mut NoopRecorder);
            assert_eq!(buf.census, census, "src {src}");
            assert_eq!(buf.stats, stats, "src {src}");
        }
        // Steady state: capacities must be stable (no per-trial realloc).
        let caps = (
            buf.census.reached.capacity(),
            buf.census.messages.capacity(),
            buf.stats.capacity(),
        );
        for src in [11u32, 33, 254] {
            e.run_into(
                &g,
                src,
                &holders,
                None,
                &FloodSpec::new(5),
                &mut NoopRecorder,
                &mut buf,
            );
        }
        assert_eq!(
            caps,
            (
                buf.census.reached.capacity(),
                buf.census.messages.capacity(),
                buf.stats.capacity(),
            ),
            "steady-state trials must not grow the census buffers"
        );
    }

    #[test]
    fn epoch_wrap_keeps_floods_correct() {
        // Regression: force the epoch counter to the wrap boundary and
        // check that queries across it stay correct — a stale mark from
        // before the wrap must never read as visited.
        let g = path();
        let mut e = FloodEngine::with_repr(5, VisitedRepr::EpochMarks);
        // Populate marks at a pre-wrap epoch.
        let out = e.flood(&g, 0, 4, &[4], None);
        assert_eq!(out.reached, 5);
        match &mut e.visited {
            Visited::Epoch(m) => m.epoch = u32::MAX - 2,
            Visited::Bits(_) => unreachable!("constructed with epoch marks"),
        }
        // Also plant a stale mark equal to a *future* post-wrap epoch (1):
        // the wrap reset must clear it or node 3 would be skipped.
        match &mut e.visited {
            Visited::Epoch(m) => m.mark[3] = 1,
            Visited::Bits(_) => unreachable!(),
        }
        for i in 0..6u32 {
            let out = e.flood(&g, 0, 4, &[4], None);
            assert_eq!(out.reached, 5, "flood {i} across the epoch wrap");
            assert_eq!(out.found_at_hop, Some(4), "flood {i}");
            assert_eq!(out.messages, 7, "flood {i}");
        }
        // The counter did wrap and restart.
        match &e.visited {
            Visited::Epoch(m) => assert!(m.epoch >= 1 && m.epoch < u32::MAX - 2),
            Visited::Bits(_) => unreachable!(),
        }
    }

    #[test]
    fn mem_bytes_reflects_representation() {
        let epoch = FloodEngine::with_repr(1_000, VisitedRepr::EpochMarks);
        let bits = FloodEngine::with_repr(1_000, VisitedRepr::Bitset);
        assert_eq!(epoch.mem_bytes(), 4_000);
        assert_eq!(bits.mem_bytes(), 16 * 8); // ceil(1000/64) u64 words
    }
}

#[cfg(test)]
mod faulty_tests {
    use super::*;
    use qcp_faults::FaultConfig;

    fn er(n: usize, seed: u64) -> Graph {
        crate::topology::erdos_renyi(n, 6.0, seed).graph
    }

    #[test]
    fn none_plan_reproduces_flood_exactly() {
        let g = er(500, 1);
        let plan = FaultPlan::none(500);
        let mut a = FloodEngine::new(500);
        let mut b = FloodEngine::new(500);
        for src in [0u32, 7, 100, 499] {
            for ttl in 0..5 {
                let holders = [src / 2, src / 2 + 5, 400];
                let mut h: Vec<u32> = holders.to_vec();
                h.sort_unstable();
                h.dedup();
                let plain = a.flood(&g, src, ttl, &h, None);
                let (faulty, stats) = b.flood_faulty(&g, src, ttl, &h, None, &plan, 0, 99);
                assert_eq!(plain, faulty, "src {src} ttl {ttl}");
                assert_eq!(stats, FaultStats::default());
            }
        }
    }

    #[test]
    fn loss_reduces_reach_and_counts_drops() {
        let g = er(1_000, 2);
        let lossy = FaultPlan::build(
            1_000,
            &FaultConfig {
                loss: 0.4,
                churn: 0.0,
                ..Default::default()
            },
        );
        let mut e = FloodEngine::new(1_000);
        let clean = e.flood(&g, 3, 4, &[], None);
        let (faulty, stats) = e.flood_faulty(&g, 3, 4, &[], None, &lossy, 0, 5);
        assert!(faulty.reached < clean.reached, "loss must shrink coverage");
        assert!(stats.dropped > 0);
        assert_eq!(stats.dead_targets, 0);
        // Every message was either delivered or dropped, never retried.
        assert!(stats.dropped <= faulty.messages);
        assert_eq!(stats.retries + stats.timeouts, 0);
    }

    #[test]
    fn dead_nodes_block_and_waste_messages() {
        // Path 0-1-2: kill node 1 mid-workload; the flood cannot cross it.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let plan = FaultPlan::build(
            3,
            &FaultConfig {
                loss: 0.0,
                churn: 0.999,
                horizon: 10,
                rejoin: false,
                seed: 11,
                ..Default::default()
            },
        );
        // Find a time where node 1 is down but node 0 is up.
        let t = (0..10u64)
            .find(|&t| !plan.alive_at(1, t) && plan.alive_at(0, t))
            .expect("churn=0.999 must take node 1 down within the horizon");
        let mut e = FloodEngine::new(3);
        let (out, stats) = e.flood_faulty(&g, 0, 3, &[2], None, &plan, t, 1);
        assert!(!out.found, "flood cannot cross a dead relay");
        assert!(stats.dead_targets >= 1);
        assert_eq!(stats.dropped, 0, "loss is zero; only dead-target waste");
        assert!(stats.wasted() <= out.messages);
    }

    #[test]
    fn dead_source_sends_nothing() {
        let g = er(50, 3);
        let plan = FaultPlan::build(
            50,
            &FaultConfig {
                churn: 1.0,
                horizon: 4,
                rejoin: false,
                loss: 0.0,
                ..Default::default()
            },
        );
        let t = (0..4u64)
            .find(|&t| !plan.alive_at(0, t))
            .expect("full churn downs node 0");
        let mut e = FloodEngine::new(50);
        let (out, stats) = e.flood_faulty(&g, 0, 5, &[1], None, &plan, t, 0);
        assert!(!out.found);
        assert_eq!(out.messages, 0);
        assert_eq!(out.reached, 0);
        assert_eq!(stats, FaultStats::default());
    }

    #[test]
    fn faulty_census_prefixes_equal_standalone_faulty_floods() {
        // The load-bearing claim: fault draws key on (edge, nonce, msg
        // index), all TTL-independent, so the faulty census reconstructs
        // every shorter faulty flood bit for bit — drops, dead targets,
        // reach and message counts included.
        let g = er(500, 5);
        let plan = FaultPlan::build(
            500,
            &FaultConfig {
                loss: 0.25,
                churn: 0.3,
                horizon: 64,
                ..Default::default()
            },
        );
        let mut a = FloodEngine::new(500);
        let mut b = FloodEngine::new(500);
        for (src, time, nonce) in [(0u32, 0u64, 1u64), (13, 17, 2), (250, 40, 3), (499, 63, 4)] {
            let holders = [7u32, 123, 400];
            let (census, level_stats) =
                a.flood_census_faulty(&g, src, 6, &holders, None, &plan, time, nonce);
            assert_eq!(level_stats.len(), census.reached.len());
            for ttl in 0..=6u32 {
                let (plain, stats) =
                    b.flood_faulty(&g, src, ttl, &holders, None, &plan, time, nonce);
                assert_eq!(census.at(ttl), plain, "src {src} ttl {ttl}");
                let level = ttl.min(census.levels()) as usize;
                assert_eq!(level_stats[level], stats, "src {src} ttl {ttl} stats");
            }
        }
    }

    #[test]
    fn faulty_census_under_none_plan_matches_plain_census() {
        let g = er(300, 6);
        let plan = FaultPlan::none(300);
        let mut e = FloodEngine::new(300);
        let holders = [42u32, 250];
        let plain = e.flood_census(&g, 5, 5, &holders, None);
        let (faulty, stats) = e.flood_census_faulty(&g, 5, 5, &holders, None, &plan, 0, 9);
        assert_eq!(plain, faulty);
        assert!(stats.iter().all(|s| *s == FaultStats::default()));
    }

    #[test]
    fn faulty_census_dead_source_is_all_zero() {
        let g = er(50, 3);
        let plan = FaultPlan::build(
            50,
            &FaultConfig {
                churn: 1.0,
                horizon: 4,
                rejoin: false,
                loss: 0.0,
                ..Default::default()
            },
        );
        let t = (0..4u64)
            .find(|&t| !plan.alive_at(0, t))
            .expect("full churn downs node 0");
        let mut e = FloodEngine::new(50);
        let (census, stats) = e.flood_census_faulty(&g, 0, 5, &[1], None, &plan, t, 0);
        for ttl in 0..=5 {
            let out = census.at(ttl);
            assert!(!out.found);
            assert_eq!((out.reached, out.messages), (0, 0));
        }
        assert_eq!(stats, vec![FaultStats::default()]);
    }

    #[test]
    fn spec_dispatch_matches_every_legacy_method() {
        // The unified entry point must be bitwise the legacy calls it
        // replaces, for every cell of its dispatch table.
        let g = er(400, 7);
        let plan = FaultPlan::build(
            400,
            &FaultConfig {
                loss: 0.2,
                churn: 0.25,
                horizon: 64,
                ..Default::default()
            },
        );
        let holders = [9u32, 210, 390];
        let mut a = FloodEngine::new(400);
        let mut b = FloodEngine::new(400);
        for src in [0u32, 33, 399] {
            // plan=None, pruned=false ⇔ flood_census.
            let (census, stats) = a.run(
                &g,
                src,
                &holders,
                None,
                &FloodSpec::new(6),
                &mut NoopRecorder,
            );
            assert_eq!(census, b.flood_census(&g, src, 6, &holders, None));
            assert_eq!(stats.len(), census.reached.len());
            assert!(stats.iter().all(|s| *s == FaultStats::default()));
            // plan=None, pruned=true ⇔ flood_census_pruned.
            let (census, _) = a.run(
                &g,
                src,
                &holders,
                None,
                &FloodSpec::new(6).pruned(),
                &mut NoopRecorder,
            );
            assert_eq!(census, b.flood_census_pruned(&g, src, 6, &holders, None));
            // plan=Some, pruned=false ⇔ flood_census_faulty.
            let spec = FloodSpec::new(6).faulty(&plan, 11, src as u64);
            let (census, stats) = a.run(&g, src, &holders, None, &spec, &mut NoopRecorder);
            let (census2, stats2) =
                b.flood_census_faulty(&g, src, 6, &holders, None, &plan, 11, src as u64);
            assert_eq!((census, stats), (census2, stats2));
        }
    }

    #[test]
    fn spec_faulty_pruned_is_a_prefix_of_the_full_faulty_census() {
        let g = er(300, 8);
        let plan = FaultPlan::build(
            300,
            &FaultConfig {
                loss: 0.15,
                churn: 0.1,
                horizon: 32,
                ..Default::default()
            },
        );
        let holders = [150u32, 222];
        let mut e = FloodEngine::new(300);
        let spec = FloodSpec::new(8).faulty(&plan, 3, 4).pruned();
        let (pruned, pstats) = e.run(&g, 3, &holders, None, &spec, &mut NoopRecorder);
        let (full, fstats) = e.flood_census_faulty(&g, 3, 8, &holders, None, &plan, 3, 4);
        assert_eq!(pruned.first_hit_hop, full.first_hit_hop);
        for l in 0..pruned.reached.len() {
            assert_eq!(pruned.reached[l], full.reached[l], "level {l}");
            assert_eq!(pruned.messages[l], full.messages[l], "level {l}");
            assert_eq!(pstats[l], fstats[l], "level {l}");
        }
    }

    #[test]
    fn recording_does_not_perturb_and_totals_reconcile() {
        use qcp_obs::MetricsRecorder;
        let g = er(400, 9);
        let plan = FaultPlan::build(
            400,
            &FaultConfig {
                loss: 0.2,
                churn: 0.2,
                horizon: 64,
                ..Default::default()
            },
        );
        let holders = [40u32, 333];
        let mut e = FloodEngine::new(400);
        for spec in [
            FloodSpec::new(5),
            FloodSpec::new(5).pruned(),
            FloodSpec::new(5).faulty(&plan, 7, 1),
            FloodSpec::new(5).faulty(&plan, 7, 1).pruned(),
        ] {
            let mut metrics = MetricsRecorder::new();
            let off = e.run(&g, 2, &holders, None, &spec, &mut NoopRecorder);
            let on = e.run(&g, 2, &holders, None, &spec, &mut metrics);
            assert_eq!(off, on, "recording must not perturb the census");
            let (census, stats) = on;
            // Reconciliation: recorded totals equal the outcome's.
            assert_eq!(
                metrics.total(Kernel::Flood, Counter::Messages),
                *census.messages.last().expect("non-empty census"),
            );
            assert_eq!(metrics.hop_weight(Kernel::Flood), {
                let last = *census.messages.last().expect("non-empty");
                last - census.messages[0]
            });
            let total = stats.last().expect("non-empty stats");
            assert_eq!(metrics.fault_stats(Kernel::Flood), *total);
            assert_eq!(metrics.spans(Kernel::Flood), 1);
        }
    }

    #[test]
    fn faulty_flood_is_deterministic() {
        let g = er(300, 4);
        let plan = FaultPlan::build(
            300,
            &FaultConfig {
                loss: 0.2,
                churn: 0.3,
                horizon: 100,
                ..Default::default()
            },
        );
        let mut e = FloodEngine::new(300);
        let a = e.flood_faulty(&g, 5, 4, &[200], None, &plan, 42, 7);
        let b = e.flood_faulty(&g, 5, 4, &[200], None, &plan, 42, 7);
        assert_eq!(a, b);
        // A different nonce sees different drops.
        let c = e.flood_faulty(&g, 5, 4, &[200], None, &plan, 42, 8);
        assert!(a != c || a.0.messages == 0, "nonce must perturb drops");
    }

    #[test]
    fn faulty_run_into_matches_run_with_reused_buffer() {
        let g = er(300, 12);
        let plan = FaultPlan::build(
            300,
            &FaultConfig {
                loss: 0.2,
                churn: 0.3,
                horizon: 64,
                ..Default::default()
            },
        );
        let holders = [17u32, 290];
        let mut e = FloodEngine::new(300);
        let mut buf = CensusBuf::default();
        // Interleave faulty and fault-free specs through one buffer,
        // including a dead-source trial, to exercise every reset path.
        for (src, time) in [(0u32, 0u64), (33, 17), (150, 40), (299, 63), (12, 5)] {
            let spec = FloodSpec::new(6).faulty(&plan, time, src as u64);
            e.run_into(&g, src, &holders, None, &spec, &mut NoopRecorder, &mut buf);
            let (census, stats) = e.run(&g, src, &holders, None, &spec, &mut NoopRecorder);
            assert_eq!(buf.census, census, "src {src}");
            assert_eq!(buf.stats, stats, "src {src}");
            let clean = FloodSpec::new(6);
            e.run_into(&g, src, &holders, None, &clean, &mut NoopRecorder, &mut buf);
            let (census, stats) = e.run(&g, src, &holders, None, &clean, &mut NoopRecorder);
            assert_eq!(buf.census, census, "clean src {src}");
            assert_eq!(buf.stats, stats, "clean src {src}");
        }
    }

    #[test]
    fn bitset_faulty_census_equals_epoch_faulty_census_bitwise() {
        let g = er(400, 13);
        let plan = FaultPlan::build(
            400,
            &FaultConfig {
                loss: 0.25,
                churn: 0.2,
                horizon: 64,
                ..Default::default()
            },
        );
        let mut epoch = FloodEngine::with_repr(400, VisitedRepr::EpochMarks);
        let mut bits = FloodEngine::with_repr(400, VisitedRepr::Bitset);
        let holders = [71u32, 340];
        for (src, time, nonce) in [(0u32, 0u64, 1u64), (13, 17, 2), (399, 40, 3)] {
            let a = epoch.flood_census_faulty(&g, src, 6, &holders, None, &plan, time, nonce);
            let b = bits.flood_census_faulty(&g, src, 6, &holders, None, &plan, time, nonce);
            assert_eq!(a, b, "src {src}");
        }
    }
}
