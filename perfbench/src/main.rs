//! The repository benchmark: four closed-loop workloads over the qcp2p
//! crates, each checked against pinned outputs before any time is
//! reported. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig8-census --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- pin 1 2 3
//! ```
//!
//! The last line of standard output is the result object; the lines
//! before it record the host, the checks and (traced runs) the spans.

mod census;
mod harness;
mod search;
mod traces;

use harness::{json_num, json_str, Args, Digest, Pins, Report, Tier, Tracer, Usage};
use qcp_core::xpar::Pool;
use std::collections::HashSet;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Workload names.
pub const CENSUS: &str = "fig8-census";
/// See [`CENSUS`].
pub const SEARCH: &str = "search-mix";
/// See [`CENSUS`].
pub const EVENT: &str = "event-overload";
/// See [`CENSUS`].
pub const TRACES: &str = "trace-analysis";
/// Every workload, in report order.
pub const WORKLOADS: [&str; 4] = [CENSUS, SEARCH, EVENT, TRACES];

/// Seed of the smoke-size canary every run checks against its pin.
pub const PIN_SEED: u64 = 2024;
/// Seed of each workload's fixed dataset (overlay, placements, search
/// world, vocabulary). The workload seed draws the queries and trials
/// run against it, so run-to-run spread measures the program and the
/// host, not how costly one random world happens to be.
pub const WORLD_SEED: u64 = 2024;

/// End-to-end metrics, printed by the untraced run.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by the traced run. Every workload prints
/// every one; a layer the workload never calls reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("trace.overhead_frac", "ratio"),
        ("obs.recorder_overhead_frac", "ratio"),
        ("overlay.topology.build_s", "s"),
        ("overlay.placement.generate_s", "s"),
        ("overlay.replicate.apply_s", "s"),
        ("overlay.census.sweep_s", "s"),
        ("overlay.census.faulty_sweep_s", "s"),
        ("overlay.census.trials_per_s", "1/s"),
        ("overlay.census.msgs", "count"),
        ("overlay.census.reached", "count"),
        ("xpar.compute_threads", "count"),
        ("xpar.cpu_util", "ratio"),
        ("faults.plan.build_s", "s"),
        ("search.world.generate_s", "s"),
        ("search.spec.build_s", "s"),
        ("sketch.synopsis.build_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for sys in search::mix_system_names() {
        v.push((format!("search.{sys}.query_p50_us"), "us"));
        v.push((format!("search.{sys}.query_p99_us"), "us"));
        v.push((format!("search.{sys}.msgs_per_query"), "count"));
        v.push((format!("search.{sys}.success_rate"), "ratio"));
    }
    for (n, u) in [
        ("dht.lookup_query_us", "us"),
        ("dht.maint_query_us", "us"),
        ("dht.maintenance_msgs", "count"),
        ("overlay.event.query_p50_us", "us"),
        ("overlay.event.query_p99_us", "us"),
        ("overlay.overload.query_p50_us", "us"),
        ("overlay.overload.query_p99_us", "us"),
        ("overlay.overload.enqueued", "count"),
        ("overlay.overload.served", "count"),
        ("overlay.overload.shed", "count"),
        ("overlay.overload.served_frac", "ratio"),
        ("vtime.msgs_per_s", "1/s"),
        ("tracegen.vocab_s", "s"),
        ("tracegen.crawl_s", "s"),
        ("tracegen.itunes_s", "s"),
        ("tracegen.queries_s", "s"),
        ("tracegen.records_per_s", "1/s"),
        ("analysis.replication_s", "s"),
        ("analysis.annotation_s", "s"),
        ("analysis.intervals_s", "s"),
        ("analysis.transient_s", "s"),
        ("analysis.stability_mismatch_s", "s"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// Compute threads that actually run a `pool` batch: the distinct
/// threads seen executing 256 short busy tasks (workers plus the
/// participating caller).
pub fn compute_threads(pool: &Pool) -> usize {
    let ids = pool.par_map_indexed(256, |_| {
        let t = Instant::now();
        while t.elapsed() < Duration::from_micros(50) {
            std::hint::spin_loop();
        }
        std::thread::current().id()
    });
    ids.into_iter().collect::<HashSet<_>>().len()
}

/// The host and width record printed with every result.
fn host_line(workload: &str) -> String {
    let pool = Pool::new(1);
    let width = compute_threads(&pool);
    let workload_threads = if workload == CENSUS { width } else { 1 };
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"census_pool_arg\": 1, \"census_pool_workers\": {}, \
         \"census_compute_threads\": {width}, \"serial_path\": {}, \"workload_compute_threads\": {workload_threads}}}",
        harness::nproc(),
        json_str(&harness::cpu_model()),
        pool.threads(),
        width == 1,
    )
}

/// One pass of `workload` at full or smoke size and `seed`: its output
/// digest and op count.
fn pass_digest(workload: &str, full: bool, seed: u64) -> (Digest, u64) {
    match workload {
        CENSUS => census::digest(full, seed),
        SEARCH => search::digest(search::Mix::Search, full, seed),
        EVENT => search::digest(search::Mix::Event, full, seed),
        _ => traces::digest(full, seed),
    }
}

/// Runs one workload; returns its report.
fn run_workload(args: &Args, pins: &Pins, tr: &mut Tracer) -> Report {
    let mut rep = Report::new();
    // Canary: the smoke size at the pin seed must reproduce its pin.
    let (got, ops) = pass_digest(&args.workload, false, PIN_SEED);
    let want = pins.get(&args.workload, "smoke", PIN_SEED);
    rep.check(ops, want == Some(got.hex().as_str()), || {
        format!("canary digest {}, pinned {want:?}", got.hex())
    });
    let u0 = Usage::now();
    let t0 = Instant::now();
    let (seed, secs) = (args.seed, args.seconds);
    match args.workload.as_str() {
        CENSUS => census::run(seed, secs, tr, pins, &mut rep),
        SEARCH => search::run(search::Mix::Search, seed, secs, tr, pins, &mut rep),
        EVENT => search::run(search::Mix::Event, seed, secs, tr, pins, &mut rep),
        TRACES => traces::run(seed, secs, tr, pins, &mut rep),
        other => unreachable!("workload {other} was validated"),
    }
    let u1 = Usage::now();
    rep.e2e("peak_rss_mib", u1.max_rss_kib as f64 / 1024.0, "MiB");
    if args.workload != CENSUS {
        // Serial workloads: one compute thread; utilisation over the run.
        let wall = t0.elapsed().as_secs_f64();
        rep.layer("xpar.compute_threads", 1.0, "count");
        rep.layer(
            "xpar.cpu_util",
            (u1.cpu_s - u0.cpu_s) / (wall * harness::nproc() as f64),
            "ratio",
        );
    }
    rep
}

/// Checks the report carries exactly the declared metrics of `tier`
/// (per-layer ones a workload does not measure read 0).
fn complete(rep: &mut Report, tier: Tier) {
    let declared: Vec<(String, &str)> = match tier {
        Tier::EndToEnd => END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect(),
        Tier::PerLayer => per_layer(),
    };
    let have: Vec<(String, &str)> = rep
        .metrics(tier)
        .map(|(n, _, u)| (n.to_string(), u))
        .collect();
    for (n, u) in &have {
        assert!(
            declared.iter().any(|(dn, du)| dn == n && du == u),
            "undeclared metric {n} [{u}]"
        );
    }
    for (n, u) in declared {
        if !have.iter().any(|(hn, _)| *hn == n) {
            assert!(tier == Tier::PerLayer, "end-to-end metric {n} missing");
            rep.layer(n, 0.0, u);
        }
    }
}

/// Prints the human-readable lines and returns the result line.
fn finish(args: &Args, mut rep: Report, tr: &Tracer) -> String {
    let tier = if args.trace {
        Tier::PerLayer
    } else {
        Tier::EndToEnd
    };
    complete(&mut rep, tier);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host_line(&args.workload));
    for (k, v) in &rep.notes {
        println!("  {k}: {v}");
    }
    for f in &rep.failures {
        println!("  CHECK FAILED: {f}");
    }
    for (name, value, unit) in rep.metrics(tier) {
        println!("  {name:<36} {:>16} {unit}", json_num(value));
    }
    if args.trace {
        println!(
            "  spans: {} recorded; per name: count, total s, self s",
            tr.len()
        );
        for (name, count, total, own) in tr.summary() {
            println!("    {name:<34} {count:>8} {total:>12.6} {own:>12.6}");
        }
        if let Err(e) = write_spans(args, tr) {
            println!("  spans not written: {e}");
        }
    }
    rep.result_json(tier)
}

/// Writes the traced run's spans as JSON lines under `.bench_out/`.
fn write_spans(args: &Args, tr: &Tracer) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/spans-{}-{}.jsonl", args.workload, args.seed);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tr.write_jsonl(&mut out)?;
    out.flush()?;
    println!("  spans written to {path}");
    Ok(())
}

/// `pin <seed>...`: prints the pin lines for the smoke canaries and for
/// the full size at each given seed.
fn pin(seeds: &[String]) -> Result<(), String> {
    let mut rows: Vec<_> = WORKLOADS.iter().map(|&w| (w, "smoke", PIN_SEED)).collect();
    for s in seeds {
        let seed: u64 = s.parse().map_err(|e| format!("seed {s}: {e}"))?;
        for w in WORKLOADS {
            rows.push((w, "full", seed));
        }
    }
    for (w, size, seed) in rows {
        println!(
            "{w} {size} {seed} {}",
            pass_digest(w, size == "full", seed).0.hex()
        );
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("pin") {
        if let Err(e) = pin(&argv[1..]) {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match Args::parse(&argv) {
        Ok(a) if a.workload == "all" || WORKLOADS.contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!(
                "perfbench: unknown workload {} (one of {}, or all)",
                a.workload,
                WORKLOADS.join(", ")
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let pins = Pins::load();
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut ok = true;
    let mut last = String::new();
    for name in names {
        let one = Args {
            workload: name.to_string(),
            ..args.clone()
        };
        let mut tr = Tracer::new(one.trace);
        let rep = run_workload(&one, &pins, &mut tr);
        ok &= rep.failed == 0 && rep.failures.is_empty();
        last = finish(&one, rep, &tr);
        if args.workload == "all" {
            println!("result {name} {last}");
        }
    }
    if args.workload == "all" {
        println!(
            "all workloads {}",
            if ok { "correct" } else { "FAILED a check" }
        );
    } else {
        println!("{last}");
    }
    if !ok {
        std::process::exit(1);
    }
}
