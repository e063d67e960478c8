//! `trace-analysis`: the measurement half of the paper.
//!
//! Set-up generates the default-scale synthetic traces (vocabulary, a
//! ~200k-file crawl, the iTunes shares, a 500k-query trace); the timed
//! phase is `QueryCentricAnalyzer::analyze` over them. The traced run
//! splits analyze into its stages by calling the same `qcp-analysis`
//! entry points, in the same order, and checks that the split reaches
//! the same findings.

use crate::harness::{
    median, report_passes, run_passes, timed, Digest, Expected, Pins, Report, Tracer,
};
use crate::WORLD_SEED;
use qcp_core::analysis::{
    mismatch, stability, transient, AnnotationAnalysis, CrawlSummary, IntervalIndex, QuerySummary,
    ReplicationAnalysis, TermReplicationAnalysis,
};
use qcp_core::terms::TermDict;
use qcp_core::tracegen::{Crawl, ItunesTrace, QueryTrace, Vocabulary};
use qcp_core::{AnalyzerConfig, QueryCentricAnalyzer};

/// Times the traces are generated, for the set-up median.
const SETUP_REPS: usize = 5;

/// The generated traces.
struct Traces {
    crawl: Crawl,
    itunes: ItunesTrace,
    queries: QueryTrace,
}

impl Traces {
    /// Trace records analyze consumes: crawl files, songs and queries.
    fn records(&self) -> u64 {
        (self.crawl.files.len() + self.itunes.total_songs() + self.queries.queries.len()) as u64
    }
}

fn generate(config: &AnalyzerConfig, tr: &mut Tracer) -> Traces {
    let vocab = tr.span("tracegen.vocab", |_| Vocabulary::generate(&config.vocab));
    let crawl = tr.span("tracegen.crawl", |_| Crawl::generate(&vocab, &config.crawl));
    let itunes = tr.span("tracegen.itunes", |_| {
        ItunesTrace::generate(&vocab, &config.itunes)
    });
    let queries = tr.span("tracegen.queries", |_| {
        QueryTrace::generate(&vocab, &config.queries)
    });
    Traces {
        crawl,
        itunes,
        queries,
    }
}

fn digest_summaries(crawl: &CrawlSummary, query: &QuerySummary) -> Digest {
    let mut d = Digest::default();
    for x in [
        u64::from(crawl.num_peers),
        crawl.total_copies as u64,
        crawl.unique_objects_raw as u64,
        crawl.unique_objects_sanitized as u64,
        crawl.unique_terms as u64,
        query.total_queries,
        u64::from(query.duration_secs),
        u64::from(query.interval_secs),
    ] {
        d.u64(x);
    }
    for x in [
        crawl.singleton_fraction_raw,
        crawl.singleton_fraction_sanitized,
        crawl.below_tenth_percent_raw,
        crawl.below_tenth_percent_sanitized,
        crawl.at_least_20_peers,
        crawl.above_tenth_percent,
        crawl.at_most_37_peers,
        crawl.term_singleton_fraction,
        crawl.term_below_tenth_percent,
        crawl.replica_tail_exponent,
        crawl.mean_replicas,
        query.stability_after_warmup,
        query.mean_popular_mismatch,
        query.max_popular_mismatch,
        query.mean_transients,
        query.transient_variance,
    ] {
        d.f64(x);
    }
    d
}

fn analyze(config: &AnalyzerConfig, t: &Traces) -> Digest {
    let f = QueryCentricAnalyzer::new(config.clone()).analyze(&t.crawl, &t.itunes, &t.queries);
    digest_summaries(&f.crawl, &f.query)
}

/// `QueryCentricAnalyzer::analyze`, stage by stage: the same entry
/// points in the same order (the shared term dictionary makes the order
/// part of the result), each wrapped in its layer's span.
fn analyze_split(config: &AnalyzerConfig, t: &Traces, tr: &mut Tracer) -> Digest {
    let crawl = &t.crawl;
    let records = || crawl.files.iter().map(|f| (f.peer, f.name.as_str()));
    let (fig1, fig2, fig3) = tr.span("analysis.replication", |_| {
        (
            ReplicationAnalysis::from_names(crawl.num_peers, records()),
            ReplicationAnalysis::from_sanitized_names(crawl.num_peers, records()),
            TermReplicationAnalysis::from_names(records()),
        )
    });
    tr.span("analysis.annotation", |_| {
        let shares = &t.itunes.shares;
        let field = |name: &str, pick: fn(&qcp_core::tracegen::SongRecord) -> &str| {
            AnnotationAnalysis::from_records(
                name,
                shares
                    .iter()
                    .flat_map(move |s| s.songs.iter().map(move |r| (s.client, pick(r)))),
            )
        };
        (
            field("song", |r| r.name.as_str()),
            field("genre", |r| r.genre.as_str()),
            field("album", |r| r.album.as_str()),
            field("artist", |r| r.artist.as_str()),
        )
    });
    let mut dict = TermDict::new();
    let popular_files = tr.span("analysis.stability_mismatch", |_| {
        mismatch::popular_file_terms(records(), config.popularity, &mut dict)
    });
    let q = &t.queries;
    let query_records = || q.queries.iter().map(|r| (r.time, r.text.as_str()));
    let mut fig5 = Vec::new();
    for &interval in &config.fig5_intervals {
        let idx = tr.span("analysis.intervals", |_| {
            IntervalIndex::build(query_records(), q.duration_secs, interval, &mut dict)
        });
        fig5.push(tr.span("analysis.transient", |_| {
            transient::detect_transients(&idx, &config.transient)
        }));
    }
    let headline = tr.span("analysis.intervals", |_| {
        IntervalIndex::build(
            query_records(),
            q.duration_secs,
            config.headline_interval,
            &mut dict,
        )
    });
    tr.span("analysis.stability_mismatch", |_| {
        let fig6 = stability::popular_stability(&headline, config.popularity);
        let fig7 = mismatch::query_file_mismatch(&headline, &popular_files, config.popularity);
        let crawl_summary = CrawlSummary::build(&fig1, &fig2, &fig3);
        let warmup = (fig6.jaccards.len() / 10).max(3);
        let last = fig5.last();
        let query = QuerySummary {
            total_queries: headline.total_queries(),
            duration_secs: q.duration_secs,
            interval_secs: config.headline_interval,
            stability_after_warmup: fig6.mean_after_warmup(warmup),
            mean_popular_mismatch: fig7.mean_popular_similarity(),
            max_popular_mismatch: fig7.max_popular_similarity(),
            mean_transients: last.map(|s| s.mean()).unwrap_or(0.0),
            transient_variance: last.map(|s| s.variance()).unwrap_or(0.0),
        };
        digest_summaries(&crawl_summary, &query)
    })
}

/// The analyzer configuration. The vocabulary (the term universe and
/// its two rankings) is the benchmark's fixed dataset, built from
/// [`WORLD_SEED`]; `seed` draws the crawl, the iTunes shares and the
/// query trace.
fn config(full: bool, seed: u64) -> AnalyzerConfig {
    let base = if full {
        AnalyzerConfig::default_scale()
    } else {
        AnalyzerConfig::test_scale()
    };
    let vocab_seed = base.clone().with_seed(WORLD_SEED).vocab.seed;
    let mut c = base.with_seed(seed);
    c.vocab.seed = vocab_seed;
    c
}

/// One analyze call at full or smoke (test) scale and `seed`: the
/// findings digest and the records analyzed.
pub fn digest(full: bool, seed: u64) -> (Digest, u64) {
    let c = config(full, seed);
    let t = generate(&c, &mut Tracer::new(false));
    (analyze(&c, &t), t.records())
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer, pins: &Pins, rep: &mut Report) {
    let traced = tr.enabled();

    let c = config(true, seed);
    let mut setup = Vec::new();
    let mut traces = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous traces first so peak RSS holds one copy.
        drop(traces.take());
        let (t, s) = timed(|| generate(&c, tr));
        setup.push(s);
        traces = Some(t);
    }
    let t = traces.expect("SETUP_REPS >= 1");
    let records = t.records();

    let mut expected = Expected::new(pins, crate::TRACES, seed);
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let pass_s = run_passes(seconds, if traced { 2 } else { 1 }, |i| {
        let split = traced && i % 2 == 1;
        let (d, s) = if split {
            timed(|| analyze_split(&c, &t, tr))
        } else {
            timed(|| analyze(&c, &t))
        };
        rep.check(records, expected.matches(d), || expected.mismatch(d));
        if split {
            traced_s.push(s);
        } else {
            untraced_s.push(s);
        }
        s
    });

    // One latency sample per pass: the analyze call's wall over its
    // records, so p50 and p99 read alike.
    let per_record_us: Vec<(f64, f64)> = pass_s
        .iter()
        .map(|s| s / records as f64 * 1e6)
        .map(|us| (us, us))
        .collect();
    report_passes(rep, &mut setup, &pass_s, records, &per_record_us);
    rep.note(
        "op",
        "one trace record (crawl file, song or query); op latency = analyze wall / records",
    );
    rep.note("op_samples", "1 analyze call per pass");
    rep.note(
        "passes",
        format!("{} analyze calls of {records} records", pass_s.len()),
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
    let reps = SETUP_REPS as f64;
    let mut gen_s = 0.0;
    for (name, metric) in [
        ("tracegen.vocab", "tracegen.vocab_s"),
        ("tracegen.crawl", "tracegen.crawl_s"),
        ("tracegen.itunes", "tracegen.itunes_s"),
        ("tracegen.queries", "tracegen.queries_s"),
    ] {
        let s = tr.total(name) / reps;
        gen_s += s;
        rep.layer(metric, s, "s");
    }
    rep.layer("tracegen.records_per_s", records as f64 / gen_s, "1/s");
    let splits = traced_s.len() as f64;
    for stage in [
        "replication",
        "annotation",
        "intervals",
        "transient",
        "stability_mismatch",
    ] {
        let name = format!("analysis.{stage}");
        let s = tr.total(&name) / splits;
        rep.layer(format!("{name}_s"), s, "s");
    }
}
