//! `repro` — regenerate every figure and table of the paper.
//!
//! ```text
//! repro [--scale test|smoke|default|paper] [--out DIR] [--trials N] [--seed S] [--huge] ARTIFACT...
//! repro all
//! repro bench --scale smoke   # census-vs-reference perf gate + BENCH_fig8.json
//! repro scale --scale smoke   # scale ladder + scale.{csv,json} + BENCH_scale.json
//! repro list
//! ```
//!
//! The artifact set (ids, descriptions, `all` membership) comes from the
//! declarative registry in `qcp_bench::ARTIFACTS`; `repro list` prints it.
//! `bench` and `scale` are registered but opt out of `all`. `--trials`
//! takes a positive count; anything else prints the usage message.

#![forbid(unsafe_code)]

use qcp_bench::{Repro, Scale, ARTIFACTS};
use std::num::NonZeroUsize;

fn usage() -> ! {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    eprintln!(
        "usage: repro [--scale test|smoke|default|paper] [--out DIR] [--trials N] [--seed S] [--huge] <artifact>...\n\
         artifacts: {} | all | list",
        names.join(" | ")
    );
    std::process::exit(2);
}

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Cli {
    scale: Scale,
    out_dir: String,
    /// Trials per curve; zero would leave every sweep point undefined.
    trials: Option<NonZeroUsize>,
    seed: Option<u64>,
    huge: bool,
    artifacts: Vec<String>,
}

/// Parses the arguments after the program name. `None` means print the
/// usage message: `--help`, an unknown scale, a missing or malformed
/// value (`--trials 0` included), or no artifact.
fn parse(args: impl IntoIterator<Item = String>) -> Option<Cli> {
    let mut args = args.into_iter();
    let mut cli = Cli {
        scale: Scale::Default,
        out_dir: "results".to_string(),
        trials: None,
        seed: None,
        huge: false,
        artifacts: Vec::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => cli.scale = Scale::parse(&args.next()?)?,
            "--out" => cli.out_dir = args.next()?,
            "--trials" => cli.trials = Some(args.next()?.parse().ok()?),
            "--seed" => cli.seed = Some(args.next()?.parse().ok()?),
            "--huge" => cli.huge = true,
            "--help" | "-h" => return None,
            other => cli.artifacts.push(other.to_string()),
        }
    }
    (!cli.artifacts.is_empty()).then_some(cli)
}

fn main() {
    let Cli {
        scale,
        out_dir,
        trials,
        seed,
        huge,
        mut artifacts,
    } = parse(std::env::args().skip(1)).unwrap_or_else(|| usage());
    if artifacts.iter().any(|a| a == "list") {
        let width = ARTIFACTS.iter().map(|a| a.name.len()).max().unwrap_or(0);
        for a in ARTIFACTS {
            let tag = if a.in_all { "" } else { "  [not in `all`]" };
            println!("{:width$}  {}{tag}", a.name, a.description);
        }
        return;
    }
    if artifacts.iter().any(|a| a == "all") {
        artifacts = Repro::all_artifacts()
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    let mut session = Repro::new(&out_dir, scale);
    if let Some(t) = trials {
        session.trials = t.get();
    }
    if let Some(s) = seed {
        session.seed = s;
    }
    session.huge = huge;

    eprintln!(
        "repro: scale={scale:?}, trials={}, seed={}, out={}",
        session.trials,
        session.seed,
        session.out_dir.display()
    );
    for artifact in &artifacts {
        // qcplint: allow(nondet) — reported wall-clock per artifact; never
        // feeds back into simulation results.
        let started = std::time::Instant::now();
        let report = session.run(artifact);
        println!(
            "\n##### {artifact} ({:.1}s) #####",
            started.elapsed().as_secs_f64()
        );
        println!("{report}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Option<Cli> {
        parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn zero_trials_is_a_usage_error() {
        assert_eq!(cli(&["--trials", "0", "fig8"]), None);
        assert_eq!(cli(&["fig8", "--trials", "0"]), None);
    }

    #[test]
    fn malformed_values_are_usage_errors() {
        for args in [
            &["--trials", "-3", "fig8"][..],
            &["--trials", "many", "fig8"],
            &["fig8", "--trials"],
            &["--seed", "x", "fig8"],
            &["--scale", "huge", "fig8"],
            &["--trials", "5"],
            &["--help", "fig8"],
        ] {
            assert_eq!(cli(args), None, "{args:?}");
        }
    }

    #[test]
    fn well_formed_arguments_parse() {
        let parsed = cli(&[
            "--scale", "smoke", "--trials", "7", "--seed", "9", "--out", "o", "--huge", "fig8",
            "scale",
        ])
        .expect("well-formed arguments");
        assert_eq!(parsed.scale, Scale::Test);
        assert_eq!(parsed.trials.map(NonZeroUsize::get), Some(7));
        assert_eq!(parsed.seed, Some(9));
        assert_eq!(parsed.out_dir, "o");
        assert!(parsed.huge);
        assert_eq!(parsed.artifacts, ["fig8", "scale"]);
        let defaults = cli(&["fig8"]).expect("one artifact");
        assert_eq!(
            (defaults.scale, defaults.trials, defaults.seed),
            (Scale::Default, None, None)
        );
    }
}
