//! `tilestore-benchmark`: the repo's one benchmark. See `README.md`.

mod estimate;
mod gen;
mod layers;
mod report;
mod run;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use gen::{Spec, WORKLOADS};
use run::Options;

const USAGE: &str =
    "usage: run.sh --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--quick]";

/// Where reports and traces go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workloads: Vec<&'static Spec>,
    opt: Options,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut specs = Vec::new();
    let mut opt = Options {
        seed: 1,
        trace: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            opt.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => specs.extend(WORKLOADS.iter()),
            "--workload" => {
                specs.push(Spec::by_name(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => opt.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            // The driver states how long a run measures. Rounds are fixed
            // by count (`Spec::rounds_per_pass`), sized to `run_seconds` of
            // `BENCHMARK.json`, so the value only has to be a number.
            "--seconds" => {
                value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opt.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if specs.is_empty() {
        return Err("no workload named".to_string());
    }
    Ok(Args {
        workloads: specs,
        opt,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let mut failed = 0;
    for spec in args.workloads {
        let report = match run::run(spec, &args.opt) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: set-up failed: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        };
        println!(
            "{}: seed {} rounds {} ops/round {} attempted {} failed {}",
            report.workload,
            report.seed,
            report.rounds,
            report.ops_per_round,
            report.ops_attempted,
            report.ops_failed
        );
        for m in report.e2e.iter().chain(&report.layers) {
            let tag = if m.modelled { " (modelled)" } else { "" };
            println!(
                "  {:<36} {:>16.4} {}{tag}  n={}",
                m.name, m.value, m.unit, m.n
            );
        }
        let path = out.join(format!("{}.json", report.workload));
        if let Err(e) = std::fs::write(&path, report.to_json().to_string_pretty() + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        failed += report.ops_failed;
        println!("{}", report.result_line(args.opt.trace));
    }
    if failed > 0 {
        eprintln!("{failed} ops failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilestore_testkit::Json;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_command_line_parses() {
        let a = args(&[
            "--workload",
            "served_window",
            "--seed",
            "9",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workloads[0].name, a.opt.seed, a.opt.trace, a.opt.quick),
            ("served_window", 9, false, false)
        );
        let a = args(&["--workload", "all", "--trace", "1", "--quick"]).unwrap();
        assert_eq!(a.workloads.len(), WORKLOADS.len());
        assert!(a.opt.trace && a.opt.quick);
        assert!(args(&["--workload", "no_such_workload"]).is_err());
        assert!(args(&["--trace", "yes", "--workload", "all"]).is_err());
        assert!(args(&["--seconds", "soon", "--workload", "all"]).is_err());
        assert!(args(&["served_window"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&[]).is_err());
    }

    /// `BENCHMARK.json` is the contract the driver checks the output
    /// against: its workloads, metrics, units and directions must be the
    /// ones this binary produces.
    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let list = |k: &str| doc.get(k).and_then(Json::as_array).unwrap().to_vec();

        let declared: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let built: Vec<(String, String)> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, built);

        let better = |b: estimate::Better| match b {
            estimate::Better::Lower => "lower",
            estimate::Better::Higher => "higher",
        };
        let triple = |m: &Json| (field(m, "name"), field(m, "unit"), field(m, "better"));
        let declared: Vec<_> = list("per_layer").iter().map(triple).collect();
        let built: Vec<_> = layers::LAYER_METRICS
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), better(b).to_string()))
            .collect();
        assert_eq!(declared, built);

        let declared: Vec<_> = list("end_to_end").iter().map(triple).collect();
        let built: Vec<_> = run::E2E_METRICS
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), better(b).to_string()))
            .collect();
        assert_eq!(declared, built);
    }
}
