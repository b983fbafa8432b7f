//! `flashsim-benchmark` — the repo benchmark.
//!
//! Drives the simulator through public functions only (`Study`,
//! `calibrate`, `Machine::new`/`run`, and each layer crate's public
//! types). `benchmark/README.md` says why each workload exists and how
//! the metrics interact; `--list` prints the metric registry.
//!
//! ```text
//! flashsim-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! flashsim-benchmark --list | --benchmark-json | --compare SET_A SET_B
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cells;
mod check;
mod compare;
mod drives;
mod registry;
mod report;
mod run;
mod spans;
mod storm;
mod traced;

use registry::Workload;
use std::process::ExitCode;

const USAGE: &str =
    "usage: flashsim-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       flashsim-benchmark --list | --benchmark-json | --compare SET_A SET_B";

/// What the command line asked for.
enum Command {
    List,
    BenchmarkJson,
    Compare(String, String),
    Run {
        workload: Workload,
        seed: u64,
        seconds: u32,
        trace: bool,
    },
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = registry::RUN_SECONDS;
    let mut trace = false;
    let mut words = args.iter();
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => return Ok(Command::List),
            "--benchmark-json" => return Ok(Command::BenchmarkJson),
            "--compare" => return Ok(Command::Compare(value()?.clone(), value()?.clone())),
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = number(flag, value()?)?,
            "--seconds" => seconds = number(flag, value()?)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} takes a whole number, got {text}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(command) => command,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::List => {
            print!("{}", registry::list());
            ExitCode::SUCCESS
        }
        Command::BenchmarkJson => {
            print!("{}", registry::benchmark_json());
            ExitCode::SUCCESS
        }
        Command::Compare(a, b) => compare::run(&a, &b),
        Command::Run {
            workload,
            seed,
            seconds,
            trace,
        } => {
            let report = if trace {
                traced::traced(workload, seed, seconds)
            } else {
                run::untraced(workload, seed, seconds)
            };
            report.print();
            ExitCode::from(report.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let cmd = parse(&words(
            "--workload share-storm --seed 7 --seconds 12 --trace 1",
        ));
        match cmd {
            Ok(Command::Run {
                workload,
                seed,
                seconds,
                trace,
            }) => {
                assert_eq!(workload, Workload::ShareStorm);
                assert_eq!((seed, seconds, trace), (7, 12, true));
            }
            _ => panic!("did not parse as a run"),
        }
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "",
            "--workload nope",
            "--workload uni-compute --seed x",
            "--workload uni-compute --trace 2",
            "--workload uni-compute --seconds",
            "--frobnicate",
        ] {
            assert!(parse(&words(line)).is_err(), "{line:?}");
        }
    }
}
