//! `flashsim-bench` — the experiment harness: the `figures` binary
//! regenerates every table and figure of the paper, the others are
//! observability tools (divergence diffing, simulator-speed timing, …).
//!
//! Every binary accepts `--full` to run at the paper's Table-1/Table-2
//! sizes instead of the default proportionally scaled configuration (see
//! DESIGN.md §1 and EXPERIMENTS.md); `figures` prints the regenerated
//! table/figure next to the paper's published values where the paper
//! gives them. All of them read their command line through [`Args`].
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `figures NAME` | `table1` (hardware configuration), `table2` (problem sizes), `table3` (snbench latencies, calibration loop), `fig1`..`fig7`, `ablate_latency` (the §3.1.3 instruction-latency experiment), `trends` (the §3.4 accuracy/trend summary), or `all` |
//! | `diag` | per-run statistics for one app on hardware, SimOS-Mipsy and Solo-Mipsy |
//! | `diverge` | flight-recorder divergence diff: hardware vs a simulator |
//! | `simspeed` | simulator throughput (events/sec, simulated MIPS) |
//! | `chaos` | fault-injection survival matrix (seeded fault plans × platforms) |
//! | `profile` | cycle-accounting breakdown + per-class error attribution vs hardware |
//! | `report` | unified run report: manifest + accounting + sim-time telemetry (text/HTML/JSONL/Prometheus) |
//! | `spans` | span diff: the same sampled transaction traced causally on FlashLite vs NUMA |
//! | `watch` | multi-run stream supervisor: live matrix dashboard over `flashsim-stream-v1` files, Prometheus textfile export, strict stream validation |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod streamview;

use flashsim_core::platform::{MemModel, Sim, Study};
use flashsim_workloads::ProblemScale;
use std::str::FromStr;

/// Reports a command-line mistake on stderr and exits with status 2.
pub fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// One tool's command line: flags that take a value (`--nodes 4`),
/// switches (`--full`), and positional tokens.
#[derive(Debug, Clone)]
pub struct Args {
    args: Vec<String>,
    value_flags: &'static [&'static str],
}

impl Args {
    /// The process's own arguments. `value_flags` names the flags whose
    /// next token is their value — what tells a value from a positional.
    pub fn parse(value_flags: &'static [&'static str]) -> Args {
        Args::new(std::env::args().skip(1).collect(), value_flags)
    }

    /// [`Args::parse`] over an explicit argument list.
    pub fn new(args: Vec<String>, value_flags: &'static [&'static str]) -> Args {
        Args { args, value_flags }
    }

    /// The token after `flag`, if `flag` was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let at = self.args.iter().position(|a| a == flag)?;
        self.args.get(at + 1).map(String::as_str)
    }

    /// [`Args::value`] parsed as a number; a value that does not parse
    /// is reported as `--flag takes a number` and exits with status 2.
    pub fn get<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|text| {
            text.parse()
                .unwrap_or_else(|_| fail(&format!("{flag} takes a number")))
        })
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The tokens that are neither a flag nor a value flag's value.
    pub fn positionals(&self) -> impl Iterator<Item = &str> {
        let mut is_value = false;
        self.args.iter().map(String::as_str).filter(move |a| {
            let skip = is_value;
            is_value = !skip && self.value_flags.contains(a);
            !skip && !a.starts_with("--")
        })
    }

    /// The first positional token.
    pub fn positional(&self) -> Option<&str> {
        self.positionals().next()
    }

    /// The setup every tool shares: `--full` selects the paper-size
    /// machine and problems (slow); the default is the proportionally
    /// scaled setup.
    pub fn setup(&self) -> Setup {
        if self.has("--full") {
            Setup {
                study: Study::full(),
                scale: ProblemScale::Full,
            }
        } else {
            Setup {
                study: Study::scaled(),
                scale: ProblemScale::Scaled,
            }
        }
    }
}

/// The simulated platform a tool compares against hardware, from its
/// `[SIM] [--mem flashlite|numa] [--nodes N]` arguments: `SIM` is
/// `simos-mipsy` (default), `solo-mipsy` or `simos-mxs`; 4 nodes unless
/// given. Anything else is reported and exits with status 2.
pub fn platform_from_args(args: &Args) -> (Sim, MemModel, u32) {
    let sim = match args.positional() {
        None | Some("simos-mipsy") => Sim::SimosMipsy(150),
        Some("solo-mipsy") => Sim::SoloMipsy(150),
        Some("simos-mxs") => Sim::SimosMxs,
        Some(other) => fail(&format!(
            "unknown simulator {other} (simos-mipsy|solo-mipsy|simos-mxs)"
        )),
    };
    let mem = match args.value("--mem") {
        None | Some("flashlite") => MemModel::FlashLite,
        Some("numa") => MemModel::Numa,
        Some(other) => fail(&format!("unknown memory model {other} (flashlite|numa)")),
    };
    (sim, mem, args.get("--nodes").unwrap_or(4))
}

/// The experiment setup selected by command-line flags.
#[derive(Debug, Clone)]
pub struct Setup {
    /// The machine geometry study.
    pub study: Study,
    /// The problem-size class matching the geometry.
    pub scale: ProblemScale,
}

/// Prints the standard experiment header.
pub fn header(what: &str, setup: &Setup) {
    println!("== flashsim :: {what} ==");
    println!(
        "geometry: {} (use --full for the paper-size machine)",
        match setup.scale {
            ProblemScale::Full => "full Table-1 FLASH",
            ProblemScale::Scaled => "1/8-scale (default)",
            ProblemScale::Tiny => "tiny (tests only)",
        }
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_split_value_flags_switches_and_positionals() {
        let line = [
            "--nodes",
            "2",
            "simos-mxs",
            "--full",
            "--mem",
            "numa",
            "extra",
        ];
        let args = Args::new(
            line.iter().map(|s| (*s).to_owned()).collect(),
            &["--nodes", "--mem"],
        );
        assert_eq!(args.value("--mem"), Some("numa"));
        assert_eq!(args.get::<u32>("--nodes"), Some(2));
        assert_eq!(args.get::<u32>("--iters"), None);
        assert!(args.has("--full") && !args.has("--phases"));
        assert_eq!(
            args.positionals().collect::<Vec<_>>(),
            ["simos-mxs", "extra"]
        );
        let (sim, mem, nodes) = platform_from_args(&args);
        assert_eq!((sim, mem, nodes), (Sim::SimosMxs, MemModel::Numa, 2));
    }

    #[test]
    fn default_setup_is_scaled() {
        let s = Args::new(Vec::new(), &[]).setup();
        assert_eq!(s.scale, ProblemScale::Scaled);
        assert_eq!(s.study.geometry.tlb_entries, 16);
    }
}
