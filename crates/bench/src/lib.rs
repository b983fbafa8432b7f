//! `flashsim-bench` — the experiment harness behind the one `flashsim`
//! command-line tool: `flashsim figures` regenerates every table and
//! figure of the paper, the other subcommands are observability tools
//! (run report, span diffing, chaos sweep, export validation).
//!
//! Every simulating subcommand accepts `--full` to run at the paper's
//! Table-1/Table-2 sizes instead of the default proportionally scaled
//! configuration (see DESIGN.md §1 and EXPERIMENTS.md); `figures` prints
//! the regenerated table/figure next to the paper's published values
//! where the paper gives them. Each subcommand is a module here with a
//! `run(&Args)` entry point, listed in [`TOOLS`]; `flashsim` strips the
//! subcommand and hands over the rest of the command line as [`Args`].
//!
//! | Subcommand | Does |
//! |---|---|
//! | `figures NAME` | `table1` (hardware configuration), `table2` (problem sizes), `table3` (snbench latencies, calibration loop), `fig1`..`fig7`, `ablate_latency` (the §3.1.3 instruction-latency experiment), `trends` (the §3.4 accuracy/trend summary), or `all` |
//! | `report` | unified run report, hardware vs a simulator: manifest + cycle accounting + sim-time telemetry per cell, per-class error attribution, optional host-time profile (text/HTML/JSONL/CSV/Prometheus) |
//! | `spans [SIM]` | span diff: the same sampled transaction traced causally on hardware vs `SIM` (which legs own the latency gap), or on FlashLite vs NUMA without `SIM` |
//! | `chaos` | fault-injection survival matrix (seeded fault plans × platforms); `--kill-resume` crash-consistency gate |
//! | `diag` | per-run statistics for one app on hardware, SimOS-Mipsy and Solo-Mipsy |
//! | `validate KIND PATH...` | strict validation of `flashsim-*-v1` exports through `engine::Schema` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod diag;
pub mod figures;
pub mod report;
pub mod spans;
pub mod validate;

use flashsim_core::platform::{MemModel, Sim, Study};
use flashsim_workloads::ProblemScale;
use std::str::FromStr;

/// Reports a command-line mistake on stderr and exits with status 2.
pub fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// One `flashsim` subcommand: its name, the flags whose next token is
/// their value (what tells a value from a positional), and its entry
/// point, given the command line after the subcommand.
pub type Tool = (&'static str, &'static [&'static str], fn(&Args));

/// Every subcommand of `flashsim`.
pub const TOOLS: [Tool; 6] = [
    ("figures", &[], figures::run),
    ("report", report::VALUE_FLAGS, report::run),
    ("spans", spans::VALUE_FLAGS, spans::run),
    ("chaos", chaos::VALUE_FLAGS, chaos::run),
    ("diag", &[], diag::run),
    ("validate", &[], validate::run),
];

/// Splits `flashsim`'s command line (without the program name) into the
/// tool its first token names and that tool's own [`Args`]; the
/// subcommand token is consumed here and is never a tool's positional.
///
/// # Errors
///
/// The usage message listing every subcommand, when the first token is
/// missing or names none of them.
pub fn select(mut argv: Vec<String>) -> Result<(&'static Tool, Args), String> {
    let names: Vec<&str> = TOOLS.iter().map(|t| t.0).collect();
    let usage = format!("usage: flashsim {} [ARGS]", names.join("|"));
    if argv.is_empty() {
        return Err(usage);
    }
    let name = argv.remove(0);
    match TOOLS.iter().find(|t| t.0 == name) {
        Some(tool) => Ok((tool, Args::new(argv, tool.1))),
        None => Err(format!("unknown subcommand {name}\n{usage}")),
    }
}

/// One tool's command line: flags that take a value (`--nodes 4`),
/// switches (`--full`), and positional tokens.
#[derive(Debug, Clone)]
pub struct Args {
    args: Vec<String>,
    value_flags: &'static [&'static str],
}

impl Args {
    /// `args` read with `value_flags` naming the flags whose next token
    /// is their value.
    pub fn new(args: Vec<String>, value_flags: &'static [&'static str]) -> Args {
        Args { args, value_flags }
    }

    /// The token after `flag`, if `flag` was given; a flag given last or
    /// followed by another `--flag` is reported as `--flag takes a value`
    /// and exits with status 2.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let at = self.args.iter().position(|a| a == flag)?;
        match self.args.get(at + 1) {
            Some(value) if !value.starts_with("--") => Some(value),
            _ => fail(&format!("{flag} takes a value")),
        }
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

    /// The tokens that are neither a flag nor a value flag's value (a
    /// `--flag` is never a value: [`Args::value`] rejects it).
    pub fn positionals(&self) -> impl Iterator<Item = &str> {
        let mut is_value = false;
        self.args.iter().map(String::as_str).filter(move |a| {
            let skip = is_value && !a.starts_with("--");
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
/// given. Anything else, `--nodes 0` included, is reported and exits
/// with status 2.
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
    let nodes = args.get("--nodes").unwrap_or(4);
    if nodes == 0 {
        fail("--nodes takes a node count of at least 1");
    }
    (sim, mem, nodes)
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

    fn argv(line: &[&str]) -> Vec<String> {
        line.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn select_consumes_the_subcommand_before_a_tool_sees_positionals() {
        let (tool, args) = select(argv(&["report", "--nodes", "2"])).expect("a subcommand");
        assert_eq!(tool.0, "report");
        // `report` is not read as the SIM positional.
        assert_eq!(args.positional(), None);
        assert_eq!(
            platform_from_args(&args),
            (Sim::SimosMipsy(150), MemModel::FlashLite, 2)
        );
        // A value flag's value is never the SIM positional.
        let (_, args) = select(argv(&["spans", "--degree", "3"])).expect("spans");
        assert_eq!(args.positional(), None);
        let (_, args) =
            select(argv(&["spans", "--seed", "9", "solo-mipsy", "--case", "k"])).expect("spans");
        assert_eq!(args.positionals().collect::<Vec<_>>(), ["solo-mipsy"]);
        // ...and a value flag missing its value does not swallow the next flag.
        let (_, args) = select(argv(&["spans", "--jsonl-fl", "--degree", "3"])).expect("spans");
        assert_eq!(args.positional(), None);
        let (tool, args) = select(argv(&["chaos", "--kill-resume-child", "d"])).expect("chaos");
        assert_eq!(
            (tool.0, args.value("--kill-resume-child")),
            ("chaos", Some("d"))
        );
        assert_eq!(args.positional(), None);
    }

    #[test]
    fn select_lists_every_subcommand_when_it_cannot_pick_one() {
        for line in [&["watch"][..], &["--nodes", "2"], &[]] {
            let message = select(argv(line)).expect_err("not a subcommand");
            assert!(
                message
                    .ends_with("usage: flashsim figures|report|spans|chaos|diag|validate [ARGS]"),
                "{message}"
            );
        }
    }

    #[test]
    fn default_setup_is_scaled() {
        let s = Args::new(Vec::new(), &[]).setup();
        assert_eq!(s.scale, ProblemScale::Scaled);
        assert_eq!(s.study.geometry.tlb_entries, 16);
    }
}
