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
//! `run(&Args)` entry point, listed in [`TOOLS`] with the flags it
//! declares; `flashsim` strips the subcommand, rejects any flag the
//! subcommand does not declare, and hands over the rest of the command
//! line as [`Args`].
//!
//! Tables go to stdout as text; every export file `report` and `spans`
//! write is one of the `engine::Schema` formats `flashsim validate`
//! checks.
//!
//! | Subcommand | Does |
//! |---|---|
//! | `figures NAME` | `table1` (hardware configuration), `table2` (problem sizes), `table3` (snbench latencies, calibration loop), `fig1`..`fig7`, `ablate_latency` (the §3.1.3 instruction-latency experiment), `trends` (the §3.4 accuracy/trend summary), or `all` |
//! | `report` | unified run report, hardware vs a simulator: manifest + cycle accounting + sim-time telemetry per cell, per-class error attribution, optional host-time profile (text, plus telemetry/span/hostprof JSONL) |
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

/// The largest node count a command line may ask for: the largest machine
/// any figure, test or benchmark cell builds. Every node of a cell is a
/// generator thread.
const MAX_NODES: u32 = 64;

/// `nodes`, read from the command-line argument `what`, if it is a power
/// of two (the hardware cell is always FlashLite, whose hypercube needs
/// one) no larger than 64; anything else, 0 included, is reported and
/// exits with status 2 before anything runs.
pub fn node_count(what: &str, nodes: u32) -> u32 {
    if !nodes.is_power_of_two() || nodes > MAX_NODES {
        fail(&format!(
            "{what} takes a power-of-two node count from 1 to {MAX_NODES}, got {nodes}"
        ));
    }
    nodes
}

/// One `flashsim` subcommand: its name, the flags whose next token is
/// their value (what tells a value from a positional), the flags that
/// take none, and its entry point, given the command line after the
/// subcommand. A `--flag` in neither list is a command-line error.
pub type Tool = (
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
    fn(&Args),
);

/// Every subcommand of `flashsim`.
pub const TOOLS: [Tool; 6] = [
    ("figures", &[], &["--full"], figures::run),
    ("report", report::VALUE_FLAGS, report::SWITCHES, report::run),
    ("spans", spans::VALUE_FLAGS, spans::SWITCHES, spans::run),
    ("chaos", chaos::VALUE_FLAGS, chaos::SWITCHES, chaos::run),
    ("diag", &[], &["--full"], diag::run),
    ("validate", &[], &[], validate::run),
];

/// Splits `flashsim`'s command line (without the program name) into the
/// tool its first token names and that tool's own [`Args`]; the
/// subcommand token is consumed here and is never a tool's positional.
///
/// # Errors
///
/// The usage message listing every subcommand, when the first token is
/// missing or names none of them; `unknown flag --x` and the tool's
/// flags, when a `--flag` is neither a value flag nor a switch of it (a
/// value never starts with `--`, so every such token is a flag).
pub fn select(mut argv: Vec<String>) -> Result<(&'static Tool, Args), String> {
    let names: Vec<&str> = TOOLS.iter().map(|t| t.0).collect();
    let usage = format!("usage: flashsim {} [ARGS]", names.join("|"));
    if argv.is_empty() {
        return Err(usage);
    }
    let name = argv.remove(0);
    let Some(tool) = TOOLS.iter().find(|t| t.0 == name) else {
        return Err(format!("unknown subcommand {name}\n{usage}"));
    };
    let (_, value_flags, switches, _) = tool;
    let declared = |a: &str| value_flags.contains(&a) || switches.contains(&a);
    if let Some(flag) = argv.iter().find(|a| a.starts_with("--") && !declared(a)) {
        let flags = [*value_flags, *switches].concat().join(" ");
        return Err(format!(
            "unknown flag {flag}\nflashsim {name} takes: {}",
            if flags.is_empty() { "no flags" } else { &flags }
        ));
    }
    Ok((tool, Args::new(argv, value_flags)))
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
/// given, checked by [`node_count`]. Anything else is reported and exits
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
    let nodes = node_count("--nodes", args.get("--nodes").unwrap_or(4));
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
    let geometry = match setup.scale {
        ProblemScale::Full => "full Table-1 FLASH",
        ProblemScale::Scaled => "1/8-scale (default) (use --full for the paper-size machine)",
        ProblemScale::Tiny => "tiny (tests only)",
    };
    println!("geometry: {geometry}");
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

    /// Every `"--flag"` literal in a tool's module is declared in its
    /// `TOOLS` row, and every tool that reads [`Args::setup`] declares
    /// `--full`: an undeclared flag could never reach the tool.
    #[test]
    fn every_flag_a_tool_reads_is_declared_in_its_row() {
        let sources = [
            ("figures", include_str!("figures.rs")),
            ("report", include_str!("report.rs")),
            ("spans", include_str!("spans.rs")),
            ("chaos", include_str!("chaos.rs")),
            ("diag", include_str!("diag.rs")),
            ("validate", include_str!("validate.rs")),
        ];
        for (name, source) in sources {
            let (_, value_flags, switches, _) = TOOLS.iter().find(|t| t.0 == name).expect("a row");
            let declared = |f: &str| value_flags.contains(&f) || switches.contains(&f);
            let literals = source.split("\"--").skip(1).filter_map(|rest| {
                let flag = &rest[..rest.find('"')?];
                let word = flag.chars().all(|c| c.is_ascii_lowercase() || c == '-');
                (word && !flag.is_empty()).then(|| format!("--{flag}"))
            });
            for flag in literals {
                assert!(declared(&flag), "{name} reads undeclared {flag}");
            }
            if source.contains(".setup()") {
                assert!(declared("--full"), "{name} reads --full through setup");
            }
        }
    }

    #[test]
    fn default_setup_is_scaled() {
        let s = Args::new(Vec::new(), &[]).setup();
        assert_eq!(s.scale, ProblemScale::Scaled);
        assert_eq!(s.study.geometry.tlb_entries, 16);
    }
}
