//! `flashsim SUBCOMMAND [ARGS]` — the one command-line tool of the
//! workspace. The subcommands are the modules of `flashsim_bench`
//! (`flashsim_bench::TOOLS`); an unknown one prints the list and exits
//! with status 2.

fn main() {
    let ((_, _, run), args) = flashsim_bench::select(std::env::args().skip(1).collect())
        .unwrap_or_else(|usage| flashsim_bench::fail(&usage));
    run(&args);
}
