//! The `dp-perf` command; see the library documentation for its usage.

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    dp_perf::run_cli(&argv)
}
