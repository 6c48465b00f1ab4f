//! `escalate` — command-line interface to the ESCALATE reproduction.
//!
//! Run `escalate help` for usage.

mod args;
mod commands;
mod manifest;

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::ParsedArgs::parse(raw, commands::boolean_flags) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match commands::dispatch(&parsed) {
        Ok(mut out) => {
            // One write for the whole output: `println!` writes the final
            // newline separately, and a reader that stops at its first
            // match (`| grep -q`) may close the pipe in between. A reader
            // that stopped reading is not a failure of this command.
            out.push('\n');
            let mut stdout = std::io::stdout().lock();
            match stdout
                .write_all(out.as_bytes())
                .and_then(|()| stdout.flush())
            {
                Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("error: cannot write output: {e}");
                    ExitCode::FAILURE
                }
                _ => ExitCode::SUCCESS,
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
