//! The `hpcfail` binary: thin wrapper over [`hpcfail_cli`].

#![forbid(unsafe_code)]

use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match hpcfail_cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(e.code);
        }
    };
    match hpcfail_cli::execute(&command) {
        Ok(text) => {
            // A reader that stops early (`| head`) closes the pipe; that
            // ends the output, it is not an error.
            let mut out = std::io::stdout().lock();
            if let Err(e) = writeln!(out, "{text}").and_then(|()| out.flush()) {
                if e.kind() != std::io::ErrorKind::BrokenPipe {
                    eprintln!("cannot write output: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(e.code);
        }
    }
}
