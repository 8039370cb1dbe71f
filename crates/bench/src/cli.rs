//! Flag-parsing contract shared by the harness binaries: `--help` prints
//! the usage line to stdout and exits 0; an unknown flag, a flag missing
//! its value, or a value that does not parse prints the problem and the
//! usage line to stderr and exits 2 — never a panic backtrace.

use std::str::FromStr;

/// One binary's usage line plus the argument stream being parsed.
#[derive(Debug)]
pub struct Cli {
    bin: &'static str,
    usage: &'static str,
    args: std::iter::Skip<std::env::Args>,
}

impl Cli {
    /// Parses this process's arguments for binary `bin`, whose usage line
    /// (starting `usage: <bin>`) is `usage`.
    pub fn new(bin: &'static str, usage: &'static str) -> Cli {
        Cli {
            bin,
            usage,
            args: std::env::args().skip(1),
        }
    }

    /// The next flag, or `None` once the arguments are exhausted. `--help`
    /// and `-h` are handled here (usage, exit 0).
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.args.next()?;
        if flag == "--help" || flag == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(flag)
    }

    /// The raw value following `flag`; `what` names it in the error.
    pub fn value(&mut self, flag: &str, what: &str) -> String {
        match self.args.next() {
            Some(v) => v,
            None => self.fail(&format!("{flag} needs {what}")),
        }
    }

    /// The value following `flag`, parsed as `T`; `what` names it in the
    /// error.
    pub fn parsed<T: FromStr>(&mut self, flag: &str, what: &str) -> T {
        let v = self.value(flag, what);
        v.parse()
            .unwrap_or_else(|_| self.fail(&format!("{flag} needs {what}, got {v:?}")))
    }

    /// Prints `msg` and the usage line to stderr and exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}\n{}", self.bin, self.usage);
        std::process::exit(2);
    }
}
