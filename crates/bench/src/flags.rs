//! The one `--flag [value]` parser of the `star-rings` CLI and the tool
//! binaries. Std-only.
//!
//! [`Flags`] hands out the arguments one at a time; the caller matches
//! each and, for a flag that takes a value, asks for it parsed with
//! `FromStr`. Every error names the flag: a missing value, a value that
//! does not parse, an unknown flag. Range checks stay with the caller,
//! one [`ensure`] each. A tool binary's `main` ends in [`exit_code`].
//!
//! ```
//! use star_bench::flags::Flags;
//!
//! let args: Vec<String> = ["--n", "7", "--print"].map(String::from).to_vec();
//! let (mut n, mut print) = (5usize, false);
//! let mut flags = Flags::new(&args);
//! while let Some(flag) = flags.next_flag() {
//!     match flag {
//!         "--n" => n = flags.value()?,
//!         "--print" => print = true,
//!         _ => return Err(flags.unknown()),
//!     }
//! }
//! assert_eq!((n, print), (7, true));
//! # Ok::<(), String>(())
//! ```

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// A cursor over command-line arguments.
#[derive(Debug)]
pub struct Flags<'a> {
    args: &'a [String],
    next: usize,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// A cursor at the first of `args`.
    pub fn new(args: &'a [String]) -> Self {
        Flags {
            args,
            next: 0,
            flag: "",
        }
    }

    /// The next argument, which becomes the current flag; `None` once
    /// every argument is consumed.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        let flag = self.args.get(self.next)?;
        self.next += 1;
        self.flag = flag;
        Some(flag)
    }

    /// Consumes the current flag's value as text.
    pub fn value_str(&mut self) -> Result<&'a str, String> {
        let value = self
            .args
            .get(self.next)
            .ok_or_else(|| format!("{} needs a value", self.flag))?;
        self.next += 1;
        Ok(value)
    }

    /// Consumes the current flag's value, parsed with `FromStr`.
    pub fn value<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let value = self.value_str()?;
        value
            .parse()
            .map_err(|e| format!("{}: bad value `{value}`: {e}", self.flag))
    }

    /// The error for a current flag the caller does not know.
    pub fn unknown(&self) -> String {
        format!("unknown option `{}`", self.flag)
    }
}

/// `Err(msg)` unless `ok`: a range check in one line.
pub fn ensure(ok: bool, msg: &str) -> Result<(), String> {
    ok.then_some(()).ok_or_else(|| msg.to_string())
}

/// Prints `usage: <synopsis>` to stderr and returns exit code 0: a tool
/// binary's answer to `--help`.
pub fn usage(synopsis: &str) -> ExitCode {
    eprintln!("usage: {synopsis}");
    ExitCode::SUCCESS
}

/// A tool binary's exit: the code `result` carries, or `error: <msg>` on
/// stderr and exit code 1, as the `star-rings` CLI does.
pub fn exit_code(result: Result<ExitCode, String>) -> ExitCode {
    result.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn walks_switches_values_and_positionals_in_order() {
        let args = args(&["file", "--n", "7", "--print", "--out", "x.json"]);
        let mut flags = Flags::new(&args);
        assert_eq!(flags.next_flag(), Some("file"));
        assert_eq!(flags.next_flag(), Some("--n"));
        assert_eq!(flags.value::<usize>(), Ok(7));
        assert_eq!(flags.next_flag(), Some("--print"));
        assert_eq!(flags.next_flag(), Some("--out"));
        assert_eq!(flags.value::<String>().as_deref(), Ok("x.json"));
        assert_eq!(flags.next_flag(), None);
    }

    #[test]
    fn every_error_names_the_flag() {
        let args = args(&["--n", "seven", "--bogus", "--seed"]);
        let mut flags = Flags::new(&args);
        flags.next_flag();
        let bad = flags.value::<usize>().unwrap_err();
        assert!(bad.starts_with("--n: bad value `seven`"), "{bad}");
        flags.next_flag();
        assert_eq!(flags.unknown(), "unknown option `--bogus`");
        flags.next_flag();
        assert_eq!(
            flags.value::<u64>(),
            Err("--seed needs a value".to_string())
        );
    }

    #[test]
    fn ensure_passes_or_returns_the_message() {
        assert_eq!(ensure(true, "--n must be in 4..=9"), Ok(()));
        assert_eq!(
            ensure(false, "--n must be in 4..=9"),
            Err("--n must be in 4..=9".to_string())
        );
    }
}
