//! The flag reader the `mha-*` binaries share.
//!
//! A binary walks its arguments as an iterator and reads each flag's value
//! with [`Args::value`], [`Args::parse`] or [`Args::choose`]. A missing,
//! malformed or out-of-range value, and anything the binary rejects
//! through [`Args::fail`] (an unknown flag, say), prints the problem and
//! the binary's usage text to stderr and exits 2.

use std::fmt::Display;
use std::str::FromStr;

/// A binary's arguments after the program name, with its usage text.
pub struct Args {
    rest: std::vec::IntoIter<String>,
    usage: &'static str,
}

impl Args {
    /// The process's arguments; `usage` is printed with every error.
    pub fn from_env(usage: &'static str) -> Args {
        Args::new(std::env::args().skip(1).collect(), usage)
    }

    fn new(args: Vec<String>, usage: &'static str) -> Args {
        Args {
            rest: args.into_iter(),
            usage,
        }
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        match self.rest.next() {
            Some(v) => v,
            None => self.fail(format!("{flag} needs a value")),
        }
    }

    /// The value following `flag`, parsed as the type of the field it
    /// sets: a value outside that type's range is an error, never a wrap.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> T
    where
        T::Err: Display,
    {
        let v = self.value(flag);
        v.parse()
            .unwrap_or_else(|e| self.fail(format!("{flag} needs a number, got '{v}' ({e})")))
    }

    /// The value following `flag`, which must name one of `choices`.
    pub fn choose<T: Copy>(&mut self, flag: &str, choices: &[(&str, T)]) -> T {
        let v = self.value(flag);
        match choices.iter().find(|(name, _)| *name == v) {
            Some(&(_, choice)) => choice,
            None => {
                let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
                self.fail(format!("{flag} needs {}, got '{v}'", names.join("|")))
            }
        }
    }

    /// Print `problem` and the usage text to stderr, then exit 2.
    pub fn fail(&self, problem: impl Display) -> ! {
        eprintln!("{problem}\n{}", self.usage);
        std::process::exit(2);
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()).collect(), "usage")
    }

    #[test]
    fn values_parse_into_the_field_type() {
        let mut a = args(&[
            "--fuel",
            "5000000000",
            "--ii",
            "4",
            "--format",
            "json",
            "gemm",
        ]);
        assert_eq!(a.next().as_deref(), Some("--fuel"));
        assert_eq!(a.parse::<u64>("--fuel"), 5_000_000_000);
        assert_eq!(a.next().as_deref(), Some("--ii"));
        assert_eq!(a.parse::<u32>("--ii"), 4);
        assert_eq!(a.next().as_deref(), Some("--format"));
        assert!(a.choose("--format", &[("text", false), ("json", true)]));
        assert_eq!(a.next().as_deref(), Some("gemm"));
        assert_eq!(a.next(), None);
    }
}
