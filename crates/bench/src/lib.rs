//! Shared harness utilities for the reproduction binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/`, plus
//! the general `campaign` driver; the repository's `README.md` and
//! `ARCHITECTURE.md` index them. The binaries share one strict
//! `--key value` argument parser and a common output directory for CSV
//! series (`target/paper-results/`).

use std::collections::HashMap;
use std::fmt::Debug;
use std::ops::RangeBounds;
use std::path::PathBuf;
use std::str::FromStr;

use codesign_nasbench::MAX_VERTICES;

/// Strict `--key value` / `--flag` command-line arguments, checked against
/// the binary's flag table.
///
/// The table is one comma-separated string of entries: `--name` for a
/// switch, `--name VALUE` for a flag that takes a value, and a bare word for
/// a subcommand, which may only come first. An unknown flag, a missing
/// value, a value flag given twice or a stray word is an error;
/// [`Args::parse`] reports it and exits with code 2, and on `--help` prints
/// the usage line built from the table and exits 0. A numeric value that
/// does not parse, or falls outside the range a binary accepts, also exits
/// 2.
///
/// # Examples
///
/// ```
/// use codesign_bench::Args;
///
/// let table = "--steps N, --seed S, --full";
/// let args = Args::from_iter(table, ["--steps", "100", "--full"]).unwrap();
/// assert_eq!(args.get_usize("steps", 10), 100);
/// assert!(args.flag("full"));
/// assert_eq!(args.get_u64("seed", 7), 7);
/// assert!(Args::from_iter(table, ["--stpes", "5"]).is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    command: Option<String>,
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process arguments against `table` (see [`Args`]).
    #[must_use]
    pub fn parse(table: &str) -> Self {
        let mut argv = std::env::args();
        let program = PathBuf::from(argv.next().unwrap_or_default());
        let usage = usage(
            &program.file_name().unwrap_or_default().to_string_lossy(),
            table,
        );
        let items: Vec<String> = argv.collect();
        if items.iter().any(|item| item == "--help") {
            println!("{usage}");
            std::process::exit(0);
        }
        Self::from_iter(table, items).unwrap_or_else(|err| {
            eprintln!("{err}\n{usage}");
            std::process::exit(2);
        })
    }

    /// Parses explicit arguments against `table` (see [`Args`]).
    ///
    /// # Errors
    ///
    /// Names the unknown flag, the flag missing its value, the value flag
    /// given twice, or the stray word.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I, S>(table: &str, items: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Self::default();
        let mut items = items.into_iter().map(Into::into).peekable();
        let mut first = true;
        while let Some(item) = items.next() {
            let entry = entries(table).find(|entry| entry.split(' ').next() == Some(&item));
            match (item.strip_prefix("--"), entry) {
                (None, Some(_)) if first => args.command = Some(item),
                (None, _) => return Err(format!("unexpected argument '{item}'")),
                (Some(_), None) => return Err(format!("unknown flag {item}")),
                (Some(key), Some(entry)) if entry.contains(' ') => {
                    let value = items
                        .next_if(|value| !value.starts_with("--"))
                        .ok_or_else(|| format!("{item} needs a value"))?;
                    if args.values.insert(key.to_owned(), value).is_some() {
                        return Err(format!("{item} given twice"));
                    }
                }
                (Some(key), Some(_)) => args.flags.push(key.to_owned()),
            }
            first = false;
        }
        Ok(args)
    }

    /// The subcommand, when the first argument named one.
    #[must_use]
    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// The raw value of `--key`, if given.
    #[must_use]
    pub fn value(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Integer option with default.
    #[must_use]
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.number(key).unwrap_or(default)
    }

    /// Integer option with default, checked against `range`; exits 2
    /// outside it.
    #[must_use]
    pub fn get_usize_in<R: RangeBounds<usize> + Debug>(
        &self,
        key: &str,
        default: usize,
        range: R,
    ) -> usize {
        let value = self.get_usize(key, default);
        if !range.contains(&value) {
            eprintln!("invalid value '{value}' for --{key}: expected {range:?}");
            std::process::exit(2);
        }
        value
    }

    /// `--max-vertices` with default: the vertex bound of the cell space,
    /// `2..=7`; exits 2 outside it.
    #[must_use]
    pub fn max_vertices(&self, default: usize) -> usize {
        self.get_usize_in("max-vertices", default, 2..=MAX_VERTICES)
    }

    /// Seed-style option with default.
    #[must_use]
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.number(key).unwrap_or(default)
    }

    /// String option with default.
    #[must_use]
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.value(key).unwrap_or(default).to_owned()
    }

    /// Presence of a bare `--flag`.
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// The value of `--key` as a number, if given; exits 2 when it does
    /// not parse.
    fn number<T: FromStr>(&self, key: &str) -> Option<T> {
        let value = self.value(key)?;
        Some(value.parse().unwrap_or_else(|_| {
            eprintln!("invalid value '{value}' for --{key}: expected a number");
            std::process::exit(2);
        }))
    }
}

/// The entries of a flag table.
fn entries(table: &str) -> impl Iterator<Item = &str> {
    table
        .split(',')
        .map(str::trim)
        .filter(|entry| !entry.is_empty())
}

/// The usage line of `program`, built from its flag table.
fn usage(program: &str, table: &str) -> String {
    let (commands, flags): (Vec<&str>, Vec<&str>) = entries(table)
        .chain(["--help"])
        .partition(|entry| !entry.starts_with("--"));
    let mut line = format!("usage: {program}");
    if !commands.is_empty() {
        line += &format!(" [{}]", commands.join("|"));
    }
    for flag in flags {
        line += &format!(" [{flag}]");
    }
    line
}

/// Output directory for CSV artifacts (`target/paper-results`), created on
/// first use.
///
/// # Panics
///
/// Panics when the directory cannot be created.
#[must_use]
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target").join("paper-results");
    std::fs::create_dir_all(&dir).expect("create output directory");
    dir
}

/// Downsamples a series to at most `points` evenly-spaced entries
/// (always keeping the last), for readable terminal output of long curves.
#[must_use]
pub fn downsample(series: &[f64], points: usize) -> Vec<(usize, f64)> {
    if series.is_empty() || points == 0 {
        return Vec::new();
    }
    let stride = (series.len() / points).max(1);
    let mut out: Vec<(usize, f64)> = series.iter().copied().enumerate().step_by(stride).collect();
    let last = series.len() - 1;
    if out.last().map(|(i, _)| *i) != Some(last) {
        out.push((last, series[last]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &str = "serve, --a N, --b X, --quick, --missing";

    #[test]
    fn args_mix_flags_and_values() {
        let args = Args::from_iter(TABLE, ["--a", "1", "--quick", "--b", "2.5"]).unwrap();
        assert_eq!(args.get_usize("a", 0), 1);
        assert_eq!(args.value("b"), Some("2.5"));
        assert!(args.flag("quick"));
        assert!(!args.flag("missing"));
        assert_eq!(args.command(), None);
    }

    #[test]
    fn args_defaults_apply() {
        let args = Args::from_iter(TABLE, Vec::<String>::new()).unwrap();
        assert_eq!(args.get_usize("steps", 42), 42);
    }

    #[test]
    fn args_reject_what_the_table_does_not_name() {
        for (argv, reason) in [
            (vec!["--stpes", "5"], "unknown flag --stpes"),
            (vec!["--a"], "--a needs a value"),
            (vec!["--a", "--quick"], "--a needs a value"),
            (vec!["stray"], "unexpected argument 'stray'"),
            (vec!["--quick", "serve"], "unexpected argument 'serve'"),
            (vec!["--a", "1", "--b", "2", "--a", "1"], "--a given twice"),
        ] {
            assert_eq!(Args::from_iter(TABLE, argv).unwrap_err(), reason);
        }
        let args = Args::from_iter(TABLE, ["serve", "--a", "3"]).unwrap();
        assert_eq!(
            (args.command(), args.value("a")),
            (Some("serve"), Some("3"))
        );
        assert_eq!(
            usage("prog", TABLE),
            "usage: prog [serve] [--a N] [--b X] [--quick] [--missing] [--help]"
        );
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let series: Vec<f64> = (0..100).map(f64::from).collect();
        let ds = downsample(&series, 10);
        assert_eq!(ds.first(), Some(&(0, 0.0)));
        assert_eq!(ds.last(), Some(&(99, 99.0)));
        assert!(ds.len() <= 12);
    }

    #[test]
    fn downsample_short_series_unchanged() {
        let ds = downsample(&[1.0, 2.0], 10);
        assert_eq!(ds, vec![(0, 1.0), (1, 2.0)]);
    }
}
